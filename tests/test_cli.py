import importlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import enrichedfp
import enrichedfp.cli as cli
import enrichedfp.problems as problems
import enrichedfp.space as space
from enrichedfp.cclass import Grid1D, Grid2D
from enrichedfp.cli import (
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VIOLATED,
    main,
)
from enrichedfp.errors import EvaluationError, InvalidInput
from enrichedfp.problems import ProblemInstance, get_problem
from enrichedfp.solver import Scheme, SolverConfig, run_schaefer
from enrichedfp.space import Mapping, Point
from test_golden import TINY_BLOCKS


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _summary_fields(path="summary.txt"):
    out = {}
    for line in open(path):
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


class TestRun:
    def test_reflection_schaefer_delta(self, capsys):
        code = main(["run", "--problem", "reflection", "--scheme", "schaefer",
                     "--delta", "1"])
        assert code == EXIT_OK
        fields = _summary_fields()
        assert fields["status"] == "converged"
        assert fields["c"] == "0.5"
        assert fields["delta"] == "1"
        assert fields["limit"] == "0.5"
        assert fields["iterations"] == "2"
        assert "status = converged" in capsys.readouterr().out

    def test_reflection_picard_exit_code(self):
        code = main(["run", "--problem", "reflection", "--scheme", "picard",
                     "--max-iter", "40"])
        assert code == EXIT_NOT_CONVERGED

    def test_half_map_picard_equivalent(self):
        code = main(["run", "--problem", "half-map", "--scheme", "schaefer", "--c", "1"])
        assert code == EXIT_OK
        fields = _summary_fields()
        assert abs(float(fields["limit"])) < 1e-9

    def test_doubling_diverges_distinct_code(self):
        code = main(["run", "--problem", "doubling", "--scheme", "picard",
                     "--start", "1", "--divergence-bound", "1e6"])
        assert code == EXIT_VIOLATED

    def test_trace_csv_written(self):
        main(["run", "--problem", "reflection", "--scheme", "schaefer", "--delta", "1"])
        lines = open("trace.csv").read().splitlines()
        assert lines[0] == "iter,residual,x0"
        assert lines[1] == "0,,0"

    def test_no_coords_flag(self):
        main(["run", "--problem", "reflection", "--scheme", "schaefer",
              "--delta", "1", "--no-coords"])
        assert open("trace.csv").read().splitlines()[0] == "iter,residual"

    def test_unknown_problem(self, capsys):
        code = main(["run", "--problem", "nope"])
        assert code == EXIT_CONFIG
        assert "nope" in capsys.readouterr().err

    def test_c_and_delta_conflict(self):
        code = main(["run", "--problem", "half-map", "--c", "0.5", "--delta", "1"])
        assert code == EXIT_CONFIG

    def test_bad_scheme(self):
        assert main(["run", "--problem", "half-map", "--scheme", "newton"]) == EXIT_CONFIG

    def test_jungck_on_single_problem(self):
        code = main(["run", "--problem", "half-map", "--scheme", "jungck-schaefer"])
        assert code == EXIT_CONFIG

    def test_jungck_pair_runs(self):
        code = main(["run", "--problem", "jungck-linear", "--scheme", "jungck-schaefer",
                     "--start", "1"])
        assert code == EXIT_OK
        assert abs(float(_summary_fields()["limit"])) < 1e-9

    def test_overflow_is_divergence(self):
        # 2^1024 overflows before any finite bound is crossed; the overflow is
        # reported as divergence, not as a numpy warning on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["run", "--problem", "doubling", "--scheme", "picard", "--start", "1",
                         "--divergence-bound", "1e400"])
        assert code == EXIT_VIOLATED
        fields = _summary_fields()
        assert fields["status"] == "diverged"
        assert fields["iterations"] == "1023"
        last_row = open("trace.csv").read().splitlines()[-1]
        assert last_row == f"1023,{2.0**1022:.17g},{2.0**1023:.17g}"

    @pytest.mark.parametrize("flag,value", [
        pytest.param("--tol", "nan", id="--tol"),
        pytest.param("--divergence-bound", "nan", id="--divergence-bound"),
        # an infinite tol would report convergence after one step of any map
        pytest.param("--tol", "inf", id="--tol-inf"),
    ])
    def test_nan_threshold_is_config_error(self, flag, value):
        code = main(["run", "--problem", "half-map", "--scheme", "picard", flag, value])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_bad_delta_is_blamed_on_delta(self, delta, capsys):
        code = main(["run", "--problem", "half-map", "--delta", delta])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: delta must be")

    def test_negative_start_in_exponent_form(self):
        runs = []
        for start in ("-1e3", "-1000.0"):
            code = main(["run", "--problem", "half-map", "--start", start])
            runs.append((code, open("trace.csv").read()))
        assert runs[0] == runs[1] and runs[0][0] == EXIT_OK
        code = main(["run", "--problem", "random-affine:2:0.5:3", "--start", "-1e3,2.5e-1"])
        assert code == EXIT_OK
        assert open("trace.csv").read().splitlines()[1] == "0,,-1000,0.25"

    @pytest.mark.parametrize("start", ["-inf", "-nan", "-Infinity", "-INF", "-NaN"])
    def test_negative_nonfinite_start_is_a_value(self, capsys, start):
        code = main(["run", "--problem", "half-map", "--start", start])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: point coordinates must be finite")

    def test_rerun_byte_identical(self):
        args = ["run", "--problem", "half-map", "--scheme", "schaefer",
                "--c", "0.25", "--start", "3"]
        main(args)
        first = open("trace.csv", "rb").read(), open("summary.txt", "rb").read()
        main(args)
        second = open("trace.csv", "rb").read(), open("summary.txt", "rb").read()
        assert first == second

    @pytest.mark.parametrize("coords", [True, False], ids=["coords", "no-coords"])
    def test_trace_csv_is_streamed_to_disk(self, coords):
        problem, dim = "random-affine:100:0.999:1", 100
        cfg = SolverConfig(Scheme.SCHAEFER, Point.from_array(np.zeros(dim)), c=0.001,
                           max_iter=2000)
        # the reference also builds the formatter's one-time table before tracing
        expected = run_schaefer(get_problem(problem).f, cfg).to_csv(coords).encode()
        argv = ["run", "--problem", problem, "--c", "0.001", "--max-iter", "2000"]
        tracemalloc.start()
        try:
            code = main(argv + ([] if coords else ["--no-coords"]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_NOT_CONVERGED
        data = Path("trace.csv").read_bytes()
        assert data == expected
        # the run never holds its 2001 rows of iterates, nor the whole CSV
        assert peak < 2001 * 100 * 8
        if coords:
            assert peak < len(data)

    @pytest.mark.parametrize("argv", [
        pytest.param(["run"], id="run"),
        pytest.param(["run", "--no-coords"], id="run-no-coords"),
        pytest.param(["sweep", "--c-values", "0.001"], id="sweep"),
    ])
    def test_memory_does_not_grow_with_max_iter(self, argv):
        # c = 0.001 on a contraction of norm 0.999 does not converge in 20000 steps.  Both
        # lengths are past the last growth of the CSV batches, at row 4088 without coords
        argv = argv + ["--problem", "random-affine:100:0.999:1", "--max-iter"]
        if argv[0] == "run":
            argv = argv[:1] + ["--c", "0.001"] + argv[1:]
        main(argv + ["5000"])  # builds the problem and the formatter's table untraced

        def peak(max_iter):
            tracemalloc.start()
            try:
                assert main(argv + [str(max_iter)]) in (EXIT_OK, EXIT_NOT_CONVERGED)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20000) <= 1.1 * peak(5000)

    def test_up_front_errors_come_before_the_trace_and_the_run(self, monkeypatch, capsys):
        # a seed of the wrong dimension is refused before the trace file is opened
        assert main(["run", "--problem", "half-map", "--start", "1,2"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: seed point dimension 2")
        assert not Path("trace.csv").exists()
        # and an unwritable trace path is refused before the map is evaluated once
        calls = []
        problem = ProblemInstance(
            "counted", Mapping(fn=lambda x: calls.append(x) or x / 2.0, dim=1), box=(0.0, 1.0))
        monkeypatch.setattr(cli, "get_problem", lambda name: problem)
        assert main(["run", "--problem", "counted", "--trace", "missing/t.csv"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: [Errno 2]") and not calls

    def test_error_mid_run_keeps_the_rows_before_it(self, monkeypatch, capsys):
        """A map that raises at step k: exit 3, no summary, and rows 0..k-1 on disk,
        whatever the block schedule; the caller's numpy error state between blocks."""
        k = 300

        def fn(x):
            if x[0] >= k - 1:  # u_n = n, so step k evaluates at k - 1
                raise EvaluationError("refused", x)
            return x + 1.0
        problem = ProblemInstance("counter", Mapping(fn=fn, dim=1), box=(0.0, 1.0))
        monkeypatch.setattr(cli, "get_problem", lambda name: problem)
        seen, rows = [], cli._CsvWriter.rows

        def recorded(self, xs, residuals):
            seen.append(np.geterr())
            return rows(self, xs, residuals)
        monkeypatch.setattr(cli._CsvWriter, "rows", recorded)
        expected = "iter,residual,x0\n0,,0\n" + "".join(f"{n},1,{n}\n" for n in range(1, k))
        caller = np.geterr()
        for schedule in ({}, TINY_BLOCKS):
            with monkeypatch.context() as m:
                for (module, name), value in schedule.items():
                    m.setattr(importlib.import_module(f"enrichedfp.{module}"), name, value)
                assert main(["run", "--problem", "counter", "--scheme", "picard"]) == EXIT_VIOLATED
            assert capsys.readouterr().err == "error: refused\n"
            assert Path("trace.csv").read_text() == expected
            assert not Path("summary.txt").exists()
        assert len(seen) > 10 and all(state == caller for state in seen)


class TestConfigFile:
    def test_file_drives_run(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# reflection under the averaged scheme\n"
            "problem = reflection\n"
            "scheme = schaefer\n"
            "delta = 1\n"
            "trace = out.csv\n"
        )
        code = main(["run", "--config", str(cfg)])
        assert code == EXIT_OK
        assert (tmp_path / "out.csv").exists()
        assert _summary_fields()["c"] == "0.5"

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = reflection\nscheme = picard\nmax-iter = 40\n")
        code = main(["run", "--config", str(cfg), "--scheme", "schaefer", "--delta", "1"])
        assert code == EXIT_OK

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = reflection\nturbo = yes\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_file(self):
        assert main(["run", "--config", "missing.cfg"]) == EXIT_CONFIG

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"problem = half-map\n\xff\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {str(cfg)!r}: ")

    @pytest.mark.parametrize("line", ["tol = abc", "max-iter = 1.5", "c = x",
                                      "divergence-bound = y"])
    def test_bad_value_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = half-map\n{line}\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_coords_false_omits_coordinates(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = reflection\ndelta = 1\ncoords = false\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert open("trace.csv").read().splitlines()[0] == "iter,residual"


class TestVerifyContraction:
    def test_half_map_satisfied(self):
        code = main(["verify-contraction", "--problem", "half-map",
                     "--variant", "hardy-rogers", "--c1", "0.6"])
        assert code == EXIT_OK
        report = json.load(open("certificate.json"))
        assert report["outcome"] == "satisfied"
        assert report["pairs_checked"] >= 1000

    def test_doubling_violated(self):
        code = main(["verify-contraction", "--problem", "doubling",
                     "--variant", "hardy-rogers", "--c1", "0.9"])
        assert code == EXIT_VIOLATED
        report = json.load(open("certificate.json"))
        assert report["outcome"] == "violated"
        assert report["witness"]["lhs"] > report["witness"]["rhs"]

    def test_jungck_variant_on_pair(self):
        code = main(["verify-contraction", "--problem", "jungck-linear",
                     "--variant", "jungck-hardy-rogers", "--c1", "0.5"])
        assert code == EXIT_OK

    def test_jungck_variant_on_single_problem(self):
        code = main(["verify-contraction", "--problem", "half-map",
                     "--variant", "jungck-hardy-rogers", "--c1", "0.5"])
        assert code == EXIT_CONFIG

    def test_cclass_needs_triple(self):
        code = main(["verify-contraction", "--problem", "half-map",
                     "--variant", "cclass-hardy-rogers", "--c1", "1.0"])
        assert code == EXIT_CONFIG

    def test_cclass_with_triple(self):
        code = main(["verify-contraction", "--problem", "half-map",
                     "--variant", "cclass-hardy-rogers", "--c1", "1.0",
                     "--triple", "example-2.5-monotone"])
        assert code in (EXIT_OK, EXIT_VIOLATED)
        report = json.load(open("certificate.json"))
        assert report["outcome"] == "violated"  # psi(0.5) > 0 = G(psi(1), phi(1))

    def test_failing_evaluation_is_exit_3(self, capsys):
        # psi squares a sampled distance near 1e308 to infinity
        code = main(["verify-contraction", "--problem", "doubling",
                     "--variant", "cclass-hardy-rogers", "--c1", "1.0",
                     "--triple", "example-2.5-monotone", "--box", "1e300", "1e308"])
        assert code == EXIT_VIOLATED
        assert capsys.readouterr().err.startswith("error: ")

    def test_sum_mode_mismatch(self, capsys):
        # the variant decides the weight-sum rule: there is no flag to set it
        code = main(["verify-contraction", "--problem", "half-map",
                     "--variant", "hardy-rogers", "--c1", "1.0",
                     "--sum-mode", "exactly-one"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: unrecognized arguments: --sum-mode exactly-one\n")

    @pytest.mark.parametrize("flags, message", [
        (["--variant", "hardy-rogers", "--c1", "0.6", "--c2", "0.4"],
         "weights must sum below 1, got 1.0"),
        (["--variant", "jungck-hardy-rogers", "--c1", "1"], "weights must sum below 1, got 1.0"),
        (["--variant", "cclass-hardy-rogers", "--c1", "0.5", "--triple", "identity-triple"],
         "weights must sum to 1, got 0.5"),
        # two bad values: the box is checked before the weights
        (["--variant", "hardy-rogers", "--c1", "1", "--box", "1", "1"],
         "empty sampling box [1.0, 1.0]"),
    ], ids=["plain", "jungck", "cclass", "box-first"])
    def test_weight_sum_the_variant_refuses(self, flags, message, capsys):
        problem = "jungck-linear" if "jungck-hardy-rogers" in flags else "half-map"
        code = main(["verify-contraction", "--problem", problem, *flags])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_report_byte_identical(self):
        args = ["verify-contraction", "--problem", "doubling",
                "--variant", "hardy-rogers", "--c1", "0.9", "--seed", "5"]
        main(args)
        first = open("certificate.json", "rb").read()
        main(args)
        assert open("certificate.json", "rb").read() == first


    @pytest.mark.parametrize("flags", [
        ["--delta", "inf"],
        ["--delta", "nan"],
        ["--tol", "nan"],
        ["--tol", "-1"],
        ["--box", "0", "1.7976931348623157e308"],
        ["--seed", "-1"],
    ], ids=["delta-inf", "delta-nan", "tol-nan", "tol-negative", "box-overflows",
            "seed-negative"])
    def test_meaningless_certificate_input_is_config_error(self, flags, capsys):
        code = main(["verify-contraction", "--problem", "half-map",
                     "--variant", "hardy-rogers", "--c1", "0.5", *flags])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_box_bound_in_exponent_form(self):
        runs = []
        for lo, hi in (("-1e3", "1e3"), ("-1000.0", "1000")):
            code = main(["verify-contraction", "--problem", "affine-contraction-10d",
                         "--variant", "hardy-rogers", "--c1", "0.9", "--box", lo, hi])
            runs.append((code, json.load(open("certificate.json"))))
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_OK and runs[0][1]["pairs_checked"] > 0

    @pytest.mark.parametrize("box,message", [
        (("-inf", "1"), "error: sampling box [-inf, 1.0] yields non-finite points"),
        (("-Infinity", "1"), "error: sampling box [-inf, 1.0] yields non-finite points"),
        # a NaN bound is not an empty box: the finiteness test runs before lo < hi
        (("-nan", "1"), "error: sampling box [nan, 1.0] yields non-finite points"),
        (("-1", "-nan"), "error: sampling box [-1.0, nan] yields non-finite points"),
    ], ids=["lo-inf", "lo-Infinity", "lo-nan", "hi-nan"])
    def test_negative_nonfinite_box_bound_is_a_value(self, capsys, box, message):
        code = main(["verify-contraction", "--problem", "half-map", "--variant",
                     "hardy-rogers", "--c1", "0.5", "--box", *box])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.strip() == message

    def test_nonfinite_witness_values_are_json_strings(self):
        code = main(["verify-contraction", "--problem", "doubling",
                     "--variant", "hardy-rogers", "--c1", "0.9",
                     "--box", "1e300", "1.7e308"])
        assert code == EXIT_VIOLATED

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        witness = json.loads(open("certificate.json").read(), parse_constant=reject)["witness"]
        assert (witness["lhs"], witness["rhs"]) == ("inf", "nan")

    def test_zero_weight_on_an_overflowed_distance_keeps_the_nan(self, capsys):
        # at pair 1, ||v - f(v)|| = 1.8e308 overflows and its zero weight c5 gives
        # 0 * inf = nan, so M is nan and the pair fails; skipping the zero-weight
        # terms without the overflow guard would make the certificate satisfied
        code = main(["verify-contraction", "--problem", "reflection", "--variant",
                     "hardy-rogers", "--delta", "1", "--c1", "0.5", "--box", "0", "9e307"])
        assert code == EXIT_VIOLATED
        assert capsys.readouterr().out == "violated: hardy-rogers on reflection over 1 pairs\n"
        report = json.load(open("certificate.json"))
        assert report["pairs_checked"] == 1
        assert report["witness"] == {"lhs": 0.0, "rhs": "nan", "u": [0.0], "v": [9e307]}


class TestVerifyCClass:
    def test_monotone_builtin_matches(self):
        code = main(["verify-cclass", "--triple", "example-2.5-monotone"])
        assert code == EXIT_OK
        text = open("cclass_report.txt").read()
        assert "monotone = monotone-on-grid" in text
        assert "expected_matched = yes" in text

    def test_nonmonotone_builtin_matches_expectation(self):
        code = main(["verify-cclass", "--triple", "example-2.6-nonmonotone"])
        assert code == EXIT_OK  # violation was expected, so expectations matched
        text = open("cclass_report.txt").read()
        assert "monotone = violated" in text
        assert "monotone_witness = " in text

    def test_identity_triple(self):
        assert main(["verify-cclass", "--triple", "identity-triple"]) == EXIT_OK

    def test_unknown_triple(self):
        assert main(["verify-cclass", "--triple", "zzz"]) == EXIT_CONFIG

    # a subnormal upper leaves the grid's log refinement no positive start
    @pytest.mark.parametrize("upper", ["nan", "inf", "5e-324", "1e-320"])
    def test_grid_upper_must_be_finite(self, upper, capsys):
        args = ["verify-cclass", "--triple", "identity-triple", "--grid-upper", upper]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: grid ")

    @pytest.mark.parametrize("upper,at", [("1e200", "1e+197"), ("1e160", "1e+157")])
    def test_grid_overflow_is_blamed_on_the_grid(self, upper, at, capsys):
        # psi(t) = t**2 above 1 overflows on this grid: the triple is fine
        args = ["verify-cclass", "--triple", "example-2.5-monotone", "--grid-upper", upper]
        assert main(args) == EXIT_VIOLATED
        assert capsys.readouterr().err == (
            f"error: sqrt-below-1-square-above overflowed to inf at {at}: "
            "--grid-upper puts the grid out of range for this function\n")

    @pytest.mark.parametrize("tol,code", [
        ("nan", EXIT_CONFIG), ("inf", EXIT_CONFIG), ("-1", EXIT_CONFIG), ("0", EXIT_OK),
    ])
    def test_tol_must_be_finite_and_nonnegative(self, tol, code):
        assert main(["verify-cclass", "--triple", "identity-triple", "--tol", tol]) == code


class TestSweep:
    def test_reflection_sweep(self):
        code = main(["sweep", "--problem", "reflection",
                     "--c-values", "0.1,0.25,0.5,0.75,0.9"])
        assert code == EXIT_OK
        rows = open("sweep.csv").read().splitlines()
        assert rows[0] == "c,iterations,status,final_residual"
        body = [r.split(",") for r in rows[1:]]
        assert all(r[2] == "converged" for r in body)
        iters = {float(r[0]): int(r[1]) for r in body}
        assert min(iters, key=iters.get) == 0.5  # fastest at the balanced average

    def test_c_one_is_picard_row(self):
        main(["sweep", "--problem", "reflection", "--c-values", "1.0", "--max-iter", "40"])
        row = open("sweep.csv").read().splitlines()[1].split(",")
        assert row[2] == "max-iter-exceeded"

    def test_half_map_c_one_row_matches_picard_run(self):
        main(["sweep", "--problem", "half-map", "--c-values", "1.0"])
        row = open("sweep.csv").read().splitlines()[1].split(",")
        main(["run", "--problem", "half-map", "--scheme", "picard"])
        fields = _summary_fields()
        assert row[1] == fields["iterations"]
        assert row[2] == fields["status"]
        assert row[3] == fields["residual"]

    def test_pair_is_built_once_per_sweep(self, monkeypatch):
        # each build checks S's rank and inverts S
        built = []
        pair = ProblemInstance.pair
        monkeypatch.setattr(ProblemInstance, "pair", lambda self: built.append(1) or pair(self))
        assert main(["sweep", "--problem", "jungck-linear", "--scheme", "jungck-schaefer",
                     "--c-values", "0.1,0.5,1"]) == EXIT_OK
        assert len(open("sweep.csv").read().splitlines()) == 4
        assert len(built) == 1

    def test_empty_c_values(self):
        assert main(["sweep", "--problem", "reflection", "--c-values", ""]) == EXIT_CONFIG

    def test_out_of_range_c(self):
        assert main(["sweep", "--problem", "reflection", "--c-values", "1.5"]) == EXIT_CONFIG

    @pytest.mark.parametrize("problem, scheme, c", [
        ("doubling", "picard", "1"), ("jungck-linear", "jungck-schaefer", "0.5")])
    def test_run_without_a_residual_prints_none(self, problem, scheme, c):
        # from 1e308 the run diverges at iteration 0, before its first residual
        assert main(["sweep", "--problem", problem, "--scheme", scheme, "--c-values", c,
                     "--start", "1e308"]) == EXIT_OK
        assert open("sweep.csv").read().splitlines()[1] == f"{c},0,diverged,none"


def test_list_commands(capsys):
    assert main(["list-problems"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "half-map" in out and "jungck-linear" in out
    assert main(["list-triples"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "example-2.5-monotone" in out


def test_no_command_is_config_error():
    assert main([]) == EXIT_CONFIG


def test_refused_allocation_is_config_error(monkeypatch, capsys):
    # an allocation numpy refuses is a bad size flag
    def refuse(name):
        raise MemoryError("Unable to allocate 71.1 PiB for an array")

    monkeypatch.setattr(cli, "get_problem", refuse)
    assert main(["run", "--problem", "half-map"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: Unable to allocate 71.1 PiB for an array\n"


@pytest.mark.parametrize("argv, message", [
    (["run", "--problem", "random-affine:30000:0.5:1"],
     "a 30000 x 30000 matrix needs 6.71 GiB, over the 1 GiB size ceiling"),
    (["run", "--problem", "random-affine:99999999:0.5:1"],
     "a 99999999 x 99999999 matrix needs 7.45e+07 GiB, over the 1 GiB size ceiling"),
    (["verify-cclass", "--triple", "identity-triple", "--grid-points", "1000000000"],
     "a 1000000000-point grid needs 7.45 GiB, over the 1 GiB size ceiling"),
], ids=["matrix-30000", "matrix-99999999", "grid-1e9"])
def test_size_over_the_ceiling_exits_64_before_allocating(argv, message, monkeypatch, capsys):
    # the calls that would allocate these sizes fail the test instead, so that a
    # missing check never asks this process for gigabytes
    random_affine, linspace = problems.random_affine, np.linspace

    def small_affine(dim, cap, seed):
        assert dim <= 1000, f"random_affine reached with dim {dim}"
        return random_affine(dim, cap, seed)

    def small_linspace(start, stop, num=50, **kwargs):
        assert num <= 10**6, f"linspace reached with {num} points"
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(problems, "random_affine", small_affine)
    monkeypatch.setattr(np, "linspace", small_linspace)
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_size_ceiling_boundary(monkeypatch):
    # at a 100-float ceiling, 100 grid points fit and 101 do not
    monkeypatch.setattr(space, "MAX_ARRAY_BYTES", 800)
    assert len(Grid1D(points=100).values()) >= 100
    with pytest.raises(InvalidInput, match="a 101-point grid needs"):
        Grid1D(points=101).values()
    with pytest.raises(InvalidInput, match="a 101-point grid axis needs"):
        Grid2D(points_per_axis=101).axis()
    with pytest.raises(InvalidInput, match="a 11 x 11 matrix needs"):
        get_problem("random-affine:11:0.5:1")
    assert get_problem("random-affine:10:0.5:1").f.dim == 10


def _limit_address_space():
    gib = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (gib, gib))


def test_certificate_memory_does_not_grow_with_the_pair_count(tmp_path):
    # drawn up front, 1e8 uniform pairs would take 1.6 GB; drawn as reached, the
    # violation at pair 1 ends the scan within a 1 GiB address space.  Never run
    # this command without the limit
    argv = [sys.executable, "-m", "enrichedfp", "verify-contraction", "--problem", "half-map",
            "--variant", "hardy-rogers", "--c1", "0.4", "--pairs", "100000000"]
    src = str(Path(enrichedfp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(argv, cwd=tmp_path, env=env, preexec_fn=_limit_address_space,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_VIOLATED, proc.stderr
    assert '"pairs_checked": 1,' in (tmp_path / "certificate.json").read_text()


_WRITERS = {
    "run": ["run", "--problem", "half-map", "--trace"],
    "verify-contraction": ["verify-contraction", "--problem", "half-map",
                           "--variant", "hardy-rogers", "--c1", "0.6", "--report"],
    "verify-cclass": ["verify-cclass", "--triple", "example-2.5-monotone", "--report"],
    "sweep": ["sweep", "--problem", "half-map", "--c-values", "0.5", "--out"],
}


@pytest.mark.parametrize("command", sorted(_WRITERS))
@pytest.mark.parametrize("path", ["missing/dir/out.txt", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_output_path_is_config_error(command, path, capsys):
    assert main([*_WRITERS[command], path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
