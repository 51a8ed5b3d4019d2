import json
import warnings

import pytest

from enrichedfp.cli import (
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VIOLATED,
    main,
)


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

    def test_rerun_byte_identical(self):
        args = ["run", "--problem", "half-map", "--scheme", "schaefer",
                "--c", "0.25", "--start", "3"]
        main(args)
        first = open("trace.csv", "rb").read(), open("summary.txt", "rb").read()
        main(args)
        second = open("trace.csv", "rb").read(), open("summary.txt", "rb").read()
        assert first == second


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

    def test_sum_mode_mismatch(self):
        code = main(["verify-contraction", "--problem", "half-map",
                     "--variant", "hardy-rogers", "--c1", "1.0",
                     "--sum-mode", "exactly-one"])
        assert code == EXIT_CONFIG

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
    ], ids=["delta-inf", "delta-nan", "tol-nan", "tol-negative", "box-overflows"])
    def test_meaningless_certificate_input_is_config_error(self, flags, capsys):
        code = main(["verify-contraction", "--problem", "half-map",
                     "--variant", "hardy-rogers", "--c1", "0.5", *flags])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_nonfinite_witness_values_are_json_strings(self):
        code = main(["verify-contraction", "--problem", "doubling",
                     "--variant", "hardy-rogers", "--c1", "0.9",
                     "--box", "1e300", "1.7e308"])
        assert code == EXIT_VIOLATED

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        witness = json.loads(open("certificate.json").read(), parse_constant=reject)["witness"]
        assert (witness["lhs"], witness["rhs"]) == ("inf", "nan")


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

    def test_empty_c_values(self):
        assert main(["sweep", "--problem", "reflection", "--c-values", ""]) == EXIT_CONFIG

    def test_out_of_range_c(self):
        assert main(["sweep", "--problem", "reflection", "--c-values", "1.5"]) == EXIT_CONFIG


def test_list_commands(capsys):
    assert main(["list-problems"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "half-map" in out and "jungck-linear" in out
    assert main(["list-triples"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "example-2.5-monotone" in out


def test_no_command_is_config_error():
    assert main([]) == EXIT_CONFIG
