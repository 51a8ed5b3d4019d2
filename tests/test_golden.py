"""Byte-for-byte golden outputs of the CLI.

Each case runs ``cli.main`` in an empty directory and compares its exit code,
its stdout and every file it writes with ``tests/golden/<case>/``.  A change
meant to keep outputs stable must leave these files untouched.  To record them
again after an intended output change, run ``python tests/test_golden.py`` and
say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
STDOUT = "stdout.txt"

_CERT = "verify-contraction --variant"
_CHR = f"{_CERT} cclass-hardy-rogers --problem half-map"
_CJHR = f"{_CERT} cclass-jungck-hardy-rogers --problem jungck-linear --c1 1.0"

# case name -> (expected exit code, argv)
CASES = {
    # run: the three schemes, the three norms, with and without coordinates
    "run-picard-half": (0, "run --problem half-map --scheme picard --start 1"),
    "run-picard-c-ignored": (0, "run --problem half-map --scheme picard --c 0.5 --start 4"),
    "run-picard-budget": (2, "run --problem reflection --scheme picard --max-iter 7"),
    "run-picard-diverges": (
        3, "run --problem doubling --scheme picard --start 1 --divergence-bound 1e6"),
    "run-schaefer-reflection": (0, "run --problem reflection --delta 1"),
    "run-schaefer-c1": (0, "run --problem half-map --c 1 --start 3"),
    "run-schaefer-kannan": (0, "run --problem kannan-style --c 0.8 --start 0.9"),
    "run-schaefer-affine10-l1": (
        0, "run --problem affine-contraction-10d --c 0.7 --norm l1 --tol 1e-6"),
    "run-schaefer-linf-nocoords": (
        0, "run --problem random-affine:5:0.9:3 --c 0.3 --norm linf --start 1,2,3,4,5 "
           "--no-coords"),
    "run-jungck": (0, "run --problem jungck-linear --scheme jungck-schaefer --start 1"),
    "run-jungck-l1": (
        0, "run --problem jungck-linear --scheme jungck-schaefer --c 0.25 --start -3 --norm l1"),
    "run-jungck-linf-nocoords": (
        0, "run --problem jungck-linear --scheme jungck-schaefer --c 1 --start 5 --norm linf "
           "--no-coords"),
    # sweep: one per scheme
    "sweep-schaefer": (0, "sweep --problem reflection --c-values 0.25,0.5,0.75,1"),
    "sweep-picard": (0, "sweep --problem half-map --scheme picard --c-values 0.3,1 --start 2"),
    "sweep-jungck": (
        0, "sweep --problem jungck-linear --scheme jungck-schaefer --c-values 0.1,0.5,1 "
           "--start 3 --norm l1"),
    # certificates: each variant satisfied and violated
    "hr-satisfied": (0, f"{_CERT} hardy-rogers --problem half-map --c1 0.6 --pairs 32"),
    "hr-satisfied-linf": (
        0, f"{_CERT} hardy-rogers --problem kannan-style --c2 0.4 --c5 0.4 --pairs 32 "
           "--norm linf"),
    "hr-violated": (3, f"{_CERT} hardy-rogers --problem doubling --c1 0.9"),
    "hr-violated-l1": (
        3, f"{_CERT} hardy-rogers --problem affine-contraction-10d --c1 0.9 --norm l1"),
    "jhr-satisfied": (
        0, f"{_CERT} jungck-hardy-rogers --problem jungck-linear --c1 0.3 --pairs 32"),
    "jhr-violated": (3, f"{_CERT} jungck-hardy-rogers --problem jungck-linear --c1 0.1"),
    "chr-satisfied": (
        0, f"{_CERT} cclass-hardy-rogers --problem reflection --delta 1 --c1 1.0 "
           "--triple example-2.5-monotone --pairs 64"),
    "chr-violated": (3, f"{_CHR} --c1 1.0 --triple example-2.5-monotone"),
    # G(psi(M), phi(M)) = 0 for the identity triple, so only a loose band passes
    "cjhr-satisfied": (0, f"{_CJHR} --triple identity-triple --tol 1 --pairs 32"),
    "cjhr-violated": (3, f"{_CJHR} --triple example-2.5-monotone"),
    # certificates: one per warning
    "chr-warn-c3-c4": (3, f"{_CHR} --c1 0.5 --c3 0.3 --c4 0.2 --triple identity-triple"),
    "chr-warn-m-zero": (
        0, f"{_CHR} --c2 0.5 --c5 0.5 --triple identity-triple --box 0 1e-10"),
    # triples and registries
    "cclass-2.5": (0, "verify-cclass --triple example-2.5-monotone"),
    "cclass-2.6": (0, "verify-cclass --triple example-2.6-nonmonotone"),
    "cclass-identity": (0, "verify-cclass --triple identity-triple"),
    "list-problems": (0, "list-problems"),
    "list-triples": (0, "list-triples"),
}


def produce(argv: str, workdir: Path) -> tuple[int, dict[str, bytes]]:
    """Run one CLI invocation in ``workdir``: exit code, then stdout and every file written."""
    from enrichedfp.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv.split())
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    files[STDOUT] = out.getvalue().encode()
    return code, files


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    expected_exit, argv = CASES[case]
    code, files = produce(argv, tmp_path)
    assert code == expected_exit
    golden = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    assert sorted(files) == sorted(golden)
    for name, data in golden.items():
        assert files[name] == data, f"{case}/{name} differs from its golden file"


def record():
    """Rewrite every golden directory from the current code."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, (expected_exit, argv) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, files = produce(argv, Path(tmp))
        if code != expected_exit:
            raise SystemExit(f"{case}: exit {code}, expected {expected_exit}")
        (GOLDEN / case).mkdir(parents=True)
        for name, data in files.items():
            (GOLDEN / case / name).write_bytes(data)
        print(f"{case}: {len(files)} files")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
