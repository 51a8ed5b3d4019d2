"""The benchmark's workloads: fixed CLI command lists and the outcome each must reach.

Every ``random-affine:<dim>:<cap>:<seed>`` instance takes its seed from the
workload seed; everything else in a command list is fixed.  Certificate
sampler seeds stay at the CLI default (0), so each expected ``pairs_checked``
below is a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
# Kept out of tuning; confirms a later claim on an instance nobody looked at.
HELDOUT_SEED = 20261017

RUN_OUT = ("--trace", "--summary")
REPORT_OUT = ("--report",)
SWEEP_OUT = ("--out",)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome the benchmark requires of it.

    ``outputs`` names the flags that receive a fresh path in every pass.
    ``pairs`` is the expected ``pairs_checked`` of a certificate (its outcome
    follows from ``exit``); ``oracle`` asks for the converged limit to match a
    linear solve.  ``known_defect`` marks a command that fails today for a
    documented reason: it still counts as failed.
    """

    name: str
    args: str
    exit: int
    outputs: tuple[str, ...] = ()
    pairs: int | None = None
    oracle: bool = False
    known_defect: str = ""

    def argv(self, outdir: Path) -> list[str]:
        argv = self.args.split()
        for flag in self.outputs:
            argv += [flag, str(outdir / f"{self.name}.{flag.lstrip('-')}")]
        return argv

    @property
    def kind(self) -> str:
        return self.args.split()[0]

    def flag(self, name: str) -> str | None:
        tokens = self.args.split()
        return tokens[tokens.index(name) + 1] if name in tokens else None


@dataclass(frozen=True)
class Workload:
    """A named command list; ``work`` is what ``work_per_s`` counts.

    ``pass_s`` is the nominal time of one pass on a 2-core machine.  It fixes
    the number of passes for a given ``--seconds``, so every run of a workload
    times the same commands the same number of times.
    """

    name: str
    work: str
    pass_s: float
    commands: Callable[[int], tuple[Command, ...]]


def _solve_long(seed: int) -> tuple[Command, ...]:
    big = f"random-affine:200:0.999:{seed}"
    c_values = ",".join(f"{k / 10:g}" for k in range(1, 11))
    return (
        Command("avg200", f"run --problem {big} --c 0.001 --max-iter 5000", 2, RUN_OUT),
        Command(
            "avg200-nocoords",
            f"run --problem {big} --c 0.001 --max-iter 5000 --no-coords", 2, RUN_OUT,
        ),
        # tol 1e-12: at c = 0.01 a residual of 1e-10 leaves the iterate about
        # 1e-8 / (1 - rho(A)) from the fixed point, above the oracle's 1e-8
        Command(
            "avg10", f"run --problem random-affine:10:0.999:{seed} --c 0.01 --tol 1e-12",
            0, RUN_OUT, oracle=True,
        ),
        Command(
            "pair10k",
            "run --problem jungck-linear --scheme jungck-schaefer --c 0.01 --start 10000",
            0, RUN_OUT, oracle=True,
        ),
        Command(
            "picard-reflection", "run --problem reflection --scheme picard --max-iter 20000",
            2, RUN_OUT,
        ),
        Command(
            "sweep100", f"sweep --problem random-affine:100:0.99:{seed} --c-values {c_values}",
            0, SWEEP_OUT,
        ),
    )


def _certify_full(seed: int) -> tuple[Command, ...]:
    hr = "verify-contraction --pairs 4096 --variant hardy-rogers"
    return (
        Command("hr10-l2", f"{hr} --problem affine-contraction-10d --c1 0.9", 0, REPORT_OUT,
                pairs=4122),
        Command("hr10-linf", f"{hr} --problem affine-contraction-10d --c1 0.9 --norm linf", 0,
                REPORT_OUT, pairs=4122),
        Command("hr100", f"{hr} --problem random-affine:100:0.9:{seed} --c1 0.9", 0, REPORT_OUT,
                pairs=4302),
        Command("hr-kannan", f"{hr} --problem kannan-style --c2 0.4 --c5 0.4", 0, REPORT_OUT,
                pairs=4104),
        Command(
            "jhr-pair",
            "verify-contraction --pairs 4096 --variant jungck-hardy-rogers "
            "--problem jungck-linear --c1 0.3",
            0, REPORT_OUT, pairs=4104,
        ),
        # rounding in delta(u - v) + f(u) - f(v) leaves a tiny lhs that sqrt
        # lifts above the band once M <= 1; the first such pair is 3550
        Command(
            "chr-reflection",
            "verify-contraction --pairs 4096 --variant cclass-hardy-rogers "
            "--problem reflection --delta 1 --c1 1.0 --triple example-2.5-monotone",
            3, REPORT_OUT, pairs=3550,
        ),
    )


def _cli_short(_seed: int) -> tuple[Command, ...]:
    triple = "--triple example-2.5-monotone"
    return (
        Command("list-problems", "list-problems", 0),
        Command("list-triples", "list-triples", 0),
        Command("cclass-2.5", "verify-cclass --triple example-2.5-monotone", 0, REPORT_OUT),
        Command("cclass-2.6", "verify-cclass --triple example-2.6-nonmonotone", 0, REPORT_OUT),
        Command("cclass-identity", "verify-cclass --triple identity-triple", 0, REPORT_OUT),
        Command("run-reflection", "run --problem reflection --delta 1", 0, RUN_OUT, oracle=True),
        Command("run-half", "run --problem half-map --scheme picard --start 1", 0, RUN_OUT,
                oracle=True),
        Command("run-pair", "run --problem jungck-linear --scheme jungck-schaefer --start 1", 0,
                RUN_OUT, oracle=True),
        Command("sweep-reflection", "sweep --problem reflection --c-values 0.25,0.5,0.75", 0,
                SWEEP_OUT),
        Command("hr-doubling",
                "verify-contraction --problem doubling --variant hardy-rogers --c1 0.9", 3,
                REPORT_OUT, pairs=1),
        Command("hr10-l1",
                "verify-contraction --problem affine-contraction-10d --variant hardy-rogers "
                "--c1 0.9 --norm l1", 3, REPORT_OUT, pairs=16),
        Command("chr-half",
                f"verify-contraction --problem half-map --variant cclass-hardy-rogers --c1 1.0 "
                f"{triple}", 3, REPORT_OUT, pairs=6),
        Command("cjhr-pair",
                f"verify-contraction --problem jungck-linear "
                f"--variant cclass-jungck-hardy-rogers --c1 1.0 {triple}", 3, REPORT_OUT,
                pairs=6),
        Command("err-problem", "run --problem no-such-problem", 64, RUN_OUT),
        Command("err-c-and-delta", "run --problem reflection --c 0.5 --delta 1", 64, RUN_OUT),
        Command("err-spec", "run --problem random-affine:10:x:1", 64, RUN_OUT),
        Command("err-no-triple",
                "verify-contraction --problem reflection --variant cclass-hardy-rogers --c1 1.0",
                64, REPORT_OUT),
        Command("err-weights",
                "verify-contraction --problem half-map --variant hardy-rogers --c1 1.5", 64,
                REPORT_OUT),
        Command("err-triple", "verify-cclass --triple no-such-triple", 64, REPORT_OUT),
        Command("err-flag", "sweep --problem reflection --c-values 0.5 --bogus", 64, SWEEP_OUT),
        Command(
            "hostile-bound",
            "run --problem doubling --scheme picard --start 1 --divergence-bound 1e400",
            3, RUN_OUT,
            known_defect="the iterate overflows and EvaluationError escapes main "
                         "instead of exit 3 (divergence)",
        ),
    )


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-long", "iterations", 1.25, _solve_long),
        Workload("certify-full", "pairs", 1.0, _certify_full),
        Workload("cli-short", "commands", 0.07, _cli_short),
    )
}

# Short commands timed as fresh `python -m enrichedfp` processes (cold_cmd_ms).
COLD_COMMANDS = (
    Command("list-problems", "list-problems", 0),
    Command("list-triples", "list-triples", 0),
    Command("cclass-identity", "verify-cclass --triple identity-triple", 0, REPORT_OUT),
    Command("run-reflection", "run --problem reflection --delta 1", 0, RUN_OUT),
    Command("hr-doubling", "verify-contraction --problem doubling --variant hardy-rogers --c1 0.9",
            3, REPORT_OUT, pairs=1),
)
