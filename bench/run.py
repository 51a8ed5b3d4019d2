"""Benchmark of the enrichedfp CLI.

Runs one workload's fixed command list through ``enrichedfp.cli.main`` in
this process, each command starting after the previous one returns (a closed
loop with one client), checks every command's outputs, and prints the
metrics BENCHMARK.json names.  The last line of stdout is one JSON object.

    python3 bench/run.py --workload solve-long --seed 1 --seconds 10 --trace 0
    python3 bench/run.py            # every workload, each in its own process

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from traced passes.  bench/README.md defines each metric.
"""

import os

# Each workload's own process: pin BLAS threads before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    COLD_COMMANDS,
    DEFAULT_SEED,
    HELDOUT_SEED,
    WORKLOADS,
    Command,
    Workload,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

ORACLE_TOL = 1e-8
SETUP_REPEATS = 11
IMPORT_REPEATS = 3
COLD_REPEATS = 10
CHILD_TIMEOUT_S = 120


@dataclass
class Result:
    """One command in one pass: latency, exit code (or escaped exception), stdout."""

    seconds: float
    exit: object
    stdout: str


def run_pass(cli, commands, outdir: Path, rec=None) -> tuple[float, list[Result]]:
    """Run every command once, in order, writing outputs to fresh paths under outdir."""
    outdir.mkdir()
    gc.collect()
    results = []
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        argv = cmd.argv(outdir)
        out = io.StringIO()
        if rec is not None:
            rec.command_id = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # anything escaping main fails the command
                code = type(exc).__name__
            t1 = time.perf_counter()
        results.append(Result(t1 - t0, code, out.getvalue()))
    return time.perf_counter() - start, results


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _summary(path: Path) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


class Checker:
    """Checks each command's outcome and counts attempts and failures.

    The first pass's digests are the reference every later pass must match
    byte for byte; on the default seed they must also match the digests
    recorded in bench/digests.json.
    """

    def __init__(self, workload: Workload, commands, oracles, recorded):
        self.workload = workload
        self.commands = commands
        self.oracles = oracles
        self.recorded = recorded
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}
        self.unexpected: set[str] = set()

    def counts_work(self, cmd: Command) -> bool:
        work = self.workload.work
        return (
            work == "commands"
            or (work == "iterations" and cmd.kind in ("run", "sweep"))
            or (work == "pairs" and cmd.kind == "verify-contraction")
        )

    def check_pass(self, outdir: Path, results: list[Result]) -> float:
        """Check one pass, delete its outputs, and return the work it did."""
        work = 0.0
        for cmd, res in zip(self.commands, results):
            reasons, done = self._check(cmd, res, outdir)
            self.attempted += 1
            if reasons:
                self.failed += 1
                self.failures.setdefault(cmd.name, reasons)
                if not cmd.known_defect:
                    self.unexpected.add(cmd.name)
            if self.counts_work(cmd):
                work += 1 if self.workload.work == "commands" else done
        shutil.rmtree(outdir)
        return work

    def _check(self, cmd: Command, res: Result, outdir: Path) -> tuple[list[str], int]:
        reasons = []
        if res.exit != cmd.exit:
            reasons.append(f"exit {res.exit}, expected {cmd.exit}")
        if isinstance(res.exit, str):
            return reasons, 0
        paths = {flag: outdir / f"{cmd.name}.{flag.lstrip('-')}" for flag in cmd.outputs}
        digests = {"stdout": _digest(res.stdout.replace(str(outdir), "<out>").encode())}
        for flag, path in paths.items():
            digests[flag] = _file_digest(path) if path.exists() else None
        if res.exit != 64 and None in digests.values():
            reasons.append("an output file is missing")
        if digests != self.reference.setdefault(cmd.name, digests):
            reasons.append("output differs from the first pass")
        if self.recorded is not None and cmd.name in self.recorded:
            if digests != self.recorded[cmd.name]:
                reasons.append("output differs from the digest recorded for the default seed")
        if res.exit == 64 or reasons:
            return reasons, 0
        try:
            return self._check_content(cmd, paths)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc}"], 0

    def _check_content(self, cmd: Command, paths) -> tuple[list[str], int]:
        import numpy as np

        if cmd.kind == "run":
            summary = _summary(paths["--summary"])
            if cmd.oracle and summary["status"] == "converged":
                limit = np.array([float(x) for x in summary["limit"].split(",")])
                gap = float(np.linalg.norm(limit - self.oracles[cmd.flag("--problem")]))
                if gap > ORACLE_TOL:
                    return [f"limit is {gap:.3g} from the linear-solve oracle"], 0
            return [], int(summary["iterations"])
        if cmd.kind == "sweep":
            rows = paths["--out"].read_text().splitlines()[1:]
            return [], sum(int(row.split(",")[1]) for row in rows)
        if cmd.kind == "verify-contraction":
            report = json.loads(paths["--report"].read_text())
            outcome = "satisfied" if cmd.exit == 0 else "violated"
            if (report["pairs_checked"], report["outcome"]) != (cmd.pairs, outcome):
                return [
                    f"{report['outcome']} after {report['pairs_checked']} pairs, "
                    f"expected {outcome} after {cmd.pairs}"
                ], 0
            return [], report["pairs_checked"]
        return [], 0


def _spawn(argv, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return time.perf_counter() - t0, proc


def setup_once(commands, tmp: Path) -> dict[str, float]:
    """Fresh interpreter: import enrichedfp and resolve the workload's problems and triples.

    Returns the child's own timings in ms.  Interpreter start-up and exit are
    left to cold_cmd_ms.
    """
    inputs = sorted(
        {f"problem={c.flag('--problem')}" for c in commands if c.exit != 64 and c.flag("--problem")}
        | {f"triple={c.flag('--triple')}" for c in commands if c.exit != 64 and c.flag("--triple")}
    )
    _, proc = _spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"), *inputs], tmp)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def cold_round(outdir: Path) -> tuple[list[float], list[str]]:
    """Wall times of `python -m enrichedfp <cmd>` over COLD_COMMANDS, and wrong exits."""
    outdir.mkdir()
    times, wrong = [], []
    for cmd in COLD_COMMANDS:
        seconds, proc = _spawn([sys.executable, "-m", "enrichedfp", *cmd.argv(outdir)], outdir)
        times.append(seconds)
        if proc.returncode != cmd.exit:
            wrong.append(f"cold {cmd.name}: exit {proc.returncode}, expected {cmd.exit}")
    shutil.rmtree(outdir)
    return times, wrong


def faster_half(rounds, key=sum):
    """The faster half of repeated rounds of identical work, ranked by ``key``.

    Interference from other tenants of the host comes in bursts that slow
    every command for several seconds, while the program does the same work
    in every round.  The faster half measures the program between bursts,
    by the same rule on every commit.
    """
    return sorted(rounds, key=key)[: max(1, len(rounds) // 2)]


def tail(samples) -> tuple[float, float]:
    """Value at the highest percentile that has at least ten samples beyond it."""
    xs = sorted(samples)
    rank = len(xs) - 10
    if rank < 1:
        raise ValueError(f"{len(xs)} samples are too few for a tail with ten beyond it")
    return xs[rank - 1], 100.0 * rank / len(xs)


class Run:
    """One benchmark run of one workload in this process."""

    def __init__(self, cli, workload: Workload, seed: int, seconds: int, tmp: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.commands = workload.commands(seed)
        # at least one pass per spread-out subprocess round
        self.passes = max(SETUP_REPEATS, COLD_REPEATS, round(seconds / workload.pass_s))
        self.tmp = tmp
        self.notes: list[str] = []
        self.cold_failures: list[str] = []
        recorded = None
        if seed == DEFAULT_SEED and DIGESTS.exists():
            recorded = json.loads(DIGESTS.read_text())["workloads"].get(workload.name)
        self.checker = Checker(workload, self.commands, self._oracles(), recorded)
        self._count = 0

    def _oracles(self):
        """Fixed points by linear solve, for commands whose limit is checked."""
        import numpy as np
        from enrichedfp.problems import get_problem

        oracles = {}
        for cmd in self.commands:
            if cmd.oracle:
                f = get_problem(cmd.flag("--problem")).f
                oracles[cmd.flag("--problem")] = np.linalg.solve(
                    np.eye(f.dim) - f.matrix, f.offset
                )
        return oracles

    def one_pass(self, rec=None) -> tuple[float, list[Result], float]:
        """Run and check a pass; return (wall seconds, results, work done)."""
        self._count += 1
        outdir = self.tmp / f"pass-{self._count}"
        wall, results = run_pass(self.cli, self.commands, outdir, rec)
        return wall, results, self.checker.check_pass(outdir, results)

    def end_to_end(self) -> dict[str, float]:
        self.one_pass()  # warm-up; sets the reference digests
        # Subprocess rounds are spread over the run, so that a burst of
        # interference cannot cover all of them.
        setup_at = {i * self.passes // SETUP_REPEATS for i in range(SETUP_REPEATS)}
        cold_at = {i * self.passes // COLD_REPEATS for i in range(COLD_REPEATS)}
        setups, cold, passes = [], [], []
        for k in range(self.passes):
            if k in setup_at:
                ms = setup_once(self.commands, self.tmp)
                setups.append((ms["numpy_ms"] + ms["enrichedfp_ms"] + ms["resolve_ms"]) / 1e3)
            if k in cold_at:
                times, wrong = cold_round(self.tmp / f"cold-{k}")
                cold.append(times)
                self.cold_failures += wrong
            passes.append(self.one_pass())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quiet = faster_half(passes, key=lambda p: p[0])
        counted = [self.checker.counts_work(c) for c in self.commands]
        rates = [
            work / sum(r.seconds for r, c in zip(results, counted) if c)
            for _, results, work in quiet
        ]
        latencies = [r.seconds for _, results, _ in quiet for r in results]
        tail_s, pct = tail(latencies)
        cold_quiet = [x for rnd in faster_half(cold) for x in rnd]
        self.notes += [
            f"{self.workload.work} per second = work_per_s",
            f"timings from the faster {len(quiet)} of {len(passes)} passes; cmd_ms_p50 and "
            f"cmd_ms_tail over {len(latencies)} commands, tail at p{pct:.2f}",
            f"cold_cmd_ms over the faster {len(cold_quiet)} of "
            f"{len(cold) * len(COLD_COMMANDS)} subprocesses; setup_s over {len(setups)}",
        ]
        return {
            "wall_s": statistics.median(wall for wall, _, _ in quiet),
            "work_per_s": statistics.median(rates),
            "cmd_ms_p50": statistics.median(latencies) * 1e3,
            "cmd_ms_tail": tail_s * 1e3,
            "cold_cmd_ms": statistics.median(cold_quiet) * 1e3,
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setups),
        }

    def per_layer(self) -> dict[str, float]:
        from spans import VALIDATORS, Recorder, trace_layers, trace_solver_memory

        imports = [setup_once(self.commands, self.tmp) for _ in range(IMPORT_REPEATS)]
        self.one_pass()  # warm-up; sets the reference digests
        n = max(2, self.passes // 4)
        plain = [self.one_pass()[0] for _ in range(n)]
        rec = Recorder()
        with trace_layers(rec):
            traced = [self.one_pass(rec)[0] for _ in range(n)]
        peaks: list[int] = []
        with trace_solver_memory(peaks):
            self.one_pass()
        self.notes.append(
            f"{n} untraced and {n} traced passes, then one tracemalloc pass; "
            f"{len(rec.end)} spans; counts and times are per pass"
        )

        spans = rec.totals()

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        def total(name):  # seconds, children included
            return spans.get(name, (0, 0.0, 0.0))[1]

        def own(name):  # self seconds
            return spans.get(name, (0, 0.0, 0.0))[2]

        def ratio(a, b):
            return a / b if b else 0.0

        iterations = rec.counts["solver.iterations"]
        pairs = calls("contraction.pair")
        validations = sum(calls(span) for span in VALIDATORS.values())
        metrics = {
            "space.apply.calls": calls("space.apply") / n,
            "space.apply.self_us": own("space.apply") / n * 1e6,
            "space.array_norm.calls": calls("space.array_norm") / n,
            "space.array_norm.self_us": own("space.array_norm") / n * 1e6,
            "space.point_wrap.calls": calls("space.point_wrap") / n,
            "space.point_wrap.self_us": own("space.point_wrap") / n * 1e6,
            "solver.iterations": iterations / n,
            "solver.run.self_ms": own("solver.run") / n * 1e3,
            "solver.iter_us": ratio(total("solver.run"), iterations) * 1e6,
            "solver.trace_peak_mb": max(peaks, default=0) / 2**20,
            "contraction.certify.self_ms": own("contraction.certify") / n * 1e3,
            "contraction.pairs_checked": pairs / n,
            "contraction.pair_us": ratio(total("contraction.certify"), pairs) * 1e6,
            "contraction.sides_per_pair": ratio(calls("contraction.sides"), pairs),
            "contraction.checked_ratio": ratio(pairs, rec.counts["contraction.pairs_generated"]),
            "contraction.variant_build_ms": total("contraction.variant_build") / n * 1e3,
            "cclass.grid_evals": rec.counts["cclass.grid_evals"] / n,
            "cclass.validations_per_triple": ratio(
                validations / n, len(rec.distinct["cclass.triples"])
            ),
            "problems.get_problem.calls": calls("problems.get_problem") / n,
            "problems.get_problem.self_ms": own("problems.get_problem") / n * 1e3,
            "problems.registry_builds": calls("problems.builtin_problems") / n,
            "problems.random_affine.ms": total("problems.random_affine") / n * 1e3,
            "cli.main.self_ms": own("cli.main") / n * 1e3,
            "cli.serialize.ms": total("cli.serialize") / n * 1e3,
            "cli.write.ms": total("cli.write") / n * 1e3,
            "cli.write.bytes": rec.counts["cli.write.bytes"] / n,
            "import.numpy_ms": statistics.median(i["numpy_ms"] for i in imports),
            "import.enrichedfp_ms": statistics.median(i["enrichedfp_ms"] for i in imports),
            "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
        }
        for span in VALIDATORS.values():
            metrics[f"{span}.ms"] = total(span) / n * 1e3
        return metrics


def _spec_units(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def _environment(cli, run: Run) -> list[str]:
    import numpy as np

    lines = [
        f"enrichedfp benchmark: workload {run.workload.name}, seed {run.seed} "
        f"(default {DEFAULT_SEED}, held out {HELDOUT_SEED}), {run.passes} passes after a "
        f"warm-up, closed loop with one client",
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, enrichedfp from {Path(cli.__file__).parent}",
        "commands:",
    ]
    lines += [f"  {c.name}: enrichedfp {c.args}" for c in run.commands]
    return lines


def run_workload(args) -> int:
    if not (SRC / "enrichedfp" / "__init__.py").is_file():
        print(f"error: no enrichedfp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import enrichedfp.cli as cli

    workload = WORKLOADS[args.workload]
    key = "per_layer" if args.trace else "end_to_end"
    units = _spec_units(key)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        run = Run(cli, workload, args.seed, args.seconds, tmp)
        if args.write_digests:
            return _write_digests(run)
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} not in BENCHMARK.json")

    checker = run.checker
    lines = _environment(cli, run)
    lines += [f"{name:32s} {metrics[name]:16.6g} {units[name]}" for name in units]
    lines.append(
        f"error_rate = {checker.failed}/{checker.attempted} = "
        f"{checker.failed / checker.attempted:.6g} ratio"
    )
    lines += run.notes
    known = {c.name: c.known_defect for c in run.commands}
    for name, reasons in checker.failures.items():
        note = f" [known defect: {known[name]}]" if known[name] else ""
        lines.append(f"FAILED {name}: {'; '.join(reasons)}{note}")
    lines += [f"FAILED {failure}" for failure in run.cold_failures]
    for line in lines:
        print(f"# {line}")
    print(json.dumps({
        "correct": not checker.unexpected and not run.cold_failures,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def _write_digests(run: Run) -> int:
    """Record the default seed's output digests for this workload (one checked pass)."""
    if run.seed != DEFAULT_SEED:
        print(f"error: digests are recorded on the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    run.checker.recorded = None
    run.one_pass()
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"workloads": {}}
    table["seed"] = DEFAULT_SEED
    table["workloads"][run.workload.name] = {
        name: digests
        for name, digests in run.checker.reference.items()
        if name not in run.checker.failures
    }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table['workloads'][run.workload.name])} commands in {DIGESTS}")
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(argv).returncode or status
    return status


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=_natural, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held out: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=_natural, default=10,
                        help="sets the number of passes, about this long on 2 cores")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from traced passes")
    parser.add_argument("--write-digests", action="store_true",
                        help="record the default seed's output digests in bench/digests.json")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
