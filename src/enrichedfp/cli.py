"""Command-line surface: run solvers, certify contractions, validate triples.

Subcommands: run, verify-contraction, verify-cclass, sweep, list-problems,
list-triples.  Exit codes are a stable contract:

    0   converged / certificate satisfied / expectations matched
    2   not converged (iteration budget exhausted)
    3   diverged, certificate violated, expectation mismatch, or a map that
        fails to evaluate
    64  configuration error (unknown problem, bad flags, bad config file)

Outputs are reproducible: CSV bodies and certificate reports are
byte-identical across reruns with identical flags and seeds.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .cclass import (
    Grid1D,
    Grid2D,
    MonotoneState,
    builtin_triples,
    get_triple,
    validate_altering,
    validate_cclass,
    validate_monotone_triple,
    validate_phiu,
)
from .contraction import (
    _EXPECTED_MODE,
    Coefficients,
    ContractionVariant,
    PairSampler,
    SumMode,
    Variant,
    certify,
)
from .errors import (
    ConfigError,
    EvaluationError,
    InvalidConfig,
    InvalidInput,
    InverseError,
    NoRootBracketed,
)
from .problems import ProblemInstance, builtin_problems, get_problem
from .solver import (
    IterationTrace,
    Scheme,
    SolverConfig,
    Status,
    _fmt,
    run_jungck_schaefer,
    run_picard,
    run_schaefer,
)
from .space import NormKind, Point

__all__ = ["main", "RunConfig", "EXIT_OK", "EXIT_NOT_CONVERGED", "EXIT_VIOLATED", "EXIT_CONFIG"]

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_VIOLATED = 3
EXIT_CONFIG = 64

# default averaging parameter when neither c nor delta is given
DEFAULT_C = 0.5

_STATUS_EXIT = {
    Status.CONVERGED: EXIT_OK,
    Status.MAX_ITER_EXCEEDED: EXIT_NOT_CONVERGED,
    Status.DIVERGED: EXIT_VIOLATED,
}

_NORMS = {k.value: k for k in NormKind}
_SCHEMES = {s.value: s for s in Scheme}
_VARIANTS = {v.value: v for v in Variant}
_SUM_MODES = {m.value: m for m in SumMode}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for a single solver run."""

    problem: str
    scheme: Scheme
    c: float
    delta: Optional[float]
    tol: float
    max_iter: int
    divergence_bound: float
    norm: NormKind
    start: Optional[tuple[float, ...]]
    trace_path: str
    summary_path: str
    include_coords: bool


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; remap onto the config-error code instead
    def error(self, message):
        raise ConfigError(message)


_RUN_FILE_KEYS = {
    "problem", "scheme", "c", "delta", "tol", "max-iter",
    "divergence-bound", "norm", "start", "trace", "summary", "coords",
}


def _parse_config_file(path: str) -> dict[str, str]:
    """Declarative run config: 'key = value' lines, '#' comments."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _RUN_FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value
    return out


def _parse_start(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad start point {text!r}: {exc}") from exc


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _lookup(table: dict, value: str, what: str):
    if value not in table:
        raise ConfigError(f"unknown {what} {value!r}; choose from {', '.join(sorted(table))}")
    return table[value]


def _resolve_run_config(args) -> RunConfig:
    file_cfg = _parse_config_file(args.config) if args.config else {}

    def pick(flag_value, key, convert, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return convert(file_cfg[key])
        return default

    problem = pick(args.problem, "problem", str, None)
    if problem is None:
        raise ConfigError("no problem given (flag --problem or config key 'problem')")
    scheme_name = pick(args.scheme, "scheme", str, "schaefer")
    scheme = _lookup(_SCHEMES, scheme_name, "scheme")

    c = pick(args.c, "c", float, None)
    delta = pick(args.delta, "delta", float, None)
    if c is not None and delta is not None:
        raise ConfigError("give at most one of c and delta (c = 1/(1+delta))")
    if delta is not None:
        if delta < 0:
            raise ConfigError(f"delta must be non-negative, got {delta}")
        c = 1.0 / (1.0 + delta)
    elif c is None:
        c = 1.0 if scheme is Scheme.PICARD else DEFAULT_C

    start_text = pick(args.start, "start", str, None)
    include_coords = False if args.no_coords else pick(None, "coords", _parse_bool, True)
    return RunConfig(
        problem=problem,
        scheme=scheme,
        c=c,
        delta=delta,
        tol=pick(args.tol, "tol", float, 1e-10),
        max_iter=pick(args.max_iter, "max-iter", int, 100_000),
        divergence_bound=pick(args.divergence_bound, "divergence-bound", float, 1e12),
        norm=_lookup(_NORMS, pick(args.norm, "norm", str, "l2"), "norm"),
        start=_parse_start(start_text) if start_text is not None else None,
        trace_path=pick(args.trace, "trace", str, "trace.csv"),
        summary_path=pick(args.summary, "summary", str, "summary.txt"),
        include_coords=include_coords,
    )


def _summary_text(cfg: RunConfig, trace) -> str:
    limit = trace.limit()
    lines = [
        f"status = {trace.status.value}",
        f"iterations = {trace.wall_iterations}",
        "limit = " + (",".join(_fmt(x) for x in limit.coords) if limit else "none"),
        "residual = "
        + (_fmt(trace.final_residual) if trace.final_residual is not None else "none"),
        f"scheme = {cfg.scheme.value}",
        f"c = {_fmt(cfg.c)}",
        "delta = " + (_fmt(cfg.delta) if cfg.delta is not None else "none"),
        "seed = " + ",".join(_fmt(x) for x in trace.iterates[0].coords),
    ]
    return "\n".join(lines) + "\n"


def _solve(problem: ProblemInstance, cfg: SolverConfig) -> IterationTrace:
    """Run the configured scheme on ``problem``; the one scheme dispatch."""
    if cfg.scheme is Scheme.JUNGCK_SCHAEFER:
        if not problem.is_pair:
            raise ConfigError(
                f"problem {problem.name!r} has no companion map; "
                "jungck-schaefer needs a pair problem"
            )
        return run_jungck_schaefer(problem.pair(), cfg)
    # resolved per call, so rebinding the module-level run_* names takes effect
    run = run_picard if cfg.scheme is Scheme.PICARD else run_schaefer
    return run(problem.f, cfg)


def cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    problem = get_problem(cfg.problem)
    dim = problem.f.dim
    start = Point(cfg.start) if cfg.start is not None else Point.from_array(np.zeros(dim))
    solver_cfg = SolverConfig(
        scheme=cfg.scheme,
        seed_point=start,
        c=cfg.c,
        delta=cfg.delta,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        divergence_bound=cfg.divergence_bound,
        norm=cfg.norm,
    )
    trace = _solve(problem, solver_cfg)
    Path(cfg.trace_path).write_text(trace.to_csv(include_coords=cfg.include_coords))
    summary = _summary_text(cfg, trace)
    Path(cfg.summary_path).write_text(summary)
    sys.stdout.write(summary)
    return _STATUS_EXIT[trace.status]


def cmd_verify_contraction(args) -> int:
    problem = get_problem(args.problem)
    tag = _lookup(_VARIANTS, args.variant, "variant")
    triple = get_triple(args.triple) if args.triple else None
    # the variant rejects a missing triple (C-class) or a missing S (Jungck)
    variant = ContractionVariant(tag, triple=triple, s_map=problem.s)
    sum_mode = _EXPECTED_MODE[tag]
    if args.sum_mode is not None:
        sum_mode = _lookup(_SUM_MODES, args.sum_mode, "sum mode")
    coeffs = Coefficients(
        delta=args.delta, c1=args.c1, c2=args.c2, c3=args.c3, c4=args.c4, c5=args.c5,
        sum_mode=sum_mode,
    )
    lo, hi = (args.box if args.box else problem.box)
    sampler = PairSampler(
        dim=problem.f.dim, lo=lo, hi=hi, count=args.pairs, seed=args.seed
    )
    cert = certify(
        variant, problem.f, coeffs, sampler,
        k=_lookup(_NORMS, args.norm, "norm"), tol=args.tol,
    )
    Path(args.report).write_text(cert.to_json() + "\n")
    outcome = "satisfied" if cert.satisfied else "violated"
    print(f"{outcome}: {args.variant} on {args.problem} over {cert.pairs_checked} pairs")
    for w in cert.warnings:
        print(f"warning: {w}")
    return EXIT_OK if cert.satisfied else EXIT_VIOLATED


def cmd_verify_cclass(args) -> int:
    triple = get_triple(args.triple)
    grid1 = Grid1D(upper=args.grid_upper, points=args.grid_points)
    grid2 = Grid2D(upper=args.grid_upper)
    psi_rep = validate_altering(triple.psi, grid1, args.tol)
    phi_rep = validate_phiu(triple.phi, grid1, args.tol)
    g_rep = validate_cclass(triple.g, grid2, args.tol)
    mono = validate_monotone_triple(triple, grid1, args.tol)

    expected = triple.expected
    matched = True
    if expected is not None:
        matched = (
            psi_rep.passed == expected.psi_ok
            and phi_rep.passed == expected.phi_ok
            and g_rep.passed == expected.g_ok
            and (mono.state is MonotoneState.MONOTONE_ON_GRID) == expected.monotone
        )

    def line(label, rep):
        out = f"{label} = {'pass' if rep.passed else 'fail'}"
        if not rep.passed:
            out += f" ({rep.axiom} at {rep.witness})"
        return out

    lines = [
        f"triple = {triple.name}",
        line("psi", psi_rep),
        line("phi", phi_rep),
        line("g", g_rep),
        f"monotone = {mono.state.value}",
    ]
    if mono.witness is not None:
        lines.append(f"monotone_witness = {_fmt(mono.witness[0])},{_fmt(mono.witness[1])}")
    lines.append(f"expected_matched = {'yes' if matched else 'no'}")
    report = "\n".join(lines) + "\n"
    Path(args.report).write_text(report)
    sys.stdout.write(report)
    return EXIT_OK if matched else EXIT_VIOLATED


def cmd_sweep(args) -> int:
    problem = get_problem(args.problem)
    scheme = _lookup(_SCHEMES, args.scheme, "scheme")
    try:
        c_values = [float(tok) for tok in args.c_values.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad c values {args.c_values!r}: {exc}") from exc
    if not c_values:
        raise ConfigError("empty c value list")
    dim = problem.f.dim
    start = Point(_parse_start(args.start)) if args.start else Point.from_array(np.zeros(dim))

    rows = ["c,iterations,status,final_residual"]
    for c in c_values:
        cfg = SolverConfig(
            scheme=scheme, seed_point=start, c=c, tol=args.tol,
            max_iter=args.max_iter, norm=_lookup(_NORMS, args.norm, "norm"),
        )
        trace = _solve(problem, cfg)
        rows.append(
            f"{_fmt(c)},{trace.wall_iterations},{trace.status.value},"
            f"{_fmt(trace.final_residual)}"
        )
    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"wrote {len(c_values)} rows to {args.out}")
    return EXIT_OK


def cmd_list_problems(_args) -> int:
    for p in builtin_problems():
        kind = "pair" if p.is_pair else "single"
        cert = p.certified_as[0].tag.value if p.certified_as else "uncertified"
        print(f"{p.name}  dim={p.f.dim}  {kind}  {cert}  box={p.box}")
    print("random-affine:<dim>:<cap>:<seed>  seeded affine contraction family")
    return EXIT_OK


def cmd_list_triples(_args) -> int:
    for t in builtin_triples():
        expect = "monotone" if (t.expected and t.expected.monotone) else "not monotone"
        print(f"{t.name}  psi={t.psi.label}  phi={t.phi.label}  g={t.g.label}  expected {expect}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="enrichedfp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an iteration scheme on a named problem")
    run.add_argument("--problem", help="registry name or random-affine:dim:cap:seed")
    run.add_argument("--scheme", help="picard | schaefer | jungck-schaefer")
    run.add_argument("--c", type=float, help="averaging parameter in (0, 1]")
    run.add_argument("--delta", type=float, help="enrichment coefficient; implies c = 1/(1+delta)")
    run.add_argument("--tol", type=float, help="residual stopping threshold (default 1e-10)")
    run.add_argument("--max-iter", type=int, help="iteration budget (default 100000)")
    run.add_argument("--divergence-bound", type=float, help="iterate-norm ceiling (default 1e12)")
    run.add_argument("--norm", choices=sorted(_NORMS), help="norm used for residuals (default l2)")
    run.add_argument("--start", help="comma-separated start point (default zeros)")
    run.add_argument("--trace", help="trace CSV path (default trace.csv)")
    run.add_argument("--summary", help="summary path (default summary.txt)")
    run.add_argument("--no-coords", action="store_true", help="omit coordinates from the trace CSV")
    run.add_argument("--config", help="declarative config file; flags override its keys")
    run.set_defaults(func=cmd_run)

    vc = sub.add_parser("verify-contraction", help="certify a contraction condition by sampling")
    vc.add_argument("--problem", required=True)
    vc.add_argument("--variant", required=True, help=" | ".join(sorted(_VARIANTS)))
    vc.add_argument("--delta", type=float, default=0.0)
    for i in range(1, 6):
        vc.add_argument(f"--c{i}", type=float, default=0.0)
    vc.add_argument("--sum-mode", help="strictly-less-one | exactly-one (default: variant's mode)")
    vc.add_argument("--triple", help="triple registry name (C-class variants)")
    vc.add_argument("--box", type=float, nargs=2, metavar=("LO", "HI"),
                    help="sampling box (default: the problem's box)")
    vc.add_argument("--pairs", type=int, default=1024, help="random pair count (default 1024)")
    vc.add_argument("--seed", type=int, default=0)
    vc.add_argument("--tol", type=float, default=1e-9)
    vc.add_argument("--norm", choices=sorted(_NORMS), default="l2")
    vc.add_argument("--report", default="certificate.json")
    vc.set_defaults(func=cmd_verify_contraction)

    vcc = sub.add_parser("verify-cclass", help="validate a named (psi, phi, G) triple")
    vcc.add_argument("--triple", required=True)
    vcc.add_argument("--grid-upper", type=float, default=10.0)
    vcc.add_argument("--grid-points", type=int, default=1001)
    vcc.add_argument("--tol", type=float, default=1e-9)
    vcc.add_argument("--report", default="cclass_report.txt")
    vcc.set_defaults(func=cmd_verify_cclass)

    sw = sub.add_parser("sweep", help="run one scheme across several c values")
    sw.add_argument("--problem", required=True)
    sw.add_argument("--scheme", default="schaefer")
    sw.add_argument("--c-values", required=True, help="comma-separated values in (0, 1]")
    sw.add_argument("--tol", type=float, default=1e-10)
    sw.add_argument("--max-iter", type=int, default=100_000)
    sw.add_argument("--norm", choices=sorted(_NORMS), default="l2")
    sw.add_argument("--start", help="comma-separated start point (default zeros)")
    sw.add_argument("--out", default="sweep.csv")
    sw.set_defaults(func=cmd_sweep)

    sub.add_parser("list-problems", help="show the problem registry").set_defaults(
        func=cmd_list_problems
    )
    sub.add_parser("list-triples", help="show the triple registry").set_defaults(
        func=cmd_list_triples
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, InvalidConfig, InvalidInput, NoRootBracketed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvaluationError, InverseError) as exc:
        # a map that fails to evaluate, or an inverse of S that fails its check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATED


if __name__ == "__main__":
    sys.exit(main())
