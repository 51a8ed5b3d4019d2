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
import dataclasses
import re
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .cclass import (
    DEFAULT_TOL as GRID_TOL,
    Grid1D,
    Grid2D,
    _Overflow,
    builtin_triples,
    get_triple,
    validate_altering,
    validate_cclass,
    validate_monotone_triple,
    validate_phiu,
)
from .contraction import (
    DEFAULT_TOL as CERT_TOL,
    Coefficients,
    ContractionVariant,
    PairSampler,
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
    PairProblem,
    Scheme,
    SolverConfig,
    Status,
    _CsvWriter,
    _fmt,
    _iterate,
    _Run,
)
from .space import NormKind, Point

__all__ = ["main", "EXIT_OK", "EXIT_NOT_CONVERGED", "EXIT_VIOLATED", "EXIT_CONFIG"]

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


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -N and -N.M as negative numbers, so a value such as
        # -1e3, -1,2 or -inf would be taken for an option.  No option here starts
        # with a digit, -i or -n: any "-<digit>" or "-.<digit>" is a value, as in
        # Python 3.13, and so are -inf, -infinity and -nan in any case
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.I)

    # argparse exits 2 on bad usage; remap onto the config-error code instead
    def error(self, message):
        raise ConfigError(message)


_RUN_FILE_KEYS = {
    "problem", "scheme", "c", "delta", "tol", "max-iter",
    "divergence-bound", "norm", "start", "trace", "summary", "coords",
}


def _parse_config_file(path: str) -> dict[str, object]:
    """Declarative run config: 'key = value' lines, '#' comments.

    Returns the keys as defaults for the ``run`` parser, by argument dest;
    values stay strings, so each goes through its flag's converter.
    """
    out: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key == "coords":
            out["no_coords"] = not _parse_bool(value)
        else:
            out[key.replace("-", "_")] = value
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


def _summary_text(cfg: SolverConfig, status: Status, iterations: int, last, residual) -> str:
    lines = [
        f"status = {status.value}",
        f"iterations = {iterations}",
        "limit = " + (",".join(map(_fmt, last.tolist())) if status is Status.CONVERGED
                      else "none"),
        "residual = " + (_fmt(residual) if residual is not None else "none"),
        f"scheme = {cfg.scheme.value}",
        f"c = {_fmt(cfg.c)}",
        "delta = " + (_fmt(cfg.delta) if cfg.delta is not None else "none"),
        "seed = " + ",".join(map(_fmt, cfg.seed_point.coords)),
    ]
    return "\n".join(lines) + "\n"


def _pair_for(problem: ProblemInstance, scheme: Scheme) -> Optional[PairProblem]:
    """The pair ``scheme`` steps with on ``problem``: None unless it is jungck-schaefer."""
    if scheme is not Scheme.JUNGCK_SCHAEFER:
        return None
    if not problem.is_pair:
        raise ConfigError(
            f"problem {problem.name!r} has no companion map; jungck-schaefer needs a pair problem")
    return problem.pair()


def cmd_run(args) -> int:
    if args.problem is None:
        raise ConfigError("no problem given (flag --problem or config key 'problem')")
    scheme = _lookup(_SCHEMES, args.scheme, "scheme")
    if args.c is not None and args.delta is not None:
        raise ConfigError("give at most one of c and delta (c = 1/(1+delta))")
    kw = dict(tol=args.tol, max_iter=args.max_iter, divergence_bound=args.divergence_bound,
              norm=_lookup(_NORMS, args.norm, "norm"))
    problem = get_problem(args.problem)
    if args.start is not None:
        seed = Point(_parse_start(args.start))
    else:
        seed = Point.from_array(np.zeros(problem.f.dim))
    if args.delta is not None:
        cfg = SolverConfig.with_delta(scheme, seed, args.delta, **kw)
    else:
        c = args.c
        if c is None:
            c = 1.0 if scheme is Scheme.PICARD else DEFAULT_C
        cfg = SolverConfig(scheme=scheme, seed_point=seed, c=c, **kw)
    run = _Run(_iterate(scheme, problem.f, cfg, _pair_for(problem, scheme)))
    blocks = iter(run)
    # the run's up-front checks raise here, before any file is written
    csv = _CsvWriter(next(blocks)[0][0], include_coords=not args.no_coords)
    iterations, last, residual = 0, None, None
    with open(args.trace, "wb") as out:  # as the run goes, a block at a time
        out.write(csv.header)
        try:
            for xs, r in blocks:
                out.writelines(csv.rows(xs, r))
                iterations, last, residual = iterations + len(r), xs[-1].copy(), r[-1]
        finally:  # after an error, the rows before the failing step stay in the file
            out.write(csv.flush())
    summary = _summary_text(cfg, run.status, iterations, last, residual)
    Path(args.summary).write_text(summary)
    sys.stdout.write(summary)
    return _STATUS_EXIT[run.status]


def cmd_verify_contraction(args) -> int:
    problem = get_problem(args.problem)
    tag = _lookup(_VARIANTS, args.variant, "variant")
    triple = get_triple(args.triple) if args.triple else None
    # the variant rejects a missing triple (C-class) or a missing S (Jungck)
    variant = ContractionVariant(tag, triple=triple, s_map=problem.s)
    coeffs = Coefficients(
        delta=args.delta, c1=args.c1, c2=args.c2, c3=args.c3, c4=args.c4, c5=args.c5)
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
    try:
        psi_rep = validate_altering(triple.psi, grid1, args.tol)
        phi_rep = validate_phiu(triple.phi, grid1, args.tol)
        g_rep = validate_cclass(triple.g, grid2, args.tol)
        mono = validate_monotone_triple(triple, grid1, args.tol)
    except _Overflow as exc:
        # the grid, not the triple, is at fault
        raise EvaluationError(
            f"{exc}: --grid-upper puts the grid out of range for this function",
            exc.offending_input) from exc

    # (psi_ok, phi_ok, g_ok, monotone), in the order of the reports
    passed = tuple(rep.passed for rep in (psi_rep, phi_rep, g_rep, mono))
    matched = triple.expected is None or passed == dataclasses.astuple(triple.expected)

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
        f"monotone = {'monotone-on-grid' if mono.passed else 'violated'}",
    ]
    if not mono.passed:
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
    pair = _pair_for(problem, scheme)  # once: each build checks S's rank and inverts S
    for c in c_values:
        cfg = SolverConfig(
            scheme=scheme, seed_point=start, c=c, tol=args.tol,
            max_iter=args.max_iter, norm=_lookup(_NORMS, args.norm, "norm"),
        )
        run, iterations, residual = _Run(_iterate(scheme, problem.f, cfg, pair)), 0, None
        for _, r in run:
            if len(r):
                iterations, residual = iterations + len(r), r[-1]
        rows.append(f"{_fmt(c)},{iterations},{run.status.value},"
                    f"{'none' if residual is None else _fmt(residual)}")
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


def _build_parser() -> tuple[_Parser, _Parser]:
    """The CLI parser, and its ``run`` subparser, which takes config-file keys as defaults."""
    parser = _Parser(prog="enrichedfp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an iteration scheme on a named problem")
    run.add_argument("--problem", help="registry name or random-affine:dim:cap:seed")
    run.add_argument("--scheme", default=Scheme.SCHAEFER.value,
                     help="picard | schaefer | jungck-schaefer (default %(default)s)")
    run.add_argument("--c", type=float, help="averaging parameter in (0, 1]")
    run.add_argument("--delta", type=float, help="enrichment coefficient; implies c = 1/(1+delta)")
    run.add_argument("--tol", type=float, default=SolverConfig.tol,
                     help="residual stopping threshold (default %(default)s)")
    run.add_argument("--max-iter", type=int, default=SolverConfig.max_iter,
                     help="iteration budget (default %(default)s)")
    run.add_argument("--divergence-bound", type=float, default=SolverConfig.divergence_bound,
                     help="iterate-norm ceiling (default %(default)s)")
    run.add_argument("--norm", choices=sorted(_NORMS), default=SolverConfig.norm.value,
                     help="norm used for residuals (default %(default)s)")
    run.add_argument("--start", help="comma-separated start point (default zeros)")
    run.add_argument("--trace", default="trace.csv", help="trace CSV path (default %(default)s)")
    run.add_argument("--summary", default="summary.txt", help="summary path (default %(default)s)")
    run.add_argument("--no-coords", action="store_true", help="omit coordinates from the trace CSV")
    run.add_argument("--config", help="declarative config file; flags override its keys")
    run.set_defaults(func=cmd_run)

    vc = sub.add_parser("verify-contraction", help="certify a contraction condition by sampling")
    vc.add_argument("--problem", required=True)
    vc.add_argument("--variant", required=True, help=" | ".join(sorted(_VARIANTS)))
    vc.add_argument("--delta", type=float, default=Coefficients.delta)
    for i in range(1, 6):
        vc.add_argument(f"--c{i}", type=float, default=getattr(Coefficients, f"c{i}"))
    vc.add_argument("--triple", help="triple registry name (C-class variants)")
    vc.add_argument("--box", type=float, nargs=2, metavar=("LO", "HI"),
                    help="sampling box (default: the problem's box)")
    vc.add_argument("--pairs", type=int, default=PairSampler.count,
                    help="random pair count (default %(default)s)")
    vc.add_argument("--seed", type=int, default=PairSampler.seed)
    vc.add_argument("--tol", type=float, default=CERT_TOL)
    vc.add_argument("--norm", choices=sorted(_NORMS), default=SolverConfig.norm.value)
    vc.add_argument("--report", default="certificate.json")
    vc.set_defaults(func=cmd_verify_contraction)

    vcc = sub.add_parser("verify-cclass", help="validate a named (psi, phi, G) triple")
    vcc.add_argument("--triple", required=True)
    vcc.add_argument("--grid-upper", type=float, default=Grid1D.upper)
    vcc.add_argument("--grid-points", type=int, default=Grid1D.points)
    vcc.add_argument("--tol", type=float, default=GRID_TOL)
    vcc.add_argument("--report", default="cclass_report.txt")
    vcc.set_defaults(func=cmd_verify_cclass)

    sw = sub.add_parser("sweep", help="run one scheme across several c values")
    sw.add_argument("--problem", required=True)
    sw.add_argument("--scheme", default=Scheme.SCHAEFER.value)
    sw.add_argument("--c-values", required=True, help="comma-separated values in (0, 1]")
    sw.add_argument("--tol", type=float, default=SolverConfig.tol)
    sw.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    sw.add_argument("--norm", choices=sorted(_NORMS), default=SolverConfig.norm.value)
    sw.add_argument("--start", help="comma-separated start point (default zeros)")
    sw.add_argument("--out", default="sweep.csv")
    sw.set_defaults(func=cmd_sweep)

    sub.add_parser("list-problems", help="show the problem registry").set_defaults(
        func=cmd_list_problems
    )
    sub.add_parser("list-triples", help="show the triple registry").set_defaults(
        func=cmd_list_triples
    )
    return parser, run


def main(argv=None) -> int:
    try:
        parser, run = _build_parser()
        args = parser.parse_args(argv)
        if args.command == "run" and args.config:
            # flags override the file's keys, and each key goes through its flag's converter
            run.set_defaults(**_parse_config_file(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    # an OSError is an output path that cannot be written, a MemoryError a size that
    # cannot be allocated: both are a bad flag
    except (ConfigError, InvalidConfig, InvalidInput, NoRootBracketed, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvaluationError, InverseError) as exc:
        # a map that fails to evaluate, or an inverse of S that fails its check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATED


if __name__ == "__main__":
    sys.exit(main())
