"""Iteration engines with stopping rules, divergence detection, and traces.

Three schemes: direct successive approximation (Picard), the averaged scheme
u_n = (1-c) u_{n-1} + c f(u_{n-1}), and the pair scheme
S u_{n+1} = (1-c) S u_n + c f(u_n) which needs an explicit inverse of S to
advance (for affine S the inverse is synthesized by linear solve).

Residuals are ||u_{n+1} - u_n|| in the configured norm; the pair scheme
instead tracks ||S u_{n+1} - S u_n||, the sequence its convergence argument
drives to zero.  The seed point is iterate 0 and carries no residual entry;
stopping is decided as if tested after each full iteration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidConfig, InvalidInput, InverseError
from .contraction import _CHUNK_FLOATS
from .space import Mapping, NormKind, Point, array_norm, check_commuting, distance, row_norms

__all__ = [
    "Scheme",
    "Status",
    "SolverConfig",
    "IterationTrace",
    "PairProblem",
    "ProbeReport",
    "run_picard",
    "run_schaefer",
    "run_jungck_schaefer",
    "verdict_fixed_point",
    "verdict_common_fixed_point",
    "uniqueness_probe",
]

DELTA_C_SLACK = 1e-12
# the stop tests run once per block of steps: the first block is short, so a run
# that stops within a few steps computes few past its stop; later blocks double,
# up to _BLOCK_ROWS rows and about _CHUNK_FLOATS coordinates
_FIRST_BLOCK = 8
_BLOCK_ROWS = 256


class Scheme(enum.Enum):
    PICARD = "picard"
    SCHAEFER = "schaefer"
    JUNGCK_SCHAEFER = "jungck-schaefer"


class Status(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER_EXCEEDED = "max-iter-exceeded"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SolverConfig:
    """Scheme, averaging parameter, stopping thresholds, and the start point.

    When ``delta`` is supplied it must be consistent with c = 1 / (1 + delta),
    the reparametrization tying the averaging parameter to the enrichment
    coefficient.
    """

    scheme: Scheme
    seed_point: Point
    c: float = 1.0
    delta: Optional[float] = None
    tol: float = 1e-10
    max_iter: int = 100_000
    divergence_bound: float = 1e12
    norm: NormKind = NormKind.L2

    def __post_init__(self):
        if not (0.0 < self.c <= 1.0):
            raise InvalidConfig(f"averaging parameter must be in (0, 1], got {self.c}")
        if self.delta is not None:
            if self.delta < 0:
                raise InvalidConfig(f"delta must be non-negative, got {self.delta}")
            if abs(self.c - 1.0 / (1.0 + self.delta)) > DELTA_C_SLACK:
                raise InvalidConfig(
                    f"c = {self.c} inconsistent with delta = {self.delta} "
                    f"(expected {1.0 / (1.0 + self.delta)})"
                )
        # a NaN or +inf tol would stop every run at once; written so NaN fails too
        if not 0 < self.tol < math.inf:
            raise InvalidConfig(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidConfig("max_iter must be at least 1")
        # +inf is legal: it leaves overflow as the only divergence test
        if not self.divergence_bound > 0:
            raise InvalidConfig("divergence_bound must be positive")

    @classmethod
    def with_delta(cls, scheme: Scheme, seed_point: Point, delta: float, **kw) -> "SolverConfig":
        """Derive c = 1 / (1 + delta) and record both."""
        if delta < 0:
            raise InvalidConfig(f"delta must be non-negative, got {delta}")
        return cls(scheme=scheme, seed_point=seed_point, c=1.0 / (1.0 + delta),
                   delta=delta, **kw)


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Full record of a run: iterates (seed first), residuals, and the stop reason.

    ``xs`` holds iterate n in row n as a read-only float64 array; ``Point``s
    are built only when ``iterates``, ``last`` or ``limit()`` is read.
    """

    scheme: Scheme
    xs: np.ndarray
    residuals: tuple[float, ...]
    status: Status
    diverged_at: Optional[int] = None

    @property
    def iterates(self) -> tuple[Point, ...]:
        """Every iterate as a ``Point``, seed first; built anew on each read."""
        return tuple(Point.from_array(row) for row in self.xs)

    @property
    def wall_iterations(self) -> int:
        return len(self.residuals)

    @property
    def final_residual(self) -> Optional[float]:
        return self.residuals[-1] if self.residuals else None

    def limit(self) -> Optional[Point]:
        """The converged limit, or None if the run did not converge."""
        return self.last if self.status is Status.CONVERGED else None

    @property
    def last(self) -> Point:
        return Point.from_array(self.xs[-1])

    def to_csv(self, include_coords: bool = True) -> str:
        """CSV body: iter, residual, then one column per coordinate.

        17 significant digits, '.' decimal, no separators; iterate 0 has an
        empty residual field.  Byte-stable for fixed inputs.
        """
        residuals = ("", *(_fmt(r) for r in self.residuals))
        if not include_coords:
            lines = ["iter,residual", *(f"{n},{res}" for n, res in enumerate(residuals))]
        else:
            dim = self.xs.shape[1]
            lines = ["iter,residual," + ",".join(f"x{i}" for i in range(dim))]
            # "%.17g" % x is f"{x:.17g}" for every float, one template per row
            row_fmt = "%d,%s," + ",".join(["%.17g"] * dim)
            lines += [row_fmt % (n, res, *row.tolist())
                      for n, (res, row) in enumerate(zip(residuals, self.xs))]
        # the empty last line ends the text with a newline without copying the joined text
        lines.append("")
        return "\n".join(lines)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def run_picard(f: Mapping, cfg: SolverConfig) -> IterationTrace:
    """Successive approximation u_{n+1} = f(u_n): the averaged scheme with c = 1.

    ``cfg.c`` is ignored.
    """
    return _iterate(Scheme.PICARD, f, cfg)


def run_schaefer(f: Mapping, cfg: SolverConfig) -> IterationTrace:
    """Averaged iteration u_n = (1-c) u_{n-1} + c f(u_{n-1}): the pair scheme with S = I.

    With c = 1 the arithmetic reduces to f exactly, so the trace coincides
    with the Picard trace coordinate for coordinate.
    """
    return _iterate(Scheme.SCHAEFER, f, cfg)


@dataclass(frozen=True, eq=False)
class PairProblem:
    """A commuting pair (f, S) together with an inverse of S.

    The pair scheme defines u_{n+1} only implicitly through S, so an explicit
    inverse is required; for affine S one is synthesized by linear solve.
    """

    f: Mapping
    s: Mapping
    s_inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.f.dim != self.s.dim:
            raise InvalidInput(f"dimension mismatch: f {self.f.dim}, S {self.s.dim}")
        if self.s_inverse is None:
            if not self.s.is_affine:
                raise InvalidInput(
                    "non-affine S needs an explicit s_inverse; none was supplied"
                )
            a, b = self.s.matrix, self.s.offset
            # by rank, not det(a) == 0, which underflows for a well-conditioned
            # large S and misses a nearly singular small one
            if np.linalg.matrix_rank(a) < self.s.dim:
                raise InvalidInput("affine S is singular; cannot synthesize inverse")
            object.__setattr__(self, "s_inverse", lambda y: np.linalg.solve(a, y - b))

    @property
    def dim(self) -> int:
        return self.f.dim

    def validate_sampled(self, points: Sequence[Point], tol: float = 1e-9):
        """Check the inverse and commutation invariants on sample points."""
        for p in points:
            x = p.as_array()
            back = self.s_inverse(self.s.apply(x))
            if array_norm(back - x) > tol * max(1.0, array_norm(x)):
                raise InvalidInput(f"s_inverse(S(p)) != p at {p.coords}")
        witness = check_commuting(self.f, self.s, points, tol).witness
        if witness is not None:
            raise InvalidInput(f"f and S do not commute at {witness.coords}")


def run_jungck_schaefer(p: PairProblem, cfg: SolverConfig) -> IterationTrace:
    """Pair iteration: S u_{n+1} = (1-c) S u_n + c f(u_n), advanced via S^{-1}.

    The trace stores u_n; residual_n = ||S u_{n+1} - S u_n||.  Raises
    InverseError when S(S^{-1}(w)) fails to reproduce w within tolerance
    (relative at large scale, where absolute comparison is meaningless).
    With S = identity the arithmetic, and hence the trace, matches the
    averaged scheme exactly.
    """
    return _iterate(Scheme.JUNGCK_SCHAEFER, p.f, cfg, p)


# an overflow is divergence, and steps past a stop may overflow: no warnings
@np.errstate(over="ignore", invalid="ignore")
def _iterate(
    scheme: Scheme, f: Mapping, cfg: SolverConfig, pair: Optional[PairProblem] = None
) -> IterationTrace:
    """The one stepping loop: S u_{n+1} = (1-c) S u_n + c f(u_n), S = I without a pair.

    Each step stores its iterate; the tol and divergence-bound tests then run
    once per block of steps on the stored rows, through ``row_norms``, and the
    first stop in step order ends the run, as a test after every step would.
    The map is pure, so the steps computed past a stop, fewer than one block,
    are discarded, and an error raised in one of them is dropped.  An iterate
    that overflows to a non-finite value is divergence; the trace then ends at
    the last finite iterate.  With a pair, every step also checks that f(u_n)
    is reproducible as S(S^{-1}(f(u_n))), the sampled stand-in for range
    inclusion of f in S.
    """
    if cfg.scheme is not scheme:
        raise InvalidConfig(f"config scheme is {cfg.scheme.value}, expected {scheme.value}")
    if cfg.seed_point.dim != f.dim:
        raise InvalidInput(
            f"seed point dimension {cfg.seed_point.dim} != map dimension {f.dim}"
        )
    c = 1.0 if scheme is Scheme.PICARD else cfg.c
    x = cfg.seed_point.as_array()
    sx = x if pair is None else pair.s.apply(x)
    # row n holds iterate n; grown by doubling up to max_iter + 1 rows, so a huge
    # max_iter costs nothing up front and a run that uses its budget keeps no spare rows
    xs = np.empty((min(cfg.max_iter, 1023) + 1, f.dim))
    xs[0] = x
    # row n holds S u_n, whose differences the residuals measure; xs itself without a pair
    sxs = xs if pair is None else np.empty_like(xs)
    sxs[0] = sx
    residuals: list[float] = []
    status = Status.MAX_ITER_EXCEEDED
    diverged_at = None
    cap = min(_BLOCK_ROWS, max(1, _CHUNK_FLOATS // f.dim))
    rows = min(_FIRST_BLOCK, cap)
    a = 1
    while a <= cfg.max_iter:
        b = min(a + rows - 1, cfg.max_iter)
        rows = min(2 * rows, cap)
        if b >= len(xs):
            extra = min(len(xs), cfg.max_iter + 1 - len(xs))
            xs = np.concatenate((xs, np.empty_like(xs[:extra])))
            sxs = xs if pair is None else np.concatenate((sxs, np.empty_like(sxs[:extra])))
        # steps a..end-1 are stored; an error at step end is held until they are tested
        end, held = b + 1, None
        try:
            for n in range(a, b + 1):
                fx = f.apply(x)
                if pair is not None:
                    reachable = pair.s.apply(pair.s_inverse(fx))
                    if array_norm(reachable - fx) > cfg.tol * max(1.0, array_norm(fx)):
                        raise InverseError(f"f(u_{n - 1}) is not reproducible in the range of S", n)
                w = fx if c == 1.0 else (1.0 - c) * sx + c * fx
                x_new = w if pair is None else np.asarray(pair.s_inverse(w), dtype=float)
                if x_new.shape != x.shape:
                    # a row store would broadcast a wrong-sized result silently
                    raise InvalidInput(f"iterate {n} has shape {x_new.shape}, expected {x.shape}")
                if not np.isfinite(x_new).all():
                    end = n
                    break
                if pair is None:
                    sx = x_new
                else:
                    sx = pair.s.apply(x_new)
                    if array_norm(sx - w) > cfg.tol * max(1.0, array_norm(w)):
                        raise InverseError(f"S(s_inverse(w)) != w at iteration {n}", n)
                    sxs[n] = sx
                xs[n] = x = x_new
        except Exception as exc:
            end, held = n, exc
        r = row_norms(sxs[a:end] - sxs[a - 1:end - 1], cfg.norm)
        stops = (r <= cfg.tol) | (row_norms(xs[a:end], cfg.norm) > cfg.divergence_bound)
        if stops.any():
            j = int(stops.argmax())
            residuals += r[: j + 1].tolist()
            if r[j] <= cfg.tol:
                status = Status.CONVERGED
            else:
                status = Status.DIVERGED
                diverged_at = a + j
            break
        residuals += r.tolist()
        if held is not None:
            raise held
        if end <= b:
            status = Status.DIVERGED
            diverged_at = end
            break
        a = end
    xs = xs[: len(residuals) + 1]
    xs.setflags(write=False)
    return IterationTrace(
        scheme=scheme,
        xs=xs,
        residuals=tuple(residuals),
        status=status,
        diverged_at=diverged_at,
    )


def verdict_fixed_point(
    f: Mapping, u: Point, k: NormKind = NormKind.L2, tol: float = 1e-8
) -> bool:
    """True iff ||f(u) - u|| <= tol."""
    return distance(f(u), u, k) <= tol


def verdict_common_fixed_point(
    p: PairProblem, u: Point, k: NormKind = NormKind.L2, tol: float = 1e-8
) -> bool:
    """True iff u is fixed by both members of the pair."""
    return verdict_fixed_point(p.f, u, k, tol) and verdict_fixed_point(p.s, u, k, tol)


@dataclass(frozen=True)
class ProbeReport:
    """Agreement of averaged-iteration limits across several start points."""

    all_agree: bool
    limit_points: tuple[Point, ...]
    statuses: tuple[Status, ...]
    non_converged: tuple[int, ...]  # indices of starts that failed to converge


def uniqueness_probe(
    f: Mapping, cfg: SolverConfig, starts: Sequence[Point]
) -> ProbeReport:
    """Run the averaged scheme from each start and compare the limits.

    all_agree is true iff every pair of converged limits lies within
    10 * cfg.tol; non-converged starts are excluded and flagged by index.
    """
    if len(starts) < 2 or len(set(p.coords for p in starts)) < 2:
        raise InvalidInput("uniqueness probe needs at least 2 distinct start points")
    limits: list[Point] = []
    statuses: list[Status] = []
    failed: list[int] = []
    for i, start in enumerate(starts):
        trace = run_schaefer(f, replace(cfg, scheme=Scheme.SCHAEFER, seed_point=start))
        statuses.append(trace.status)
        if trace.status is Status.CONVERGED:
            limits.append(trace.limit())
        else:
            failed.append(i)
    agree = all(
        distance(a, b, cfg.norm) <= 10.0 * cfg.tol
        for i, a in enumerate(limits)
        for b in limits[i + 1:]
    )
    return ProbeReport(
        all_agree=agree,
        limit_points=tuple(limits),
        statuses=tuple(statuses),
        non_converged=tuple(failed),
    )
