"""Iteration engines with stopping rules, divergence detection, and traces.

Three schemes: direct successive approximation (Picard), the averaged scheme
u_n = (1-c) u_{n-1} + c f(u_{n-1}), and the pair scheme
S u_{n+1} = (1-c) S u_n + c f(u_n) which needs an explicit inverse of S to
advance (for affine S the inverse is synthesized by linear solve).

Residuals are ||u_{n+1} - u_n|| in the configured norm; the pair scheme
instead tracks ||S u_{n+1} - S u_n||, the sequence its convergence argument
drives to zero.  The seed point is iterate 0 and carries no residual entry;
stopping is evaluated after each full iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidConfig, InvalidInput, InverseError
from .space import Mapping, NormKind, Point, array_norm, check_commuting, distance

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
        if self.tol <= 0:
            raise InvalidConfig("tol must be positive")
        if self.max_iter < 1:
            raise InvalidConfig("max_iter must be at least 1")
        if self.divergence_bound <= 0:
            raise InvalidConfig("divergence_bound must be positive")

    @classmethod
    def with_delta(cls, scheme: Scheme, seed_point: Point, delta: float, **kw) -> "SolverConfig":
        """Derive c = 1 / (1 + delta) and record both."""
        if delta < 0:
            raise InvalidConfig(f"delta must be non-negative, got {delta}")
        return cls(scheme=scheme, seed_point=seed_point, c=1.0 / (1.0 + delta),
                   delta=delta, **kw)


@dataclass(frozen=True)
class IterationTrace:
    """Full record of a run: iterates (seed first), residuals, and the stop reason."""

    scheme: Scheme
    iterates: tuple[Point, ...]
    residuals: tuple[float, ...]
    status: Status
    diverged_at: Optional[int] = None

    @property
    def wall_iterations(self) -> int:
        return len(self.residuals)

    @property
    def final_residual(self) -> Optional[float]:
        return self.residuals[-1] if self.residuals else None

    def limit(self) -> Optional[Point]:
        """The converged limit, or None if the run did not converge."""
        return self.iterates[-1] if self.status is Status.CONVERGED else None

    @property
    def last(self) -> Point:
        return self.iterates[-1]

    def to_csv(self, include_coords: bool = True) -> str:
        """CSV body: iter, residual, then one column per coordinate.

        17 significant digits, '.' decimal, no separators; iterate 0 has an
        empty residual field.  Byte-stable for fixed inputs.
        """
        dim = self.iterates[0].dim
        header = "iter,residual"
        if include_coords:
            header += "," + ",".join(f"x{i}" for i in range(dim))
        lines = [header]
        for n, p in enumerate(self.iterates):
            res = "" if n == 0 else _fmt(self.residuals[n - 1])
            row = f"{n},{res}"
            if include_coords:
                row += "," + ",".join(_fmt(x) for x in p.coords)
            lines.append(row)
        return "\n".join(lines) + "\n"


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
    ``range_check`` additionally verifies at every step that f(u_n) is
    reproducible as S(S^{-1}(f(u_n))), the sampled stand-in for range
    inclusion of f in S.
    """

    f: Mapping
    s: Mapping
    s_inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None
    range_check: bool = True

    def __post_init__(self):
        if self.f.dim != self.s.dim:
            raise InvalidInput(f"dimension mismatch: f {self.f.dim}, S {self.s.dim}")
        if self.s_inverse is None:
            if not self.s.is_affine:
                raise InvalidInput(
                    "non-affine S needs an explicit s_inverse; none was supplied"
                )
            a, b = self.s.matrix, self.s.offset
            if abs(np.linalg.det(a)) == 0.0:
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


def _iterate(
    scheme: Scheme, f: Mapping, cfg: SolverConfig, pair: Optional[PairProblem] = None
) -> IterationTrace:
    """The one stepping loop: S u_{n+1} = (1-c) S u_n + c f(u_n), S = I without a pair.

    Records each iterate, then tests tol / divergence / budget.  An iterate
    that overflows to a non-finite value is divergence; the trace then ends
    at the last finite iterate.
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
    iterates = [cfg.seed_point]
    residuals: list[float] = []
    status = Status.MAX_ITER_EXCEEDED
    diverged_at = None
    for n in range(1, cfg.max_iter + 1):
        fx = f.apply(x)
        if pair is not None and pair.range_check:
            reachable = pair.s.apply(pair.s_inverse(fx))
            if array_norm(reachable - fx) > cfg.tol * max(1.0, array_norm(fx)):
                raise InverseError(f"f(u_{n - 1}) is not reproducible in the range of S", n)
        w = fx if c == 1.0 else (1.0 - c) * sx + c * fx
        x_new = w if pair is None else np.asarray(pair.s_inverse(w), dtype=float)
        if not np.all(np.isfinite(x_new)):
            status = Status.DIVERGED
            diverged_at = n
            break
        sx_new = x_new if pair is None else pair.s.apply(x_new)
        if pair is not None and array_norm(sx_new - w) > cfg.tol * max(1.0, array_norm(w)):
            raise InverseError(f"S(s_inverse(w)) != w at iteration {n}", n)
        r = array_norm(sx_new - sx, cfg.norm)
        iterates.append(Point.from_array(x_new))
        residuals.append(r)
        if r <= cfg.tol:
            status = Status.CONVERGED
            break
        if array_norm(x_new, cfg.norm) > cfg.divergence_bound:
            status = Status.DIVERGED
            diverged_at = n
            break
        x, sx = x_new, sx_new
    return IterationTrace(
        scheme=scheme,
        iterates=tuple(iterates),
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
