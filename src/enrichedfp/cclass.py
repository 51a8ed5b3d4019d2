"""Sampled validators for C-class functions and altering-distance bundles.

A C-class function G: [0,inf)^2 -> R satisfies G(s,t) <= s, with equality
only when s = 0 or t = 0.  An altering distance psi is continuous,
non-decreasing and vanishes exactly at 0.  A phi in the positive class is
continuous with phi(t) > 0 for t > 0.  A triple (psi, phi, G) is monotone
when x <= y implies G(psi(x), phi(x)) <= G(psi(y), phi(y)).

Continuity is not machine-checkable; validators work on finite grids with
tolerance bands and are documented heuristics.  Equality in the degeneracy
axiom uses a band |G - s| <= tol because exact float equality almost never
triggers.  Witnesses are reported first-in-grid-order so reruns and
partitioned scans agree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, InvalidInput

__all__ = [
    "CClassFunction",
    "AlteringDistance",
    "PhiU",
    "CClassTriple",
    "MonotoneState",
    "MonotoneResult",
    "ValidationReport",
    "Grid1D",
    "Grid2D",
    "validate_cclass",
    "validate_altering",
    "validate_phiu",
    "validate_monotone_triple",
    "builtin_triples",
    "get_triple",
]

DEFAULT_TOL = 1e-9


def _eval_checked(fn, x, label):
    try:
        y = float(fn(*x) if isinstance(x, tuple) else fn(x))
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"{label} failed to evaluate at {x}: {exc}", x) from exc
    if not math.isfinite(y):
        raise EvaluationError(f"{label} returned non-finite value at {x}", x)
    return y


def _check_tol(tol: float) -> None:
    """Reject a NaN, infinite or negative band: each decides every grid comparison alike."""
    if not 0.0 <= tol < math.inf:
        raise InvalidInput(f"tol must be finite and non-negative, got {tol}")


@dataclass(frozen=True)
class CClassFunction:
    """G(s, t) on [0, inf)^2 with the upper-bound and degeneracy axioms."""

    fn: Callable[[float, float], float]
    label: str = "G"

    def __call__(self, s: float, t: float) -> float:
        return _eval_checked(self.fn, (s, t), self.label)


@dataclass(frozen=True)
class AlteringDistance:
    """Non-decreasing psi(t) on [0, inf) with psi(t) = 0 iff t = 0."""

    fn: Callable[[float], float]
    label: str = "psi"

    def __call__(self, t: float) -> float:
        return _eval_checked(self.fn, t, self.label)


@dataclass(frozen=True)
class PhiU:
    """phi(t) on [0, inf) with phi(t) > 0 for t > 0 and phi(0) >= 0."""

    fn: Callable[[float], float]
    label: str = "phi"

    def __call__(self, t: float) -> float:
        return _eval_checked(self.fn, t, self.label)


class MonotoneState(enum.Enum):
    MONOTONE_ON_GRID = "monotone-on-grid"
    VIOLATED = "violated"


@dataclass(frozen=True)
class MonotoneResult:
    state: MonotoneState
    witness: Optional[tuple[float, float]] = None  # (x, y) with x < y, h(x) > h(y)


@dataclass(frozen=True)
class TripleExpectation:
    """Pre-labeled outcomes for a built-in triple, reproduced by the validators."""

    psi_ok: bool = True
    phi_ok: bool = True
    g_ok: bool = True
    monotone: bool = True


@dataclass(frozen=True)
class CClassTriple:
    psi: AlteringDistance
    phi: PhiU
    g: CClassFunction
    name: str = ""
    expected: Optional[TripleExpectation] = None


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    passed: bool
    axiom: Optional[str] = None
    witness: Optional[tuple] = None
    points_checked: int = 0


@dataclass(frozen=True)
class Grid1D:
    """Ordered sample of [0, upper]: uniform points plus log refinement near 0.

    The refinement probes the region where built-in functions degenerate or
    switch branches; it keeps the grid deterministic.
    """

    upper: float = 10.0
    points: int = 1001
    refine_near_zero: bool = True

    def values(self) -> np.ndarray:
        if self.upper <= 0 or self.points < 2:
            raise InvalidInput("grid needs upper > 0 and at least 2 points")
        vals = np.linspace(0.0, self.upper, self.points)
        if self.refine_near_zero:
            lo = min(1e-6, self.upper * 1e-7)
            refine = np.geomspace(lo, min(0.1, self.upper / 2.0), 13)
            vals = np.union1d(vals, refine)
        return vals


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid over [0, upper]^2, scanned row-major (s outer, t inner)."""

    upper: float = 10.0
    points_per_axis: int = 101

    def axis(self) -> np.ndarray:
        if self.upper <= 0 or self.points_per_axis < 2:
            raise InvalidInput("grid needs upper > 0 and at least 2 points per axis")
        return np.linspace(0.0, self.upper, self.points_per_axis)


def validate_cclass(
    g: CClassFunction,
    grid: Grid2D = Grid2D(),
    tol: float = DEFAULT_TOL,
) -> ValidationReport:
    """Check both C-class axioms of G over the grid.

    Axiom "upper-bound": G(s,t) <= s + tol everywhere.  Axiom "degeneracy":
    any grid point in the equality band |G(s,t) - s| <= tol must have
    s <= tol or t <= tol.  First violation in row-major order wins.
    """
    _check_tol(tol)
    axis = grid.axis()
    n = 0
    for s in axis:
        for t in axis:
            val = g(float(s), float(t))
            n += 1
            if val > s + tol:
                return ValidationReport(g.label, False, "upper-bound", (float(s), float(t)), n)
            if abs(val - s) <= tol and s > tol and t > tol:
                return ValidationReport(g.label, False, "degeneracy", (float(s), float(t)), n)
    return ValidationReport(g.label, True, None, None, n)


def validate_altering(
    psi: AlteringDistance,
    grid: Grid1D = Grid1D(),
    tol: float = DEFAULT_TOL,
) -> ValidationReport:
    """Check psi(0) = 0, positivity beyond tol, and non-decrease on the grid."""
    _check_tol(tol)
    ts = grid.values()
    vals = np.array([psi(float(t)) for t in ts])
    n = len(ts)
    zero = psi(0.0)
    if abs(zero) > tol:
        return ValidationReport(psi.label, False, "zero-at-zero", (0.0, zero), n)
    for t, v in zip(ts, vals):
        if t > tol and v <= tol:
            return ValidationReport(psi.label, False, "positivity", (float(t), float(v)), n)
    for i in range(len(ts) - 1):
        if vals[i] > vals[i + 1] + tol:
            return ValidationReport(
                psi.label, False, "non-decreasing", (float(ts[i]), float(ts[i + 1])), n
            )
    return ValidationReport(psi.label, True, None, None, n)


def validate_phiu(
    phi: PhiU,
    grid: Grid1D = Grid1D(),
    tol: float = DEFAULT_TOL,
) -> ValidationReport:
    """Check phi(0) >= 0 and strict positivity at grid points beyond tol."""
    _check_tol(tol)
    ts = grid.values()
    n = len(ts)
    zero = phi(0.0)
    if zero < -tol:
        return ValidationReport(phi.label, False, "nonnegative-at-zero", (0.0, zero), n)
    for t in ts:
        if t > tol:
            v = phi(float(t))
            if v <= 0.0:
                return ValidationReport(phi.label, False, "positivity", (float(t), float(v)), n)
    return ValidationReport(phi.label, True, None, None, n)


def validate_monotone_triple(
    triple: CClassTriple,
    grid: Grid1D = Grid1D(),
    tol: float = DEFAULT_TOL,
) -> MonotoneResult:
    """Check that h(x) = G(psi(x), phi(x)) is non-decreasing over all grid pairs.

    All pairs (x, y), x < y are covered via a running maximum; the witness is
    the first violating pair ordered by y then x, which pins it to the start
    of the decreasing stretch regardless of how the scan is partitioned.
    """
    _check_tol(tol)
    xs = grid.values()
    h = np.array(
        [triple.g(triple.psi(float(x)), triple.phi(float(x))) for x in xs]
    )
    best = h[0]
    for j in range(1, len(xs)):
        if best > h[j] + tol:
            mask = h[:j] > h[j] + tol
            i = int(np.argmax(mask))  # first True in ascending x order
            return MonotoneResult(
                MonotoneState.VIOLATED, (float(xs[i]), float(xs[j]))
            )
        if h[j] > best:
            best = h[j]
    return MonotoneResult(MonotoneState.MONOTONE_ON_GRID)


def _piecewise_root_square(x: float) -> float:
    return math.sqrt(x) if x <= 1.0 else x * x


_G_DIFF = CClassFunction(lambda s, t: s - t, "s-t")
_PSI_PIECEWISE = AlteringDistance(_piecewise_root_square, "sqrt-below-1-square-above")
# module constants, so every lookup hands back the same (hashable) objects
_BUILTIN_TRIPLES = (
    CClassTriple(
        psi=_PSI_PIECEWISE,
        phi=PhiU(math.sqrt, "sqrt"),
        g=_G_DIFF,
        name="example-2.5-monotone",
        expected=TripleExpectation(monotone=True),
    ),
    CClassTriple(
        psi=_PSI_PIECEWISE,
        phi=PhiU(lambda t: t * t, "square"),
        g=_G_DIFF,
        name="example-2.6-nonmonotone",
        expected=TripleExpectation(monotone=False),
    ),
    CClassTriple(
        psi=AlteringDistance(lambda t: t, "identity"),
        phi=PhiU(lambda t: t, "identity"),
        g=_G_DIFF,
        name="identity-triple",
        expected=TripleExpectation(monotone=True),
    ),
)


def builtin_triples() -> list[CClassTriple]:
    """The fixed registry of named triples available to the CLI.

    Includes a monotone bundle (difference G with square-root weighting),
    its non-monotone sibling (square weighting), and the identity triple.
    """
    return list(_BUILTIN_TRIPLES)


def get_triple(name: str) -> CClassTriple:
    for t in builtin_triples():
        if t.name == name:
            return t
    known = ", ".join(t.name for t in builtin_triples())
    raise InvalidInput(f"unknown triple {name!r}; known triples: {known}")
