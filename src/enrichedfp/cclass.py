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
partitioned scans agree.  Every validator returns a ``ValidationReport``: an
axiom failure before the first point where a component fails wins, else that
point's error is raised.  Components see one point of floats at a time, as
numpy's pow, exp and log on arrays may round apart from libm's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, InvalidInput
from .space import check_size

__all__ = [
    "CClassFunction",
    "AlteringDistance",
    "PhiU",
    "CClassTriple",
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


class _Overflow(EvaluationError):
    """A function returned an infinity at finite arguments: they are out of its range."""


def _eval_checked(fn, x, label):
    try:
        y = float(fn(*x) if isinstance(x, tuple) else fn(x))
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"{label} failed to evaluate at {x}: {exc}", x) from exc
    if not math.isfinite(y):
        if math.isinf(y) and all(map(math.isfinite, x if isinstance(x, tuple) else (x,))):
            raise _Overflow(f"{label} overflowed to {y} at {x}", x)
        raise EvaluationError(f"{label} returned non-finite value at {x}", x)
    return y


def _evaluate(component, points, n: int):
    """(values, None) of ``fn`` at the n argument tuples ``points()`` yields; if one raises or
    is not finite, ``__call__`` replays them and (the values before it, its error) is returned."""
    try:
        vals = np.fromiter(map(float, itertools.starmap(component.fn, points())), float, n)
        if np.isfinite(vals).all():
            return vals, None
    except Exception:
        pass
    vals = []
    for x in points():
        try:
            vals.append(component(*x))
        except Exception as exc:
            return np.array(vals, float), exc
    return np.array(vals, float), None


def _triple_values(triple: CClassTriple, xs: list):
    """h(x) = G(psi(x), phi(x)) at the floats xs: the first failure by point, then psi, phi, G."""
    psi, e_psi = _evaluate(triple.psi, lambda: zip(xs), len(xs))
    phi, e_phi = _evaluate(triple.phi, lambda: zip(xs[:len(psi)]), len(psi))
    h, e_g = _evaluate(triple.g, lambda: zip(psi[:len(phi)].tolist(), phi.tolist()), len(phi))
    return h, e_g or e_phi or e_psi  # each ran only before the failures found earlier


def _verdict(subject: str, err, *checks) -> ValidationReport:
    """The first check (axiom, bad, xs, ys) with a True in ``bad``, witness (xs[i], ys[i])
    at its first; else the error ``_evaluate`` returned is raised, or every axiom held."""
    for axiom, bad, xs, ys in checks:
        if bad.any():
            i = int(bad.argmax())
            return ValidationReport(subject, False, axiom, (float(xs[i]), float(ys[i])))
    if err is not None:
        raise err
    return ValidationReport(subject, True)


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
    """Every validator's outcome: the first failing axiom and its witness, in grid order."""

    subject: str
    passed: bool
    axiom: Optional[str] = None
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class Grid1D:
    """Ordered sample of [0, upper]: uniform points plus log refinement near 0.

    The refinement probes the region where built-in functions degenerate or
    switch branches; it keeps the grid deterministic.
    """

    upper: float = 10.0
    points: int = 1001

    def values(self) -> np.ndarray:
        # written so that a NaN bound fails too
        if not 0 < self.upper < math.inf or self.points < 2:
            raise InvalidInput("grid needs a finite upper > 0 and at least 2 points")
        check_size(self.points, f"a {self.points}-point grid")
        vals = np.linspace(0.0, self.upper, self.points)
        lo = min(1e-6, self.upper * 1e-7)
        if lo == 0.0:  # a subnormal upper: geomspace cannot start at 0
            raise InvalidInput(f"grid upper {self.upper} is too small: the refinement underflows")
        refine = np.geomspace(lo, min(0.1, self.upper / 2.0), 13)
        return np.union1d(vals, refine)


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid over [0, upper]^2, scanned row-major (s outer, t inner)."""

    upper: float = 10.0
    points_per_axis: int = 101

    def axis(self) -> np.ndarray:
        if not 0 < self.upper < math.inf or self.points_per_axis < 2:
            raise InvalidInput("grid needs a finite upper > 0 and at least 2 points per axis")
        check_size(self.points_per_axis, f"a {self.points_per_axis}-point grid axis")
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
    n, pts = len(axis), axis.tolist()
    vals, err = _evaluate(g, lambda: itertools.product(pts, pts), n * n)
    if err is not None:  # NaN from the failed point on: it fails no axiom
        vals = np.append(vals, np.full(n * n - len(vals), np.nan))
    s, t, v = axis[:, None], axis, vals.reshape(n, n)
    upper = v > s + tol
    v -= s  # |G - s| in place, so that no second (n, n) array is made
    bad = upper | ((np.abs(v, out=v) <= tol) & (s > tol) & (t > tol))
    if bad.any():
        i, j = divmod(int(bad.argmax()), n)
        axiom = "upper-bound" if upper[i, j] else "degeneracy"
        return ValidationReport(g.label, False, axiom, (pts[i], pts[j]))
    return _verdict(g.label, err)


def validate_altering(
    psi: AlteringDistance,
    grid: Grid1D = Grid1D(),
    tol: float = DEFAULT_TOL,
) -> ValidationReport:
    """Check psi(0) = 0, positivity beyond tol, and non-decrease on the grid."""
    _check_tol(tol)
    ts = grid.values()
    vals, err = _evaluate(psi, lambda: zip(ts.tolist()), len(ts))
    # every grid starts at 0, so vals[0] is psi(0); a decreasing step's witness is its ends
    return _verdict(psi.label, err, ("zero-at-zero", abs(vals[:1]) > tol, ts, vals),
                    ("positivity", (ts[:len(vals)] > tol) & (vals <= tol), ts, vals),
                    ("non-decreasing", vals[:-1] > vals[1:] + tol, ts, ts[1:]))


def validate_phiu(
    phi: PhiU,
    grid: Grid1D = Grid1D(),
    tol: float = DEFAULT_TOL,
) -> ValidationReport:
    """Check phi(0) >= 0 and strict positivity at grid points beyond tol."""
    _check_tol(tol)
    ts = grid.values()
    ts = np.append(0.0, ts[ts > tol])  # phi(0), then the points past tol
    vals, err = _evaluate(phi, lambda: zip(ts.tolist()), len(ts))
    return _verdict(phi.label, err, ("nonnegative-at-zero", vals[:1] < -tol, ts, vals),
                    ("positivity", (ts[:len(vals)] > tol) & (vals <= 0.0), ts, vals))


def validate_monotone_triple(
    triple: CClassTriple,
    grid: Grid1D = Grid1D(),
    tol: float = DEFAULT_TOL,
) -> ValidationReport:
    """Check that h(x) = G(psi(x), phi(x)) is non-decreasing over all grid pairs.

    All pairs (x, y), x < y are covered via a running maximum; the witness is
    the first violating pair ordered by y then x, which pins it to the start
    of the decreasing stretch regardless of how the scan is partitioned.
    """
    _check_tol(tol)
    xs = grid.values()
    h, err = _triple_values(triple, xs.tolist())
    # entry j - 1 is True when some h[i], i < j, exceeds h[j] + tol
    bad = np.maximum.accumulate(h)[:-1] > h[1:] + tol
    if not bad.any():
        return _verdict(triple.name, err)
    j = int(bad.argmax()) + 1
    i = int(np.argmax(h[:j] > h[j] + tol))  # first True in ascending x order
    return ValidationReport(triple.name, False, "non-decreasing", (float(xs[i]), float(xs[j])))


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
