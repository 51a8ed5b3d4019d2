"""Finite-dimensional normed-space primitives.

Points are immutable real vectors with a selectable norm (L1, L2, Linf);
mappings are self-maps of R^n, optionally carrying an exact affine
representation so that linear-solve oracles are available downstream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import EvaluationError, InvalidInput

__all__ = [
    "NormKind",
    "Point",
    "Mapping",
    "norm",
    "array_norm",
    "row_norms",
    "block_sizes",
    "distance",
    "check_commuting",
]


class NormKind(enum.Enum):
    """Norm selection, carried per run so all distances in one experiment agree."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


_NP_ORD = {NormKind.L1: 1, NormKind.L2: 2, NormKind.LINF: np.inf}


@dataclass(frozen=True)
class Point:
    """An element of R^n: an immutable tuple of finite coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(x) for x in self.coords)
        if len(coords) == 0:
            raise InvalidInput("point must have at least one coordinate")
        if not all(np.isfinite(coords)):
            raise InvalidInput(f"point coordinates must be finite, got {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, *xs: float) -> "Point":
        return cls(tuple(xs))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Point":
        return cls(tuple(np.asarray(arr, dtype=float).ravel()))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def array_norm(arr: np.ndarray, k: NormKind = NormKind.L2) -> float:
    """Norm of a raw coordinate array (internal fast path, no validation)."""
    # the ufunc reductions that np.max, np.sum and np.linalg.norm make, minus their
    # dispatch; the reduction order, and so every bit of the result, is the same
    if k is NormKind.L2:
        # scale before squaring so subnormal coordinates cannot underflow to 0,
        # keeping norm(p) = 0 iff p = 0 exact
        m = float(np.maximum.reduce(np.abs(arr), axis=None, initial=0.0))
        if m == 0.0 or not math.isfinite(m):
            return m
        return m * math.sqrt(np.add.reduce(np.square(arr / m), axis=None))
    if k is NormKind.L1:
        return float(np.add.reduce(np.abs(arr), axis=None))
    return float(np.maximum.reduce(np.abs(arr), axis=None, initial=0.0))


def row_norms(block: np.ndarray, k: NormKind = NormKind.L2) -> np.ndarray:
    """``array_norm`` of every row of an (N, d) block, with the same arithmetic per row.

    Each entry equals ``array_norm(block[i], k)`` bit for bit: the reductions
    run along the contiguous row, as they do on a single array.
    """
    if k is NormKind.L2:
        m = np.max(np.abs(block), axis=1, initial=0.0)
        scaled = (m != 0.0) & np.isfinite(m)
        # a zero or non-finite row returns its max, as array_norm does
        safe = np.where(scaled, m, 1.0)
        out = safe * np.sqrt(np.sum(np.square(block / safe[:, None]), axis=1))
        return np.where(scaled, out, m)
    return np.linalg.norm(block, ord=_NP_ORD[k], axis=1)


# a block of rows holds about this many coordinates at most
_CHUNK_FLOATS = 8192


def block_sizes(first: int, dim: int) -> Iterator[int]:
    """Row counts of successive blocks of ``dim``-coordinate rows, without end.

    The first block has ``first`` rows, so work that stops early pays for one
    small block; each next one doubles, up to about _CHUNK_FLOATS coordinates.
    """
    cap = max(1, _CHUNK_FLOATS // dim)
    rows = min(first, cap)
    while True:
        yield rows
        rows = min(2 * rows, cap)


def norm(p: Point, k: NormKind = NormKind.L2) -> float:
    """L1/L2/Linf norm of a point."""
    return array_norm(p.as_array(), k)


def distance(u: Point, v: Point, k: NormKind = NormKind.L2) -> float:
    """norm(u - v); symmetric, zero iff u = v."""
    if u.dim != v.dim:
        raise InvalidInput(f"dimension mismatch: {u.dim} vs {v.dim}")
    return array_norm(u.as_array() - v.as_array(), k)


class _WrongShape(InvalidInput):
    """A map's result does not fit its row; ``shape`` is the result's."""

    def __init__(self, shape: tuple, expected: tuple):
        super().__init__(f"mapping returned shape {shape}, expected {expected}")
        self.shape = shape


@dataclass(frozen=True, eq=False)
class Mapping:
    """A self-map of R^n, evaluable at any point.

    ``matrix``/``offset`` hold an exact affine representation A, b when the
    map is affine (then evaluation is literally A @ x + b), enabling exact
    fixed-point oracles via linear solve.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    matrix: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("mapping dimension must be positive")
        if (self.matrix is None) != (self.offset is None):
            raise InvalidInput("affine mappings need both matrix and offset")

    @property
    def is_affine(self) -> bool:
        return self.matrix is not None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on a raw array without wrapping; used by inner loops."""
        return np.asarray(self.fn(x), dtype=float)

    def apply_into(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write ``apply(x)`` into ``out``, bit for bit; an affine map allocates nothing."""
        if self.is_affine:
            np.matmul(self.matrix, x, out=out)
            np.add(out, self.offset, out=out)
            return
        y = self.apply(x)
        if y.shape != out.shape:
            # a (1,) result would broadcast into a wider row silently
            raise _WrongShape(y.shape, out.shape)
        out[...] = y

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate on every row of an (N, dim) block; row i equals ``apply(xs[i])`` bit for bit.

        Affine maps take a stacked matrix-vector product, one gemv per row.
        ``xs @ matrix.T`` would be a matrix-matrix product, which rounds rows
        differently from ``matrix @ x``.  Other maps loop over the rows.
        """
        if self.is_affine:
            return (self.matrix @ xs[:, :, None])[:, :, 0] + self.offset
        out = np.empty(xs.shape)
        for i, x in enumerate(xs):
            out[i] = self.apply(x)
        return out

    def __call__(self, p: Point) -> Point:
        if p.dim != self.dim:
            raise InvalidInput(
                f"mapping of dimension {self.dim} applied to point of dimension {p.dim}"
            )
        out = self.apply(p.as_array())
        if out.shape != (self.dim,):
            raise InvalidInput(
                f"mapping returned shape {out.shape}, expected ({self.dim},)"
            )
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"mapping produced non-finite output at {p.coords}", p)
        return Point.from_array(out)

    @classmethod
    def affine(
        cls,
        matrix: np.ndarray,
        offset: np.ndarray,
        label: str = "",
    ) -> "Mapping":
        a = np.array(matrix, dtype=float)
        b = np.array(offset, dtype=float).ravel()
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise InvalidInput(f"bad affine shapes: {a.shape}, {b.shape}")
        a.setflags(write=False)
        b.setflags(write=False)
        return cls(
            fn=lambda x: a @ x + b,
            dim=b.shape[0],
            matrix=a,
            offset=b,
            label=label,
        )

    @classmethod
    def identity(cls, dim: int, label: str = "identity") -> "Mapping":
        return cls.affine(np.eye(dim), np.zeros(dim), label=label)

    @classmethod
    def from_scalar(
        cls,
        f: Callable[[float], float],
        label: str = "",
    ) -> "Mapping":
        """Wrap a scalar function as a one-dimensional mapping."""
        return cls(
            fn=lambda x: np.asarray([float(f(float(x[0])))]),
            dim=1,
            label=label,
        )


def check_commuting(
    f: Mapping,
    s: Mapping,
    samples: Sequence[Point],
    tol: float = 1e-9,
    k: NormKind = NormKind.L2,
) -> Optional[Point]:
    """The first sample p with ||f(s(p)) - s(f(p))|| > tol * max(1, ||p||), or None.

    None means every sample commutes.  The tolerance is relative at large
    scale, where an absolute gap means nothing.
    """
    if f.dim != s.dim:
        raise InvalidInput(f"dimension mismatch: {f.dim} vs {s.dim}")
    if not samples:
        raise InvalidInput("commuting check needs at least one sample point")
    for p in samples:
        gap = distance(f(s(p)), s(f(p)), k)
        if gap > tol * max(1.0, norm(p, k)):
            return p
    return None
