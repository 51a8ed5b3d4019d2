"""Finite-dimensional normed-space primitives.

Points are immutable real vectors with a selectable norm (L1, L2, Linf);
mappings are self-maps of R^n, optionally carrying an exact affine
representation so that linear-solve oracles are available downstream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import EvaluationError, InvalidInput

__all__ = [
    "NormKind",
    "Point",
    "Mapping",
    "array_norm",
    "row_norms",
    "block_sizes",
    "check_commuting",
    "MAX_ARRAY_BYTES",
    "check_size",
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
# the largest array a size argument may ask for; larger is refused before allocating
MAX_ARRAY_BYTES = 1 << 30


def check_size(count: int, what: str) -> None:
    """Raise InvalidInput if ``count`` float64 values exceed MAX_ARRAY_BYTES."""
    if count * 8 > MAX_ARRAY_BYTES:
        raise InvalidInput(f"{what} needs {count * 8 / 2**30:.3g} GiB, over the "
                           f"{MAX_ARRAY_BYTES / 2**30:g} GiB size ceiling")


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

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("mapping dimension must be positive")
        if (self.matrix is None) != (self.offset is None):
            raise InvalidInput("affine mappings need both matrix and offset")

    @property
    def is_affine(self) -> bool:
        return self.matrix is not None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """f(x) as a float64 array: the one call of a non-affine ``fn``, and its one check.

        Raises ``_WrongShape`` unless the result has shape (dim,): a (1,) result
        would broadcast into a wider row silently.
        """
        y = np.asarray(self.fn(x), dtype=float)
        # cheaper than comparing y.shape with a new tuple, on every row of a block
        if y.ndim != 1 or len(y) != self.dim:
            raise _WrongShape(y.shape, (self.dim,))
        return y

    def apply_into(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write ``apply(x)`` into ``out``, bit for bit; an affine map allocates nothing."""
        if self.is_affine:
            np.matmul(self.matrix, x, out=out)
            np.add(out, self.offset, out=out)
        else:
            out[...] = self.apply(x)

    def apply_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate on every row of an (N, dim) block; row i equals ``apply(xs[i])`` bit for bit.

        Affine maps take a stacked matrix-vector product, one gemv per row.
        ``xs @ matrix.T`` would be a matrix-matrix product, which rounds rows
        differently from ``matrix @ x``.  Other maps stack ``apply`` over the rows.
        """
        if self.is_affine:
            return (self.matrix @ xs[:, :, None])[:, :, 0] + self.offset
        # fromiter fills its array row by row, with no list of row arrays to join
        return np.fromiter((self.apply(x) for x in xs), (float, self.dim), count=len(xs))

    @classmethod
    def affine(cls, matrix: np.ndarray, offset: np.ndarray) -> "Mapping":
        a = np.array(matrix, dtype=float)
        b = np.array(offset, dtype=float).ravel()
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise InvalidInput(f"bad affine shapes: {a.shape}, {b.shape}")
        a.setflags(write=False)
        b.setflags(write=False)
        return cls(fn=lambda x: a @ x + b, dim=b.shape[0], matrix=a, offset=b)

    @classmethod
    def identity(cls, dim: int) -> "Mapping":
        return cls.affine(np.eye(dim), np.zeros(dim))

    @classmethod
    def from_scalar(cls, f: Callable[[float], float]) -> "Mapping":
        """Wrap a scalar function as a one-dimensional mapping."""
        return cls(fn=lambda x: np.asarray([float(f(float(x.item())))]), dim=1)


def check_commuting(
    f: Mapping,
    s: Mapping,
    us: np.ndarray,
    tol: float = 1e-9,
    k: NormKind = NormKind.L2,
) -> Optional[np.ndarray]:
    """The first row u of the (N, dim) block ``us`` with
    ||f(S(u)) - S(f(u))|| > tol * max(1, ||u||), or None.

    None means every row commutes.  The tolerance is relative at large scale,
    where an absolute gap means nothing.  A non-finite map value raises
    EvaluationError at its row unless an earlier row fails; no map is called
    on a non-finite value.
    """
    if f.dim != s.dim:
        raise InvalidInput(f"dimension mismatch: {f.dim} vs {s.dim}")
    if us.ndim != 2 or us.shape[1] != f.dim or not len(us) or not np.isfinite(us).all():
        raise InvalidInput(f"commuting check needs a finite (N, {f.dim}) block, N >= 1, "
                           f"got shape {us.shape}")
    su, fu = s.apply_batch(us), f.apply_batch(us)
    # n is the first row with a non-finite value, or N; the outer maps see the rows before it
    n = int(np.append(np.isfinite(np.hstack((su, fu))).all(axis=1), False).argmin())
    fsu, sfu = f.apply_batch(su[:n]), s.apply_batch(fu[:n])
    n = int(np.append(np.isfinite(np.hstack((fsu, sfu))).all(axis=1), False).argmin())
    miss = row_norms(fsu[:n] - sfu[:n], k) > tol * np.maximum(1.0, row_norms(us[:n], k))
    if miss.any():
        return us[int(miss.argmax())]
    if n < len(us):
        u = us[n]
        raise EvaluationError(f"mapping produced non-finite output at {tuple(u.tolist())}", u)
    return None
