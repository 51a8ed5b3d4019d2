"""Iteration engines with stopping rules, divergence detection, and traces.

Three schemes: direct successive approximation (Picard), the averaged scheme
u_n = (1-c) u_{n-1} + c f(u_{n-1}), whose map has the fixed points of f for
every c in (0, 1] and so also serves maps Picard cannot handle, and the pair
scheme S u_{n+1} = (1-c) S u_n + c f(u_n) which needs an explicit inverse of S
to advance (for affine S the inverse is the affine map of inv(A), built once).

Residuals are ||u_{n+1} - u_n|| in the configured norm; the pair scheme
instead tracks ||S u_{n+1} - S u_n||, the sequence its convergence argument
drives to zero.  The seed point is iterate 0 and carries no residual entry;
stopping is decided as if tested after each full iteration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Generator, Iterator, Optional

import numpy as np

from .errors import InvalidConfig, InvalidInput, InverseError
from .space import (
    Mapping,
    NormKind,
    Point,
    _WrongShape,
    array_norm,
    block_sizes,
    row_norms,
)

__all__ = [
    "Scheme",
    "Status",
    "SolverConfig",
    "IterationTrace",
    "PairProblem",
    "run_picard",
    "run_schaefer",
    "run_jungck_schaefer",
]

DELTA_C_SLACK = 1e-12
# the stop tests run once per block of steps: the first block is short, so a run
# that stops within a few steps computes few past its stop; later blocks double
# as ``block_sizes`` sets, up to _BLOCK_ROWS rows
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
            _check_delta(self.delta)
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
        _check_delta(delta)
        return cls(scheme=scheme, seed_point=seed_point, c=1.0 / (1.0 + delta),
                   delta=delta, **kw)


def _check_delta(delta: float) -> None:
    # written so NaN fails too; an infinite delta would make c = 0
    if not 0 <= delta < math.inf:
        raise InvalidConfig(f"delta must be non-negative and finite, got {delta}")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Full record of a run: iterates (seed first), residuals, and the stop reason.

    ``xs`` holds iterate n in row n as a read-only float64 array; ``Point``s
    are built only when ``last`` or ``limit()`` is read.
    """

    scheme: Scheme
    xs: np.ndarray
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
        return self.last if self.status is Status.CONVERGED else None

    @property
    def last(self) -> Point:
        return Point.from_array(self.xs[-1])

    def to_csv(self, include_coords: bool = True) -> str:
        """The whole CSV body as one string: ``_CsvWriter`` fed the stored rows, header first."""
        csv = _CsvWriter(self.xs[0], include_coords)
        body = csv.rows(self.xs[1:], np.array(self.residuals))
        return b"".join([csv.header, *body, csv.flush()]).decode("ascii")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# below this many numbers the vectorised formatter's fixed cost exceeds per-float _fmt
_KERNEL_MIN = 512


class _CsvWriter:
    """The trace CSV as ASCII byte blocks: iter, residual, then one column per coordinate.

    Every number is ``"%.17g" % x``: 17 significant digits, '.' decimal, no separators;
    iterate 0 has an empty residual field.  ``header`` is the header and the seed row.
    Rows are formatted in growing batches, however they arrive, reusing the formatter's
    slot array, so the writer holds one batch at any length.  Byte-stable.
    """

    def __init__(self, seed: np.ndarray, include_coords: bool):
        self._dim = len(seed) if include_coords else 0
        self.header = ("iter,residual" + "".join(f",x{i}" for i in range(self._dim)) + "\n0,"
                       + "".join(f",{_fmt(v)}" for v in seed[:self._dim].tolist()) + "\n").encode()
        # batches of up to about 4096 numbers, half block_sizes' cap: the formatter holds
        # about 180 bytes a number while it works, and smaller batches cost more a number
        self._sizes = block_sizes(_FIRST_BLOCK, 2 * (self._dim + 2))
        # [iter, residual, coords...] as floats: "%.17g" of an integer below 2**53 is its "%d"
        self._batch = np.empty((next(self._sizes), self._dim + 2))
        self._filled, self._iter, self._slots = 0, 1, np.empty((0, 0), np.uint8)

    def rows(self, xs: np.ndarray, residuals: np.ndarray) -> Iterator[bytes]:
        """Take the next rows and their residuals; yield each batch they fill."""
        while len(xs):
            m = min(len(xs), len(self._batch) - self._filled)
            part = self._batch[self._filled:self._filled + m]
            part[:, 0] = np.arange(self._iter, self._iter + m)
            part[:, 1], part[:, 2:] = residuals[:m], xs[:m, :self._dim]
            xs, residuals = xs[m:], residuals[m:]
            self._filled, self._iter = self._filled + m, self._iter + m
            if self._filled == len(self._batch):
                yield self.flush()
                self._batch = np.empty((next(self._sizes), self._dim + 2))

    def flush(self) -> bytes:
        """The rows taken since the last batch, formatted."""
        block, self._filled = self._batch[:self._filled], 0
        if block.size < _KERNEL_MIN:
            return "".join(",".join(map(_fmt, row)) + "\n"
                           for row in block.tolist()).encode("ascii")
        # imported on first use: importing enrichedfp neither compiles it nor builds its table
        from ._fmt17 import SLOTS, fmt_array
        if len(self._slots) < block.size:
            self._slots = np.empty((block.size, SLOTS), np.uint8)
        chars = fmt_array(block.ravel(), self._slots[:block.size]).reshape(*block.shape, SLOTS)
        chars[:, :, -1] = ord(",")
        chars[:, -1, -1] = ord("\n")
        return chars.tobytes().translate(None, b"\0")


def run_picard(f: Mapping, cfg: SolverConfig) -> IterationTrace:
    """Successive approximation u_{n+1} = f(u_n): the averaged scheme with c = 1.

    ``cfg.c`` is ignored.
    """
    return _collect(Scheme.PICARD, f, cfg)


def run_schaefer(f: Mapping, cfg: SolverConfig) -> IterationTrace:
    """Averaged iteration u_n = (1-c) u_{n-1} + c f(u_{n-1}): the pair scheme with S = I.

    With c = 1 the arithmetic reduces to f exactly, so the trace coincides
    with the Picard trace coordinate for coordinate.
    """
    return _collect(Scheme.SCHAEFER, f, cfg)


@dataclass(frozen=True, eq=False)
class PairProblem:
    """A commuting pair (f, S) together with an inverse of S.

    The pair scheme defines u_{n+1} only implicitly through S, so an explicit
    inverse, a ``Mapping`` of S's dimension, is required; for affine S x = A x + b
    it is built once as the affine map y -> inv(A) y - inv(A) b.
    """

    f: Mapping
    s: Mapping
    s_inverse: Optional[Mapping] = None
    # the pair checks' least relative tolerance: the rounding of S(S^{-1}(y))
    inverse_tol: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.f.dim != self.s.dim:
            raise InvalidInput(f"dimension mismatch: f {self.f.dim}, S {self.s.dim}")
        if self.s_inverse is not None:
            if self.s_inverse.dim != self.s.dim:
                raise InvalidInput(
                    f"dimension mismatch: S {self.s.dim}, s_inverse {self.s_inverse.dim}")
            return
        if not self.s.is_affine:
            raise InvalidInput("non-affine S needs an explicit s_inverse; none was supplied")
        a, b = self.s.matrix, self.s.offset
        # by rank, not det(a) == 0, which underflows for a well-conditioned
        # large S and misses a nearly singular small one
        if np.linalg.matrix_rank(a) < self.s.dim:
            raise InvalidInput("affine S is singular; cannot synthesize inverse")
        inv = np.linalg.inv(a)
        object.__setattr__(self, "s_inverse", Mapping.affine(inv, -(inv @ b)))
        # about eps * cond(A), here in the infinity norm: O(d^2), where an SVD costs O(d^3)
        cond = np.linalg.norm(a, np.inf) * np.linalg.norm(inv, np.inf)
        object.__setattr__(self, "inverse_tol", 1e-12 * cond)

    @property
    def dim(self) -> int:
        return self.f.dim

    def _first_unreachable(self, ys: np.ndarray, tol: float) -> tuple[int, Optional[Exception]]:
        """(i, error) for the first row y of ``ys`` that S(S^{-1}(y)) misses by more than
        tol * max(1, ||y||), or that raises; (len(ys), None) if none does.  A non-finite
        row passes, as in that comparison, and reaches no map.  With S and S^{-1} both
        affine the block is checked at once, which cannot raise; otherwise row by row.
        """
        if self.s.is_affine and self.s_inverse.is_affine:
            miss = np.isfinite(ys).all(axis=1)  # the finite rows are checked
            y = ys[miss]
            reach = self.s.apply_batch(self.s_inverse.apply_batch(y))
            miss[miss] = row_norms(reach - y) > tol * np.maximum(1.0, row_norms(y))
            return int(np.append(miss, True).argmax()), None
        for i, y in enumerate(ys):
            try:
                if np.isfinite(y).all():
                    p = self.s_inverse.apply(y)
                    # a non-affine S is not called on a non-finite preimage: it reproduces nothing
                    if not (self.s.is_affine or np.isfinite(p).all()) or (
                            array_norm(self.s.apply(p) - y) > tol * max(1.0, array_norm(y))):
                        return i, None
            except Exception as exc:
                return i, exc
        return len(ys), None


def run_jungck_schaefer(p: PairProblem, cfg: SolverConfig) -> IterationTrace:
    """Pair iteration: S u_{n+1} = (1-c) S u_n + c f(u_n), advanced via S^{-1}.

    The trace stores u_n; residual_n = ||S u_{n+1} - S u_n||.  Raises
    InverseError when S(S^{-1}(w)) fails to reproduce w within tolerance
    (relative at large scale, where absolute comparison is meaningless).
    With S = identity the arithmetic, and hence the trace, matches the
    averaged scheme exactly.
    """
    return _collect(Scheme.JUNGCK_SCHAEFER, p.f, cfg, p)


def _collect(scheme: Scheme, f: Mapping, cfg: SolverConfig,
             pair: Optional[PairProblem] = None) -> IterationTrace:
    """Run ``_iterate`` to its end, keeping every row: the full record."""
    run = _Run(_iterate(scheme, f, cfg, pair))
    blocks = [(xs.copy(), r) for xs, r in run]
    xs = np.concatenate([xs for xs, _ in blocks])
    xs.setflags(write=False)
    residuals = tuple(np.concatenate([r for _, r in blocks]).tolist())
    return IterationTrace(scheme, xs, residuals, run.status, run.diverged_at)


@dataclass
class _Run:
    """An ``_iterate`` generator's blocks; at their end it sets ``status`` and ``diverged_at``."""

    blocks: Generator[tuple[np.ndarray, np.ndarray], None, tuple]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        self.status, self.diverged_at = yield from self.blocks


def _iterate(
    scheme: Scheme, f: Mapping, cfg: SolverConfig, pair: Optional[PairProblem] = None
) -> Generator[tuple[np.ndarray, np.ndarray], None, tuple[Status, Optional[int]]]:
    """The one stepping loop: S u_{n+1} = (1-c) S u_n + c f(u_n), S = I without a pair.

    Yields (rows, residuals): the seed with no residual, then each block once its checks
    pass, as a view of one buffer the next block reuses; returns (status, diverged_at).
    Each step only computes, in place into that buffer.  The checks: a non-finite
    iterate (divergence; the run ends at the last finite one), with a pair the range
    check f(u_n) = S(S^{-1}(f(u_n))), the sampled stand-in for range inclusion of f in
    S, and S(S^{-1}(w)) = w, then the tol and divergence-bound stops.  The first in step
    order ends the run, as checks after every step would; an error raised at step n
    waits for them, then yields the rows before n and raises.  The map is pure, so
    steps computed past the end are dropped.  Only affine maps see a non-finite value.
    """
    if cfg.scheme is not scheme:
        raise InvalidConfig(f"config scheme is {cfg.scheme.value}, expected {scheme.value}")
    if cfg.seed_point.dim != f.dim:
        raise InvalidInput(
            f"seed point dimension {cfg.seed_point.dim} != map dimension {f.dim}"
        )
    c = 1.0 if scheme is Scheme.PICARD else cfg.c
    x = cfg.seed_point.as_array()
    # overflow is divergence; no warnings, and never across a yield, where the consumer runs
    with np.errstate(over="ignore", invalid="ignore"):
        sx = x if pair is None else pair.s.apply(x)
    yield x[None], np.empty(0)
    # steps that call a user's function check that they pass it finite values
    guard = not (f.is_affine and (pair is None or pair.s.is_affine and pair.s_inverse.is_affine))
    tol = cfg.tol if pair is None else max(cfg.tol, pair.inverse_tol)
    # row 0 carries the iterate before a block, rows 1..k hold its k steps; sxs holds S
    # of each row, xs itself without a pair.  Blocks only grow: a longer one takes new rows
    xs, sxs = x[None], sx[None]
    t = np.empty(f.dim)
    sizes = block_sizes(_FIRST_BLOCK, f.dim)
    a = 1
    while a <= cfg.max_iter:
        k = min(next(sizes), _BLOCK_ROWS, cfg.max_iter + 1 - a)
        if k >= len(xs):
            xs = np.concatenate((xs[:1], np.empty((k, f.dim))))
            sxs = xs if pair is None else np.concatenate((sxs[:1], np.empty_like(xs[1:])))
        x, sx, o = xs[0], sxs[0], a - 1  # iterate n is in row n - o
        with np.errstate(over="ignore", invalid="ignore"):
            # step n writes f(u_{n-1}) to fs and w = (1-c) S u_{n-1} + c f(u_{n-1}) to ws,
            # row n - a; without a pair w is the iterate.  A row f did not reach stays NaN
            fs = xs[1:k + 1] if pair is None and c == 1.0 else np.full((k, f.dim), np.nan)
            ws = xs[1:k + 1] if pair is None else fs if c == 1.0 else np.empty_like(fs)
            # steps a..end-1 are stored; an error at step end waits for their checks
            end, held = a + k, None
            try:
                for n, fx, w in zip(range(a, a + k), fs, ws):
                    f.apply_into(x, fx)
                    if c != 1.0:
                        np.multiply(sx, 1.0 - c, out=w)
                        np.multiply(fx, c, out=t)
                        np.add(w, t, out=w)
                    x = w if pair is None else xs[n - o]
                    if pair is not None:
                        # a non-finite w is not passed on: it stands for the iterate
                        if guard and not np.isfinite(w).all():
                            x[...] = w
                        else:
                            pair.s_inverse.apply_into(w, x)
                    if guard and not np.isfinite(x).all():
                        end = n + 1
                        break
                    sx = x if pair is None else sxs[n - o]
                    if pair is not None:
                        pair.s.apply_into(x, sx)
            except Exception as exc:
                if pair is None and isinstance(exc, _WrongShape):
                    exc = InvalidInput(f"iterate {n} has shape {exc.shape}, expected {x.shape}")
                end, held = n, exc
            # (step, rank, error), unique: within a step, events rank in the order it meets them
            events = [] if held is None else [(end, 3, held)]
            finite = np.isfinite(xs[1:end - o]).all(axis=1)
            if not finite.all():
                events.append((a + int(finite.argmin()), 4, None))
            if pair is not None:
                i, exc = pair._first_unreachable(fs[:end + 1 - a], tol)
                if a + i <= min(end, a + k - 1):
                    events.append((a + i, 2, exc or InverseError(
                        f"f(u_{a + i - 1}) is not reproducible in the range of S", a + i)))
                w = ws[:end - a]
                miss = row_norms(sxs[1:end - o] - w) > tol * np.maximum(1.0, row_norms(w))
                if miss.any():
                    n = a + int(miss.argmax())
                    events.append(
                        (n, 6, InverseError(f"S(s_inverse(w)) != w at iteration {n}", n)))
            r = row_norms(sxs[1:end - o] - sxs[:end - a], cfg.norm)
            stops = (r <= cfg.tol) | (row_norms(xs[1:end - o], cfg.norm) > cfg.divergence_bound)
            if stops.any():
                events.append((a + int(stops.argmax()), 7, None))
        if events:
            n, rank, exc = min(events)
            kept = n - a + (rank == 7)
            if kept:
                yield xs[1:kept + 1], r[:kept]
            if exc is not None:
                raise exc
            converged = rank == 7 and r[n - a] <= cfg.tol
            return (Status.CONVERGED, None) if converged else (Status.DIVERGED, n)
        yield xs[1:k + 1], r
        xs[0], sxs[0] = xs[k], sxs[k]
        a = end
    return Status.MAX_ITER_EXCEEDED, None
