"""Numerical certificate checkers for the four contraction classes.

The plain checks bound the perturbed displacement ||delta(u-v) + f(u) - f(v)||
by a five-coefficient weighted sum of point/image distances; the Jungck forms
route distances through a second map S that commutes with f.  The C-class
forms wrap both sides in a (psi, phi, G) bundle and compare
psi(lhs) <= G(psi(M), phi(M)) where M is the same weighted sum.

Certification samples pairs from a box: a deterministic structured set
(diagonal, coordinate axes, near-coincident pairs) followed by seeded uniform
pairs, so certificates reproduce exactly for a given seed and witness
selection is first-in-order.  Pairs are evaluated in row blocks whose rows
are bit-identical to a pair-by-pair evaluation, so the outcome, witness,
``pairs_checked`` and warnings equal those of a pair-by-pair scan.  Each
block is decided at once by one array expression, whose first failing row is
the witness; the C-class forms call psi, phi and G row by row on floats
before it.  A zero-weight term of M is skipped while no norm in the block
can overflow, since it then adds exactly +-0.0.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .cclass import (
    CClassTriple,
    Grid1D,
    Grid2D,
    ValidationReport,
    validate_altering,
    validate_cclass,
    validate_phiu,
)
from .errors import InvalidConfig, InvalidInput
from .space import Mapping, NormKind, Point, block_sizes, check_commuting, row_norms

__all__ = [
    "Coefficients",
    "Variant",
    "ContractionVariant",
    "PairSampler",
    "ContractionCertificate",
    "hr_sides",
    "jungck_sides",
    "pair_holds",
    "certify",
]

DEFAULT_TOL = 1e-9
EXACTLY_ONE_SLACK = 1e-12
# certify checks 64 pairs first, so an early violation costs one small block
_FIRST_CHUNK = 64
# near-coincident structured pairs sit this fraction of the box width apart
_NEAR = 1e-8
_FLOAT_MAX = np.finfo(float).max


@dataclass(frozen=True)
class Coefficients:
    """delta plus the five weights; the variant decides what they may sum to."""

    delta: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    c5: float = 0.0

    def __post_init__(self):
        cs = (self.c1, self.c2, self.c3, self.c4, self.c5)
        # an infinite or NaN coefficient makes every comparison meaningless
        if not np.isfinite((self.delta,) + cs).all():
            raise InvalidInput("delta and all weights must be finite")
        if self.delta < 0 or any(c < 0 for c in cs):
            raise InvalidInput("delta and all weights must be non-negative")


class Variant(enum.Enum):
    HARDY_ROGERS = "hardy-rogers"
    JUNGCK_HARDY_ROGERS = "jungck-hardy-rogers"
    CCLASS_HARDY_ROGERS = "cclass-hardy-rogers"
    CCLASS_JUNGCK_HARDY_ROGERS = "cclass-jungck-hardy-rogers"


_CCLASS_TAGS = {Variant.CCLASS_HARDY_ROGERS, Variant.CCLASS_JUNGCK_HARDY_ROGERS}
_JUNGCK_TAGS = {Variant.JUNGCK_HARDY_ROGERS, Variant.CCLASS_JUNGCK_HARDY_ROGERS}


@functools.cache
def _failed_component(triple: CClassTriple) -> Optional[ValidationReport]:
    """The first component report of ``triple`` that fails, or None.

    Triples are immutable, so each is validated once per process.
    """
    for report in (
        validate_altering(triple.psi, Grid1D()),
        validate_phiu(triple.phi, Grid1D()),
        validate_cclass(triple.g, Grid2D()),
    ):
        if not report.passed:
            return report
    return None


@dataclass(frozen=True, eq=False)
class ContractionVariant:
    """Which contraction class is being tested, plus its required companions.

    C-class tags must carry a triple whose component validators all pass;
    Jungck tags must carry the companion map S.
    """

    tag: Variant
    triple: Optional[CClassTriple] = None
    s_map: Optional[Mapping] = None

    def __post_init__(self):
        if self.tag in _CCLASS_TAGS:
            if self.triple is None:
                raise InvalidConfig(f"{self.tag.value} requires a (psi, phi, G) triple")
            report = _failed_component(self.triple)
            if report is not None:
                raise InvalidConfig(
                    f"triple component {report.subject!r} failed validation "
                    f"({report.axiom} at {report.witness})"
                )
        if self.tag in _JUNGCK_TAGS and self.s_map is None:
            raise InvalidConfig(f"{self.tag.value} requires the companion map S")

    @property
    def is_cclass(self) -> bool:
        return self.tag in _CCLASS_TAGS

    @property
    def is_jungck(self) -> bool:
        return self.tag in _JUNGCK_TAGS


def _sides(
    f: Mapping,
    s: Optional[Mapping],
    us: np.ndarray,
    vs: np.ndarray,
    coeffs: Coefficients,
    k: NormKind,
    triple: Optional[CClassTriple] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one inequality kernel: (lhs, rhs, M) for each row pair of (N, dim) blocks.

    Distances are taken through S; ``s=None`` stands for S = identity, which
    is the plain Hardy-Rogers form.  The plain forms (``triple=None``) compare
    lhs with rhs = M; the C-class forms compare psi(lhs) with G(psi(M), phi(M)),
    called row by row on floats.  Row i is bit-identical to the kernel on
    the one-row block of pair i.
    """
    if us.ndim != 2 or us.shape != vs.shape or us.shape[1] != f.dim:
        raise InvalidInput(
            f"dimension mismatch: map {f.dim}, points {us.shape[1:]} and {vs.shape[1:]}"
        )
    if s is not None and s.dim != f.dim:
        raise InvalidInput(f"dimension mismatch: f {f.dim}, S {s.dim}")
    # a block holds rows past the pair that decides a certificate, so overflow
    # there must not warn; non-finite sides reach the certificate as values
    with np.errstate(over="ignore", invalid="ignore"):
        fu, fv = f.apply_batch(us), f.apply_batch(vs)
        su, sv = (us, vs) if s is None else (s.apply_batch(us), s.apply_batch(vs))
        lhs = row_norms(coeffs.delta * (su - sv) + fu - fv, k)
        terms = [(coeffs.c1, su, sv), (coeffs.c2, su, fu), (coeffs.c3, su, fv),
                 (coeffs.c4, sv, fu), (coeffs.c5, sv, fv)]
        # a zero weight adds +-0.0, which leaves a sum with a nonzero weight in it
        # unchanged, but 0 * inf = nan on an overflowed norm; while every coordinate
        # is below this bound, no difference and no norm can overflow
        if all(np.abs(x).max(initial=0.0) < _FLOAT_MAX / (4 * f.dim) for x in (su, sv, fu, fv)):
            terms = [t for t in terms if t[0] != 0.0] or terms
        # summed left to right, as c1 * d1 + c2 * d2 + ... would be
        m = functools.reduce(operator.add, (c * row_norms(a - b, k) for c, a, b in terms))
    if triple is None:
        return lhs, m, m
    psi_lhs = np.fromiter(map(triple.psi, lhs.tolist()), float, len(lhs))
    rhs = np.fromiter((triple.g(triple.psi(b), triple.phi(b)) for b in m.tolist()), float, len(m))
    return psi_lhs, rhs, m


def _fails(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> np.ndarray:
    """The one decision expression: True at each row where lhs exceeds rhs, or either is NaN."""
    # tolerance is relative to the larger side, floored at absolute scale 1; as on
    # floats, a sum past the largest float is inf and, at tol = 0, 0 * inf is a
    # failing nan, both without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return ~(lhs <= rhs + tol * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0))


def hr_sides(
    f: Mapping,
    u: Point,
    v: Point,
    coeffs: Coefficients,
    k: NormKind = NormKind.L2,
) -> tuple[float, float]:
    """Left and right sides of the enriched Hardy-Rogers inequality at (u, v)."""
    return jungck_sides(f, None, u, v, coeffs, k)


def jungck_sides(
    f: Mapping,
    s: Optional[Mapping],
    u: Point,
    v: Point,
    coeffs: Coefficients,
    k: NormKind = NormKind.L2,
) -> tuple[float, float]:
    """Jungck-type sides: distances are taken through the companion map S.

    ``s=None`` stands for S = identity, which is hr_sides; an identity S gives
    the same sides exactly.
    """
    lhs, _, m = _sides(f, s, u.as_array()[None], v.as_array()[None], coeffs, k)
    return float(lhs[0]), float(m[0])


def pair_holds(
    variant: ContractionVariant,
    f: Mapping,
    u: Point,
    v: Point,
    coeffs: Coefficients,
    k: NormKind = NormKind.L2,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, float, float]:
    """Uniform per-pair check across all four variants: (holds, lhs, rhs)."""
    s = variant.s_map if variant.is_jungck else None
    triple = variant.triple if variant.is_cclass else None
    lhs, rhs, _ = _sides(f, s, u.as_array()[None], v.as_array()[None], coeffs, k, triple)
    return not _fails(lhs, rhs, tol)[0], float(lhs[0]), float(rhs[0])


@dataclass(frozen=True)
class PairSampler:
    """Deterministic (u, v) pairs from the box [lo, hi]^dim.

    Emits a structured prefix probing boundary geometry (diagonal pairs,
    coordinate axes, near-coincident pairs), then ``count`` seeded uniform
    pairs.  Random-only sampling misses the u ~ v degeneracy, hence the
    prefix.
    """

    dim: int
    lo: float = -10.0
    hi: float = 10.0
    count: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("sampler dimension must be positive")
        # the extreme coordinates sampled: lo, the midpoint and hi nudged by _NEAR;
        # tested first, so that a NaN bound is not reported as an empty box
        extremes = [self.lo, 0.5 * (self.lo + self.hi), self.hi + _NEAR * (self.hi - self.lo)]
        if not np.isfinite(extremes).all():
            raise InvalidInput(f"sampling box [{self.lo}, {self.hi}] yields non-finite points")
        if not self.lo < self.hi:
            raise InvalidInput(f"empty sampling box [{self.lo}, {self.hi}]")
        if self.count < 0:
            raise InvalidInput("negative pair count")
        if self.seed < 0:
            raise InvalidInput(f"negative sampler seed {self.seed}")

    def structured(self) -> list[tuple[np.ndarray, np.ndarray]]:
        lo, hi, d = self.lo, self.hi, self.dim
        mid = 0.5 * (lo + hi)
        ones = np.ones(d)
        zeros = np.zeros(d)
        pairs = [
            (lo * ones, hi * ones),
            (lo * ones, mid * ones),
            (mid * ones, hi * ones),
        ]
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            pairs.append((lo * e, hi * e))
            pairs.append((zeros, hi * e))
        eps = _NEAR * (hi - lo)
        for base in (zeros, mid * ones, hi * ones):
            shifted = base.copy()
            shifted[0] += eps
            pairs.append((base, shifted))
        return pairs

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every pair in sampler order, as (us, vs) row blocks of ``block_sizes`` rows:
        the structured prefix, then the uniform pairs.

        The uniform us are the first count * dim draws of PCG64(seed) and the vs
        the next count * dim, as if all us were drawn at once and then all vs.
        A second generator starts at the vs by ``advance``, so each block is
        drawn only when it is reached and memory does not grow with ``count``.
        """
        sizes = block_sizes(_FIRST_CHUNK, self.dim)
        pre = self.structured()
        us, vs = np.array([u for u, _ in pre]), np.array([v for _, v in pre])
        start = 0
        while start < len(us):
            rows = next(sizes)
            yield us[start:start + rows], vs[start:start + rows]
            start += rows
        ugen = np.random.Generator(np.random.PCG64(self.seed))
        vgen = np.random.Generator(np.random.PCG64(self.seed).advance(self.count * self.dim))
        left = self.count
        while left:
            rows = min(next(sizes), left)
            yield (ugen.uniform(self.lo, self.hi, size=(rows, self.dim)),
                   vgen.uniform(self.lo, self.hi, size=(rows, self.dim)))
            left -= rows

    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every pair in sampler order, one (u, v) per entry."""
        return [(u, v) for us, vs in self.blocks() for u, v in zip(us, vs)]


@dataclass(frozen=True)
class ContractionCertificate:
    """Outcome of a batch certification run, serializable for regression diffs."""

    variant: Variant
    coeffs: Coefficients
    norm: NormKind
    seed: int
    pairs_checked: int
    satisfied: bool
    witness_u: Optional[Point] = None
    witness_v: Optional[Point] = None
    witness_lhs: Optional[float] = None
    witness_rhs: Optional[float] = None
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "coefficients": {
                **dataclasses.asdict(self.coeffs),
                # the weight-sum rule certify applied, which the variant decides
                "sum_mode": "exactly-one" if self.variant in _CCLASS_TAGS
                else "strictly-less-one",
            },
            "norm": self.norm.value,
            "seed": self.seed,
            "pairs_checked": self.pairs_checked,
            "outcome": "satisfied" if self.satisfied else "violated",
            "witness": None
            if self.witness_u is None
            else {
                "u": list(self.witness_u.coords),
                "v": list(self.witness_v.coords),
                "lhs": _json_float(self.witness_lhs),
                "rhs": _json_float(self.witness_rhs),
            },
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)


def _json_float(x: float):
    """``x`` when finite, else the string "inf", "-inf" or "nan": JSON has no such numbers."""
    return x if np.isfinite(x) else str(x)


def certify(
    variant: ContractionVariant,
    f: Mapping,
    coeffs: Coefficients,
    sampler: PairSampler,
    k: NormKind = NormKind.L2,
    tol: float = DEFAULT_TOL,
) -> ContractionCertificate:
    """Batch-check the contraction inequality over all sampled pairs.

    Satisfied iff every pair holds; otherwise the first violation in sampler
    order becomes the witness and scanning stops.  Pairs are evaluated in
    chunks of rows, with the same outcome, witness, ``pairs_checked`` and
    warnings as a pair-by-pair scan.  Results are a pure function of
    (variant, f, coeffs, sampler, norm, tol).
    """
    # a NaN, negative or infinite tolerance decides every pair the same way
    if not 0.0 <= tol < np.inf:
        raise InvalidInput(f"tol must be finite and non-negative, got {tol}")
    total = sum((coeffs.c1, coeffs.c2, coeffs.c3, coeffs.c4, coeffs.c5))
    if variant.is_cclass and abs(total - 1.0) > EXACTLY_ONE_SLACK:
        raise InvalidInput(f"weights must sum to 1, got {total}")
    if not variant.is_cclass and not total < 1.0:
        raise InvalidInput(f"weights must sum below 1, got {total}")
    if sampler.dim != f.dim:
        raise InvalidInput(f"sampler dimension {sampler.dim} != map dimension {f.dim}")

    warnings = []
    if variant.is_cclass and coeffs.c3 != coeffs.c4:
        warnings.append("c3 != c4: outside the regime the convergence analysis assumes")
    if variant.is_cclass and coeffs.c2 == 0.0 and coeffs.c5 == 0.0:
        warnings.append("c2 = c5 = 0 under exactly-one mode: uniqueness bound degenerates")

    s = variant.s_map if variant.is_jungck else None
    if s is not None:
        # the u rows of the first 64 pairs, from a pass of their own over the first blocks
        heads = itertools.islice((u for us, _ in sampler.blocks() for u in us), 64)
        witness = check_commuting(f, s, np.array(list(heads)), tol)
        if witness is not None:
            raise InvalidConfig(
                f"companion map does not commute with f at {tuple(witness.tolist())}")

    triple = variant.triple if variant.is_cclass else None
    m_zero_seen = False
    # pairs checked, and (u, v, lhs, rhs) at the first violation, None if every pair holds
    checked, witness = 0, None
    for us, vs in sampler.blocks():
        # (first row, lhs, rhs, M) of each part: the block, or each of its rows; the
        # parts hold no rows, so that the last block is freed before the next is evaluated
        try:
            parts = [(0, *_sides(f, s, us, vs, coeffs, k, triple))]
        except Exception:
            # a map or a triple component may fail on some row; redo the block pair
            # by pair, so that the first violation or the first error, in pair order, decides
            parts = ((j, *_sides(f, s, us[j:j + 1], vs[j:j + 1], coeffs, k, triple))
                     for j in range(len(us)))
        for j, lhs, rhs, m in parts:
            # the first failing row, or len(lhs) when every row holds
            i = int(np.append(_fails(lhs, rhs, tol), True).argmax())
            if triple is not None and not m_zero_seen and (m[:i + 1] <= tol).any():
                m_zero_seen = True
                warnings.append("aggregate sum M = 0 encountered; G(psi(0), phi(0)) decides")
            checked += min(i + 1, len(lhs))
            if i < len(lhs):
                witness = (Point.from_array(us[j + i]), Point.from_array(vs[j + i]),
                           float(lhs[i]), float(rhs[i]))
                break
        if witness is not None:
            break
    return ContractionCertificate(variant.tag, coeffs, k, sampler.seed, checked, witness is None,
                                  *(witness or (None,) * 4), warnings=tuple(warnings))
