"""Numerical certificate checkers for the four contraction classes.

The plain checks bound the perturbed displacement ||delta(u-v) + f(u) - f(v)||
by a five-coefficient weighted sum of point/image distances; the Jungck forms
route distances through a second map S that commutes with f.  The C-class
forms wrap both sides in a (psi, phi, G) bundle and compare
psi(lhs) <= G(psi(M), phi(M)) where M is the same weighted sum.

Certification samples pairs from a box: a deterministic structured set
(diagonal, coordinate axes, near-coincident pairs) followed by seeded uniform
pairs, so certificates reproduce exactly for a given seed and witness
selection is first-in-order.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass
from typing import Optional

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
from .space import Mapping, NormKind, Point, array_norm, check_commuting

__all__ = [
    "SumMode",
    "Coefficients",
    "Variant",
    "ContractionVariant",
    "PairSampler",
    "ContractionCertificate",
    "hr_sides",
    "jungck_sides",
    "cclass_check_pair",
    "pair_holds",
    "certify",
]

DEFAULT_TOL = 1e-9
EXACTLY_ONE_SLACK = 1e-12


class SumMode(enum.Enum):
    STRICTLY_LESS_ONE = "strictly-less-one"
    EXACTLY_ONE = "exactly-one"


@dataclass(frozen=True)
class Coefficients:
    """delta plus the five weights, with the admissible-sum regime made explicit."""

    delta: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    c5: float = 0.0
    sum_mode: SumMode = SumMode.STRICTLY_LESS_ONE

    def __post_init__(self):
        cs = (self.c1, self.c2, self.c3, self.c4, self.c5)
        if self.delta < 0 or any(c < 0 for c in cs):
            raise InvalidInput("delta and all weights must be non-negative")
        total = sum(cs)
        if self.sum_mode is SumMode.STRICTLY_LESS_ONE and not total < 1.0:
            raise InvalidInput(f"weights must sum below 1, got {total}")
        if self.sum_mode is SumMode.EXACTLY_ONE and abs(total - 1.0) > EXACTLY_ONE_SLACK:
            raise InvalidInput(f"weights must sum to 1, got {total}")

    @property
    def csum(self) -> float:
        return self.c1 + self.c2 + self.c3 + self.c4 + self.c5

    @property
    def implied_c(self) -> float:
        """Averaging parameter 1 / (1 + delta) used by the matching solver runs."""
        return 1.0 / (1.0 + self.delta)


class Variant(enum.Enum):
    HARDY_ROGERS = "hardy-rogers"
    JUNGCK_HARDY_ROGERS = "jungck-hardy-rogers"
    CCLASS_HARDY_ROGERS = "cclass-hardy-rogers"
    CCLASS_JUNGCK_HARDY_ROGERS = "cclass-jungck-hardy-rogers"


_CCLASS_TAGS = {Variant.CCLASS_HARDY_ROGERS, Variant.CCLASS_JUNGCK_HARDY_ROGERS}
_JUNGCK_TAGS = {Variant.JUNGCK_HARDY_ROGERS, Variant.CCLASS_JUNGCK_HARDY_ROGERS}

_EXPECTED_MODE = {
    Variant.HARDY_ROGERS: SumMode.STRICTLY_LESS_ONE,
    Variant.JUNGCK_HARDY_ROGERS: SumMode.STRICTLY_LESS_ONE,
    Variant.CCLASS_HARDY_ROGERS: SumMode.EXACTLY_ONE,
    Variant.CCLASS_JUNGCK_HARDY_ROGERS: SumMode.EXACTLY_ONE,
}


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
    u: np.ndarray,
    v: np.ndarray,
    coeffs: Coefficients,
    k: NormKind,
) -> tuple[float, float]:
    """The one inequality kernel: (lhs, M) at raw (u, v), distances taken through S.

    ``s=None`` stands for S = identity, which is the plain Hardy-Rogers form.
    """
    if u.shape != (f.dim,) or v.shape != (f.dim,):
        raise InvalidInput(f"dimension mismatch: map {f.dim}, points {u.shape} and {v.shape}")
    if s is not None and s.dim != f.dim:
        raise InvalidInput(f"dimension mismatch: f {f.dim}, S {s.dim}")
    fu, fv = f.apply(u), f.apply(v)
    su, sv = (u, v) if s is None else (s.apply(u), s.apply(v))
    lhs = array_norm(coeffs.delta * (su - sv) + fu - fv, k)
    m = (
        coeffs.c1 * array_norm(su - sv, k)
        + coeffs.c2 * array_norm(su - fu, k)
        + coeffs.c3 * array_norm(su - fv, k)
        + coeffs.c4 * array_norm(sv - fu, k)
        + coeffs.c5 * array_norm(sv - fv, k)
    )
    return lhs, m


def hr_sides(
    f: Mapping,
    u: Point,
    v: Point,
    coeffs: Coefficients,
    k: NormKind = NormKind.L2,
) -> tuple[float, float]:
    """Left and right sides of the enriched Hardy-Rogers inequality at (u, v)."""
    return _sides(f, None, u.as_array(), v.as_array(), coeffs, k)


def jungck_sides(
    f: Mapping,
    s: Mapping,
    u: Point,
    v: Point,
    coeffs: Coefficients,
    k: NormKind = NormKind.L2,
) -> tuple[float, float]:
    """Jungck-type sides: distances are taken through the companion map S.

    With S = identity this reduces to hr_sides exactly.
    """
    return _sides(f, s, u.as_array(), v.as_array(), coeffs, k)


def _check_pair(
    variant: ContractionVariant,
    f: Mapping,
    u: Point,
    v: Point,
    coeffs: Coefficients,
    k: NormKind,
    tol: float,
) -> tuple[bool, float, float, float]:
    """(holds, lhs, rhs, M) at one pair, for any variant.

    The C-class forms compare psi(lhs) with G(psi(M), phi(M)); the plain
    forms compare lhs with M itself.
    """
    s = variant.s_map if variant.is_jungck else None
    lhs, m = _sides(f, s, u.as_array(), v.as_array(), coeffs, k)
    rhs = m
    if variant.is_cclass:
        triple = variant.triple
        lhs, rhs = triple.psi(lhs), triple.g(triple.psi(m), triple.phi(m))
    # tolerance is relative to the larger side, floored at absolute scale 1
    return lhs <= rhs + tol * max(abs(lhs), abs(rhs), 1.0), lhs, rhs, m


def cclass_check_pair(
    variant: ContractionVariant,
    f: Mapping,
    u: Point,
    v: Point,
    coeffs: Coefficients,
    k: NormKind = NormKind.L2,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, float, float]:
    """Evaluate the C-class inequality psi(lhs) <= G(psi(M), phi(M)) at one pair.

    M is the weighted sum from the matching plain inequality.  Returns
    (holds, psi(lhs), G(psi(M), phi(M))).
    """
    if not variant.is_cclass:
        raise InvalidConfig(f"{variant.tag.value} is not a C-class variant")
    return _check_pair(variant, f, u, v, coeffs, k, tol)[:3]


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
    return _check_pair(variant, f, u, v, coeffs, k, tol)[:3]


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
        if not self.lo < self.hi:
            raise InvalidInput(f"empty sampling box [{self.lo}, {self.hi}]")
        if self.count < 0:
            raise InvalidInput("negative pair count")

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
        eps = 1e-8 * (hi - lo)
        for base in (zeros, mid * ones, hi * ones):
            shifted = base.copy()
            shifted[0] += eps
            pairs.append((base, shifted))
        return pairs

    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(self.seed)
        us = rng.uniform(self.lo, self.hi, size=(self.count, self.dim))
        vs = rng.uniform(self.lo, self.hi, size=(self.count, self.dim))
        return self.structured() + [(us[i], vs[i]) for i in range(self.count)]


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
                "delta": self.coeffs.delta,
                "c1": self.coeffs.c1,
                "c2": self.coeffs.c2,
                "c3": self.coeffs.c3,
                "c4": self.coeffs.c4,
                "c5": self.coeffs.c5,
                "sum_mode": self.coeffs.sum_mode.value,
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
                "lhs": self.witness_lhs,
                "rhs": self.witness_rhs,
            },
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


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
    order becomes the witness and scanning stops.  Results are a pure
    function of (variant, f, coeffs, sampler, norm, tol).
    """
    expected_mode = _EXPECTED_MODE[variant.tag]
    if coeffs.sum_mode is not expected_mode:
        raise InvalidConfig(
            f"{variant.tag.value} expects sum mode {expected_mode.value}, "
            f"got {coeffs.sum_mode.value}"
        )
    if sampler.dim != f.dim:
        raise InvalidInput(f"sampler dimension {sampler.dim} != map dimension {f.dim}")

    warnings = []
    if variant.is_cclass and coeffs.c3 != coeffs.c4:
        warnings.append("c3 != c4: outside the regime the convergence analysis assumes")
    if coeffs.sum_mode is SumMode.EXACTLY_ONE and coeffs.c2 == 0.0 and coeffs.c5 == 0.0:
        warnings.append("c2 = c5 = 0 under exactly-one mode: uniqueness bound degenerates")

    pair_list = sampler.pairs()
    if variant.is_jungck:
        samples = [Point.from_array(ua) for ua, _ in pair_list[:64]]
        witness = check_commuting(f, variant.s_map, samples, tol).witness
        if witness is not None:
            raise InvalidConfig(f"companion map does not commute with f at {witness.coords}")

    m_zero_seen = False
    for idx, (ua, va) in enumerate(pair_list):
        u, v = Point.from_array(ua), Point.from_array(va)
        holds, lhs, rhs, m = _check_pair(variant, f, u, v, coeffs, k, tol)
        if variant.is_cclass and not m_zero_seen and m <= tol:
            m_zero_seen = True
            warnings.append("aggregate sum M = 0 encountered; G(psi(0), phi(0)) decides")
        if not holds:
            return ContractionCertificate(
                variant=variant.tag,
                coeffs=coeffs,
                norm=k,
                seed=sampler.seed,
                pairs_checked=idx + 1,
                satisfied=False,
                witness_u=u,
                witness_v=v,
                witness_lhs=lhs,
                witness_rhs=rhs,
                warnings=tuple(warnings),
            )
    return ContractionCertificate(
        variant=variant.tag,
        coeffs=coeffs,
        norm=k,
        seed=sampler.seed,
        pairs_checked=len(pair_list),
        satisfied=True,
        warnings=tuple(warnings),
    )

