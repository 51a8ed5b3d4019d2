"""The block kernel against a pair-by-pair reference: equal bits, equal certificates.

``certify`` evaluates sampled pairs in row blocks.  These tests hold it to a
copy of the pair-by-pair scan it replaced: ``apply_batch`` and ``row_norms``
rows must equal ``apply`` and ``array_norm`` by ``np.array_equal``, and a
certificate's JSON must equal the reference's for all four variants,
including first violations on either side of a block edge.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp.cclass import get_triple
from enrichedfp.contraction import (
    Coefficients,
    ContractionCertificate,
    ContractionVariant,
    PairSampler,
    SumMode,
    Variant,
    certify,
)
from enrichedfp.errors import EvaluationError, InvalidConfig, InvalidInput
from enrichedfp.space import Mapping, NormKind, Point, array_norm, check_commuting, row_norms

entries = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
any_floats = st.floats(allow_nan=True, allow_infinity=True)


def _reference_sides(f, s, u, v, coeffs, k):
    """The pair-by-pair arithmetic the block kernel replaced."""
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


def reference_certify(variant, f, coeffs, sampler, k, tol=1e-9):
    """The pair-by-pair scan ``certify`` replaced, kept as the reference."""
    warnings = []
    if variant.is_cclass and coeffs.c3 != coeffs.c4:
        warnings.append("c3 != c4: outside the regime the convergence analysis assumes")
    if coeffs.sum_mode is SumMode.EXACTLY_ONE and coeffs.c2 == 0.0 and coeffs.c5 == 0.0:
        warnings.append("c2 = c5 = 0 under exactly-one mode: uniqueness bound degenerates")
    pair_list = sampler.pairs()
    s = variant.s_map if variant.is_jungck else None
    if s is not None:
        samples = [Point.from_array(ua) for ua, _ in pair_list[:64]]
        witness = check_commuting(f, s, samples, tol).witness
        if witness is not None:
            raise InvalidConfig(f"companion map does not commute with f at {witness.coords}")
    m_zero_seen = False
    for idx, (ua, va) in enumerate(pair_list):
        u, v = Point.from_array(ua), Point.from_array(va)
        lhs, m = _reference_sides(f, s, u.as_array(), v.as_array(), coeffs, k)
        rhs = m
        if variant.is_cclass:
            t = variant.triple
            lhs, rhs = t.psi(lhs), t.g(t.psi(m), t.phi(m))
        holds = lhs <= rhs + tol * max(abs(lhs), abs(rhs), 1.0)
        if variant.is_cclass and not m_zero_seen and m <= tol:
            m_zero_seen = True
            warnings.append("aggregate sum M = 0 encountered; G(psi(0), phi(0)) decides")
        if not holds:
            return ContractionCertificate(
                variant.tag, coeffs, k, sampler.seed, idx + 1, False,
                u, v, lhs, rhs, tuple(warnings),
            )
    return ContractionCertificate(
        variant.tag, coeffs, k, sampler.seed, len(pair_list), True, warnings=tuple(warnings)
    )


@st.composite
def affine_maps(draw, linear=False):
    dim = draw(st.integers(min_value=1, max_value=8))
    a = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
    b = np.zeros(dim) if linear else np.array(
        draw(st.lists(entries, min_size=dim, max_size=dim)))
    return Mapping.affine(a.reshape(dim, dim), b)


def _assert_rows_match(f, xs):
    ys = f.apply_batch(xs)
    assert ys.shape == xs.shape
    for x, y in zip(xs, ys):
        assert np.array_equal(y, f.apply(x))


def _assert_norms_match(block):
    for k in NormKind:
        norms = row_norms(block, k)
        assert norms.shape == (len(block),)
        for row, got in zip(block, norms):
            assert np.array_equal(got, array_norm(row, k), equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), f=affine_maps())
def test_apply_batch_rows_equal_apply(data, f):
    n = data.draw(st.integers(min_value=0, max_value=40))
    rows = data.draw(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=f.dim, max_size=f.dim),
                              min_size=n, max_size=n))
    _assert_rows_match(f, np.array(rows, dtype=float).reshape(n, f.dim))


def test_apply_batch_rows_equal_apply_non_affine_and_100d():
    rng = np.random.default_rng(3)
    _assert_rows_match(Mapping(fn=np.sin, dim=3), rng.normal(size=(50, 3)))
    f = Mapping.affine(rng.normal(size=(100, 100)), rng.normal(size=100))
    _assert_rows_match(f, rng.uniform(-10.0, 10.0, size=(300, 100)))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=st.integers(min_value=1, max_value=8))
def test_row_norms_equal_array_norm(data, dim):
    n = data.draw(st.integers(min_value=0, max_value=20))
    rows = data.draw(st.lists(st.lists(any_floats, min_size=dim, max_size=dim),
                              min_size=n, max_size=n))
    _assert_norms_match(np.array(rows, dtype=float).reshape(n, dim))


# numpy sums in pairwise blocks of 128 elements, so 129 and 200 coordinates cross one
@pytest.mark.parametrize("dim", [100, 129, 200])
def test_row_norms_equal_array_norm_100d(dim):
    rng = np.random.default_rng(4)
    block = rng.normal(size=(64, dim)) * 10.0 ** rng.integers(-310, 300, size=(64, 1))
    block[0] = 0.0
    block[1, 7] = np.inf
    block[2, 9] = np.nan
    _assert_norms_match(block)


def test_pairs_are_the_structured_prefix_then_the_uniform_pairs():
    sampler = PairSampler(dim=3, count=50, seed=9)
    rng = np.random.default_rng(9)
    us = rng.uniform(-10.0, 10.0, size=(50, 3))
    vs = rng.uniform(-10.0, 10.0, size=(50, 3))
    expected = sampler.structured() + list(zip(us, vs))
    got = sampler.pairs()
    assert len(got) == len(expected)
    for (u, v), (eu, ev) in zip(got, expected):
        assert np.array_equal(u, eu) and np.array_equal(v, ev)


@pytest.mark.parametrize("box", [(0.0, 1.7976931348623157e308), (1e308, 1.7e308)])
def test_sampler_rejects_box_with_non_finite_points(box):
    # the near-coincident shift past hi, or the midpoint, would overflow
    with pytest.raises(InvalidInput):
        PairSampler(dim=1, lo=box[0], hi=box[1])


_TRIPLE = get_triple("example-2.5-monotone")


def _variant(tag, f):
    triple = _TRIPLE if tag in (
        Variant.CCLASS_HARDY_ROGERS, Variant.CCLASS_JUNGCK_HARDY_ROGERS) else None
    s_map = Mapping.affine(2.0 * np.eye(f.dim), np.zeros(f.dim)) if tag in (
        Variant.JUNGCK_HARDY_ROGERS, Variant.CCLASS_JUNGCK_HARDY_ROGERS) else None
    return ContractionVariant(tag, triple=triple, s_map=s_map)


def _coeffs(tag, cs, delta):
    if tag in (Variant.CCLASS_HARDY_ROGERS, Variant.CCLASS_JUNGCK_HARDY_ROGERS):
        return Coefficients(delta=delta, c1=1.0 - cs[1] - 2 * cs[2] - cs[3], c2=cs[1], c3=cs[2],
                            c4=cs[2], c5=cs[3], sum_mode=SumMode.EXACTLY_ONE)
    return Coefficients(delta=delta, c1=cs[0], c2=cs[1], c3=cs[2], c4=cs[3], c5=cs[4])


def _same_certificate(variant, f, coeffs, sampler, k, tol=1e-9):
    cert = certify(variant, f, coeffs, sampler, k, tol)
    assert cert.to_json() == reference_certify(variant, f, coeffs, sampler, k, tol).to_json()
    return cert


@settings(max_examples=120, deadline=None)
@given(
    f=affine_maps(linear=True),
    tag=st.sampled_from(Variant),
    cs=st.lists(st.floats(min_value=0.0, max_value=0.19), min_size=5, max_size=5),
    delta=st.floats(min_value=0.0, max_value=3.0),
    count=st.integers(min_value=0, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32),
    k=st.sampled_from(NormKind),
    tol=st.sampled_from([0.0, 1e-9, 0.5]),
)
def test_certificate_equals_pair_by_pair_reference(f, tag, cs, delta, count, seed, k, tol):
    sampler = PairSampler(dim=f.dim, lo=-3.0, hi=3.0, count=count, seed=seed)
    _same_certificate(_variant(tag, f), f, _coeffs(tag, cs, delta), sampler, k, tol)


@dataclass(frozen=True)
class PlantedSampler(PairSampler):
    """Pairs (x, x), which hold, except pair ``bad`` (1-based), which has u != v.

    The first ``split`` pairs form the first block, the rest the second.
    """

    bad: int = 1
    split: int = 0

    def blocks(self):
        rng = np.random.default_rng(self.seed)
        us = rng.uniform(self.lo, self.hi, size=(self.count, self.dim))
        vs = us.copy()
        vs[self.bad - 1] += 1.0
        return (us[:self.split], vs[:self.split]), (us[self.split:], vs[self.split:])


def _expanding(dim, seed):
    # 3I plus a small perturbation stretches every difference by more than 2
    rng = np.random.default_rng(seed)
    return Mapping.affine(3.0 * np.eye(dim) + rng.uniform(-0.1, 0.1, (dim, dim)), np.zeros(dim))


@pytest.mark.parametrize("tag", list(Variant))
@pytest.mark.parametrize("dim", [1, 4, 100])
@pytest.mark.parametrize("bad", [63, 64, 65, 192])
@pytest.mark.parametrize("split", ["none", "before", "at"])
def test_first_violation_on_either_side_of_a_block_edge(tag, dim, bad, split):
    f = _expanding(dim, seed=bad)
    split_at = {"none": 0, "before": bad - 1, "at": bad}[split]
    sampler = PlantedSampler(dim=dim, count=300, seed=dim, bad=bad, split=split_at)
    for k in NormKind:
        cert = _same_certificate(_variant(tag, f), f, _coeffs(tag, [0.5, 0, 0, 0, 0], 0.0),
                                 sampler, k)
        assert (cert.satisfied, cert.pairs_checked) == (False, bad)


def _fails_at(bad_x):
    def fn(x):
        if x[0] == bad_x:
            raise EvaluationError(f"map fails at {x[0]}", Point.of(x[0]))
        return 3.0 * x
    return Mapping(fn=fn, dim=1)


# (first violation, first failing pair); pairs 9-136 form one block
@pytest.mark.parametrize("violation, error", [(70, 100), (5, 10), (10, 5), (100, 70)])
def test_map_that_raises_in_a_block_gives_the_reference_outcome(violation, error):
    sampler = PlantedSampler(dim=1, count=200, seed=1, bad=violation, split=8)
    f = _fails_at(sampler.pairs()[error - 1][0][0])
    variant, coeffs = ContractionVariant(Variant.HARDY_ROGERS), Coefficients(c1=0.5)
    if violation < error:
        cert = _same_certificate(variant, f, coeffs, sampler, NormKind.L2)
        assert cert.pairs_checked == violation
    else:
        for run in (certify, reference_certify):
            with pytest.raises(EvaluationError):
                run(variant, f, coeffs, sampler, NormKind.L2)
