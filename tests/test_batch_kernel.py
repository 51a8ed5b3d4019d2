"""The block kernel against a pair-by-pair reference: equal bits, equal certificates.

``certify`` evaluates sampled pairs in row blocks.  These tests hold it to a
copy of the pair-by-pair scan it replaced: ``apply_batch`` and ``row_norms``
rows must equal ``apply`` and ``array_norm`` by ``np.array_equal``, and a
certificate's JSON must equal the reference's for all four variants,
including first violations on either side of a block edge.
"""

import itertools
import math
import json
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import contraction
from enrichedfp.cclass import (
    AlteringDistance,
    CClassFunction,
    CClassTriple,
    PhiU,
    get_triple,
)
from enrichedfp.contraction import (
    Coefficients,
    ContractionCertificate,
    ContractionVariant,
    PairSampler,
    Variant,
    certify,
)
from enrichedfp.errors import EvaluationError, InvalidConfig, InvalidInput
from enrichedfp.space import (
    Mapping,
    NormKind,
    Point,
    array_norm,
    block_sizes,
    check_commuting,
    row_norms,
)

entries = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
any_floats = st.floats(allow_nan=True, allow_infinity=True)


def _examples(n):
    """``n`` examples under the default profile, scaled with the loaded profile's budget."""
    return n * settings.default.max_examples // 100


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
    if variant.is_cclass and coeffs.c2 == 0.0 and coeffs.c5 == 0.0:
        warnings.append("c2 = c5 = 0 under exactly-one mode: uniqueness bound degenerates")
    pair_list = sampler.pairs()
    s = variant.s_map if variant.is_jungck else None
    if s is not None:
        witness = check_commuting(f, s, np.array([ua for ua, _ in pair_list[:64]]), tol)
        if witness is not None:
            raise InvalidConfig(
                f"companion map does not commute with f at {tuple(witness.tolist())}")
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


@settings(max_examples=_examples(80), deadline=None)
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


@settings(max_examples=_examples(80), deadline=None)
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


@settings(max_examples=_examples(80), deadline=None)
@given(
    count=st.integers(min_value=0, max_value=300),
    dim=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**64),
    cuts=st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=6),
)
def test_lazy_blocks_equal_the_one_shot_draw(count, dim, seed, cuts):
    # whatever the block cut points, the blocks hold the structured prefix and
    # then every u drawn at once and every v after them, bit for bit
    sampler = PairSampler(dim=dim, lo=-3.0, hi=5.0, count=count, seed=seed)
    with mock.patch.object(contraction, "block_sizes", lambda first, d: itertools.cycle(cuts)):
        blocks = list(sampler.blocks())
    pre = sampler.structured()
    rng = np.random.default_rng(seed)
    us = np.concatenate(([u for u, _ in pre], rng.uniform(-3.0, 5.0, size=(count, dim))))
    vs = np.concatenate(([v for _, v in pre], rng.uniform(-3.0, 5.0, size=(count, dim))))
    sizes, cut = [], itertools.cycle(cuts)
    for left in (len(pre), count):
        while left:
            sizes.append(min(next(cut), left))
            left -= sizes[-1]
    assert [len(u) for u, _ in blocks] == [len(v) for _, v in blocks] == sizes
    assert np.array_equal(np.concatenate([u for u, _ in blocks]), us)
    assert np.array_equal(np.concatenate([v for _, v in blocks]), vs)


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
                            c4=cs[2], c5=cs[3])
    return Coefficients(delta=delta, c1=cs[0], c2=cs[1], c3=cs[2], c4=cs[3], c5=cs[4])


def _same_certificate(variant, f, coeffs, sampler, k, tol=1e-9):
    try:
        want = reference_certify(variant, f, coeffs, sampler, k, tol).to_json()
    except InvalidConfig as exc:
        # S does not commute with f on the sampled points (at tol = 0, a subnormal
        # rounding suffices): certify must refuse with the same witness
        with pytest.raises(InvalidConfig) as err:
            certify(variant, f, coeffs, sampler, k, tol)
        assert str(err.value) == str(exc)
        return None
    cert = certify(variant, f, coeffs, sampler, k, tol)
    assert cert.to_json() == want
    return cert


@settings(max_examples=_examples(120), deadline=None)
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


# a zero weight, or a weight that is not; -0.0 is a zero weight too
weights = st.sampled_from([0.0, -0.0]) | st.floats(min_value=0.0, max_value=0.19)


@settings(max_examples=_examples(120), deadline=None)
@given(
    g=affine_maps(linear=True),
    scale=st.sampled_from([1.0, 20.0, 1e10]),
    tag=st.sampled_from(Variant),
    cs=st.lists(weights, min_size=5, max_size=5),
    delta=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=3.0),
    hi=st.sampled_from([3.0, 1e300, 1e306, 4e306, 1e307]),
    signed=st.booleans(),
    count=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32),
    k=st.sampled_from(NormKind),
    tol=st.sampled_from([0.0, 1e-9, 0.5]),
)
def test_zero_weights_and_huge_boxes_equal_the_reference(
        g, scale, tag, cs, delta, hi, signed, count, seed, k, tol):
    # zero-weight terms are skipped only while no norm can overflow; in boxes up to
    # 1e307, a map scaled by 20 or 1e10 overflows, and a skipped 0 * inf would hide a nan
    f = Mapping.affine(scale * g.matrix, g.offset)
    sampler = PairSampler(dim=f.dim, lo=-hi if signed else 0.0, hi=hi, count=count, seed=seed)
    variant, coeffs = _variant(tag, f), _coeffs(tag, cs, delta)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = reference_certify(variant, f, coeffs, sampler, k, tol).to_json()
        except (EvaluationError, InvalidConfig) as exc:
            # a triple component or the commuting check meets a non-finite value
            with pytest.raises(type(exc)) as err:
                certify(variant, f, coeffs, sampler, k, tol)
            assert str(err.value) == str(exc)
            return
    assert certify(variant, f, coeffs, sampler, k, tol).to_json() == want


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("cs", [(0.5, 0, 0, 0, 0), (0, 0.4, 0, 0, 0.4)], ids=["c1", "c2-c5"])
@pytest.mark.parametrize("hi", [1e300, 1e307])
def test_zero_weight_on_an_overflowed_norm_equals_the_reference(dim, cs, hi):
    # 20 v overflows at v = 1e307 in pair 1, so every term holding f(v) is inf and,
    # at a zero weight, nan; at 1e300 nothing overflows and the zero terms are skipped
    f = Mapping.affine(20.0 * np.eye(dim), np.zeros(dim))
    sampler = PairSampler(dim=dim, lo=0.0, hi=hi, count=50)
    variant, coeffs = ContractionVariant(Variant.HARDY_ROGERS), Coefficients(0.0, *cs)
    for k in NormKind:
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_certify(variant, f, coeffs, sampler, k).to_json()
        assert certify(variant, f, coeffs, sampler, k).to_json() == want
        rhs = json.loads(want)["witness"]["rhs"]
        assert (rhs == "nan") if hi == 1e307 else (0.0 < rhs < np.inf)


@dataclass(frozen=True)
class PlantedSampler(PairSampler):
    """Pairs (x, x), which hold, except pair ``bad`` (1-based), which has u != v,
    and pair ``far``, if any, whose v lies 1e7 away.

    The first ``split`` pairs and the rest are each cut into blocks on the
    sampler's schedule, so blocks end at ``split`` and at the schedule's edges.
    """

    bad: int = 1
    split: int = 0
    far: int = 0

    def blocks(self):
        rng = np.random.default_rng(self.seed)
        us = rng.uniform(self.lo, self.hi, size=(self.count, self.dim))
        vs = us.copy()
        vs[self.bad - 1] += 1.0
        if self.far:
            vs[self.far - 1] += 1e7
        sizes = block_sizes(contraction._FIRST_CHUNK, self.dim)
        for start, stop in ((0, self.split), (self.split, self.count)):
            while start < stop:
                end = min(start + next(sizes), stop)
                yield us[start:end], vs[start:end]
                start = end


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


# psi overflows past 1e6, which the triple's validation grid, [0, 10], never reaches
_CAPPED_PSI = CClassTriple(
    psi=AlteringDistance(lambda t: t if t < 1e6 else math.inf, "capped"),
    phi=PhiU(lambda t: t, "identity"),
    g=CClassFunction(lambda s, t: s - t, "s-t"),
)


@pytest.mark.parametrize("violation, error", [(70, 100), (5, 10), (10, 5), (100, 70)])
def test_triple_that_fails_in_a_block_gives_the_reference_outcome(violation, error):
    # psi meets lhs = 3e7 at pair ``error``; the C-class forms evaluate psi over a
    # whole block, so an error past the first violation must not be raised
    sampler = PlantedSampler(dim=1, count=200, seed=1, bad=violation, split=8, far=error)
    f = Mapping.affine([[3.0]], [0.0])
    variant = ContractionVariant(Variant.CCLASS_HARDY_ROGERS, triple=_CAPPED_PSI)
    coeffs = Coefficients(c1=1.0)
    if violation < error:
        cert = _same_certificate(variant, f, coeffs, sampler, NormKind.L2)
        assert cert.pairs_checked == violation
    else:
        messages = []
        for run in (certify, reference_certify):
            with pytest.raises(EvaluationError) as err:
                run(variant, f, coeffs, sampler, NormKind.L2)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


# the solver's in-place kernels against the expressions they replaced: equal bits

# signed zeros, subnormals and the largest magnitudes, where a reordering would show
edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1e308, -1e308]) | st.floats(-1e6, 1e6)


def _same_bits(got, want):
    """Equal bit for bit, except that any NaN equals any NaN."""
    both_nan = np.isnan(got) & np.isnan(want)
    return got.shape == want.shape and np.array_equal(
        np.where(both_nan, 0, got.view(np.uint64)), np.where(both_nan, 0, want.view(np.uint64)))


def _array(data, shape):
    n = int(np.prod(shape))
    return np.array(data.draw(st.lists(edge_floats, min_size=n, max_size=n))).reshape(shape)


@settings(max_examples=_examples(150), deadline=None)
@given(data=st.data(), dim=st.integers(min_value=1, max_value=8))
def test_apply_into_equals_apply(data, dim):
    f = Mapping.affine(_array(data, (dim, dim)), _array(data, (dim,)))
    x = _array(data, (dim,))
    out = np.full(dim, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        f.apply_into(x, out)
        assert _same_bits(out, f.apply(x))


def test_apply_into_equals_apply_200d_and_non_affine():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(200, 200)) * 10.0 ** rng.integers(-300, 300, size=(200, 1))
    a[3, :7] = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.0, 2.2250738585072014e-308]
    f = Mapping.affine(a, rng.normal(size=200))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in rng.normal(size=(20, 200)) * 10.0 ** rng.integers(-10, 10, size=(20, 1)):
            out = np.empty(200)
            f.apply_into(x, out)
            assert _same_bits(out, f.apply(x))
    g = Mapping(fn=np.sin, dim=3)
    out = np.empty(3)
    g.apply_into(np.array([1.0, -0.0, 3.0]), out)
    assert _same_bits(out, g.apply(np.array([1.0, -0.0, 3.0])))


@pytest.mark.parametrize("shape", [(1,), (3, 1), (2,)])
def test_apply_into_refuses_a_result_of_another_shape(shape):
    out = np.zeros(3)
    with pytest.raises(InvalidInput, match=r"mapping returned shape"):
        Mapping(fn=lambda x: np.ones(shape), dim=3).apply_into(np.zeros(3), out)
    assert not out.any()


@settings(max_examples=_examples(150), deadline=None)
@given(data=st.data(), dim=st.integers(min_value=1, max_value=8),
       c=st.sampled_from([1.0, 0.5, 0.001, 1e-300]) | st.floats(min_value=1e-9, max_value=1.0))
def test_in_place_average_equals_the_expression(data, dim, c):
    from enrichedfp.solver import Scheme, SolverConfig, Status, run_schaefer

    sx, fx = _array(data, (dim,)), _array(data, (dim,))
    # a constant map, so that step 1 is (1 - c) * u_0 + c * fx; at c = 1 it is fx itself,
    # which differs from the expression in the sign of a zero
    f = Mapping(fn=lambda x: fx, dim=dim)
    cfg = SolverConfig(Scheme.SCHAEFER, Point(tuple(sx)), c=c, max_iter=1,
                       divergence_bound=np.inf, tol=5e-324)
    trace = run_schaefer(f, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        want = fx if c == 1.0 else (1.0 - c) * sx + c * fx
    if np.isfinite(want).all():
        assert _same_bits(trace.xs[1], want)
    else:
        assert trace.status is Status.DIVERGED and len(trace.xs) == 1
