import json
import math
import struct
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import contraction
from enrichedfp.cclass import get_triple
from enrichedfp.contraction import (
    Coefficients,
    ContractionVariant,
    PairSampler,
    Variant,
    certify,
    hr_sides,
    jungck_sides,
    pair_holds,
)
from enrichedfp.errors import InvalidConfig, InvalidInput
from enrichedfp.space import Mapping, Point


def _half():
    return Mapping.affine([[0.5]], [0.0])


def _doubling():
    return Mapping.affine([[2.0]], [0.0])


def _scaling(factor):
    return Mapping.affine([[factor]], [0.0])


class TestCoefficients:
    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            Coefficients(delta=-0.1)
        with pytest.raises(InvalidInput):
            Coefficients(c3=-1e-9)

    # the variant decides the weight-sum rule, and certify applies it
    def test_strict_mode_sum_bound(self):
        plain = ContractionVariant(Variant.HARDY_ROGERS)
        with pytest.raises(InvalidInput, match=r"^weights must sum below 1, got 1\.0$"):
            certify(plain, _half(), Coefficients(c1=0.5, c2=0.5), PairSampler(dim=1, count=8))
        certify(plain, _half(), Coefficients(c1=0.5, c2=0.49), PairSampler(dim=1, count=8))

    def test_exactly_one_mode(self):
        cclass = ContractionVariant(Variant.CCLASS_HARDY_ROGERS, triple=get_triple("identity-triple"))
        certify(cclass, _half(), Coefficients(c1=0.5, c2=0.5), PairSampler(dim=1, count=8))
        with pytest.raises(InvalidInput, match=r"^weights must sum to 1, got 0\.9999$"):
            certify(cclass, _half(), Coefficients(c1=0.5, c2=0.4999), PairSampler(dim=1, count=8))

    @pytest.mark.parametrize("tag", list(Variant))
    def test_weights_are_checked_before_any_pair_is_drawn(self, tag):
        class Unsampled(PairSampler):
            def blocks(self):
                raise AssertionError("a pair was drawn before the weights were checked")
        variant = ContractionVariant(tag, triple=get_triple("identity-triple"), s_map=_doubling())
        # each sum is the one the other kind of variant needs
        coeffs = Coefficients(c1=0.5) if variant.is_cclass else Coefficients(c1=0.5, c5=0.5)
        with pytest.raises(InvalidInput, match="^weights must sum"):
            certify(variant, _half(), coeffs, Unsampled(dim=1))


class TestHrSides:
    def test_half_map_arithmetic(self):
        lhs, rhs = hr_sides(_half(), Point.of(2.0), Point.of(0.0), Coefficients(c1=0.9))
        assert lhs == 1.0
        assert rhs == pytest.approx(1.8, rel=1e-15)

    def test_equal_points_collapse(self):
        co = Coefficients(c1=0.1, c2=0.2, c3=0.2, c4=0.2, c5=0.2)
        u = Point.of(3.0)
        lhs, rhs = hr_sides(_half(), u, u, co)
        gap = abs(3.0 - 1.5)
        assert lhs == 0.0
        assert rhs == pytest.approx((0.2 + 0.2 + 0.2 + 0.2) * gap, rel=1e-15)

    def test_identity_map_sides(self):
        co = Coefficients(delta=0.7, c1=0.3, c3=0.2, c4=0.2)
        u, v = Point.of(5.0), Point.of(1.0)
        lhs, rhs = hr_sides(Mapping.identity(1), u, v, co)
        assert lhs == pytest.approx((1 + 0.7) * 4.0, rel=1e-15)
        assert rhs == pytest.approx((0.3 + 0.2 + 0.2) * 4.0, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            hr_sides(_half(), Point.of(1.0, 2.0), Point.of(0.0, 0.0), Coefficients(c1=0.5))


class TestJungckSides:
    def test_identity_s_reduces_to_hr(self):
        rng = np.random.default_rng(11)
        f = Mapping.affine([[0.3, -0.1], [0.2, 0.4]], [1.0, -2.0])
        s = Mapping.identity(2)
        co = Coefficients(delta=0.5, c1=0.2, c2=0.1, c3=0.1, c4=0.1, c5=0.1)
        for _ in range(1000):
            u = Point.from_array(rng.uniform(-10, 10, 2))
            v = Point.from_array(rng.uniform(-10, 10, 2))
            plain = hr_sides(f, u, v, co)
            paired = jungck_sides(f, s, u, v, co)
            assert paired == plain  # identical arithmetic, bit for bit

    def test_scaling_pair_arithmetic(self):
        f, s = _half(), _scaling(2.0)
        lhs, rhs = jungck_sides(f, s, Point.of(1.0), Point.of(0.0), Coefficients(c1=0.5))
        assert lhs == 0.5
        assert rhs == 1.0

    def test_equal_points_zero_lhs(self):
        u = Point.of(4.0)
        lhs, _ = jungck_sides(_half(), _scaling(2.0), u, u, Coefficients(c1=0.5, delta=2.0))
        assert lhs == 0.0


class TestCClassPair:
    def test_derived_violation_with_monotone_triple(self):
        # psi(lhs) = sqrt(0.5) ~ 0.707 exceeds G(psi(1), phi(1)) = 1 - 1 = 0
        variant = ContractionVariant(
            Variant.CCLASS_HARDY_ROGERS, triple=get_triple("example-2.5-monotone")
        )
        co = Coefficients(c1=1.0)
        holds, lhs_psi, rhs_g = pair_holds(variant, _half(), Point.of(1.0), Point.of(0.0), co)
        assert not holds
        assert lhs_psi == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert rhs_g == pytest.approx(0.0, abs=1e-15)

    def test_fixed_point_diagonal_holds(self):
        # at u = v on a fixed point every distance vanishes; G(0, 0) = 0 decides
        variant = ContractionVariant(
            Variant.CCLASS_HARDY_ROGERS, triple=get_triple("identity-triple")
        )
        co = Coefficients(c2=0.5, c5=0.5)
        star = Point.of(0.0)  # fixed point of the half map
        holds, lhs_psi, rhs_g = pair_holds(variant, _half(), star, star, co)
        assert holds
        assert lhs_psi == 0.0 and rhs_g == 0.0

    def test_identity_triple_matches_algebra(self):
        # with psi = phi = id and G = s - t the condition is lhs <= M - M
        variant = ContractionVariant(
            Variant.CCLASS_HARDY_ROGERS, triple=get_triple("identity-triple")
        )
        co = Coefficients(c1=1.0)
        u, v = Point.of(3.0), Point.of(1.0)
        holds, lhs_psi, rhs_g = pair_holds(variant, _half(), u, v, co)
        lhs, m = hr_sides(_half(), u, v, co)
        assert lhs_psi == lhs
        assert rhs_g == 0.0  # psi(M) - phi(M) with both equal to M
        assert holds == (lhs <= 1e-9 * max(lhs, 1.0))
        assert not holds  # lhs = 1 here, strictly stronger than the plain form

    def test_domination_when_holds(self):
        # psi(lhs) <= G(psi(M), phi(M)) <= psi(M): the check is at least as strong
        triple = get_triple("example-2.5-monotone")
        variant = ContractionVariant(Variant.CCLASS_HARDY_ROGERS, triple=triple)
        co = Coefficients(c1=0.2, c2=0.2, c3=0.2, c4=0.2, c5=0.2)
        rng = np.random.default_rng(5)
        seen_holds = 0
        for _ in range(400):
            u = Point.of(float(rng.uniform(-5, 5)))
            v = Point.of(float(rng.uniform(-5, 5)))
            holds, lhs_psi, _ = pair_holds(variant, _half(), u, v, co)
            if holds:
                seen_holds += 1
                _, m = hr_sides(_half(), u, v, co)
                assert lhs_psi <= triple.psi(m) + 1e-9
        assert seen_holds > 0


class TestVariantValidation:
    def test_cclass_requires_triple(self):
        with pytest.raises(InvalidConfig):
            ContractionVariant(Variant.CCLASS_HARDY_ROGERS)

    def test_jungck_requires_s(self):
        with pytest.raises(InvalidConfig):
            ContractionVariant(Variant.JUNGCK_HARDY_ROGERS)

    def test_broken_triple_rejected(self):
        from enrichedfp.cclass import AlteringDistance, CClassTriple, CClassFunction, PhiU

        broken = CClassTriple(
            psi=AlteringDistance(lambda t: 1.0 + t, "shifted"),  # psi(0) != 0
            phi=PhiU(lambda t: t, "id"),
            g=CClassFunction(lambda s, t: s - t, "s-t"),
            name="broken",
        )
        with pytest.raises(InvalidConfig):
            ContractionVariant(Variant.CCLASS_HARDY_ROGERS, triple=broken)


class TestCertify:
    def test_half_map_satisfied(self):
        cert = certify(
            ContractionVariant(Variant.HARDY_ROGERS),
            _half(),
            Coefficients(c1=0.6),
            PairSampler(dim=1, lo=-10, hi=10),
        )
        assert cert.satisfied
        assert cert.pairs_checked >= 1000

    def test_doubling_violated_with_first_witness(self):
        sampler = PairSampler(dim=1, lo=-10, hi=10)
        co = Coefficients(c1=0.9)
        cert = certify(ContractionVariant(Variant.HARDY_ROGERS), _doubling(), co, sampler)
        assert not cert.satisfied
        assert cert.witness_lhs > cert.witness_rhs
        # recompute the first in-order violation independently
        for ua, va in sampler.pairs():
            u, v = Point.from_array(ua), Point.from_array(va)
            lhs, rhs = hr_sides(_doubling(), u, v, co)
            if lhs > rhs + 1e-9 * max(lhs, rhs, 1.0):
                assert cert.witness_u == u and cert.witness_v == v
                break

    def test_reflection_exact_cancellation(self):
        # delta = 1 makes the perturbed displacement vanish identically
        reflection = Mapping.affine([[-1.0]], [1.0])
        cert = certify(
            ContractionVariant(Variant.HARDY_ROGERS),
            reflection,
            Coefficients(delta=1.0, c1=0.5),
            PairSampler(dim=1, lo=-10, hi=10),
        )
        assert cert.satisfied

    def test_rerun_byte_identical(self):
        sampler = PairSampler(dim=1, lo=-10, hi=10, seed=12)
        co = Coefficients(c1=0.9)
        a = certify(ContractionVariant(Variant.HARDY_ROGERS), _doubling(), co, sampler)
        b = certify(ContractionVariant(Variant.HARDY_ROGERS), _doubling(), co, sampler)
        assert a.to_json() == b.to_json()
        json.loads(a.to_json())  # well-formed

    def test_mode_variant_mismatch(self):
        # weights that sum to 1, as a C-class variant needs, are refused by a plain one
        with pytest.raises(InvalidInput, match=r"^weights must sum below 1, got 1\.0$"):
            certify(
                ContractionVariant(Variant.HARDY_ROGERS),
                _half(),
                Coefficients(c1=1.0),
                PairSampler(dim=1),
            )

    def test_jungck_satisfied_and_commuting_enforced(self):
        s = _scaling(2.0)
        cert = certify(
            ContractionVariant(Variant.JUNGCK_HARDY_ROGERS, s_map=s),
            _half(),
            Coefficients(c1=0.5),
            PairSampler(dim=1, lo=-10, hi=10),
        )
        assert cert.satisfied

        shifted = Mapping.affine([[2.0]], [1.0])  # does not commute with x/2
        with pytest.raises(InvalidConfig, match=r"with f at \(-10\.0,\)$"):
            certify(
                ContractionVariant(Variant.JUNGCK_HARDY_ROGERS, s_map=shifted),
                _half(),
                Coefficients(c1=0.5),
                PairSampler(dim=1, lo=-10, hi=10),
            )

    def test_commuting_is_checked_past_the_structured_pairs(self):
        # S commutes with x/2 at the integers, where every structured u of [-10, 10]
        # lies, and nowhere else: the first uniform pair is the witness
        s = Mapping(fn=lambda x: 2.0 * x + (x != np.round(x)), dim=1)
        u = np.random.default_rng(0).uniform(-10, 10)
        with pytest.raises(InvalidConfig) as err:
            certify(ContractionVariant(Variant.JUNGCK_HARDY_ROGERS, s_map=s), _half(),
                    Coefficients(c1=0.5), PairSampler(dim=1, lo=-10, hi=10))
        assert str(err.value).endswith(f"with f at {(u,)}")

    def test_map_result_of_another_shape_is_invalid_input(self):
        # a (1,) result would broadcast across each 3-coordinate row of the block
        f = Mapping(fn=lambda x: np.array([0.1 * x.sum()]), dim=3)
        with pytest.raises(InvalidInput, match=r"mapping returned shape \(1,\), expected \(3,\)"):
            certify(ContractionVariant(Variant.HARDY_ROGERS), f, Coefficients(c1=0.5),
                    PairSampler(dim=3, count=16))

    def test_scale_covariance_of_affine_outcome(self):
        co = Coefficients(c1=0.9)
        for lam in (0.1, 3.0, 50.0):
            scaled = PairSampler(dim=1, lo=-10 * lam, hi=10 * lam)
            cert = certify(ContractionVariant(Variant.HARDY_ROGERS), _doubling(), co, scaled)
            assert not cert.satisfied
            good = certify(ContractionVariant(Variant.HARDY_ROGERS), _half(),
                           Coefficients(c1=0.6), scaled)
            assert good.satisfied

    def test_sides_scale_linearly_for_affine(self):
        # conjugating an affine map by x -> lam x scales both sides by lam
        a = np.array([[0.4, 0.1], [-0.2, 0.3]])
        b = np.array([1.0, 2.0])
        co = Coefficients(delta=0.25, c1=0.2, c2=0.2, c3=0.1, c4=0.1, c5=0.1)
        rng = np.random.default_rng(3)
        for lam in (0.5, 7.0):
            f = Mapping.affine(a, b)
            f_lam = Mapping.affine(a, lam * b)
            for _ in range(50):
                u, v = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
                lhs, rhs = hr_sides(f, Point.from_array(u), Point.from_array(v), co)
                lhs2, rhs2 = hr_sides(
                    f_lam, Point.from_array(lam * u), Point.from_array(lam * v), co
                )
                assert lhs2 == pytest.approx(lam * lhs, rel=1e-12, abs=1e-12)
                assert rhs2 == pytest.approx(lam * rhs, rel=1e-12, abs=1e-12)

    def test_warning_c3_ne_c4_for_cclass(self):
        cert = certify(
            ContractionVariant(
                Variant.CCLASS_HARDY_ROGERS, triple=get_triple("identity-triple")
            ),
            _half(),
            Coefficients(c1=0.2, c2=0.3, c3=0.1, c4=0.2, c5=0.2),
            PairSampler(dim=1, lo=-1, hi=1, count=8),
        )
        assert any("c3 != c4" in w for w in cert.warnings)

    def test_warning_degenerate_uniqueness_coefficients(self):
        cert = certify(
            ContractionVariant(
                Variant.CCLASS_HARDY_ROGERS, triple=get_triple("identity-triple")
            ),
            _half(),
            Coefficients(c1=0.5, c3=0.25, c4=0.25),
            PairSampler(dim=1, lo=-1, hi=1, count=8),
        )
        assert any("c2 = c5 = 0" in w for w in cert.warnings)

    def test_warning_m_zero_flagged(self):
        # weights only on u - f(u) terms with f = identity force M = 0 everywhere
        cert = certify(
            ContractionVariant(
                Variant.CCLASS_HARDY_ROGERS, triple=get_triple("identity-triple")
            ),
            Mapping.identity(1),
            Coefficients(c2=0.5, c5=0.5),
            PairSampler(dim=1, lo=-1, hi=1, count=8),
        )
        assert any("M = 0" in w for w in cert.warnings)
        assert not cert.satisfied  # lhs = |u - v| > 0 while the right side is 0


class TestPairSampler:
    def test_deterministic_and_sized(self):
        s = PairSampler(dim=2, lo=-1, hi=1, count=1024, seed=9)
        a, b = s.pairs(), s.pairs()
        assert len(a) >= 1000
        assert all(np.array_equal(x1, x2) and np.array_equal(y1, y2)
                   for (x1, y1), (x2, y2) in zip(a, b))

    def test_structured_prefix_probes_degeneracy(self):
        s = PairSampler(dim=3, lo=-2, hi=2, count=0)
        pairs = s.structured()
        # near-coincident pairs present
        assert any(0 < np.linalg.norm(u - v) < 1e-6 for u, v in pairs)

    def test_bad_box(self):
        with pytest.raises(InvalidInput):
            PairSampler(dim=1, lo=1.0, hi=1.0)


def test_pair_holds_uniform_api():
    ok, lhs, rhs = pair_holds(
        ContractionVariant(Variant.HARDY_ROGERS), _half(),
        Point.of(2.0), Point.of(0.0), Coefficients(c1=0.6),
    )
    assert ok and lhs == 1.0 and rhs == pytest.approx(1.2, rel=1e-15)


# the block decision against the scalar expression it replaced, row by row

_EDGES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
          2.2250738585072014e-308, 1.0, 1.0 + 1e-9, 1.7976931348623157e308]
sides = st.sampled_from(_EDGES) | st.floats(allow_nan=True, allow_infinity=True)


def _scalar_holds(lhs, m, tol):
    """The per-pair decision ``certify`` made on Python floats before it decided blocks."""
    return lhs <= m + tol * max(abs(lhs), abs(m), 1.0)


def _bits(x):
    return struct.pack("<d", x)


@dataclass(frozen=True)
class _CutSampler(PairSampler):
    """Zero pairs, cut into blocks of the given row counts."""

    cuts: tuple = ()

    def blocks(self):
        for rows in self.cuts:
            yield np.zeros((rows, 1)), np.zeros((rows, 1))


@settings(deadline=None)
@given(data=st.data(), cuts=st.lists(st.integers(1, 20), min_size=1, max_size=3),
       tol=st.sampled_from([0.0, 1e-9, 1.0]))
def test_block_decision_equals_the_scalar_decision(data, cuts, tol):
    blocks = [tuple(np.array(data.draw(st.lists(sides, min_size=n, max_size=n)))
                    for _ in "lm") for n in cuts]
    flat = [(l, m) for lhs, m in blocks for l, m in zip(lhs.tolist(), m.tolist())]
    first = next((i for i, (l, m) in enumerate(flat) if not _scalar_holds(l, m, tol)), None)
    # the kernel's (lhs, rhs, M) of a plain form, block by block
    feed = ((lhs, m, m) for lhs, m in blocks)
    with warnings.catch_warnings(), mock.patch.object(contraction, "_sides",
                                                      lambda *args: next(feed)):
        # an overflowing sum, or 0 * inf at tol = 0, must not warn: on floats neither does
        warnings.simplefilter("error")
        for lhs, m in blocks:
            assert contraction._fails(lhs, m, tol).tolist() == [
                not _scalar_holds(l, r, tol) for l, r in zip(lhs.tolist(), m.tolist())]
        cert = certify(ContractionVariant(Variant.HARDY_ROGERS), _half(), Coefficients(c1=0.5),
                       _CutSampler(dim=1, cuts=tuple(cuts)), tol=tol)
    if first is None:
        assert cert.satisfied and cert.pairs_checked == len(flat)
    else:
        assert not cert.satisfied and cert.pairs_checked == first + 1
        assert (_bits(cert.witness_lhs), _bits(cert.witness_rhs)) == tuple(map(_bits, flat[first]))
