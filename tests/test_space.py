import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp.errors import InvalidInput
from enrichedfp.space import (
    AveragedMap,
    Mapping,
    NormKind,
    Point,
    check_commuting,
    distance,
    norm,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_norm_pythagorean_triple():
    assert norm(Point.of(3.0, 4.0), NormKind.L2) == 5.0


def test_norm_zero_vector():
    assert norm(Point.of(0.0, 0.0), NormKind.L1) == 0.0


def test_norm_linf_max_abs():
    assert norm(Point.of(1.0, -2.0, 3.0), NormKind.LINF) == 3.0


def test_empty_point_rejected():
    with pytest.raises(InvalidInput):
        Point(())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_point_rejected(bad):
    with pytest.raises(InvalidInput):
        Point.of(1.0, bad)


def test_distance_examples():
    assert distance(Point.of(1.0, 1.0), Point.of(1.0, 1.0), NormKind.L2) == 0.0
    assert distance(Point.of(0.0, 0.0), Point.of(3.0, 4.0), NormKind.L2) == 5.0
    assert distance(Point.of(1.0, 0.0), Point.of(0.0, 1.0), NormKind.L1) == 2.0


def test_distance_dimension_mismatch():
    with pytest.raises(InvalidInput):
        distance(Point.of(1.0), Point.of(1.0, 2.0))


@pytest.mark.parametrize("offset,kind", list(enumerate(NormKind)))
def test_norm_axioms_on_seeded_batch(offset, kind):
    # absolute homogeneity and triangle inequality over >= 10^3 sampled pairs
    rng = np.random.default_rng(20240 + offset)
    for _ in range(1100):
        u = Point.from_array(rng.uniform(-50, 50, size=3))
        v = Point.from_array(rng.uniform(-50, 50, size=3))
        lam = float(rng.uniform(-3, 3))
        scaled = Point.from_array(lam * u.as_array())
        assert norm(scaled, kind) == pytest.approx(abs(lam) * norm(u, kind), rel=1e-12, abs=1e-12)
        s = Point.from_array(u.as_array() + v.as_array())
        assert norm(s, kind) <= norm(u, kind) + norm(v, kind) + 1e-9


@pytest.mark.parametrize("kind", list(NormKind))
@given(xs=st.lists(finite_floats, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_norm_nonnegative_and_zero_iff_zero(kind, xs):
    p = Point(tuple(xs))
    n = norm(p, kind)
    assert n >= 0.0
    if all(x == 0.0 for x in xs):
        assert n == 0.0
    if n == 0.0:
        assert all(x == 0.0 for x in xs)


def _reflection():
    return Mapping.from_scalar(lambda x: 1.0 - x, label="reflection")


def test_averaged_apply_reflection_half():
    m = AveragedMap(_reflection(), 0.5)
    assert m(Point.of(0.0)) == Point.of(0.5)


def test_averaged_apply_c1_collapses_to_base():
    f = Mapping.from_scalar(lambda x: math.cos(x) + 2.0)
    m = AveragedMap(f, 1.0)
    for x in (-1.3, 0.0, 2.7):
        assert m(Point.of(x)) == f(Point.of(x))


def test_averaged_apply_identity_base():
    m = AveragedMap(Mapping.identity(1), 0.37)
    assert m(Point.of(7.0)) == Point.of(7.0)


@pytest.mark.parametrize("c", [0.0, -0.1, 1.5])
def test_averaged_map_c_out_of_range(c):
    with pytest.raises(InvalidInput):
        AveragedMap(_reflection(), c)


def test_averaged_dimension_mismatch():
    m = AveragedMap(Mapping.identity(2), 0.5)
    with pytest.raises(InvalidInput):
        m(Point.of(1.0))


@given(
    x=finite_floats,
    c=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_fixed_point_sets_coincide(x, c):
    # f_c(u) - u = c (f(u) - u): either both vanish or neither does
    f = Mapping.from_scalar(lambda t: 0.5 * t + 1.0)
    m = AveragedMap(f, c)
    u = Point.of(x)
    base_gap = distance(f(u), u)
    avg_gap = distance(m(u), u)
    assert avg_gap == pytest.approx(c * base_gap, rel=1e-9, abs=1e-12)


def test_fixed_point_of_base_is_fixed_under_averaging():
    f = Mapping.from_scalar(lambda t: 1.0 - t)
    star = Point.of(0.5)
    assert f(star) == star
    for c in (0.1, 0.5, 1.0):
        assert AveragedMap(f, c)(star) == star


def test_averaged_is_affine_in_c():
    # c -> f_c(u) parametrizes the segment from u toward f(u)
    f = _reflection()
    u = Point.of(-2.0)
    fu = f(u).coords[0]
    for c in (0.25, 0.5, 0.75, 1.0):
        got = AveragedMap(f, c)(u).coords[0]
        assert got == pytest.approx((1 - c) * u.coords[0] + c * fu, rel=1e-15)
    a, b = AveragedMap(f, 0.2), AveragedMap(f, 0.8)
    mid = AveragedMap(f, 0.5)
    assert mid(u).coords[0] == pytest.approx(
        0.5 * (a(u).coords[0] + b(u).coords[0]), rel=1e-15
    )


def test_averaged_as_mapping_preserves_affinity():
    f = Mapping.affine([[2.0, 0.0], [0.0, -1.0]], [1.0, 3.0])
    m = AveragedMap(f, 0.25).as_mapping()
    assert m.is_affine
    p = Point.of(1.5, -2.0)
    direct = AveragedMap(f, 0.25)(p)
    assert np.allclose(m(p).as_array(), direct.as_array())


def test_affine_mapping_evaluates_exactly():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    b = np.array([0.5, -1.0])
    f = Mapping.affine(a, b)
    p = Point.of(2.0, -1.0)
    assert np.array_equal(f(p).as_array(), a @ p.as_array() + b)


def test_mapping_rejects_bad_affine_shapes():
    with pytest.raises(InvalidInput):
        Mapping.affine([[1.0, 0.0]], [0.0])


def test_commuting_scaling_pair():
    f = Mapping.from_scalar(lambda x: x / 2.0)
    s = Mapping.from_scalar(lambda x: 2.0 * x)
    samples = [Point.of(-1.0), Point.of(0.0), Point.of(3.0)]
    res = check_commuting(f, s, samples, tol=1e-12)
    assert res.commutes and res.witness is None


def test_commuting_violation_witness():
    f = Mapping.from_scalar(lambda x: x + 1.0)  # f(S(1)) = 3, S(f(1)) = 4
    s = Mapping.from_scalar(lambda x: 2.0 * x)
    res = check_commuting(f, s, [Point.of(1.0)], tol=1e-12)
    assert not res.commutes
    assert res.witness == Point.of(1.0)


def test_commuting_identity_pair():
    ident = Mapping.identity(3)
    res = check_commuting(ident, ident, [Point.of(1.0, 2.0, 3.0)], tol=0.0)
    assert res.commutes


def test_commuting_needs_samples():
    ident = Mapping.identity(1)
    with pytest.raises(InvalidInput):
        check_commuting(ident, ident, [], tol=1e-9)
