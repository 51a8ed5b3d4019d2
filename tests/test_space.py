import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp.errors import InvalidInput
from enrichedfp.space import (
    Mapping,
    NormKind,
    Point,
    block_sizes,
    check_commuting,
    distance,
    norm,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@pytest.mark.parametrize("first,dim,expected", [
    (64, 1, [64, 128, 256, 512, 1024, 2048, 4096, 8192, 8192]),
    (8, 100, [8, 16, 32, 64, 81, 81]),
    (64, 1000, [8, 8, 8]),
    (8, 10_000, [1, 1]),
])
def test_block_sizes_double_up_to_the_float_cap(first, dim, expected):
    sizes = block_sizes(first, dim)
    assert [next(sizes) for _ in expected] == expected


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
    assert check_commuting(f, s, samples, tol=1e-12) is None


def test_commuting_violation_witness():
    f = Mapping.from_scalar(lambda x: x + 1.0)  # f(S(1)) = 3, S(f(1)) = 4
    s = Mapping.from_scalar(lambda x: 2.0 * x)
    assert check_commuting(f, s, [Point.of(1.0)], tol=1e-12) == Point.of(1.0)


def test_commuting_identity_pair():
    ident = Mapping.identity(3)
    assert check_commuting(ident, ident, [Point.of(1.0, 2.0, 3.0)], tol=0.0) is None


def test_commuting_needs_samples():
    ident = Mapping.identity(1)
    with pytest.raises(InvalidInput):
        check_commuting(ident, ident, [], tol=1e-9)
