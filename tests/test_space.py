import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp.errors import EvaluationError, InvalidInput
from enrichedfp.space import (
    Mapping,
    NormKind,
    Point,
    array_norm,
    block_sizes,
    check_commuting,
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
    assert array_norm(np.array([3.0, 4.0]), NormKind.L2) == 5.0


def test_norm_zero_vector():
    assert array_norm(np.array([0.0, 0.0]), NormKind.L1) == 0.0


def test_norm_linf_max_abs():
    assert array_norm(np.array([1.0, -2.0, 3.0]), NormKind.LINF) == 3.0


def test_empty_point_rejected():
    with pytest.raises(InvalidInput):
        Point(())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_point_rejected(bad):
    with pytest.raises(InvalidInput):
        Point.of(1.0, bad)


def test_distance_examples():
    assert array_norm(np.array([1.0, 1.0]) - np.array([1.0, 1.0]), NormKind.L2) == 0.0
    assert array_norm(np.array([0.0, 0.0]) - np.array([3.0, 4.0]), NormKind.L2) == 5.0
    assert array_norm(np.array([1.0, 0.0]) - np.array([0.0, 1.0]), NormKind.L1) == 2.0


@pytest.mark.parametrize("offset,kind", list(enumerate(NormKind)))
def test_norm_axioms_on_seeded_batch(offset, kind):
    # absolute homogeneity and triangle inequality over >= 10^3 sampled pairs
    rng = np.random.default_rng(20240 + offset)
    for _ in range(1100):
        u = rng.uniform(-50, 50, size=3)
        v = rng.uniform(-50, 50, size=3)
        lam = float(rng.uniform(-3, 3))
        assert array_norm(lam * u, kind) == pytest.approx(
            abs(lam) * array_norm(u, kind), rel=1e-12, abs=1e-12)
        assert array_norm(u + v, kind) <= array_norm(u, kind) + array_norm(v, kind) + 1e-9


@pytest.mark.parametrize("kind", list(NormKind))
@given(xs=st.lists(finite_floats, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_norm_nonnegative_and_zero_iff_zero(kind, xs):
    n = array_norm(np.array(xs), kind)
    assert n >= 0.0
    if all(x == 0.0 for x in xs):
        assert n == 0.0
    if n == 0.0:
        assert all(x == 0.0 for x in xs)


def test_affine_mapping_evaluates_exactly():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    b = np.array([0.5, -1.0])
    f = Mapping.affine(a, b)
    x = np.array([2.0, -1.0])
    assert np.array_equal(f.apply(x), a @ x + b)


def test_mapping_rejects_bad_affine_shapes():
    with pytest.raises(InvalidInput):
        Mapping.affine([[1.0, 0.0]], [0.0])


def test_commuting_scaling_pair():
    f = Mapping.from_scalar(lambda x: x / 2.0)
    s = Mapping.from_scalar(lambda x: 2.0 * x)
    samples = np.array([[-1.0], [0.0], [3.0]])
    assert check_commuting(f, s, samples, tol=1e-12) is None


def test_commuting_violation_witness():
    f = Mapping.from_scalar(lambda x: x + 1.0)  # f(S(1)) = 3, S(f(1)) = 4
    s = Mapping.from_scalar(lambda x: 2.0 * x)
    assert check_commuting(f, s, np.array([[1.0]]), tol=1e-12).tolist() == [1.0]


def test_commuting_identity_pair():
    ident = Mapping.identity(3)
    assert check_commuting(ident, ident, np.array([[1.0, 2.0, 3.0]]), tol=0.0) is None


def test_commuting_needs_samples():
    ident = Mapping.identity(1)
    with pytest.raises(InvalidInput):
        check_commuting(ident, ident, np.empty((0, 1)), tol=1e-9)


@pytest.mark.parametrize("us", [np.zeros(2), np.zeros((1, 2, 1)), np.zeros((3, 3)),
                                np.array([[1.0, np.nan]]), np.array([[np.inf, 0.0]])])
def test_commuting_rejects_a_bad_block(us):
    ident = Mapping.identity(2)
    with pytest.raises(InvalidInput):
        check_commuting(ident, ident, us)


def test_commuting_rejects_a_dimension_mismatch():
    with pytest.raises(InvalidInput):
        check_commuting(Mapping.identity(1), Mapping.identity(2), np.zeros((1, 1)))


def test_commuting_returns_the_first_failing_row():
    # f(x) = x + 1 and S(x) = x^2 commute only where (x + 1)^2 = x^2 + 1, at x = 0
    f = Mapping.from_scalar(lambda x: x + 1.0)
    s = Mapping.from_scalar(lambda x: x * x)
    us = np.array([[0.0], [0.0], [2.0], [0.0], [3.0]])
    assert check_commuting(f, s, us, tol=1e-12).tolist() == [2.0]
    # the failing row is judged by the same relative tolerance: gap 2|x| against tol * |x|
    assert check_commuting(f, s, np.array([[1e6]]), tol=3.0) is None


def _recording(fn, seen):
    def wrapped(x):
        seen.append(np.array(x))
        return fn(x)
    return Mapping(fn=wrapped, dim=1)


# S(x) = 2x and f(x) = 3x commute: 1e308 overflows in S and f themselves, 4e307
# only in f(S(x)) and S(f(x))
@pytest.mark.parametrize("big", [1e308, 4e307])
def test_commuting_non_finite_value_raises_at_its_row(big):
    seen = []
    s = _recording(lambda x: 2.0 * x, seen)
    f = _recording(lambda x: 3.0 * x, seen)
    us = np.array([[1.0], [-2.0], [big], [5.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError) as err:
            check_commuting(f, s, us)
    assert str(err.value) == f"mapping produced non-finite output at ({big!r},)"
    assert err.value.offending_input.tolist() == [big]
    assert all(np.isfinite(x).all() for x in seen)


def test_commuting_failure_before_a_non_finite_row_decides():
    f = Mapping.from_scalar(lambda x: x + 1.0)
    s = Mapping.from_scalar(lambda x: 2.0 * x)
    with np.errstate(over="ignore"):
        assert check_commuting(f, s, np.array([[1.0], [1e308]])).tolist() == [1.0]
        with pytest.raises(EvaluationError):
            check_commuting(f, s, np.array([[1e308], [1.0]]))


def test_commuting_map_error_propagates():
    def refuse(x):
        raise ZeroDivisionError("refused")
    with pytest.raises(ZeroDivisionError):
        check_commuting(Mapping(fn=refuse, dim=1), Mapping.identity(1), np.array([[1.0]]))


@pytest.mark.parametrize("result", [np.zeros(1), np.zeros((3, 1)), np.zeros(2), 0.0])
def test_apply_refuses_a_wrong_shaped_result(result):
    f = Mapping(fn=lambda x: result, dim=3)
    with pytest.raises(InvalidInput):
        f.apply(np.zeros(3))
    with pytest.raises(InvalidInput):
        f.apply_batch(np.zeros((2, 3)))


def test_apply_batch_of_an_empty_block_keeps_its_width():
    for f in (Mapping(fn=np.sin, dim=3), Mapping.identity(3)):
        assert f.apply_batch(np.empty((0, 3))).shape == (0, 3)
