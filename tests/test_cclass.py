import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp.cclass import (
    AlteringDistance,
    CClassFunction,
    CClassTriple,
    Grid1D,
    Grid2D,
    PhiU,
    _Overflow,
    builtin_triples,
    get_triple,
    validate_altering,
    validate_cclass,
    validate_monotone_triple,
    validate_phiu,
)
from enrichedfp.errors import EvaluationError, InvalidInput


def test_grid_sizes_meet_minimums():
    assert len(Grid1D().values()) >= 1000
    assert Grid2D().points_per_axis ** 2 >= 1000


@pytest.mark.parametrize("upper", [math.nan, math.inf, 0.0, -1.0])
def test_grid_upper_must_be_positive_and_finite(upper):
    with pytest.raises(InvalidInput):
        Grid1D(upper=upper).values()
    with pytest.raises(InvalidInput):
        Grid2D(upper=upper).axis()


@pytest.mark.parametrize("upper", [5e-324, 1e-320])
def test_grid1d_upper_whose_refinement_underflows(upper):
    # min(1e-6, upper * 1e-7) is 0 below about 5e-317: the log refinement cannot start there
    with pytest.raises(InvalidInput, match="too small"):
        Grid1D(upper=upper).values()


def test_grid1d_smallest_upper_still_refines():
    vals = Grid1D(upper=1e-316, points=3).values()
    assert vals[0] == 0.0 and vals[-1] == 1e-316
    assert np.all(np.diff(vals) > 0)


def test_grid1d_sorted_and_starts_at_zero():
    vals = Grid1D().values()
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0)


def test_cclass_difference_passes():
    rep = validate_cclass(CClassFunction(lambda s, t: s - t, "s-t"))
    assert rep.passed


def test_cclass_sum_fails_upper_bound():
    rep = validate_cclass(CClassFunction(lambda s, t: s + t, "s+t"))
    assert not rep.passed
    assert rep.axiom == "upper-bound"
    s, t = rep.witness
    assert t > 0  # any point with positive t violates G <= s
    # first witness in row-major order on the default grid
    assert (s, t) == (0.0, 0.1)


def test_cclass_projection_fails_degeneracy():
    rep = validate_cclass(CClassFunction(lambda s, t: s, "s"))
    assert not rep.passed
    assert rep.axiom == "degeneracy"
    s, t = rep.witness
    assert s > 1e-9 and t > 1e-9  # equality band with both arguments positive
    assert (s, t) == (0.1, 0.1)  # first in grid order


@pytest.mark.parametrize("points", [41, 101, 201])
def test_cclass_difference_passes_under_refinement(points):
    # G(s,t) = s only forces t = 0, so every refinement stays clean
    rep = validate_cclass(
        CClassFunction(lambda s, t: s - t, "s-t"),
        Grid2D(points_per_axis=points),
    )
    assert rep.passed


def _paper_psi(x: float) -> float:
    return math.sqrt(x) if x <= 1.0 else x * x


def test_altering_piecewise_passes():
    assert validate_altering(AlteringDistance(_paper_psi, "piecewise")).passed


def test_altering_identity_passes():
    assert validate_altering(AlteringDistance(lambda t: t, "identity")).passed


def test_altering_shifted_fails_at_zero():
    rep = validate_altering(AlteringDistance(lambda t: 1.0 + t, "1+t"))
    assert not rep.passed
    assert rep.axiom == "zero-at-zero"


def test_altering_hump_fails_non_decreasing():
    # positive with psi(0) = 0, but decays past t = 1
    rep = validate_altering(AlteringDistance(lambda t: t * math.exp(-t), "hump"))
    assert not rep.passed
    assert rep.axiom == "non-decreasing"


def test_phiu_sqrt_and_square_pass():
    assert validate_phiu(PhiU(math.sqrt, "sqrt")).passed
    assert validate_phiu(PhiU(lambda t: t * t, "square")).passed


def test_phiu_negative_fails():
    rep = validate_phiu(PhiU(lambda t: -t, "neg"))
    assert not rep.passed
    assert rep.axiom == "positivity"


def test_nonfinite_evaluation_raises_with_input():
    bad = AlteringDistance(lambda t: math.nan, "nan")
    with pytest.raises(EvaluationError) as err:
        validate_altering(bad)
    assert err.value.offending_input is not None


@pytest.mark.parametrize("fn,t,message", [
    (lambda t: t * t, 1e200, "sq overflowed to inf at 1e+200"),
    (lambda t: -t * t, 1e200, "sq overflowed to -inf at 1e+200"),
    (lambda t: t * t, math.inf, "sq returned non-finite value at inf"),
    (lambda t: math.nan, 1.0, "sq returned non-finite value at 1.0"),
])
def test_overflow_at_a_finite_argument_is_told_apart(fn, t, message):
    # only an infinity from finite arguments is an overflow; a NaN keeps its message
    with pytest.raises(EvaluationError) as err:
        AlteringDistance(fn, "sq")(t)
    assert str(err.value) == message
    assert isinstance(err.value, _Overflow) == ("overflowed" in message)
    assert err.value.offending_input == t


def _h26(x: float) -> float:
    t = get_triple("example-2.6-nonmonotone")
    return t.g(t.psi(x), t.phi(x))


def _brute_force_first_violation(grid: np.ndarray, h: np.ndarray, tol: float):
    # independent oracle: scan all pairs ordered by the later point, then the earlier
    for j in range(1, len(grid)):
        for i in range(j):
            if h[i] > h[j] + tol:
                return float(grid[i]), float(grid[j])
    return None


def test_monotone_triple_paper_example_passes():
    res = validate_monotone_triple(get_triple("example-2.5-monotone"))
    assert res.passed
    assert res.witness is None
    assert res.subject == "example-2.5-monotone" and res.axiom is None


def test_monotone_triple_square_weighting_violated_matches_oracle():
    grid = Grid1D()
    triple = get_triple("example-2.6-nonmonotone")
    res = validate_monotone_triple(triple, grid)
    assert not res.passed
    assert res.subject == "example-2.6-nonmonotone" and res.axiom == "non-decreasing"

    xs = grid.values()
    h = np.array([triple.g(triple.psi(float(x)), triple.phi(float(x))) for x in xs])
    oracle = _brute_force_first_violation(xs, h, 1e-9)
    assert res.witness == oracle

    x, y = res.witness
    assert x < y
    # the decreasing stretch of sqrt(x) - x^2 sits past its interior max ~0.397
    assert 0.39 <= x < y <= 1.0
    assert _h26(x) > _h26(y)


def test_monotone_identity_triple_constant_composition():
    res = validate_monotone_triple(get_triple("identity-triple"))
    assert res.passed


def test_builtin_registry_names():
    names = {t.name for t in builtin_triples()}
    assert {"example-2.5-monotone", "example-2.6-nonmonotone", "identity-triple"} <= names


def test_builtin_expectations_reproduce():
    for triple in builtin_triples():
        exp = triple.expected
        assert exp is not None
        assert validate_altering(triple.psi).passed == exp.psi_ok
        assert validate_phiu(triple.phi).passed == exp.phi_ok
        assert validate_cclass(triple.g).passed == exp.g_ok
        mono = validate_monotone_triple(triple)
        assert mono.passed == exp.monotone


def test_unknown_triple_name():
    with pytest.raises(InvalidInput):
        get_triple("no-such-triple")


def test_validators_are_deterministic():
    triple = get_triple("example-2.6-nonmonotone")
    a = validate_monotone_triple(triple)
    b = validate_monotone_triple(triple)
    assert a == b
    ra = validate_cclass(CClassFunction(lambda s, t: s, "s"))
    rb = validate_cclass(CClassFunction(lambda s, t: s, "s"))
    assert ra == rb



@st.composite
def drawn_grids(draw):
    """A small grid of [0, 1], and one drawn value per grid point.

    Half the draws sort the values past the first, so that passing and
    positivity outcomes are reached as well as decreasing steps.
    """
    grid = Grid1D(upper=1.0, points=draw(st.integers(2, 24)))
    xs = grid.values()
    value = st.sampled_from([-1.0, 0.0, 1e-9, 0.5, 1.0, 2.0]) | st.floats(-4.0, 4.0)
    vals = draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    if draw(st.booleans()):
        vals[1:] = sorted(vals[1:])
    return grid, xs, np.array(vals)


def _lookup(xs, vals):
    """A function of the grid point (and of an ignored second argument): its drawn value."""
    table = dict(zip(xs.tolist(), vals.tolist()))
    return lambda x, *_: table[x]


TOLS = st.sampled_from([0.0, 1e-9, 0.25, 1.0]) | st.floats(0.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(drawn=drawn_grids(), tol=TOLS)
def test_monotone_witness_equals_the_brute_force_scan(drawn, tol):
    # h(x) = G(psi(x), phi(x)) = G(x, x) is the drawn value at x
    grid, xs, h = drawn
    triple = CClassTriple(AlteringDistance(lambda t: t, "identity"),
                          PhiU(lambda t: t, "identity"),
                          CClassFunction(_lookup(xs, h), "lookup"), name="drawn")
    res = validate_monotone_triple(triple, grid, tol)
    oracle = _brute_force_first_violation(xs, h, tol)
    assert res.witness == oracle
    assert res.passed == (oracle is None)
    assert res.subject == "drawn"
    assert res.axiom == (None if oracle is None else "non-decreasing")


def _altering_reference(ts, vals, tol):
    """(axiom, witness) of the first failure, by scalar loops in grid order, or None."""
    if abs(vals[0]) > tol:
        return "zero-at-zero", (0.0, float(vals[0]))
    for t, v in zip(ts, vals):
        if t > tol and v <= tol:
            return "positivity", (float(t), float(v))
    for i in range(len(ts) - 1):
        if vals[i] > vals[i + 1] + tol:
            return "non-decreasing", (float(ts[i]), float(ts[i + 1]))
    return None


@settings(max_examples=200, deadline=None)
@given(drawn=drawn_grids(), zero=st.sampled_from([0.0, 1e-10, -1e-10, 0.5]), tol=TOLS)
def test_altering_witness_equals_the_loop_reference(drawn, zero, tol):
    grid, ts, vals = drawn
    vals[0] = zero  # psi(0), which the zero-at-zero axiom reads
    rep = validate_altering(AlteringDistance(_lookup(ts, vals), "drawn"), grid, tol)
    expected = _altering_reference(ts, vals, tol)
    assert rep.passed == (expected is None)
    assert (rep.axiom, rep.witness) == (expected or (None, None))
    assert rep.subject == "drawn"


def _fails_past(limit, value):
    """value(x) up to ``limit``, and a failing evaluation past it."""
    def fn(x, *_):
        if x > limit:
            raise ValueError("past the limit")
        return value(x)
    return fn


def test_phiu_failure_is_not_replaced_by_a_later_error():
    # phi is evaluated point by point: the first non-positive value decides
    rep = validate_phiu(PhiU(_fails_past(1.0, lambda t: -t), "neg"), Grid1D(upper=2.0))
    assert (rep.passed, rep.axiom) == (False, "positivity")
    assert rep.witness[0] <= 1.0


def test_cclass_failure_is_not_replaced_by_a_later_error():
    rep = validate_cclass(CClassFunction(_fails_past(1.0, lambda s: s + 1.0), "s+1"),
                          Grid2D(upper=2.0))
    assert (rep.passed, rep.axiom, rep.witness) == (False, "upper-bound", (0.0, 0.0))
