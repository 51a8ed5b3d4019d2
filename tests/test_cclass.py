import math

import numpy as np
import pytest

from enrichedfp.cclass import (
    AlteringDistance,
    CClassFunction,
    Grid1D,
    Grid2D,
    MonotoneState,
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
    assert res.state is MonotoneState.MONOTONE_ON_GRID
    assert res.witness is None


def test_monotone_triple_square_weighting_violated_matches_oracle():
    grid = Grid1D()
    triple = get_triple("example-2.6-nonmonotone")
    res = validate_monotone_triple(triple, grid)
    assert res.state is MonotoneState.VIOLATED

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
    assert res.state is MonotoneState.MONOTONE_ON_GRID


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
        assert (mono.state is MonotoneState.MONOTONE_ON_GRID) == exp.monotone


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
