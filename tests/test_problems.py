import numpy as np
import pytest

from enrichedfp.contraction import PairSampler, certify
from enrichedfp.errors import ConfigError, InvalidInput, NoRootBracketed
from enrichedfp.problems import (
    builtin_problems,
    get_problem,
    oracle_fixed_point_1d,
    random_affine,
)
from enrichedfp.space import Mapping, Point, array_norm, check_commuting

EXPECTED_NAMES = {
    "half-map",
    "reflection",
    "kannan-style",
    "affine-contraction-10d",
    "doubling",
    "jungck-linear",
}


def test_registry_contains_required_problems():
    assert {p.name for p in builtin_problems()} >= EXPECTED_NAMES


def test_get_problem_unknown():
    with pytest.raises(ConfigError):
        get_problem("nope")


def test_get_problem_random_affine_spec():
    p = get_problem("random-affine:3:0.5:9")
    assert p.f.dim == 3
    q = random_affine(3, 0.5, 9)
    assert np.array_equal(p.f.matrix, q.f.matrix)


@pytest.mark.parametrize(
    "spec", ["random-affine:3:0.5", "random-affine:x:0.5:9", "random-affine:3:0.5:-1"]
)
def test_get_problem_bad_random_spec(spec):
    with pytest.raises(ConfigError):
        get_problem(spec)


def test_oracle_fixed_points_are_fixed():
    for p in builtin_problems():
        assert p.oracle_fixed_point is not None
        star = p.oracle_fixed_point.as_array()
        assert array_norm(p.f.apply(star) - star) <= 1e-9
        if p.is_pair:
            assert array_norm(p.s.apply(star) - star) <= 1e-9


def test_certified_builtins_pass_certify_on_their_box():
    for p in builtin_problems():
        if p.certified_as is None:
            continue
        variant, coeffs = p.certified_as
        lo, hi = p.box
        cert = certify(
            variant, p.f, coeffs, PairSampler(dim=p.f.dim, lo=lo, hi=hi, seed=0)
        )
        assert cert.satisfied, f"{p.name}: witness {cert.witness_u}, {cert.witness_v}"


def test_one_dimensional_oracles_agree_with_bisection():
    for p in builtin_problems():
        if p.f.dim != 1 or p.name == "doubling":
            continue  # doubling's g(x) = x has no sign change off its root
        lo, hi = p.box
        bis = oracle_fixed_point_1d(p.f, lo, hi, tol=1e-12)
        assert array_norm(bis.as_array() - p.oracle_fixed_point.as_array()) <= 1e-11


def test_reflection_oracle_value():
    p = get_problem("reflection")
    assert p.oracle_fixed_point == Point.of(0.5)


def test_jungck_linear_common_fixed_point():
    p = get_problem("jungck-linear")
    assert p.oracle_fixed_point == Point.of(0.0)
    assert p.is_pair
    pair = p.pair()
    samples = np.array([[-2.0], [5.0]])
    assert check_commuting(pair.f, pair.s, samples) is None
    for u in samples:
        assert pair.s_inverse.apply(pair.s.apply(u)).tolist() == u.tolist()


def test_pair_accessor_rejects_single_problems():
    with pytest.raises(InvalidInput):
        get_problem("half-map").pair()


class TestRandomAffine:
    def test_scalar_case_matches_closed_form(self):
        p = random_affine(1, 0.5, 42)
        a = float(p.f.matrix[0, 0])
        b = float(p.f.offset[0])
        assert abs(a) <= 0.5
        assert p.oracle_fixed_point.coords[0] == pytest.approx(b / (1 - a), rel=1e-14)

    def test_determinism(self):
        p1, p2 = random_affine(10, 0.9, 7), random_affine(10, 0.9, 7)
        assert np.array_equal(p1.f.matrix, p2.f.matrix)
        assert np.array_equal(p1.f.offset, p2.f.offset)
        assert p1.oracle_fixed_point == p2.oracle_fixed_point

    def test_distinct_seeds_differ(self):
        p1, p2 = random_affine(4, 0.9, 0), random_affine(4, 0.9, 1)
        assert not np.array_equal(p1.f.matrix, p2.f.matrix)

    @pytest.mark.parametrize("dim,cap,seed", [(1, 0.5, 42), (5, 0.9, 3), (10, 0.9, 7)])
    def test_oracle_residual_and_spectral_bound(self, dim, cap, seed):
        p = random_affine(dim, cap, seed)
        star = p.oracle_fixed_point.as_array()
        assert array_norm(p.f.apply(star) - star) <= 1e-9
        radius = float(np.max(np.abs(np.linalg.eigvals(p.f.matrix))))
        assert radius <= cap + 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(InvalidInput):
            random_affine(0, 0.5, 1)
        with pytest.raises(InvalidInput):
            random_affine(2, 1.0, 1)
        with pytest.raises(InvalidInput):
            random_affine(2, 0.0, 1)


class TestBisectionOracle:
    def test_reflection(self):
        f = Mapping.affine([[-1.0]], [1.0])
        root = oracle_fixed_point_1d(f, 0.0, 1.0, tol=1e-12)
        assert root.coords[0] == pytest.approx(0.5, abs=1e-12)

    def test_half_map(self):
        f = Mapping.affine([[0.5]], [0.0])
        root = oracle_fixed_point_1d(f, -1.0, 1.0, tol=1e-12)
        assert abs(root.coords[0]) <= 1e-12

    def test_no_fixed_point(self):
        shift = Mapping.affine([[1.0]], [1.0])  # x + 1 never crosses x
        with pytest.raises(NoRootBracketed):
            oracle_fixed_point_1d(shift, 0.0, 1.0)

    def test_requires_one_dimension(self):
        with pytest.raises(InvalidInput):
            oracle_fixed_point_1d(Mapping.identity(2), 0.0, 1.0)
