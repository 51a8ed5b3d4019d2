import numpy as np
import pytest

from enrichedfp.errors import InvalidConfig, InvalidInput, InverseError
from enrichedfp.problems import get_problem
from enrichedfp.solver import (
    PairProblem,
    Scheme,
    SolverConfig,
    Status,
    run_jungck_schaefer,
    run_picard,
    run_schaefer,
    uniqueness_probe,
    verdict_common_fixed_point,
    verdict_fixed_point,
)
from enrichedfp.space import Mapping, Point


def _half():
    return Mapping.affine([[0.5]], [0.0])


def _reflection():
    return Mapping.affine([[-1.0]], [1.0])


def _cfg(scheme, start, **kw):
    return SolverConfig(scheme=scheme, seed_point=Point.of(*start), **kw)


class TestConfig:
    def test_c_range(self):
        with pytest.raises(InvalidConfig):
            _cfg(Scheme.SCHAEFER, (0.0,), c=0.0)
        with pytest.raises(InvalidConfig):
            _cfg(Scheme.SCHAEFER, (0.0,), c=1.0001)

    def test_delta_consistency(self):
        _cfg(Scheme.SCHAEFER, (0.0,), c=0.5, delta=1.0)  # consistent
        with pytest.raises(InvalidConfig):
            _cfg(Scheme.SCHAEFER, (0.0,), c=0.6, delta=1.0)

    def test_with_delta_derives_c(self):
        cfg = SolverConfig.with_delta(Scheme.SCHAEFER, Point.of(0.0), 1.0)
        assert cfg.c == 0.5
        cfg0 = SolverConfig.with_delta(Scheme.SCHAEFER, Point.of(0.0), 0.0)
        assert cfg0.c == 1.0
        with pytest.raises(InvalidConfig):
            SolverConfig.with_delta(Scheme.SCHAEFER, Point.of(0.0), -0.5)

    def test_threshold_validation(self):
        with pytest.raises(InvalidConfig):
            _cfg(Scheme.PICARD, (0.0,), tol=0.0)
        with pytest.raises(InvalidConfig):
            _cfg(Scheme.PICARD, (0.0,), max_iter=0)

    def test_scheme_mismatch_rejected(self):
        cfg = _cfg(Scheme.PICARD, (0.0,))
        with pytest.raises(InvalidConfig):
            run_schaefer(_half(), cfg)
        with pytest.raises(InvalidConfig):
            run_jungck_schaefer(PairProblem(_half(), Mapping.identity(1)), cfg)


class TestPicard:
    def test_half_map_geometric_decay(self):
        trace = run_picard(_half(), _cfg(Scheme.PICARD, (1.0,), tol=1e-10))
        assert trace.status is Status.CONVERGED
        assert abs(trace.limit().coords[0]) < 1e-9
        ratios = [b / a for a, b in zip(trace.residuals, trace.residuals[1:])]
        assert all(r == pytest.approx(0.5, rel=1e-12) for r in ratios)

    def test_reflection_oscillates(self):
        trace = run_picard(_reflection(), _cfg(Scheme.PICARD, (0.0,), max_iter=50))
        assert trace.status is Status.MAX_ITER_EXCEEDED
        assert trace.wall_iterations == 50
        assert set(trace.residuals) == {1.0}

    def test_identity_converges_immediately(self):
        trace = run_picard(Mapping.identity(1), _cfg(Scheme.PICARD, (4.2,)))
        assert trace.status is Status.CONVERGED
        assert trace.wall_iterations == 1
        assert trace.residuals == (0.0,)
        assert trace.limit() == Point.of(4.2)

    def test_divergence_detection(self):
        doubling = Mapping.affine([[2.0]], [0.0])
        trace = run_picard(
            doubling, _cfg(Scheme.PICARD, (1.0,), divergence_bound=1e6, max_iter=1000)
        )
        assert trace.status is Status.DIVERGED
        assert trace.diverged_at == trace.wall_iterations
        assert abs(trace.last.coords[0]) > 1e6


    def test_overflow_ends_trace_at_last_finite_iterate(self):
        doubling = Mapping.affine([[2.0]], [0.0])
        trace = run_picard(doubling, _cfg(Scheme.PICARD, (1.0,), divergence_bound=np.inf))
        assert trace.status is Status.DIVERGED
        assert trace.diverged_at == 1024
        assert trace.last == Point.of(2.0**1023)
        assert trace.wall_iterations == 1023


class TestSchaefer:
    def test_reflection_constant_averaged_map(self):
        trace = run_schaefer(_reflection(), _cfg(Scheme.SCHAEFER, (0.0,), c=0.5))
        assert trace.status is Status.CONVERGED
        assert trace.wall_iterations == 2
        assert trace.limit() == Point.of(0.5)
        assert trace.residuals == (0.5, 0.0)

    def test_c1_trace_equals_picard_exactly(self):
        fp = run_picard(_half(), _cfg(Scheme.PICARD, (3.0,)))
        fs = run_schaefer(_half(), _cfg(Scheme.SCHAEFER, (3.0,), c=1.0))
        assert fs.iterates == fp.iterates
        assert fs.residuals == fp.residuals
        assert fs.status is fp.status

    def test_affine_contraction_matches_linear_solve(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(-1, 1, (10, 10))
        a *= 0.9 / np.linalg.norm(a, 2)
        b = rng.uniform(-1, 1, 10)
        f = Mapping.affine(a, b)
        oracle = np.linalg.solve(np.eye(10) - a, b)
        cfg = SolverConfig(Scheme.SCHAEFER, Point.from_array(np.zeros(10)), c=1.0, tol=1e-10)
        trace = run_schaefer(f, cfg)
        assert trace.status is Status.CONVERGED
        assert trace.wall_iterations <= 500
        assert np.linalg.norm(trace.limit().as_array() - oracle) <= 1e-8

    def test_seed_point_is_iterate_zero_without_residual(self):
        trace = run_schaefer(_half(), _cfg(Scheme.SCHAEFER, (8.0,), c=0.5))
        assert trace.iterates[0] == Point.of(8.0)
        assert len(trace.iterates) == len(trace.residuals) + 1

    def test_converged_implies_final_residual_below_tol(self):
        cfg = _cfg(Scheme.SCHAEFER, (5.0,), c=0.3, tol=1e-8)
        trace = run_schaefer(_half(), cfg)
        assert trace.status is Status.CONVERGED
        assert trace.final_residual <= 1e-8


class TestJungck:
    def test_scaling_pair_contracts_to_common_fixed_point(self):
        p = get_problem("jungck-linear").pair()
        trace = run_jungck_schaefer(p, _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5))
        assert trace.status is Status.CONVERGED
        # w = 0.5 * 2u + 0.5 * u/2 = 1.25 u, so u_next = 0.625 u
        assert trace.iterates[1] == Point.of(0.625)
        assert abs(trace.limit().coords[0]) < 1e-9
        # residuals follow ||S u_{n+1} - S u_n||
        su = [2.0 * it.coords[0] for it in trace.iterates]
        expect = [abs(b - a) for a, b in zip(su, su[1:])]
        assert list(trace.residuals) == pytest.approx(expect, rel=1e-12)

    def test_identity_s_trace_equals_schaefer_exactly(self):
        f = _half()
        pair = PairProblem(f, Mapping.identity(1))
        tj = run_jungck_schaefer(pair, _cfg(Scheme.JUNGCK_SCHAEFER, (3.0,), c=0.5))
        ts = run_schaefer(f, _cfg(Scheme.SCHAEFER, (3.0,), c=0.5))
        assert tj.iterates == ts.iterates
        assert tj.residuals == ts.residuals

    def test_identity_pair_converges_at_seed(self):
        ident = Mapping.identity(1)
        trace = run_jungck_schaefer(
            PairProblem(ident, ident), _cfg(Scheme.JUNGCK_SCHAEFER, (2.5,), c=0.5)
        )
        assert trace.status is Status.CONVERGED
        assert trace.wall_iterations == 1
        assert trace.limit() == Point.of(2.5)

    def test_bad_inverse_raises(self):
        pair = PairProblem(
            _half(),
            Mapping.affine([[2.0]], [0.0]),
            s_inverse=lambda y: y,  # wrong inverse for S(x) = 2x
        )
        with pytest.raises(InverseError) as err:
            run_jungck_schaefer(pair, _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5))
        assert err.value.iteration == 1

    def test_nonaffine_s_needs_explicit_inverse(self):
        cubish = Mapping.from_scalar(lambda x: x**3 + x)
        with pytest.raises(InvalidInput):
            PairProblem(_half(), cubish)
        # works once the inverse is supplied explicitly: here S(x) = 2x as closure
        s = Mapping.from_scalar(lambda x: 2.0 * x)
        pair = PairProblem(_half(), s, s_inverse=lambda y: y / 2.0)
        trace = run_jungck_schaefer(pair, _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5))
        assert trace.status is Status.CONVERGED

    def test_singular_s_rejected(self):
        with pytest.raises(InvalidInput):
            PairProblem(_half(), Mapping.affine([[0.0]], [0.0]))

    def test_validate_sampled(self):
        p = get_problem("jungck-linear").pair()
        p.validate_sampled([Point.of(-3.0), Point.of(0.0), Point.of(11.0)])
        bad = PairProblem(
            Mapping.from_scalar(lambda x: x + 1.0),
            Mapping.affine([[2.0]], [0.0]),
        )
        with pytest.raises(InvalidInput):
            bad.validate_sampled([Point.of(1.0)])


class TestVerdicts:
    def test_fixed_point_verdicts(self):
        refl = _reflection()
        assert verdict_fixed_point(refl, Point.of(0.5), tol=1e-12)
        assert not verdict_fixed_point(refl, Point.of(0.0), tol=1e-12)
        assert verdict_fixed_point(Mapping.identity(1), Point.of(123.0), tol=0.0)

    def test_common_fixed_point_verdicts(self):
        p = get_problem("jungck-linear").pair()
        assert verdict_common_fixed_point(p, Point.of(0.0), tol=1e-12)
        assert not verdict_common_fixed_point(p, Point.of(1.0), tol=1e-12)
        ident = Mapping.identity(1)
        assert verdict_common_fixed_point(
            PairProblem(ident, ident), Point.of(7.0), tol=0.0
        )


class TestUniquenessProbe:
    def test_half_map_limits_agree(self):
        cfg = _cfg(Scheme.SCHAEFER, (0.0,), c=1.0, tol=1e-10)
        rep = uniqueness_probe(_half(), cfg, [Point.of(-5.0), Point.of(0.0), Point.of(7.0)])
        assert rep.all_agree
        assert len(rep.limit_points) == 3
        assert all(abs(p.coords[0]) < 1e-9 for p in rep.limit_points)
        assert rep.non_converged == ()

    def test_identity_map_disagrees(self):
        cfg = _cfg(Scheme.SCHAEFER, (0.0,), c=0.5, tol=1e-10)
        rep = uniqueness_probe(Mapping.identity(1), cfg, [Point.of(0.0), Point.of(1.0)])
        assert not rep.all_agree
        assert len(rep.limit_points) == 2  # every start is already fixed

    def test_non_converged_flagged(self):
        doubling = Mapping.affine([[2.0]], [0.0])
        cfg = _cfg(Scheme.SCHAEFER, (0.0,), c=1.0, tol=1e-10, max_iter=10)
        rep = uniqueness_probe(doubling, cfg, [Point.of(0.0), Point.of(1.0)])
        assert 1 in rep.non_converged  # start at 1 runs away
        assert rep.statuses[0] is Status.CONVERGED  # 0 is the fixed point

    def test_requires_distinct_starts(self):
        cfg = _cfg(Scheme.SCHAEFER, (0.0,), c=0.5)
        with pytest.raises(InvalidInput):
            uniqueness_probe(_half(), cfg, [Point.of(1.0)])
        with pytest.raises(InvalidInput):
            uniqueness_probe(_half(), cfg, [Point.of(1.0), Point.of(1.0)])

    def test_ten_dimensional_limits_agree_with_linear_solve(self):
        from enrichedfp.problems import get_problem, probe_starts
        from enrichedfp.space import distance

        p = get_problem("affine-contraction-10d")
        cfg = SolverConfig(Scheme.SCHAEFER, probe_starts(p)[0], c=1.0, tol=1e-10)
        rep = uniqueness_probe(p.f, cfg, probe_starts(p, n=5))
        assert rep.all_agree
        for limit in rep.limit_points:
            assert distance(limit, p.oracle_fixed_point) <= 1e-8


class TestTraceCsv:
    def test_format_and_empty_seed_residual(self):
        trace = run_schaefer(_reflection(), _cfg(Scheme.SCHAEFER, (0.0,), c=0.5))
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "iter,residual,x0"
        assert lines[1] == "0,,0"
        assert lines[2] == "1,0.5,0.5"
        assert lines[3] == "2,0,0.5"

    def test_coords_toggle(self):
        trace = run_schaefer(_reflection(), _cfg(Scheme.SCHAEFER, (0.0,), c=0.5))
        text = trace.to_csv(include_coords=False)
        assert text.splitlines()[0] == "iter,residual"
        assert all(line.count(",") == 1 for line in text.splitlines())

    def test_seventeen_significant_digits(self):
        trace = run_schaefer(_half(), _cfg(Scheme.SCHAEFER, (1.0,), c=0.3, tol=1e-3))
        row = trace.to_csv().splitlines()[2]
        # 0.3 * 0.5 + 0.7 = 0.85: printed to full precision
        assert row.split(",")[2] == f"{0.85:.17g}"


def test_seed_dimension_mismatch():
    with pytest.raises(InvalidInput):
        run_picard(_half(), _cfg(Scheme.PICARD, (1.0, 2.0)))
