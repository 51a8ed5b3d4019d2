import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from enrichedfp._fmt17 import fmt_array
from enrichedfp.errors import InvalidConfig, InvalidInput, InverseError
from enrichedfp.problems import get_problem
from enrichedfp.solver import (
    _KERNEL_MIN,
    IterationTrace,
    PairProblem,
    Scheme,
    SolverConfig,
    Status,
    run_jungck_schaefer,
    run_picard,
    run_schaefer,
)
from enrichedfp.space import Mapping, NormKind, Point, array_norm, check_commuting


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

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.5])
    def test_delta_must_be_nonnegative_and_finite(self, delta):
        with pytest.raises(InvalidConfig, match="delta must be"):
            SolverConfig.with_delta(Scheme.SCHAEFER, Point.of(0.0), delta)
        with pytest.raises(InvalidConfig, match="delta must be"):
            _cfg(Scheme.SCHAEFER, (0.0,), c=0.5, delta=delta)

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

    def test_wrong_sized_map_output_rejected(self):
        widening = Mapping(fn=lambda x: np.array([x[0], x[0]]), dim=1)
        with pytest.raises(InvalidInput):
            run_picard(widening, _cfg(Scheme.PICARD, (1.0,)))

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
        assert fs.xs.tobytes() == fp.xs.tobytes()
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
        assert trace.xs[0].tolist() == [8.0]
        assert len(trace.xs) == len(trace.residuals) + 1

    def test_converged_implies_final_residual_below_tol(self):
        cfg = _cfg(Scheme.SCHAEFER, (5.0,), c=0.3, tol=1e-8)
        trace = run_schaefer(_half(), cfg)
        assert trace.status is Status.CONVERGED
        assert trace.final_residual <= 1e-8


def _step(f, u, c):
    """One averaged step from ``u``: xs[1] = (1 - c) u + c f(u), residuals[0] = ||xs[1] - u||."""
    return run_schaefer(f, SolverConfig(Scheme.SCHAEFER, u, c=c, max_iter=1))


class TestAveragedStep:
    """One step of the averaged scheme, the map T_c(u) = (1 - c) u + c f(u)."""

    def test_reflection_half(self):
        trace = _step(Mapping.from_scalar(lambda x: 1.0 - x), Point.of(0.0), 0.5)
        assert trace.xs[1].tolist() == [0.5]
        assert trace.residuals == (0.5,)

    def test_c1_collapses_to_base(self):
        f = Mapping.from_scalar(lambda x: math.cos(x) + 2.0)
        for x in (-1.3, 0.0, 2.7):
            assert _step(f, Point.of(x), 1.0).xs[1].tolist() == f.apply(np.array([x])).tolist()

    def test_identity_base(self):
        trace = _step(Mapping.identity(1), Point.of(7.0), 0.37)
        assert trace.xs[1].tolist() == [7.0]
        assert trace.residuals == (0.0,)

    @given(
        x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        c=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_sets_coincide(self, x, c):
        # T_c(u) - u = c (f(u) - u): either both vanish or neither does
        f = Mapping.from_scalar(lambda t: 0.5 * t + 1.0)
        u = np.array([x])
        fu = f.apply(u)[0]
        trace = _step(f, Point.of(x), c)
        assert trace.xs[1, 0] == (fu if c == 1.0 else (1.0 - c) * x + c * fu)
        assert trace.residuals[0] == pytest.approx(c * array_norm(f.apply(u) - u),
                                                   rel=1e-9, abs=1e-12)

    def test_fixed_point_of_base_stays_fixed(self):
        f = Mapping.from_scalar(lambda t: 1.0 - t)
        star = Point.of(0.5)
        assert f.apply(star.as_array()).tolist() == [0.5]
        for c in (0.1, 0.5, 1.0):
            trace = _step(f, star, c)
            assert trace.xs[1].tolist() == [0.5]
            assert trace.status is Status.CONVERGED

    def test_affine_in_c(self):
        # c -> T_c(u) parametrizes the segment from u toward f(u)
        f = Mapping.from_scalar(lambda x: 1.0 - x)
        u = Point.of(-2.0)
        fu = f.apply(u.as_array())[0]

        def step(c):
            return _step(f, u, c).xs[1, 0]
        for c in (0.25, 0.5, 0.75, 1.0):
            assert step(c) == pytest.approx((1 - c) * u.coords[0] + c * fu, rel=1e-15)
        assert step(0.5) == pytest.approx(0.5 * (step(0.2) + step(0.8)), rel=1e-15)


class TestJungck:
    def test_scaling_pair_contracts_to_common_fixed_point(self):
        p = get_problem("jungck-linear").pair()
        trace = run_jungck_schaefer(p, _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5))
        assert trace.status is Status.CONVERGED
        # w = 0.5 * 2u + 0.5 * u/2 = 1.25 u, so u_next = 0.625 u
        assert trace.xs[1].tolist() == [0.625]
        assert abs(trace.limit().coords[0]) < 1e-9
        # residuals follow ||S u_{n+1} - S u_n||
        su = (2.0 * trace.xs[:, 0]).tolist()
        expect = [abs(b - a) for a, b in zip(su, su[1:])]
        assert list(trace.residuals) == pytest.approx(expect, rel=1e-12)

    def test_identity_s_trace_equals_schaefer_exactly(self):
        f = _half()
        pair = PairProblem(f, Mapping.identity(1))
        tj = run_jungck_schaefer(pair, _cfg(Scheme.JUNGCK_SCHAEFER, (3.0,), c=0.5))
        ts = run_schaefer(f, _cfg(Scheme.SCHAEFER, (3.0,), c=0.5))
        assert tj.xs.tobytes() == ts.xs.tobytes()
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
            s_inverse=Mapping(fn=lambda y: y, dim=1),  # wrong inverse for S(x) = 2x
        )
        # a supplied inverse gets no rounding allowance: the checks use tol alone
        assert pair.inverse_tol == 0.0
        with pytest.raises(InverseError) as err:
            run_jungck_schaefer(pair, _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5))
        assert err.value.iteration == 1

    def test_nonaffine_s_needs_explicit_inverse(self):
        cubish = Mapping.from_scalar(lambda x: x**3 + x)
        with pytest.raises(InvalidInput):
            PairProblem(_half(), cubish)
        # works once the inverse is supplied explicitly: here S(x) = 2x as closure
        s = Mapping.from_scalar(lambda x: 2.0 * x)
        pair = PairProblem(_half(), s, s_inverse=Mapping(fn=lambda y: y / 2.0, dim=1))
        trace = run_jungck_schaefer(pair, _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5))
        assert trace.status is Status.CONVERGED

    def test_s_result_of_another_shape_is_invalid_input(self):
        # S(x) = (x_0,) on R^3 would broadcast into the stored S u_0 row
        s = Mapping(fn=lambda x: x[:1].copy(), dim=3)
        pair = PairProblem(Mapping.affine(0.5 * np.eye(3), np.zeros(3)), s,
                           s_inverse=Mapping(fn=lambda y: y.copy(), dim=3))
        with pytest.raises(InvalidInput, match=r"mapping returned shape \(1,\), expected \(3,\)"):
            run_jungck_schaefer(pair, _cfg(Scheme.JUNGCK_SCHAEFER, (1.0, 2.0, 3.0), c=0.5))

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_s_inverse_result_of_another_shape_is_invalid_input(self, c):
        f = Mapping.affine(0.5 * np.eye(3), np.zeros(3))
        s = Mapping.affine(2.0 * np.eye(3), np.zeros(3))
        pair = PairProblem(f, s, s_inverse=Mapping(fn=lambda y: y[:2] / 2.0, dim=3))
        with pytest.raises(InvalidInput, match=r"mapping returned shape \(2,\), expected \(3,\)"):
            run_jungck_schaefer(pair, _cfg(Scheme.JUNGCK_SCHAEFER, (1.0, 2.0, 3.0), c=c))

    def test_s_inverse_of_another_dimension_is_rejected(self):
        s = Mapping.affine(2.0 * np.eye(3), np.zeros(3))
        with pytest.raises(InvalidInput, match="dimension mismatch: S 3, s_inverse 2"):
            PairProblem(Mapping.identity(3), s, s_inverse=Mapping.identity(2))

    def test_singular_s_rejected(self):
        with pytest.raises(InvalidInput):
            PairProblem(_half(), Mapping.affine([[0.0]], [0.0]))

    def test_singular_s_judged_by_rank(self):
        # det(0.1 I) underflows to 0 at this size, though S is perfectly conditioned
        eye = np.eye(400)
        PairProblem(Mapping.affine(0.05 * eye, np.zeros(400)),
                    Mapping.affine(0.1 * eye, np.zeros(400)))
        # det is about 1e-15 here, but the condition number is 3.2e15: numerically rank 1
        with pytest.raises(InvalidInput):
            PairProblem(Mapping.identity(2), Mapping.affine([[1.0, 1.0], [1.0, 1.0 + 1e-15]],
                                                            [0.0, 0.0]))

    def test_pair_commutes_and_inverts_on_samples(self):
        p = get_problem("jungck-linear").pair()
        samples = np.array([[-3.0], [0.0], [11.0]])
        assert check_commuting(p.f, p.s, samples) is None
        for u in samples:
            assert p.s_inverse.apply(p.s.apply(u)).tolist() == u.tolist()
        bad = PairProblem(
            Mapping.from_scalar(lambda x: x + 1.0),
            Mapping.affine([[2.0]], [0.0]),
        )
        assert check_commuting(bad.f, bad.s, np.array([[1.0]])).tolist() == [1.0]


def _commuting_pair(dim, seed, cap=0.5):
    """(pair, x*): f(x) = A x + b and S(x) = M x + m for a seeded B of Frobenius norm ``cap``.

    A = B/2 + B^2/4 and M = 2I + B are polynomials in B, so they commute; x* solves
    (I - A) x = b, and m = x* - M x* makes f(S(x)) = S(f(x)) and S(x*) = x*.  The
    pair step contracts by (1 - c) I + c M^{-1} A = (1 - c) I + c B / 4.
    """
    rng = np.random.default_rng(seed)
    b_mat = rng.uniform(-1.0, 1.0, size=(dim, dim))
    b_mat *= cap / np.linalg.norm(b_mat, "fro")
    m_mat = 2.0 * np.eye(dim) + b_mat
    a = 0.5 * b_mat + 0.25 * (b_mat @ b_mat)
    b = rng.uniform(-1.0, 1.0, size=dim)
    x_star = np.linalg.solve(np.eye(dim) - a, b)
    return PairProblem(Mapping.affine(a, b), Mapping.affine(m_mat, x_star - m_mat @ x_star)), x_star


class TestCommutingPairInHigherDimensions:
    """The pair scheme at d > 1, on the seeded commuting family: S^{-1} is built once."""

    @pytest.mark.parametrize("k", list(NormKind))
    @pytest.mark.parametrize("dim", [10, 100])
    def test_converges_to_the_common_fixed_point(self, dim, k):
        pair, x_star = _commuting_pair(dim, seed=dim)
        us = np.random.default_rng(1).uniform(-10.0, 10.0, size=(64, dim))
        assert check_commuting(pair.f, pair.s, us, k=k) is None
        cfg = _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,) * dim, c=0.5, tol=1e-12, norm=k)
        trace = run_jungck_schaefer(pair, cfg)
        assert trace.status is Status.CONVERGED
        assert array_norm(trace.xs[-1] - x_star, k) <= 1e-10
        # the same bits as a step-by-step loop that applies S^{-1} to one row at a time
        iterates, residuals, status, _ = _reference_iterate(Scheme.JUNGCK_SCHAEFER, pair.f,
                                                            cfg, pair)
        assert trace.xs.tobytes() == _rows(iterates).tobytes()
        assert (trace.residuals, trace.status) == (residuals, status)

    def test_pair_checks_allow_the_rounding_of_the_inverse(self):
        # S(S^{-1}(y)) reproduces y to about 1e-16 relative at d = 200, far above
        # tol = 1e-300: the checks take 1e-12 * cond(M) instead, and the run goes on
        pair, _ = _commuting_pair(200, seed=7)
        m = pair.s.matrix
        cond = np.linalg.norm(m, np.inf) * np.linalg.norm(np.linalg.inv(m), np.inf)
        assert pair.inverse_tol == pytest.approx(1e-12 * cond) and 1.0 < cond < 2.0
        cfg = _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,) * 200, c=0.5, tol=1e-300, max_iter=20)
        trace = run_jungck_schaefer(pair, cfg)
        assert (trace.status, trace.wall_iterations) == (Status.MAX_ITER_EXCEEDED, 20)
        iterates, residuals, _, _ = _reference_iterate(Scheme.JUNGCK_SCHAEFER, pair.f, cfg, pair)
        assert trace.xs.tobytes() == _rows(iterates).tobytes()
        assert trace.residuals == residuals

    def test_inverse_is_one_affine_map(self):
        pair, x_star = _commuting_pair(10, seed=3)
        inv = pair.s_inverse
        assert inv.is_affine
        assert np.array_equal(inv.matrix, np.linalg.inv(pair.s.matrix))
        assert np.array_equal(inv.offset, -(inv.matrix @ pair.s.offset))
        assert array_norm(inv.apply(x_star) - x_star) <= 1e-12


class TestFixedPoints:
    def test_fixed_point_gaps(self):
        refl = _reflection()
        assert array_norm(refl.apply(np.array([0.5])) - 0.5) <= 1e-12
        assert not array_norm(refl.apply(np.array([0.0])) - 0.0) <= 1e-12
        assert array_norm(Mapping.identity(1).apply(np.array([123.0])) - 123.0) <= 0.0

    def test_common_fixed_point_gaps(self):
        p = get_problem("jungck-linear").pair()
        for u, fixed in ((np.array([0.0]), True), (np.array([1.0]), False)):
            gaps = array_norm(p.f.apply(u) - u), array_norm(p.s.apply(u) - u)
            assert (max(gaps) <= 1e-12) is fixed

    def test_limits_from_spread_starts_agree(self):
        starts = (-5.0, 0.0, 7.0)
        traces = [run_schaefer(_half(), _cfg(Scheme.SCHAEFER, (x,), c=1.0, tol=1e-10))
                  for x in starts]
        assert all(t.status is Status.CONVERGED for t in traces)
        assert all(abs(t.limit().coords[0]) < 1e-9 for t in traces)
        assert np.ptp([t.limit().coords[0] for t in traces]) <= 10 * 1e-10

    def test_identity_map_limits_disagree(self):
        # every start is already fixed, so the limits are the starts
        limits = [run_schaefer(Mapping.identity(1), _cfg(Scheme.SCHAEFER, (x,), c=0.5)).limit()
                  for x in (0.0, 1.0)]
        assert array_norm(limits[0].as_array() - limits[1].as_array()) > 10 * 1e-10

    def test_ten_dimensional_limits_agree_with_linear_solve(self):
        p = get_problem("affine-contraction-10d")
        lo, hi = p.box
        for t in np.linspace(lo, hi, 5):
            cfg = SolverConfig(Scheme.SCHAEFER, Point.from_array(np.full(10, t)), c=1.0, tol=1e-10)
            trace = run_schaefer(p.f, cfg)
            assert trace.status is Status.CONVERGED
            gap = trace.limit().as_array() - p.oracle_fixed_point.as_array()
            assert array_norm(gap) <= 1e-8


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


def _reference_iterate(scheme, f, cfg, pair=None):
    """Reference stepping loop that keeps one ``Point`` and tests every stop after each step."""
    c = 1.0 if scheme is Scheme.PICARD else cfg.c
    x = cfg.seed_point.as_array()
    sx = x if pair is None else pair.s.apply(x)
    # the pair checks never ask for less than the rounding of S(S^{-1}(y))
    tol = cfg.tol if pair is None else max(cfg.tol, pair.inverse_tol)
    iterates = [cfg.seed_point]
    residuals = []
    status = Status.MAX_ITER_EXCEEDED
    diverged_at = None
    for n in range(1, cfg.max_iter + 1):
        # unchecked, so that the shape test below names the iterate
        fx = np.asarray(f.fn(x), dtype=float)
        if pair is not None:
            reachable = pair.s.apply(pair.s_inverse.apply(fx))
            if array_norm(reachable - fx) > tol * max(1.0, array_norm(fx)):
                raise InverseError(f"f(u_{n - 1}) is not reproducible in the range of S", n)
        w = fx if c == 1.0 else (1.0 - c) * sx + c * fx
        x_new = w if pair is None else pair.s_inverse.apply(w)
        if x_new.shape != x.shape:
            raise InvalidInput(f"iterate {n} has shape {x_new.shape}, expected {x.shape}")
        if not np.all(np.isfinite(x_new)):
            status = Status.DIVERGED
            diverged_at = n
            break
        sx_new = x_new if pair is None else pair.s.apply(x_new)
        if pair is not None and array_norm(sx_new - w) > tol * max(1.0, array_norm(w)):
            raise InverseError(f"S(s_inverse(w)) != w at iteration {n}", n)
        r = array_norm(sx_new - sx, cfg.norm)
        iterates.append(Point.from_array(x_new))
        residuals.append(r)
        if r <= cfg.tol:
            status = Status.CONVERGED
            break
        if array_norm(x_new, cfg.norm) > cfg.divergence_bound:
            status = Status.DIVERGED
            diverged_at = n
            break
        x, sx = x_new, sx_new
    return tuple(iterates), tuple(residuals), status, diverged_at


def _rows(iterates):
    """The reference's iterates as the (n, d) array a trace stores in ``xs``."""
    return np.array([p.coords for p in iterates])


def _reference_csv(iterates, residuals, include_coords=True):
    """Reference CSV writer that formats one float at a time."""
    lines = ["iter,residual"]
    if include_coords:
        lines[0] += "," + ",".join(f"x{i}" for i in range(iterates[0].dim))
    for n, p in enumerate(iterates):
        row = f"{n},{'' if n == 0 else f'{residuals[n - 1]:.17g}'}"
        if include_coords:
            row += "," + ",".join(f"{x:.17g}" for x in p.coords)
        lines.append(row)
    return "\n".join(lines) + "\n"


# the buffer starts with 1024 rows and doubles when a block reaches rows 1024 and 2048
STOPS = (1, 1023, 1024, 1025, 2047, 2048, 2049)
# the stop tests run on blocks of 8, 16, ..., 256 steps (fewer rows at high dim),
# which end at these steps: 504 ends the first full 256-step block
BLOCK_EDGES = (8, 24, 56, 120, 248, 504, 760)
BLOCK_STOPS = (1, *(edge + step for edge in BLOCK_EDGES for step in (-1, 0, 1)))


def _scaled_identity(scale):
    return Mapping.affine(scale * np.eye(3), np.zeros(3))


def _doubling_until(limit, wrong_shape=False):
    """x -> 2x on R^1 until |x| reaches ``limit``; then it raises, or widens to R^2."""
    def fn(x):
        if abs(x[0]) < limit:
            return 2.0 * x
        if wrong_shape:
            return np.array([x[0], x[0]])
        raise ValueError(f"refused to evaluate at {x[0]}")
    return Mapping(fn=fn, dim=1)


def _pair_inverse_until(limit):
    """f = 4x, S = 2x, whose s_inverse halves only below ``limit``; c = 0.5 gives u_n = 1.5^n."""
    return PairProblem(
        Mapping.affine([[4.0]], [0.0]),
        Mapping.affine([[2.0]], [0.0]),
        s_inverse=Mapping(fn=lambda y: y / 2.0 if abs(y[0]) < limit else y, dim=1),
    )


def _expanding_pair(s_inverse=None):
    """f = 4x, S = 2x: with c = 0.5, u_n = 1.5 u_{n-1}, f(u_{n-1}) = 4 u_{n-1} and w_n = 3 u_{n-1}."""
    return PairProblem(Mapping.affine([[4.0]], [0.0]), Mapping.affine([[2.0]], [0.0]), s_inverse)


def _overflow_seed(step):
    """A seed from which the expanding pair's iterate first overflows at ``step``."""
    pair = _expanding_pair()
    cfg = _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5, max_iter=5000, divergence_bound=np.inf)
    iterates, _, status, diverged_at = _reference_iterate(Scheme.JUNGCK_SCHAEFER, pair.f, cfg, pair)
    assert status is Status.DIVERGED
    return iterates[diverged_at - step].coords[0]


def _scripted_inverse(**events):
    """s_inverse of the expanding pair from u_0 = 1: it halves, except where ``events`` says.

    A key "fx<n>" names f(u_{n-1}) = 4 * 1.5^(n-1), which the range check of step n
    inverts; "w<n>" names w_n = 3 * 1.5^(n-1), which step n inverts.  A value "miss"
    returns a preimage 1e-6 too large, so that S misses the input but the trajectory
    stays recognisable; "inf" returns inf and "raise" raises.
    """
    def inverse(y):
        v = y[0]
        for name, base in (("w", 3.0), ("fx", 4.0)):
            k = math.log(v / base, 1.5) if 0.0 < v < np.inf else 0.5
            action = events.get(f"{name}{round(k) + 1}") if abs(k - round(k)) < 0.05 else None
            if action == "miss":
                return y / 2.0 * (1.0 + 1e-6)
            if action == "inf":
                return np.array([np.inf])
            if action == "raise":
                raise ValueError(f"refused to invert {v}")
        return y / 2.0
    return Mapping(fn=inverse, dim=1)


def _shrinking3(shape):
    """x -> x / 2 on R^3 while max |x| >= 2^-10, then a result of ``shape``: step 13 from (1, -2, 3)."""
    def fn(x):
        return x / 2.0 if np.abs(x).max() >= 2.0**-10 else np.full(shape, x[0])
    return Mapping(fn=fn, dim=3)


def _equivalence_cases():
    """(id, scheme, f, pair, cfg, iterations it must stop at, or None).

    Where the reference loop raises, the solver must raise the same error.
    """
    doubling = Mapping.affine([[2.0]], [0.0])
    affine3 = get_problem("random-affine:3:0.999:5").f
    affine200 = get_problem("random-affine:200:0.999:1").f
    pair = get_problem("jungck-linear").pair()
    for k in NormKind:
        for stop in STOPS:
            yield (f"reflection-{k.value}-{stop}", Scheme.PICARD, _reflection(), None,
                   _cfg(Scheme.PICARD, (0.0,), max_iter=stop, norm=k), stop)
            if stop not in (2047, 2048):
                yield (f"affine3-{k.value}-{stop}", Scheme.SCHAEFER, affine3, None,
                       _cfg(Scheme.SCHAEFER, (1.0, -2.0, 3.0), c=0.001, max_iter=stop,
                            norm=k), stop)
        # overflow at iteration 1024 leaves a full 1024-row buffer
        yield (f"overflow-{k.value}", Scheme.PICARD, doubling, None,
               _cfg(Scheme.PICARD, (1.0,), divergence_bound=np.inf, norm=k), 1023)
        yield (f"converged-pair-{k.value}", Scheme.JUNGCK_SCHAEFER, pair.f, pair,
               _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5, norm=k), None)
    # the pair path costs most per iteration, so it crosses the doubling edges under one norm
    for stop in (1, 1023, 1024, 1025, 2049):
        yield (f"pair-l2-{stop}", Scheme.JUNGCK_SCHAEFER, pair.f, pair,
               _cfg(Scheme.JUNGCK_SCHAEFER, (1e4,), c=0.01, max_iter=stop), stop)
    # residual n of the halving map is exactly 2^-n ||seed||, and the norm of the doubling
    # map's iterate n is exactly 2^n ||seed||: each stop lands on a chosen step
    seed = (1.0, -2.0, 3.0)
    for k in NormKind:
        size = array_norm(np.array(seed), k)
        for stop in BLOCK_STOPS:
            yield (f"converge-{k.value}-{stop}", Scheme.PICARD, _scaled_identity(0.5), None,
                   _cfg(Scheme.PICARD, seed, tol=size * 2.0**-stop, norm=k), stop)
            yield (f"bound-{k.value}-{stop}", Scheme.PICARD, _scaled_identity(2.0), None,
                   _cfg(Scheme.PICARD, seed, divergence_bound=size * 2.0 ** (stop - 1),
                        norm=k), stop)
        yield (f"affine200-{k.value}", Scheme.SCHAEFER, affine200, None,
               _cfg(Scheme.SCHAEFER, (0.0,) * 200, c=0.001, max_iter=130, norm=k), 130)
    # 2^(1010 + 14) overflows at step 14, inside the second block
    yield ("overflow-mid-block", Scheme.PICARD, doubling, None,
           _cfg(Scheme.PICARD, (2.0**1010,), divergence_bound=np.inf), 13)
    # the bound stops step 21 (2^21 > 2^20); the map fails at 2^21, in step 22 of
    # the same block, or at 2^15, in step 16: the first event in step order decides
    for limit, stop in ((2.0**21, 21), (2.0**15, None)):
        for wrong_shape in (False, True):
            name = "widens" if wrong_shape else "raises"
            yield (f"map-{name}-at-{limit:g}", Scheme.PICARD,
                   _doubling_until(limit, wrong_shape), None,
                   _cfg(Scheme.PICARD, (1.0,), divergence_bound=2.0**20), stop)
    # the bound stops step 20 (1.5^20 > 0.9 * 1.5^20); f(u_20) = 4 * 1.5^20 fails the
    # range check in step 21, or f(u_15) in step 16
    for limit, stop in ((4.0 * 1.5**20, 20), (4.0 * 1.5**15, None)):
        guarded = _pair_inverse_until(limit)
        yield (f"pair-range-at-{limit:g}", Scheme.JUNGCK_SCHAEFER, guarded.f, guarded,
               _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5, divergence_bound=0.9 * 1.5**20),
               stop)
    # a pair overflows on a block's first row (9), in its middle (16) and on its last
    # row (24); at the bound 1e308 the overflow step is also the first past the bound
    expanding = _expanding_pair()
    for step in (9, 16, 24):
        seed = _overflow_seed(step)
        for bound in (np.inf, 1e308):
            yield (f"pair-overflow-{step}-{bound:g}", Scheme.JUNGCK_SCHAEFER, expanding.f,
                   expanding, _cfg(Scheme.JUNGCK_SCHAEFER, (seed,), c=0.5,
                                   divergence_bound=bound), step - 1)
    # S u_0 = 2e308 overflows at the seed; with c = 1, w = f(u_0) never meets it
    for c, stop in ((0.5, 0), (1.0, 1)):
        yield (f"jungck-start-1e308-c{c:g}", Scheme.JUNGCK_SCHAEFER, pair.f, pair,
               _cfg(Scheme.JUNGCK_SCHAEFER, (1e308,), c=c), stop)
    yield ("overflow-at-bound", Scheme.PICARD, doubling, None,
           _cfg(Scheme.PICARD, (2.0**1010,), divergence_bound=1.7e308), 13)
    # an explicit s_inverse fails the range check, gives a non-finite iterate, fails
    # S(S^{-1}(w)) = w or raises, on one step of the block of steps 9..24 or on two
    # adjacent ones, in both orders; the first in step order decides
    scripts = [
        {"fx12": "miss"}, {"w12": "inf"}, {"w12": "miss"}, {"fx12": "miss", "w12": "inf"},
        {"fx12": "miss", "w13": "inf"}, {"w12": "inf", "fx13": "miss"},
        {"fx12": "miss", "w13": "miss"}, {"w12": "miss", "fx13": "miss"},
        {"w12": "inf", "w13": "miss"}, {"w12": "miss", "w13": "inf"},
        {"w12": "miss", "w13": "miss"},
        {"fx12": "raise"}, {"w12": "raise"}, {"fx12": "raise", "w11": "miss"},
        {"w12": "raise", "fx12": "miss"}, {"fx12": "inf"},
        {"fx13": "raise", "w12": "miss"}, {"w12": "raise", "w13": "inf"},
    ]
    for script in scripts:
        scripted = _expanding_pair(_scripted_inverse(**script))
        name = "-".join(f"{k}:{v}" for k, v in script.items())
        yield (f"scripted-{name}", Scheme.JUNGCK_SCHAEFER, scripted.f, scripted,
               _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5, max_iter=40), None)
    # u_10 = 1.5^10 is past the bound: that stop comes before the failure at step 12
    scripted = _expanding_pair(_scripted_inverse(w12="raise"))
    yield ("scripted-bound-before-raise", Scheme.JUNGCK_SCHAEFER, scripted.f, scripted,
           _cfg(Scheme.JUNGCK_SCHAEFER, (1.0,), c=0.5, divergence_bound=0.9 * 1.5**10), 10)
    # a 3-d map whose result at step 13 has the wrong shape; none may be broadcast
    for shape in ((1,), (3, 1)):
        yield (f"shape-{shape}", Scheme.PICARD, _shrinking3(shape), None,
               _cfg(Scheme.PICARD, (1.0, -2.0, 3.0)), None)
    # every map a user's function: the same trace, though none sees the overflow
    plain = PairProblem(Mapping(fn=lambda x: 4.0 * x, dim=1), Mapping(fn=lambda x: 2.0 * x, dim=1),
                        s_inverse=Mapping(fn=lambda y: y / 2.0, dim=1))
    yield ("user-pair-overflow", Scheme.JUNGCK_SCHAEFER, plain.f, plain,
           _cfg(Scheme.JUNGCK_SCHAEFER, (_overflow_seed(16),), c=0.5, divergence_bound=np.inf), 15)


class TestArrayTrace:
    """``xs`` storage and the template CSV writer against the Point-per-iterate reference."""

    @pytest.mark.parametrize(
        "scheme,f,pair,cfg,stop",
        [pytest.param(*case[1:], id=case[0]) for case in _equivalence_cases()],
    )
    def test_matches_point_per_iterate_reference(self, scheme, f, pair, cfg, stop):
        try:
            iterates, residuals, status, diverged_at = _reference_iterate(scheme, f, cfg, pair)
        except Exception as exc:
            with pytest.raises(type(exc)) as err:
                _iterate_public(scheme, f, cfg, pair)
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            assert getattr(err.value, "iteration", None) == getattr(exc, "iteration", None)
            return
        trace = _iterate_public(scheme, f, cfg, pair)
        if stop is not None:
            assert trace.wall_iterations == stop
        assert trace.xs.tobytes() == _rows(iterates).tobytes()
        assert trace.residuals == residuals
        assert trace.status is status
        assert trace.diverged_at == diverged_at
        assert trace.to_csv(True) == _reference_csv(iterates, residuals, True)
        assert trace.to_csv(False) == _reference_csv(iterates, residuals, False)
        assert not trace.xs.flags.writeable
        with pytest.raises(ValueError):
            trace.xs[0, 0] = 1.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(min_value=1, max_value=5),
           rows=st.integers(min_value=1, max_value=6) | st.integers(min_value=100, max_value=3000))
    def test_csv_equals_per_float_format(self, data, dim, rows):
        # from 100 rows up, blocks reach the vectorised formatter
        edges = st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308])
        finite = edges | st.floats(allow_nan=False, allow_infinity=False)
        xs = data.draw(hnp.arrays(np.float64, (rows, dim), elements=finite))
        res = tuple(data.draw(hnp.arrays(np.float64, rows - 1, elements=finite)).tolist())
        trace = IterationTrace(Scheme.PICARD, xs, res, Status.MAX_ITER_EXCEEDED)
        points = tuple(Point(tuple(row)) for row in xs.tolist())
        for coords in (True, False):
            assert trace.to_csv(coords) == _reference_csv(points, res, coords)


def _recorded(fn, seen):
    def wrapped(x):
        seen.append(np.array(x, dtype=float))
        return fn(x)
    return wrapped


class TestBlockChecks:
    """The per-block checks: no user function sees a non-finite value, and the first
    row that fails the range check decides, in one block or row by row."""

    @pytest.mark.parametrize("affine_maps", [False, True])
    def test_no_user_function_sees_a_non_finite_value(self, affine_maps):
        seen = []
        if affine_maps:
            f, s = Mapping.affine([[4.0]], [0.0]), Mapping.affine([[2.0]], [0.0])
        else:
            f = Mapping(fn=_recorded(lambda x: 4.0 * x, seen), dim=1)
            s = Mapping(fn=_recorded(lambda x: 2.0 * x, seen), dim=1)
        pair = PairProblem(f, s, s_inverse=Mapping(fn=_recorded(lambda y: y / 2.0, seen), dim=1))
        for c in (0.5, 1.0):
            cfg = _cfg(Scheme.JUNGCK_SCHAEFER, (_overflow_seed(16),), c=c,
                       divergence_bound=np.inf)
            assert run_jungck_schaefer(pair, cfg).status is Status.DIVERGED
        doubling = Mapping(fn=_recorded(lambda x: 2.0 * x, seen), dim=1)
        for scheme, c in ((Scheme.PICARD, 1.0), (Scheme.SCHAEFER, 0.5)):
            cfg = _cfg(scheme, (2.0**1010,), c=c, divergence_bound=np.inf)
            assert _iterate_public(scheme, doubling, cfg, None).status is Status.DIVERGED
        assert len(seen) > 50
        assert all(np.isfinite(x).all() for x in seen)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(min_value=1, max_value=3),
           scheme=st.sampled_from(list(Scheme)), norm=st.sampled_from(list(NormKind)),
           c=st.sampled_from([1.0, 0.5, 0.01]), max_iter=st.integers(min_value=1, max_value=300))
    def test_random_affine_runs_match_the_reference(self, data, dim, scheme, norm, c, max_iter):
        # entries up to 3 in size: runs that converge, wander, hit the bound or overflow
        entries = st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False)

        def draw(shape):
            return np.array(data.draw(hnp.arrays(np.float64, shape, elements=entries)))
        f = Mapping.affine(draw((dim, dim)), draw((dim,)))
        pair = None
        if scheme is Scheme.JUNGCK_SCHAEFER:
            s = draw((dim, dim)) + 4.0 * np.eye(dim)
            pair = PairProblem(f, Mapping.affine(s, draw((dim,))))
        seed = tuple(data.draw(st.floats(-1e300, 1e300)) for _ in range(dim))
        cfg = _cfg(scheme, seed, c=c, max_iter=max_iter, norm=norm,
                   tol=data.draw(st.sampled_from([1e-12, 1e-6])),
                   divergence_bound=data.draw(st.sampled_from([1e6, 1e300, np.inf])))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = _reference_iterate(scheme, f, cfg, pair)
            except Exception as exc:
                with pytest.raises(type(exc)) as err:
                    _iterate_public(scheme, f, cfg, pair)
                assert str(err.value) == str(exc)
                assert getattr(err.value, "iteration", None) == getattr(exc, "iteration", None)
                return
        trace = _iterate_public(scheme, f, cfg, pair)
        iterates, *rest = want
        assert trace.xs.tobytes() == _rows(iterates).tobytes()
        assert [trace.residuals, trace.status, trace.diverged_at] == rest

    @pytest.mark.parametrize("shape", [(1,), (3, 1)])
    def test_wrong_shaped_map_result_is_not_broadcast_when_averaged(self, shape):
        with pytest.raises(InvalidInput) as err:
            run_schaefer(_shrinking3(shape), _cfg(Scheme.SCHAEFER, (1.0, -2.0, 3.0), c=0.5))
        # at c = 0.5 the iterate shrinks by 3/4 a step: max |u_28| = 3 (3/4)^28 < 2^-10
        assert str(err.value) == f"iterate 29 has shape {shape}, expected (3,)"

    def test_first_unreachable_row_decides(self):
        ys = np.array([[1.0, 0.0], [2.0, 0.0], [np.inf, 1.0], [3.0, 1.0], [np.nan, 1.0],
                       [5.0, 1.0], [6.0, 0.0]])
        s = Mapping.affine(2.0 * np.eye(2), np.zeros(2))
        exact = PairProblem(Mapping.identity(2), s)
        assert exact._first_unreachable(ys, 1e-10) == (len(ys), None)
        assert exact._first_unreachable(ys[:0], 1e-10) == (0, None)
        # an affine inverse that misses every row with y_1 != 0, in one block: the
        # non-finite rows pass, and the first finite miss decides
        skewed = PairProblem(Mapping.identity(2), s,
                             s_inverse=Mapping.affine([[0.5, 0.0], [0.0, 0.6]], np.zeros(2)))
        assert skewed._first_unreachable(ys, 1e-10) == (3, None)
        assert skewed._first_unreachable(ys[:2], 1e-10) == (2, None)
        assert skewed._first_unreachable(ys[4:], 1e-10) == (1, None)
        # row by row, an error and a miss: the first decides
        ys = ys[:, :1]
        for bad, first in (({3.0: "miss", 6.0: "raise"}, 3), ({1.0: "raise", 5.0: "miss"}, 0)):
            def inverse(y, bad=bad):
                if bad.get(y[0]) == "raise":
                    raise ValueError("refused")
                return y if bad.get(y[0]) == "miss" else y / 2.0
            i, exc = _expanding_pair(Mapping(fn=inverse, dim=1))._first_unreachable(ys, 1e-10)
            assert i == first and isinstance(exc, ValueError) == (bad[ys[first, 0]] == "raise")


def _kernel_text(x):
    """The strings ``fmt_array`` lays out, one per value."""
    return [row[row != 0].tobytes().decode("ascii") for row in fmt_array(x)]


def _check_kernel(values):
    """``fmt_array`` against ``"%.17g" % v``, on an array above the size threshold."""
    x = np.resize(np.asarray(values, dtype=float), max(len(values), _KERNEL_MIN))
    expected = ["%.17g" % v for v in x.tolist()]
    assert _kernel_text(x) == expected


# sign, then a biased exponent field from below 1e-11 to above 2**53, then the mantissa
_FAST_BAND_BITS = st.builds(lambda sign, exp, mant: sign << 63 | exp << 52 | mant,
                            st.integers(0, 1), st.integers(985, 1077),
                            st.integers(0, 2**52 - 1))


class TestFmtKernel:
    """The exact vectorised "%.17g" against CPython's, value by value."""

    def test_edge_values(self):
        powers = [float(f"1e{k}") for k in range(-12, 18)]
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3e-320,
                  float("nan"), float("inf"), float("-inf"), 1.7976931348623157e308,
                  2.0**53, 1e-11, 1e-4, 1e-5, 0.5, 1.0, 123.0, 2.0**52 + 0.5]
        for v in powers + [2.0**53, 1e-11]:
            values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
        values += [10.0**k for k in range(-12, 18)]
        _check_kernel(values + [-v for v in values])

    def test_exact_ties_round_half_to_even(self):
        # x = M / 2**(P+1) with M odd is exact, and x * 10**P = M * 5**P / 2 = N + 1/2
        rng = np.random.default_rng(7)
        ties = []
        for p in range(1, 25):
            lo, hi = -(-(2 * 10**16 + 1) // 5**p), min(2**53, (2 * 10**17) // 5**p)
            for m in rng.integers(lo, hi + 1, size=50).tolist():
                m |= 1
                if m * 5**p > 2 * 10**17:
                    continue
                x = m / 2**(p + 1)
                n = (m * 5**p - 1) // 2
                assert 10**16 <= n < 10**17 and Fraction(x) * 10**p == n + Fraction(1, 2)
                ties.append(x)
        assert len(ties) > 1000
        _check_kernel(ties + [-t for t in ties])

    def test_integers_print_as_decimal_integers(self):
        n = np.concatenate((np.arange(3000.0), 2.0**53 - np.arange(1.0, 600.0)))
        assert _kernel_text(n) == [str(int(v)) for v in n.tolist()]

    def test_seeded_bulk(self):
        rng = np.random.default_rng(20261017)
        band = np.ldexp(rng.random(50_000) + 0.5, rng.integers(-40, 55, 50_000))
        bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False).view(np.float64)
        _check_kernel(np.concatenate((band, -band * 3.0, bits)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1) | _FAST_BAND_BITS, min_size=1, max_size=64))
    def test_bit_patterns(self, bits):
        _check_kernel(np.array(bits, dtype=np.uint64).view(np.float64))


def _iterate_public(scheme, f, cfg, pair):
    if scheme is Scheme.JUNGCK_SCHAEFER:
        return run_jungck_schaefer(pair, cfg)
    return (run_picard if scheme is Scheme.PICARD else run_schaefer)(f, cfg)


def test_seed_dimension_mismatch():
    with pytest.raises(InvalidInput):
        run_picard(_half(), _cfg(Scheme.PICARD, (1.0, 2.0)))
