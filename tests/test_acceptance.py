"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import math
from contextlib import contextmanager

import numpy as np

from enrichedfp.cclass import (
    get_triple,
    validate_altering,
    validate_cclass,
    validate_monotone_triple,
    validate_phiu,
)
from enrichedfp.contraction import (
    Coefficients,
    ContractionVariant,
    PairSampler,
    Variant,
    certify,
    hr_sides,
    jungck_sides,
)
from enrichedfp.problems import builtin_problems, random_affine
from enrichedfp.solver import (
    PairProblem,
    Scheme,
    SolverConfig,
    Status,
    run_jungck_schaefer,
    run_picard,
    run_schaefer,
)
from enrichedfp.space import Mapping, Point, array_norm


@contextmanager
def criterion(num, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")


def _certified():
    return [p for p in builtin_problems() if p.certified_as is not None]


def _start_for(problem):
    lo, hi = problem.box
    return Point.from_array(0.8 * hi * np.ones(problem.f.dim))


def test_criterion_1_averaged_scheme_beats_direct_iteration():
    with criterion(1, "averaged scheme beats direct iteration on the reflection map"):
        reflection = Mapping.affine([[-1.0]], [1.0])
        picard = run_picard(
            reflection,
            SolverConfig(Scheme.PICARD, Point.of(0.0), max_iter=50),
        )
        assert picard.status is Status.MAX_ITER_EXCEEDED
        assert all(r == 1.0 for r in picard.residuals)  # period-2 orbit

        averaged = run_schaefer(
            reflection,
            SolverConfig.with_delta(Scheme.SCHAEFER, Point.of(0.0), delta=1.0),
        )
        assert averaged.status is Status.CONVERGED
        assert averaged.wall_iterations <= 2
        assert abs(averaged.limit().coords[0] - 0.5) <= 1e-12


def test_criterion_2_oracle_equivalence_on_affine_problems():
    with criterion(2, "averaged-iteration limits match linear-solve oracles"):
        for seed in range(20):
            dim = seed % 10 + 1
            inst = random_affine(dim, 0.9, seed)
            cfg = SolverConfig(
                Scheme.SCHAEFER,
                Point.from_array(np.zeros(dim)),
                c=1.0,
                tol=1e-10,
                max_iter=500,
            )
            trace = run_schaefer(inst.f, cfg)
            assert trace.status is Status.CONVERGED
            assert trace.wall_iterations <= 500
            gap = trace.limit().as_array() - inst.oracle_fixed_point.as_array()
            assert array_norm(gap) <= 1e-8


def test_criterion_3_limits_fix_the_base_map():
    with criterion(3, "converged limits fix f itself, not only the averaged map"):
        converged_runs = 0
        for problem in builtin_problems():
            for c in (0.1, 0.25, 0.5, 0.75, 1.0):
                cfg = SolverConfig(
                    Scheme.SCHAEFER, _start_for(problem), c=c, tol=1e-10
                )
                trace = run_schaefer(problem.f, cfg)
                if trace.status is not Status.CONVERGED:
                    continue
                converged_runs += 1
                limit = trace.limit().as_array()
                assert array_norm(problem.f.apply(limit) - limit) <= 1e-8, (
                    f"{problem.name} at c={c}: limit does not fix the base map"
                )
        assert converged_runs >= 20  # the suite is not vacuous


def test_criterion_4_residual_monotonicity():
    with criterion(4, "residuals never increase along certified averaged traces"):
        for problem in _certified():
            _, coeffs = problem.certified_as
            cfg = SolverConfig.with_delta(
                Scheme.SCHAEFER, _start_for(problem), coeffs.delta, tol=1e-10
            )
            trace = run_schaefer(problem.f, cfg)
            assert trace.status is Status.CONVERGED, problem.name
            for r_prev, r_next in zip(trace.residuals, trace.residuals[1:]):
                assert r_next <= r_prev + 1e-12, (
                    f"{problem.name}: residual rose from {r_prev} to {r_next}"
                )


def test_criterion_5_common_fixed_point_of_the_pair():
    with criterion(5, "pair iteration reaches a common fixed point; identity S reduces"):
        pair = next(p for p in builtin_problems() if p.name == "jungck-linear")
        trace = run_jungck_schaefer(
            pair.pair(),
            SolverConfig(Scheme.JUNGCK_SCHAEFER, Point.of(1.0), c=0.5, tol=1e-10),
        )
        assert trace.status is Status.CONVERGED
        limit = trace.limit().as_array()
        assert array_norm(pair.f.apply(limit) - limit) <= 1e-8
        assert array_norm(pair.s.apply(limit) - limit) <= 1e-8

        f = pair.f
        ident = Mapping.identity(1)
        tj = run_jungck_schaefer(
            PairProblem(f, ident),
            SolverConfig(Scheme.JUNGCK_SCHAEFER, Point.of(1.0), c=0.5, tol=1e-10),
        )
        ts = run_schaefer(
            f, SolverConfig(Scheme.SCHAEFER, Point.of(1.0), c=0.5, tol=1e-10)
        )
        assert tj.xs.tobytes() == ts.xs.tobytes()  # bit-identical
        assert tj.residuals == ts.residuals


def test_criterion_6_contraction_certificates():
    with criterion(6, "certificates: satisfied on the half map, violated on doubling"):
        half = Mapping.affine([[0.5]], [0.0])
        doubling = Mapping.affine([[2.0]], [0.0])
        sampler = PairSampler(dim=1, lo=-10.0, hi=10.0, count=1024, seed=0)
        plain = ContractionVariant(Variant.HARDY_ROGERS)

        good = certify(plain, half, Coefficients(delta=0.0, c1=0.6), sampler)
        assert good.satisfied
        assert good.pairs_checked >= 1000

        co = Coefficients(delta=0.0, c1=0.9)
        bad = certify(plain, doubling, co, sampler)
        assert not bad.satisfied
        # witness reproduces as the first in-order violation
        for ua, va in sampler.pairs():
            u, v = Point.from_array(ua), Point.from_array(va)
            lhs, rhs = hr_sides(doubling, u, v, co)
            if lhs > rhs + 1e-9 * max(lhs, rhs, 1.0):
                assert (bad.witness_u, bad.witness_v) == (u, v)
                break

        rerun = certify(plain, doubling, co, sampler)
        assert rerun.to_json() == bad.to_json()  # byte-identical report


def test_criterion_7_cclass_fixtures():
    with criterion(7, "triple fixtures: monotone passes, square weighting is caught"):
        mono = get_triple("example-2.5-monotone")
        assert validate_altering(mono.psi).passed
        assert validate_phiu(mono.phi).passed
        assert validate_cclass(mono.g).passed
        assert validate_monotone_triple(mono).passed

        nonmono = get_triple("example-2.6-nonmonotone")
        res = validate_monotone_triple(nonmono)
        assert not res.passed
        x, y = res.witness
        assert x < y
        assert 0.39 <= x and y <= 1.0
        # sqrt - square strictly decreases across the witness pair
        assert math.sqrt(x) - x * x > math.sqrt(y) - y * y


def test_criterion_8_reduction_identities():
    with criterion(8, "identity-S sides and c = 1 traces reduce exactly"):
        f = Mapping.affine([[0.3, -0.1], [0.2, 0.4]], [1.0, -2.0])
        ident = Mapping.identity(2)
        co = Coefficients(delta=0.5, c1=0.2, c2=0.1, c3=0.1, c4=0.1, c5=0.1)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            u = Point.from_array(rng.uniform(-10, 10, 2))
            v = Point.from_array(rng.uniform(-10, 10, 2))
            lhs_h, rhs_h = hr_sides(f, u, v, co)
            lhs_j, rhs_j = jungck_sides(f, ident, u, v, co)
            assert abs(lhs_j - lhs_h) <= 1e-15 * max(abs(lhs_h), 1.0)
            assert abs(rhs_j - rhs_h) <= 1e-15 * max(abs(rhs_h), 1.0)

        half = Mapping.affine([[0.5]], [0.0])
        tp = run_picard(half, SolverConfig(Scheme.PICARD, Point.of(3.0), tol=1e-10))
        ts = run_schaefer(half, SolverConfig(Scheme.SCHAEFER, Point.of(3.0), c=1.0, tol=1e-10))
        assert ts.xs.tobytes() == tp.xs.tobytes()
        assert ts.residuals == tp.residuals


def _limits(f, starts, **kw):
    """Averaged-iteration limits from each start; every run must converge."""
    traces = [run_schaefer(f, SolverConfig.with_delta(Scheme.SCHAEFER, u, **kw)) for u in starts]
    assert all(t.status is Status.CONVERGED for t in traces)
    return [t.limit().as_array() for t in traces]


def test_criterion_9_limits_agree_from_spread_starts():
    with criterion(9, "limits agree from spread starts; identity map is flagged"):
        for problem in _certified():
            _, coeffs = problem.certified_as
            lo, hi = problem.box
            # five starts spread along the diagonal of the box
            starts = [Point.from_array(np.full(problem.f.dim, t)) for t in np.linspace(lo, hi, 5)]
            limits = _limits(problem.f, starts, delta=coeffs.delta, tol=1e-10)
            for i, a in enumerate(limits):
                for b in limits[i + 1:]:
                    assert array_norm(a - b) <= 10 * 1e-10, problem.name

        ident = Mapping.identity(1)
        a, b = _limits(ident, [Point.of(0.0), Point.of(1.0)], delta=1.0, tol=1e-10)
        assert array_norm(a - b) > 10 * 1e-10
