"""Hypothesis properties: the scheme and sides reductions hold bit for bit.

Picard is the averaged scheme with c = 1, the averaged scheme is the pair
scheme with S = identity, and the plain Hardy-Rogers sides are the Jungck
sides with S = identity.  Checked with ``==`` on random affine maps in
dimensions 1-5, contracting or not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp.contraction import Coefficients, hr_sides, jungck_sides
from enrichedfp.solver import (
    PairProblem,
    Scheme,
    SolverConfig,
    run_jungck_schaefer,
    run_picard,
    run_schaefer,
)
from enrichedfp.space import Mapping, NormKind, Point

entries = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
weights = st.floats(min_value=0.0, max_value=0.19, allow_nan=False)


@st.composite
def affine_maps(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    a = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
    b = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
    return Mapping.affine(a.reshape(dim, dim), b)


def points(dim):
    return st.lists(coords, min_size=dim, max_size=dim).map(lambda xs: Point(tuple(xs)))


def _run(scheme, f, start, c, norm):
    cfg = SolverConfig(scheme=scheme, seed_point=start, c=c, norm=norm, max_iter=60)
    if scheme is Scheme.JUNGCK_SCHAEFER:
        return run_jungck_schaefer(PairProblem(f, Mapping.identity(f.dim)), cfg)
    return (run_picard if scheme is Scheme.PICARD else run_schaefer)(f, cfg)


def _same_trace(a, b):
    assert a.xs.tobytes() == b.xs.tobytes()
    assert a.residuals == b.residuals
    assert (a.status, a.diverged_at) == (b.status, b.diverged_at)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), f=affine_maps(), norm=st.sampled_from(NormKind))
def test_c_one_and_identity_s_reduce_to_picard(data, f, norm):
    start = data.draw(points(f.dim))
    picard = _run(Scheme.PICARD, f, start, 1.0, norm)
    _same_trace(_run(Scheme.SCHAEFER, f, start, 1.0, norm), picard)
    _same_trace(_run(Scheme.JUNGCK_SCHAEFER, f, start, 1.0, norm), picard)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    f=affine_maps(),
    c=st.floats(min_value=0.01, max_value=1.0),
    norm=st.sampled_from(NormKind),
)
def test_averaged_scheme_is_identity_s_pair_scheme(data, f, c, norm):
    start = data.draw(points(f.dim))
    _same_trace(
        _run(Scheme.JUNGCK_SCHAEFER, f, start, c, norm),
        _run(Scheme.SCHAEFER, f, start, c, norm),
    )


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    f=affine_maps(),
    delta=st.floats(min_value=0.0, max_value=3.0),
    cs=st.tuples(weights, weights, weights, weights, weights),
    norm=st.sampled_from(NormKind),
)
def test_identity_s_sides_are_plain_sides(data, f, delta, cs, norm):
    u, v = data.draw(points(f.dim)), data.draw(points(f.dim))
    co = Coefficients(delta, *cs)
    assert jungck_sides(f, Mapping.identity(f.dim), u, v, co, norm) == hr_sides(f, u, v, co, norm)
