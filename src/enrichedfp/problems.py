"""Built-in problem suite: canonical mappings with known fixed points,
seeded random affine contractions, and an independent bisection oracle.

Random instances are pure functions of (dim, spectral_cap, seed); the
generator is numpy's default PCG64 stream, so instances reproduce across
machines for a pinned numpy major version.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .contraction import Coefficients, ContractionVariant, Variant
from .errors import ConfigError, InvalidInput, NoRootBracketed
from .solver import PairProblem
from .space import Mapping, Point, check_size

__all__ = [
    "ProblemInstance",
    "builtin_problems",
    "get_problem",
    "random_affine",
    "oracle_fixed_point_1d",
]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A named mapping (or commuting pair) plus certification metadata.

    ``certified_as`` records the contraction class and coefficients the
    instance is known to satisfy over ``box``; ``oracle_fixed_point`` is an
    independently computed fixed point (linear solve or algebra, never the
    iteration schemes themselves).
    """

    name: str
    f: Mapping
    box: tuple[float, float]
    s: Optional[Mapping] = None
    certified_as: Optional[tuple[ContractionVariant, Coefficients]] = None
    oracle_fixed_point: Optional[Point] = None

    @property
    def is_pair(self) -> bool:
        return self.s is not None

    def pair(self) -> PairProblem:
        if self.s is None:
            raise InvalidInput(f"problem {self.name!r} is not a pair problem")
        return PairProblem(f=self.f, s=self.s)


def _kannan_branchy(x: float) -> float:
    # discontinuous at 0.5; both branches contract toward 0
    return x / 4.0 if x < 0.5 else x / 5.0


def builtin_problems() -> list[ProblemInstance]:
    """The fixed, named problem registry."""
    half = Mapping.affine([[0.5]], [0.0])
    reflection = Mapping.affine([[-1.0]], [1.0])
    kannan = Mapping.from_scalar(_kannan_branchy)
    jungck_f = Mapping.affine([[0.5]], [0.0])
    jungck_s = Mapping.affine([[2.0]], [0.0])
    doubling = Mapping.affine([[2.0]], [0.0])
    affine10 = replace(random_affine(10, 0.9, seed=7), name="affine-contraction-10d")

    return [
        ProblemInstance(
            name="half-map",
            f=half,
            box=(-10.0, 10.0),
            certified_as=(
                ContractionVariant(Variant.HARDY_ROGERS),
                Coefficients(delta=0.0, c1=0.6),
            ),
            oracle_fixed_point=Point.of(0.0),
        ),
        ProblemInstance(
            name="reflection",
            f=reflection,
            box=(-10.0, 10.0),
            # delta = 1 makes the perturbed displacement vanish identically
            certified_as=(
                ContractionVariant(Variant.HARDY_ROGERS),
                Coefficients(delta=1.0, c1=0.5),
            ),
            oracle_fixed_point=Point.of(0.5),
        ),
        ProblemInstance(
            name="kannan-style",
            f=kannan,
            box=(-1.0, 1.0),
            certified_as=(
                ContractionVariant(Variant.HARDY_ROGERS),
                Coefficients(delta=0.0, c2=0.4, c5=0.4),
            ),
            oracle_fixed_point=Point.of(0.0),
        ),
        affine10,
        ProblemInstance(
            # expansion with a fixed point at 0; the stock violation target
            name="doubling",
            f=doubling,
            box=(-10.0, 10.0),
            oracle_fixed_point=Point.of(0.0),
        ),
        ProblemInstance(
            name="jungck-linear",
            f=jungck_f,
            s=jungck_s,
            box=(-10.0, 10.0),
            certified_as=(
                ContractionVariant(Variant.JUNGCK_HARDY_ROGERS, s_map=jungck_s),
                Coefficients(delta=0.0, c1=0.3),
            ),
            oracle_fixed_point=Point.of(0.0),
        ),
    ]


def get_problem(name: str) -> ProblemInstance:
    """Registry lookup; 'random-affine:dim:cap:seed' addresses seeded instances."""
    for p in builtin_problems():
        if p.name == name:
            return p
    if name.startswith("random-affine:"):
        parts = name.split(":")
        if len(parts) != 4:
            raise ConfigError(f"bad random-affine spec {name!r}; want random-affine:dim:cap:seed")
        try:
            dim, cap, seed = int(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ConfigError(f"bad random-affine spec {name!r}: {exc}") from exc
        if seed < 0:
            raise ConfigError(f"bad random-affine spec {name!r}: negative seed {seed}")
        # checked before random_affine allocates the matrix; it refuses dim < 1 itself
        check_size(max(dim, 0) ** 2, f"a {dim} x {dim} matrix")
        return random_affine(dim, cap, seed)
    known = ", ".join(p.name for p in builtin_problems())
    raise ConfigError(f"unknown problem {name!r}; known problems: {known}")


def random_affine(dim: int, spectral_cap: float, seed: int) -> ProblemInstance:
    """Seeded affine map x -> A x + b with operator norm capped below 1.

    Entries are uniform(-1, 1); A is rescaled so its Frobenius norm (an upper
    bound on the L2 operator norm, hence on the spectral radius) is at most
    ``spectral_cap``.  The fixed point comes from solving (I - A) x = b.
    """
    if dim < 1:
        raise InvalidInput("dim must be at least 1")
    if not (0.0 < spectral_cap < 1.0):
        raise InvalidInput(f"spectral_cap must lie in (0, 1), got {spectral_cap}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(dim, dim))
    bound = float(np.linalg.norm(a, "fro"))
    if bound > spectral_cap:
        a *= spectral_cap / bound
    b = rng.uniform(-1.0, 1.0, size=dim)
    x_star = np.linalg.solve(np.eye(dim) - a, b)
    residual = float(np.linalg.norm(a @ x_star + b - x_star))
    assert residual <= 1e-9, f"linear-solve oracle residual {residual:g}"
    oracle = Point.from_array(x_star)
    f = Mapping.affine(a, b)
    return ProblemInstance(
        name=f"random-affine:{dim}:{spectral_cap:g}:{seed}",
        f=f,
        box=(-10.0, 10.0),
        certified_as=(
            ContractionVariant(Variant.HARDY_ROGERS),
            Coefficients(delta=0.0, c1=spectral_cap),
        ),
        oracle_fixed_point=oracle,
    )


def oracle_fixed_point_1d(f: Mapping, lo: float, hi: float, tol: float = 1e-12) -> Point:
    """Bisection root of g(x) = f(x) - x on [lo, hi], independent of any scheme.

    Raises NoRootBracketed when g does not change sign over the interval.
    """
    if f.dim != 1:
        raise InvalidInput("bisection oracle only applies to one-dimensional maps")
    if not (lo < hi):
        raise InvalidInput(f"empty interval [{lo}, {hi}]")

    def g(x: float) -> float:
        return float(f.apply(np.asarray([x]))[0]) - x

    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return Point.of(lo)
    if ghi == 0.0:
        return Point.of(hi)
    if glo * ghi > 0:
        raise NoRootBracketed(f"f(x) - x does not change sign on [{lo}, {hi}]")
    a, b_ = lo, hi
    ga = glo
    while b_ - a > tol:
        m = 0.5 * (a + b_)
        gm = g(m)
        if gm == 0.0:
            return Point.of(m)
        if ga * gm < 0:
            b_ = m
        else:
            a, ga = m, gm
    return Point.of(0.5 * (a + b_))
