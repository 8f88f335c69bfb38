"""Seeded random instances for the verification suites.

Everything is driven by a single random.Random so identical seeds reproduce
identical instances bit for bit.
"""
from __future__ import annotations

import random

from .copulas import EmpiricalCopula, discretize_joint
from .distributions import Empirical, Uniform
from .oracle import DiscreteMeasureND


def random_empirical(rng: random.Random, max_atoms: int = 12) -> Empirical:
    """Empirical law with distinct locations and integer weights."""
    n = rng.randint(1, max_atoms)
    locs = [round(rng.uniform(-5.0, 5.0), 6) for _ in range(n)]
    weights = [rng.randint(1, 9) for _ in range(n)]
    return Empirical(zip(locs, weights))


def random_empirical_copula(rng: random.Random, n: int, d: int) -> EmpiricalCopula:
    """The rank copula of d independently shuffled columns of 0..n-1."""
    cols = []
    for _ in range(d):
        ranks = list(range(n))
        rng.shuffle(ranks)
        cols.append(ranks)
    return EmpiricalCopula.from_data(list(zip(*cols)))


def random_margin(rng: random.Random):
    """Either a uniform interval or a small empirical law."""
    if rng.random() < 0.5:
        a = rng.uniform(-3.0, 3.0)
        return Uniform(a, a + rng.uniform(0.5, 4.0))
    return random_empirical(rng, max_atoms=6)


def random_shared_instance(
    rng: random.Random, d: int
) -> tuple[EmpiricalCopula, DiscreteMeasureND, DiscreteMeasureND]:
    """A copula C with rank rows and the Sklar assemblies on C of two random
    lists of d margins: two laws on R^d that share C by construction."""
    n = rng.randint(2, 10)
    C = random_empirical_copula(rng, n, d)
    marginsF = [random_margin(rng) for _ in range(d)]
    marginsG = [random_margin(rng) for _ in range(d)]
    mu, nu = (DiscreteMeasureND(discretize_joint(C, m)) for m in (marginsF, marginsG))
    return C, mu, nu


def random_discrete_nd(
    rng: random.Random, d: int, max_atoms: int = 6
) -> DiscreteMeasureND:
    """Arbitrary (non-shared-copula) discrete measure on R^d."""
    n = rng.randint(1, max_atoms)
    atoms = []
    for _ in range(n):
        loc = tuple(round(rng.uniform(-3.0, 3.0), 6) for _ in range(d))
        atoms.append((loc, rng.randint(1, 9)))
    return DiscreteMeasureND(atoms)


def necessity_instance() -> tuple[DiscreteMeasureND, DiscreteMeasureND]:
    """Two laws with identical uniform margins but different copulas.

    The first puts mass on the diagonal pseudo-observations, the second on
    the antidiagonal; any coupling must move mass, so the optimal cost is
    strictly positive while every coordinatewise distance vanishes.
    """
    mu = DiscreteMeasureND([((0.25, 0.25), 1), ((0.75, 0.75), 1)])
    nu = DiscreteMeasureND([((0.25, 0.75), 1), ((0.75, 0.25), 1)])
    return mu, nu
