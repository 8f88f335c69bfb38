"""Workload inputs, generated from (seed, instance, tier) with numpy alone,
and the order a round runs them in.

The measuring process (worker.py) feeds these inputs to wassercop; the
parent (run.py) regenerates the same inputs to compute its independent
references, so this module must never import wassercop.

A tier's figure is the median over its instances of the fastest run of
each (see PLANS): the host's core switches within seconds between a fast
state and one about twice as slow, and the fastest of several runs spread
over a run finds the fast state, while the median over instances keeps the
instance-to-instance variation (the simplex pivot count, the quadrature
work) from following the seed.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

TIERS = ("light", "medium", "heavy")

ATOMIC_SIZES = {"light": 1_000, "medium": 10_000, "heavy": 100_000}
CLI_MEDIUM_ROWS = 10_000
ORACLE_ATOMS = 64  # the oracle's default atom cap
MIXED_ATOMS = 100
UNIFORM_PAIRS = 10  # a light operation of one pair would last 0.2 ms, near timer noise
FAILING_ATOMS = 256  # beyond the 199-breakpoint limit of scipy's quad
VERIFY_SUITES = (
    "comonotone_optimality",
    "formula_triangle",
    "metric_axioms",
    "decomposition",
    "necessity",
    "frechet_hoeffding",
    "wpq_sandwich",
    "continuous_sanity",
    "assignment",
)

# Routes run on each continuous pair: (route, p). Each listed route met ten
# times the program's stated quadrature tolerance on thousands of generated
# pairs; the routes left out miss it on some pairs (see README.md).
CONTINUOUS_ROUTES = {
    "uniform": (("quantile", 2.0), ("via_M", 2.0)),
    "exponential": tuple((r, p) for p in (1.0, 2.0, 3.0) for r in ("quantile", "via_M"))
    + (("cdf", 1.0),),
    "mixed": tuple((r, p) for p in (2.0, 3.0) for r in ("quantile", "via_M")),
}
ATOMIC_ROUTES = (("quantile", 2.0), ("via_M", 2.0), ("cdf", 1.0))
# (instances, runs) of each tier. A tier with a number of instances draws
# them once per run and every round runs each of them `runs` times; with
# None, every round draws a fresh instance and runs it `runs` times. One
# instance suffices where its fastest run varies by a few percent from
# instance to instance (measured: atomic-large light 5%, oracle-cap light
# and medium 2%); the continuous quadrature work varies more and takes
# eight. oracle-cap heavy, whose Bland pivot count varies most, takes a
# fresh instance every round, seven to ten per run; six instances run
# twice each were no steadier in a trial and made the run a fifth longer.
PLANS = {
    "cli-cold": {"light": (1, 6), "medium": (1, 3), "heavy": (1, 1)},
    "atomic-large": {"light": (1, 48), "medium": (1, 12), "heavy": (1, 1)},
    "oracle-cap": {"light": (1, 20), "medium": (1, 20), "heavy": (None, 1)},
    "continuous": {"light": (8, 1), "medium": (8, 1), "heavy": (8, 1)},
}


def round_schedule(workload: str, fresh: int) -> list[tuple[str, int]]:
    """One round's operations as (tier, instance); `fresh` is the instance
    a tier without fixed instances takes this round. Each tier's operations
    are spread evenly over the round, and a tier's instances take turns,
    so the runs of one instance fall on different stretches of the run."""
    slots = []
    for t, tier in enumerate(TIERS):
        instances, runs = PLANS[workload][tier]
        ids = list(range(instances)) if instances else [fresh]
        ops = [i for _ in range(runs) for i in ids]
        slots += [((k + 0.5) / len(ops), t, tier, i) for k, i in enumerate(ops)]
    return [(tier, i) for _, _, tier, i in sorted(slots)]


def route_key(route: str, p: float, pair: str | None = None) -> str:
    """How an operation's output names one route's value: "route/p", with a
    "<kind><index>:" prefix for the pairs of a continuous operation."""
    return f"{pair}:{route}/{p}" if pair else f"{route}/{p}"


def rng(seed: int, instance: int, tier: str) -> np.random.Generator:
    return np.random.default_rng([seed, instance, TIERS.index(tier)])


def decimal_weights(g: np.random.Generator, n: int) -> list[str]:
    """Weights k/1000, k in 1..1000, written as exact decimal strings."""
    return [f"{k / 1000:.3f}" for k in g.integers(1, 1001, n)]


def cli_inputs(seed: int, instance: int, tier: str) -> dict:
    """Two laws as atoms with decimal weights; heavy runs the verify suites."""
    g = rng(seed, instance, tier)
    if tier == "heavy":
        return {"verify_seed": seed}
    n = 2 if tier == "light" else CLI_MEDIUM_ROWS
    laws = []
    for shift, scale in ((0.0, 1.0), (g.uniform(0.5, 1.5), g.uniform(1.2, 2.0))):
        xs = (shift + scale * g.standard_normal(n)).tolist()
        laws.append({"x": xs, "w": decimal_weights(g, n)})
    return {"F": laws[0], "G": laws[1]}


def atomic_inputs(seed: int, instance: int, tier: str) -> dict:
    """Equal-weight float samples of N(0, 1) and N(mu, sigma^2)."""
    g = rng(seed, instance, tier)
    n = ATOMIC_SIZES[tier]
    mu, sigma = g.uniform(0.5, 1.5), g.uniform(1.2, 2.0)
    return {"x": g.standard_normal(n).tolist(), "y": (mu + sigma * g.standard_normal(n)).tolist()}


def oracle_inputs(seed: int, instance: int, tier: str) -> dict:
    """64-atom measures: d = 1 with masses 1..9 (light), d = 3 with equal
    masses (medium, the assignment fast path), d = 3 with masses 1..9."""
    g = rng(seed, instance, tier)
    d = 1 if tier == "light" else 3
    out = {}
    for side in ("mu", "nu"):
        locs = g.uniform(-3.0, 3.0, (ORACLE_ATOMS, d)).tolist()
        if tier == "medium":
            masses = [1] * ORACLE_ATOMS
        else:
            masses = g.integers(1, 10, ORACLE_ATOMS).tolist()
        out[side] = [[loc, m] for loc, m in zip(locs, masses)]
    return out


def continuous_inputs(seed: int, instance: int, tier: str) -> list[tuple[str, tuple]]:
    """(kind, (law, law)) pairs, each law a (family, params...) spec; the
    kind selects the routes in CONTINUOUS_ROUTES."""
    g = rng(seed, instance, tier)
    if tier == "light":
        pairs = []
        for _ in range(UNIFORM_PAIRS):
            (a1, a2), (w1, w2) = g.uniform(-2.0, 2.0, 2), g.uniform(0.5, 3.0, 2)
            pairs.append(("uniform", (("uniform", a1, a1 + w1), ("uniform", a2, a2 + w2))))
        return pairs
    if tier == "medium":
        l1, l2 = g.uniform(0.5, 2.0, 2)
        return [("exponential", (("exponential", l1), ("exponential", l2)))]
    return [mixed_pair(g, MIXED_ATOMS)]


def mixed_pair(g: np.random.Generator, n: int) -> tuple[str, tuple]:
    """Normal(0, 1) against a sample of n atoms drawn from it."""
    return ("mixed", (("normal", 0.0, 1.0), ("sample", g.standard_normal(n).tolist())))


def failing_inputs() -> list[tuple[str, tuple]]:
    """The mixed pair with 256 atoms, from a fixed generator: independent of the seed."""
    return [mixed_pair(np.random.default_rng(FAILING_ATOMS), FAILING_ATOMS)]


INPUTS = {
    "cli-cold": cli_inputs,
    "atomic-large": atomic_inputs,
    "oracle-cap": oracle_inputs,
    "continuous": continuous_inputs,
}


def canonical_measure(atoms: list) -> tuple[list[tuple[float, ...]], list[Fraction]]:
    """Sorted distinct locations and normalised exact masses of a measure
    given as [[location, mass], ...]: the order the oracle indexes atoms in."""
    merged: dict[tuple[float, ...], Fraction] = {}
    for loc, m in atoms:
        key = tuple(float(c) for c in loc)
        merged[key] = merged.get(key, Fraction(0)) + Fraction(m)
    total = sum(merged.values())
    locs = sorted(merged)
    return locs, [merged[x] / total for x in locs]
