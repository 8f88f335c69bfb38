"""Verification suites: every theorem-level identity checked against the
exact discrete optimal-transport oracle on seeded random instances.

These suites are the one definition of the acceptance criteria: each
suite's instances, counts, tolerances and pass rule are written here, and
the oracle only solves. Each takes corrupt=True to plant a mistake on its
formula side, which proves the suite can fail.

Every check compares two independent computations. On two atomic laws
wp_via_M and wp_quantile are one computation, so no suite compares them
there: the comonotone suite (criterion 1) checks that computation against
the LP, and the continuous suite (criterion 8) checks wp_via_M's quadrature
against wp_quantile's closed-form cells.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from .copulas import eval_M, eval_W
from .distributions import Empirical, Uniform
from .instances import (
    necessity_instance,
    random_discrete_nd,
    random_empirical,
    random_empirical_copula,
    random_shared_instance,
)
from .oracle import (
    DiscreteMeasureND,
    NormCost,
    brute_force_assignment,
    power_cost,
    solve_ot,
)
from .wasserstein import (
    w1_cdf,
    wp_lower_bound_nd,
    wp_quantile,
    wp_shared_nd,
    wp_via_M,
    wpq_bounds,
)

# Added to the formula side of a check by corrupt=True; far above every
# tolerance below except the Frechet-Hoeffding and sandwich slacks, so those
# two suites plant other mistakes.
CORRUPT_SHIFT = 1e-3


@dataclass
class SuiteResult:
    """A suite's verdict, built one check at a time: whether every check
    passed, the largest gap seen (from max_gap, its starting value) and the
    number of checks."""

    name: str
    passed: bool = True
    max_gap: float = 0.0
    checks: int = 0
    detail: str = ""

    def check(self, passed: bool, gap: float = -math.inf) -> None:
        self.passed = self.passed and passed
        self.max_gap = max(self.max_gap, gap)
        self.checks += 1


def _shift(corrupt: bool) -> float:
    return CORRUPT_SHIFT if corrupt else 0.0


def _margins(mu: DiscreteMeasureND) -> list[Empirical]:
    return [mu.margin(i) for i in range(mu.dim)]


def suite_comonotone_optimality(seed: int, corrupt: bool = False) -> SuiteResult:
    """Quantile-integral power equals the LP minimum, p in {1, 2, 3}."""
    rng = random.Random(seed)
    result = SuiteResult("comonotone_optimality")
    for _ in range(200):
        F, G = random_empirical(rng), random_empirical(rng)
        mu, nu = DiscreteMeasureND.from_empirical(F), DiscreteMeasureND.from_empirical(G)
        for p in (1.0, 2.0, 3.0):
            lp, _ = solve_ot(mu, nu, power_cost(p))
            gap = abs(lp - (wp_quantile(F, G, p).power_value + _shift(corrupt)))
            result.check(gap <= 1e-9 * max(1.0, lp), gap / max(1.0, lp))
    return result


def suite_formula_triangle(seed: int, corrupt: bool = False) -> SuiteResult:
    """The CDF-integral and quantile-integral routes agree at p = 1 on
    atomic pairs. The M-coupling route is certified elsewhere: on atomic
    pairs it is the quantile route's computation, which the comonotone suite
    checks against the LP, and its quadrature meets the closed-form cells in
    the continuous suite."""
    rng = random.Random(seed)
    result = SuiteResult("formula_triangle")
    for _ in range(200):
        F, G = random_empirical(rng), random_empirical(rng)
        quantile = wp_quantile(F, G, 1.0).power_value + _shift(corrupt)
        gap = abs(w1_cdf(F, G).power_value - quantile)
        result.check(gap <= 1e-10, gap)
    return result


def suite_metric_axioms(seed: int, corrupt: bool = False) -> SuiteResult:
    """Identity, symmetry and the triangle inequality, p in {1, 2}."""
    rng = random.Random(seed)
    result = SuiteResult("metric_axioms")
    for _ in range(1000):
        mu, nu, rho = (random_empirical(rng) for _ in range(3))
        for p in (1.0, 2.0):
            result.check(wp_quantile(mu, mu, p).value == 0.0)
            ab = wp_quantile(mu, nu, p).value + _shift(corrupt)
            ba = wp_quantile(nu, mu, p).value
            ac = wp_quantile(mu, rho, p).value
            cb = wp_quantile(rho, nu, p).value
            result.check(abs(ab - ba) <= 1e-12, abs(ab - ba))
            violation = ab - (ac + cb)
            result.check(violation <= 1e-10, violation)
    return result


def suite_decomposition(seed: int, corrupt: bool = False) -> SuiteResult:
    """Shared-copula LP equals the coordinatewise sum, d in {2, 3}, p in {1, 2, 3}.

    Both sides are evaluated on the same n-atom construction: the margins of
    the discrete measures feed the one-dimensional quantile formula.
    """
    rng = random.Random(seed)
    result = SuiteResult("decomposition")
    for k in range(100):
        d = 2 + (k % 2)
        C, mu, nu = random_shared_instance(rng, d)
        fm, gm = _margins(mu), _margins(nu)
        for p in (1.0, 2.0, 3.0):
            lp, _ = solve_ot(mu, nu, power_cost(p))
            formula = wp_shared_nd(C, fm, gm, p).power_value + _shift(corrupt)
            gap = abs(lp - formula)
            result.check(gap <= 1e-9 * max(1.0, lp), gap / max(1.0, lp))
    return result


def suite_necessity(seed: int, corrupt: bool = False) -> SuiteResult:
    """Different copulas with equal margins: LP > 0 while the sum vanishes;
    the projection lower bound holds on arbitrary instances."""
    rng = random.Random(seed)
    mu, nu = necessity_instance()
    lp, _ = solve_ot(mu, nu, power_cost(2.0))
    naive = wp_lower_bound_nd(_margins(mu), _margins(nu), 2.0) + _shift(corrupt)
    result = SuiteResult("necessity", detail=f"witness: lp={lp!r}, coordinatewise sum={naive!r}")
    result.check(lp >= 0.1 and naive == 0.0)
    for k in range(100):
        d = 2 + (k % 2)
        a = random_discrete_nd(rng, d)
        b = random_discrete_nd(rng, d)
        lp, _ = solve_ot(a, b, power_cost(2.0))
        lower = wp_lower_bound_nd(_margins(a), _margins(b), 2.0) + _shift(corrupt)
        result.check(lp >= lower - 1e-10, lower - lp)
    return result


def suite_frechet_hoeffding(seed: int, corrupt: bool = False) -> SuiteResult:
    """W(u) - s <= C(u) <= M(u) + s on random evaluations of empirical
    copulas, d in {2, 3, 4}, with the slack s = 1/n + 1e-12 of an n-row
    rank copula. The gap is the excess over that slack.

    corrupt=True evaluates 1 - C(u), since a small shift hides in the slack.
    """
    rng = random.Random(seed)
    result = SuiteResult("frechet_hoeffding", max_gap=-math.inf)
    copulas = [
        random_empirical_copula(rng, rng.randint(2, 20), d)
        for d in (2, 3, 4)
        for _ in range(5)
    ]
    for k in range(10_000):
        c = copulas[k % len(copulas)]
        slack = 1.0 / c.n + 1e-12
        u = tuple(rng.random() for _ in range(c.dim))
        lower, value, upper = eval_W(u), c.eval(u), eval_M(u)
        if corrupt:
            value = 1.0 - value
        result.check(
            lower - slack <= value <= upper + slack,
            max(lower - value - slack, value - upper - slack),
        )
    return result


def suite_wpq_sandwich(seed: int, corrupt: bool = False) -> SuiteResult:
    """Exact W_{p,q}^p inside the norm-equivalence sandwich.

    corrupt=True swaps p and q in the sandwich constant, since a small shift
    hides in the gap between the LP and the bounds.
    """
    rng = random.Random(seed)
    result = SuiteResult("wpq_sandwich", max_gap=-math.inf)
    for p, q in ((1.0, 2.0), (2.0, 1.0), (2.0, 3.0), (3.0, 2.0)):
        for d in (2, 3):
            for _ in range(50):
                C, mu, nu = random_shared_instance(rng, d)
                lp, _ = solve_ot(mu, nu, NormCost(p, q))
                report = wpq_bounds(C, _margins(mu), _margins(nu), p, q)
                lo, hi = report.bounds
                if corrupt:
                    s, wrong = report.power_value, d ** (q / p - 1.0)
                    lo, hi = (s, wrong * s) if q < p else (wrong * s, s)
                result.check(lo - 1e-10 <= lp <= hi + 1e-10, max(lo - lp, lp - hi))
    return result


def suite_continuous_sanity(seed: int, corrupt: bool = False) -> SuiteResult:
    """W_2(U(0,1), U(0,2))^2 = 1/3 by the closed-form quantile cells, by
    quadrature along the comonotone coupling and, within 2%, by the
    discretized LP. The seed is unused: the instance is fixed."""
    F, G = Uniform(0.0, 1.0), Uniform(0.0, 2.0)
    result = SuiteResult("continuous_sanity")
    cells = wp_quantile(F, G, 2.0).power_value + _shift(corrupt)
    quad = wp_via_M(F, G, 2.0).power_value + _shift(corrupt)
    for formula in (cells, quad):
        gap = abs(formula - 1.0 / 3.0)
        result.check(gap <= 1e-8, gap)
    atoms = 200  # midpoints of each law's discretization
    mu = DiscreteMeasureND([((F.quantile((k + 0.5) / atoms),), 1) for k in range(atoms)])
    nu = DiscreteMeasureND([((G.quantile((k + 0.5) / atoms),), 1) for k in range(atoms)])
    lp, _ = solve_ot(mu, nu, power_cost(2.0), atom_cap=atoms)
    gap_lp = abs(lp - 1.0 / 3.0) / (1.0 / 3.0)
    result.check(gap_lp <= 0.02, gap_lp)
    result.detail = f"cells={cells!r}, quad={quad!r}, lp={lp!r}"
    return result


def suite_assignment(seed: int, corrupt: bool = False) -> SuiteResult:
    """solve_ot on equal-count, equal-mass instances equals exhaustive
    enumeration for n <= 6: its coupling, priced as the fsum over n of its
    cells of the cost matrix (the cells brute_force_assignment enumerates),
    is the n! minimum exactly."""
    rng = random.Random(seed)
    result = SuiteResult("assignment")
    for _ in range(40):
        n = rng.randint(1, 6)
        d = rng.randint(1, 3)
        mu = DiscreteMeasureND(
            [(tuple(rng.uniform(-2, 2) for _ in range(d)), 1) for _ in range(n)]
        )
        nu = DiscreteMeasureND(
            [(tuple(rng.uniform(-2, 2) for _ in range(d)), 1) for _ in range(n)]
        )
        if len(mu) != n or len(nu) != n:  # duplicate merge would break uniformity
            continue
        cost = power_cost(2.0)
        _, coupling = solve_ot(mu, nu, cost)
        C = cost.matrix(mu.locations, nu.locations)
        priced = math.fsum(C[i][j] for i, j, _ in coupling.entries) / n
        gap = abs(priced + _shift(corrupt) - brute_force_assignment(mu, nu, cost))
        result.check(gap == 0.0, gap)
    return result


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "comonotone": suite_comonotone_optimality,
    "formula_triangle": suite_formula_triangle,
    "metric": suite_metric_axioms,
    "decomposition": suite_decomposition,
    "necessity": suite_necessity,
    "frechet_hoeffding": suite_frechet_hoeffding,
    "wpq_sandwich": suite_wpq_sandwich,
    "continuous": suite_continuous_sanity,
    "assignment": suite_assignment,
}


def _run_suite(name: str, seed: int, corrupt: bool) -> SuiteResult:
    # a worker gets the name, not the function: SUITES may hold closures
    # (a tracer's wrappers), which do not pickle
    return SUITES[name](seed, corrupt=corrupt)


def run_suites(
    names: list[str] | None = None, seed: int = 0, corrupt: bool = False
) -> list[SuiteResult]:
    """The named suites' results (every suite's by default), in the order
    the names first appear; a suite named twice runs once.

    The suites run in a pool of worker processes, one per usable CPU and no
    more than there are suites, so one worker's scipy import overlaps
    another's pure-Python suites. Each suite is seeded on its own, so the
    results are those of calling the suites in turn. A suite that raises
    raises here, with its type and message."""
    chosen = list(dict.fromkeys(names or SUITES))
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    # here, not at the top: compute never loads the pool's modules
    from concurrent.futures import ProcessPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = len(chosen)
    # the platform's default start method: a worker forked on Linux starts
    # with wassercop loaded, where a spawned one starts an interpreter and
    # imports it again (about 0.15 s of a 0.75 s verify, on 2 cores)
    with ProcessPoolExecutor(min(n, cpus or 1)) as pool:
        return list(pool.map(_run_suite, chosen, [seed] * n, [corrupt] * n))
