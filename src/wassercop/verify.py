"""Verification suites: every theorem-level identity checked against the
exact discrete optimal-transport oracle on seeded random instances.

These suites are the one definition of the acceptance criteria: each
suite's instances, counts, tolerances and pass rule are written here, and
the oracle only solves. Each takes corrupt=True to plant a mistake on its
formula side, which proves the suite can fail.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .copulas import discretize_joint, frechet_hoeffding_check
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
    brute_force_assignment,
    norm_cost,
    power_cost,
    solve_assignment,
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


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_gap: float
    checks: int
    detail: str = ""


def _shift(corrupt: bool) -> float:
    return CORRUPT_SHIFT if corrupt else 0.0


def _margins(mu: DiscreteMeasureND) -> list[Empirical]:
    return [mu.margin(i) for i in range(mu.dim)]


def suite_comonotone_optimality(
    seed: int, pairs: int = 200, corrupt: bool = False
) -> SuiteResult:
    """Quantile-integral power equals the LP minimum, p in {1, 2, 3}."""
    rng = random.Random(seed)
    worst = 0.0
    checks = 0
    ok = True
    for _ in range(pairs):
        F, G = random_empirical(rng), random_empirical(rng)
        mu, nu = DiscreteMeasureND.from_empirical(F), DiscreteMeasureND.from_empirical(G)
        for p in (1.0, 2.0, 3.0):
            lp, _ = solve_ot(mu, nu, power_cost(p))
            gap = abs(lp - (wp_quantile(F, G, p).power_value + _shift(corrupt)))
            worst = max(worst, gap / max(1.0, lp))
            ok = ok and gap <= 1e-9 * max(1.0, lp)
            checks += 1
    return SuiteResult("comonotone_optimality", ok, worst, checks)


def suite_formula_triangle(seed: int, pairs: int = 200, corrupt: bool = False) -> SuiteResult:
    """CDF-integral, quantile-integral and copula-integral routes agree."""
    rng = random.Random(seed)
    worst = 0.0
    checks = 0
    for _ in range(pairs):
        F, G = random_empirical(rng), random_empirical(rng)
        q1 = wp_quantile(F, G, 1.0).power_value + _shift(corrupt)
        worst = max(worst, abs(w1_cdf(F, G).power_value - q1))
        checks += 1
        for p in (1.0, 2.0, 3.0):
            quantile = wp_quantile(F, G, p).power_value + _shift(corrupt)
            worst = max(worst, abs(wp_via_M(F, G, p).power_value - quantile))
            checks += 1
    return SuiteResult("formula_triangle", worst <= 1e-10, worst, checks)


def suite_metric_axioms(seed: int, triples: int = 1000, corrupt: bool = False) -> SuiteResult:
    """Identity, symmetry and the triangle inequality, p in {1, 2}."""
    rng = random.Random(seed)
    worst = 0.0
    ok = True
    checks = 0
    for _ in range(triples):
        mu, nu, rho = (random_empirical(rng) for _ in range(3))
        for p in (1.0, 2.0):
            if wp_quantile(mu, mu, p).value != 0.0:
                ok = False
            ab = wp_quantile(mu, nu, p).value + _shift(corrupt)
            ba = wp_quantile(nu, mu, p).value
            ac = wp_quantile(mu, rho, p).value
            cb = wp_quantile(rho, nu, p).value
            worst = max(worst, abs(ab - ba))
            if abs(ab - ba) > 1e-12:
                ok = False
            violation = ab - (ac + cb)
            worst = max(worst, violation)
            if violation > 1e-10:
                ok = False
            checks += 3
    return SuiteResult("metric_axioms", ok, worst, checks)


def suite_decomposition(seed: int, count: int = 100, corrupt: bool = False) -> SuiteResult:
    """Shared-copula LP equals the coordinatewise sum, d in {2, 3}, p in {1, 2, 3}.

    Both sides are evaluated on the same n-atom construction: the margins of
    the discrete measures feed the one-dimensional quantile formula.
    """
    rng = random.Random(seed)
    worst = 0.0
    ok = True
    checks = 0
    for k in range(count):
        d = 2 + (k % 2)
        C, mf, mg = random_shared_instance(rng, d)
        mu = DiscreteMeasureND(discretize_joint(C, mf))
        nu = DiscreteMeasureND(discretize_joint(C, mg))
        fm, gm = _margins(mu), _margins(nu)
        for p in (1.0, 2.0, 3.0):
            lp, _ = solve_ot(mu, nu, power_cost(p))
            formula = wp_shared_nd(C, fm, gm, p).power_value + _shift(corrupt)
            gap = abs(lp - formula)
            worst = max(worst, gap / max(1.0, lp))
            ok = ok and gap <= 1e-9 * max(1.0, lp)
            checks += 1
    return SuiteResult("decomposition", ok, worst, checks)


def suite_necessity(seed: int, count: int = 100, corrupt: bool = False) -> SuiteResult:
    """Different copulas with equal margins: LP > 0 while the sum vanishes;
    the projection lower bound holds on arbitrary instances."""
    rng = random.Random(seed)
    mu, nu = necessity_instance()
    lp, _ = solve_ot(mu, nu, power_cost(2.0))
    naive = wp_lower_bound_nd(_margins(mu), _margins(nu), 2.0) + _shift(corrupt)
    ok = lp >= 0.1 and naive == 0.0
    detail = f"witness: lp={lp!r}, coordinatewise sum={naive!r}"
    worst = 0.0
    checks = 1
    for k in range(count):
        d = 2 + (k % 2)
        a = random_discrete_nd(rng, d)
        b = random_discrete_nd(rng, d)
        lp, _ = solve_ot(a, b, power_cost(2.0))
        lower = wp_lower_bound_nd(_margins(a), _margins(b), 2.0) + _shift(corrupt)
        worst = max(worst, lower - lp)
        ok = ok and lp >= lower - 1e-10
        checks += 1
    return SuiteResult("necessity", ok, worst, checks, detail)


def suite_frechet_hoeffding(
    seed: int, evaluations: int = 10_000, corrupt: bool = False
) -> SuiteResult:
    """W <= C <= M on random evaluations of empirical copulas, d in {2, 3, 4}.

    corrupt=True evaluates 1 - C(u), since a small shift hides in the 1/n slack.
    """
    rng = random.Random(seed)
    ok = True
    worst = -math.inf
    copulas = [
        random_empirical_copula(rng, rng.randint(2, 20), d)
        for d in (2, 3, 4)
        for _ in range(5)
    ]
    evaluator = (lambda c, u: 1.0 - c.eval(u)) if corrupt else None
    for k in range(evaluations):
        c = copulas[k % len(copulas)]
        slack = 1.0 / c.n + 1e-12
        u = tuple(rng.random() for _ in range(c.dim))
        r = frechet_hoeffding_check(c, u, evaluator)
        ok = ok and r.ok
        # excess over the permitted 1/n discretization slack
        worst = max(worst, r.lower - r.value - slack, r.value - r.upper - slack)
    return SuiteResult("frechet_hoeffding", ok, worst, evaluations)


def suite_wpq_sandwich(seed: int, per_case: int = 50, corrupt: bool = False) -> SuiteResult:
    """Exact W_{p,q}^p inside the norm-equivalence sandwich.

    corrupt=True swaps p and q in the sandwich constant, since a small shift
    hides in the gap between the LP and the bounds.
    """
    rng = random.Random(seed)
    ok = True
    worst = -math.inf
    checks = 0
    for p, q in ((1.0, 2.0), (2.0, 1.0), (2.0, 3.0), (3.0, 2.0)):
        for d in (2, 3):
            for _ in range(per_case):
                C, mf, mg = random_shared_instance(rng, d)
                mu = DiscreteMeasureND(discretize_joint(C, mf))
                nu = DiscreteMeasureND(discretize_joint(C, mg))
                lp, _ = solve_ot(mu, nu, norm_cost(p, q))
                report = wpq_bounds(C, _margins(mu), _margins(nu), p, q)
                lo, hi = report.bounds
                if corrupt:
                    s, wrong = report.power_value, d ** (q / p - 1.0)
                    lo, hi = (s, wrong * s) if q < p else (wrong * s, s)
                ok = ok and lo - 1e-10 <= lp <= hi + 1e-10
                worst = max(worst, lo - lp, lp - hi)
                checks += 1
    return SuiteResult("wpq_sandwich", ok, worst, checks)


def suite_continuous_sanity(
    seed: int = 0, atoms: int = 200, corrupt: bool = False
) -> SuiteResult:
    """W_2(U(0,1), U(0,2))^2 = 1/3 by the closed-form quantile cells, by
    quadrature along the comonotone coupling and, within 2%, by the
    discretized LP. The seed is unused: the instance is fixed."""
    F, G = Uniform(0.0, 1.0), Uniform(0.0, 2.0)
    cells = wp_quantile(F, G, 2.0).power_value + _shift(corrupt)
    quad = wp_via_M(F, G, 2.0).power_value + _shift(corrupt)
    gap_formula = max(abs(cells - 1.0 / 3.0), abs(quad - 1.0 / 3.0))
    mu = DiscreteMeasureND([((F.quantile((k + 0.5) / atoms),), 1) for k in range(atoms)])
    nu = DiscreteMeasureND([((G.quantile((k + 0.5) / atoms),), 1) for k in range(atoms)])
    lp, _ = solve_ot(mu, nu, power_cost(2.0), atom_cap=atoms)
    gap_lp = abs(lp - 1.0 / 3.0) / (1.0 / 3.0)
    ok = gap_formula <= 1e-8 and gap_lp <= 0.02
    return SuiteResult(
        "continuous_sanity",
        ok,
        max(gap_formula, gap_lp),
        3,
        f"cells={cells!r}, quad={quad!r}, lp={lp!r}",
    )


def suite_assignment(seed: int, count: int = 40, corrupt: bool = False) -> SuiteResult:
    """Assignment solver equals exhaustive enumeration for n <= 6."""
    rng = random.Random(seed)
    ok = True
    worst = 0.0
    checks = 0
    for _ in range(count):
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
        fast, _ = solve_assignment(mu, nu, cost)
        brute = brute_force_assignment(mu, nu, cost)
        gap = abs(fast + _shift(corrupt) - brute)
        worst = max(worst, gap)
        ok = ok and gap == 0.0
        checks += 1
    return SuiteResult("assignment", ok, worst, checks)


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


def run_suites(
    names: list[str] | None = None, seed: int = 0, corrupt: bool = False
) -> list[SuiteResult]:
    chosen = names or list(SUITES)
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [SUITES[name](seed, corrupt=corrupt) for name in chosen]
