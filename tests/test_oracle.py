import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wassercop import (
    DiscreteMeasureND,
    Empirical,
    EmpiricalCopula,
    Uniform,
    brute_force_assignment,
    discretize_joint,
    norm_cost,
    power_cost,
    solve_assignment,
    solve_ot,
    wp_lower_bound_nd,
    wp_quantile,
    wp_shared_nd,
    wpq_bounds,
)
from wassercop.instances import necessity_instance, random_discrete_nd, random_empirical

HALF = Fraction(1, 2)
F_RUN = Empirical([(0, HALF), (1, HALF)])
G_RUN = Empirical([(0, "0.25"), (2, "0.75")])


def measure_1d(d: Empirical) -> DiscreteMeasureND:
    return DiscreteMeasureND.from_empirical(d)


def enumerate_2x2_minimum(a, b, xs, ys, cost):
    """Independent oracle for 2x2 instances: the coupling matrix has one free
    parameter t = mass(0 -> 0); the objective is linear in t, so scanning a
    fine grid of the feasible interval brackets the minimum tightly."""
    lo = max(0.0, float(a[0]) - float(b[1]))
    hi = min(float(a[0]), float(b[0]))
    best = math.inf
    for k in range(1001):
        t = lo + (hi - lo) * k / 1000
        val = (
            t * cost((xs[0],), (ys[0],))
            + (float(a[0]) - t) * cost((xs[0],), (ys[1],))
            + (float(b[0]) - t) * cost((xs[1],), (ys[0],))
            + (float(a[1]) - float(b[0]) + t) * cost((xs[1],), (ys[1],))
        )
        best = min(best, val)
    return best


class TestSolveOt:
    def test_identical_measures(self):
        mu = measure_1d(G_RUN)
        value, witness = solve_ot(mu, mu, power_cost(2))
        assert value == 0.0
        assert all(i == j for i, j, _ in witness.entries)

    def test_point_masses(self):
        mu = DiscreteMeasureND([((0.0, 0.0), 1)])
        nu = DiscreteMeasureND([((3.0, 4.0), 1)])
        value, _ = solve_ot(mu, nu, power_cost(2))
        assert value == pytest.approx(25.0)

    def test_running_example_against_enumeration(self):
        mu, nu = measure_1d(F_RUN), measure_1d(G_RUN)
        cost = power_cost(1)
        value, witness = solve_ot(mu, nu, cost)
        assert value == pytest.approx(1.0, abs=1e-12)
        ref = enumerate_2x2_minimum(
            mu.masses, nu.masses, (0.0, 1.0), (0.0, 2.0), cost
        )
        assert value == pytest.approx(ref, abs=1e-9)
        # extremal coupling: mass(0 -> 0) = 1/4
        entries = {(i, j): m for i, j, m in witness.entries}
        assert entries[(0, 0)] == Fraction(1, 4)

    def test_witness_margins_exact(self):
        rng = random.Random(17)
        for _ in range(30):
            mu = random_discrete_nd(rng, 2)
            nu = random_discrete_nd(rng, 2)
            _, witness = solve_ot(mu, nu, power_cost(2))
            witness.validate()

    def test_cost_scaling(self):
        rng = random.Random(19)
        mu = random_discrete_nd(rng, 2)
        nu = random_discrete_nd(rng, 2)
        base, _ = solve_ot(mu, nu, power_cost(2))
        lam = 3.7
        scaled, _ = solve_ot(mu, nu, lambda x, y: lam * power_cost(2)(x, y))
        assert scaled == pytest.approx(lam * base, rel=1e-12)

    def test_deterministic(self):
        rng = random.Random(23)
        mu = random_discrete_nd(rng, 3)
        nu = random_discrete_nd(rng, 3)
        a = solve_ot(mu, nu, power_cost(1))
        b = solve_ot(mu, nu, power_cost(1))
        assert a[0] == b[0] and a[1].entries == b[1].entries

    def test_atom_cap(self):
        big = Empirical([(k, 1) for k in range(70)])
        with pytest.raises(ValueError):
            solve_ot(measure_1d(big), measure_1d(big), power_cost(1))

    def test_dim_mismatch(self):
        mu = DiscreteMeasureND([((0.0,), 1)])
        nu = DiscreteMeasureND([((0.0, 0.0), 1)])
        with pytest.raises(ValueError):
            solve_ot(mu, nu, power_cost(1))

    def test_nonfinite_cost(self):
        # an infinite cost is an overflow (exit 4 in the CLI); NaN is not
        mu = measure_1d(F_RUN)
        with pytest.raises(OverflowError):
            solve_ot(mu, mu, lambda x, y: math.inf)
        with pytest.raises(ValueError):
            solve_ot(mu, mu, lambda x, y: math.nan)


class TestSolveAssignment:
    def test_single_atom(self):
        mu = DiscreteMeasureND([((1.0,), 1)])
        nu = DiscreteMeasureND([((4.0,), 1)])
        value, perm = solve_assignment(mu, nu, power_cost(2))
        assert value == pytest.approx(9.0) and perm == (0,)

    def test_sorted_pairing_for_convex_cost(self):
        rng = random.Random(29)
        n = 6
        w = Fraction(1, n)
        xs = sorted(rng.uniform(-3, 3) for _ in range(n))
        ys = sorted(rng.uniform(-3, 3) for _ in range(n))
        mu = DiscreteMeasureND([((x,), w) for x in xs])
        nu = DiscreteMeasureND([((y,), w) for y in ys])
        value, perm = solve_assignment(mu, nu, power_cost(2))
        sorted_value = math.fsum(abs(x - y) ** 2 for x, y in zip(xs, ys)) / n
        assert value == pytest.approx(sorted_value, rel=1e-12)

    def test_matches_brute_force(self):
        rng = random.Random(33)
        for _ in range(25):
            n = rng.randint(1, 6)
            w = Fraction(1, n)
            mu = DiscreteMeasureND(
                [((rng.uniform(-2, 2), rng.uniform(-2, 2)), w) for _ in range(n)]
            )
            nu = DiscreteMeasureND(
                [((rng.uniform(-2, 2), rng.uniform(-2, 2)), w) for _ in range(n)]
            )
            cost = power_cost(3)
            assert solve_assignment(mu, nu, cost)[0] == brute_force_assignment(mu, nu, cost)

    def test_matches_simplex(self):
        rng = random.Random(39)
        n = 5
        w = Fraction(1, n)
        mu = DiscreteMeasureND([((rng.uniform(-2, 2),), w) for _ in range(n)])
        nu = DiscreteMeasureND([((rng.uniform(-2, 2),), w) for _ in range(n)])
        # perturb one mass pair so solve_ot takes the simplex route
        atoms = list(zip(mu.locations, mu.masses))
        fast, _ = solve_assignment(mu, nu, power_cost(2))
        via_ot, _ = solve_ot(mu, nu, power_cost(2))
        assert abs(fast - via_ot) <= 1e-12

    def test_unequal_masses_rejected(self):
        mu = measure_1d(F_RUN)
        nu = measure_1d(G_RUN)
        with pytest.raises(ValueError):
            solve_assignment(mu, nu, power_cost(1))


class TestSimplexVsEnumeration:
    def test_unequal_masses_against_refined_enumeration(self):
        # splitting rational masses into equal chunks preserves the optimal
        # value; the refined instance is solved by exhaustive permutation
        # enumeration, fully independent of the simplex
        from itertools import permutations

        rng = random.Random(41)
        checked = 0
        for _ in range(2000):
            if checked >= 8:
                break
            d = rng.choice((1, 2))
            mu = random_discrete_nd(rng, d, max_atoms=3)
            nu = random_discrete_nd(rng, d, max_atoms=3)
            den = math.lcm(*[m.denominator for m in mu.masses + nu.masses])
            if den > 7:
                continue
            cost = power_cost(2)
            xs = [x for x, m in zip(mu.locations, mu.masses) for _ in range(int(m * den))]
            ys = [y for y, m in zip(nu.locations, nu.masses) for _ in range(int(m * den))]
            brute = min(
                math.fsum(cost(x, ys[s]) for x, s in zip(xs, sigma))
                for sigma in permutations(range(den))
            ) / den
            simplex, _ = solve_ot(mu, nu, cost)
            assert simplex == pytest.approx(brute, abs=1e-11)
            checked += 1
        assert checked >= 4  # enough small-denominator instances found


def measure_nd(d: int):
    """Up to 12 atoms on a small lattice of R^d (so ties and merged
    duplicates occur), with integer or decimal-string masses."""
    atom = st.tuples(
        st.tuples(*[st.integers(-4, 4).map(lambda k: k / 2) for _ in range(d)]),
        st.one_of(st.integers(1, 9), st.sampled_from(["0.5", "0.125", "1.75", "2.2", "0.03"])),
    )
    return st.lists(atom, min_size=1, max_size=12).map(DiscreteMeasureND)


@st.composite
def simplex_instance(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    mu, nu = draw(measure_nd(d)), draw(measure_nd(d))
    # equal counts of equal masses take the assignment fast path instead
    assume(len(mu) != len(nu) or set(mu.nums + nu.nums) != {1})
    return mu, nu, draw(st.sampled_from([1.0, 2.0, 3.0]))


def highs_value(mu: DiscreteMeasureND, nu: DiscreteMeasureND, cost) -> float:
    """The same LP in floats, solved by HiGHS (no code shared with the simplex)."""
    import numpy as np
    from scipy.optimize import linprog

    m, n = len(mu), len(nu)
    C = np.array([[cost(x, y) for y in nu.locations] for x in mu.locations])
    res = linprog(
        C.ravel(),
        A_eq=np.vstack([np.kron(np.eye(m), np.ones((1, n))), np.kron(np.ones((1, m)), np.eye(n))]),
        b_eq=np.array([float(w) for w in mu.masses + nu.masses]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


class TestSimplexVsHighs:
    @settings(max_examples=150, deadline=None)
    @given(simplex_instance())
    def test_value_and_witness(self, instance):
        mu, nu, p = instance
        cost = power_cost(p)
        value, witness = solve_ot(mu, nu, cost)
        witness.validate()
        ref = highs_value(mu, nu, cost)
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def margins(mu: DiscreteMeasureND) -> list[Empirical]:
    return [mu.margin(i) for i in range(mu.dim)]


def shared_pair(C, margins_f, margins_g):
    return tuple(DiscreteMeasureND(discretize_joint(C, m)) for m in (margins_f, margins_g))


class TestVerifyOps:
    """The LP against each formula on fixed instances, outside the suites."""

    def test_comonotone_identical(self):
        mu = measure_1d(F_RUN)
        lp, _ = solve_ot(mu, mu, power_cost(2))
        assert lp == wp_quantile(F_RUN, F_RUN, 2).power_value == 0.0

    def test_comonotone_running_example(self):
        lp, _ = solve_ot(measure_1d(F_RUN), measure_1d(G_RUN), power_cost(2))
        assert lp == pytest.approx(1.5, abs=1e-12)
        assert wp_quantile(F_RUN, G_RUN, 2).power_value == pytest.approx(1.5, abs=1e-12)

    def test_comonotone_sweep(self):
        rng = random.Random(47)
        for _ in range(50):
            F, G = random_empirical(rng), random_empirical(rng)
            for p in (1, 2, 3):
                lp, _ = solve_ot(measure_1d(F), measure_1d(G), power_cost(p))
                assert wp_quantile(F, G, p).power_value == pytest.approx(lp, rel=1e-9, abs=1e-9)

    def test_decomposition_comonotone_rows(self):
        C = EmpiricalCopula([(k / 4, k / 4) for k in range(4)])
        mu, nu = shared_pair(C, (Uniform(0, 1), Uniform(-1, 1)), (Uniform(0, 2), Uniform(0, 1)))
        lp, _ = solve_ot(mu, nu, power_cost(2))
        s = wp_shared_nd(C, margins(mu), margins(nu), 2).power_value
        assert s == pytest.approx(lp, rel=1e-9, abs=1e-9)

    def test_decomposition_same_law(self):
        C = EmpiricalCopula([(0.0, 0.5), (0.5, 0.0)])
        u = Uniform(0, 1)
        mu, nu = shared_pair(C, (u, u), (u, u))
        lp, _ = solve_ot(mu, nu, power_cost(2))
        assert lp == wp_shared_nd(C, margins(mu), margins(nu), 2).power_value == 0.0

    def test_necessity_witness(self):
        mu, nu = necessity_instance()
        lp, _ = solve_ot(mu, nu, power_cost(2))
        assert lp >= 0.1
        assert wp_lower_bound_nd(margins(mu), margins(nu), 2) == 0.0

    def test_projection_bound_arbitrary(self):
        rng = random.Random(53)
        for _ in range(40):
            d = rng.choice((2, 3))
            mu, nu = random_discrete_nd(rng, d), random_discrete_nd(rng, d)
            lp, _ = solve_ot(mu, nu, power_cost(2))
            assert lp >= wp_lower_bound_nd(margins(mu), margins(nu), 2) - 1e-10

    def test_wpq_sandwich_comonotone_rows(self):
        C = EmpiricalCopula([(k / 5, k / 5) for k in range(5)])
        mu, nu = shared_pair(C, (Uniform(0, 1), Uniform(0, 3)), (Uniform(0, 2), Uniform(1, 2)))
        lp, _ = solve_ot(mu, nu, norm_cost(2, 1))
        lo, hi = wpq_bounds(C, margins(mu), margins(nu), 2, 1).bounds
        assert lo - 1e-10 <= lp <= hi + 1e-10

    def test_wpq_one_dimensional_collapse(self):
        # d = 1: the q-norm is the absolute value, so the LP, the quantile
        # integral and both bounds coincide
        mu, nu = measure_1d(F_RUN), measure_1d(G_RUN)
        lp, _ = solve_ot(mu, nu, norm_cost(2, 1))
        s = wp_quantile(F_RUN, G_RUN, 2).power_value
        assert lp == pytest.approx(s, abs=1e-12)


def test_duplicate_atoms_merge():
    mu = DiscreteMeasureND([((1.0, 2.0), 1), ((1.0, 2.0), 1), ((0.0, 0.0), 2)])
    assert len(mu) == 2
    assert sum(mu.masses) == 1


def test_margin_projection():
    mu = DiscreteMeasureND([((0.0, 1.0), 1), ((0.0, 2.0), 1), ((3.0, 1.0), 2)])
    m0 = mu.margin(0)
    assert m0.locations == (0.0, 3.0)
    assert m0.weights == (Fraction(1, 2), Fraction(1, 2))
