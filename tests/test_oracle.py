import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wassercop import (
    DiscreteMeasureND,
    Empirical,
    EmpiricalCopula,
    InputError,
    NormCost,
    Uniform,
    brute_force_assignment,
    discretize_joint,
    power_cost,
    solve_ot,
    wp_lower_bound_nd,
    wp_quantile,
    wp_shared_nd,
    wpq_bounds,
)
from wassercop import oracle
from wassercop.instances import necessity_instance, random_discrete_nd, random_empirical

HALF = Fraction(1, 2)
F_RUN = Empirical([(0, HALF), (1, HALF)])
G_RUN = Empirical([(0, "0.25"), (2, "0.75")])


def measure_1d(d: Empirical) -> DiscreteMeasureND:
    return DiscreteMeasureND.from_empirical(d)


def coupling_of_f_run(*entries):
    """A coupling of F_RUN with itself made of these (i, j, mass) entries."""
    mu = measure_1d(F_RUN)
    return oracle.DiscreteCoupling(entries, mu, mu)


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: DiscreteMeasureND([((math.inf,), 1)]), ValueError, "must be finite"),
        (
            lambda: DiscreteMeasureND([((0.0,), 1), ((0.0, 1.0), 1)]),
            ValueError,
            "must share a dimension",
        ),
        (
            lambda: coupling_of_f_run((0, 0, -HALF), (0, 0, 1), (1, 1, HALF)).validate(),
            ValueError,
            "must be nonnegative",
        ),
        (
            # the identity coupling with atom 1's mass moved onto atom 0
            lambda: coupling_of_f_run((0, 0, HALF), (1, 0, HALF)).validate(),
            ValueError,
            "margins do not match",
        ),
    ],
    ids=["nonfinite-location", "mixed-dimensions", "negative-mass", "moved-mass"],
)
def test_input_checks(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()


def enumerate_2x2_minimum(mu, nu, cost):
    """Independent oracle for 2x2 instances: the coupling matrix has one free
    parameter t = mass(0 -> 0); the objective is linear in t, so scanning a
    fine grid of the feasible interval brackets the minimum tightly."""
    a = [k / mu.total for k in mu.nums]
    b = [k / nu.total for k in nu.nums]
    C = cost.matrix(mu.locations, nu.locations)
    lo = max(0.0, a[0] - b[1])
    hi = min(a[0], b[0])
    best = math.inf
    for k in range(1001):
        t = lo + (hi - lo) * k / 1000
        val = (
            t * C[0][0]
            + (a[0] - t) * C[0][1]
            + (b[0] - t) * C[1][0]
            + (a[1] - b[0] + t) * C[1][1]
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
        ref = enumerate_2x2_minimum(mu, nu, cost)
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
        # |lam x - lam y|^2 = lam^2 |x - y|^2 on every cell, so atoms scaled
        # by lam scale the p = 2 value by lam^2
        rng = random.Random(19)
        mu = random_discrete_nd(rng, 2)
        nu = random_discrete_nd(rng, 2)
        base, _ = solve_ot(mu, nu, power_cost(2))
        lam = 3.7

        def scaled(m):
            return DiscreteMeasureND(
                [(tuple(lam * c for c in x), k) for x, k in zip(m.locations, m.nums)]
            )

        value, _ = solve_ot(scaled(mu), scaled(nu), power_cost(2))
        assert value == pytest.approx(lam**2 * base, rel=1e-12)

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
        # an argument check: InputError, exit 2 in the CLI
        mu = DiscreteMeasureND([((0.0,), 1)])
        nu = DiscreteMeasureND([((0.0, 0.0), 1)])
        with pytest.raises(InputError, match="same R"):
            solve_ot(mu, nu, power_cost(1))

    def test_nonfinite_cost(self):
        # |1e200 - (-1e200)|^2 overflows a float: exit 4 in the CLI
        mu = DiscreteMeasureND([((1e200,), 1)])
        nu = DiscreteMeasureND([((-1e200,), 1)])
        with pytest.raises(OverflowError):
            solve_ot(mu, nu, power_cost(2))


def priced(coupling, cost):
    """fsum of the cost matrix's cells under a coupling's entries over n: for
    a permutation coupling of n atoms each, the same sum brute_force_assignment
    takes."""
    xs, ys = coupling.source.locations, coupling.target.locations
    C = cost.matrix(xs, ys)
    return math.fsum(C[i][j] for i, j, _ in coupling.entries) / len(xs)


class TestAssignmentPath:
    """solve_ot on equal-count uniform-mass measures, its assignment path."""

    def test_single_atom(self):
        mu = DiscreteMeasureND([((1.0,), 1)])
        nu = DiscreteMeasureND([((4.0,), 1)])
        value, coupling = solve_ot(mu, nu, power_cost(2))
        assert value == pytest.approx(9.0) and coupling.entries == ((0, 0, Fraction(1)),)

    def test_sorted_pairing_for_convex_cost(self):
        rng = random.Random(29)
        n = 6
        w = Fraction(1, n)
        xs = sorted(rng.uniform(-3, 3) for _ in range(n))
        ys = sorted(rng.uniform(-3, 3) for _ in range(n))
        mu = DiscreteMeasureND([((x,), w) for x in xs])
        nu = DiscreteMeasureND([((y,), w) for y in ys])
        value, _ = solve_ot(mu, nu, power_cost(2))
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
            _, coupling = solve_ot(mu, nu, cost)
            assert priced(coupling, cost) == brute_force_assignment(mu, nu, cost)

    def test_matches_simplex(self):
        rng = random.Random(39)
        n = 5
        w = Fraction(1, n)
        mu = DiscreteMeasureND([((rng.uniform(-2, 2),), w) for _ in range(n)])
        nu = DiscreteMeasureND([((rng.uniform(-2, 2),), w) for _ in range(n)])
        fast, _ = solve_ot(mu, nu, power_cost(2))
        # the same instance through the transportation simplex, which
        # solve_ot skips at equal uniform masses
        C = oracle._cost_matrix(mu, nu, power_cost(2))
        basis, _, _ = oracle._transportation_simplex([1] * n, [1] * n, C)
        simplex = basis_cost(basis, C) / n
        assert abs(fast - simplex) <= 1e-12

    def test_unequal_masses_rejected(self):
        mu = measure_1d(F_RUN)
        nu = measure_1d(G_RUN)
        with pytest.raises(ValueError):
            brute_force_assignment(mu, nu, power_cost(1))

    def test_enumeration_limited_to_eight_atoms(self):
        mu = DiscreteMeasureND([((float(k),), 1) for k in range(9)])
        with pytest.raises(ValueError):
            brute_force_assignment(mu, mu, power_cost(1))


def whole_walk(basis, cost, m, n):
    """Duals, parents and depths of the basis graph walked whole from row 0:
    a node's dual is the cost of the edge to its parent minus the parent's
    dual. A node the walk does not reach keeps parent None."""
    adj = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [0.0] * (m + n)
    parent = [None] * (m + n)
    depth = [0] * (m + n)
    parent[0] = 0
    stack = [0]
    while stack:
        k = stack.pop()
        for nb in adj[k]:
            if parent[nb] is None:
                parent[nb], depth[nb] = k, depth[k] + 1
                pot[nb] = cost[k][nb - m] - pot[k] if k < m else cost[nb][k - m] - pot[k]
                stack.append(nb)
    return pot, parent, depth


def tolerance(cost):
    """The simplex's threshold on reduced costs: 1e-12 of the largest cost."""
    return 1e-12 * max(1.0, max(abs(c) for row in cost for c in row))


def bland_cell_by_cell(a, b, cost):
    """Reference transportation simplex with Bland's rule, whose scan tests
    one cell at a time and skips the basic cells by lookup, and whose duals
    come from a whole walk of the tree after every pivot."""
    m, n = len(a), len(b)
    basis = oracle._northwest_corner(a, b)
    tol = tolerance(cost)
    for _ in range(oracle._MAX_PIVOTS):
        pot, parent, depth = whole_walk(basis, cost, m, n)
        u, v = pot[:m], pot[m:]
        enter = None
        for i in range(m):
            for j in range(n):
                if (i, j) not in basis and cost[i][j] - u[i] - v[j] < -tol:
                    enter = (i, j)
                    break
            if enter:
                break
        if enter is None:
            return basis
        up, down = [], []
        s, t = enter[0], m + enter[1]
        while s != t:
            if depth[s] >= depth[t]:
                up.append(s)
                s = parent[s]
            else:
                down.append(t)
                t = parent[t]
        nodes = up + [s] + down[::-1]
        path = [(x, y - m) if x < m else (y, x - m) for x, y in zip(nodes, nodes[1:])]
        minus = path[0::2]
        theta = min(basis[c] for c in minus)
        leave = min(c for c in minus if basis[c] == theta)
        for k, c in enumerate(path):
            basis[c] += theta if k % 2 else -theta
        basis[enter] = theta
        del basis[leave]
    raise RuntimeError("transportation simplex failed to terminate")


def basis_cost(basis, cost):
    return math.fsum(k * cost[i][j] for (i, j), k in basis.items())


def assert_tree_with_exact_margins(a, b, cost, basis):
    """m + n - 1 cells that connect every row and column, so a spanning
    tree, with nonnegative integer masses that sum to a and b exactly."""
    m, n = len(a), len(b)
    assert len(basis) == m + n - 1
    assert None not in whole_walk(basis, cost, m, n)[1]
    rows, cols = [0] * m, [0] * n
    for (i, j), k in basis.items():
        assert isinstance(k, int) and k >= 0
        rows[i] += k
        cols[j] += k
    assert rows == list(a) and cols == list(b)


def assert_duals_are_a_whole_walk_at_optimum(cost, basis, u, v):
    """The duals are bitwise those a whole walk of the basis from row 0
    gives, and no cell's reduced cost at them is below the tolerance."""
    pot = whole_walk(basis, cost, len(u), len(v))[0]
    assert list(map(float.hex, u + v)) == list(map(float.hex, pot))
    lowest = min(c - ui - vj for ui, row in zip(u, cost) for c, vj in zip(row, v))
    assert lowest >= -tolerance(cost)


def bland_instance(rng, d, m, n, lattice, equal_masses):
    """Integer supplies and demands over L and the cost matrix of two random
    measures on R^d, with m and n atoms (fewer where lattice atoms merge)."""
    coordinate = (lambda: rng.randint(-4, 4) / 2) if lattice else (lambda: rng.uniform(-2, 2))

    def measure(count):
        return DiscreteMeasureND(
            [(tuple(coordinate() for _ in range(d)), 1 if equal_masses else rng.randint(1, 9))
             for _ in range(count)]
        )

    mu, nu = measure(m), measure(n)
    L = math.lcm(mu.total, nu.total)
    a = [w * (L // mu.total) for w in mu.nums]
    b = [w * (L // nu.total) for w in nu.nums]
    return a, b, oracle._cost_matrix(mu, nu, power_cost(rng.choice((1, 2, 3))))


@pytest.fixture(scope="module")
def pivoted():
    """46 seeded instances, each with the simplex's basis and duals. Every
    fourth of the first 40 has equal masses and equal counts (which solve_ot
    would send to its assignment path); half of them lie on a lattice, so
    cost ties and degenerate pivots occur. Six more at 32-48 atoms in R^3
    with masses 1..9 take thousands of pivots between them, so rows stay
    clean over many pivots and deep subtrees are re-hung."""
    rng = random.Random(61)
    instances = []
    for k in range(40):
        d = rng.choice((1, 2, 3))
        m, n = rng.randint(5, 20), rng.randint(5, 20)
        if k % 4 == 0:
            n = m
        instances.append(bland_instance(rng, d, m, n, k % 2, k % 4 == 0))
    for k in range(6):
        m, n = rng.randint(32, 48), rng.randint(32, 48)
        instances.append(bland_instance(rng, 3, m, n, k % 2, False))
    return [(a, b, C, *oracle._transportation_simplex(a, b, C)) for a, b, C in instances]


def test_block_pricing_reaches_blands_optimum(pivoted):
    # the pivots differ from Bland's; the optimal value does not
    for a, b, C, basis, _, _ in pivoted:
        assert_tree_with_exact_margins(a, b, C, basis)
        want = basis_cost(bland_cell_by_cell(a, b, C), C)
        assert basis_cost(basis, C) == pytest.approx(want, rel=1e-12, abs=0)


def test_returned_duals_are_a_whole_walk_at_optimum(pivoted):
    for _, _, C, basis, u, v in pivoted:
        assert_duals_are_a_whole_walk_at_optimum(C, basis, u, v)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_equal_mass_lattice_instances(d):
    # solve_ot sends equal counts of equal masses to the assignment solver,
    # so only a direct call reaches them. Only n of the 2n - 1 basic cells
    # hold mass, so many pivots are degenerate and the next one is Bland's.
    rng = random.Random(71 + d)
    side = {1: 128, 2: 12, 3: 5}[d]  # at least 64 lattice points, so atoms stay distinct
    grid = [tuple(k / 2 for k in t) for t in itertools.product(range(side), repeat=d)]
    for n, p in ((16, 3), (32, 2), (64, 1)):
        xs, ys = rng.sample(grid, n), rng.sample(grid, n)
        C = power_cost(p).matrix(xs, ys)
        basis, u, v = oracle._transportation_simplex([1] * n, [1] * n, C)
        assert_tree_with_exact_margins([1] * n, [1] * n, C, basis)
        assert_duals_are_a_whole_walk_at_optimum(C, basis, u, v)
        want = basis_cost(oracle._assignment_basis(C), C)
        assert basis_cost(basis, C) == pytest.approx(want, rel=1e-12, abs=0)


class TestNormCost:
    ORDERS = [(1, 1), (2, 2), (3, 3), (1.5, 1.5), (1, 2), (2, 1), (3, 2)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p, q", ORDERS)
    def test_matrix_is_the_per_pair_formula_bitwise(self, d, p, q):
        rng = random.Random(67 + d)
        xs = [tuple(rng.uniform(-3, 3) for _ in range(d)) for _ in range(7)]
        ys = [tuple(rng.uniform(-3, 3) for _ in range(d)) for _ in range(5)]

        # the two costs as closures of one pair each
        def power(x, y):
            return math.fsum(abs(a - b) ** p for a, b in zip(x, y))

        def norm(x, y):
            return math.fsum(abs(a - b) ** q for a, b in zip(x, y)) ** (p / q)

        cost = NormCost(p, q)
        got = [[c.hex() for c in row] for row in cost.matrix(xs, ys)]
        assert got == [[norm(x, y).hex() for y in ys] for x in xs]
        if p == q:
            assert power_cost(p) == cost
            assert got == [[power(x, y).hex() for y in ys] for x in xs]

    def test_row_whose_sum_overflows(self):
        # both cells are 1e308, and a row sum would be inf
        mu = DiscreteMeasureND([((-1e308,), 1)])
        nu = DiscreteMeasureND([((0.0,), 1), ((2.0,), 1)])
        value, coupling = solve_ot(mu, nu, power_cost(1))
        assert value == 1e308
        coupling.validate()

    def test_overflowing_cell_is_named(self):
        # the cell (-1e308, -1e308) costs 0; (1e308, -1e308) is inf
        mu = DiscreteMeasureND([((-1e308,), 1), ((1e308,), 1)])
        nu = DiscreteMeasureND([((-1e308,), 1)])
        with pytest.raises(OverflowError, match=re.escape("at ((1e+308,), (-1e+308,))")):
            solve_ot(mu, nu, power_cost(1))


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
            # the lcm of the masses' denominators, as each measure's nums are coprime
            den = math.lcm(mu.total, nu.total)
            if den > 7:
                continue
            cost = power_cost(2)
            xs = [x for x, k in zip(mu.locations, mu.nums) for _ in range(k * den // mu.total)]
            ys = [y for y, k in zip(nu.locations, nu.nums) for _ in range(k * den // nu.total)]
            C = cost.matrix(xs, ys)
            brute = min(
                math.fsum(C[i][s] for i, s in enumerate(sigma))
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
    C = np.array(cost.matrix(mu.locations, nu.locations))
    res = linprog(
        C.ravel(),
        A_eq=np.vstack([np.kron(np.eye(m), np.ones((1, n))), np.kron(np.ones((1, m)), np.eye(n))]),
        b_eq=np.array([k / mu.total for k in mu.nums] + [k / nu.total for k in nu.nums]),
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

    def test_at_the_atom_cap(self):
        # the benchmark's oracle-cap heavy shape: 64 + 64 atoms in R^3 with
        # masses 1..9, about 2,300 pivots priced a row at a time
        rng = random.Random(64)

        def measure():
            return DiscreteMeasureND(
                [(tuple(rng.uniform(-3, 3) for _ in range(3)), rng.randint(1, 9))
                 for _ in range(oracle.DEFAULT_ATOM_CAP)]
            )

        mu, nu = measure(), measure()
        cost = power_cost(2)
        value, witness = solve_ot(mu, nu, cost)
        witness.validate()
        ref = highs_value(mu, nu, cost)
        assert abs(value - ref) <= 1e-9 * abs(ref)


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

    def test_equality_without_a_shared_copula_at_p1(self):
        # the README's pair: different copulas, yet at p = 1 the LP equals
        # the coordinatewise sum; at p = 2 it exceeds it
        mu = DiscreteMeasureND([((0.0, 0.0), 1), ((1.0, 1.0), 1)])
        nu = DiscreteMeasureND([((2.0, 3.0), 1), ((3.0, 2.0), 1)])
        for p, lp_value, coordinate_sum in ((1, 4.0, 4.0), (2, 9.0, 8.0)):
            lp, _ = solve_ot(mu, nu, power_cost(p))
            assert lp == lp_value
            assert wp_lower_bound_nd(margins(mu), margins(nu), p) == coordinate_sum

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
        lp, _ = solve_ot(mu, nu, NormCost(2, 1))
        lo, hi = wpq_bounds(C, margins(mu), margins(nu), 2, 1).bounds
        assert lo - 1e-10 <= lp <= hi + 1e-10

    def test_wpq_one_dimensional_collapse(self):
        # d = 1: the q-norm is the absolute value, so the LP, the quantile
        # integral and both bounds coincide
        mu, nu = measure_1d(F_RUN), measure_1d(G_RUN)
        lp, _ = solve_ot(mu, nu, NormCost(2, 1))
        s = wp_quantile(F_RUN, G_RUN, 2).power_value
        assert lp == pytest.approx(s, abs=1e-12)


def test_duplicate_atoms_merge():
    # 0.0 == -0.0, so the signed zeros merge too: at 0.0 in either order
    atoms = [((1.0, 2.0), 1), ((1.0, 2.0), 1), ((0.0, -0.0), 1), ((-0.0, 0.0), 1)]
    for mu in (DiscreteMeasureND(atoms), DiscreteMeasureND(atoms[::-1])):
        assert repr(mu.locations) == "((0.0, 0.0), (1.0, 2.0))"
        assert (mu.nums, mu.total) == ((1, 1), 2)


def test_margin_projection():
    mu = DiscreteMeasureND([((0.0, 1.0), 1), ((0.0, 2.0), 1), ((3.0, 1.0), 2)])
    m0 = mu.margin(0)
    assert m0.locations == (0.0, 3.0)
    assert (m0.nums, m0.total) == ((1, 1), 2)
