import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wassercop import (
    DiscreteMeasureND,
    Empirical,
    EmpiricalCopula,
    Uniform,
    comonotone_coupling,
    discretize_joint,
    eval_M,
    eval_W,
    expect_comonotone,
    frechet_hoeffding_check,
    power_cost,
    solve_ot,
)
from wassercop.copulas import COUPLING_GRID_N
from wassercop.grids import adaptive_quadrature

HALF = Fraction(1, 2)
F_RUN = Empirical([(0, HALF), (1, HALF)])
G_RUN = Empirical([(0, "0.25"), (2, "0.75")])
DIAG = EmpiricalCopula([(0.25, 0.25), (0.75, 0.75)])
ANTI = EmpiricalCopula([(0.25, 0.75), (0.75, 0.25)])


class TestBoundEvaluators:
    def test_m_is_min(self):
        assert eval_M((0.3, 0.7)) == 0.3

    def test_m_uniform_margins(self):
        assert eval_M((1, 1, 0.42)) == 0.42

    def test_m_grounded(self):
        assert eval_M((0, 0.9)) == 0.0

    def test_w_clips_to_zero(self):
        assert eval_W((0.3, 0.7)) == 0.0

    def test_w_arithmetic(self):
        assert eval_W((0.8, 0.9)) == pytest.approx(0.7)

    def test_w3_uniform_margins(self):
        assert eval_W((1, 1, 0.42)) == pytest.approx(0.42)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            eval_M((1.2, 0.5))
        with pytest.raises(ValueError):
            eval_W((-0.1, 0.5))


class TestEvalCopula:
    def test_empirical_one_row_dominated(self):
        assert DIAG.eval((0.5, 0.5)) == 0.5

    def test_empirical_no_row_dominated(self):
        assert ANTI.eval((0.5, 0.5)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            DIAG.eval((0.2, 0.5, 0.5))


class TestFrechetHoeffdingCheck:
    def test_comonotone_attains_upper(self):
        # the diagonal rank copula meets min(u) where min(u) is one of its levels
        r = frechet_hoeffding_check(DIAG, (0.5, 0.8))
        assert r.ok and r.value == r.upper == 0.5

    def test_empirical_random_sweep(self):
        rng = random.Random(3)
        for _ in range(1000):
            u = (rng.random(), rng.random())
            assert frechet_hoeffding_check(DIAG, u).ok

    def test_corrupted_evaluator_caught(self):
        # returning 0 everywhere breaks the lower bound max(u0+u1-1, 0) = 0.8
        # by more than the 1/n slack of the two-row copula
        r = frechet_hoeffding_check(DIAG, (0.9, 0.9), evaluator=lambda c, u: 0.0)
        assert not r.ok


class TestComonotoneCoupling:
    def test_identical_margins_couple_diagonally(self):
        pair = comonotone_coupling(F_RUN, F_RUN)
        assert [(x, y, float(m)) for x, y, m in pair.atoms] == [
            (0, 0, 0.5),
            (1, 1, 0.5),
        ]

    def test_point_masses_single_atom(self):
        pair = comonotone_coupling(Empirical([(0, 1)]), Empirical([(3, 1)]))
        assert [(x, y, float(m)) for x, y, m in pair.atoms] == [(0, 3, 1.0)]

    def test_merged_breakpoints(self):
        # merge of cumulative weights {.25, .5, 1}
        pair = comonotone_coupling(F_RUN, G_RUN)
        assert [(x, y, m) for x, y, m in pair.atoms] == [
            (0, 0, Fraction(1, 4)),
            (0, 2, Fraction(1, 4)),
            (1, 2, Fraction(1, 2)),
        ]

    def test_margins_reproduced_exactly(self):
        # the cells are the merged levels, and the cells of each atom of
        # either law tile exactly that atom's own level interval
        rng = random.Random(5)
        for _ in range(50):
            F = Empirical([(rng.uniform(-3, 3), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))])
            G = Empirical([(rng.uniform(-3, 3), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))])
            pair = comonotone_coupling(F, G)
            assert pair.u_grid == tuple(sorted(set(F.cumulative()) | set(G.cumulative())))
            cells = list(zip((0.0,) + pair.u_grid[:-1], pair.u_grid, pair.atoms))
            assert all(m == hi - lo for lo, hi, (_, _, m) in cells)
            for k, law in enumerate((F, G)):
                covered: dict[float, list[float]] = {}
                for lo, hi, atom in cells:
                    covered.setdefault(atom[k], [lo, hi])[1] = hi
                levels = (0.0,) + law.cumulative()
                assert covered == {
                    x: [levels[i], levels[i + 1]] for i, x in enumerate(law.locations)
                }

    def test_coinciding_levels_share_one_cell(self):
        # 0.1 + 0.2 and 0.3 are one level, so no sliver cell appears between them
        F = Empirical([(0, "0.1"), (1, "0.2"), (2, "0.7")])
        G = Empirical([(0, "0.3"), (5, "0.7")])
        pair = comonotone_coupling(F, G)
        assert pair.u_grid == (0.1, 0.3, 1.0)
        assert [(x, y) for x, y, _ in pair.atoms] == [(0, 0), (1, 0), (2, 5)]

    def test_default_grid_for_non_atomic_pair(self):
        pair = comonotone_coupling(Uniform(0, 1), Uniform(0, 2))
        assert not pair.exact and len(pair.atoms) == COUPLING_GRID_N
        assert all(y == 2 * x and m == 1 / COUPLING_GRID_N for x, y, m in pair.atoms)
        with pytest.raises(ValueError):
            comonotone_coupling(Uniform(0, 1), Uniform(0, 2), adaptive_quadrature())

    def test_both_coordinates_nondecreasing(self):
        pair = comonotone_coupling(F_RUN, G_RUN)
        xs = [x for x, _, _ in pair.atoms]
        ys = [y for _, y, _ in pair.atoms]
        assert xs == sorted(xs) and ys == sorted(ys)


class TestExpectComonotone:
    def test_total_mass(self):
        value, _ = expect_comonotone(F_RUN, G_RUN, lambda x, y: 1.0)
        assert value == 1.0

    def test_diagonal_coupling_vanishes(self):
        value, _ = expect_comonotone(F_RUN, F_RUN, lambda x, y: abs(x - y) ** 2)
        assert value == 0.0

    def test_running_example_against_lp(self):
        value, err = expect_comonotone(F_RUN, G_RUN, lambda x, y: abs(x - y))
        assert value == pytest.approx(0.25 * 0 + 0.25 * 2 + 0.5 * 1)
        assert err == 0.0
        lp, _ = solve_ot(
            DiscreteMeasureND.from_empirical(F_RUN),
            DiscreteMeasureND.from_empirical(G_RUN),
            power_cost(1.0),
        )
        assert value == pytest.approx(lp, abs=1e-12)

    def test_nonfinite_integrand_rejected(self):
        # an infinite value is an overflow (exit 4 in the CLI); NaN is not
        with pytest.raises(OverflowError):
            expect_comonotone(F_RUN, G_RUN, lambda x, y: math.inf)
        with pytest.raises(ValueError):
            expect_comonotone(F_RUN, G_RUN, lambda x, y: math.nan)


class TestSharedCopulaBuild:
    def test_same_margins_same_atoms(self):
        u = Uniform(0, 1)
        assert discretize_joint(ANTI, (u, u)) == discretize_joint(ANTI, (u, u))

    def test_linear_quantile_scaling(self):
        f = discretize_joint(ANTI, (Uniform(0, 1), Uniform(0, 1)))
        g = discretize_joint(ANTI, (Uniform(0, 2), Uniform(0, 2)))
        for (x, mx), (y, my) in zip(f, g):
            assert mx == my == Fraction(1, 2)
            assert y == tuple(2 * c for c in x)

    def test_margin_count_must_match_dim(self):
        with pytest.raises(ValueError, match="margin count 3"):
            discretize_joint(ANTI, (F_RUN,) * 3)


class TestFromData:
    def test_columns_are_shifted_ranks(self):
        c = EmpiricalCopula.from_data([(3.0, 10.0), (1.0, 30.0), (2.0, 20.0)])
        assert sorted(r[0] for r in c.rows) == [0.0, 1 / 3, 2 / 3]
        assert c.rows[1][0] == 0.0  # smallest first coordinate gets rank 0

    def test_margins_within_discretization(self):
        rng = random.Random(9)
        c = EmpiricalCopula.from_data(
            [(rng.random(), rng.random(), rng.random()) for _ in range(17)]
        )
        for u in (0.1, 0.35, 0.62, 0.99):
            for i in range(3):
                arg = [1.0] * 3
                arg[i] = u
                assert abs(c.eval(arg) - u) <= 1.0 / c.n + 1e-12


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=4))
def test_bounds_order_everywhere(u):
    assert eval_W(u) <= eval_M(u) + 1e-12


@given(
    st.integers(2, 4),
    st.integers(2, 12),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_empirical_copula_within_bounds(d, n, seed, useed):
    rng = random.Random(seed)
    cols = []
    for _ in range(d):
        ranks = list(range(n))
        rng.shuffle(ranks)
        cols.append([r / n for r in ranks])
    c = EmpiricalCopula([tuple(cols[i][j] for i in range(d)) for j in range(n)])
    urng = random.Random(useed)
    u = tuple(urng.random() for _ in range(d))
    assert frechet_hoeffding_check(c, u).ok
