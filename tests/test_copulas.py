import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wassercop import (
    Empirical,
    EmpiricalCopula,
    Uniform,
    comonotone_coupling,
    discretize_joint,
    eval_M,
    eval_W,
)
from wassercop.copulas import COUPLING_GRID_N, comonotone_cells
from wassercop.instances import random_empirical_copula

HALF = Fraction(1, 2)
F_RUN = Empirical([(0, HALF), (1, HALF)])
G_RUN = Empirical([(0, "0.25"), (2, "0.75")])
DIAG = EmpiricalCopula([(0.25, 0.25), (0.75, 0.75)])
ANTI = EmpiricalCopula([(0.25, 0.75), (0.75, 0.25)])


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: EmpiricalCopula([]), ValueError, "needs at least one row"),
        (lambda: EmpiricalCopula([(0.5,)]), ValueError, "dimension must be >= 2"),
        (lambda: EmpiricalCopula([(0.5, 0.5), (0.5,)]), ValueError, "share one dimension"),
        (lambda: EmpiricalCopula.from_data([]), ValueError, "need at least one data row"),
        (lambda: eval_M((0.5,)), ValueError, "dimension >= 2"),
    ],
    ids=["no-rows", "one-column", "ragged-rows", "no-data-rows", "one-argument"],
)
def test_input_checks(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()


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


def within_bounds(c, u):
    """W(u) - s <= C(u) <= M(u) + s, with the slack s = 1/n + 1e-12 of an
    n-row rank copula."""
    slack = 1.0 / c.n + 1e-12
    return eval_W(u) - slack <= c.eval(u) <= eval_M(u) + slack


class TestFrechetHoeffdingBounds:
    def test_comonotone_attains_upper(self):
        # the diagonal rank copula meets min(u) where min(u) is one of its levels
        assert within_bounds(DIAG, (0.5, 0.8))
        assert DIAG.eval((0.5, 0.8)) == eval_M((0.5, 0.8)) == 0.5

    def test_empirical_random_sweep(self):
        rng = random.Random(3)
        for _ in range(1000):
            u = (rng.random(), rng.random())
            assert within_bounds(DIAG, u)


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
        # the cells are those of the merged rational levels, each against the
        # two atoms whose level intervals contain it and with its exact mass
        # rounded once; the exact masses of each atom's cells sum to its weight
        rng = random.Random(5)
        for _ in range(50):
            F = Empirical([(rng.uniform(-3, 3), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))])
            G = Empirical([(rng.uniform(-3, 3), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))])
            a, b = (
                [Fraction(c, law.total) for c in accumulate(law.nums, initial=0)] for law in (F, G)
            )
            ends = sorted(set(a[1:]) | set(b[1:]))
            exact = [
                (bisect_left(a, c) - 1, bisect_left(b, c) - 1, c - prev)
                for prev, c in zip([0, *ends], ends)
            ]
            assert list(comonotone_cells(F, G)) == [(i, j, float(m)) for i, j, m in exact]
            assert comonotone_coupling(F, G).atoms == tuple(
                (F.locations[i], G.locations[j], float(m)) for i, j, m in exact
            )
            for k, law in enumerate((F, G)):
                weights = [Fraction(0)] * len(law.nums)
                for cell in exact:
                    weights[cell[k]] += cell[2]
                assert weights == [Fraction(n, law.total) for n in law.nums]

    def test_coinciding_levels_share_one_cell(self):
        # the weights 1 + 2 and 3 (tenths) end on one level, although 0.1 +
        # 0.2 != 0.3 in floats, so no sliver cell appears between them
        F = Empirical([(0, "0.1"), (1, "0.2"), (2, "0.7")])
        G = Empirical([(0, "0.3"), (5, "0.7")])
        assert list(comonotone_cells(F, G)) == [(0, 0, 0.1), (1, 0, 0.2), (2, 1, 0.7)]
        assert comonotone_coupling(F, G).atoms == ((0, 0, 0.1), (1, 0, 0.2), (2, 5, 0.7))

    def test_default_grid_for_non_atomic_pair(self):
        pair = comonotone_coupling(Uniform(0, 1), Uniform(0, 2))
        assert len(pair.atoms) == COUPLING_GRID_N
        assert all(y == 2 * x and m == 1 / COUPLING_GRID_N for x, y, m in pair.atoms)
        assert len(comonotone_coupling(Uniform(0, 1), Uniform(0, 2), 4).atoms) == 4

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_fewer_than_two_cells_rejected(self, n):
        for F, G in ((Uniform(0, 1), Uniform(0, 2)), (F_RUN, G_RUN)):
            with pytest.raises(ValueError, match="n >= 2"):
                comonotone_coupling(F, G, n)

    def test_both_coordinates_nondecreasing(self):
        pair = comonotone_coupling(F_RUN, G_RUN)
        xs = [x for x, _, _ in pair.atoms]
        ys = [y for _, y, _ in pair.atoms]
        assert xs == sorted(xs) and ys == sorted(ys)


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

    def test_tied_values_rank_in_row_order(self):
        # -0.0 ties with 0.0; every rank comes back as a positive float
        c = EmpiricalCopula.from_data([(1.0, 0.0), (1.0, -0.0), (0.0, 0.0)])
        assert c.rows == ((1 / 3, 0.0), (2 / 3, 1 / 3), (0.0, 2 / 3))
        assert all(math.copysign(1.0, x) == 1.0 for row in c.rows for x in row)

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


@given(st.integers(1, 60), st.integers(2, 5), st.integers(0, 10**6))
def test_ranking_leaves_rank_rows_unchanged(n, d, seed):
    # so a copula file of shifted ranks reads the same when it is ranked
    rows = random_empirical_copula(random.Random(seed), n, d).rows
    assert EmpiricalCopula.from_data(rows).rows == rows


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
    c = random_empirical_copula(random.Random(seed), n, d)
    urng = random.Random(useed)
    u = tuple(urng.random() for _ in range(d))
    assert within_bounds(c, u)
