"""The one-pass walks of the atomic routes against exact references.

The references read each law's rational levels, its cumulative weights
over its total as Fractions. On the u-axis the cells are the intervals
between consecutive levels of the sorted union of both laws' levels, each
against the atoms whose level intervals contain it (one bisect per law)
and with its exact mass rounded once. On the x-axis they are the gaps
between consecutive locations of the sorted union of the two supports,
each with |F - G| exact and rounded once. No reference subtracts float
levels, which round: two atoms whose levels round to one float still get
their own cells.
"""
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wassercop import Empirical, comonotone_coupling, w1_cdf, wp_quantile, wp_via_M
from wassercop.copulas import comonotone_cells
from wassercop.oracle import DiscreteMeasureND, power_cost, solve_ot

# a small pool of locations makes duplicates within and across laws common
LOCATIONS = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(
    -10, 10, allow_nan=False
)
WEIGHTS = st.integers(1, 6) | st.sampled_from(["0.1", "0.25", "0.3", "0.125", "0.5", "1/3", "2/6"])
LAWS = st.lists(st.tuples(LOCATIONS, WEIGHTS), min_size=1, max_size=8).map(Empirical)

THIRDS = Empirical([(0.0, "1/3"), (1.0, "2/3")])
SIXTHS = Empirical([(0.5, "2/6"), (2.0, "4/6")])  # the same levels as THIRDS
# atoms 0 and 1e6 of weights 1 - 1e-10 and 1e-10: their float levels,
# 0.9999999999 and 1.0, differ by 1.00000008274037e-10
SLIVER = Empirical([(0.0, 10**10 - 1), (1e6, 1)])
ORIGIN = Empirical([(0.0, 1)])


def levels(law):
    """The law's cumulative weights over its total, exactly."""
    return [Fraction(c, law.total) for c in accumulate(law.nums)]


def exact_cells(F, G):
    """(i, j, mass) per cell (prev, c] of the merged rational levels: the
    atoms of F and G whose level intervals contain it and its exact mass."""
    lf, lg = levels(F), levels(G)
    prev = Fraction(0)
    for c in sorted(set(lf) | set(lg)):
        yield bisect_left(lf, c), bisect_left(lg, c), c - prev
        prev = c


def reference_cells(F, G):
    """(x, y, mass) per exact cell, with the mass rounded once."""
    return [(F.locations[i], G.locations[j], float(m)) for i, j, m in exact_cells(F, G)]


def reference_power(F, G, p):
    return math.fsum(m * abs(x - y) ** p for x, y, m in reference_cells(F, G))


def exact_cdf(law, x):
    return Fraction(sum(law.nums[: bisect_right(law.locations, x)]), law.total)


def reference_w1_cdf(F, G):
    xs = sorted(set(F.locations) | set(G.locations))
    return math.fsum(
        float(abs(exact_cdf(F, a) - exact_cdf(G, a))) * (b - a) for a, b in zip(xs, xs[1:])
    )


@settings(deadline=None)
@given(LAWS, LAWS)
@example(THIRDS, SIXTHS)
@example(Empirical([(1.0, 1)]), Empirical([(-2.5, "0.3"), (-2.5, "0.7")]))
def test_walks_equal_the_bisect_references(F, G):
    for p in (1, 2, 3):
        expected = reference_power(F, G, p)
        assert wp_quantile(F, G, p).power_value == expected
        assert wp_via_M(F, G, p).power_value == expected
    cells = reference_cells(F, G)
    assert comonotone_coupling(F, G).atoms == tuple(cells)
    assert [(i, j) for i, j, _ in comonotone_cells(F, G)] == [
        (i, j) for i, j, _ in exact_cells(F, G)
    ]
    assert w1_cdf(F, G).power_value == reference_w1_cdf(F, G)


def test_rationally_equal_levels_share_cells():
    assert list(comonotone_cells(THIRDS, SIXTHS)) == [(0, 0, 1 / 3), (1, 1, 2 / 3)]
    pair = comonotone_coupling(THIRDS, SIXTHS)
    # the masses are the exact 1/3 and 2/3, each rounded once (1.0 - 1 / 3
    # would be the float above 2 / 3)
    assert pair.atoms == ((0.0, 0.5, 1 / 3), (1.0, 2.0, 2 / 3))


def test_atomic_routes_evaluate_no_quantile_or_cdf(monkeypatch):
    F = Empirical([(x / 7, 1 + x % 3) for x in range(-20, 30)])
    G = Empirical([(x / 5, "0.25") for x in range(-9, 40)])
    expected = {p: reference_power(F, G, p) for p in (1, 2)}
    expected_cdf = reference_w1_cdf(F, G)
    cells = tuple(reference_cells(F, G))

    def forbidden(law, *args):
        raise AssertionError("the atomic routes read the integer weights, not the float levels")

    for method in ("quantile", "cdf", "cumulative"):
        monkeypatch.setattr(Empirical, method, forbidden)
    assert wp_quantile(F, G, 2).power_value == expected[2]
    assert wp_via_M(F, G, 1).power_value == expected[1]
    assert w1_cdf(F, G).power_value == expected_cdf
    assert comonotone_coupling(F, G).atoms == cells
    assert len(cells) <= len(F.locations) + len(G.locations) - 1


def test_adjacent_float_levels_keep_the_routes_equal():
    # F's first level is the float just above G's 104/200, and its exact
    # level, the decimal repr(up), lies 1e-16 above 0.52: the sliver cell
    # between them carries that exact mass (the float levels' difference
    # would be 1.1e-16) against F's atom 0 and G's atom 1
    up = math.nextafter(104 / 200, 2.0)
    F = Empirical([(0.0, repr(up)), (5.0, str(1 - Fraction(repr(up))))])
    G = Empirical([(-3.0, 104), (1.0, 96)])
    assert F.cumulative()[0] == up
    sliver = Fraction(repr(up)) - Fraction(104, 200)
    masses = [0.52, float(sliver), float(1 - Fraction(repr(up)))]
    assert list(comonotone_cells(F, G)) == [
        (0, 0, masses[0]), (0, 1, masses[1]), (1, 1, masses[2])
    ]
    assert masses[1] == 1e-16 != up - 0.52
    expected = math.fsum(m * c for m, c in zip(masses, (3.0**3, 1.0, 4.0**3)))
    assert wp_quantile(F, G, 3).power_value == wp_via_M(F, G, 3).power_value == expected


def test_w1_cdf_divides_before_it_multiplies():
    # |F - G| is 10**12 - 1 over L = 10**12 on a gap of width 2e300: the
    # integer difference times the width would overflow
    F = Empirical([(-1e300, 10**12 - 1), (1e300, 1)])
    G = Empirical([(1e300, 1)])
    expected = (10**12 - 1) / 10**12 * 2e300
    assert w1_cdf(F, G).power_value == wp_quantile(F, G, 1).power_value == expected


# 1-12 atoms at U(-5, 5) rounded to 6 decimals, one location in ten scaled
# by 1e4, and weights of 1..9 or 1..10**12: the large ones put levels
# within a few ulps of each other and of 1.0
WIDE_LOCATIONS = st.tuples(st.floats(-5, 5), st.integers(1, 10)).map(
    lambda t: round(t[0], 6) * (1e4 if t[1] == 10 else 1.0)
)
WIDE_WEIGHTS = st.integers(1, 9) | st.integers(1, 10**12)
WIDE_LAWS = st.lists(st.tuples(WIDE_LOCATIONS, WIDE_WEIGHTS), min_size=1, max_size=12).map(
    Empirical
)


@settings(deadline=None)
@given(WIDE_LAWS, WIDE_LAWS)
@example(SLIVER, ORIGIN)
def test_integer_walks_equal_the_exact_lp(F, G):
    # the exact LP prices its own north-west corner with the same masses, so
    # at p > 1, where the comonotone coupling is the only optimal one, the
    # values are the same floats; at p = 1 ties admit other optimal couplings
    mu, nu = DiscreteMeasureND.from_empirical(F), DiscreteMeasureND.from_empirical(G)
    for p in (1, 2, 3):
        lp, _ = solve_ot(mu, nu, power_cost(p))
        for route in (wp_quantile, wp_via_M):
            value = route(F, G, p).power_value
            if p == 1:
                assert abs(value - lp) <= 4 * math.ulp(lp), (route, value, lp)
            else:
                assert value == lp, (route, p, value, lp)
    xs = sorted(set(F.locations) | set(G.locations))
    exact = sum(
        abs(exact_cdf(F, a) - exact_cdf(G, a)) * (Fraction(b) - Fraction(a))
        for a, b in zip(xs, xs[1:])
    )
    assert abs(Fraction(w1_cdf(F, G).power_value) - exact) <= Fraction(1e-15) * exact
