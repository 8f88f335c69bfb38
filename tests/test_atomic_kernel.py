"""The one-pass walks of the atomic routes against per-cell bisect references.

The references evaluate both quantile functions at the midpoint of each cell
of the sorted union of the two laws' levels (the u-axis), and both
distribution functions at each location of the sorted union of the two
supports (the x-axis), with one bisect per evaluation. The midpoint of two
adjacent floats rounds onto one of them, so the u-axis reference holds only
while no two merged levels are adjacent floats; the generated weights have
small denominators, which keeps the levels far apart.
"""
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wassercop import Empirical, comonotone_coupling, w1_cdf, wp_quantile, wp_via_M
from wassercop.copulas import comonotone_cells

# a small pool of locations makes duplicates within and across laws common
LOCATIONS = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(
    -10, 10, allow_nan=False
)
WEIGHTS = st.integers(1, 6) | st.sampled_from(["0.1", "0.25", "0.3", "0.125", "0.5", "1/3", "2/6"])
LAWS = st.lists(st.tuples(LOCATIONS, WEIGHTS), min_size=1, max_size=8).map(Empirical)

THIRDS = Empirical([(0.0, "1/3"), (1.0, "2/3")])
SIXTHS = Empirical([(0.5, "2/6"), (2.0, "4/6")])  # the same levels as THIRDS


def midpoint_cells(F, G):
    """(x, y, c, mass) per cell (prev, c] of the merged levels, with both
    quantiles read at the cell midpoint."""
    prev = 0.0
    for c in sorted(set(F.cumulative()) | set(G.cumulative())):
        u = (prev + c) / 2
        yield F.quantile(u), G.quantile(u), c, c - prev
        prev = c


def exact_mass(F, G, x, y):
    """The float nearest the exact mass that the level intervals of F's atom
    x and G's atom y share."""
    (a0, a1), (b0, b1) = (
        (Fraction(sum(law.nums[:k]), law.total), Fraction(sum(law.nums[: k + 1]), law.total))
        for law, k in ((F, F.locations.index(x)), (G, G.locations.index(y)))
    )
    return float(min(a1, b1) - max(a0, b0))


def reference_power(F, G, p):
    return math.fsum(m * abs(x - y) ** p for x, y, _, m in midpoint_cells(F, G))


def reference_w1_cdf(F, G):
    xs = sorted(set(F.locations) | set(G.locations))
    return math.fsum(
        abs(F.cdf(xs[k]) - G.cdf(xs[k])) * (xs[k + 1] - xs[k]) for k in range(len(xs) - 1)
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
    pair = comonotone_coupling(F, G)
    cells = list(midpoint_cells(F, G))
    assert pair.atoms == tuple((x, y, exact_mass(F, G, x, y)) for x, y, _, _ in cells)
    assert [c for _, _, c, _ in comonotone_cells(F, G)] == [c for _, _, c, _ in cells]
    assert w1_cdf(F, G).power_value == reference_w1_cdf(F, G)


def test_rationally_equal_levels_share_cells():
    assert [c for _, _, c, _ in comonotone_cells(THIRDS, SIXTHS)] == [1 / 3, 1.0]
    pair = comonotone_coupling(THIRDS, SIXTHS)
    # the masses are the exact 1/3 and 2/3, each rounded once (1.0 - 1 / 3
    # would be the float above 2 / 3)
    assert pair.atoms == ((0.0, 0.5, 1 / 3), (1.0, 2.0, 2 / 3))


def test_atomic_routes_evaluate_no_quantile_or_cdf(monkeypatch):
    F = Empirical([(x / 7, 1 + x % 3) for x in range(-20, 30)])
    G = Empirical([(x / 5, "0.25") for x in range(-9, 40)])
    expected = {p: reference_power(F, G, p) for p in (1, 2)}
    expected_cdf = reference_w1_cdf(F, G)

    def forbidden(law, arg):
        raise AssertionError("the atomic routes read each law once, without bisects")

    monkeypatch.setattr(Empirical, "quantile", forbidden)
    monkeypatch.setattr(Empirical, "cdf", forbidden)
    assert wp_quantile(F, G, 2).power_value == expected[2]
    assert wp_via_M(F, G, 1).power_value == expected[1]
    assert w1_cdf(F, G).power_value == expected_cdf
    assert len(comonotone_coupling(F, G).atoms) <= len(F.locations) + len(G.locations) - 1


def test_adjacent_float_levels_keep_the_routes_equal():
    # F's first level is the float just above G's 104/200, so a midpoint
    # between them rounds onto one end; the walk attributes the sliver cell
    # to the atoms whose level intervals contain it
    up = math.nextafter(104 / 200, 2.0)
    F = Empirical([(0.0, repr(up)), (5.0, str(1 - Fraction(repr(up))))])
    G = Empirical([(-3.0, 104), (1.0, 96)])
    assert F.cumulative()[0] == up
    right_ends = math.fsum(
        (c - prev) * abs(F.quantile(c) - G.quantile(c)) ** 3
        for prev, c in zip((0.0, 0.52, up), (0.52, up, 1.0))
    )
    assert wp_quantile(F, G, 3).power_value == wp_via_M(F, G, 3).power_value == right_ends
