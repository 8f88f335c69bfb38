"""Closed-form quantile cells of the parametric families, against mpmath
quadrature and against the quadrature route wp_via_M."""
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wassercop import (
    Distribution1D,
    Empirical,
    Exponential,
    Normal,
    Uniform,
    empirical_from_samples,
    w1_cdf,
    wp_quantile,
    wp_via_M,
)
from wassercop.distributions import U_CLAMP

LAWS = [Normal(0.5, 1.5), Uniform(-1.0, 2.0), Exponential(1.3)]


def natural(F):
    """(alpha, beta, weight, v) with F^{-1}(u) = alpha + beta v(u) and
    du = weight(v) dv: z for a Normal, u for a Uniform, -log(1 - u) for an
    Exponential law, all in mpmath."""
    if isinstance(F, Normal):
        v = lambda u: mp.sqrt(2) * mp.erfinv(2 * mp.mpf(u) - 1) if 0 < u < 1 else (2 * u - 1) * mp.inf
        return mp.mpf(F.mean), mp.mpf(F.stddev), mp.npdf, v
    if isinstance(F, Uniform):
        return mp.mpf(F.a), mp.mpf(F.b) - mp.mpf(F.a), lambda v: 1, mp.mpf
    v = lambda u: -mp.log1p(-mp.mpf(u)) if u < 1 else mp.inf
    return mp.mpf(0), 1 / mp.mpf(F.rate), lambda v: mp.exp(-v), v


def mp_integral(alpha, beta, weight, v0, v1, p):
    """int_{v0}^{v1} |alpha + beta v|^p weight(v) dv, split where it kinks."""
    cuts = [v0, v1]
    if beta != 0 and v0 < -alpha / beta < v1:
        cuts.insert(1, -alpha / beta)
    return mp.quad(lambda v: abs(alpha + beta * v) ** p * weight(v), cuts, method="gauss-legendre")


def mp_against_atoms(F, G, p):
    """W_p^p(F, G) for an atomic G, summed over G's float levels."""
    alpha, beta, weight, v = natural(F)
    with mp.workdps(20):
        total = mp.mpf(0)
        prev = 0.0
        for y, c in zip(G.locations, G.cumulative()):
            total += mp_integral(alpha - mp.mpf(y), beta, weight, v(prev), v(c), p)
            prev = c
        return total


def mp_same_family(F, G, p):
    """W_p^p of two laws of one family: their quantiles share the variable v."""
    a, b, weight, v = natural(F)
    c, d, _, _ = natural(G)
    with mp.workdps(20):
        return mp_integral(a - c, b - d, weight, v(0.0), v(1.0), p)


def sample(F, n):
    return empirical_from_samples([F.quantile(u) for u in np.random.default_rng(n).random(n)])


ATOMS = {
    # one cell (0, 1), split inside at the crossing F(0.3)
    "one": lambda F: Empirical([(0.3, 1)]),
    # atoms beyond both tails, and levels that are not multiples of 1/n
    "tails": lambda F: Empirical([(-7.5, 1), (-0.2, 3), (0.4, 2), (9.0, 1)]),
    "256": lambda F: sample(F, 256),
}


@pytest.mark.parametrize("F", LAWS, ids=lambda F: type(F).__name__.lower())
@pytest.mark.parametrize("atoms", ["one", "tails", "256"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_against_atoms_matches_mpmath(F, atoms, p):
    G = ATOMS[atoms](F)
    want = mp_against_atoms(F, G, p)
    for a, b in ((F, G), (G, F)):
        r = wp_quantile(a, b, p)
        assert r.error_estimate == 0.0
        assert abs(r.power_value - want) <= 1e-12 * want


SAME_FAMILY = [
    (Normal(0.0, 1.0), Normal(1.0, 2.0)),  # negative scale difference: reflected
    (Normal(1.0, 3.0), Normal(-0.5, 1.0)),  # mu + sigma z crosses 0 inside
    (Normal(2.0, 1.0), Normal(-1.0, 1.0)),  # equal scales: a constant shift
    (Uniform(0.0, 1.0), Uniform(0.0, 2.0)),
    (Uniform(-1.0, 2.0), Uniform(0.5, 1.0)),  # alpha + beta u crosses 0 inside
    (Uniform(0.0, 1.0), Uniform(3.0, 4.0)),
    (Exponential(1.0), Exponential(0.5)),
    (Exponential(2.0), Exponential(0.7)),
    (Exponential(1.5), Exponential(1.5)),
]


@pytest.mark.parametrize("F, G", SAME_FAMILY, ids=lambda d: repr(d))
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_same_family_matches_mpmath(F, G, p):
    want = mp_same_family(F, G, p)
    r = wp_quantile(F, G, p)
    assert r.error_estimate == 0.0
    assert abs(r.power_value - want) <= 1e-12 * want


def test_uniform_cells_take_any_order():
    F, G = Uniform(-1.0, 2.0), ATOMS["tails"](None)
    want = mp_against_atoms(F, G, 2.5)
    assert abs(wp_quantile(F, G, 2.5).power_value - want) <= 1e-12 * want


def test_normal_moment_is_the_cell_at_zero():
    # E|X|^p of N(m, s^2) = int_0^1 |F^{-1}(u)|^p du, with no quadrature
    for p in (1.0, 2.0, 3.0):
        F = Normal(-0.7, 1.3)
        want = mp_against_atoms(F, Empirical([(0.0, 1)]), p)
        assert abs(F.quantile_cell(0.0, 1.0, 0.0, p) - want) <= 1e-12 * want
    assert Normal(1.0, 2.0).quantile_cell(0.0, 1.0, 0.0, 2.0) == 5.0


def test_non_integer_orders_fall_back_to_quadrature():
    F, G = Normal(0.0, 1.0), ATOMS["tails"](None)
    assert Normal(0.0, 1.0).quantile_cell(0.0, 1.0, 0.0, 1.5) is None
    assert Exponential(1.0).quantile_cell(0.0, 1.0, 0.0, 2.5) is None
    r = wp_quantile(F, G, 1.5)
    assert r.error_estimate > 0.0
    want = mp_against_atoms(F, G, 1.5)
    assert abs(r.power_value - want) <= 1e-8 * want


def test_mixed_families_fall_back_to_quadrature():
    r = wp_quantile(Normal(0.0, 1.0), Uniform(0.0, 2.0), 2.0)
    assert r.error_estimate > 0.0
    with mp.workdps(20):
        want = mp.quad(
            lambda u: (mp.sqrt(2) * mp.erfinv(2 * u - 1) - 2 * u) ** 2, [0, 0.5, 1]
        )
    assert abs(r.power_value - want) <= 1e-8


def test_the_256_atom_pair_returns_on_all_three_routes():
    # past the 199-breakpoint limit of one quad call with points
    F = Normal(0.0, 1.0)
    G = empirical_from_samples(np.random.default_rng(256).standard_normal(256).tolist())
    want = {p: float(mp_against_atoms(F, G, p)) for p in (1.0, 2.0)}
    assert wp_quantile(F, G, 2.0).power_value == pytest.approx(want[2.0], rel=1e-12)
    assert wp_via_M(F, G, 2.0).power_value == pytest.approx(want[2.0], rel=1e-7)
    assert w1_cdf(F, G).power_value == pytest.approx(want[1.0], rel=1e-7)


families = st.one_of(
    st.builds(Normal, st.floats(-2.0, 2.0), st.floats(0.5, 2.0)),
    st.builds(lambda a, w: Uniform(a, a + w), st.floats(-2.0, 2.0), st.floats(0.5, 3.0)),
    st.builds(Exponential, st.floats(0.5, 2.0)),
)
atomic = st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.integers(1, 9)), min_size=1, max_size=30
).map(Empirical)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.tuples(families, atomic), st.tuples(families, families)),
    st.sampled_from([1.0, 2.0, 3.0]),
)
# the atom 0 cell (7/141, 1] falls to 0 at F(0) = 0.9999 and then steepens
# towards level 1: unsplit there, quad missed by 3.0e-6
@example(pair=(Normal(-1.861778875846241, 0.5), Empirical([(-1.0, 7), (0.0, 134)])), p=2.0)
# an atom of relative weight 1e-13 at -1e6, whose whole cell lies below
# level 1e-12: it carries 0.1 of W_2^2
@example(pair=(Uniform(0.0, 1.0), Empirical([(-1e6, 1), (0.5, 10**13 - 1)])), p=2.0)
def test_closed_form_agrees_with_quadrature(pair, p):
    # ten times quad's 1e-8 tolerance, as in the benchmark's check: its
    # estimate can run 3x short on a cell that steepens towards one end
    F, G = pair
    cells = wp_quantile(F, G, p).power_value
    quad = wp_via_M(F, G, p).power_value
    assert abs(cells - quad) <= 1e-7 * (1.0 + abs(cells))


# An atom of weight 1e-10 at 1e6 on top of a standard normal law: its cell's
# last 1e-12 of level, where |Phi^{-1}(u) - 1e6|^2 is about 1e12, carries 1%
# of W_2^2. The values are mpmath's, at 40 digits, on the exact levels.
TINY_TOP_ATOM = Empirical([(0.0, 10**10 - 1), (1e6, 1)])


@pytest.mark.parametrize("p, want", [(2.0, 100.99869768240058), (1.0, 0.7979845595005478)])
def test_top_tail_reaches_an_atom_of_tiny_weight(p, want):
    r = wp_via_M(Normal(0.0, 1.0), TINY_TOP_ATOM, p)
    assert abs(r.power_value - want) <= 1e-9 * want


# Atoms whose levels round to 1.0 in floats, above a bulk atom of weight
# 10^17: no cell but the top tail may end at level 1.0, where F^{-1} is
# infinite, so the tail takes every such cell and reads each atom from its
# exact survival in t. The values are mpmath's, at 40 digits, on the exact
# levels.
@pytest.mark.parametrize(
    "F, G, p, want",
    [
        (Normal(0.0, 1.0), Empirical([(0.0, 10**17), (1e6, 1), (2e6, 1)]), 1.0,
         0.79788456083286501474),
        (Normal(0.0, 1.0), Empirical([(0.0, 10**17), (1e6, 1), (2e6, 1)]), 2.0,
         1.0000499994866858221),
        (Normal(0.0, 1.0), Empirical([(0.0, 10**17), (1e6, 1), (2e6, 1)]), 3.0,
         91.594482648841821119),
        (Exponential(1.0), Empirical([(0.0, 10**17), (1e6, 1), (2e6, 1)]), 3.0,
         95.994020138659263984),
        # the cell of atom 1 runs from level 1 - 2^-53 to 1.0 in floats
        (Normal(0.0, 1.0), Empirical([(0.0, 10**17), (1.0, 11), (2.0, 1)]), 2.0,
         0.99999999999999798133),
    ],
    ids=["normal-p1", "normal-p2", "normal-p3", "exponential-p3", "one-ulp-cell"],
)
def test_top_tail_takes_the_cells_that_end_at_level_one(F, G, p, want):
    r = wp_via_M(F, G, p)
    assert abs(r.power_value - want) <= 1e-10 * want


# The same at the bottom of a law bounded there: an atom of weight 1e-13 far
# below, whose cell (0, 1e-13] the quadrature integrates to its end 0.0.
# The values are mpmath's, at 40 digits, on the exact levels.
@pytest.mark.parametrize(
    "F, G, p, want",
    [
        (Uniform(0.0, 1.0), Empirical([(-1e6, 1), (0.5, 10**13 - 1)]), 2.0, 0.18333333333330833),
        (Uniform(0.0, 1.0), Empirical([(-1e6, 1), (0.5, 10**13 - 1)]), 1.0, 0.25000009999995),
        (Exponential(1.0), Empirical([(-1e3, 1), (1.0, 10**13 - 1)]), 3.0, 2.4146532940572079),
    ],
    ids=["uniform-p2", "uniform-p1", "exponential-p3"],
)
def test_bottom_cell_reaches_an_atom_of_tiny_weight(F, G, p, want):
    r = wp_via_M(F, G, p)
    assert abs(r.power_value - want) <= 1e-12 * want


# Against a bulk atom of weight 10^400 an atom of weight 1 has a float level
# (or survival) of 0.0: the bottom tail takes every cell that starts at level
# 0.0, and both tails read each atom's t from the integer weights, where a
# float ratio would reach log as 0.0. W_p^p is E|Z|^p, 1.0 at p = 2.
@pytest.mark.parametrize(
    "atoms",
    [
        [(-1.0, 1), (0.0, 10**400)],
        [(-1.0, 1), (0.0, 10**400), (5.0, 1)],
        [(0.0, 10**400), (5.0, 1)],
    ],
    ids=["below", "both", "above"],
)
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_tails_read_atoms_whose_levels_underflow(atoms, p):
    G = Empirical(atoms)
    want = wp_quantile(Normal(0.0, 1.0), G, p).power_value
    assert abs(wp_via_M(Normal(0.0, 1.0), G, p).power_value - want) <= 1e-9 * want


@pytest.mark.parametrize("y", [-10.0, 10.0, 40.0])
def test_one_cell_with_both_ends_unbounded_splits_in_half(y):
    # F(y) rounds to 0.0 or 1.0, so the point mass's one cell is not split
    # at F(y); its halves are the lower and the upper tail
    G = Empirical([(y, 1)])
    for p in (1.0, 2.0, 3.0):
        want = wp_quantile(Normal(0.0, 1.0), G, p).power_value
        assert abs(wp_via_M(Normal(0.0, 1.0), G, p).power_value - want) <= 1e-12 * want


def test_slow_exponential_tail_meets_the_closed_form():
    # the top cell, atom 4's, runs from its exact mass 1/4 to level 1 in t
    F, G = Exponential(0.5), Empirical([(0.0, 3), (4.0, 1)])
    want = wp_quantile(F, G, 3.0).power_value
    assert abs(wp_via_M(F, G, 3.0).power_value - want) <= 1e-14 * want


def test_exponential_tails_against_atoms_meet_the_closed_form():
    rng = random.Random(3)
    for _ in range(100):
        F = Exponential(rng.uniform(0.5, 2.0))
        n = rng.randint(1, 100)
        G = Empirical([(round(rng.uniform(-3.0, 3.0), 6), rng.randint(1, 9)) for _ in range(n)])
        want = wp_quantile(F, G, 3.0).power_value
        assert abs(wp_via_M(F, G, 3.0).power_value - want) <= 1e-10 * (1.0 + want)


# Pairs whose quadrature integrands read the laws through quantile_function()
# and cdf_function(), and through the tail functions where a law is
# unbounded. The Normal-Uniform pair is a known quadrature miss: a crossing
# that no split finds.
QUADRATURE_PAIRS = [
    (Uniform(0.0, 1.0), Uniform(0.0, 2.0), (2.0,)),
    (Uniform(-1.0, 2.0), Uniform(0.5, 1.0), (1.0,)),
    # p = 2.5 and 1.5 have no closed form, so wp_quantile takes quadrature too
    (Exponential(1.0), Exponential(0.5), (1.0, 2.0, 2.5, 3.0)),
    (Normal(0.0, 1.0), sample(Normal(0.0, 1.0), 100), (1.0, 1.5, 2.0, 3.0)),
    (Normal(0.35365423516361116, 0.7244608023000971),
     Uniform(-1.8773229000069938, -0.1506538607526362), (1.0,)),
    # a slow tail: the top cell, integrated in t, carries 1.5e-7 of W_3^3
    # beyond level 1 - 1e-12
    (Exponential(0.5), Empirical([(0.0, 3), (4.0, 1)]), (3.0, 8.0)),
]
# point masses at the ends of the parametric law's support
END_PAIRS = [
    (Exponential(1.0), Empirical([(0.0, 1)]), (1.0, 2.0)),
    (Uniform(0.0, 2.0), Empirical([(0.0, 1)]), (1.0, 2.0)),
    (Uniform(0.0, 2.0), Empirical([(2.0, 1)]), (1.0, 3.0)),
]


def route_outcomes(F, G, orders):
    """Each route's (power_value, error_estimate) in hex."""
    reports = [w1_cdf(F, G)]
    for p in orders:
        reports += [wp_quantile(F, G, p), wp_via_M(F, G, p)]
    return [(r.power_value.hex(), r.error_estimate.hex()) for r in reports]


def checked(accessor, check):
    """accessor with the check applied to every argument of the callable it
    hands out."""
    return lambda law: (lambda v, fn=accessor(law): fn(check(law, v)))


def check_level(law, u):
    """quantile's check and clamp, written out."""
    assert type(u) is float and 0.0 <= u <= 1.0
    if law.unbounded_below or law.unbounded_above:
        u = min(max(u, U_CLAMP), 1.0 - U_CLAMP)
    return u


def check_point(law, x):
    assert type(x) is float and math.isfinite(x)
    return x


def test_unchecked_integrands_give_the_same_bits(monkeypatch):
    new = [route_outcomes(F, G, orders) for F, G, orders in QUADRATURE_PAIRS]
    # the integrands' callables behind quantile's and cdf's check and clamp
    for cls in (Uniform, Normal, Exponential):
        monkeypatch.setattr(cls, "quantile_function", checked(cls.quantile_function, check_level))
        monkeypatch.setattr(cls, "cdf_function", checked(cls.cdf_function, check_point))
    assert new == [route_outcomes(F, G, orders) for F, G, orders in QUADRATURE_PAIRS]


def test_integrands_see_only_clamped_levels_and_finite_range(monkeypatch):
    # the precondition that lets the integrands skip quantile's and cdf's
    # checks: quad evaluates a cell's integrand only strictly inside the
    # cell, so every level lies inside (0, 1), and on these pairs' cells
    # even inside the checked quantile's clamp [U_CLAMP, 1 - U_CLAMP]; and
    # w1_cdf integrates over its finite range [lo, hi]. "a" holds the levels
    # of quad's batched first step against atoms. The tail cells at an
    # unbounded end read the tail functions, at t > 0 ("t"), and no level.
    seen = {"u": [], "x": [], "a": [], "t": []}

    def recording(accessor, key):
        def wrapped(law):
            fn = accessor(law)

            def record(v):
                seen[key].append(v)
                return fn(v)

            return record

        return wrapped

    def recording_array(quantile_array):
        def record(law, u):
            assert u.dtype == np.float64
            seen["a"] += u.ravel().tolist()
            return quantile_array(law, u)

        return record

    accessors = [("quantile_function", "u"), ("cdf_function", "x")]
    accessors += [("lower_tail_function", "t"), ("upper_tail_function", "t")]
    for cls in (Distribution1D, Uniform, Normal, Exponential):
        for name, key in accessors:
            monkeypatch.setattr(cls, name, recording(vars(cls)[name], key))
    for cls in (Uniform, Normal, Exponential):
        monkeypatch.setattr(cls, "quantile_array", recording_array(cls.quantile_array))
    for F, G, orders in QUADRATURE_PAIRS + END_PAIRS:
        for levels in seen.values():
            levels.clear()
        route_outcomes(F, G, orders)
        assert all(type(u) is float for u in seen["u"])
        if isinstance(F, Empirical) or isinstance(G, Empirical):
            assert seen["a"]
        else:  # two parametric laws: quad alone, on levels or in t
            assert (seen["u"] or seen["t"]) and not seen["a"]
        assert all(U_CLAMP <= u <= 1.0 - U_CLAMP for u in seen["u"] + seen["a"])
        assert all(type(t) is float and 0.0 < t < math.inf for t in seen["t"])
        unbounded = any(law.unbounded_below or law.unbounded_above for law in (F, G))
        assert bool(seen["t"]) == unbounded
        lo = min(F.quantile(U_CLAMP), G.quantile(U_CLAMP))
        hi = max(F.quantile(1.0 - U_CLAMP), G.quantile(1.0 - U_CLAMP))
        assert seen["x"] and all(type(x) is float for x in seen["x"])
        assert lo <= min(seen["x"]) and max(seen["x"]) <= hi
