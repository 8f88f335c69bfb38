"""Closed-form quantile cells of the parametric families, against mpmath
quadrature and against the quadrature route wp_via_M."""
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wassercop import (
    Empirical,
    Exponential,
    Normal,
    Uniform,
    empirical_from_samples,
    w1_cdf,
    wp_quantile,
    wp_via_M,
)

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
def test_closed_form_agrees_with_quadrature(pair, p):
    # ten times quad's 1e-8 tolerance, as in the benchmark's check: quad
    # skips the levels beyond the 1e-12 clamp (1.5e-7 of W_3^3 = 9.06 for
    # Exponential(0.5) against atoms 0 and 4), and its estimate can run 3x
    # short on a cell that steepens towards one end
    F, G = pair
    cells = wp_quantile(F, G, p).power_value
    quad = wp_via_M(F, G, p).power_value
    assert abs(cells - quad) <= 1e-7 * (1.0 + abs(cells))
