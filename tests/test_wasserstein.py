import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from wassercop import (
    DiscreteMeasureND,
    Empirical,
    EmpiricalCopula,
    Exponential,
    InputError,
    Method,
    Normal,
    NormCost,
    Uniform,
    comonotone_coupling,
    empirical_from_samples,
    power_cost,
    solve_ot,
    w1_cdf,
    wp_lower_bound_nd,
    wp_quantile,
    wp_shared_nd,
    wp_via_M,
    wpq_bounds,
)
from wassercop import grids, wasserstein
from wassercop.distributions import U_CLAMP, check_order
from wassercop.grids import DEFAULT_QUAD_TOL, integrate_unit, quad_tol
from wassercop.io import load_copula

HALF = Fraction(1, 2)
F_RUN = Empirical([(0, HALF), (1, HALF)])
G_RUN = Empirical([(0, "0.25"), (2, "0.75")])
# the comonotone rank copula on two rows
M2 = EmpiricalCopula([(0.0, 0.0), (0.5, 0.5)])


def random_empirical(rng, max_atoms=10):
    n = rng.randint(1, max_atoms)
    return Empirical(
        [(round(rng.uniform(-5, 5), 6), rng.randint(1, 9)) for _ in range(n)]
    )


class TestW1Cdf:
    def test_identical(self):
        assert w1_cdf(F_RUN, F_RUN).value == 0.0

    def test_point_masses(self):
        r = w1_cdf(Empirical([(0, 1)]), Empirical([(3, 1)]))
        assert r.value == 3.0 and r.error_estimate == 0.0

    def test_running_example(self):
        r = w1_cdf(F_RUN, G_RUN)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.method is Method.CDF_INTEGRAL
        assert r.error_estimate == 0.0

    def test_parametric_route(self):
        r = w1_cdf(Uniform(0, 1), Uniform(0, 2))
        # quantiles u and 2u: integral of u over (0,1)
        assert r.value == pytest.approx(0.5, abs=1e-8)


class TestWpQuantile:
    def test_identical(self):
        for p in (1, 2, 3):
            assert wp_quantile(F_RUN, F_RUN, p).value == 0.0

    def test_point_masses(self):
        d = Empirical([(1.5, 1)])
        e = Empirical([(-2, 1)])
        for p in (1, 2, 3.5):
            assert wp_quantile(d, e, p).value == pytest.approx(3.5)

    def test_running_example_p2(self):
        r = wp_quantile(F_RUN, G_RUN, 2)
        assert r.power_value == pytest.approx(1.5, abs=1e-12)
        assert r.value == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            wp_quantile(F_RUN, G_RUN, 0.9)


class TestWpViaM:
    def test_identical(self):
        assert wp_via_M(F_RUN, F_RUN, 1).value == 0.0

    def test_running_example_p1(self):
        assert wp_via_M(F_RUN, G_RUN, 1).power_value == pytest.approx(1.0, abs=1e-12)

    def test_uniform_scaling_p2(self):
        r = wp_via_M(Uniform(0, 1), Uniform(0, 2), 2)
        assert r.power_value == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_agrees_with_quantile_route(self):
        rng = random.Random(21)
        for _ in range(150):
            F, G = random_empirical(rng), random_empirical(rng)
            for p in (1, 2, 3):
                a = wp_via_M(F, G, p).power_value
                b = wp_quantile(F, G, p).power_value
                assert abs(a - b) <= 1e-10
        q1 = wp_quantile(F, G, 1).power_value
        assert abs(w1_cdf(F, G).power_value - q1) <= 1e-10


class TestWpSharedNd:
    def test_identical_margins(self):
        r = wp_shared_nd(M2, (F_RUN, G_RUN), (F_RUN, G_RUN), 2)
        assert r.value == 0.0
        assert r.method is Method.SHARED_COPULA_SUM

    def test_point_masses(self):
        a = (Empirical([(0, 1)]), Empirical([(0, 1)]))
        b = (Empirical([(1, 1)]), Empirical([(2, 1)]))
        assert wp_shared_nd(M2, a, b, 2).power_value == 5.0

    def test_uniform_margins_empirical_copula(self):
        C = EmpiricalCopula([(0.25, 0.25), (0.75, 0.75)])
        r = wp_shared_nd(
            C, (Uniform(0, 1), Uniform(0, 1)), (Uniform(0, 2), Uniform(0, 2)), 2
        )
        assert r.power_value == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert r.copula is not None

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            wp_shared_nd(
                EmpiricalCopula([(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)]), (F_RUN, G_RUN), (F_RUN, G_RUN), 2
            )


class TestWpqBounds:
    def test_single_coordinate_collapses(self):
        r = wpq_bounds(None, (F_RUN,), (G_RUN,), 2, 1)
        lo, hi = r.bounds
        assert lo == hi == r.power_value

    def test_q_below_p(self):
        r = wpq_bounds(M2, (F_RUN, F_RUN), (G_RUN, F_RUN), 2, 1)
        assert r.power_value == pytest.approx(1.5, abs=1e-12)
        assert r.bounds == pytest.approx((1.5, 3.0), abs=1e-12)

    def test_p_below_q(self):
        r = wpq_bounds(M2, (F_RUN, F_RUN), (G_RUN, F_RUN), 1, 2)
        assert r.power_value == pytest.approx(1.0, abs=1e-12)
        assert r.bounds == pytest.approx((2 ** -0.5, 1.0), abs=1e-12)

    def test_equal_orders_rejected(self):
        with pytest.raises(ValueError):
            wpq_bounds(M2, (F_RUN, F_RUN), (G_RUN, G_RUN), 2, 2)


class TestLowerBoundNd:
    def test_identical_margins(self):
        assert wp_lower_bound_nd((F_RUN, G_RUN), (F_RUN, G_RUN), 2) == 0.0

    def test_point_masses(self):
        a = (Empirical([(0, 1)]), Empirical([(0, 1)]))
        b = (Empirical([(1, 1)]), Empirical([(2, 1)]))
        assert wp_lower_bound_nd(a, b, 3) == 1 + 8

    def test_matches_shared_value(self):
        C = EmpiricalCopula([(0.25, 0.25), (0.75, 0.75)])
        margins_f = (Uniform(0, 1), Uniform(0, 1))
        margins_g = (Uniform(0, 2), Uniform(0, 2))
        assert wp_lower_bound_nd(margins_f, margins_g, 2) == pytest.approx(
            wp_shared_nd(C, margins_f, margins_g, 2).power_value
        )


class TestMetricAxioms:
    def test_axioms_on_random_triples(self):
        rng = random.Random(31)
        for _ in range(200):
            mu, nu, rho = (random_empirical(rng) for _ in range(3))
            for p in (1, 2):
                assert wp_quantile(mu, mu, p).value == 0.0
                ab = wp_quantile(mu, nu, p).value
                assert abs(ab - wp_quantile(nu, mu, p).value) <= 1e-12
                assert ab <= wp_quantile(mu, rho, p).value + wp_quantile(rho, nu, p).value + 1e-10

    def test_zero_iff_equal_in_law(self):
        a = Empirical([(0, 1), (2, 1)])
        b = Empirical([(0, "0.5"), (2, "0.5")])
        c = Empirical([(0, "0.4"), (2, "0.6")])
        assert wp_quantile(a, b, 2).value == 0.0
        assert wp_quantile(a, c, 2).value > 0.0


def test_scale_equivariance():
    rng = random.Random(37)
    for _ in range(50):
        F = random_empirical(rng)
        G = random_empirical(rng)
        a, b = rng.uniform(-3, 3) or 1.0, rng.uniform(-5, 5)
        Fs = Empirical([(a * x + b, w) for x, w in zip(F.locations, F.nums)])
        Gs = Empirical([(a * x + b, w) for x, w in zip(G.locations, G.nums)])
        for p in (1, 2):
            base = wp_quantile(F, G, p).value
            scaled = wp_quantile(Fs, Gs, p).value
            assert abs(scaled - abs(a) * base) <= 1e-12 * max(1.0, abs(a) * base)


class TestIntegrationRule:
    """The laws choose the route; a tolerance only reaches quadrature."""

    @pytest.mark.parametrize("tol", [1e-2, 1e-12])
    def test_atomic_pair_sums_exactly_at_any_tolerance(self, tol):
        for route in (wp_quantile, wp_via_M):
            r = route(F_RUN, G_RUN, 2.0, tol)
            assert (r.power_value, r.error_estimate) == (1.5, 0.0)
        r = w1_cdf(F_RUN, G_RUN, tol)
        assert (r.power_value, r.error_estimate) == (1.0, 0.0)

    @pytest.mark.parametrize("tol", [1e-2, 1e-12])
    @pytest.mark.parametrize(
        "F, G",
        [(Uniform(0, 1), Uniform(0, 2)), (Normal(0.5, 2.0), Empirical([(-1, 1), (2, 3)]))],
        ids=["uniform-pair", "normal-atoms"],
    )
    def test_closed_form_pair_ignores_tolerance(self, F, G, tol):
        r = wp_quantile(F, G, 2.0, tol)
        assert r.power_value == wp_quantile(F, G, 2.0).power_value
        assert r.error_estimate == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize(
        "F, G",
        [
            (Uniform(0, 1), Uniform(-0.5, 2)),
            (Normal(0, 1), Normal(1, 2)),
            (Exponential(2.0), Exponential(1.0)),
            (Normal(0.5, 2.0), Empirical([(-1, 1), (2, 3)])),
            (Uniform(0, 1), G_RUN),
        ],
        ids=["uniform-pair", "normal-pair", "exponential-pair", "normal-atoms", "uniform-atoms"],
    )
    def test_via_m_is_quadrature_on_closed_form_pairs(self, F, G, p):
        # wp_via_M never takes the closed-form cells: it checks them
        cells, quad = wp_quantile(F, G, p), wp_via_M(F, G, p)
        assert cells.error_estimate == 0.0
        assert quad.error_estimate > 0.0
        assert abs(quad.power_value - cells.power_value) <= 1e-8 * (1.0 + cells.power_value)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    @pytest.mark.parametrize(
        "call",
        [
            lambda tol: wp_quantile(F_RUN, G_RUN, 2.0, tol),
            lambda tol: wp_via_M(F_RUN, G_RUN, 2.0, tol),
            lambda tol: w1_cdf(F_RUN, G_RUN, tol),
            lambda tol: wp_via_M(Uniform(0, 1), G_RUN, 2.0, tol),
            lambda tol: wpq_bounds(None, (F_RUN,), (G_RUN,), 2, 1, tol),
        ],
        ids=["wp_quantile", "wp_via_M", "w1_cdf", "wp_via_M_quad", "wpq_bounds"],
    )
    def test_tolerance_must_be_positive(self, call, tol):
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            call(tol)


def test_report_value_is_root_of_power():
    r = wp_quantile(F_RUN, G_RUN, 3)
    assert r.value == pytest.approx(r.power_value ** (1 / 3), abs=1e-12)


def test_ten_thousand_samples_against_sorted_reference():
    # equal-weight samples of one size: W_p^p is the mean of |sorted diffs|^p
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=10_000), rng.exponential(size=10_000)
    F, G = empirical_from_samples(x.tolist()), empirical_from_samples(y.tolist())
    diff = np.abs(np.sort(x) - np.sort(y))
    for p in (1.0, 2.0):
        assert wp_quantile(F, G, p).power_value == pytest.approx(np.mean(diff**p), rel=1e-12)
    assert wp_via_M(F, G, 2.0).power_value == pytest.approx(np.mean(diff**2), rel=1e-12)
    assert w1_cdf(F, G).power_value == pytest.approx(np.mean(diff), rel=1e-12)


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.5])
@pytest.mark.parametrize(
    "call",
    [
        # W_inf of this pair is 0.3; an unchecked p = inf used to return 1.0
        lambda p: wp_quantile(Empirical([(0, 1), (0.5, 1)]), Empirical([(0.2, 1)]), p),
        lambda p: wp_via_M(Empirical([(0, 1), (0.5, 1)]), Empirical([(0.2, 1)]), p),
        lambda p: wpq_bounds(None, (F_RUN,), (G_RUN,), p, 1),
        lambda p: wpq_bounds(None, (F_RUN,), (G_RUN,), 2, p),
    ],
    ids=["wp_quantile", "wp_via_M", "wpq_bounds_p", "wpq_bounds_q"],
)
def test_order_must_be_finite_and_at_least_one(call, p):
    with pytest.raises(ValueError, match="must be finite and >= 1"):
        call(p)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_order(0.5),
        lambda: quad_tol(0.0),
        lambda: comonotone_coupling(F_RUN, G_RUN, 1),
        lambda: wp_lower_bound_nd((F_RUN,), (G_RUN, G_RUN), 2),
        lambda: wp_shared_nd(None, (F_RUN, F_RUN), (G_RUN, G_RUN), 2),
        lambda: wp_shared_nd(M2, (F_RUN,) * 3, (G_RUN,) * 3, 2),
        lambda: wpq_bounds(M2, (F_RUN,) * 2, (G_RUN,) * 2, 2, 2),
        lambda: power_cost(0.5),
        lambda: NormCost(0.5, 2),
        lambda: NormCost(2, 0.25),
        lambda: solve_ot(DiscreteMeasureND([((0.0,), 1)]), DiscreteMeasureND([((1.0,), 1)]),
                         power_cost(2), atom_cap=0),
        lambda: load_copula("no-such-copula.csv"),
    ],
    ids=["check_order", "quad_tol", "coupling-grid-n", "margin-counts", "copula-required",
         "copula-dim", "p-equals-q", "power_cost", "NormCost-p", "NormCost-q", "atom-cap", "missing-file"],
)
def test_bad_arguments_raise_input_error(call):
    # InputError is what the CLI maps to exit 2; it stays a ValueError
    with pytest.raises(InputError) as info:
        call()
    assert isinstance(info.value, ValueError)


class TestFarLaws:
    """W_p is translation-invariant, so laws whose p-th moment overflows a
    float can still be at a representable distance."""

    @pytest.mark.parametrize("route", [wp_quantile, wp_via_M])
    def test_far_point_masses_coincide(self, route):
        far = Empirical([(1e200, 1)])
        r = route(far, far, 3)
        assert r.value == 0.0 and r.error_estimate == 0.0

    def test_far_uniforms_by_cdf(self):
        # |F - G| = (x - 1e200) / 2e200 on [1e200, 2e200], then 1 - G(x) on [2e200, 3e200]
        r = w1_cdf(Uniform(1e200, 2e200), Uniform(1e200, 3e200))
        assert r.value == pytest.approx(5e199, rel=1e-9)

    @pytest.mark.parametrize("route", [w1_cdf, lambda F, G: wp_quantile(F, G, 1)],
                             ids=["cdf", "quantile-cells"])
    def test_far_uniforms_both_routes(self, route):
        # the closed-form cell divides by its width before it raises to p + 1
        r = route(Uniform(1e200, 2e200), Uniform(1e200, 3e200))
        assert r.value == pytest.approx(5e199, rel=1e-12)

    def test_far_normals_differ_by_scale(self):
        # W_3^3 = E|Z|^3 for Z ~ N(0, 1) = 2 sqrt(2 / pi)
        r = wp_quantile(Normal(1e120, 1.0), Normal(1e120, 2.0), 3)
        assert r.power_value == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_slow_exponentials_coincide(self):
        law = Exponential(1e-200)
        assert wp_quantile(law, law, 2).value == 0.0


def atom_breaks(F, G):
    """G's interior levels and F(y) inside each atom y's cell."""
    levels = G.cumulative()
    cells = zip(G.locations, (0.0, *levels), levels)
    return [*levels[:-1], *(F.cdf(y) for y, a, c in cells if a < F.cdf(y) < c)]


class TestCellIntegrands:
    """Against atoms, each interior cell is integrated against its own atom:
    the same edges and integrand values as looking both laws up at every
    node, in quad's batched first step and in quad, so the same floats come
    out. The cells run from level 0.0 to 1.0, and those at the parametric
    law's unbounded ends are its tails."""

    ATOMS = {
        Normal(0.3, 1.2): [(-1.0, 1), (0.3, 1), (2.0, 2)],  # F(0.3) = 0.5, a level
        Uniform(-1.0, 2.0): [(-0.25, 1), (0.5, 1), (0.8, 2)],  # F(-0.25) = 0.25, a level
        Exponential(0.8): [(0.0, 1), (0.4, 1), (3.0, 2)],  # F(0) = 0, the first cell's start
    }

    @staticmethod
    def with_tiny_atoms(atoms):
        # two atoms of relative weight 2.5e-13 at the bottom: their cells lie
        # below the checked quantile's clamp U_CLAMP, and the quadrature
        # reaches them all the same
        return Empirical([(-5.0, 1), (0.1, 1), *((x, w * 10**12) for x, w in atoms)])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("F", list(ATOMS), ids=lambda F: type(F).__name__)
    def test_quantile_cells_match_per_node_lookup(self, F, p, monkeypatch):
        G = self.with_tiny_atoms(self.ATOMS[F])
        assert G.cumulative()[0] < U_CLAMP
        edges = [0.0, *sorted(atom_breaks(F, G)), 1.0]
        # F's unchecked quantile: its checked one clamps the levels below U_CLAMP
        fq = F.quantile_function()
        f = lambda u: abs(fq(u) - G.quantile(u)) ** p
        # G's array lookup: the first atom whose level is >= u, as G.quantile
        locs, levels = np.array(G.locations), np.array(G.cumulative())
        batch = lambda u, k: abs(F.quantile_array(u) - locs[np.searchsorted(levels, u)]) ** p
        seen = []

        def spy(edges, integrand, tol, batch=None, lower=None, upper=None):
            seen.append((edges, lower, upper))
            return integrate_unit(edges, integrand, tol, batch, lower, upper)

        monkeypatch.setattr(wasserstein, "integrate_unit", spy)
        routes = [wp_via_M]
        if p == 1.5 and not isinstance(F, Uniform):  # no closed-form cell: the fallback
            routes.append(wp_quantile)
        for route in routes:
            for a, b in ((F, G), (G, F)):
                seen.clear()
                r = route(a, b, p)
                [(cells, lower, upper)] = seen
                assert cells == edges
                # the tails are the end cells at F's unbounded ends, from
                # their own edges in t
                assert (lower is not None, upper is not None) == (
                    F.unbounded_below, F.unbounded_above)
                if lower is not None:
                    assert lower[0] == [-math.log(edges[1])]
                if upper is not None:
                    [t0] = upper[0]
                    assert abs(math.exp(-t0) - (1.0 - edges[-2])) <= 1e-16
                # the interior cells looked up at every node, with the same tails
                ref = integrate_unit(edges, lambda k: f, DEFAULT_QUAD_TOL, batch, lower, upper)
                assert (r.power_value, r.error_estimate) == ref

    @pytest.mark.parametrize("F", list(ATOMS), ids=lambda F: type(F).__name__)
    def test_w1_cdf_splits_at_atoms_and_level_crossings(self, F, monkeypatch):
        # the cell edges w1_cdf hands quad: each atom inside the range is an
        # edge, and F - G keeps one sign inside each cell
        G = self.with_tiny_atoms(self.ATOMS[F])
        seen = []
        spy = lambda edges, integrand, tol: seen.append(edges) or integrate_unit(edges, integrand, tol)
        monkeypatch.setattr(wasserstein, "integrate_unit", spy)
        w1_cdf(F, G)
        edges = seen[0]
        assert {x for x in G.locations if edges[0] < x < edges[-1]} <= set(edges)
        for a, b in zip(edges, edges[1:]):
            gaps = [F.cdf(x) - G.cdf(x) for x in (a + (b - a) * t for t in (1e-6, 0.5, 1 - 1e-6))]
            assert min(gaps) >= 0.0 or max(gaps) <= 0.0, (a, b, gaps)

    @pytest.mark.parametrize("F", list(ATOMS), ids=lambda F: type(F).__name__)
    def test_w1_cdf_is_symmetric(self, F):
        # the same floats whichever side the atoms are on
        G = self.with_tiny_atoms(self.ATOMS[F])
        assert w1_cdf(G, F) == w1_cdf(F, G)


def seeded_law(rng, family):
    if family is Normal:
        return Normal(rng.uniform(-1, 1), rng.uniform(0.2, 2))
    if family is Uniform:
        a = rng.uniform(-2, 2)
        return Uniform(a, a + rng.uniform(0.5, 3))
    if family is Exponential:
        return Exponential(rng.uniform(0.5, 2))
    n = rng.choice([1, 5, 30])
    return Empirical([(round(rng.uniform(-3, 3), 6), rng.randint(1, 9)) for _ in range(n)])


def seeded_pairs(f, g, n, seed=0):
    rng = random.Random(seed)
    return [(seeded_law(rng, f), seeded_law(rng, g)) for _ in range(n)]


@pytest.mark.parametrize("family", [Normal, Exponential, Uniform])
def test_batched_first_step_is_quads_first_step(family, monkeypatch):
    # Against atoms, quad's first step runs on every cell at once. It must
    # accept a cell exactly when quad alone stops there after one
    # subinterval with no message, and then give quad's value. The value is
    # compared with quad on the batch's own integrand values (g), since
    # quantile_array agrees with quantile only to rounding; dqk21's error
    # estimate raises the sums' last-bit differences to the power 1.5.
    # The cells at an unbounded end are tails, which quad integrates in t.
    seen = []

    def spy(edges, integrand, tol, batch=None, lower=None, upper=None):
        seen.append((edges, integrand, tol, batch, lower, upper))
        return integrate_unit(edges, integrand, tol, batch, lower, upper)

    monkeypatch.setattr(wasserstein, "integrate_unit", spy)
    for F, G in seeded_pairs(family, Empirical, 20):
        for p in (1.0, 1.5, 2.0, 3.0):
            wp_via_M(F, G, p)
    accepted = 0
    for edges, integrand, tol, batch, lower, upper in seen:
        # the cells run from level 0.0 to 1.0, with no clamp
        assert edges[0] == 0.0 and edges[-1] == 1.0
        tails = {k for k, tail in ((0, lower), (len(edges) - 2, upper)) if tail}
        accept, values, errors = grids._kronrod_step(batch, edges, tol)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
            if k in tails:
                continue
            if lo == hi:  # a cell of width 0: 0.0, as quad gives it
                assert accept[k] and values[k] == errors[k] == 0.0
                continue
            f, epsabs = integrand(k), tol * (hi - lo)
            _, _, info, *message = scipy.integrate.quad(
                f, lo, hi, epsabs=epsabs, epsrel=tol, full_output=1
            )
            assert accept[k] == (info["last"] == 1 and not message), (lo, hi)
            if accept[k]:
                g = lambda u: batch(np.array([[u]]), np.array([k]))[0, 0]
                value, err = scipy.integrate.quad(g, lo, hi, epsabs=epsabs, epsrel=tol)
                assert abs(values[k] - value) <= 1e-13 * value
                assert abs(errors[k] - err) <= 1e-13 * value
                accepted += 1
    assert accepted > 500


def jump(height):
    return lambda u: height if u > 0.3 else 0.0, lambda u, k: np.where(u > 0.3, height, 0.0)


@pytest.mark.parametrize(
    "integrand, refined",
    [
        # a jump too small for the tolerance: dqk21's estimate is then the
        # whole spread resasc, which dqagse does not accept
        (jump(1e-20), [1]),
        (jump(1.0), [1]),
        ((lambda u: 2.0, lambda u, k: np.full_like(u, 2.0)), []),  # an estimate of 0.0
        ((lambda u: u * u, lambda u, k: u * u), []),
    ],
    ids=["tiny-jump", "jump", "constant", "square"],
)
def test_batched_first_step_follows_dqagse(integrand, refined):
    # the jump at 0.3 lies inside the second cell
    f, batch = integrand
    edges = [0.1, 0.2, 0.6, 0.7, 0.9]
    accept, values, errors = grids._kronrod_step(batch, edges, 1e-10)
    assert np.flatnonzero(~accept).tolist() == refined
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        epsabs = 1e-10 * (hi - lo) / (0.9 - 0.1)
        value, err, info, *message = scipy.integrate.quad(
            f, lo, hi, epsabs=epsabs, epsrel=1e-10, full_output=1
        )
        assert accept[k] == (info["last"] == 1 and not message)
        if accept[k]:
            assert abs(values[k] - value) <= 1e-15 * value and abs(errors[k] - err) <= 1e-15 * value


def test_tail_pieces_split_where_the_integrand_jumps():
    # one cell, levels [0, 1], taken in t = -log(1 - u) from t0 = 0, whose
    # integrand doubles at t = 5: quad takes [0, 5] and [5, inf) on their
    # own, and their sum is 1 + e^-5
    g = lambda t: (1.0 if t < 5.0 else 2.0) * math.exp(-t)
    value, err = integrate_unit([0.0, 1.0], None, 1e-12, upper=([0.0, 5.0], g))
    assert abs(value - (1.0 + math.exp(-5.0))) <= 1e-14 and err <= 1e-12


def atom_cell_list(F, G):
    """The edges and the atom of each cell, as wp_via_M hands them to
    integrate_unit for a parametric F against atoms G."""
    edges, ys = [0.0], []
    levels = G.cumulative()
    for y, prev, c in zip(G.locations, (0.0, *levels), levels):
        u = F.cdf(y)
        for edge in (u, c) if prev < u < c else (c,):
            edges.append(edge)
            ys.append(y)
    return edges, ys


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_batched_cells_do_not_depend_on_their_neighbours(p):
    # appending a cell of width 0 (and its atom) to the pass leaves every
    # other cell's test, value and error estimate bitwise as they were
    for F, G in seeded_pairs(Normal, Empirical, 100, seed=1):
        edges, ys = atom_cell_list(F, G)

        def step(edges, ys):
            ys = np.array(ys)
            batch = lambda u, k: abs(F.quantile_array(u) - ys[k, None]) ** p
            return grids._kronrod_step(batch, edges, DEFAULT_QUAD_TOL)

        alone, padded = step(edges, ys), step([*edges, edges[-1]], [*ys, ys[-1]])
        for before, after in zip(alone, padded):
            assert np.array_equal(before, after[:-1])


@pytest.mark.parametrize("law", [Normal(0.3, 1.2), Uniform(-1.0, 2.0), Exponential(0.8)], ids=repr)
def test_quantile_array_agrees_with_quantile(law):
    # the batched step's quantile: Uniform's own formula, numpy's log1p,
    # scipy's ndtri, on levels inside [U_CLAMP, 1 - U_CLAMP]
    tails = 10.0 ** -np.arange(1.0, 12.25, 0.25)
    u = np.concatenate((tails, np.linspace(0.01, 0.99, 99), 1.0 - tails))
    assert u.min() == U_CLAMP and u.max() == 1.0 - U_CLAMP
    want = [law.quantile(v) for v in u.tolist()]
    np.testing.assert_allclose(law.quantile_array(u), want, rtol=1e-14, atol=1e-14)
    if isinstance(law, Uniform):
        assert law.quantile_array(u).tolist() == want


@pytest.mark.parametrize(
    "pairs, bound",
    [
        # the last Normal pair missed by 1.4e-6 (1 + W) without its crossing
        (seeded_pairs(Normal, Normal, 200) + [(Normal(0.144, 0.589), Normal(-0.813, 1.675))],
         1e-8),
        (seeded_pairs(Uniform, Uniform, 200), 1e-8),
        # against atoms every kink is split off, so w1_cdf meets its own 1e-10
        (seeded_pairs(Normal, Empirical, 100), 1e-10),
        (seeded_pairs(Uniform, Empirical, 100), 1e-10),
        (seeded_pairs(Exponential, Empirical, 100), 1e-10),
    ],
    ids=["normal", "uniform", "normal-atoms", "uniform-atoms", "exponential-atoms"],
)
def test_w1_cdf_meets_the_closed_form(pairs, bound):
    # split at the CDF crossings, a Uniform law's ends and an Exponential
    # law's 0, and against atoms where the other CDF crosses each level
    for F, G in pairs:
        want = wp_quantile(F, G, 1).power_value
        assert abs(w1_cdf(F, G).power_value - want) <= bound * (1.0 + want)
