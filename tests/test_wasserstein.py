import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wassercop import (
    Empirical,
    EmpiricalCopula,
    Exponential,
    Method,
    Normal,
    Uniform,
    empirical_from_samples,
    expect_comonotone,
    w1_cdf,
    wp_lower_bound_nd,
    wp_quantile,
    wp_shared_nd,
    wp_via_M,
    wpq_bounds,
)

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
        Fs = Empirical([(a * x + b, w) for x, w in zip(F.locations, F.weights)])
        Gs = Empirical([(a * x + b, w) for x, w in zip(G.locations, G.weights)])
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

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    @pytest.mark.parametrize(
        "call",
        [
            lambda tol: wp_quantile(F_RUN, G_RUN, 2.0, tol),
            lambda tol: wp_via_M(F_RUN, G_RUN, 2.0, tol),
            lambda tol: w1_cdf(F_RUN, G_RUN, tol),
            lambda tol: expect_comonotone(Uniform(0, 1), G_RUN, lambda x, y: x - y, tol),
            lambda tol: wpq_bounds(None, (F_RUN,), (G_RUN,), 2, 1, tol),
        ],
        ids=["wp_quantile", "wp_via_M", "w1_cdf", "expect_comonotone", "wpq_bounds"],
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

    def test_far_normals_differ_by_scale(self):
        # W_3^3 = E|Z|^3 for Z ~ N(0, 1) = 2 sqrt(2 / pi)
        r = wp_quantile(Normal(1e120, 1.0), Normal(1e120, 2.0), 3)
        assert r.power_value == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_slow_exponentials_coincide(self):
        law = Exponential(1e-200)
        assert wp_quantile(law, law, 2).value == 0.0
