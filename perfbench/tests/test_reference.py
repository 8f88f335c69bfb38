"""The independent references against known values and mpmath quadrature."""
import itertools

import mpmath as mp
import numpy as np
import pytest

import reference as ref

# The README's running example: F = {0: 1/2, 1: 1/2}, G = {0: 1/4, 2: 3/4}.
RUNNING = ([0.0, 1.0], [0.5, 0.5], [0.0, 2.0], [0.25, 0.75])


def test_running_example():
    assert ref.wp_merged(*RUNNING, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert ref.wp_merged(*RUNNING, 2.0) == pytest.approx(1.5, abs=1e-15)
    x, wx, y, wy = RUNNING
    assert ref.w1_scipy(x, y, wx, wy) == pytest.approx(1.0, abs=1e-15)


def test_running_example_lp():
    src, a, dst, b = RUNNING
    assert ref.lp_value([[x] for x in src], a, [[y] for y in dst], b, 2.0) == pytest.approx(1.5, abs=1e-12)


def test_sorted_matches_merged_and_scipy():
    g = np.random.default_rng(0)
    x, y = g.standard_normal(500), 1.0 + 2.0 * g.standard_normal(500)
    ones = np.ones(500)
    for p in (1.0, 2.0, 3.0):
        assert ref.wp_sorted(x, y, p) == pytest.approx(ref.wp_merged(x, ones, y, ones, p), rel=1e-12)
    assert ref.w1_scipy(x, y) == pytest.approx(ref.wp_sorted(x, y, 1.0), rel=1e-12)


def test_merged_unequal_weights_matches_scipy():
    g = np.random.default_rng(1)
    x, y = g.standard_normal(40), g.standard_normal(60)
    wx, wy = g.integers(1, 10, 40), g.integers(1, 10, 60)
    assert ref.wp_merged(x, wx, y, wy, 1.0) == pytest.approx(ref.w1_scipy(x, y, wx, wy), rel=1e-12)


def test_lp_matches_brute_force():
    g = np.random.default_rng(2)
    src, dst = g.uniform(-1, 1, (5, 2)), g.uniform(-1, 1, (5, 2))
    C = ref.cost_matrix(src, dst, 2.0)
    brute = min(sum(C[i, j] for i, j in enumerate(perm)) for perm in itertools.permutations(range(5)))
    assert ref.lp_value(src, [0.2] * 5, dst, [0.2] * 5, 2.0) == pytest.approx(brute / 5, rel=1e-12)


def quantile_integral(qf, qg, p, cuts=()):
    mp.mp.dps = 30
    pts = [mp.mpf(0), *sorted(mp.mpf(c) for c in cuts), mp.mpf(1)]
    return float(mp.quad(lambda u: abs(qf(u) - qg(u)) ** p, pts))


def test_uniform_closed_form():
    assert ref.uniform_pair(0.0, 1.0, 0.0, 2.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    a1, b1, a2, b2 = -0.3, 1.1, 0.4, 0.9
    for p in (1.0, 2.0, 3.0):
        want = quantile_integral(
            lambda u: a1 + u * (b1 - a1), lambda u: a2 + u * (b2 - a2), p, [0.7 / 0.9]
        )
        assert ref.uniform_pair(a1, b1, a2, b2, p) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("m1,s1,m2,s2", [(0.3, 1.2, -0.4, 0.7), (0.1, 0.5, 0.9, 1.9), (1.0, 1.0, 0.0, 1.0)])
def test_normal_closed_form(m1, s1, m2, s2):
    assert ref.normal_pair(m1, s1, m2, s2, 2.0) == pytest.approx((m1 - m2) ** 2 + (s1 - s2) ** 2, rel=1e-13)
    mp.mp.dps = 30
    mu, sigma = mp.mpf(m1 - m2), mp.mpf(s1 - s2)
    for p in (1.0, 2.0, 3.0):
        # E|mu + sigma Z|^p, split where the integrand's kink is
        f = lambda z: abs(mu + sigma * z) ** p * mp.npdf(z)  # noqa: E731
        pts = [-mp.inf, mp.inf] if sigma == 0 else [-mp.inf, -mu / sigma, mp.inf]
        assert ref.normal_pair(m1, s1, m2, s2, p) == pytest.approx(float(mp.quad(f, pts)), rel=1e-12)


def test_exponential_closed_form():
    for p in (1.0, 2.0, 3.0):
        want = quantile_integral(lambda u: -mp.log(1 - u) / 0.7, lambda u: -mp.log(1 - u) / 1.6, p)
        assert ref.exponential_pair(0.7, 1.6, p) == pytest.approx(want, rel=1e-12)


def test_normal_vs_atoms_matches_quadrature():
    xs = [-1.3, -0.2, 0.05, 0.8, 2.4]
    mp.mp.dps = 30
    n = len(xs)
    z = [-mp.inf] + [mp.sqrt(2) * mp.erfinv(2 * mp.mpf(k) / n - 1) for k in range(1, n)] + [mp.inf]
    for p in (1.0, 2.0, 3.0):
        want = 0
        for k, x in enumerate(xs):
            pts = [z[k], *([mp.mpf(x)] if z[k] < x < z[k + 1] else []), z[k + 1]]
            want += mp.quad(lambda t: abs(t - x) ** p * mp.npdf(t), pts)
        assert ref.normal_vs_atoms(xs, p) == pytest.approx(float(want), rel=1e-12)

