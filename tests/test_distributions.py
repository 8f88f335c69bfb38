import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wassercop import (
    Empirical,
    Exponential,
    Normal,
    Uniform,
    empirical_from_samples,
)

HALF = Fraction(1, 2)
TWO_POINT = Empirical([(0, HALF), (1, HALF)])


class TestCdf:
    def test_step_at_atom(self):
        assert TWO_POINT.cdf(0) == 0.5

    def test_below_support(self):
        assert TWO_POINT.cdf(-1) == 0.0

    def test_uniform_linear(self):
        assert Uniform(0, 2).cdf(0.5) == 0.25

    def test_uniform_width_must_be_finite(self):
        # a width of inf would make every cdf value 0.0 and W_1 silently 0.0
        with pytest.raises(ValueError, match="overflows a float"):
            Uniform(-1e308, 1e308)

    def test_right_continuity_limits(self):
        assert TWO_POINT.cdf(1) == 1.0
        assert TWO_POINT.cdf(0.999999) == 0.5

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TWO_POINT.cdf(math.nan)
        with pytest.raises(ValueError):
            Uniform(0, 1).cdf(math.inf)


class TestQuantile:
    def test_staircase_inf(self):
        assert TWO_POINT.quantile(0.5) == 0

    def test_staircase_jump(self):
        assert TWO_POINT.quantile(0.7) == 1

    def test_normal_median(self):
        assert Normal(0, 1).quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_endpoints_are_support_bounds(self):
        assert TWO_POINT.quantile(0.0) == 0
        assert TWO_POINT.quantile(1.0) == 1

    def test_out_of_range_rejected(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                TWO_POINT.quantile(bad)

    def test_left_continuous_at_jumps(self):
        d = Empirical([(0, "0.25"), (1, "0.5"), (3, "0.25")])
        for c in d.cumulative()[:-1]:
            u = float(c)
            below = d.quantile(math.nextafter(u, 0.0))
            assert d.quantile(u) == below  # left limit attained at the jump

    def test_nondecreasing(self):
        d = Empirical([(-2, 1), (0, 2), (5, 1)])
        us = [k / 100 for k in range(1, 100)]
        qs = [d.quantile(u) for u in us]
        assert qs == sorted(qs)


class TestEmpiricalFromSamples:
    def test_merge_and_normalize(self):
        d = empirical_from_samples([3, 1, 1])
        assert d.locations == (1, 3)
        assert d.weights == (Fraction(2, 3), Fraction(1, 3))

    def test_single_weighted_atom(self):
        d = empirical_from_samples([5], [2])
        assert d.atoms == ((5.0, 1.0),)

    def test_weight_normalization(self):
        d = empirical_from_samples([0, 1], [1, 3])
        assert d.weights == (Fraction(1, 4), Fraction(3, 4))
        scaled = empirical_from_samples([0, 1], [2, "6.0"])
        assert d == scaled and hash(d) == hash(scaled)

    def test_order_independence(self):
        a = empirical_from_samples([3, 1, 2], ["0.2", "0.5", "0.3"])
        b = empirical_from_samples([1, 2, 3], ["0.5", "0.3", "0.2"])
        assert a == b

    def test_weights_sum_exactly_to_one(self):
        d = empirical_from_samples(list(range(7)), ["0.1"] * 7)
        assert sum(d.weights) == 1

    def test_repeated_string_weights_equal_fractions(self):
        xs = [0.5, 2.0, -1.0, 0.5, 3.0, 2.0, 4.0]
        ws = ["1", "0.437", "1", "0.437", "1/3", "1", "0.437"]
        a = empirical_from_samples(xs, ws)
        b = empirical_from_samples(xs, [Fraction(w) for w in ws])
        assert a == b and hash(a) == hash(b)
        assert a.weights == b.weights

    @pytest.mark.parametrize(
        "w, message",
        [
            (0, "atom weight must be positive, got 0"),
            ("-1", "atom weight must be positive, got -1"),
            (math.nan, "cannot convert NaN"),
            ("nan", "Invalid literal for Fraction"),
            ("inf", "Invalid literal for Fraction"),
        ],
    )
    def test_bad_weight_rejected(self, w, message):
        with pytest.raises(ValueError, match=message):
            empirical_from_samples([1, 2, 3], ["1", w, "1"])

    def test_rejections(self):
        with pytest.raises(ValueError):
            empirical_from_samples([])
        with pytest.raises(ValueError):
            empirical_from_samples([1], [0])
        with pytest.raises(ValueError):
            empirical_from_samples([math.inf])


class TestMoment:
    """E|X|^p is the quantile cell (0, 1) against y = 0."""

    def test_normal_second_moment(self):
        # oracle: E[X^2] for a standard normal, cross-checked by sampling
        second = Normal(0, 1).quantile_cell(0.0, 1.0, 0.0, 2.0)
        assert second == pytest.approx(1.0, abs=1e-9)
        rng = random.Random(7)
        d = Normal(0, 1)
        n = 200_000
        sampled = math.fsum(d.quantile(rng.random()) ** 2 for _ in range(n)) / n
        assert second == pytest.approx(sampled, abs=0.02)

    def test_exponential_closed_form(self):
        third = Exponential(2.0).quantile_cell(0.0, 1.0, 0.0, 3.0)
        assert third == pytest.approx(math.gamma(4) / 8.0)


@st.composite
def empiricals(draw):
    n = draw(st.integers(1, 8))
    locs = draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n, unique=True
        )
    )
    ws = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return Empirical(zip(locs, ws))


@given(empiricals(), st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_galois_cdf_of_quantile(d, u):
    assert d.cdf(d.quantile(u)) >= u


@given(empiricals(), st.floats(-100, 100, allow_nan=False))
def test_galois_quantile_of_cdf(d, x):
    fx = d.cdf(x)
    if 0.0 < fx < 1.0:
        assert d.quantile(fx) <= x


@given(
    # levels inside the parametric clamp region [1e-12, 1 - 1e-12] are the
    # ones where quantile makes an exactness promise
    st.floats(1e-9, 1 - 1e-9),
    st.floats(-100, 100, allow_nan=False),
)
def test_galois_equivalence_parametric(u, x):
    for d in (Uniform(-2, 3), Normal(1, 2), Exponential(0.7)):
        # the two Galois implications, with rounding slack
        if u <= d.cdf(x):
            assert d.quantile(u) <= x + 1e-9
        if d.quantile(u) <= x:
            assert u <= d.cdf(x) + 1e-9


def test_galois_random_sweep():
    rng = random.Random(11)
    dists = [
        Empirical([(rng.uniform(-5, 5), rng.randint(1, 9)) for _ in range(rng.randint(1, 10))])
        for _ in range(20)
    ] + [Uniform(-1, 4), Normal(0, 2), Exponential(1.5), Empirical([(2.0, 1)])]
    for _ in range(10_000):
        d = rng.choice(dists)
        u = rng.random()
        if u in (0.0, 1.0):
            continue
        assert d.cdf(d.quantile(u)) >= u - 1e-12


@pytest.mark.parametrize(
    "d",
    [Uniform(0, 3), Normal(1, 0.5), Exponential(2.0)],
    ids=lambda d: type(d).__name__.lower(),
)
def test_pushforward_kolmogorov_smirnov(d):
    # quantile-transform sampling should reproduce the law (continuous cases;
    # the one-sample KS statistic is not meaningful against a discrete cdf)
    rng = random.Random(42)
    sample = [d.quantile(rng.random()) for _ in range(10_000)]
    stat = stats.kstest(sample, np.vectorize(d.cdf)).statistic
    assert stat < 0.05


def test_pushforward_frequencies_empirical():
    d = Empirical([(-1, 1), (0, 2), (2, 1)])
    rng = random.Random(42)
    n = 10_000
    counts = {x: 0 for x in d.locations}
    for _ in range(n):
        counts[d.quantile(rng.random())] += 1
    for x, w in zip(d.locations, d.weights):
        assert abs(counts[x] / n - float(w)) < 0.02
