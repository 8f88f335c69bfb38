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
from wassercop.distributions import U_CLAMP, merge_atoms

HALF = Fraction(1, 2)
TWO_POINT = Empirical([(0, HALF), (1, HALF)])
# the smallest Exponential rate whose mean 1/rate is a finite float; the
# CLI tests build a law at it
SMALLEST_RATE = 5.56268464626801e-309


@pytest.mark.parametrize(
    "build, error, fragment",
    [
        (lambda: Uniform(1.0, 1.0), ValueError, "needs a < b"),
        (lambda: Uniform(2.0, 1.0), ValueError, "needs a < b"),
        (lambda: Normal(0.0, 0.0), ValueError, "needs stddev > 0"),
        (lambda: Normal(0.0, -1.0), ValueError, "needs stddev > 0"),
        (lambda: Exponential(0.0), ValueError, "needs rate > 0"),
        (lambda: Exponential(-1.0), ValueError, "needs rate > 0"),
        (lambda: empirical_from_samples([1, 2], [1]), ValueError, "weights must match samples"),
        (lambda: merge_atoms([], []), ValueError, "need at least one atom"),
    ],
    ids=[
        "uniform-empty", "uniform-reversed", "normal-zero-stddev", "normal-negative-stddev",
        "exponential-zero-rate", "exponential-negative-rate", "weights-length", "no-atoms",
    ],
)
def test_input_checks(build, error, fragment):
    with pytest.raises(error, match=fragment):
        build()


class TestCdf:
    def test_step_at_atom(self):
        assert TWO_POINT.cdf(0) == 0.5

    def test_below_support(self):
        assert TWO_POINT.cdf(-1) == 0.0

    def test_uniform_linear(self):
        assert Uniform(0, 2).cdf(0.5) == 0.25

    @pytest.mark.parametrize(
        "law, spec",
        [
            (Uniform, (-1e308, 1e308)),
            (Exponential, (1e-320,)),
            (Exponential, (2e-320,)),
            (Exponential, (math.nextafter(SMALLEST_RATE, 0.0),)),
        ],
        ids=["uniform-width", "exponential-1e-320", "exponential-2e-320", "exponential-bound"],
    )
    def test_scale_must_be_finite(self, law, spec):
        # a width b - a or a mean 1/rate of inf turned W_1 into a silent 0.0
        with pytest.raises(ValueError, match="overflows a float"):
            law(*spec)

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

    @pytest.mark.parametrize("law", [Normal(0.3, 1.2), Exponential(0.8)], ids=repr)
    def test_parametric_ends_read_the_clamp(self, law):
        # levels 0 and 1 read the quantile at U_CLAMP and 1 - U_CLAMP
        assert law.quantile(0.0) == law.quantile(U_CLAMP)
        assert law.quantile(1.0) == law.quantile(1.0 - U_CLAMP)

    @pytest.mark.parametrize(
        "law",
        [
            Uniform(-1.0, 2.0),
            Uniform(0, 2),  # integer ends
            Normal(0.3, 1.2),
            Normal(-1e3, 7),
            Exponential(0.8),
            Exponential(2),
            TWO_POINT,
            Empirical([(-7.5, 1), (-0.2, 3), (0.4, 2), (9.0, 1)]),
        ],
        ids=repr,
    )
    def test_unchecked_functions_read_the_same_bits(self, law):
        # quantile_function() and cdf_function() skip the checks and the
        # clamp, which change nothing on levels in [U_CLAMP, 1 - U_CLAMP]
        # and on finite x: there they give the methods' values bit for bit
        rng = random.Random(11)
        us = [U_CLAMP, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0 - U_CLAMP]
        us += [rng.uniform(U_CLAMP, 1.0 - U_CLAMP) for _ in range(200)]
        q = law.quantile_function()
        assert [float.hex(q(u)) for u in us] == [float.hex(law.quantile(u)) for u in us]
        xs = [law.quantile(u) for u in us] + [-1e300, -3.0, -0.0, 0.0, 0.5, 2.0, 1e300]
        xs += [rng.uniform(-10.0, 10.0) for _ in range(200)]
        c = law.cdf_function()
        assert [float.hex(c(x)) for x in xs] == [float.hex(law.cdf(x)) for x in xs]

    @pytest.mark.parametrize(
        "law, scipy_law",
        [
            (Uniform(-1.0, 2.0), stats.uniform(-1.0, 3.0)),
            (Normal(0.3, 1.2), stats.norm(0.3, 1.2)),
            (Exponential(0.8), stats.expon(scale=1 / 0.8)),
        ],
        ids=repr,
    )
    def test_tail_functions_read_the_levels_in_t(self, law, scipy_law):
        # F^{-1}(e^-t) and F^{-1}(1 - e^-t), from e^-t itself: far out, where
        # 1 - e^-t rounds to 1.0, they still meet scipy's ppf and isf
        lower, upper = law.lower_tail_function(), law.upper_tail_function()
        for t in (0.01, 0.5, 3.0, 40.0, 300.0, 700.0):
            v = math.exp(-t)
            assert lower(t) == pytest.approx(scipy_law.ppf(v), rel=1e-12, abs=1e-15)
            assert upper(t) == pytest.approx(scipy_law.isf(v), rel=1e-12, abs=1e-15)
        # beyond the least float level the tails stay finite
        assert math.isfinite(lower(800.0)) and math.isfinite(upper(800.0))
        if law.unbounded_above:
            for x in (-3.0, 0.0, 2.0, 8.0, 30.0):
                assert law.survival(x) == pytest.approx(scipy_law.sf(x), rel=1e-13)

    def test_unbounded_ends(self):
        ends = lambda law: (law.unbounded_below, law.unbounded_above)
        assert ends(Normal(0.0, 1.0)) == (True, True)
        assert ends(Exponential(1.0)) == (False, True)
        assert ends(Uniform(0.0, 1.0)) == ends(TWO_POINT) == (False, False)

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
        assert (d.nums, d.total) == ((2, 1), 3)

    def test_single_weighted_atom(self):
        d = empirical_from_samples([5], [2])
        assert d.atoms == ((5.0, 1.0),)

    def test_weight_normalization(self):
        d = empirical_from_samples([0, 1], [1, 3])
        assert (d.nums, d.total) == ((1, 3), 4)
        scaled = empirical_from_samples([0, 1], [2, "6.0"])
        assert d == scaled and hash(d) == hash(scaled)

    def test_order_independence(self):
        a = empirical_from_samples([3, 1, 2], ["0.2", "0.5", "0.3"])
        b = empirical_from_samples([1, 2, 3], ["0.5", "0.3", "0.2"])
        assert a == b

    def test_signed_zeros_merge_to_positive_zero(self):
        # 0.0 == -0.0, so without a canonical zero the merged atom would keep
        # whichever sign came first
        xs = [0.0, 2.0, -0.0]
        for d in (empirical_from_samples(xs), empirical_from_samples(xs[::-1]),
                  Empirical((x, 1) for x in xs), Empirical((x, 1) for x in xs[::-1])):
            assert repr(d.locations) == "(0.0, 2.0)"
            assert repr(d) == "Empirical([(0.0, 0.6666666666666666), (2.0, 0.3333333333333333)])"

    def test_weights_sum_exactly_to_one(self):
        d = empirical_from_samples(list(range(7)), ["0.1"] * 7)
        assert (d.nums, d.total) == ((1,) * 7, 7)

    def test_repeated_string_weights_equal_fractions(self):
        xs = [0.5, 2.0, -1.0, 0.5, 3.0, 2.0, 4.0]
        ws = ["1", "0.437", "1", "0.437", "1/3", "1", "0.437"]
        a = empirical_from_samples(xs, ws)
        b = empirical_from_samples(xs, [Fraction(w) for w in ws])
        assert a == b and hash(a) == hash(b)
        assert (a.nums, a.total) == (b.nums, b.total)

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
    for x, k in zip(d.locations, d.nums):
        assert abs(counts[x] / n - k / d.total) < 0.02
