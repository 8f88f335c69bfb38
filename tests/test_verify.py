from functools import cache

import pytest

from wassercop.verify import SUITES, run_suites


@cache
def clean(name):
    """The suite's verdict at seed 0, run once for the tests below."""
    return SUITES[name](0)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_corruption_fails_every_suite(name):
    assert clean(name).passed is True
    assert run_suites([name], corrupt=True)[0].passed is False


# each suite's number of checks: per instance, one check per order p and per
# rule; the assignment suite would skip an instance whose random atoms merge
CHECKS = {
    "comonotone": 200 * 3,
    "formula_triangle": 200 * 1,
    "metric": 1000 * 6,
    "decomposition": 100 * 3,
    "necessity": 100 + 1,
    "frechet_hoeffding": 10_000,
    "wpq_sandwich": 4 * 2 * 50,
    "continuous": 3,
    "assignment": 40,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_check_counts(name):
    assert clean(name).checks == CHECKS[name]


def test_frechet_hoeffding_reports_closest_approach():
    # the gap is the excess over the slack, negative on a clean run
    result = clean("frechet_hoeffding")
    assert result.passed and result.max_gap < 0


def test_unknown_suite_rejected():
    with pytest.raises(KeyError, match="unknown suite 'nope'"):
        run_suites(["nope"])
