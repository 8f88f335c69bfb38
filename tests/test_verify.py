from functools import partial

import pytest

from wassercop.verify import SUITES, run_suites

# reduced sizes through each suite's own size argument, so every suite runs
# in a fraction of a second
SMALL = {
    "comonotone": {"pairs": 5},
    "formula_triangle": {"pairs": 5},
    "metric": {"triples": 5},
    "decomposition": {"count": 4},
    "necessity": {"count": 4},
    "frechet_hoeffding": {"evaluations": 30},
    "wpq_sandwich": {"per_case": 1},
    "continuous": {"atoms": 20},
    "assignment": {"count": 5},
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_corruption_fails_every_suite(name, monkeypatch):
    monkeypatch.setitem(SUITES, name, partial(SUITES[name], **SMALL[name]))
    assert run_suites([name])[0].passed is True
    assert run_suites([name], corrupt=True)[0].passed is False


# each suite's number of checks at the SMALL sizes: per instance, one check
# per order p and per rule
SMALL_CHECKS = {
    "comonotone": 5 * 3,
    "formula_triangle": 5 * 1,
    "metric": 5 * 6,
    "decomposition": 4 * 3,
    "necessity": 4 + 1,
    "frechet_hoeffding": 30,
    "wpq_sandwich": 1 * 8,
    "continuous": 3,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_check_counts(name):
    checks = SUITES[name](0, **SMALL[name]).checks
    if name == "assignment":
        # instances whose random atoms merge are skipped
        assert 1 <= checks <= SMALL[name]["count"]
    else:
        assert checks == SMALL_CHECKS[name]


def test_frechet_hoeffding_reports_closest_approach():
    # the gap is the excess over the slack, negative on a clean run
    result = SUITES["frechet_hoeffding"](0, evaluations=30)
    assert result.passed and result.max_gap < 0


def test_unknown_suite_rejected():
    with pytest.raises(KeyError, match="unknown suite 'nope'"):
        run_suites(["nope"])
