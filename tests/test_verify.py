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


def test_frechet_hoeffding_reports_closest_approach():
    # the gap is the excess over the slack, negative on a clean run
    result = SUITES["frechet_hoeffding"](0, evaluations=30)
    assert result.passed and result.max_gap < 0
