import dataclasses
import subprocess
import sys
from functools import cache

import pytest

from wassercop.verify import SUITES, run_suites


@cache
def clean(name):
    """The suite's verdict at seed 0, run once in this process for the tests
    below."""
    return SUITES[name](0)


@cache
def corrupted(name):
    """The same with corrupt=True."""
    return SUITES[name](0, corrupt=True)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_corruption_fails_every_suite(name):
    assert clean(name).passed is True
    assert corrupted(name).passed is False


def fields(result):
    """A SuiteResult's fields, max_gap by its bits."""
    return dataclasses.replace(result, max_gap=result.max_gap.hex())


@pytest.mark.parametrize("corrupt, inline", [(False, clean), (True, corrupted)], ids=["clean", "corrupt"])
def test_worker_processes_change_nothing_but_wall_time(corrupt, inline):
    pooled = run_suites(seed=0, corrupt=corrupt)
    assert list(map(fields, pooled)) == [fields(inline(name)) for name in SUITES]


# A suite "raises" that raises QuadratureError, set at this script's top level
# so that a worker sees it whether it forks from the script's process or
# imports the script as its main module.
RAISING_SUITE = """
import sys
from wassercop import cli, verify
from wassercop.grids import QuadratureError


def raises(seed, corrupt=False):
    raise QuadratureError(f"quadrature failed at seed {seed}")


verify.SUITES["raises"] = raises

if __name__ == "__main__":
    try:
        verify.run_suites(["assignment", "raises"], seed=3)
    except QuadratureError as exc:
        print(f"{type(exc).__name__}: {exc}")
    sys.exit(cli.main(["verify", "--suite", "assignment", "--suite", "raises", "--seed", "3"]))
"""


def test_a_suite_that_raises_in_a_worker_raises_here(tmp_path):
    script = tmp_path / "raising_suite.py"
    script.write_text(RAISING_SUITE)
    r = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    # run_suites raises the worker's exception; the CLI exits 4 with one
    # error line and prints no verdict
    assert r.stdout == "QuadratureError: quadrature failed at seed 3\n"
    assert r.returncode == 4
    assert r.stderr == "error: quadrature failed at seed 3\n"


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
