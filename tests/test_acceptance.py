"""Acceptance gate: each criterion runs its verification suite, one line each.

The suites in wassercop.verify are the one definition of every criterion:
their instances, tolerances and counts. This file only names the suite and
seed of each criterion.
"""
import time

from wassercop.verify import SUITES

SEED = 20240817

# criterion -> (verify.SUITES key, seed); the continuous suite's instance is fixed
CRITERIA = {
    1: ("comonotone", SEED),
    2: ("formula_triangle", SEED),
    3: ("metric", SEED + 1),
    4: ("decomposition", SEED + 2),
    5: ("necessity", SEED + 3),
    6: ("frechet_hoeffding", SEED + 4),
    7: ("wpq_sandwich", SEED + 5),
    8: ("continuous", SEED),
    9: ("assignment", SEED + 6),
}


def run_criterion(number):
    suite, seed = CRITERIA[number]
    r = SUITES[suite](seed)
    line = f"criterion {number} ({r.name}): checks={r.checks} max_gap={r.max_gap:.3e} {r.detail}"
    print(f"{'PASS' if r.passed else 'FAIL'} {line}".rstrip())
    assert r.passed, line


def test_criterion_1_comonotone_optimality():
    start = time.monotonic()
    run_criterion(1)
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_2_formula_triangle():
    run_criterion(2)


def test_criterion_3_metric_axioms():
    run_criterion(3)


def test_criterion_4_shared_copula_decomposition():
    run_criterion(4)


def test_criterion_5_necessity_and_projection_bound():
    run_criterion(5)


def test_criterion_6_frechet_hoeffding():
    run_criterion(6)


def test_criterion_7_wpq_sandwich():
    run_criterion(7)


def test_criterion_8_continuous_sanity():
    run_criterion(8)


def test_criterion_9_assignment_cross_check():
    run_criterion(9)
