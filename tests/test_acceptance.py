"""Acceptance gate: each criterion runs its verification suite, one line each.

The suites in wassercop.verify are the one definition of every criterion:
their instances, tolerances and counts. This file names the suite and seed
of each criterion, and pins its number of checks and the name it reports.
"""
import ast
import time
from pathlib import Path

from wassercop.verify import SUITES

SEED = 20240817

# criterion -> (verify.SUITES key, seed, checks); the continuous suite's
# instance is fixed
CRITERIA = {
    1: ("comonotone", SEED, 600),
    2: ("formula_triangle", SEED, 200),
    3: ("metric", SEED + 1, 6000),
    4: ("decomposition", SEED + 2, 300),
    5: ("necessity", SEED + 3, 101),
    6: ("frechet_hoeffding", SEED + 4, 10_000),
    7: ("wpq_sandwich", SEED + 5, 400),
    8: ("continuous", SEED, 3),
    9: ("assignment", SEED + 6, 40),
}

# the suite names, in criterion order, whose PASS lines the benchmark's
# cli-cold workload requires from `wassercop verify`
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
VERIFY_SUITES = next(
    ast.literal_eval(node.value)
    for node in ast.parse(WORKLOADS.read_text()).body
    if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["VERIFY_SUITES"]
)


def run_criterion(number):
    suite, seed, checks = CRITERIA[number]
    r = SUITES[suite](seed)
    line = f"criterion {number} ({r.name}): checks={r.checks} max_gap={r.max_gap:.3e} {r.detail}"
    print(f"{'PASS' if r.passed else 'FAIL'} {line}".rstrip())
    assert r.passed, line
    assert r.checks == checks, line
    assert r.name == VERIFY_SUITES[number - 1], line


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
