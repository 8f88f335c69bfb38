"""Check each operation's output against the independent references.

Every checker returns a list of error strings, empty when the output is
correct. Outputs are what worker.py records: for cli-cold the exit code and
stdout of one process, for oracle-cap the value and the coupling entries
with exact masses, and otherwise a dict of values keyed by route_key.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import reference as ref
from workloads import ATOMIC_ROUTES, CONTINUOUS_ROUTES, VERIFY_SUITES, canonical_measure, route_key

# Exact-grid routes and the LP oracle agree with float references to ~1e-14;
# the bound leaves room for float summation order only.
EXACT_RTOL = 1e-9
# Quadrature routes run scipy's quad at the documented tolerance 1e-8
# (absolute and relative); ten times that absorbs the 1e-12 quantile clamp.
QUAD_TOL = 1e-7


def close(name: str, got: float, want: float, rtol: float, atol: float = 0.0) -> list[str]:
    if isinstance(got, (int, float)) and abs(got - want) <= rtol * abs(want) + atol:
        return []
    return [f"{name}: got {got!r}, reference {want!r}"]


def check_cli(tier: str, inputs: dict, out: dict) -> list[str]:
    if out["exit"] != 0:
        return [f"cli {tier}: exit code {out['exit']}"]
    if tier == "heavy":
        lines = out["stdout"].splitlines()
        errors = [f"verify: {line}" for line in lines if not line.startswith("PASS ")]
        for suite in VERIFY_SUITES:
            if not any(line.startswith(f"PASS {suite}:") for line in lines):
                errors.append(f"verify: no PASS line for {suite}")
        return errors
    try:
        report = json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        return [f"cli {tier}: stdout is not JSON: {exc}"]
    F, G = inputs["F"], inputs["G"]
    want = ref.wp_merged(F["x"], [float(w) for w in F["w"]], G["x"], [float(w) for w in G["w"]], 2.0)
    return close(f"cli {tier} power_value", report.get("power_value"), want, EXACT_RTOL) + close(
        f"cli {tier} value", report.get("value"), math.sqrt(want), EXACT_RTOL
    )


def check_atomic(tier: str, inputs: dict, out: dict) -> list[str]:
    x, y = inputs["x"], inputs["y"]
    want = {p: ref.wp_sorted(x, y, p) for p in (1.0, 2.0)}
    errors = close(f"{tier} scipy W_1", ref.w1_scipy(x, y), want[1.0], EXACT_RTOL)
    for route, p in ATOMIC_ROUTES:
        key = route_key(route, p)
        errors += close(f"{tier} {key}", out.get(key), want[p], EXACT_RTOL)
    return errors


def check_oracle(tier: str, inputs: dict, out: dict) -> list[str]:
    src, a = canonical_measure(inputs["mu"])
    dst, b = canonical_measure(inputs["nu"])
    C = ref.cost_matrix(src, dst, 2.0)
    errors = close(f"{tier} LP value", out["value"], ref.lp_value(src, a, dst, b, 2.0), EXACT_RTOL, 1e-12)
    rows = [Fraction(0)] * len(a)
    cols = [Fraction(0)] * len(b)
    cost = []
    for i, j, m in out["entries"]:
        m = Fraction(m)
        if m < 0:
            errors.append(f"{tier}: negative coupling mass at ({i}, {j})")
        rows[i] += m
        cols[j] += m
        cost.append(float(m) * C[i, j])
    if rows != a or cols != b:
        errors.append(f"{tier}: coupling margins differ from the input masses")
    errors += close(f"{tier} sum mass*cost", out["value"], math.fsum(cost), 1e-12, 1e-15)
    return errors


def pair_reference(spec: tuple, p: float) -> float:
    (kind, *f), (kind_g, *g) = spec
    if kind_g == "sample":  # Normal(0, 1) against atoms
        return ref.normal_vs_atoms(g[0], p)
    if kind == "uniform":
        return ref.uniform_pair(f[0], f[1], g[0], g[1], p)
    if kind == "exponential":
        return ref.exponential_pair(f[0], g[0], p)
    return ref.normal_pair(f[0], f[1], g[0], g[1], p)


def check_continuous(tier: str, inputs: dict, out: dict) -> list[str]:
    errors = []
    for i, (kind, spec) in enumerate(inputs):
        want = {p: pair_reference(spec, p) for _, p in CONTINUOUS_ROUTES[kind]}
        for route, p in CONTINUOUS_ROUTES[kind]:
            key = route_key(route, p, f"{kind}{i}")
            errors += close(f"{tier} {key}", out.get(key), want[p], QUAD_TOL, QUAD_TOL)
    return errors


CHECKERS = {
    "cli-cold": check_cli,
    "atomic-large": check_atomic,
    "oracle-cap": check_oracle,
    "continuous": check_continuous,
}


def check(workload: str, tier: str, inputs: dict, out: dict) -> list[str]:
    try:
        return CHECKERS[workload](tier, inputs, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"{workload} {tier}: malformed output ({exc!r})"]

