"""Each workload's checker accepts reference outputs and rejects corrupted ones."""
import json
import math
from fractions import Fraction

import pytest

import reference as ref
from checks import QUAD_TOL, check, pair_reference
from workloads import (
    ATOMIC_ROUTES,
    CONTINUOUS_ROUTES,
    VERIFY_SUITES,
    atomic_inputs,
    canonical_measure,
    cli_inputs,
    continuous_inputs,
    failing_inputs,
    oracle_inputs,
    route_key,
)

SHIFT = 1 + 1e-6


def cli_compute_output(inputs):
    F, G = inputs["F"], inputs["G"]
    power = ref.wp_merged(F["x"], [float(w) for w in F["w"]], G["x"], [float(w) for w in G["w"]], 2.0)
    return {"p": 2.0, "power_value": power, "value": math.sqrt(power)}


@pytest.mark.parametrize("tier", ["light", "medium"])
def test_cli_compute(tier):
    inputs = cli_inputs(7, 0, tier)
    report = cli_compute_output(inputs)
    assert check("cli-cold", tier, inputs, {"exit": 0, "stdout": json.dumps(report)}) == []
    shifted = dict(report, power_value=report["power_value"] * SHIFT)
    assert check("cli-cold", tier, inputs, {"exit": 0, "stdout": json.dumps(shifted)})
    assert check("cli-cold", tier, inputs, {"exit": 1, "stdout": json.dumps(report)})
    assert check("cli-cold", tier, inputs, {"exit": 0, "stdout": "not json"})


def test_cli_verify():
    inputs = cli_inputs(7, 0, "heavy")
    lines = [f"PASS {suite}: checks=1 max_gap=0.000e+00" for suite in VERIFY_SUITES]
    assert check("cli-cold", "heavy", inputs, {"exit": 0, "stdout": "\n".join(lines)}) == []
    assert check("cli-cold", "heavy", inputs, {"exit": 1, "stdout": "\n".join(lines)})
    failing = lines[:3] + ["FAIL metric_axioms: checks=1 max_gap=1.0e+00"] + lines[4:]
    assert check("cli-cold", "heavy", inputs, {"exit": 0, "stdout": "\n".join(failing)})
    assert check("cli-cold", "heavy", inputs, {"exit": 0, "stdout": "\n".join(lines[1:])})


def test_atomic():
    inputs = atomic_inputs(7, 0, "light")
    want = {p: ref.wp_sorted(inputs["x"], inputs["y"], p) for p in (1.0, 2.0)}
    out = {route_key(r, p): want[p] for r, p in ATOMIC_ROUTES}
    assert check("atomic-large", "light", inputs, out) == []
    for key in out:
        assert check("atomic-large", "light", inputs, dict(out, **{key: out[key] * SHIFT})), key
    assert check("atomic-large", "light", inputs, {})


def northwest_corner(a, b):
    """Exact comonotone coupling of two sorted 1-D measures: optimal for p = 2."""
    a, b = list(a), list(b)
    i = j = 0
    entries = []
    while i < len(a) and j < len(b):
        m = min(a[i], b[j])
        entries.append([i, j, m])
        a[i] -= m
        b[j] -= m
        if a[i] == 0:
            i += 1
        if b[j] == 0:
            j += 1
    return entries


def test_oracle():
    inputs = oracle_inputs(7, 0, "light")
    (src, a), (dst, b) = canonical_measure(inputs["mu"]), canonical_measure(inputs["nu"])
    entries = northwest_corner(a, b)
    C = ref.cost_matrix(src, dst, 2.0)
    value = math.fsum(float(m) * C[i, j] for i, j, m in entries)
    out = {"value": value, "entries": [[i, j, str(m)] for i, j, m in entries]}
    assert check("oracle-cap", "light", inputs, out) == []
    assert check("oracle-cap", "light", inputs, dict(out, value=value * SHIFT))
    moved = [list(e) for e in out["entries"]]
    moved[0][2] = str(Fraction(moved[0][2]) - Fraction(1, 10**9))
    moved[1][2] = str(Fraction(moved[1][2]) + Fraction(1, 10**9))
    assert check("oracle-cap", "light", inputs, dict(out, entries=moved))


@pytest.mark.parametrize("tier", ["light", "medium", "heavy", "failing"])
def test_continuous(tier):
    inputs = failing_inputs() if tier == "failing" else continuous_inputs(7, 0, tier)
    out = {
        route_key(r, p, f"{kind}{i}"): pair_reference(spec, p)
        for i, (kind, spec) in enumerate(inputs)
        for r, p in CONTINUOUS_ROUTES[kind]
    }
    assert check("continuous", tier, inputs, out) == []
    largest = max(out, key=lambda k: abs(out[k]))
    # a 1e-6 relative shift exceeds QUAD_TOL * (1 + |value|) once |value| > 0.11;
    # the mixed pair's values are smaller, so there the shift is absolute
    if tier in ("light", "medium"):
        assert abs(out[largest]) > 0.2
        shifted = out[largest] * SHIFT
    else:
        shifted = out[largest] + 3 * QUAD_TOL
    assert check("continuous", tier, inputs, dict(out, **{largest: shifted}))
