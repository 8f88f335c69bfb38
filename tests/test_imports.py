"""Atomic inputs never load scipy or numpy; the routes that need them still
work; the oracle imports none of the formulas it certifies; and every public
or traced name resolves."""
import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from wassercop import (
    Normal,
    Uniform,
    solve_ot,
    w1_cdf,
    wp_quantile,
    wp_via_M,
)
from wassercop.oracle import DiscreteMeasureND, power_cost

ATOMIC_COMPUTE = """
import sys
import wassercop
from wassercop import cli
rc = cli.main(["compute", sys.argv[1], sys.argv[2], "--p", "2"])
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy")))
sys.exit(rc)
"""


def test_atomic_compute_loads_neither_scipy_nor_numpy(tmp_path):
    f = tmp_path / "F.json"
    g = tmp_path / "G.csv"
    f.write_text(json.dumps({"kind": "empirical", "atoms": [[0, "0.5"], [1, "0.5"]]}))
    g.write_text("x,w\n0,1\n2,3\n")
    r = subprocess.run(
        [sys.executable, "-c", ATOMIC_COMPUTE, str(f), str(g)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    report, loaded = r.stdout.splitlines()
    assert json.loads(report)["power_value"] == pytest.approx(1.5, abs=1e-12)
    assert loaded == "[]"


PARAMETRIC_COMPUTE = """
import sys
from wassercop import cli
rc = cli.main(["compute", sys.argv[1], sys.argv[2], "--p", "2"])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
sys.exit(rc)
"""


@pytest.mark.parametrize(
    "laws, power",
    [
        (({"kind": "normal", "mean": 0, "stddev": 1}, {"kind": "normal", "mean": 1, "stddev": 2}), 2.0),
        (({"kind": "uniform", "a": 0, "b": 1}, {"kind": "uniform", "a": 0, "b": 2}), 1 / 3),
        (({"kind": "exponential", "rate": 1}, {"kind": "exponential", "rate": 0.5}), 2.0),
        # E(Z - sign Z)^2 = 2 - 2 E|Z|, by a closed-form cell against each atom
        (({"kind": "normal", "mean": 0, "stddev": 1}, "x\n-1\n1\n"), 2.0 - 2.0 * math.sqrt(2.0 / math.pi)),
    ],
    ids=["normal", "uniform", "exponential", "normal-csv-atoms"],
)
def test_parametric_compute_loads_no_scipy(tmp_path, laws, power):
    # closed-form cells and closed-form moments: no quadrature anywhere (a
    # str law is a CSV sample)
    paths = []
    for name, law in zip("FG", laws):
        csv = isinstance(law, str)
        path = tmp_path / f"{name}.{'csv' if csv else 'json'}"
        path.write_text(law if csv else json.dumps(law))
        paths.append(str(path))
    r = subprocess.run(
        [sys.executable, "-c", PARAMETRIC_COMPUTE, *paths], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    report, loaded = r.stdout.splitlines()
    assert json.loads(report)["power_value"] == pytest.approx(power, rel=1e-15)
    assert json.loads(report)["error_estimate"] == 0.0
    assert loaded == "[]"


def test_scipy_routes_keep_their_values():
    # W_2^2(N(0, 1), N(1, 4)) = E(1 + Z)^2 = 2 exactly. The quantile route
    # takes closed-form cells and gives it; the quad of wp_via_M takes the
    # two halves of the levels as tails in t, which reach both ends.
    F, G = Normal(0.0, 1.0), Normal(1.0, 2.0)
    assert wp_quantile(F, G, 2.0).power_value == 2.0
    assert abs(wp_via_M(F, G, 2.0).power_value - 2.0) <= 4 * math.ulp(2.0)
    # W_2^2(U(0, 1), U(0, 2)) = int_0^1 u^2 du = 1/3: no clamp cuts the
    # cells of a bounded law short of levels 0 and 1
    third = wp_via_M(Uniform(0.0, 1.0), Uniform(0.0, 2.0), 2.0).power_value
    assert abs(third - 1.0 / 3.0) <= 4 * math.ulp(1.0 / 3.0)
    # the cdf-difference integral (quad)
    assert w1_cdf(Uniform(0.0, 1.0), Uniform(0.0, 2.0)).value == pytest.approx(0.5, rel=1e-12)
    # equal-count uniform masses take the assignment fast path
    mu = DiscreteMeasureND([((0.0, 0.0), 1), ((1.0, 0.0), 1), ((0.0, 2.0), 1)])
    nu = DiscreteMeasureND([((1.0, 1.0), 1), ((0.0, 0.5), 1), ((2.0, 2.0), 1)])
    value, coupling = solve_ot(mu, nu, power_cost(2.0))
    assert value == 1.75
    assert [(i, j) for i, j, _ in coupling.entries] == [(0, 0), (1, 2), (2, 1)]


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wassercop"


def package_imports(module: str) -> set[str]:
    """The wassercop modules that src/wassercop/<module>.py imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wassercop"):
            found.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] for a in node.names if a.name.startswith("wassercop.")}
    return found


def test_oracle_imports_no_formula():
    # a check must not start from the answer it is checking
    assert package_imports("oracle") == {"distributions"}
    assert package_imports("copulas").isdisjoint({"wasserstein", "oracle", "verify"})


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_constant(name: str):
    """The literal that perfbench/tracing.py assigns to name."""
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(TRACING.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]
    )


def test_public_and_traced_names_resolve():
    # perfbench/tracing.py wraps these layers by name; a rename must fail here
    # rather than crash a traced benchmark run
    import wassercop

    timed = tracing_constant("TIMED")
    assert timed
    for qualname in timed:
        module, fn = qualname.split(".")
        assert callable(getattr(importlib.import_module(f"wassercop.{module}"), fn)), qualname
    for name in wassercop.__all__:
        assert hasattr(wassercop, name), name


def test_traced_suites_are_the_verify_suites():
    # perfbench/tracing.py times each verify suite by its verify.SUITES key
    from wassercop import verify

    assert tracing_constant("SUITES") == tuple(verify.SUITES)
