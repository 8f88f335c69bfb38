"""Atomic inputs never load scipy or numpy; the routes that need them still work."""
import json
import subprocess
import sys

import pytest

from wassercop import Normal, Uniform, solve_ot, w1_cdf, wp_quantile
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


def test_scipy_routes_keep_their_values():
    # Normal moments and the adaptive quantile integral (quad)
    r = wp_quantile(Normal(0.0, 1.0), Normal(1.0, 2.0), 2.0)
    assert r.power_value == pytest.approx(1.9999999999728526, rel=1e-12)
    # the cdf-difference integral (quad)
    assert w1_cdf(Uniform(0.0, 1.0), Uniform(0.0, 2.0)).value == pytest.approx(0.5, rel=1e-12)
    # equal-count uniform masses take the assignment fast path
    mu = DiscreteMeasureND([((0.0, 0.0), 1), ((1.0, 0.0), 1), ((0.0, 2.0), 1)])
    nu = DiscreteMeasureND([((1.0, 1.0), 1), ((0.0, 0.5), 1), ((2.0, 2.0), 1)])
    value, coupling = solve_ot(mu, nu, power_cost(2.0))
    assert value == 1.75
    assert [(i, j) for i, j, _ in coupling.entries] == [(0, 0), (1, 2), (2, 1)]
