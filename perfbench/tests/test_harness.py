"""BENCHMARK.json against the harness, the import-time parser and the tracer."""
import json
from pathlib import Path

import run
from tracing import Tracer, per_layer_names
from workloads import PLANS, TIERS, round_schedule

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["unit"] for m in spec["end_to_end"]} == set(run.END_TO_END.values())
    # atomic-large runs by hand only (README: too noisy on a shared host to gate)
    assert {w["name"] for w in spec["workloads"]} == set(run.INPUTS) - {"atomic-large"}


def test_round_schedule_follows_the_plans():
    for workload, plan in PLANS.items():
        for round_ in (0, 3):
            ops = round_schedule(workload, round_)
            for tier in TIERS:
                instances, runs = plan[tier]
                ids = [i for t, i in ops if t == tier]
                want = list(range(instances)) if instances else [round_]
                assert sorted(ids) == sorted(want * runs)
    # a tier's runs are spread over the round: with one heavy operation in
    # the middle, a cheap tier run more than once has runs on both sides
    for workload in PLANS:
        tiers = [t for t, _ in round_schedule(workload, 0)]
        middle = tiers.index("heavy")
        for tier in ("light", "medium"):
            if tiers.count(tier) > 1 and tiers.count("heavy") == 1:
                assert tier in tiers[:middle] and tier in tiers[middle:]


def test_tier_seconds_is_the_median_of_each_instances_fastest_run():
    def rec(instance, seconds, failed=False):
        return {"tier": "light", "instance": instance, "seconds": seconds, "failed": failed}

    records = [rec(0, 3.0), rec(0, 1.0), rec(1, 2.0), rec(1, 5.0), rec(2, 9.0), rec(2, 0.1, True),
               {"tier": "heavy", "instance": 0, "seconds": 0.5, "failed": False}]
    assert run.tier_seconds(records, "light") == 2.0  # fastest runs 1, 2 and 9


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |   site",
        "import time:         5 |          5 |         scipy._lib",
        "import time:       100 |        105 |       scipy",
        "import time:        20 |         20 |         scipy.integrate._quad",
        "import time:        30 |         50 |       scipy.integrate",
        "import time:         7 |          7 |       numpy",
        "import time:        40 |        202 |     wassercop.distributions",
        "import time:         3 |        205 |   wassercop",
    ])
    total, scipy = run.parse_importtime(text)
    assert total == 205e-6
    assert scipy == 155e-6


def test_tracer_records_and_restores():
    import wassercop
    from wassercop import wasserstein

    original = wasserstein.wp_quantile
    tracer = Tracer()
    F = wassercop.Empirical([(0.0, "1/2"), (1.0, "1/2")])
    G = wassercop.Empirical([(0.0, "1/4"), (2.0, "3/4")])
    tracer.install()
    tracer.op = 0
    assert wassercop.wp_quantile(F, G, 2.0).power_value == 1.5
    wassercop.wp_via_M(F, G, 2.0)
    tracer.uninstall()
    assert wasserstein.wp_quantile is original and wassercop.wp_quantile is original
    layers = tracer.op_layers(0)
    assert layers["wasserstein.wp_quantile"] > 0
    assert layers["copulas.comonotone_coupling"] > 0
    assert layers["copulas.coupling_cells"] == 3
    assert layers["distributions.quantile_calls"] == 6  # two per cell of the merged staircase
