"""The measuring process: one caller, one operation at a time.

Started by run.py. It sets up (imports, generates the first light input,
runs one untimed light operation), then runs whole rounds of the workload's
light, medium and heavy operations (workloads.round_schedule) until
--seconds have passed, and prints one JSON line with every operation's wall
time and output. With --trace, odd rounds run under the tracer on the
inputs of the round before, and the line carries per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    ATOMIC_ROUTES,
    CONTINUOUS_ROUTES,
    INPUTS,
    TIERS,
    failing_inputs,
    round_schedule,
    route_key,
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0-ns", type=int, required=True, help="CLOCK_MONOTONIC at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    return ap.parse_args(argv)


def write_csv(path: Path, law: dict) -> None:
    with path.open("w") as fh:
        fh.write("x,w\n")
        fh.writelines(f"{x!r},{w}\n" for x, w in zip(law["x"], law["w"]))


class CliOps:
    """Each operation is one `python -m wassercop` process; in a traced run,
    an in-process cli.main(argv) call with the same arguments."""

    def __init__(self, workdir: Path, in_process: bool):
        self.workdir = workdir
        self.in_process = in_process
        if in_process:
            import wassercop.cli  # noqa: F401  (cli.main is looked up per call)

    def prepare(self, tier: str, instance: int, inputs: dict) -> list[str]:
        if tier == "heavy":
            return ["verify", "--seed", str(inputs["verify_seed"])]
        paths = []
        for name in ("F", "G"):
            law = inputs[name]
            if tier == "light":
                path = self.workdir / f"{tier}{instance}-{name}.json"
                atoms = [[x, w] for x, w in zip(law["x"], law["w"])]
                path.write_text(json.dumps({"kind": "empirical", "atoms": atoms}))
            else:
                path = self.workdir / f"{tier}{instance}-{name}.csv"
                write_csv(path, law)
            paths.append(str(path))
        return ["compute", *paths, "--p", "2"]

    def run(self, tier: str, argv: list[str]) -> dict:
        if self.in_process:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = sys.modules["wassercop.cli"].main(argv)
            return {"exit": code, "stdout": stdout.getvalue()}
        proc = subprocess.run(
            [sys.executable, "-m", "wassercop", *argv], capture_output=True, text=True, timeout=120
        )
        return {"exit": proc.returncode, "stdout": proc.stdout}

    @staticmethod
    def failed(out: dict) -> bool:
        # exit codes 2-4 are the CLI's errors; 0 and 1 are results to check
        return out["exit"] not in (0, 1)


class InProcessOps:
    """atomic-large, oracle-cap and continuous: direct library calls. Each
    operation builds its laws from the raw inputs, then runs its routes."""

    def __init__(self, workload: str):
        import wassercop

        self.wc = wassercop
        self.workload = workload

    def prepare(self, tier: str, instance: int, inputs: dict) -> dict:
        return inputs

    def law(self, spec):
        kind, *params = spec
        if kind == "sample":
            return self.wc.empirical_from_samples(params[0])
        return {"uniform": self.wc.Uniform, "normal": self.wc.Normal,
                "exponential": self.wc.Exponential}[kind](*params)

    def route(self, route: str, F, G, p: float) -> float:
        wc = self.wc
        if route == "cdf":
            return wc.w1_cdf(F, G).power_value
        fn = wc.wp_quantile if route == "quantile" else wc.wp_via_M
        return fn(F, G, p).power_value

    def run(self, tier: str, inputs: dict) -> dict:
        wc = self.wc
        if self.workload == "atomic-large":
            F = wc.empirical_from_samples(inputs["x"])
            G = wc.empirical_from_samples(inputs["y"])
            return {route_key(r, p): self.route(r, F, G, p) for r, p in ATOMIC_ROUTES}
        if self.workload == "oracle-cap":
            mu = wc.DiscreteMeasureND(inputs["mu"])
            nu = wc.DiscreteMeasureND(inputs["nu"])
            value, coupling = wc.solve_ot(mu, nu, wc.power_cost(2.0))
            return {"value": value, "entries": [[i, j, str(m)] for i, j, m in coupling.entries]}
        out = {}
        for i, (kind, (f, g)) in enumerate(inputs):
            F, G = self.law(f), self.law(g)
            for r, p in CONTINUOUS_ROUTES[kind]:
                out[route_key(r, p, f"{kind}{i}")] = self.route(r, F, G, p)
        return out

    @staticmethod
    def failed(out) -> bool:
        return False


def timed(ops, tier: str, prepared) -> tuple[float, object, bool]:
    start = time.perf_counter()
    try:
        out = ops.run(tier, prepared)
    except Exception as exc:  # a failed operation is recorded, not fatal
        return time.perf_counter() - start, repr(exc), True
    return time.perf_counter() - start, out, ops.failed(out)


def record(instance: int, tier: str, seconds, traced: bool, failed: bool, out) -> dict:
    # the output is kept as a JSON string: the garbage collector does not
    # scan strings, so the records the run accumulates do not slow it down
    return {"instance": instance, "tier": tier, "seconds": seconds, "traced": traced,
            "failed": failed, "out": json.dumps(out, sort_keys=True)}


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = Path(args.workdir)
    cli = args.workload == "cli-cold"
    ops = CliOps(workdir, in_process=args.trace) if cli else InProcessOps(args.workload)
    make = INPUTS[args.workload]
    prepared = {}  # (tier, instance) -> what ops.run takes

    def inputs(tier: str, instance: int):
        if (tier, instance) not in prepared:
            prepared[tier, instance] = ops.prepare(tier, instance, make(args.seed, instance, tier))
        return prepared[tier, instance]

    ops.run("light", inputs("light", 0))  # warm-up
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    records = []
    start = time.perf_counter()
    round_ = 0
    while True:
        traced = tracer is not None and round_ % 2 == 1
        if traced:
            tracer.install()
        # a traced round repeats the inputs of the untraced round before it,
        # so the difference in wall time is the tracing overhead alone
        for tier, instance in round_schedule(args.workload, round_ // 2 if tracer else round_):
            if traced:
                tracer.op = len(records)
            seconds, out, failed = timed(ops, tier, inputs(tier, instance))
            records.append(record(instance, tier, seconds, traced, failed, out))
        if traced:
            tracer.uninstall()
            tracer.op = None
        if args.workload == "continuous":
            _, out, failed = timed(ops, "failing", failing_inputs())
            records.append(record(0, "failing", None, traced, failed, out))
        round_ += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or round_ >= 2):
            break

    who = resource.RUSAGE_CHILDREN if cli and not args.trace else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "records": records,
    }
    if tracer is not None:
        from tracing import per_layer_metrics

        traced_ops = {t: [(i, r["seconds"]) for i, r in enumerate(records)
                          if r["tier"] == t and r["traced"]] for t in TIERS}
        untraced = {t: [r["seconds"] for r in records if r["tier"] == t and not r["traced"]]
                    for t in TIERS}
        result["layers"] = per_layer_metrics(tracer, traced_ops, untraced)
        trace_file = workdir / "trace.json"
        trace_file.write_text(json.dumps({"spans": tracer.spans, "counts": [
            [op, name, n] for (op, name), n in tracer.counts.items()]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
