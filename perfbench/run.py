"""wassercop benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from ./src.
The measuring process (worker.py) runs one operation at a time, in a closed
loop, and child processes run one at a time. This process never imports
wassercop: it regenerates the inputs from the seed and checks every output
against references computed apart from the program (reference.py).

With --trace 0 the line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run. See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check
from tracing import per_layer_names
from workloads import INPUTS, TIERS, failing_inputs

HERE = Path(__file__).resolve().parent
SETUPS = 3  # set-up is timed in this many fresh processes; the median is reported
CHILD_TIMEOUT = 150
WORKDIR = ".perfbench_work"
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "light_s": "s", "medium_s": "s", "heavy_s": "s"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    # cold starts read cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child failed ({proc.returncode}): {' '.join(argv[:4])} ...")
    return proc


def run_worker(args, workdir: Path, env: dict, *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--workdir", str(workdir), *extra]
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC is shared by all processes on Linux
    proc = run_child(argv + ["--t0-ns", str(t0)], env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_records(args, records: list[dict]) -> list[str]:
    """Check every output that did not fail. Repeated operations on the same
    inputs that returned the same output are checked once."""
    errors = []
    make = INPUTS[args.workload]
    seen = set()
    for r in records:
        key = (r["instance"], r["tier"], r["out"])
        if r["failed"] or key in seen:
            continue
        seen.add(key)
        inputs = failing_inputs() if r["tier"] == "failing" else make(args.seed, r["instance"], r["tier"])
        errors += check(args.workload, r["tier"], inputs, json.loads(r["out"]))
    return errors


def tier_seconds(records: list[dict], tier: str) -> float:
    """The median over the tier's instances of the fastest run of each: the
    host only ever slows an operation down, so an instance's fastest run is
    the one least disturbed (workloads.PLANS spreads its runs over the run)."""
    fastest: dict[int, float] = {}
    for r in records:
        if r["tier"] == tier and not r["failed"]:
            fastest[r["instance"]] = min(r["seconds"], fastest.get(r["instance"], math.inf))
    if not fastest:
        raise SystemExit(f"every {tier} operation failed")
    return statistics.median(fastest.values())


def interpreter_start(env: dict) -> float:
    start = time.perf_counter()
    run_child([sys.executable, "-c", "pass"], env)
    return time.perf_counter() - start


def import_times(env: dict) -> tuple[float, float]:
    """Seconds for a fresh `import wassercop`, and scipy's cumulative share."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import wassercop"], env)
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> tuple[float, float]:
    """wassercop's cumulative import seconds and the summed cumulative
    seconds of scipy modules imported outside any other scipy module, from
    -X importtime output (post-order: children before their parent)."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total, scipy, stack = 0, 0, []  # stack of (depth, inside scipy)
    for depth, cumulative, name in reversed(entries):  # now parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy += cumulative
        if name == "wassercop":
            total = cumulative
        stack.append((depth, inside or is_scipy))
    return total / 1e6, scipy / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wassercop" / "__init__.py").is_file():
        print("error: run from the root of a wassercop checkout (no src/wassercop)", file=sys.stderr)
        return 2
    workdir = root / WORKDIR / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(root)

    if args.trace:
        run = run_worker(args, workdir, env, "--trace")
        imports = [import_times(env) for _ in range(3)]
        metrics = dict(run["layers"])
        metrics["init.import_s"] = statistics.median(t for t, _ in imports)
        metrics["init.scipy_import_s"] = statistics.median(s for _, s in imports)
        metrics["cli.interpreter_s"] = statistics.median(interpreter_start(env) for _ in range(5))
        units = {name: ("s" if name.endswith("_s") else "count") for name in per_layer_names()}
    else:
        setups = [run_worker(args, workdir, env, "--setup-only")["setup_s"] for _ in range(SETUPS - 1)]
        run = run_worker(args, workdir, env)
        setups.append(run["setup_s"])
        metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": run["peak_rss_mb"]}
        for tier in TIERS:
            metrics[f"{tier}_s"] = tier_seconds(run["records"], tier)
        units = END_TO_END

    records = run["records"]
    errors = check_records(args, records)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    (workdir / f"result-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
