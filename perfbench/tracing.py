"""Spans around calls into wassercop's public functions, recorded from outside.

The tracer rebinds each traced function in every wassercop module that
holds it (callers inside the package look names up in their own module),
replaces the verify suites in verify.SUITES, and wraps the quantile and cdf
methods of the law classes with counters. Spans stay in memory and are
written out when the run ends.

A function's time in one operation is the sum of its outermost spans, so a
nested call of the same function is not counted twice.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

from workloads import TIERS

TIMED = (
    "cli.main",
    "io.load_distribution",
    "distributions.empirical_from_samples",
    "grids.integrate_unit",
    "copulas.comonotone_coupling",
    "wasserstein.wp_quantile",
    "wasserstein.wp_via_M",
    "wasserstein.w1_cdf",
    "oracle.solve_ot",
)
COUNTED = ("distributions.quantile_calls", "distributions.cdf_calls", "copulas.coupling_cells")
SUITES = (
    "comonotone",
    "formula_triangle",
    "metric",
    "decomposition",
    "necessity",
    "frechet_hoeffding",
    "wpq_sandwich",
    "continuous",
    "assignment",
)
PROBES = ("init.import_s", "init.scipy_import_s", "cli.interpreter_s")
# no workload's heavy operation reads a file (cli-cold's runs verify)
UNREACHED = {"io.load_distribution.heavy_s"}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    names = list(PROBES)
    for tier in TIERS:
        names += [f"{fn}.{tier}_s" for fn in TIMED if f"{fn}.{tier}_s" not in UNREACHED]
        names += [f"{count}.{tier}" for count in COUNTED]
        names.append(f"trace.overhead.{tier}_s")
    return names + [f"verify.{suite}_s" for suite in SUITES]


class Tracer:
    def __init__(self):
        import wassercop.cli  # noqa: F401  (loads every traced module)

        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.op: int | None = None

    def _span(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            if self._active[name]:
                return fn(*args, **kwargs)
            self._active[name] += 1
            span = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
                self._active[name] -= 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, name: str, method):
        def counted(law, *args, **kwargs):
            self.counts[(self.op, name)] += 1
            return method(law, *args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "wassercop" or n.startswith("wassercop.")]
        for qualname in TIMED:
            module, fn = qualname.split(".")
            original = getattr(sys.modules[f"wassercop.{module}"], fn)
            hook = None
            if qualname == "copulas.comonotone_coupling":

                def hook(pair):
                    self.counts[(self.op, "copulas.coupling_cells")] += len(pair.atoms)

            wrapper = self._span(qualname, original, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)
        suites = sys.modules["wassercop.verify"].SUITES
        for key in list(suites):
            self._set(suites, key, self._span(f"verify.{key}", suites[key]))
        distributions = sys.modules["wassercop.distributions"]
        base = distributions.Distribution1D
        for cls in vars(distributions).values():
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base:
                for method in ("quantile", "cdf"):
                    if method in cls.__dict__:
                        name = f"distributions.{method}_calls"
                        self._set(cls, method, self._count(name, cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def op_layers(self, op: int) -> dict[str, float]:
        """Seconds per traced function and exact counts within one operation."""
        out: dict[str, float] = Counter()
        for span in self.spans:
            if span["op"] == op:
                out[span["name"]] += (span["end_ns"] - span["start_ns"]) / 1e9
        for (span_op, name), n in self.counts.items():
            if span_op == op:
                out[name] += n
        return out


def per_layer_metrics(tracer: Tracer, traced_ops: dict[str, list[tuple[int, float]]],
                      untraced: dict[str, list[float]]) -> dict[str, float]:
    """Medians over each tier's traced operations; absent layers read 0.

    traced_ops maps a tier to its (op id, wall seconds) pairs and untraced
    maps a tier to the wall seconds of its untraced operations.
    """
    metrics: dict[str, float] = {}
    for tier in TIERS:
        layers = [tracer.op_layers(op) for op, _ in traced_ops[tier]]
        for fn in TIMED:
            if f"{fn}.{tier}_s" not in UNREACHED:
                metrics[f"{fn}.{tier}_s"] = statistics.median(lay[fn] for lay in layers)
        for count in COUNTED:
            metrics[f"{count}.{tier}"] = statistics.median(lay[count] for lay in layers)
        metrics[f"trace.overhead.{tier}_s"] = statistics.median(
            s for _, s in traced_ops[tier]
        ) - statistics.median(untraced[tier])
        if tier == "heavy":
            for suite in SUITES:
                metrics[f"verify.{suite}_s"] = statistics.median(
                    lay[f"verify.{suite}"] for lay in layers
                )
    return metrics
