"""In-process span tracer for the optmean layers.

The tracer wraps the public functions of each package module from outside
the package: every module of ``optmean`` that binds one of them (the CLI,
simulation and meta import them with ``from ... import``) gets the wrapper in
place of the original, and `DistributionSpec.quantile` is wrapped on its
class. A wrapper records a span (name, start, end, parent) in memory, bumps
the layer's work counters, and counts exceptions that leave the function as
the layer's errors. Layer metrics are computed from the spans after the run,
with self time = span duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = ("rng", "order_stats", "weights", "estimators", "simulation", "meta", "cli")
KINDS = ("normal", "lognormal", "beta", "exponential")

# Every per-layer metric the traced run reports, with its unit.
METRICS = {
    "rng.calls": "count", "rng.values": "count", "rng.busy_s": "s",
    "order_stats.quad_calls": "count", "order_stats.quad_cache_hits": "count",
    "order_stats.quad_busy_s": "s",
    "order_stats.mc_calls": "count", "order_stats.mc_values": "count",
    "order_stats.mc_self_s": "s",
    **{f"simulation.quantile_busy_s.{k}": "s" for k in KINDS},
    "simulation.values": "count", "simulation.rmse_self_s": "s",
    "weights.solve_calls": "count", "weights.solve_busy_s": "s",
    "weights.fit_busy_s": "s",
    "estimators.calls": "count", "estimators.busy_s": "s",
    "meta.studies": "count", "meta.read_busy_s": "s", "meta.pool_busy_s": "s",
    "cli.invocations": "count", "cli.self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.span_share": "ratio",
}


def _count_rng(c, args):
    c["rng.calls"] += 1
    c["rng.values"] += int(args[2]) * int(args[3])


def _count_mc(c, args):
    c["order_stats.mc_calls"] += 1
    c["order_stats.mc_values"] += int(args[0]) * int(args[1])


def _count_quantile(c, args):
    c["simulation.values"] += args[1].size


def _count_studies(c, args):
    c["meta.studies"] += len(args[0])


def _bump(key):
    def count(c, args):
        c[key] += 1
    return count


class Tracer:
    """Spans and counters for one traced run; `install` patches, `remove` undoes."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, count=None):
        layer = name.split(".", 1)[0]
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(counts, args)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[f"{layer}.errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _patch_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "optmean" or modname.startswith("optmean.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        from optmean import _rng, cli, estimators, meta, order_stats, simulation, weights

        targets = [
            (_rng.replicate_uniforms, "rng.replicate_uniforms", _count_rng),
            (order_stats.moments_quadrature, "order_stats.moments_quadrature",
             _bump("order_stats.quad_calls")),
            (order_stats.moments_mc, "order_stats.moments_mc", _count_mc),
            (simulation.run_rmse, "simulation.run_rmse", None),
            (weights.fit_power_law, "weights.fit", None),
            (meta.read_study_csv, "meta.read", None),
            (meta.load_bundled_studies, "meta.read", None),
            (meta.run_case_study, "meta.pool", _count_studies),
            (cli.main, "cli.main", _bump("cli.invocations")),
        ]
        for fn in (weights.optimal_weight_s1, weights.optimal_weight_s2,
                   weights.optimal_weights_s3):
            targets.append((fn, "weights.solve", _bump("weights.solve_calls")))
        for fn in (estimators.mean_hozo, estimators.mean_wan_s2, estimators.mean_bland,
                   estimators.mean_optimal, estimators.mean_weighted,
                   estimators.sd_estimate):
            targets.append((fn, "estimators", _bump("estimators.calls")))
        self._quad_cache = order_stats.moments_quadrature
        for original, name, count in targets:
            self._patch_everywhere(original, self._wrap(name, original, count))

        spec = simulation.DistributionSpec
        original = spec.quantile
        wrapped = {k: self._wrap(f"simulation.quantile.{k}", original, _count_quantile)
                   for k in KINDS}

        def quantile(obj, u):
            return wrapped.get(obj.kind, original)(obj, u)
        self._patches.append((spec, "quantile", original))
        spec.quantile = quantile

    def end_invocation(self):
        """Count this invocation's quadrature cache hits, then empty the cache."""
        self.counts["order_stats.quad_cache_hits"] += self._quad_cache.cache_info().hits
        self._quad_cache.cache_clear()

    def keep_errors_only(self):
        """Drop the spans and work counters recorded so far; keep the errors."""
        self.spans.clear()
        for key in [k for k in self.counts if not k.endswith(".errors")]:
            del self.counts[key]

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy, own = Counter(), Counter()
        for k, (name, start, end, parent) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[k]
        out = {key: float(self.counts[key]) for key, unit in METRICS.items()
               if unit == "count"}
        out.update({
            "rng.busy_s": busy["rng.replicate_uniforms"],
            "order_stats.quad_busy_s": busy["order_stats.moments_quadrature"],
            "order_stats.mc_self_s": own["order_stats.moments_mc"],
            "simulation.rmse_self_s": own["simulation.run_rmse"],
            "weights.solve_busy_s": busy["weights.solve"],
            "weights.fit_busy_s": busy["weights.fit"],
            "estimators.busy_s": busy["estimators"],
            "meta.read_busy_s": busy["meta.read"],
            "meta.pool_busy_s": busy["meta.pool"],
            "cli.self_s": own["cli.main"],
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.span_share": busy["cli.main"] / traced_wall if traced_wall > 0 else 0.0,
        })
        for k in KINDS:
            out[f"simulation.quantile_busy_s.{k}"] = busy[f"simulation.quantile.{k}"]
        return {key: out[key] for key in METRICS}
