"""Per-layer metrics of the traced run.

Each workload's traced run hands its :class:`~perfbench.tracing.Recorder`
(and, for the HTTP server, the server's own span dump and
``/metrics`` counters) to the functions here, which fold them into
the ``per_layer`` metrics of ``BENCHMARK.json``.  A layer a workload
does not exercise reports zero work, which is itself a check: hits
served over HTTP must show no configurator time.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from perfbench.common import percentile

#: Modules whose cumulative import time ``startup.*`` reports, by
#: metric suffix.  The record also lists the ten slowest modules.
STARTUP_MODULES = {
    "numpy_s": "numpy",
    "repro_cluster_s": "repro.cluster",
    "repro_core_s": "repro.core",
    "service_fleet_s": "repro.service.fleet",
    "service_http_s": "repro.service.http",
    "service_gateway_s": "repro.service.gateway",
}

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def startup_metrics(root: Path, src: Path) -> "tuple[dict, list]":
    """``-X importtime`` of ``import repro.service`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.service"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    cumulative: "dict[str, float]" = {}
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            cumulative[match.group(4)] = int(match.group(2)) / 1e6
    metrics = {"startup.import_s": cumulative["repro.service"]}
    for suffix, module in STARTUP_MODULES.items():
        metrics[f"startup.{suffix}"] = cumulative.get(module, 0.0)
    top = sorted(cumulative.items(), key=lambda kv: -kv[1])[:10]
    return metrics, [f"{name} {seconds:.4f}s" for name, seconds in top]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def in_process_metrics(rec, services, setup_rec) -> dict:
    """Layer metrics of an in-process workload from its recorders.

    ``rec`` holds the traced pass and ``setup_rec`` the set-ups
    (estimator fits, template generation), kept apart so that the
    set-up's anneals do not mix into the pass's.  ``services`` are the
    :class:`PlanningService` objects the traced pass used; their public
    ``stats`` supply the cache and template lookup counters.
    """
    children = defaultdict(list)
    for span in rec.spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)

    def child_total(span, name):
        return sum(c.duration for c in children[id(span)] if c.name == name)

    def child_items(span, name):
        return sum(c.attrs["items"] for c in children[id(span)]
                   if c.name == name)

    searches = rec.named("search")
    anneals = rec.named("anneal")
    replans = rec.named("replan")
    iterations = sum(a.attrs["iterations"] for a in anneals)
    batch_calls, batch_s, batch_rows = rec.calls["kernel_batch"]
    stats = [svc.stats for svc in services]
    hits = sum(s["cache_hits"] for s in stats)
    misses = sum(s["cache_misses"] for s in stats)
    n_replans = max(len(replans), 1)

    def within_replan(name):
        return sum(s.duration for s in rec.named(name)
                   if s.within("replan")) / n_replans

    sources = defaultdict(int)
    for span in replans:
        sources[span.attrs["warm_source"]] += 1
    metrics = {
        "planner.search_s_p50": _median(
            s.duration for s in rec.named("plan")
            if s.attrs["status"] == "miss"),
        "planner.profile_s": _mean(s.duration for s in rec.named("profile")),
        "configurator.candidates": _mean(
            child_items(s, "memory_check") or child_items(s, "score")
            for s in searches),
        "configurator.oom_rejected": _mean(
            s.attrs["rejected_oom"] for s in searches),
        "configurator.memory_check_s": _mean(
            child_total(s, "memory_check") for s in searches),
        "configurator.score_s": _mean(
            child_total(s, "score") for s in searches),
        "configurator.refine_s": _mean(
            child_total(s, "refine") for s in searches
            if child_total(s, "refine") > 0),
        "memory_estimator.fit_s": _mean(
            s.duration for s in setup_rec.named("estimator_fit")),
        "memory_estimator.predict_us": rec.call_mean_us("estimator_predict"),
        "annealing.iterations": _mean(a.attrs["iterations"] for a in anneals),
        "annealing.evaluations": _mean(
            a.attrs["evaluations"] for a in anneals),
        "annealing.accept_ratio": sum(a.attrs["accepted"] for a in anneals)
        / iterations if iterations else 0.0,
        "annealing.loop_us_per_iter": sum(a.self_time for a in anneals)
        / iterations * 1e6 if iterations else 0.0,
        "latency_kernel.compile_us": rec.call_mean_us("kernel_compile"),
        "latency_kernel.evals": rec.calls["kernel_eval"][0],
        "latency_kernel.eval_us": rec.call_mean_us("kernel_eval"),
        "latency_kernel.batch_us_per_row": batch_s / batch_rows * 1e6
        if batch_rows else 0.0,
        "cache.lookup_us_p50": _median(
            s.duration * 1e6 for s in rec.named("cache_lookup")),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.stale_drops": sum(s["cache_stale_drops"] for s in stats),
        "cache.evictions": sum(s["cache_evictions"] for s in stats),
        "replan.rerank_s": within_replan("search"),
        "replan.template_s": within_replan("template_instantiate"),
        "replan.warm_anneal_s": within_replan("anneal"),
        "templates.generate_s": _mean(
            s.duration for s in setup_rec.named("templates_generate")),
        "templates.lookup_hits": sum(s["template_lookups"]["hit"]
                                     for s in stats),
        "templates.lookup_misses": sum(s["template_lookups"]["miss"]
                                       for s in stats),
    }
    for source in ("template", "best", "portfolio", "cold"):
        metrics[f"replan.source.{source}"] = sources[source]
    return metrics


def no_serving_layers() -> dict:
    """HTTP, gateway and store metrics of a workload that skips them."""
    return {name: 0.0 for name in (
        "http.self_us_p50", "http.requests", "http.non_2xx",
        "gateway.queue_wait_us_p50", "gateway.queue_wait_us_p90",
        "gateway.batch_size_mean", "gateway.coalesced", "gateway.rejected",
        "store.load_s", "store.records", "store.bytes")}


def report_in_process(result, rec, setup_rec, services, root: Path,
                      src: Path, overhead: float, root_span: str) -> None:
    """Put an in-process workload's layer metrics and notes on ``result``."""
    metrics = in_process_metrics(rec, services, setup_rec)
    metrics.update(no_serving_layers())
    startup, top = startup_metrics(root, src)
    metrics.update(startup)
    metrics["trace.overhead_ratio"] = overhead
    for name, value in metrics.items():
        result.metric(name, "", value)
    result.notes.append("slowest imports: " + ", ".join(top))
    result.notes.append(f"self time under {root_span} spans: " + ", ".join(
        f"{name} {share:.1%}" for name, _, share
        in self_time_table(rec, root_span)[:8]))


def self_time_table(rec, root: str) -> "list[tuple[str, float, float]]":
    """``(layer, self seconds, share)`` rows under the ``root`` spans.

    Hot calls (kernel evaluations, estimator predictions) appear as
    their own rows, carved out of their enclosing span's self time.
    """
    rows = rec.self_time_by_name(root)
    total = sum(s.duration for s in rec.spans
                if s.name == root and not s.within(root))
    table = sorted(rows.items(), key=lambda kv: -kv[1])
    return [(name, seconds, seconds / total if total else 0.0)
            for name, seconds in table]


def p50_p90_us(durations_s) -> "tuple[float, float]":
    """Median and 90th percentile of durations, in microseconds."""
    values = [d * 1e6 for d in durations_s]
    if not values:
        return 0.0, 0.0
    return percentile(values, 50), percentile(values, 90)
