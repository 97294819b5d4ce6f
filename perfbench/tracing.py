"""Benchmark-side spans around the program's public entry points.

The traced run wraps entry points of the layers in place (class and
module attributes), records one span per call of the coarse ones and
only a call count and summed time for the hot ones (kernel
compiles and evaluations, estimator predictions), and restores
everything when it ends.  Nothing in the program changes: a wrapper
calls through and returns what the wrapped function returned.

A span's self time is its duration minus the part its child spans
and hot calls cover.  Calls nest on one thread, so children never
overlap and that part is their sum.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

_now = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    covered: float = 0.0
    attrs: dict = field(default_factory=dict)
    hot: "dict[str, float]" = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered

    def within(self, name: str) -> bool:
        """Whether an enclosing span is called ``name``."""
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False


class Recorder:
    """Spans and hot-call counters of one traced run."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.calls: "dict[str, list]" = defaultdict(lambda: [0, 0.0, 0])
        self._stack: "list[Span]" = []
        self._patches: "list[tuple]" = []

    # -------------------------------------------------------------- wrappers

    def spanned(self, fn, name: str, attrs=None):
        """``fn`` recording one span per call.

        ``attrs(args, result)`` returns attributes to tag the span with.
        """
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            span = Span(name, _now(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _now()
                stack.pop()
                if span.parent is not None:
                    span.parent.covered += span.duration
                spans.append(span)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name: str, rows=None):
        """``fn`` adding to a call count and a time sum, no span."""
        stack, entry = self._stack, self.calls[name]

        def wrapper(*args, **kwargs):
            start = _now()
            result = fn(*args, **kwargs)
            elapsed = _now() - start
            entry[0] += 1
            entry[1] += elapsed
            if rows is not None:
                entry[2] += rows(args)
            if stack:
                top = stack[-1]
                top.covered += elapsed
                top.hot[name] = top.hot.get(name, 0.0) + elapsed
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- patching

    def patch(self, target: str, wrap) -> None:
        """Replace ``module[:Class].attr`` by ``wrap(original)``."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> "Recorder":
        """Wrap every traced entry point of the program."""
        for module in ("repro.core.configurator", "repro.service.planner",
                       "repro.service.replan"):
            self.patch(f"{module}:anneal_mapping",
                       lambda fn: self.spanned(fn, "anneal",
                                               attrs=_anneal_attrs))
        for module in ("repro.core.configurator", "repro.core.templates"):
            self.patch(f"{module}:memory_check_unit",
                       lambda fn: self.spanned(fn, "memory_check",
                                               attrs=_unit_attrs))
            self.patch(f"{module}:refine_unit",
                       lambda fn: self.spanned(fn, "refine"))
        self.patch("repro.core.configurator:score_unit",
                   lambda fn: self.spanned(fn, "score", attrs=_unit_attrs))
        self.patch("repro.core.templates:template_score_unit",
                   lambda fn: self.spanned(fn, "score", attrs=_unit_attrs))
        self.patch("repro.core.configurator:PipetteConfigurator.search",
                   lambda fn: self.spanned(fn, "search",
                                           attrs=_search_attrs))
        self.patch("repro.service.planner:PlanningService.plan",
                   lambda fn: self.spanned(fn, "plan", attrs=_plan_attrs))
        self.patch("repro.service.planner:PlanningService.replan",
                   lambda fn: self.spanned(fn, "replan", attrs=_replan_attrs))
        self.patch("repro.service.planner:profile_compute",
                   lambda fn: self.spanned(fn, "profile"))
        self.patch("repro.core.templates:PipelineTemplate.instantiate",
                   lambda fn: self.spanned(fn, "template_instantiate"))
        self.patch("repro.core.templates:PipelineTemplateGenerator.generate",
                   lambda fn: self.spanned(fn, "templates_generate"))
        self.patch("repro.core.memory_estimator:MemoryEstimator.fit",
                   lambda fn: self.spanned(fn, "estimator_fit"))
        self.patch("repro.service.store:PlanStore.load",
                   lambda fn: self.spanned(fn, "store_load"))
        self.patch("repro.core.latency_kernel:LatencyKernel.__init__",
                   lambda fn: self.counted(fn, "kernel_compile"))
        self.patch("repro.core.latency_kernel:LatencyKernel.evaluate_perm",
                   lambda fn: self.counted(fn, "kernel_eval"))
        self.patch("repro.core.latency_kernel:LatencyKernel.evaluate_batch",
                   lambda fn: self.counted(fn, "kernel_batch",
                                           rows=lambda a: len(a[1])))
        self.patch("repro.core.memory_estimator:MemoryEstimator.predict_bytes",
                   lambda fn: self.counted(fn, "estimator_predict"))
        self.patch("repro.service.cache:PlanCache.get",
                   lambda fn: self.spanned(fn, "cache_lookup"))
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- querying

    def named(self, name: str) -> "list[Span]":
        return [s for s in self.spans if s.name == name]

    def call_mean_us(self, name: str) -> float:
        count, total, _ = self.calls[name]
        return total / count * 1e6 if count else 0.0

    def self_time_by_name(self, root: str) -> "dict[str, float]":
        """Self time per span name and hot call under ``root`` spans."""
        out: "dict[str, float]" = defaultdict(float)
        for span in self.spans:
            if span.name == root or span.within(root):
                out[span.name] += span.self_time
                for name, seconds in span.hot.items():
                    out[name] += seconds
        return dict(out)


def _anneal_attrs(args, result) -> dict:
    return {"iterations": result.iterations, "accepted": result.accepted,
            "evaluations": result.evaluations}


def _unit_attrs(args, result) -> dict:
    return {"items": len(args[0][1])}


def _search_attrs(args, result) -> dict:
    return {"rejected_oom": result.rejected_oom}


def _plan_attrs(args, result) -> dict:
    return {"status": result.status}


def _replan_attrs(args, result) -> dict:
    return {"warm_source": result.warm_source}
