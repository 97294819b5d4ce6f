"""Shared pieces of the planner benchmark: seeds, statistics, checks.

Every workload builds its inputs from the workload seed through
:func:`sub_seed`, measures with ``time.perf_counter``, and reports
into one :class:`Run`: the metric samples, the attempted and failed
operations per phase, and the notes that explain the figures.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Stopwatch fields of a plan payload.  Two answers to one question
#: differ only here, so byte comparisons drop them.
STOPWATCH_FIELDS = ("memory_check_s", "annealing_s", "total_s")

#: Scratch space inside the checkout, removed when a run ends.
SCRATCH_DIR = ".perfbench_tmp"


class SourceMissing(RuntimeError):
    """The program's sources are not beside the benchmark."""


def require_source(root: Path) -> Path:
    """``root/src`` when it holds the ``repro`` package, else raise."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SourceMissing(
            f"no program sources under {src}; run the benchmark from the "
            "root of a checkout of the repository")
    return src


def sub_seed(seed: int, *labels) -> int:
    """A 31-bit seed derived from the workload seed and ``labels``.

    Hashing keeps the streams independent: changing one label (a
    cluster, an episode) never shifts the draws of another.
    """
    text = "/".join([str(seed), *(str(label) for label in labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big") & 0x7FFFFFFF


# ---------------------------------------------------------------- statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values) -> dict:
    """Sample count, mean and percentiles (10, 25, 50, 75, 90)."""
    values = [float(v) for v in values]
    return {"samples": len(values), "mean": statistics.fmean(values),
            "p10": percentile(values, 10), "q1": percentile(values, 25),
            "median": percentile(values, 50), "q3": percentile(values, 75),
            "p90": percentile(values, 90)}


def geometric_mean(values) -> float:
    """Geometric mean of positive ``values``."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ------------------------------------------------------------------- checks


def plan_bytes(payload: dict) -> bytes:
    """Canonical bytes of a plan payload net of its stopwatch fields."""
    stripped = {k: v for k, v in payload.items()
                if k not in STOPWATCH_FIELDS}
    return json.dumps(stripped, sort_keys=True).encode()


def is_slot_permutation(block_to_slot, n_gpus: int, tp: int) -> bool:
    """Whether a mapping places each TP group on its own GPU slot."""
    slots = [int(s) for s in block_to_slot]
    return n_gpus % tp == 0 and sorted(slots) == list(range(n_gpus // tp))


# --------------------------------------------------------------------- CPUs


def cpu_split() -> "tuple[set, set] | None":
    """The program's CPU and the ``serve_hot`` client's, when there are two.

    The program always runs on the first allowed CPU: in the benchmark's
    own process for the in-process workloads, in the server for
    ``serve_hot``, whose client takes the second.  The two vCPUs of a
    shared host can run the same code at speeds up to 1.8x apart, so a
    program left to the scheduler is timed on whichever CPU it lands.
    """
    allowed = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else []
    if len(allowed) < 2:
        return None
    return {allowed[0]}, {allowed[1]}


def pin_child(cpus):
    """A ``preexec_fn`` that pins a child process to ``cpus``.

    Pinned before its interpreter starts, the child sizes NumPy's
    thread pools to those CPUs.
    """
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


#: The sampler's time (``perfbench/probe.py``) at the reference host
#: speed, about the fast one of the host this benchmark was built on.
REFERENCE_PROBE_MS = 0.35


class SpeedProbe:
    """Samples the speed of the program's CPUs all through a run.

    One sampler process (``perfbench/probe.py``) runs on each CPU set of
    ``cpu_sets`` (``None``: unpinned) and times a fixed computation
    every 50 ms.  After :meth:`stop`, :meth:`at_reference` turns a
    measured interval into its duration at the reference speed: the
    duration times :data:`REFERENCE_PROBE_MS` over the mean sample
    taken during the interval (and the one before and after it), the
    mean over the samplers.  The samplers are benchmark code and run
    alike on every commit, so a change to the program moves the
    reference-speed figures as it moves the measured ones.  Use it as a
    context manager; leaving the block stops the samplers and waits for
    them.
    """

    def __init__(self, cpu_sets=(None,)) -> None:
        self.procs, self.samples = [], []
        try:
            for cpus in cpu_sets:
                proc = subprocess.Popen(
                    [sys.executable,
                     str(Path(__file__).with_name("probe.py"))],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True, preexec_fn=pin_child(cpus))
                self.procs.append(proc)
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("speed sampler did not start")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Stop the samplers and collect their samples (idempotent)."""
        for proc in self.procs:
            proc.stdin.close()
            rows = [tuple(map(float, line.split()))
                    for line in proc.stdout.read().splitlines()]
            proc.wait()
            proc.stdout.close()
            if rows:
                self.samples.append(([t for t, _ in rows],
                                     [d for _, d in rows]))
        self.procs = []

    def at_reference(self, start: float, end: float) -> float:
        """The duration of ``[start, end]`` at the reference speed."""
        means = []
        for starts, durations in self.samples:
            lo = max(bisect.bisect_left(starts, start) - 1, 0)
            hi = bisect.bisect_right(starts, end) + 1
            window = durations[lo:hi]
            means.append(sum(window) / len(window))
        if not means:
            raise RuntimeError("no speed samples")
        speed = REFERENCE_PROBE_MS / 1e3 / (sum(means) / len(means))
        return (end - start) * speed

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def timed_setups(setup, repeats: int, rec=None) -> "tuple[object, list]":
    """Run ``setup()`` ``repeats`` times; the last result and the intervals.

    Under a traced run the set-ups' spans (estimator fits, template
    generation) go to the recorder ``rec``.
    """
    intervals = []
    for _ in range(repeats):
        start = time.perf_counter()
        if rec is None:
            world = setup()
        else:
            with rec:
                world = setup()
        intervals.append((start, time.perf_counter()))
    return world, intervals


# ---------------------------------------------------------------- reporting


class Run:
    """What one benchmark run measured and checked.

    Args:
        workload: workload name.
        seed: workload seed.
        trace: whether this is the traced run (per-layer metrics).
    """

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.phases: "dict[str, dict[str, int]]" = {}
        self.failures: "list[str]" = []
        self.metrics: "dict[str, dict]" = {}
        self.notes: "list[str]" = []

    def attempt(self, phase: str, ok: bool, what: str = "") -> bool:
        """Count one operation of ``phase``; a failure keeps its reason."""
        counts = self.phases.setdefault(phase, {"attempted": 0, "failed": 0})
        counts["attempted"] += 1
        if not ok:
            counts["failed"] += 1
            if len(self.failures) < 20:
                self.failures.append(f"{phase}: {what}")
        return ok

    def metric(self, name: str, unit: str, value: float,
               samples=None) -> None:
        """Record a metric: its value and, for timings, its distribution."""
        entry = {"value": float(value), "unit": unit}
        if samples:
            entry.update(summary(samples))
        self.metrics[name] = entry

    def timing(self, name: str, unit: str, intervals, stat,
               probe: SpeedProbe, scale: float = 1.0) -> None:
        """A timing metric: ``stat`` of ``(start, end)`` intervals.

        The value and the distribution are at the reference speed
        (see :class:`SpeedProbe`), in seconds times ``scale``; the
        measured value stays in the record as ``measured``.
        """
        durations = [probe.at_reference(a, b) * scale for a, b in intervals]
        self.metric(name, unit, stat(durations), durations)
        self.metrics[name]["measured"] = float(
            stat([(b - a) * scale for a, b in intervals]))

    def rate(self, name: str, count: int, intervals,
             probe: SpeedProbe) -> None:
        """``count`` operations over the ``(start, end)`` intervals, per s."""
        self.metric(name, "1/s", count / sum(
            probe.at_reference(a, b) for a, b in intervals))
        self.metrics[name]["measured"] = count / sum(
            b - a for a, b in intervals)

    @property
    def attempted(self) -> int:
        return sum(p["attempted"] for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p["failed"] for p in self.phases.values())

    def record(self, root: Path) -> dict:
        """The full result record (environment, phases, distributions)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "environment": environment(root),
            "attempted": self.attempted,
            "failed": self.failed,
            "phases": self.phases,
            "failures": self.failures,
            "metrics": self.metrics,
            "notes": self.notes,
        }

    def result_line(self, names) -> dict:
        """The last output line: exactly the contract's four keys."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name]["value"],
                               "unit": self.metrics[name]["unit"]}
                        for name in names},
        }


def environment(root: Path) -> dict:
    """Git revision, CPU count and interpreter versions of this run.

    The revision is ``unknown`` unless ``root`` is itself a git work
    tree (an exported checkout is not); git looks no higher than
    ``root``.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version}
