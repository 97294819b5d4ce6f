"""``elastic_replan``: one job through bandwidth drift and node failures.

One training job (GPT-1.1B, global batch 128) runs on an 8-node
mid-range cluster whose template library for 4..8 nodes is warmed in
set-up.  Each episode builds a fresh :class:`PlanningService` on that
library, plans once, then alternates a bandwidth-drift event and a
node-failure event until 4 nodes are left.  Every event is re-planned
warm (``replan(..., run_cold=False)``), the job then asks
:meth:`PlanningService.plan` again (a cache miss answered through the
template path), re-asks once (a hit that must equal the answer) and
keeps re-asking for a short slice of closed-loop hits.  Episodes run
whole: the one under way when the run's time is up is finished.  The
seed draws the fabric, the drift days and which node fails; the job
stays the same so that two seeds measure the same amount of work.

The search budget is the one ``python -m repro.service serve`` uses
by default (1500 annealing iterations per refined candidate, warm
polishes at a quarter of that), because the template library is a
serving feature.  The service runs without a memory estimator, as
``serve`` registers its clusters.
"""

from __future__ import annotations

import random
import statistics
import time

from perfbench import layers
from perfbench.common import Run, SpeedProbe, cpu_split, geometric_mean, \
    is_slot_permutation, percentile, plan_bytes, sub_seed, timed_setups
from perfbench.tracing import Recorder

MODEL = "gpt-1.1b"
GLOBAL_BATCH = 128
N_NODES = 8
MIN_NODES = 4
SA_ITERATIONS = 1500
SETUP_REPEATS = 2
#: Closed-loop hits on the job's current question after each event,
#: spread over the run like the events themselves.
HIT_SLICE_S = 0.005


def _options():
    from repro.core import PipetteOptions, SAOptions
    return PipetteOptions(sa=SAOptions(max_iterations=SA_ITERATIONS,
                                       portfolio_k=4))


def setup(seed: int) -> dict:
    """Profile the cluster and warm its template library."""
    from repro.cluster import NetworkProfiler, make_fabric
    from repro.cluster.presets import mid_range_cluster
    from repro.model import get_model
    from repro.service import PlanningService

    cluster = mid_range_cluster(N_NODES)
    fabric = make_fabric(cluster, seed=sub_seed(seed, "fabric"))
    bandwidth = NetworkProfiler().profile(
        fabric, seed=sub_seed(seed, "profiler")).bandwidth
    profile_seed = sub_seed(seed, "compute")
    warmer = PlanningService(cluster, bandwidth, profile_seed=profile_seed)
    library = warmer.warm_templates(get_model(MODEL), GLOBAL_BATCH,
                                    min_nodes=MIN_NODES, max_nodes=N_NODES,
                                    options=_options())
    return {"cluster": cluster, "fabric": fabric, "bandwidth": bandwidth,
            "profile_seed": profile_seed, "library": library}


def schedule(seed: int, episode: int) -> "list[tuple]":
    """The events of one episode: drift, failure, drift, ... to 4 nodes.

    A drift carries its fabric day; a failure carries the index, among
    the nodes still alive, of the node that fails.
    """
    rng = random.Random(sub_seed(seed, "episode", episode))
    events, day, alive = [], 0.0, N_NODES
    while alive > MIN_NODES:
        day += rng.randint(1, 6)
        events.append(("drift", day))
        events.append(("failure", rng.randrange(alive)))
        alive -= 1
    return events


class Episode:
    """One service living through one episode's events."""

    def __init__(self, world: dict, seed: int, index: int) -> None:
        from repro.model import get_model
        from repro.service import PlanningService

        self.world, self.seed, self.index = world, seed, index
        self.model = get_model(MODEL)
        self.svc = PlanningService(world["cluster"], world["bandwidth"],
                                   profile_seed=world["profile_seed"])
        self.svc.set_template_library(world["library"])
        self.alive = list(range(N_NODES))
        self.day = 0.0
        self.events = schedule(seed, index)
        self.svc.plan(self.request())

    def request(self):
        return self.svc.request(self.model, GLOBAL_BATCH,
                                options=_options())

    def keep(self) -> "list[int]":
        per = self.world["cluster"].gpus_per_node
        return [n * per + g for n in self.alive for g in range(per)]

    def step(self, run: Run, k: int) -> dict:
        """Apply event ``k``; time the re-plan, the next plan, the hits.

        Timings are ``(start, end)`` intervals.
        """
        from repro.cluster import NetworkProfiler
        from repro.service import ClusterEvent

        kind, value = self.events[k]
        new_bandwidth = None
        if kind == "drift":
            self.day = value
            new_bandwidth = NetworkProfiler().profile(
                self.world["fabric"], day=value,
                seed=sub_seed(self.seed, "drift", self.index, k),
            ).bandwidth.restrict(self.keep())
            event = ClusterEvent.bandwidth_drift(value)
        else:
            event = ClusterEvent.node_failure(value)
        start = time.perf_counter()
        report = self.svc.replan(self.request(), event,
                                 new_bandwidth=new_bandwidth, run_cold=False)
        replan = (start, time.perf_counter())
        if kind == "failure":
            self.alive.pop(value)
        run.attempt("recovery", self._valid(report.warm, report.bandwidth),
                    f"episode {self.index} event {k} ({kind})")

        request = self.request()
        start = time.perf_counter()
        answer = self.svc.plan(request)
        plan = (start, time.perf_counter())
        run.attempt("miss", answer.status == "miss" and answer.best is not None
                    and self._valid(answer.best, self.svc.bandwidth),
                    f"episode {self.index} event {k} status={answer.status}")
        again = self.svc.plan(request)
        run.attempt("reask", again.status == "hit"
                    and plan_bytes(again.result.to_payload())
                    == plan_bytes(answer.result.to_payload()),
                    f"episode {self.index} event {k} status={again.status}")
        hits = []
        hit_start = time.perf_counter()
        stop = hit_start + HIT_SLICE_S
        while time.perf_counter() < stop:
            t0 = time.perf_counter()
            again = self.svc.plan(request)
            hits.append((t0, time.perf_counter()))
            run.attempt("hit", again.status == "hit",
                        f"status={again.status}")
        return {"episode": self.index, "replan": replan, "plan": plan,
                "hits": hits, "hit_slice": (hit_start, time.perf_counter()),
                "best": answer.best,
                "keep": self.keep(), "day": self.day,
                "cluster": self.svc.cluster,
                "estimate": self._estimate(answer.best, self.svc.bandwidth)}

    def _estimate(self, entry, bandwidth) -> float:
        from repro.core.latency_model import pipette_latency
        return pipette_latency(self.model, entry.config, entry.mapping,
                               bandwidth, self.svc.profile_for(self.model))

    def _valid(self, entry, bandwidth) -> bool:
        return (is_slot_permutation(entry.mapping.block_to_slot,
                                    self.svc.cluster.n_gpus, entry.config.tp)
                and self._estimate(entry, bandwidth)
                == entry.estimated_latency_s)


def event_loop(run: Run, world: dict, seed: int, deadline=None,
               n_events=None):
    """Run whole episodes until ``deadline`` seconds, or ``n_events`` events.

    An episode under way when the deadline passes is finished, so that
    every run times whole episodes: the same mix of drifts and failures
    at 8 down to 4 nodes, however fast the program is.
    """
    steps, episodes = [], []
    index = 0
    start = time.perf_counter()
    while True:
        between = not episodes or index == len(episodes[-1].events)
        if n_events is not None and len(steps) >= n_events:
            break
        if between and deadline is not None \
                and time.perf_counter() - start >= deadline:
            break
        if between:
            episodes.append(Episode(world, seed, len(episodes)))
            index = 0
        steps.append(episodes[-1].step(run, index))
        index += 1
    return steps, episodes


def quality(run: Run, world: dict, seed: int, steps):
    """Simulate every post-event plan on the surviving true fabric."""
    from repro.model import get_model
    from repro.profiling.compute import ComputeTimeModel
    from repro.sim.engine import simulate_iteration
    from repro.sim.memory_sim import simulated_max_memory_bytes

    model = get_model(MODEL)
    sim_rates, runnable = [], []
    for i, step in enumerate(steps):
        best, cluster = step["best"], step["cluster"]
        memory = simulated_max_memory_bytes(
            model, best.config, cluster, seed=sub_seed(seed, "memory", i))
        fits = memory <= cluster.gpu_memory_bytes
        rate = 0.0
        if fits:
            truth = world["fabric"].bandwidth_at_day(step["day"]) \
                .restrict(step["keep"])
            result = simulate_iteration(
                model, best.config, best.mapping, truth,
                compute=ComputeTimeModel(gpu=cluster.node.gpu),
                seed=sub_seed(seed, "runner", i))
            rate = GLOBAL_BATCH / result.time_s
        run.attempt("quality", True)
        runnable.append(fits)
        sim_rates.append(rate)
    return sim_rates, runnable


def _event_s(step) -> float:
    return sum(end - start for start, end in (step["replan"], step["plan"]))


def run(root, src, seed: int, seconds: float, trace: bool) -> Run:
    cpus = cpu_split()
    with SpeedProbe([cpus[0] if cpus else None]) as probe:
        return _run(probe, root, src, seed, seconds, trace)


def _run(probe, root, src, seed: int, seconds: float, trace: bool) -> Run:
    result = Run("elastic_replan", seed, trace)
    rec = Recorder() if trace else None
    setup_rec = Recorder() if trace else None
    world, setups = timed_setups(lambda: setup(seed), SETUP_REPEATS,
                                 setup_rec)

    if rec is None:
        steps, _ = event_loop(result, world, seed, deadline=seconds)
        sim_rates, runnable = quality(result, world, seed, steps)
    else:
        # The same events untraced, then traced: the ratio of the two
        # passes is the tracing overhead.
        plain, _ = event_loop(result, world, seed,
                              deadline=seconds / 2)
        with rec:
            steps, episodes = event_loop(result, world, seed,
                                         n_events=len(plain))
            sim_rates, runnable = quality(result, world, seed, steps)
        overhead = sum(map(_event_s, steps)) / sum(map(_event_s, plain))
        layers.report_in_process(
            result, rec, setup_rec, [episode.svc for episode in episodes],
            root, src, overhead, "replan")

    probe.stop()
    replans = [s["replan"] for s in steps]
    plans = [s["plan"] for s in steps]
    hits = [h for s in steps for h in s["hits"]]
    result.timing("setup_s", "s", setups, statistics.median, probe)
    result.timing("miss_mean_s", "s", plans, statistics.fmean, probe)
    result.timing("hit_p50_ms", "ms", hits, statistics.median, probe, 1e3)
    result.timing("hit_p90_ms", "ms", hits,
                  lambda v: percentile(v, 90), probe, 1e3)
    result.rate("hits_per_s", len(hits), [s["hit_slice"] for s in steps],
                probe)
    result.timing("recovery_mean_s", "s", replans, statistics.fmean, probe)
    result.metric("sim_samples_per_s_mean", "samples/s",
                  sum(sim_rates) / len(sim_rates), sim_rates)
    result.metric("oom_plan_share", "ratio",
                  1 - sum(runnable) / len(runnable))
    result.metric("est_samples_per_s_gmean", "samples/s", geometric_mean(
        GLOBAL_BATCH / s["estimate"] for s in steps))
    result.notes.append(
        f"{len(steps)} events over {len({s['episode'] for s in steps})} "
        "episodes; re-plan p90 "
        f"{percentile([b - a for a, b in replans], 90):.4f}s, post-event "
        f"plan p90 {percentile([b - a for a, b in plans], 90):.4f}s "
        "(measured)")
    return result
