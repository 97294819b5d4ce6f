"""``cold_search``: Algorithm 1 on distinct questions, in process.

One client asks :meth:`PlanningService.plan` one question after the
other (closed loop), every one a cache miss.  The six clusters
{mid-range, high-end} x {4, 8, 16} nodes take turns in a fixed order
and each round moves to the next model of the cluster's ladder.  Every
run answers the same :data:`FIXED_QUESTIONS` (two rounds), however long
they take, and only those are gated; questions asked after them, while
the run's time lasts, go to the record.  So a faster or slower program
never changes the mix of cluster sizes and models behind the gated
figures, and two seeds measure the same amount of work, because a
plan's cost depends mostly on the cluster size and the model.  The
seed draws the global batches, the fabrics and the profiling noise.

Each cold answer is followed by a short slice of closed-loop hits on
the questions answered so far.  After the timed pass every question is
asked again (each must come back a byte-identical hit), each
recommended plan is launched on the simulated cluster, and each fixed
question is re-planned warm after drifts of its fabric (the recovery
an answered question gets when its fabric drifts).
"""

from __future__ import annotations

import random
import statistics
import time

from perfbench import layers
from perfbench.common import Run, SpeedProbe, cpu_split, geometric_mean, \
    is_slot_permutation, percentile, plan_bytes, sub_seed, timed_setups
from perfbench.tracing import Recorder

#: Cluster turn order: every prefix of six covers each size once.
STRATA = (("mid-range", 4), ("high-end", 4), ("mid-range", 8),
          ("high-end", 8), ("mid-range", 16), ("high-end", 16))
LADDERS = {"mid-range": ("gpt-774m", "gpt-1.1b", "gpt-3.1b"),
           "high-end": ("gpt-2.2b", "gpt-8.1b", "gpt-11.1b")}
#: Questions every run answers and gates on: two rounds over STRATA.
FIXED_QUESTIONS = 2 * len(STRATA)
#: Memory-estimator budget: small and fixed, so that the set-ups fit in
#: a run.  It occasionally admits a plan that OOMs when launched.
FIT_ITERATIONS = 100
FIT_BATCHES = (128, 512)
FIT_NODE_COUNTS = (1, 2, 4)
SETUP_REPEATS = 2
#: Closed-loop hits after each cold answer.  Slices spread over the
#: pass average out the host's speed swings, which one long loop at the
#: end would catch or miss whole.
HIT_SLICE_S = 0.2
#: Warm drift re-plans of each fixed question (see recovery_pass).
DRIFTS_PER_QUESTION = 2


def _presets():
    from repro.cluster.presets import high_end_cluster, mid_range_cluster
    return {"mid-range": mid_range_cluster, "high-end": high_end_cluster}


def setup(seed: int) -> dict:
    """Fit one estimator per preset, profile the six clusters."""
    from repro.cluster import NetworkProfiler, make_fabric
    from repro.core import MemoryEstimator, build_memory_dataset
    from repro.model import get_model

    presets = _presets()
    estimators = {}
    for name, preset in presets.items():
        dataset = build_memory_dataset(
            preset(max(FIT_NODE_COUNTS)),
            [get_model(m) for m in LADDERS[name]],
            global_batches=list(FIT_BATCHES),
            node_counts=list(FIT_NODE_COUNTS),
            seed=sub_seed(seed, "memory-dataset", name))
        estimator = MemoryEstimator(seed=sub_seed(seed, "estimator", name))
        estimator.fit(dataset, iterations=FIT_ITERATIONS)
        estimators[name] = estimator
    clusters = {}
    for name, n_nodes in STRATA:
        cluster = presets[name](n_nodes)
        fabric_seed = sub_seed(seed, "fabric", name, n_nodes)
        fabric = make_fabric(cluster, seed=fabric_seed)
        network = NetworkProfiler().profile(
            fabric, seed=sub_seed(seed, "profiler", name, n_nodes))
        clusters[(name, n_nodes)] = {
            "cluster": cluster, "fabric": fabric,
            "bandwidth": network.bandwidth,
            "profile_seed": sub_seed(seed, "compute", name, n_nodes)}
    return {"estimators": estimators, "clusters": clusters}


def services(world: dict) -> dict:
    """Fresh planning services (empty caches) over a set-up world."""
    from repro.service import PlanningService
    return {key: PlanningService(c["cluster"], c["bandwidth"],
                                 memory_estimator=world["estimators"][key[0]],
                                 profile_seed=c["profile_seed"])
            for key, c in world["clusters"].items()}


def question(seed: int, index: int) -> dict:
    """The ``index``-th question of the seed's sequence."""
    key = STRATA[index % len(STRATA)]
    turn = index // len(STRATA)
    ladder = LADDERS[key[0]]
    rng = random.Random(sub_seed(seed, "question", index))
    # Later laps over all 18 (cluster, model) pairs move to larger
    # batches so that no question repeats.
    lap = turn // len(ladder)
    batch = 64 * (2 + 3 * lap + rng.randrange(3))
    return {"key": key, "model": ladder[turn % len(ladder)],
            "global_batch": batch}


def _ask(svc, q):
    """Ask ``q``; the response and the ``(start, end)`` of the call."""
    from repro.model import get_model
    request = svc.request(get_model(q["model"]), q["global_batch"])
    start = time.perf_counter()
    response = svc.plan(request)
    return response, (start, time.perf_counter())


def cold_pass(run: Run, svcs: dict, questions, deadline=None, minimum=0,
              hits=None):
    """Ask ``questions``; returns the answers and the hit slices.

    The first ``minimum`` questions are always asked, the rest until
    ``deadline`` seconds have passed.  With a ``hits`` list, every cold
    answer is followed by a :data:`HIT_SLICE_S` slice of closed-loop
    hits over the questions answered so far, so that hit timings spread
    over the whole pass; the hits' and the slices' ``(start, end)``
    intervals are returned in ``hits`` and as the second value.
    """
    from repro.core.latency_model import pipette_latency
    from repro.model import get_model

    answers, slices = [], []
    start = time.perf_counter()
    for q in questions:
        if len(answers) >= minimum and deadline is not None \
                and time.perf_counter() - start >= deadline:
            break
        svc = svcs[q["key"]]
        response, interval = _ask(svc, q)
        best = response.best
        ok = response.status == "miss" and best is not None
        if ok:
            model = get_model(q["model"])
            recomputed = pipette_latency(
                model, best.config, best.mapping, svc.bandwidth,
                svc.profile_for(model))
            ok = (is_slot_permutation(best.mapping.block_to_slot,
                                      svc.cluster.n_gpus, best.config.tp)
                  and recomputed == best.estimated_latency_s)
        run.attempt("cold", ok, f"{q} status={response.status}")
        answers.append({"question": q, "response": response,
                        "interval": interval,
                        "elapsed": interval[1] - interval[0],
                        "payload": plan_bytes(response.result.to_payload())})
        if hits is not None:
            slices.append(hit_slice(run, svcs, answers, hits))
    return answers, slices


def hit_slice(run: Run, svcs: dict, answers, hits) -> "tuple[float, float]":
    """Closed-loop hits over ``answers`` for :data:`HIT_SLICE_S`.

    Appends each hit's ``(start, end)`` to ``hits``; returns the
    slice's, the loop's own work included.
    """
    start = time.perf_counter()
    stop = start + HIT_SLICE_S
    while time.perf_counter() < stop:
        for answer in answers:
            response, interval = _ask(svcs[answer["question"]["key"]],
                                      answer["question"])
            hits.append(interval)
            run.attempt("hit", response.status == "hit",
                        f"status={response.status}")
    return start, time.perf_counter()


def reask_pass(run: Run, svcs: dict, answers) -> None:
    """Every question again: a hit, byte-identical to its cold answer."""
    for answer in answers:
        response, _ = _ask(svcs[answer["question"]["key"]],
                           answer["question"])
        same = plan_bytes(response.result.to_payload()) == answer["payload"]
        run.attempt("reask", response.status == "hit" and same,
                    f"{answer['question']} status={response.status}")


def quality_pass(run: Run, world: dict, svcs: dict, seed: int, answers):
    """Launch every recommended plan on the simulated cluster."""
    from repro.core.latency_model import pipette_latency
    from repro.model import get_model
    from repro.sim import ClusterRunner

    sim_rates, est_rates, runnable = [], [], []
    for i, answer in enumerate(answers):
        q, best = answer["question"], answer["response"].best
        if best is None:
            continue
        model = get_model(q["model"])
        svc = svcs[q["key"]]
        runner = ClusterRunner(world["clusters"][q["key"]]["fabric"], model,
                               seed=sub_seed(seed, "runner", i))
        measured = runner.run(best.config, best.mapping)
        run.attempt("quality", True)
        runnable.append(not measured.oom)
        sim_rates.append(0.0 if measured.oom
                         else q["global_batch"] / measured.time_per_iter_s)
        estimate = pipette_latency(model, best.config, best.mapping,
                                   svc.bandwidth, svc.profile_for(model))
        est_rates.append(q["global_batch"] / estimate)
    return sim_rates, est_rates, runnable


def recovery_pass(run: Run, world: dict, svcs: dict, seed: int, answers):
    """Warm re-plans of every answered question after a drift.

    A re-plan adopts the drifted matrix and retires the cluster's
    cached plans, so each runs on a copy of the question's service:
    the same cluster, matrix, estimator and profile seed, every cached
    plan put into its cache, and the compute profile of the question's
    model taken before the clock starts.  Each question drifts
    :data:`DRIFTS_PER_QUESTION` times, on days drawn from the seed.
    Returns the re-plans' ``(start, end)`` intervals and the copies.
    """
    from repro.cluster import NetworkProfiler
    from repro.core.latency_model import pipette_latency
    from repro.model import get_model
    from repro.service import ClusterEvent, PlanCache, PlanningService

    intervals, copies = [], []
    for i, answer in enumerate(answers):
        q = answer["question"]
        source = svcs[q["key"]]
        model = get_model(q["model"])
        for k in range(DRIFTS_PER_QUESTION):
            day = float(random.Random(sub_seed(seed, "drift", i, k))
                        .randint(7, 40))
            drifted = NetworkProfiler().profile(
                world["clusters"][q["key"]]["fabric"], day=day,
                seed=sub_seed(seed, "drift-profiler", i, k)).bandwidth
            cache = PlanCache()
            for key, fp, plan in source.cache.entries():
                cache.put(key, fp, plan)
            svc = PlanningService(source.cluster, source.bandwidth,
                                  memory_estimator=source.memory_estimator,
                                  cache=cache,
                                  profile_seed=source.profile_seed)
            copies.append(svc)
            svc.profile_for(model)
            request = svc.request(model, q["global_batch"])
            start = time.perf_counter()
            report = svc.replan(request, ClusterEvent.bandwidth_drift(day),
                                new_bandwidth=drifted, run_cold=False)
            intervals.append((start, time.perf_counter()))
            warm = report.warm
            recomputed = pipette_latency(model, warm.config, warm.mapping,
                                         report.bandwidth,
                                         svc.profile_for(model))
            run.attempt("recovery",
                        svc.stats["cache_hits"] == 1
                        and is_slot_permutation(warm.mapping.block_to_slot,
                                                report.cluster.n_gpus,
                                                warm.config.tp)
                        and recomputed == warm.estimated_latency_s,
                        f"{q} drift day {day}")
    return intervals, copies


def run(root, src, seed: int, seconds: float, trace: bool) -> Run:
    cpus = cpu_split()
    with SpeedProbe([cpus[0] if cpus else None]) as probe:
        return _run(probe, root, src, seed, seconds, trace)


def _run(probe, root, src, seed: int, seconds: float, trace: bool) -> Run:
    result = Run("cold_search", seed, trace)
    rec = Recorder() if trace else None
    setup_rec = Recorder() if trace else None
    world, setups = timed_setups(lambda: setup(seed), SETUP_REPEATS,
                                 setup_rec)
    svcs = services(world)
    n_questions = 6 * len(STRATA) * 4
    questions = [question(seed, i) for i in range(n_questions)]

    hits = []
    if rec is None:
        answers, slices = cold_pass(result, svcs, questions,
                                    deadline=seconds,
                                    minimum=FIXED_QUESTIONS, hits=hits)
        reask_pass(result, svcs, answers)
        sim_rates, est_rates, runnable = quality_pass(
            result, world, svcs, seed, answers)
        recoveries, _ = recovery_pass(result, world, svcs, seed,
                                      answers[:FIXED_QUESTIONS])
    else:
        # The first round untraced, then traced on fresh services: the
        # ratio of the two passes is the tracing overhead.
        plain, _ = cold_pass(result, svcs, questions[:len(STRATA)])
        svcs = services(world)
        with rec:
            answers, slices = cold_pass(result, svcs,
                                        questions[:len(STRATA)], hits=hits)
            reask_pass(result, svcs, answers)
            sim_rates, est_rates, runnable = quality_pass(
                result, world, svcs, seed, answers)
            recoveries, copies = recovery_pass(result, world, svcs, seed,
                                               answers)
        overhead = sum(a["elapsed"] for a in answers) \
            / sum(a["elapsed"] for a in plain)
        layers.report_in_process(result, rec, setup_rec,
                                 [*svcs.values(), *copies], root, src,
                                 overhead, "plan")
    probe.stop()

    # Gated figures cover the fixed questions only (the traced run asks
    # the first round); later answers stay in the record.
    fixed = answers[:FIXED_QUESTIONS]
    extra = [a["interval"] for a in answers[FIXED_QUESTIONS:]]
    result.timing("setup_s", "s", setups, statistics.median, probe)
    result.timing("miss_mean_s", "s", [a["interval"] for a in fixed],
                  statistics.fmean, probe)
    if extra:
        result.timing("miss_extra_mean_s", "s", extra, statistics.fmean,
                      probe)
    result.timing("hit_p50_ms", "ms", hits, statistics.median, probe, 1e3)
    result.timing("hit_p90_ms", "ms", hits,
                  lambda v: percentile(v, 90), probe, 1e3)
    result.rate("hits_per_s", len(hits), slices, probe)
    result.timing("recovery_mean_s", "s", recoveries, statistics.fmean,
                  probe)
    result.metric("sim_samples_per_s_mean", "samples/s",
                  statistics.fmean(sim_rates[:len(fixed)]),
                  sim_rates[:len(fixed)])
    # The OOM share counts every answer of the run.
    result.metric("oom_plan_share", "ratio",
                  1 - sum(runnable) / len(runnable))
    result.metric("est_samples_per_s_gmean", "samples/s",
                  geometric_mean(est_rates[:len(fixed)]),
                  est_rates[:len(fixed)])
    result.notes.append(
        f"{len(fixed)} gated cold plans and {len(extra)} more, "
        f"{len(hits)} timed hits, {len(recoveries)} drift re-plans")
    return result
