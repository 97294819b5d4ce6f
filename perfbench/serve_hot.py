"""``serve_hot``: the HTTP server under misses, hits and a restart.

``python -m repro.service serve --http`` runs as a subprocess with its
default search flags and its two default clusters (mid-range and
high-end, 2 nodes each), keeping its plans in a fresh store
directory.  The client is one asyncio process with two keep-alive
connections:

a. :data:`N_QUESTIONS` distinct questions, each asked once with
   ``"detail": true``: served misses, the only phase in which the
   configurator runs;
b. an open loop at a fixed rate, well below capacity, of Zipf draws
   over those questions, each timed from the moment it was due, with
   the generator's own lateness reported;
c. a closed loop of pure hits on both connections, alternating with
   (b) in four rounds;
d. SIGTERM (drain, compact the store), respawn on the same store, and
   every question asked again; three times.

The questions keep one mix per run (each cluster gets GPT-small and
the two smaller models of its ladder in turn) and the seed draws their
global batches, the fabric seed handed to ``serve``, the Zipf draws
and the arrival times.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import layers
from perfbench.common import SCRATCH_DIR, Run, SpeedProbe, cpu_split, \
    geometric_mean, is_slot_permutation, percentile, pin_child, plan_bytes, \
    sub_seed
from perfbench.tracing import Recorder

#: ``serve``'s default clusters, in registration order.
CLUSTERS = (("mid-range-0", "mid-range"), ("high-end-1", "high-end"))
MODELS = {"mid-range": ("gpt-small", "gpt-774m", "gpt-1.1b"),
          "high-end": ("gpt-small", "gpt-2.2b", "gpt-8.1b")}
N_NODES = 2
N_QUESTIONS = 12
OPEN_LOOP_RATE = 100.0
#: Shares of the run's seconds spent in the open and closed loops,
#: split over rounds that alternate the two.
OPEN_SHARE = 0.35
CLOSED_SHARE = 0.25
ROUNDS = 4
ZIPF_S = 1.1
CONNECTIONS = 2
SETUP_REPEATS = 3
RESTARTS = 3
TIMEOUT_S = 60.0


# ------------------------------------------------------------------ server


class Server:
    """One ``serve --http`` subprocess on an ephemeral port.

    With two CPUs the server is pinned to the program's CPU and the
    client to the other (see :func:`~perfbench.common.cpu_split`), so
    that the two never queue for one CPU while the other idles, which
    otherwise happens in some runs and not in others.
    """

    def __init__(self, root: Path, src: Path, store: Path, seed: int,
                 trace_dir: "Path | None", log: Path) -> None:
        cmd = [sys.executable, "-m", "repro.service", "serve", "--http", "0",
               "--store-dir", str(store), "--seed", str(seed),
               "--log-level", "warning"]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        self.log = log
        self.started = time.perf_counter()
        cpus = cpu_split()
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=root, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
                env=dict(os.environ, PYTHONPATH=str(src)),
                preexec_fn=pin_child(cpus[0] if cpus else None))
        self.port = None

    def stderr(self) -> str:
        return self.log.read_text(encoding="utf-8", errors="replace")

    def wait_ready(self) -> float:
        """Wait until ``/healthz`` answers 200; returns that moment."""
        deadline = self.started + TIMEOUT_S
        while self.port is None:
            match = re.search(r"http on \('[^']*', (\d+)\)", self.stderr())
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None or \
                    time.perf_counter() > deadline:
                raise RuntimeError("server did not start:\n" + self.stderr())
            else:
                time.sleep(0.002)
        while True:
            try:
                status, _ = asyncio.run(_get(self.port, "/healthz"))
                if status == 200:
                    return time.perf_counter()
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)

    def rehydrated(self) -> int:
        return sum(int(n) for n in re.findall(r"\((\d+) plans rehydrated\)",
                                              self.stderr()))

    def stop(self) -> float:
        """SIGTERM, wait for the drain; returns the moment it was sent."""
        sent = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return sent


# ------------------------------------------------------------------ client


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> "tuple[int, bytes]":
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


async def _get(port: int, path: str) -> "tuple[int, bytes]":
    conn = await Connection.open(port)
    try:
        return await asyncio.wait_for(conn.request("GET", path), TIMEOUT_S)
    finally:
        await conn.close()


async def _plan(conn: Connection, question: dict, detail: bool):
    """One plan request; a transport failure comes back as status 0."""
    body = dict(question, detail=True) if detail else question
    start = time.perf_counter()
    try:
        status, raw = await asyncio.wait_for(
            conn.request("POST", "/v1/plan", json.dumps(body).encode()),
            TIMEOUT_S)
        answer = json.loads(raw)
    except (asyncio.TimeoutError, OSError, ValueError, IndexError,
            asyncio.IncompleteReadError) as exc:
        status, answer = 0, {"status": "error", "error": repr(exc)}
    return status, answer, start, time.perf_counter()


async def _closed_loop(port: int, work, detail: bool):
    """Send ``work`` items over the connections, each on the next free one."""
    queue = asyncio.Queue()
    for item in work:
        queue.put_nowait(item)
    results = []

    async def worker():
        conn = await Connection.open(port)
        try:
            while not queue.empty():
                item = queue.get_nowait()
                results.append((item, *await _plan(conn, item, detail)))
        finally:
            await conn.close()

    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    return results


async def _timed_closed_loop(port: int, draws, window_s: float):
    """Hits back to back on every connection for ``window_s`` seconds.

    Returns the answers and the loop's ``(start, end)``.
    """
    results = []
    stop = time.perf_counter() + window_s

    async def worker(offset):
        conn = await Connection.open(port)
        try:
            i = offset
            while time.perf_counter() < stop:
                item = draws[i % len(draws)]
                results.append((item, *await _plan(conn, item, False)))
                i += CONNECTIONS
        finally:
            await conn.close()

    start = time.perf_counter()
    await asyncio.gather(*(worker(k) for k in range(CONNECTIONS)))
    return results, (start, time.perf_counter())


async def _open_loop(port: int, arrivals):
    """Requests due at ``arrivals`` offsets, sent on free connections."""
    queue = asyncio.Queue()
    results, lateness = [], []
    origin = time.perf_counter() + 0.05

    async def generator():
        for offset, item in arrivals:
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            queue.put_nowait((due, item))
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def worker():
        conn = await Connection.open(port)
        try:
            while True:
                job = await queue.get()
                if job is None:
                    return
                due, item = job
                status, answer, _, end = await _plan(conn, item, False)
                results.append((item, status, answer, due, end))
        finally:
            await conn.close()

    await asyncio.gather(generator(), *(worker() for _ in range(CONNECTIONS)))
    return results, lateness


# --------------------------------------------------------------- questions


def questions(seed: int) -> "list[dict]":
    """:data:`N_QUESTIONS` distinct plan questions, alternating clusters."""
    out = []
    for i in range(N_QUESTIONS):
        name, preset = CLUSTERS[i % len(CLUSTERS)]
        turn = i // len(CLUSTERS)
        models = MODELS[preset]
        rng = random.Random(sub_seed(seed, "question", i))
        lap = turn // len(models)
        out.append({"cluster": name, "model": models[turn % len(models)],
                    "global_batch": 32 * (2 + 2 * lap + rng.randrange(2))})
    return out


def zipf_draws(seed: int, qs, n: int, round_: int) -> "list[dict]":
    rng = random.Random(sub_seed(seed, "zipf", round_))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(qs))]
    order = list(qs)
    rng.shuffle(order)
    return rng.choices(order, weights=weights, k=n)


def arrivals(seed: int, draws, rate: float,
             round_: int) -> "list[tuple[float, dict]]":
    rng = random.Random(sub_seed(seed, "arrivals", round_))
    t, out = 0.0, []
    for item in draws:
        t += rng.expovariate(rate)
        out.append((t, item))
    return out


# ------------------------------------------------------------------- run


def _fabric_seed(seed: int) -> int:
    return sub_seed(seed, "serve-fabric") % 100_000


def _same_hit(answer: dict, warm: dict) -> bool:
    # A hit asked on both connections at once is answered once and
    # shared: the second caller's answer is "coalesced".
    return (answer.get("status") in ("hit", "coalesced")
            and answer.get("config") == warm.get("config")
            and answer.get("latency_s") == warm.get("latency_s"))


def quality(run: Run, seed: int, warmed, profile_times):
    """Check and launch every served plan on its rebuilt fabric."""
    from repro.cluster import NetworkProfiler, make_fabric
    from repro.cluster.presets import high_end_cluster, mid_range_cluster
    from repro.core import PipetteResult
    from repro.core.latency_model import pipette_latency
    from repro.model import get_model
    from repro.profiling.profile_run import profile_compute
    from repro.sim import ClusterRunner

    presets = {"mid-range": mid_range_cluster, "high-end": high_end_cluster}
    worlds = {}
    for index, (name, preset) in enumerate(CLUSTERS):
        cluster = presets[preset](N_NODES)
        # ``serve`` seeds the index-th cluster's fabric, profiler and
        # compute profile with --seed + index.
        fabric_seed = _fabric_seed(seed) + index
        fabric = make_fabric(cluster, seed=fabric_seed)
        worlds[name] = (cluster, fabric, NetworkProfiler().profile(
            fabric, seed=fabric_seed).bandwidth, fabric_seed)
    sim_rates, est_rates, runnable = [], [], []
    for i, (q, answer) in enumerate(warmed):
        if "result" not in answer:
            continue
        cluster, fabric, bandwidth, fabric_seed = worlds[q["cluster"]]
        model = get_model(q["model"])
        best = PipetteResult.from_payload(answer["result"]).best
        start = time.perf_counter()
        profile = profile_compute(model, cluster, seed=fabric_seed)
        profile_times.append(time.perf_counter() - start)
        estimate = pipette_latency(model, best.config, best.mapping,
                                   bandwidth, profile)
        ok = (is_slot_permutation(best.mapping.block_to_slot,
                                  cluster.n_gpus, best.config.tp)
              and estimate == best.estimated_latency_s == answer["latency_s"])
        run.attempt("quality", ok, f"{q} estimate {estimate}")
        measured = ClusterRunner(fabric, model,
                                 seed=sub_seed(seed, "runner", i)).run(
            best.config, best.mapping)
        runnable.append(not measured.oom)
        sim_rates.append(0.0 if measured.oom
                         else q["global_batch"] / measured.time_per_iter_s)
        est_rates.append(q["global_batch"] / estimate)
    return sim_rates, est_rates, runnable


def _check_plans(run: Run, phase: str, results, expect: str, warm=None):
    for q, status, answer, *_ in results:
        ok = status == 200 and answer.get("status") == expect \
            and "result" in answer
        if ok and warm is not None:
            before = warm[json.dumps(q, sort_keys=True)]
            ok = "result" in before and \
                plan_bytes(answer["result"]) == plan_bytes(before["result"])
        run.attempt(phase, ok, f"{q} http {status} "
                               f"status={answer.get('status')}")


def run(root: Path, src: Path, seed: int, seconds: float,
        trace: bool) -> Run:
    # Hits and restarts take both CPUs' time: sample the speed of both.
    cpus = cpu_split()
    with SpeedProbe(cpus or [None]) as probe:
        return _run(probe, root, src, seed, seconds, trace)


def _run(probe, root: Path, src: Path, seed: int, seconds: float,
         trace: bool) -> Run:
    result = Run("serve_hot", seed, trace)
    scratch = root / SCRATCH_DIR / "serve_hot"
    store, trace_dir = scratch / "store", scratch / "traces"
    store.mkdir(parents=True, exist_ok=True)
    fabric_seed = _fabric_seed(seed)
    qs = questions(seed)
    spawned = []

    def spawn(traced: bool) -> Server:
        server = Server(root, src, store, fabric_seed,
                        trace_dir if traced else None,
                        scratch / f"server-{len(spawned)}.log")
        spawned.append(server)
        return server

    try:
        setups = []
        for k in range(SETUP_REPEATS):
            server = spawn(trace)
            setups.append((server.started, server.wait_ready()))
            if k < SETUP_REPEATS - 1:
                server.stop()
        port, main_pid = server.port, server.proc.pid
        before = _scrape(port) if trace else None

        # (a) served misses
        warmed_raw = asyncio.run(_closed_loop(port, qs, detail=True))
        _check_plans(result, "miss", warmed_raw, "miss")
        warm = {json.dumps(q, sort_keys=True): answer
                for q, _, answer, *_ in warmed_raw}
        misses = [(begin, end) for _, _, _, begin, end in warmed_raw]

        # (b) open loop of hits, timed from each request's due time, and
        # (c) closed loop of pure hits, alternating in short rounds so
        # that both spread over the run.
        opened, lateness, closed, closed_slices = [], [], [], []
        for r in range(ROUNDS):
            draws = zipf_draws(seed, qs, int(
                OPEN_LOOP_RATE * OPEN_SHARE * seconds / ROUNDS), r)
            got, late = asyncio.run(_open_loop(
                port, arrivals(seed, draws, OPEN_LOOP_RATE, r)))
            opened += got
            lateness += late
            got, window = asyncio.run(_timed_closed_loop(
                port, draws, CLOSED_SHARE * seconds / ROUNDS))
            closed += got
            closed_slices.append(window)
        for phase, rows in (("open_loop", opened), ("closed_loop", closed)):
            for q, status, answer, *_ in rows:
                result.attempt(phase, status == 200 and _same_hit(
                    answer, warm[json.dumps(q, sort_keys=True)]),
                    f"{q} http {status} status={answer.get('status')}")
        hits = [(due, end) for _, _, _, due, end in opened]
        after = _scrape(port) if trace else None

        # (d) drain, respawn on the same store, re-ask everything
        restarts, plain_closed = [], None
        for k in range(RESTARTS):
            sent = server.stop()
            # The traced run answers its first restart untraced and
            # repeats (c) there: the tracing-overhead baseline.
            server = spawn(trace and k > 0)
            server.wait_ready()
            restarts.append((sent, time.perf_counter()))
            result.attempt("restart", server.rehydrated() == N_QUESTIONS,
                           f"{server.rehydrated()} plans rehydrated")
            again = asyncio.run(_closed_loop(server.port, qs, detail=True))
            _check_plans(result, "rehydrated", again, "hit", warm)
            if trace and k == 0:
                plain_closed, _ = asyncio.run(_timed_closed_loop(
                    server.port, draws, CLOSED_SHARE * seconds / ROUNDS))
        server.stop()
    finally:
        for server in spawned:
            server.stop()

    profile_times = []
    warmed = [(q, answer) for q, _, answer, *_ in warmed_raw]
    sim_rates, est_rates, runnable = quality(result, seed, warmed,
                                             profile_times)

    probe.stop()
    result.timing("setup_s", "s", setups, statistics.median, probe)
    result.timing("miss_mean_s", "s", misses, statistics.fmean, probe)
    result.timing("hit_p50_ms", "ms", hits, statistics.median, probe, 1e3)
    result.timing("hit_p90_ms", "ms", hits,
                  lambda v: percentile(v, 90), probe, 1e3)
    result.rate("hits_per_s", len(closed), closed_slices, probe)
    result.timing("recovery_mean_s", "s", restarts, statistics.fmean, probe)
    result.metric("sim_samples_per_s_mean", "samples/s",
                  sum(sim_rates) / len(sim_rates), sim_rates)
    result.metric("oom_plan_share", "ratio",
                  1 - sum(runnable) / len(runnable))
    result.metric("est_samples_per_s_gmean", "samples/s",
                  geometric_mean(est_rates), est_rates)
    result.notes.append(
        f"open loop {len(opened)} hits at {OPEN_LOOP_RATE:.0f}/s: hit p99 "
        f"{percentile([b - a for a, b in hits], 99) * 1e3:.3f} ms "
        "(measured, not gated); generator "
        f"lateness p50 {percentile(lateness, 50) * 1e3:.3f} ms, max "
        f"{max(lateness) * 1e3:.3f} ms")
    result.notes.append(
        f"{len(runnable) - sum(runnable)} of {len(runnable)} served plans "
        "OOM when launched: serve registers its clusters without a "
        "memory estimator")
    if trace:
        _report_layers(result, root, src, store, trace_dir, main_pid,
                       before, after, closed, plain_closed, profile_times)
    return result


# ------------------------------------------------------------------ layers


def _scrape(port: int) -> "dict[tuple, float]":
    """``/metrics`` as ``(name, labels) -> value``."""
    status, body = asyncio.run(_get(port, "/metrics"))
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        out[(name, labels.rstrip("}"))] = float(value)
    return out


def _delta(before, after, name, where=lambda labels: True) -> float:
    return sum(v - before.get(k, 0.0) for k, v in after.items()
               if k[0] == name and where(k[1]))


def _load_spans(trace_dir: Path, pid: int) -> "list[dict]":
    path = trace_dir / f"trace-{pid}.jsonl"
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _report_layers(result, root, src, store, trace_dir, main_pid, before,
                   after, closed, plain_closed, profile_times) -> None:
    from repro.service.store import PlanStore

    spans = _load_spans(trace_dir, main_pid)
    by_id = {s["span_id"]: s for s in spans}
    child_ms = {}
    for s in spans:
        if s["parent_id"] in by_id:
            child_ms[s["parent_id"]] = child_ms.get(s["parent_id"], 0.0) \
                + s["duration_ms"]

    def durations(name):
        return [s["duration_ms"] / 1e3 for s in spans if s["name"] == name]

    searches = durations("plan.search")
    n_search = max(len(searches), 1)
    candidates = [s for s in spans if s["name"] == "search.candidate"]
    flights = [s["attributes"].get("flight", {}) for s in candidates]
    iterations = sum(f.get("iterations", 0) for f in flights)
    by_trace = {}
    for s in spans:
        by_trace.setdefault(s["trace_id"], set()).add(s["name"])
    hit_traces = [names for names in by_trace.values()
                  if "http.request" in names and "plan.search" not in names]
    configured = sum(1 for names in hit_traces
                     if names & {"search.score", "search.refine",
                                 "search.memory_check"})

    http_self = [(s["duration_ms"] - child_ms.get(s["span_id"], 0.0)) / 1e3
                 for s in spans if s["name"] == "http.request"]
    queue_p50, queue_p90 = layers.p50_p90_us(durations("queue.wait"))
    hits = _delta(before, after, "pipette_cache_hits_total")
    misses = _delta(before, after, "pipette_cache_misses_total")
    batches = _delta(before, after, "pipette_gateway_batches_total")

    rec = Recorder()
    with rec:
        rows = sum(len(PlanStore(path).load())
                   for path in sorted(store.glob("*.jsonl")))
    metrics = {
        "http.self_us_p50": layers.p50_p90_us(http_self)[0],
        "http.requests": _delta(before, after, "pipette_http_requests_total"),
        "http.non_2xx": _delta(
            before, after, "pipette_http_requests_total",
            lambda labels: 'code="2' not in labels),
        "gateway.queue_wait_us_p50": queue_p50,
        "gateway.queue_wait_us_p90": queue_p90,
        "gateway.batch_size_mean": _delta(
            before, after, "pipette_gateway_submitted_total") / batches
        if batches else 0.0,
        "gateway.coalesced": _delta(before, after,
                                    "pipette_gateway_coalesced_total"),
        "gateway.rejected": _delta(before, after,
                                   "pipette_gateway_rejected_total"),
        "cache.lookup_us_p50": layers.p50_p90_us(
            durations("plan.cache_lookup"))[0],
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.stale_drops": _delta(before, after,
                                    "pipette_cache_stale_drops_total"),
        "cache.evictions": _delta(before, after,
                                  "pipette_cache_evictions_total"),
        "store.load_s": sum(s.duration for s in rec.named("store_load")),
        "store.records": rows,
        "store.bytes": sum(p.stat().st_size for p in store.glob("*.jsonl")),
        "planner.search_s_p50": percentile(searches, 50)
        if searches else 0.0,
        "planner.profile_s": sum(profile_times) / len(profile_times),
        "configurator.candidates": sum(
            s["attributes"].get("candidates", 0) for s in spans
            if s["name"] == "search.score") / n_search,
        "configurator.oom_rejected": 0.0,
        "configurator.memory_check_s": sum(
            durations("search.memory_check")) / n_search,
        "configurator.score_s": sum(durations("search.score")) / n_search,
        "configurator.refine_s": sum(durations("search.refine")) / n_search,
        "memory_estimator.fit_s": 0.0,
        "memory_estimator.predict_us": 0.0,
        "annealing.iterations": iterations / len(flights) if flights else 0.0,
        "annealing.evaluations": sum(f.get("evaluations", 0)
                                     for f in flights) / len(flights)
        if flights else 0.0,
        "annealing.accept_ratio": sum(f.get("accepted", 0) for f in flights)
        / iterations if iterations else 0.0,
        # The server's spans cannot split the anneal loop from its
        # kernel calls; in-process workloads measure these.
        "annealing.loop_us_per_iter": 0.0,
        "latency_kernel.compile_us": 0.0,
        "latency_kernel.evals": 0.0,
        "latency_kernel.eval_us": 0.0,
        "latency_kernel.batch_us_per_row": 0.0,
        "replan.rerank_s": 0.0,
        "replan.template_s": 0.0,
        "replan.warm_anneal_s": 0.0,
        "templates.generate_s": 0.0,
        "templates.lookup_hits": _delta(
            before, after, "pipette_template_lookups_total",
            lambda labels: 'outcome="hit"' in labels),
        "templates.lookup_misses": _delta(
            before, after, "pipette_template_lookups_total",
            lambda labels: 'outcome="miss"' in labels),
    }
    for source in ("template", "best", "portfolio", "cold"):
        metrics[f"replan.source.{source}"] = 0.0
    startup, top = layers.startup_metrics(root, src)
    metrics.update(startup)
    traced_ms = sum(end - begin for *_, begin, end in closed) / len(closed)
    plain_ms = sum(end - begin for *_, begin, end in plain_closed) \
        / len(plain_closed)
    metrics["trace.overhead_ratio"] = traced_ms / plain_ms
    for name, value in metrics.items():
        result.metric(name, "", value)
    result.notes.append("slowest imports: " + ", ".join(top))
    result.notes.append(
        f"{len(hit_traces)} traced requests without a search; "
        f"{configured} of them show configurator spans")
