"""Property test: every kernel entry point equals the scalar model, bitwise.

Hypothesis draws worlds on the 8-GPU-node presets (random fabric and
profiler seeds, so the per-pair bandwidths are noisy and asymmetric)
and checks that :meth:`LatencyKernel.evaluate_perm`, every row of
:meth:`LatencyKernel.evaluate_batch` and every
:meth:`IncrementalEvaluator.propose` along a random move walk return
the float :func:`repro.core.latency_model.latency_with_options`
returns — not a close one.  The draws cover:

* ``tp`` in {1, 2, 4, 8}: ``tp == 8`` fills a node with one slot, the
  one-member-per-node data-parallel ring; smaller ``tp`` packs several
  slots per node, the hierarchical ring with an intra-node phase;
* ``pp`` in {1, 2, 4}: the single-hop chain and the summed chain;
* every registered schedule, recompute, and the corners of
  :class:`~repro.core.latency_model.LatencyModelOptions`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import NetworkProfiler
from repro.cluster.presets import high_end_cluster, make_fabric, \
    mid_range_cluster
from repro.core.annealing import apply_move
from repro.core.latency_kernel import LatencyKernel
from repro.core.latency_model import LatencyModelOptions, latency_with_options
from repro.model import get_model
from repro.parallel import Mapping, ParallelConfig
from repro.profiling import profile_compute
from repro.sim.schedule import SCHEDULES

PRESETS = {"mid-range": mid_range_cluster, "high-end": high_end_cluster}

#: Every (pp, tp) the toy model's 4 layers and an 8-GPU node allow;
#: ``dp`` takes up the rest of the cluster.
SHAPES = [(pp, tp) for pp in (1, 2, 4) for tp in (1, 2, 4, 8)]

OPTIONS = [
    LatencyModelOptions(),
    LatencyModelOptions(dp_exposure_aware=True),
    LatencyModelOptions(dp_exposure_aware=True, collective_efficiency=0.88),
    LatencyModelOptions(hidden_critical_path=False),
    LatencyModelOptions(hidden_critical_path=False, dp_exposure_aware=True,
                        collective_efficiency=0.7),
]

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

MODEL = get_model("gpt-toy")


@st.composite
def worlds(draw):
    """Parameters of one kernel world (see :func:`_build`)."""
    n_nodes = draw(st.sampled_from([1, 2, 4]))
    return {
        "preset": draw(st.sampled_from(sorted(PRESETS))),
        "n_nodes": n_nodes,
        "shape": draw(st.sampled_from(
            [(pp, tp) for pp, tp in SHAPES if pp * tp <= 8 * n_nodes])),
        "micro_batch": draw(st.sampled_from([1, 2])),
        "microbatches": draw(st.sampled_from([4, 8])),
        "recompute": draw(st.booleans()),
        "schedule": draw(st.sampled_from(sorted(SCHEDULES))),
        "options": draw(st.sampled_from(range(len(OPTIONS)))),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def _build(world):
    """The kernel of ``world`` and the matrix and profile it compiled."""
    cluster = PRESETS[world["preset"]](world["n_nodes"])
    pp, tp = world["shape"]
    dp = cluster.n_gpus // (pp * tp)
    config = ParallelConfig(
        pp=pp, tp=tp, dp=dp, micro_batch=world["micro_batch"],
        global_batch=world["micro_batch"] * dp * world["microbatches"],
        recompute=world["recompute"], schedule=world["schedule"])
    seed = world["seed"]
    fabric = make_fabric(cluster, seed=seed)
    bandwidth = NetworkProfiler().profile(fabric, seed=seed + 1).bandwidth
    profile = profile_compute(MODEL, cluster, seed=seed + 2)
    kernel = LatencyKernel(MODEL, config, cluster, bandwidth, profile,
                           OPTIONS[world["options"]])
    return kernel, bandwidth, profile


def _reference(kernel, bandwidth, profile, perm) -> float:
    mapping = Mapping(kernel.grid, kernel.cluster, np.asarray(perm))
    return latency_with_options(MODEL, kernel.config, mapping, bandwidth,
                                profile, kernel.options)


def _random_move(rng: np.random.Generator, n: int):
    kind = ("swap", "migrate", "reverse")[int(rng.integers(3))]
    if kind == "swap":
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    elif kind == "migrate":
        i, j = int(rng.integers(n)), int(rng.integers(n - 1))
    else:
        i = int(rng.integers(n - 1))
        j = int(rng.integers(i + 2, n + 1))
    return kind, i, j


def _example(preset, n_nodes, shape, options, schedule="1f1b"):
    return {"preset": preset, "n_nodes": n_nodes, "shape": shape,
            "micro_batch": 1, "microbatches": 8, "recompute": False,
            "schedule": schedule, "options": options, "seed": 7}


@SETTINGS
@given(worlds())
# One slot per node (tp == 8) under a single-hop and a summed chain,
# then several slots per node, each with every stage's ring charged.
@example(_example("high-end", 4, (2, 8), 1))
# One stage of whole-node slots: a permutation-invariant objective.
@example(_example("mid-range", 4, (1, 8), 2))
@example(_example("mid-range", 4, (4, 8), 2, "interleaved_1f1b"))
@example(_example("mid-range", 2, (2, 4), 1))
@example(_example("high-end", 2, (4, 2), 4, "gpipe"))
@example(_example("mid-range", 1, (2, 1), 1))
def test_every_entry_point_equals_the_scalar_model(world):
    kernel, bandwidth, profile = _build(world)
    rng = np.random.default_rng(world["seed"])
    n = kernel.grid.n_blocks
    perms = np.stack([rng.permutation(n) for _ in range(4)])
    expected = [_reference(kernel, bandwidth, profile, p) for p in perms]

    assert [kernel.evaluate_perm(p) for p in perms] == expected
    assert kernel.evaluate_batch(perms).tolist() == expected

    if n < 2:
        return
    inc = kernel.incremental()
    assert inc.bind(perms[0]) == expected[0]
    current = perms[0]
    for step in range(6):
        candidate = apply_move(current, _random_move(rng, n))
        value = inc.propose(candidate)
        assert value == _reference(kernel, bandwidth, profile, candidate)
        if step % 2 == 0:
            inc.accept()
            current = candidate
