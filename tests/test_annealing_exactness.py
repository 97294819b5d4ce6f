"""The fast annealer's cheaper iterations change no result.

:func:`repro.core.annealing.anneal_mapping` draws its moves through
:class:`~repro.core.annealing.MoveStream` instead of
``numpy.random.Generator``, memoizes objective values on small grids,
keeps a bounded portfolio pool, and scores permutation-invariant
kernels with one constant.  Each of those is exact, and the suites
below hold them to it:

* ``MoveStream`` reproduces ``Generator.integers``, ``choice(n, 2,
  replace=False)`` and ``random`` draw for draw;
* every ``SAResult`` field equals :func:`anneal_mapping_reference`'s,
  and the portfolio equals the unbounded selection rebuilt from the
  reference run's accepted states;
* a memoized anneal calls the kernel once per distinct permutation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import Fabric, HeterogeneityModel, NetworkProfiler
from repro.cluster.presets import high_end_cluster, make_fabric, \
    mid_range_cluster
from repro.core.annealing import (
    MEMO_MAX_BLOCKS,
    MoveStream,
    SAOptions,
    SAResult,
    _build_portfolio,
    _VisitPool,
    anneal_mapping,
    anneal_mapping_reference,
)
from repro.core.latency_kernel import pipette_kernel
from repro.model import get_model
from repro.parallel import Mapping, ParallelConfig, WorkerGrid, \
    sequential_mapping
from repro.profiling import profile_compute

MODEL = get_model("gpt-toy")


# ------------------------------------------------------------ MoveStream


def _pairs(seed: int):
    return (np.random.default_rng(seed),
            MoveStream(np.random.default_rng(seed).bit_generator))


#: Bounds that exercise every branch of the 32-bit bounded draw: no
#: draw (``n == 1``), the two-value Floyd corner (``n == 2``), small
#: annealer-sized ranges, ranges whose Lemire rejection threshold is
#: large (just above ``2**31``, ``3 * 2**30``), the last Lemire range
#: (``2**32 - 1``) and the full 32-bit draw (``2**32``).
BOUNDS = [1, 2, 3, 4, 7, 9, 17, 1000, 2**31 + 1, 3 * 2**30,
          2**32 - 1, 2**32]


class TestMoveStream:
    @pytest.mark.parametrize("seed", range(0, 200, 7))
    def test_mixed_draws_match_generator(self, seed):
        """Interleaved 32- and 64-bit draws over every bound."""
        rng, stream = _pairs(seed)
        plan = np.random.default_rng(10_000 + seed)
        for _ in range(3000):
            op = int(plan.integers(3))
            n = BOUNDS[int(plan.integers(len(BOUNDS)))]
            if op == 0:
                assert stream.integers(n) == int(rng.integers(n))
            elif op == 1 and n >= 2:
                expected = tuple(int(v) for v in
                                 rng.choice(n, size=2, replace=False))
                assert stream.pair(n) == expected
            else:
                assert stream.random() == rng.random()

    def test_rejection_path_is_exercised(self):
        """Ranges just above 2**31 reject about half their draws; the
        stream still lands every value."""
        rng, stream = _pairs(3)
        n = 2**31 + 1
        values = [stream.integers(n) for _ in range(2000)]
        assert values == [int(v) for v in rng.integers(n, size=2000)]

    def test_small_ranges(self):
        rng, stream = _pairs(5)
        for _ in range(500):
            assert stream.integers(1) == int(rng.integers(1))
            assert stream.pair(2) == tuple(
                int(v) for v in rng.choice(2, size=2, replace=False))
            assert stream.integers(2) == int(rng.integers(2))
        assert stream.random() == rng.random()

    def test_picks_up_a_buffered_half(self):
        """A generator that already made an odd number of 32-bit draws
        holds the high half of its last word; the stream starts there."""
        rng = np.random.default_rng(9)
        twin = np.random.default_rng(9)
        rng.integers(5)
        twin.integers(5)
        stream = MoveStream(twin.bit_generator)
        for _ in range(200):
            assert stream.integers(6) == int(rng.integers(6))
            assert stream.random() == rng.random()

    def test_block_boundaries(self):
        """Draws straddling the ``random_raw`` blocks stay in step."""
        rng, stream = _pairs(11)
        for _ in range(5 * MoveStream.BLOCK):
            assert stream.random() == rng.random()
            assert stream.integers(3) == int(rng.integers(3))

    def test_rejects_other_bit_generators(self):
        with pytest.raises(TypeError, match="PCG64"):
            MoveStream(np.random.MT19937(0))

    def test_rejects_out_of_range_bounds(self):
        stream = MoveStream(np.random.PCG64(0))
        with pytest.raises(ValueError):
            stream.integers(0)
        with pytest.raises(ValueError):
            stream.integers(2**32 + 1)
        with pytest.raises(ValueError):
            stream.pair(1)


# ------------------------------------------------- SAResult equality


def _tiny_cluster():
    from repro.cluster.topology import ClusterSpec, GpuSpec, LinkSpec, \
        NodeSpec
    from repro.units import GIB

    gpu = GpuSpec(name="TestGPU", memory_bytes=4 * GIB, peak_flops=10e12,
                  achievable_fraction=0.5, hbm_gb_s=500.0)
    node = NodeSpec(gpus_per_node=4, gpu=gpu,
                    intra_link=LinkSpec("TestNVLink", 100.0, alpha_s=1e-6))
    return ClusterSpec(name="tiny", n_nodes=4, node=node,
                       inter_link=LinkSpec("TestIB", 10.0, alpha_s=1e-5))


def _tiny_world(pp, tp, dp):
    cluster = _tiny_cluster()
    bandwidth = Fabric(cluster, heterogeneity=HeterogeneityModel(),
                       seed=11).bandwidth()
    return cluster, bandwidth, pp, tp, dp


def _preset_world(preset, n_nodes, pp, tp):
    cluster = preset(n_nodes)
    bandwidth = NetworkProfiler().profile(
        make_fabric(cluster, seed=21), seed=22).bandwidth
    return cluster, bandwidth, pp, tp, cluster.n_gpus // (pp * tp)


#: (name, world): a 4-block grid where most evaluations repeat a seen
#: permutation, a 16-block grid above the memo limit, and two ``pp ==
#: 1`` whole-node grids whose objective is permutation-invariant.
WORLDS = {
    "tiny-4-blocks": lambda: _tiny_world(2, 4, 2),
    "tiny-16-blocks": lambda: _tiny_world(4, 2, 2),
    "high-end-pp1-tp8-4-nodes": lambda: _preset_world(
        high_end_cluster, 4, 1, 8),
    "mid-range-pp1-tp8-16-nodes": lambda: _preset_world(
        mid_range_cluster, 16, 1, 8),
}


def _kernel(world):
    cluster, bandwidth, pp, tp, dp = world
    config = ParallelConfig(pp=pp, tp=tp, dp=dp, micro_batch=1,
                            global_batch=8 * dp)
    profile = profile_compute(MODEL, cluster, seed=5)
    kernel = pipette_kernel(MODEL, config, cluster, bandwidth, profile)
    return kernel, sequential_mapping(WorkerGrid(pp=pp, tp=tp, dp=dp),
                                      cluster)


class _AcceptLog:
    """Rebuilds the reference run's accepted states.

    Wraps the objective (recording each scored permutation) and acts
    as the run's recorder: the reference loop scores a proposal, then
    reports whether it was accepted, so an accepted sample adopts the
    last scored permutation.
    """

    def __init__(self, objective):
        self.objective = objective
        self.last = None
        self.scored: "list[bytes]" = []
        self.accepted: "list[tuple[bytes, float]]" = []

    def __call__(self, mapping):
        value = float(self.objective(mapping))
        key = np.asarray(mapping.block_to_slot, dtype=np.int64).tobytes()
        self.last = (key, value)
        self.scored.append(key)
        return value

    def start(self, value, evaluations=1, delta_evaluations=0):
        self.accepted.append((self.scored[0], value))

    def sample(self, iteration, temperature, best, accepted, **_):
        if accepted:
            self.accepted.append(self.last)

    def finish(self, reason, best):
        pass

    def portfolio(self, result, k):
        """The unbounded selection ``_build_portfolio`` documents."""
        pool: "dict[bytes, float]" = {}
        for key, value in self.accepted:
            if key not in pool or value < pool[key]:
                pool[key] = value
        best_key = np.asarray(result.mapping.block_to_slot,
                              dtype=np.int64).tobytes()
        runners = sorted((v, key) for key, v in pool.items()
                         if key != best_key)[:k - 1]
        return [(best_key, result.value)] + [(key, v) for v, key in runners]


def _keys(portfolio):
    return [(np.asarray(m.block_to_slot, dtype=np.int64).tobytes(), v)
            for m, v in portfolio]


class TestSAResultEquality:
    @pytest.mark.parametrize("name", sorted(WORLDS))
    @pytest.mark.parametrize("seed", [0, 5])
    def test_every_field_equals_the_reference(self, name, seed):
        kernel, initial = _kernel(WORLDS[name]())
        options = SAOptions(max_iterations=1500, seed=seed, portfolio_k=4)
        fast = anneal_mapping(initial, kernel, options)
        log = _AcceptLog(kernel)
        reference = anneal_mapping_reference(initial, log, options,
                                             recorder=log)
        for f in dataclasses.fields(SAResult):
            if f.name in ("elapsed_s", "portfolio"):
                continue
            assert getattr(fast, f.name) == getattr(reference, f.name), \
                f.name
        assert _keys(fast.portfolio) == log.portfolio(reference, 4)
        for mapping, value in fast.portfolio:
            assert kernel.evaluate_perm(mapping.block_to_slot) == value

    def test_permutation_invariant_objective_accepts_every_move(self):
        kernel, initial = _kernel(WORLDS["mid-range-pp1-tp8-16-nodes"]())
        result = anneal_mapping(initial, kernel,
                                SAOptions(max_iterations=300, seed=1))
        assert result.accepted == result.iterations == 300
        assert result.history == [result.initial_value]


class TestPortfolioBound:
    def test_long_anneal_matches_unbounded_selection(self):
        kernel, initial = _kernel(WORLDS["tiny-16-blocks"]())
        options = SAOptions(max_iterations=6000, seed=3, portfolio_k=5)
        fast = anneal_mapping(initial, kernel, options)
        log = _AcceptLog(kernel)
        reference = anneal_mapping_reference(initial, log, options,
                                             recorder=log)
        distinct = {key for key, _ in log.accepted}
        assert len(distinct) > 100 * options.portfolio_k
        assert _keys(fast.portfolio) == log.portfolio(reference, 5)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_pool_holds_k_states_and_selects_as_unbounded(self, k):
        """Random visits, with repeats, ties and revisits at lower
        values: the bounded pool never exceeds ``k`` states and yields
        the unbounded portfolio."""
        cluster = _tiny_cluster()
        grid = WorkerGrid(pp=2, tp=2, dp=4)
        rng = np.random.default_rng(k)
        states = [rng.permutation(8) for _ in range(60)]
        unbounded: "dict[bytes, float]" = {}
        pool = None
        for step in range(2000):
            perm = states[int(rng.integers(len(states)))]
            value = float(rng.integers(40)) / 4.0
            if pool is None:
                pool = _VisitPool(k, perm, value)
            else:
                pool.note(perm, value)
            key = perm.tobytes()
            if key not in unbounded or value < unbounded[key]:
                unbounded[key] = value
            assert len(pool.states) <= k
            if step % 97 == 0:
                best_key, best_value = min(unbounded.items(),
                                           key=lambda kv: kv[1])
                best = Mapping(grid, cluster,
                               np.frombuffer(best_key, dtype=np.int64).copy())
                got = _build_portfolio(best, best, best_value, pool, k)
                runners = sorted((v, key) for key, v in unbounded.items()
                                 if key != best_key)[:k - 1]
                assert _keys(got) == [(best_key, best_value)] + [
                    (key, v) for v, key in runners]


# ----------------------------------------------------------------- memo


class _Counting:
    """A kernel objective that counts its ``evaluate_perm`` calls."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.grid = kernel.grid
        self.calls = 0

    def evaluate_perm(self, perm):
        self.calls += 1
        return self.kernel.evaluate_perm(perm)


class TestSmallGridMemo:
    @pytest.mark.parametrize("name", ["tiny-4-blocks", "tiny-16-blocks"])
    def test_kernel_called_once_per_distinct_permutation(self, name):
        kernel, initial = _kernel(WORLDS[name]())
        options = SAOptions(max_iterations=800, seed=2)
        counting = _Counting(kernel)
        fast = anneal_mapping(initial, counting, options)
        log = _AcceptLog(kernel)
        reference = anneal_mapping_reference(initial, log, options,
                                             recorder=log)
        assert fast.value == reference.value
        assert fast.evaluations == reference.evaluations == len(log.scored)
        if kernel.grid.n_blocks <= MEMO_MAX_BLOCKS:
            assert counting.calls == len(set(log.scored)) < len(log.scored)
        else:
            assert counting.calls == len(log.scored)


# -------------------------------------------------------------- options


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, -2**40])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="non-negative"):
            SAOptions(seed=seed)

    @pytest.mark.parametrize("seed", [1.5, "3", None, True])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(TypeError, match="non-negative int"):
            SAOptions(seed=seed)

    def test_numpy_and_large_ints_accepted(self):
        assert SAOptions(seed=np.int64(7)).seed == 7
        assert SAOptions(seed=2**63).seed == 2**63
        with pytest.raises(ValueError):
            SAOptions().with_seed(-3)
