"""Vectorized latency objective for the annealer hot path.

Simulated annealing (§IV, Algorithm 1 lines 9-15) spends its entire
budget calling the latency estimator: every proposed move pays a full
:func:`repro.core.latency_model.latency_with_options` evaluation, whose
reference implementation walks the ``(pp, tp, dp)`` communicator groups
in nested Python loops and constructs a fresh
:class:`~repro.parallel.mapping.Mapping` per move.

For a *fixed* ``(model, config, cluster, profile, options)`` tuple,
almost everything in Eqs. (3)-(6) is independent of the block
permutation:

* message sizes (``msg_PP``, per-stage ``msg_DP``, the tensor-parallel
  all-reduce payload) and their alpha-beta coefficients,
* the profiled compute scalar ``C`` (with its recompute factors),
* each slot's TP all-reduce time (a TP group always occupies one slot
  of ``tp`` consecutive GPUs, whichever block lands there),
* the slot-pair bandwidth tables ``matrix[s1*tp + y, s2*tp + y]`` that
  the pipeline-chain and data-parallel terms read through,
* the intra-node phase of the hierarchical ring for every subset of
  every node's slots (below),
* the stage-major block layout
  (:meth:`repro.parallel.mapping.WorkerGrid.stage_blocks`).

:class:`LatencyKernel` hoists all of that into ``__init__`` and reduces
one objective evaluation to a handful of NumPy gathers and reductions
over the raw permutation array, plus one short pass per stage for the
hierarchical ring — no per-worker group loops, no ``Mapping``
construction.

**Tensor-rank collapse.** Three terms are the maximum of a function of
one bandwidth over the ``tp`` tensor ranks a block spans, and the
kernel reduces that axis once in ``__init__`` instead of on every
call:

* the TP straggler: each slot's TP all-reduce time, computed from the
  slowest link inside the slot;
* the single hop of a ``pp == 2`` chain: the hop table keeps its
  per-pair maximum over tensor ranks;
* the one-member-per-node DP ring (``tp == gpus_per_node``): the ring
  formula ``num / ((dp * bw) * GB)`` is applied to the per-pair
  bandwidth minimum over tensor ranks; the kernel stores its
  denominator per slot pair, and a call divides by the smallest
  denominator of the group's pairs.

The last is exact, not approximate.  The formula is a chain of
correctly rounded ``*`` and ``/`` on positive operands, each monotone
in ``bw``: the denominator never falls as ``bw`` grows and the
quotient never rises.  So ``max_y f(bw_y) == f(min_y bw_y)`` bit for
bit (the right side *is* one of the values on the left), and the
smallest denominator is the denominator of the smallest bandwidth.
A ``pp > 2`` chain sums several hops per tensor rank, and the
multi-slot-per-node ring adds an intra- and an inter-node phase per
tensor rank, so those keep their tensor-rank axis.

**The multi-slot-per-node ring.** When ``tp < gpus_per_node`` each
node holds several slots, and a stage's ring (Eq. 6) is an intra-node
phase, set per node by the slowest link among the node's members,
plus an inter-node phase over one leader per node (its first member
in data-rank order).  The members a stage has on one node form a
subset mask of that node's slots, so ``__init__`` stores, per stage,
node, mask and tensor rank, the reference's intra-node term
``((k - 1) * 4.0 * msg) / ((k * minbw) * GB)`` (0.0 below two
members).  This is exact: ``minbw`` is the subset's slowest ordered
pair, the very minimum the reference takes over the same links, so
each stored float *is* the reference's float, and the maximum over a
stage's nodes is exact in any order.  Per call,
:meth:`LatencyKernel._ring_stage` walks the stage's data-rank row once
in Python, collecting each node's mask and leader; the intra phase of
each rank is the maximum of the shared nodes' entries.  The slowest
leader link of each rank does not depend on the stage, so the
inter-phase denominators ``(kn * bw) * GB`` are memoized per sorted
leader set, computed on a miss by two ``take`` calls over the
slot-pair table.  The memo holds at most :data:`LEADER_MEMO_MAX`
leader sets and starts afresh when full.  The phases are then added
and reduced over tensor ranks in the reference's order.  At these
sizes a few dozen Python operations cost less than the ~28 NumPy calls
of a masked formulation over all of a stage's slot pairs.

**Permutation-invariant terms.** Two cases need no per-call work at
all, because a maximum or minimum over a *set* of slots is exact in
any order:

* with ``pp <= 2`` the stage-0 and last-stage blocks are every block,
  so the TP straggler is the slowest slot whatever the permutation,
  and ``__init__`` keeps that one value;
* with ``pp == 1`` and one slot per node (``tp == gpus_per_node``)
  every term ranges over all slots — the straggler as above, no chain,
  and one ring whose slowest link is the minimum over every ordered
  slot pair — so the whole objective is a constant, computed once by
  the ordinary terms and epilogue on the identity permutation and
  returned by :meth:`LatencyKernel.evaluate_perm` and
  :meth:`LatencyKernel.evaluate_batch`.  An anneal on such a grid
  accepts every move.

The multi-slot-per-node ring is not invariant (its leaders are each
node's first member in data-rank order), and neither is a chain.

**Equivalence guarantee.** The kernel is not merely close to the
reference model: every floating-point expression mirrors the reference
implementation's operation order (same products, same quotients, same
reduction extrema) or provably rounds to the same float (a formula
applied to a minimum, as above; a factor of ``4.0`` or ``2.0`` moved
inside a product, which scales exactly), so
``kernel.evaluate_perm(m.block_to_slot)`` is *bit-identical* to
``latency_with_options(..., m, ...)`` for every mapping.  Minima and
maxima are exact in any order and grouping, so the kernel reduces them
however is cheapest; sums are never reassociated (a chain's hops are
accumulated in chain order).  That is
what lets :func:`repro.core.annealing.anneal_mapping` replay the exact
accept/reject trajectory of the pre-kernel annealer for the same
:class:`~repro.core.annealing.SAOptions` seed — cached plans, store
round-trips, and gateway coalescing see byte-identical results, just
computed one to two orders of magnitude faster: 17-47x the reference
on the Table 1 shapes, about 1.7x the kernel before the tensor-rank
collapse on the ``tp == 8`` ones (``benchmarks/bench_annealing_kernel.py``;
figures in the README).

**The incremental contract.** :meth:`LatencyKernel.evaluate_perm`
remains the executable spec, but an annealing move touches at most a
handful of permutation positions, and Eqs. (3)-(6) decompose into
*per-component partial terms* that each depend only on a slice of the
permutation:

* the TP straggler time (stage 0 + last stage blocks),
* one pipeline-chain time per data-rank lane (worst tensor rank),
* one data-parallel ring term per exposure-aware stage.

Each term has one implementation on the kernel, written over any
leading batch axes (the hierarchical ring loops over the rows it is
given).  :meth:`LatencyKernel.evaluate_perm` and
:meth:`LatencyKernel.evaluate_batch` (K permutations per call, for
template scoring and warm re-plans) run every term on the whole
permutation; :class:`IncrementalEvaluator` caches the terms
of a bound permutation and, per proposed move, re-runs only the
touched ones, so the incremental value equals ``evaluate_perm`` to the
last bit and the annealer's trajectory is unchanged.
:meth:`LatencyKernel.delta_for_move` wraps this as the one-shot
``latency(move(perm)) - latency(perm)`` form.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.fabric import BandwidthMatrix
from repro.cluster.topology import ClusterSpec
from repro.core.latency_model import LatencyModelOptions
from repro.model.memory import stage_layer_count
from repro.model.transformer import TransformerConfig
from repro.parallel.config import ParallelConfig
from repro.parallel.mapping import (
    Mapping,
    WorkerGrid,
    check_slot_geometry,
    slot_gpu_index,
    slot_node_index,
)
from repro.parallel.messages import (
    TP_ALLREDUCES_PER_LAYER,
    dp_message_bytes,
    pp_message_bytes,
    tp_allreduce_bytes,
)
from repro.profiling.profile_run import ComputeProfile
from repro.units import GB

# The hot path calls ufunc methods and ``ndarray.take`` directly: the
# ``np.take`` / ``ndarray.max`` wrappers cost a Python frame per call.
_max = np.maximum.reduce
_min = np.minimum.reduce
_add = np.add.reduce

#: Leader sets one kernel memoizes the inter-node ring denominators of
#: (see :meth:`LatencyKernel._ring_stage`); a full memo is cleared.
LEADER_MEMO_MAX: int = 4096


def _last_max(x: np.ndarray):
    """Maximum over the last axis of ``x``.

    A vector (one permutation's terms) takes its maximum through
    ``argmax``, several times cheaper than a ufunc reduction at these
    sizes; both return the same element.
    """
    if x.ndim == 1:
        return x[x.argmax()]
    return _max(x, axis=-1)


class LatencyKernel:
    """Compiled latency objective over block permutations.

    One kernel is specialized to a fixed ``(model, config, cluster,
    bandwidth, profile, options)`` tuple; :meth:`evaluate_perm` then
    scores any block permutation of that shape.  The instance is also
    callable on a :class:`~repro.parallel.mapping.Mapping`, making it a
    drop-in SA objective — :func:`repro.core.annealing.anneal_mapping`
    detects :meth:`evaluate_perm` and skips ``Mapping`` construction
    entirely.

    Args:
        model: architecture being trained.
        config: the parallelization whose mappings are scored.
        cluster: physical cluster (defines slot/node geometry).
        bandwidth: bandwidth matrix the communication terms read.
        profile: profiled compute times.
        options: ablation switches; defaults mirror
            :func:`repro.core.latency_model.latency_with_options`'s.
    """

    def __init__(self, model: TransformerConfig, config: ParallelConfig,
                 cluster: ClusterSpec, bandwidth: BandwidthMatrix,
                 profile: ComputeProfile,
                 options: LatencyModelOptions | None = None) -> None:
        options = options or LatencyModelOptions()
        grid = WorkerGrid(pp=config.pp, tp=config.tp, dp=config.dp)
        check_slot_geometry(grid, cluster)
        if bandwidth.n_gpus != cluster.n_gpus:
            raise ValueError(
                f"bandwidth matrix covers {bandwidth.n_gpus} GPUs but the "
                f"cluster has {cluster.n_gpus}"
            )
        self.model = model
        self.config = config
        self.cluster = cluster
        self.options = options
        self.grid = grid
        pp, tp, dp = config.pp, config.tp, config.dp
        n_slots = grid.n_blocks

        # ---- permutation-independent scalars -------------------------
        c = profile.max_stage_compute_time(pp, tp, config.micro_batch)
        self._tp_factor = 1.0
        if config.recompute:
            c *= 4.0 / 3.0
            self._tp_factor = 1.5
        self._c = c
        self._n_mb = config.n_microbatches
        self._eff = options.collective_efficiency
        # Resolve the schedule's analytic critical-time function once;
        # ``_combine`` calls it on every objective evaluation.
        from repro.sim.schedule import schedule_type

        self._critical_time = schedule_type(config.schedule).critical_time

        matrix = bandwidth.matrix
        # ``blocked[s1, y1, s2, y2] == matrix[s1*tp + y1, s2*tp + y2]``.
        blocked = matrix.reshape(n_slots, tp, n_slots, tp)

        self._n_slots = n_slots

        # ---- tensor-parallel term (part of C + T_TP_com) -------------
        if tp > 1:
            # Slowest link inside each slot's TP group (the matrix
            # diagonal is +inf and never wins, matching
            # ``min_over_group``), gathered through the slot-GPU table;
            # then the reference's TP all-reduce time of each slot,
            # computed elementwise here rather than once per call.
            gpus = slot_gpu_index(grid, cluster)       # (n_slots, tp)
            tp_min_bw = matrix[gpus[:, :, None],
                               gpus[:, None, :]].min(axis=(1, 2))
            steps = tp - 1
            tp_coef = 2.0 * (steps / tp) * tp_allreduce_bytes(
                model, config.micro_batch)
            tp_layers4 = stage_layer_count(model.n_layers, pp, 0) \
                * TP_ALLREDUCES_PER_LAYER
            self._tp_time = tp_layers4 * (tp_coef / (tp_min_bw * GB))
            # The reference model inspects stage 0 and the last stage;
            # these are the positions of their blocks in the permutation.
            rows = grid.stage_blocks()
            self._tp_blocks = np.concatenate([rows[0], rows[-1]]) \
                if pp > 1 else rows[0]
            # Which permutation positions feed the TP straggler term —
            # the incremental path skips it entirely for moves that
            # touch neither the first nor the last stage.
            self._tp_touch = np.zeros(n_slots, dtype=bool)
            self._tp_touch[self._tp_blocks] = True
            # With at most two stages those positions are every block,
            # so the straggler is the slowest slot whatever the order.
            self._tp_worst = self._tp_time[self._tp_time.argmax()] \
                if pp <= 2 else None

        # ``pair_bw[y, s1, s2]``: bandwidth between tensor rank ``y``'s
        # GPUs of slots ``s1`` and ``s2`` — the table both the pipeline
        # chains and the data-parallel rings gather through (flattened
        # to ``(tp, n_slots**2)`` so hot-loop gathers are single
        # ``take`` calls over ``s1 * n_slots + s2`` indices).
        if pp > 1 or dp > 1:
            pair_bw = blocked.diagonal(axis1=1, axis2=3).transpose(2, 0, 1)
            flat_pair = np.ascontiguousarray(pair_bw.reshape(tp, -1))

        # ---- pipeline-parallel term (Eq. 5) --------------------------
        if pp > 1:
            hop_num = 2.0 * pp_message_bytes(model, config.micro_batch)
            hop = hop_num / (flat_pair * GB)
            # A two-stage chain is one hop, so its worst tensor rank is
            # the per-pair maximum of the hop table.
            self._hop = hop.max(axis=0) if pp == 2 else hop

        # ---- data-parallel term (Eq. 6) ------------------------------
        if dp > 1:
            ns = pp if options.dp_exposure_aware else 1
            self._n_dp_stages = ns
            msg_dp = np.array([dp_message_bytes(model, pp, tp, stage=s)
                               for s in range(ns)])
            # Stage ``s`` hides its ring behind ``s`` backward passes of
            # drain slack; stage 0's ring is fully exposed.
            self._drain_steps = np.arange(ns, dtype=np.float64)
            # When a slot is a whole node (tp == gpus_per_node, the
            # Megatron default), every DP group has exactly one member
            # per node: the intra-node phase vanishes, the leaders are
            # all ``dp`` members, and the ring's worst tensor rank is
            # the one with the slowest link (see the module docstring).
            self._one_slot_per_node = cluster.gpus_per_node // tp == 1
            if self._one_slot_per_node:
                # The ring's denominator ``(dp * bw) * GB`` over the
                # slowest tensor rank of each slot pair; it grows with
                # ``bw``, so its minimum over a group's pairs is the
                # denominator of the group's slowest link.
                self._ring_den = (dp * flat_pair.min(axis=0)) * GB
                self._inter_num = (2.0 * (dp - 1)) * msg_dp
            else:
                self._compile_ring(flat_pair, msg_dp,
                                   slot_node_index(grid, cluster),
                                   cluster.gpus_per_node // tp)

        # ---- permutation-invariant objective -------------------------
        # One stage of whole-node slots: the TP straggler, the only ring
        # and its slowest link each range over every slot, so the value
        # is the same for every permutation (see the module docstring).
        self._constant = None
        if pp == 1 and tp == cluster.gpus_per_node:
            self._constant = float(
                self._combine(*self._terms(np.arange(n_slots))))

    def _compile_ring(self, flat_pair: np.ndarray, msg_dp: np.ndarray,
                      node: np.ndarray, per_node: int) -> None:
        """Tables of the multi-slot-per-node ring (see :meth:`_ring_stage`).

        Slot ``s`` is bit ``s % per_node`` of node ``node[s]``, so the
        members a ring has on one node form a subset mask.  For every
        (stage, node, mask) the intra-node phase of each tensor rank is
        stored: ``((k - 1) * 4.0 * msg) / ((k * minbw) * GB)`` with
        ``minbw`` the slowest ordered pair of the subset, and 0.0 for
        fewer than two members — the reference's expression on the
        reference's bandwidth minimum, so the stored float is its float.
        """
        tp = flat_pair.shape[0]
        n_masks = 1 << per_node
        on_node = np.arange(node.size).reshape(-1, per_node)
        # ``local[y, n, a, b]``: rank y's link between the node's slots
        # a and b, taken in whichever direction is slower.
        local = flat_pair.reshape(tp, node.size, node.size)[
            :, on_node[:, :, None], on_node[:, None, :]]
        local = np.minimum(local, local.swapaxes(-1, -2))
        member = (np.arange(n_masks)[:, None] >> np.arange(per_node)) & 1 == 1
        # Masks with highest bit h are ``2**h + rest``: their slowest
        # pair is ``rest``'s or one of h's links into ``rest``.
        minbw = np.full((tp, len(on_node), n_masks), np.inf)
        for h in range(1, per_node):
            lo = 1 << h
            link = _min(np.where(member[:lo, :h], local[:, :, h, None, :h],
                                 np.inf), axis=-1)
            minbw[..., lo:2 * lo] = np.minimum(minbw[..., :lo], link)
        k = _add(member, axis=1, dtype=np.float64)
        # The numerator ``(4.0 * (k - 1)) * msg`` as ``(k - 1) * (4.0 *
        # msg)``: scaling by a power of two is exact, so both forms
        # round the same real product once.  The empty mask's nan (0 *
        # inf in its denominator) is overwritten with the others under
        # two members.
        with np.errstate(invalid="ignore"):
            intra = ((k - 1.0) * (4.0 * msg_dp)[:, None, None, None]) \
                / ((k * minbw) * GB)                # (ns, tp, nodes, masks)
        intra[..., k < 2] = 0.0
        # ``_intra[stage][n * n_masks + mask]``: the tp ranks' terms.
        self._intra = intra.transpose(0, 2, 3, 1).reshape(
            len(msg_dp), -1, tp).tolist()
        self._slot_base = (node * n_masks).tolist()
        self._slot_bit = (1 << (np.arange(node.size) % per_node)).tolist()
        self._msg_dp2 = (2.0 * msg_dp).tolist()
        # ``_pair_cube[s1, s2]``: the tp ranks' links of a slot pair.
        self._pair_cube = np.ascontiguousarray(
            flat_pair.T.reshape(node.size, node.size, tp))
        self._leader_den: "dict[tuple, list]" = {}

    # ------------------------------------------------------------- evaluation

    def __call__(self, mapping: Mapping) -> float:
        """Score a mapping — the drop-in SA objective form."""
        if mapping.grid != self.grid:
            raise ValueError(
                f"kernel compiled for grid {self.grid} got {mapping.grid}"
            )
        return self.evaluate_perm(mapping.block_to_slot)

    def evaluate_perm(self, perm: np.ndarray) -> float:
        """Latency of the block permutation ``perm`` (no validation).

        ``perm`` must be a permutation of ``[0, n_blocks)``; callers in
        the annealing loop guarantee that by construction (the move set
        preserves permutations), so no per-call check is paid.
        """
        if self._constant is not None:
            return self._constant
        return float(self._combine(*self._terms(np.asarray(perm))))

    def evaluate_batch(self, perms: np.ndarray) -> np.ndarray:
        """Latencies of K block permutations in one vectorized pass.

        ``perms`` is a ``(K, n_blocks)`` array whose rows are
        permutations of ``[0, n_blocks)``.  Every term and the epilogue
        run the same elementwise expressions as :meth:`evaluate_perm`
        with a leading K axis, and every reduction stays per row (a
        chain's ``add.accumulate`` runs along its hop axis, so each
        lane's sum order is untouched) — row ``k`` of the result is
        therefore *bit-identical* to ``evaluate_perm(perms[k])``.  The
        point is dispatch amortization: the annealer's batched proposal
        mode pays one NumPy call chain for K candidate moves instead of
        K.  The hierarchical ring (several slots per node) is scored
        row by row by :meth:`_ring_stage`, so on those grids a batch
        costs about K single evaluations.
        """
        perms = np.asarray(perms)
        if perms.ndim != 2 or perms.shape[1] != self.grid.n_blocks:
            raise ValueError(
                f"expected a (K, {self.grid.n_blocks}) batch of "
                f"permutations, got shape {perms.shape}"
            )
        # A permutation-invariant objective (a one-block grid among
        # them) comes back scalar; ``full`` broadcasts it over the rows.
        value = self._constant
        if value is None:
            value = self._combine(*self._terms(perms))
        return np.full(perms.shape[0], value)

    # -------------------------------------------------------------- terms

    def _terms(self, perm: np.ndarray) -> tuple:
        """The partial terms of ``perm``, shape ``(..., n_blocks)``.

        Returns ``(tp_worst, chain, stage_t)``: the TP straggler time,
        the per-lane chain times and the per-stage ring terms, each
        ``None`` when its parallelism axis is 1.
        """
        grid = self.grid
        slots = perm.reshape(perm.shape[:-1] + (grid.pp, grid.dp))
        scaled = slots * self._n_slots
        stage_t = None
        if grid.dp > 1:
            ns = self._n_dp_stages
            stage_t = self._dp_stage_terms(slots[..., :ns, :],
                                           scaled[..., :ns, :], slice(None))
        return (
            self._tp_straggler(perm) if grid.tp > 1 else None,
            self._chain_lanes(slots, scaled) if grid.pp > 1 else None,
            stage_t,
        )

    def _tp_straggler(self, perm: np.ndarray):
        """Slowest TP all-reduce over the stage-0 and last-stage blocks.

        With at most two stages that is the hoisted scalar, which
        broadcasts over any batch rows in :meth:`_combine`.
        """
        if self._tp_worst is not None:
            return self._tp_worst
        return _last_max(
            self._tp_time.take(perm.take(self._tp_blocks, axis=-1)))

    def _chain_lanes(self, slots: np.ndarray,
                     scaled: np.ndarray) -> np.ndarray:
        """Eq. (5) per data-rank lane, worst tensor rank.

        ``slots`` has shape ``(..., pp, lanes)`` and ``scaled`` is
        ``slots * n_slots``; the result drops the stage axis.  A chain
        longer than one hop gathers its hops per tensor rank and sums
        them with ``add.accumulate``, which visits the hops in chain
        order, so each lane's floating-point sum matches the
        reference's sequential accumulation exactly (unlike
        ``np.sum``'s pairwise blocking).
        """
        if self.grid.pp == 2:
            return self._hop.take(scaled[..., 0, :] + slots[..., 1, :])
        hop = self._hop.take(scaled[..., :-1, :] + slots[..., 1:, :],
                             axis=1)                # (tp, ..., pp - 1, lanes)
        return _max(np.add.accumulate(hop, axis=-2)[..., -1, :], axis=0)

    def _dp_stage_terms(self, sub: np.ndarray, sub_scaled: np.ndarray,
                        stages) -> np.ndarray:
        """Eq. (6) ring term of each stage, worst tensor rank.

        ``sub`` holds the data-parallel slots of the selected stages,
        shape ``(..., m, dp)``, ``sub_scaled`` is ``sub * n_slots``,
        and ``stages`` indexes their per-stage message sizes (a slice,
        or an array of the ``m`` stage ids); the result has shape
        ``(..., m)``.  A stage's term reads only that stage's ``dp``
        slots, so any subset of stages yields the identical floats.
        """
        if self._one_slot_per_node:
            # ``idx[..., j, i]`` indexes the link from data rank i's
            # slot to data rank j's.
            idx = sub[..., :, None] + sub_scaled[..., None, :]
            den = _min(self._ring_den.take(idx), axis=(-2, -1))
            return self._inter_num[stages] / den
        m, dp = sub.shape[-2:]
        ids = list(range(m)) if isinstance(stages, slice) \
            else stages.tolist()
        rows = sub.reshape(-1, dp).tolist()
        values = map(self._ring_stage, rows, ids * (len(rows) // m))
        return np.array(list(values)).reshape(sub.shape[:-1])

    def _ring_stage(self, row: list, stage: int) -> float:
        """The multi-slot-per-node ring of one stage, worst tensor rank.

        ``row`` lists the stage's slots in data-rank order.  One pass
        collects each node's member mask and its first member, the
        node's leader.  The intra-node phase of each tensor rank is the
        largest compiled entry of the nodes' masks (a lone member's is
        0.0, so only nodes with two or more members are read); the
        inter-node phase divides by the leaders' denominators
        ``(kn * bw) * GB``, ``bw`` the slowest leader link of each
        rank, which are memoized per leader set (they do not depend on
        the stage).
        """
        base, bit = self._slot_base, self._slot_bit
        masks: "dict[int, int]" = {}
        leaders = []
        shared = []                     # nodes with two or more members
        for s in row:
            b = base[s]
            mask = masks.get(b)
            if mask is None:
                masks[b] = bit[s]
                leaders.append(s)
            else:
                if not mask & (mask - 1):
                    shared.append(b)
                masks[b] = mask | bit[s]
        table = self._intra[stage]
        intra = None
        if len(shared) == 1:
            b = shared[0]
            intra = table[b + masks[b]]
        elif shared:
            intra = map(max, *[table[b + masks[b]] for b in shared])
        # A lone leader (one node) pairs only with itself: its +inf
        # diagonal link gives ``0.0 / inf == 0.0``, the reference's
        # absent inter-node phase.
        key = tuple(sorted(leaders))
        den = self._leader_den.get(key)
        if den is None:
            den = self._leader_miss(key)
        num = (len(leaders) - 1.0) * self._msg_dp2[stage]
        if intra is None:
            # No intra-node phase: ``0.0 + inter`` is ``inter``.
            return max([num / d for d in den])
        return max([a + num / d for a, d in zip(intra, den)])

    def _leader_miss(self, key: tuple) -> list:
        """Inter-node ring denominators of the leader set ``key``.

        The leader-set memo holds at most :data:`LEADER_MEMO_MAX`
        entries; a miss on a full memo starts it afresh.
        """
        a = np.array(key)
        bw = _min(self._pair_cube.take(a, axis=0).take(a, axis=1),
                  axis=(0, 1))
        kn = len(key)
        den = [(kn * b) * GB for b in bw.tolist()]
        memo = self._leader_den
        if len(memo) >= LEADER_MEMO_MAX:
            memo.clear()
        memo[key] = den
        return den

    def _combine(self, tp_worst, chain, stage_t):
        """The epilogue: partial terms to latency, elementwise over rows.

        ``C + T_TP_com`` is set by the straggler TP group, Eq. (5) by
        the slowest chain, and Eq. (6) by stage 0's ring or — when
        ``dp_exposure_aware`` — a later stage's ring net of its drain
        slack of ``stage`` backward passes.
        """
        c_tp = self._c
        if tp_worst is not None:
            c_tp = self._c + self._tp_factor * tp_worst
        t_pp = 0.0 if chain is None else _last_max(chain)
        t_dp = 0.0
        if stage_t is not None:
            backward_slack = 2.0 * c_tp / 3.0
            if np.ndim(backward_slack):         # one slack per batch row
                backward_slack = backward_slack[:, None]
            # Stage 0 subtracts ``0.0 * slack == 0.0`` (the slack of
            # positive bandwidths is finite): its ring, unchanged.
            adj = stage_t - self._drain_steps * backward_slack
            t_dp = _last_max(adj) / self._eff
        pp = self.grid.pp
        if self.options.hidden_critical_path:
            # Schedule-aware Eq. (3)-(4): the schedule's analytic
            # critical time plus T_DP.  For 1F1B the resolved function
            # computes ``T_bubble * (n_mb / pp) + T_straggler``
            # verbatim, keeping the kernel bit-identical to the
            # pre-schedule implementation.
            return self._critical_time(pp, self._n_mb, c_tp, t_pp) + t_dp
        # Eq. (1): the inter-stage communication is paid only once.
        return (self._n_mb - 1) * c_tp + pp * c_tp + t_pp + t_dp

    # --------------------------------------------------- incremental path

    def incremental(self) -> "IncrementalEvaluator":
        """A fresh incremental evaluator over this kernel's partial terms.

        The annealer's sequential hot loop binds its current
        permutation once and then re-scores each proposed move by
        recomputing only the touched components; see
        :class:`IncrementalEvaluator` for the exactness argument.
        """
        return IncrementalEvaluator(self)

    def delta_for_move(self, perm: np.ndarray, move) -> float:
        """Exact latency delta of applying ``move`` to ``perm``.

        ``move`` is a ``(kind, i, j)`` tuple with the semantics of
        :func:`repro.core.annealing.apply_move` (``"swap"``,
        ``"migrate"``, or ``"reverse"``).  The result equals
        ``evaluate_perm(apply_move(perm, move)) - evaluate_perm(perm)``
        computed on bit-identical evaluations, but only the components
        the move touches are recomputed.  Consecutive calls with the
        same ``perm`` reuse the bound partial terms; the annealer's hot
        loop uses the stateful :meth:`incremental` form directly.
        """
        from repro.core.annealing import apply_move

        perm = np.asarray(perm, dtype=np.int64)
        inc = getattr(self, "_delta_inc", None)
        if inc is None:
            inc = self._delta_inc = self.incremental()
        if inc.perm is None or not np.array_equal(inc.perm, perm):
            inc.bind(perm)
        return inc.propose(apply_move(perm, move)) - inc.value


class IncrementalEvaluator:
    """Exact delta evaluation over single-move perturbations.

    The evaluator caches the permutation-dependent *partial terms* of
    one bound permutation, as :meth:`LatencyKernel._terms` returns
    them:

    * the TP straggler time (``None`` when ``tp == 1``);
    * the pipeline-chain time per data-rank lane, shape ``(dp,)``
      (``None`` when ``pp == 1``);
    * the data-parallel ring term per exposure-aware stage, shape
      ``(ns,)`` (``None`` when ``dp == 1``).

    :meth:`propose` recomputes only the components a candidate
    permutation touches: the straggler when a first- or last-stage
    block moved, the touched stages' rings, and the chain lanes (all
    of them in one gather, which costs less than picking the touched
    ones).  Exactness rests on component independence: each partial
    term depends on a disjoint slice of the permutation and is
    recomputed *whole* by the kernel's own term function (a chain lane
    re-runs its full sequential ``add.accumulate``; a touched stage
    re-runs its full ring), and the kernel's
    epilogue combines the cached floats exactly as the full evaluation
    would.  The per-component results are therefore bit-identical to
    the full re-score's, and so is their combination — which is what
    lets :func:`repro.core.annealing.anneal_mapping` run this path
    without perturbing its trajectory.

    Usage is a bind/propose/accept cycle::

        inc = kernel.incremental()
        value = inc.bind(perm)              # full evaluation, cached
        cand = inc.propose(new_perm)        # delta evaluation
        inc.accept()                        # new_perm becomes current

    ``propose`` never mutates the bound state, so rejected moves cost
    nothing beyond their own recomputation; ``accept`` adopts the last
    proposal in O(n).
    """

    def __init__(self, kernel: LatencyKernel) -> None:
        self._k = kernel
        self.perm: "np.ndarray | None" = None
        self.value: float = 0.0
        self._parts = None
        self._cand = None
        self._cand_perm = None

    # ------------------------------------------------------------ binding

    def bind(self, perm: np.ndarray) -> float:
        """Fully evaluate ``perm`` and cache its partial terms."""
        perm = np.array(perm, dtype=np.int64)
        self.perm = perm
        self._cand = None
        self._parts = self._k._terms(perm)
        self.value = float(self._k._combine(*self._parts))
        return self.value

    def propose(self, perm: np.ndarray,
                touched: "np.ndarray | None" = None) -> float:
        """Value of ``perm``, recomputing only the touched components.

        ``touched`` lists the positions where ``perm`` differs from the
        bound permutation; when omitted it is derived by comparison.
        The proposal is staged — :meth:`accept` adopts it — and the
        bound state is untouched either way.
        """
        k = self._k
        pp, dp = k.grid.pp, k.grid.dp
        if touched is None:
            touched = np.flatnonzero(perm != self.perm)
        if touched.size == 0:
            self._cand = (self._parts, self.value)
            self._cand_perm = perm
            return self.value

        tp_worst, chain, stage_t = self._parts
        if tp_worst is not None and k._tp_touch[touched].any():
            tp_worst = k._tp_straggler(perm)

        slots = perm.reshape(pp, dp)
        scaled = slots * k._n_slots
        if chain is not None:
            # Every lane: one gather over all of them costs less than
            # selecting the touched ones first.
            chain = k._chain_lanes(slots, scaled)

        if stage_t is not None:
            # The touched stages, sorted: a count table is cheaper than
            # ``np.unique`` on a few hundred positions.
            stages = np.flatnonzero(
                np.bincount(touched // dp)[:k._n_dp_stages])
            if stages.size:
                stage_t = stage_t.copy()
                stage_t[stages] = k._dp_stage_terms(
                    slots[stages], scaled[stages], stages)

        terms = (tp_worst, chain, stage_t)
        value = float(k._combine(*terms))
        self._cand = (terms, value)
        self._cand_perm = perm
        return value

    def accept(self) -> None:
        """Adopt the last :meth:`propose` as the bound state."""
        if self._cand is None:
            raise RuntimeError("no staged proposal to accept")
        self.perm[:] = self._cand_perm
        self._parts, self.value = self._cand
        self._cand = None
        self._cand_perm = None


def pipette_kernel(model: TransformerConfig, config: ParallelConfig,
                   cluster: ClusterSpec, bandwidth: BandwidthMatrix,
                   profile: ComputeProfile) -> LatencyKernel:
    """A kernel matching :func:`repro.core.latency_model.pipette_latency`.

    Same ablation defaults (hidden critical path, per-link bandwidth,
    profiled collective efficiency, exposure-aware DP term), so
    ``pipette_kernel(...)(mapping)`` is bit-identical to
    ``pipette_latency(model, config, mapping, bandwidth, profile)``.
    """
    from repro.sim.engine import DEFAULT_DP_EFFICIENCY

    return LatencyKernel(
        model, config, cluster, bandwidth, profile,
        LatencyModelOptions(hidden_critical_path=True,
                            per_link_bandwidth=True,
                            collective_efficiency=DEFAULT_DP_EFFICIENCY,
                            dp_exposure_aware=True))
