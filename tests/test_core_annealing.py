"""Simulated-annealing worker dedication."""

import numpy as np
import pytest

from repro.core.annealing import (
    MoveStream,
    SAOptions,
    _propose,
    _propose_into,
    anneal_mapping,
    anneal_mapping_reference,
    anneal_mapping_with_restarts,
)
from repro.parallel import WorkerGrid, sequential_mapping
from repro.utils.rng import resolve_rng


@pytest.fixture
def mapping(tiny_cluster):
    return sequential_mapping(WorkerGrid(pp=4, tp=4, dp=1), tiny_cluster)


class TestOptionsValidation:
    def test_needs_a_budget(self):
        with pytest.raises(ValueError):
            SAOptions(time_limit_s=None, max_iterations=None)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SAOptions(alpha=1.0)
        with pytest.raises(ValueError):
            SAOptions(alpha=0.0)

    def test_rejects_unknown_move(self):
        with pytest.raises(ValueError):
            SAOptions(moves=("teleport",))

    def test_rejects_empty_moves(self):
        with pytest.raises(ValueError):
            SAOptions(moves=())

    def test_paper_defaults(self):
        opts = SAOptions()
        assert opts.alpha == 0.999
        assert set(opts.moves) == {"migrate", "swap", "reverse"}


class TestMoves:
    @pytest.mark.parametrize("move", ["migrate", "swap", "reverse"])
    def test_moves_preserve_permutation(self, move):
        rng = resolve_rng(0)
        perm = np.arange(8)
        for _ in range(50):
            perm = _propose(perm, move, rng)
            assert sorted(perm.tolist()) == list(range(8))

    @pytest.mark.parametrize("move", ["migrate", "swap", "reverse"])
    def test_moves_change_something_eventually(self, move):
        rng = resolve_rng(1)
        perm = np.arange(8)
        changed = any(
            not np.array_equal(_propose(perm, move, rng), perm)
            for _ in range(20)
        )
        assert changed

    def test_single_element_is_noop(self):
        rng = resolve_rng(0)
        perm = np.array([0])
        assert np.array_equal(_propose(perm, "swap", rng), perm)

    @pytest.mark.parametrize("move", ["migrate", "swap", "reverse"])
    def test_scratch_form_matches_allocating_form(self, move):
        """``_propose_into`` on a ``MoveStream`` draws the same stream
        and lands the same permutations as the ``Generator``-driven
        ``_propose``."""
        rng = resolve_rng(17)
        stream = MoveStream(resolve_rng(17).bit_generator)
        perm = resolve_rng(4).permutation(9)
        scratch = np.empty_like(perm)
        for _ in range(200):
            expected = _propose(perm, move, rng)
            _propose_into(scratch, perm, move, stream)
            assert np.array_equal(scratch, expected)
            perm = expected
        assert stream.random() == rng.random()

    def test_scratch_migrate_never_allocates_views_of_source(self):
        """The scratch buffer is fully rewritten; the source is untouched."""
        rng = resolve_rng(0)
        stream = MoveStream(resolve_rng(0).bit_generator)
        perm = np.arange(12)
        before = perm.copy()
        scratch = np.full(12, -1)
        for _ in range(100):
            _propose_into(scratch, perm, "migrate", stream)
            assert np.array_equal(scratch, _propose(perm, "migrate", rng))
            assert sorted(scratch.tolist()) == list(range(12))
            assert np.array_equal(perm, before)

    def test_propose_into_rejects_unknown_move(self):
        with pytest.raises(ValueError, match="unknown move"):
            _propose_into(np.empty(4, dtype=np.int64), np.arange(4),
                          "teleport", MoveStream(resolve_rng(0).bit_generator))


class TestAnnealing:
    def test_finds_planted_optimum(self, mapping):
        # Objective: put block b on slot (n-1-b); global optimum is the
        # reversed permutation, reachable by the move set.
        n = mapping.grid.n_blocks
        target = np.arange(n)[::-1]

        def objective(m):
            return float(np.sum(m.block_to_slot != target))

        result = anneal_mapping(mapping, objective,
                                SAOptions(max_iterations=3000, seed=0))
        assert result.value == 0.0
        assert np.array_equal(result.mapping.block_to_slot, target)

    def test_never_worse_than_start(self, mapping):
        rng = resolve_rng(3)
        weights = rng.normal(size=mapping.grid.n_blocks)

        def objective(m):
            return float(weights @ m.block_to_slot)

        result = anneal_mapping(mapping, objective,
                                SAOptions(max_iterations=500, seed=1))
        assert result.value <= result.initial_value

    def test_improvement_property(self, mapping):
        def objective(m):
            return float(np.sum(m.block_to_slot * np.arange(4)))

        result = anneal_mapping(mapping, objective,
                                SAOptions(max_iterations=1000, seed=2))
        assert 0.0 <= result.improvement <= 1.0

    def test_iteration_budget_respected(self, mapping):
        result = anneal_mapping(mapping, lambda m: 1.0,
                                SAOptions(max_iterations=137, seed=0))
        assert result.iterations == 137

    def test_time_budget_respected(self, mapping):
        result = anneal_mapping(
            mapping, lambda m: 1.0,
            SAOptions(time_limit_s=0.05, max_iterations=None, seed=0))
        assert result.elapsed_s < 1.0

    def test_deterministic_given_seed(self, mapping):
        def objective(m):
            return float(np.sum(m.block_to_slot * np.arange(4)))

        a = anneal_mapping(mapping, objective,
                           SAOptions(max_iterations=400, seed=9))
        b = anneal_mapping(mapping, objective,
                           SAOptions(max_iterations=400, seed=9))
        assert a.value == b.value
        assert a.mapping == b.mapping

    def test_history_is_non_increasing(self, mapping):
        rng = resolve_rng(5)
        weights = rng.normal(size=(4, 4))

        def objective(m):
            return float(sum(weights[b, s]
                             for b, s in enumerate(m.block_to_slot)))

        result = anneal_mapping(mapping, objective,
                                SAOptions(max_iterations=2000, seed=4))
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_constant_objective_safe(self, mapping):
        result = anneal_mapping(mapping, lambda m: 5.0,
                                SAOptions(max_iterations=100, seed=0))
        assert result.value == 5.0

    def test_initial_mapping_unchanged(self, mapping):
        before = mapping.block_to_slot.copy()
        anneal_mapping(mapping, lambda m: float(m.block_to_slot[0]),
                       SAOptions(max_iterations=200, seed=0))
        assert np.array_equal(mapping.block_to_slot, before)

    def test_reverse_only_move_set(self, mapping):
        result = anneal_mapping(
            mapping, lambda m: float(m.block_to_slot[0]),
            SAOptions(max_iterations=300, moves=("reverse",), seed=0))
        assert result.iterations == 300

    def test_matches_reference_implementation(self, mapping):
        """Same seed → the fast loop replays the executable spec."""
        rng = resolve_rng(8)
        weights = rng.normal(size=(4, 4))

        def objective(m):
            return float(sum(weights[b, s]
                             for b, s in enumerate(m.block_to_slot)))

        options = SAOptions(max_iterations=500, seed=6)
        ref = anneal_mapping_reference(mapping, objective, options)
        fast = anneal_mapping(mapping, objective, options)
        assert fast.value == ref.value
        assert fast.mapping == ref.mapping
        assert fast.iterations == ref.iterations
        assert fast.accepted == ref.accepted
        assert fast.history == ref.history


class TestRestarts:
    def test_initial_objective_evaluated_exactly_once(self, mapping):
        """Regression: the restart wrapper used to re-evaluate
        ``objective(initial)`` for every winning restart."""
        calls = {"n": 0}
        iterations, restarts = 50, 4

        def objective(m):
            calls["n"] += 1
            return float(np.sum(m.block_to_slot * np.arange(4)))

        result = anneal_mapping_with_restarts(
            mapping, objective,
            SAOptions(max_iterations=iterations, seed=0,
                      initial_temperature=1.0),
            n_restarts=restarts)
        # Per run: 1 starting evaluation + 1 per iteration; nothing else
        # (the explicit temperature skips probing, and initial_value is
        # reused from run 0, not re-evaluated per winner).
        assert calls["n"] == restarts * (iterations + 1)
        assert result.initial_value == float(
            np.sum(mapping.block_to_slot * np.arange(4)))

    def test_probe_budget_counted(self, mapping):
        """With a derived temperature, each run adds its 16 probes."""
        calls = {"n": 0}
        iterations, restarts = 30, 2

        def objective(m):
            calls["n"] += 1
            return float(np.sum(m.block_to_slot * np.arange(4)))

        anneal_mapping_with_restarts(
            mapping, objective,
            SAOptions(max_iterations=iterations, seed=0),
            n_restarts=restarts)
        assert calls["n"] == restarts * (iterations + 1 + 16)

    def test_never_loses_to_single_run(self, mapping):
        def objective(m):
            return float(np.sum(m.block_to_slot * np.arange(4)))

        options = SAOptions(max_iterations=200, seed=2)
        single = anneal_mapping(mapping, objective, options)
        multi = anneal_mapping_with_restarts(mapping, objective, options,
                                             n_restarts=3)
        assert multi.value <= single.value
