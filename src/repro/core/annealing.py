"""Fine-grained worker dedication via simulated annealing (§IV).

The mapping problem — place ``pp x tp x dp`` logical workers on the
GPUs so the estimated iteration latency is minimal — is analogous to
classic NoC core mapping ([17], [18]), so the paper uses simulated
annealing with three string moves:

* **migrate**: remove one element and reinsert it elsewhere,
* **swap**: exchange two elements,
* **reverse**: reverse a substring — motivated by the observation
  that bidirectional bandwidths of a node pair are almost symmetric,
  so a reversed pipeline segment costs about the same per hop while
  changing which links carry the boundary traffic.

The annealer works on the *block* permutation (TP groups over GPU
slots; see :mod:`repro.parallel.mapping`), uses the temperature decay
``alpha = 0.999`` of the paper, and stops on an iteration budget or a
wall-clock limit (the paper uses 10 s per candidate configuration).

The loop itself operates on raw permutation arrays: moves are proposed
into a reusable scratch buffer (no ``np.delete``/``np.insert``
allocation pair per proposal) and a :class:`Mapping` is materialized
only for the returned best.  When the objective is a
:class:`~repro.core.latency_kernel.LatencyKernel` (anything exposing
``evaluate_perm``), no ``Mapping`` is ever built inside the loop; a
plain ``Callable[[Mapping], float]`` objective still works and sees
one mapping per evaluation, exactly as before.  Either way the RNG
stream and the floating-point trajectory are identical to
:func:`anneal_mapping_reference`, the pre-kernel implementation kept
as an executable specification.

Two refinements ride on top of that contract:

* **Delta evaluation.** An objective exposing ``incremental()`` (the
  kernel's :meth:`~repro.core.latency_kernel.LatencyKernel.incremental`)
  lets the sequential loop re-score each move by recomputing only the
  permutation components it touched.  The incremental values are
  bit-identical to full re-scores by construction, so the trajectory —
  and therefore every cached plan — is unchanged; only the cost per
  proposal changes.  Because range moves (migrate/reverse) touch wide
  permutation spans, the delta path only outruns the fully vectorized
  re-score on large permutations, so the loop engages it at or above
  ``SAOptions.delta_min_slots`` (a pure performance switch — see the
  knob's docstring for the measured crossover).
* **Batched proposals** (``SAOptions.batch_size > 1``). With one
  shared RNG stream, speculating past the first evaluated move is
  never sound — an accept changes the state later proposals were drawn
  from, and a reject consumes an acceptance draw — so a bit-identical
  batched loop is impossible.  Batch mode is therefore an *opt-in
  deterministic variant* with its own documented schedule: K moves are
  proposed from the current state, scored in one
  ``evaluate_batch`` call, and scanned in proposal order; the first
  Metropolis accept wins and the rest of the batch (drawn from the
  now-stale state) is discarded.  Same seed, same result, every run —
  just a different (coarser) proposal schedule than ``batch_size=1``.

Either loop can additionally collect a **portfolio** — the
``portfolio_k`` best *distinct* states visited — as pure bookkeeping on
accepted moves: no extra objective calls, no RNG draws.  Elastic
re-planning warm-starts from these survivors
(:mod:`repro.service.replan`).

Three devices make each iteration cheaper without changing any result
(every :class:`SAResult` field, every plan):

* **An exact move stream.** The fast loops draw through
  :class:`MoveStream`, which reproduces ``Generator.integers(n)``,
  ``Generator.choice(n, 2, replace=False)`` and ``Generator.random()``
  draw for draw from raw PCG64 words at a fraction of their call
  overhead — the draws themselves are NumPy's documented algorithms
  (Lemire's bounded integers, Floyd's sampling with its shuffle, the
  53-bit double).  :func:`_propose` and
  :func:`anneal_mapping_reference` keep calling ``Generator`` and are
  the oracle the stream is tested against.
* **A small-grid memo.** On grids of at most :data:`MEMO_MAX_BLOCKS`
  blocks the sequential loop keeps each kernel value by
  ``perm.tobytes()`` for the length of one anneal.  A kernel is a pure
  function of the permutation, so a hit returns the very float a
  re-score would; only the number of kernel calls falls.  There are at
  most ``8! = 40320`` such permutations, so the memo is bounded by
  construction; larger grids rarely repeat a state and skip it, and
  plain callables (which may count calls or vary) are never memoized.
* **A bounded portfolio pool.** The pool keeps only the
  ``portfolio_k`` smallest distinct ``(value, bytes)`` states, which
  always contain everything :func:`_build_portfolio` selects (see
  :class:`_VisitPool`), so a wall-clock-budgeted anneal no longer
  grows one entry per distinct accepted state.

The kernel adds its own permutation-invariant shortcuts
(:mod:`repro.core.latency_kernel`); the loop is unchanged by them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.parallel.mapping import Mapping
from repro.utils.rng import resolve_rng

#: The paper's move set.
DEFAULT_MOVES: tuple[str, ...] = ("migrate", "swap", "reverse")

#: The wall-clock budget is polled once per this many iterations; with
#: the vectorized kernel an objective call is microseconds, so paying a
#: ``perf_counter`` syscall per move would be measurable overhead.
TIME_CHECK_INTERVAL: int = 32

#: Grids of at most this many blocks memoize objective values per
#: anneal (at most ``8! = 40320`` states, so the memo stays small).
MEMO_MAX_BLOCKS: int = 8


@dataclass(frozen=True)
class SAOptions:
    """Simulated-annealing hyper-parameters.

    Attributes:
        time_limit_s: wall-clock budget; ``None`` disables it.  The
            paper uses 10 seconds.  The clock is polled every
            :data:`TIME_CHECK_INTERVAL` iterations, so runs overshoot
            the limit by at most that many moves.
        max_iterations: iteration budget; ``None`` disables it.  At
            least one of the two budgets must be set.
        alpha: multiplicative temperature decay per iteration (0.999
            in the paper).
        initial_temperature: starting temperature; ``None`` derives it
            from the spread of a few probe moves so acceptance starts
            permissive regardless of the objective's scale.
        moves: subset of ``{"migrate", "swap", "reverse"}`` (ablations
            disable individual moves).
        seed: RNG seed for the move stream, a non-negative ``int``.
        batch_size: proposals scored per objective call.  ``1`` (the
            default) is the paper's sequential loop, bit-identical to
            :func:`anneal_mapping_reference`; ``> 1`` selects the
            deterministic batched-proposal variant (see the module
            docstring for why the two schedules necessarily differ).
        portfolio_k: distinct best-visited states carried on
            :attr:`SAResult.portfolio` (``1`` keeps only the best; the
            collection itself never perturbs the search).
        delta_min_slots: permutation length at or above which the
            sequential loop scores proposals through the objective's
            incremental (delta) path instead of full re-scores.  Both
            paths produce bit-identical values, so this is purely a
            performance switch: range moves touch ~n/3 of the
            permutation on average, and below the crossover the
            vectorized full re-score outruns per-move delta
            bookkeeping (NumPy dispatch dominates either way).
            Measured on the Table 1 worlds the delta path breaks even
            around 128-256 slots and wins >2x by 512.  ``0`` forces
            the delta path; a huge value disables it.
    """

    time_limit_s: float | None = None
    max_iterations: int | None = 4000
    alpha: float = 0.999
    initial_temperature: float | None = None
    moves: tuple[str, ...] = DEFAULT_MOVES
    seed: int = 0
    batch_size: int = 1
    portfolio_k: int = 1
    delta_min_slots: int = 128

    def __post_init__(self) -> None:
        if self.time_limit_s is None and self.max_iterations is None:
            raise ValueError("set time_limit_s and/or max_iterations")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        unknown = set(self.moves) - set(DEFAULT_MOVES)
        if unknown:
            raise ValueError(f"unknown moves: {sorted(unknown)}")
        if not self.moves:
            raise ValueError("at least one move kind is required")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.portfolio_k < 1:
            raise ValueError(
                f"portfolio_k must be >= 1, got {self.portfolio_k}")
        if self.delta_min_slots < 0:
            raise ValueError(
                f"delta_min_slots must be >= 0, got {self.delta_min_slots}")
        if isinstance(self.seed, bool) \
                or not isinstance(self.seed, (int, np.integer)):
            raise TypeError(
                f"seed must be a non-negative int, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative int, got {self.seed}")

    def with_seed(self, seed: int) -> "SAOptions":
        """These options with a different move-stream seed.

        Callers that anneal many candidates (the configurator's
        refinement pass, the restart wrapper below) thread one explicit
        seed per candidate through this helper, so the outcome is a
        pure function of (options, seed) no matter which worker — or
        which process of a pool — runs the candidate.
        """
        return replace(self, seed=int(seed))


@dataclass
class SAResult:
    """Outcome of one annealing run.

    Attributes:
        mapping: best mapping found.
        value: objective value of :attr:`mapping`.
        initial_value: objective of the starting mapping (for gain
            reporting: the paper's Fig. 4 "execution time reduction").
        iterations: moves proposed.
        accepted: moves accepted.
        elapsed_s: wall-clock time spent.
        history: best-so-far objective at each improvement.
        evaluations: objective calls made — the starting evaluation,
            the temperature probes (when the temperature was derived),
            and one per iteration.  In batch mode an early accept
            discards the rest of its evaluated batch, so evaluations
            can exceed iterations.
        exit_reason: which budget ended the run — ``"iteration_budget"``
            or ``"time_limit"`` — or ``"degenerate"`` when the grid
            has fewer than two blocks and the loop exited after its
            single possible evaluation.
        portfolio: the ``portfolio_k`` best *distinct* states visited,
            as ``(mapping, value)`` pairs, best first.  Entry 0 is
            always the returned best; collection is pure bookkeeping on
            accepted states (no extra objective calls or RNG draws).
            The reference implementation predates portfolios and
            leaves this empty.
    """

    mapping: Mapping
    value: float
    initial_value: float
    iterations: int
    accepted: int
    elapsed_s: float
    history: list[float] = field(default_factory=list)
    evaluations: int = 0
    exit_reason: str = "iteration_budget"
    portfolio: "list[tuple[Mapping, float]]" = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Relative latency reduction achieved by the dedication."""
        if self.initial_value == 0:
            return 0.0
        return 1.0 - self.value / self.initial_value


class MoveStream:
    """The anneal's draws, reproduced exactly from raw PCG64 words.

    The fast loops draw through this stream rather than through
    :class:`numpy.random.Generator` methods, which cost microseconds
    each in argument handling.  Each method reproduces the named
    ``Generator`` call draw for draw on the same bit generator:

    * :meth:`integers` is ``Generator.integers(n)``: one 32-bit draw
      scaled into ``[0, n)`` by Lemire's multiply-shift, redrawn while
      the low word falls below ``2**32 % n`` (no draw at all for
      ``n == 1``);
    * :meth:`pair` is ``Generator.choice(n, 2, replace=False)``:
      Floyd's algorithm (bounded draws over ``n - 1`` and ``n`` values;
      a repeat of the first becomes ``n - 1``), then one bounded draw
      over ``2`` for the shuffle that swaps the two when it is ``0``;
    * :meth:`random` is ``Generator.random()``: ``(word >> 11) * 2**-53``.

    A 32-bit draw takes the low half of a fresh 64-bit word and keeps
    the high half for the next 32-bit draw, as PCG64's ``next_uint32``
    does; a 64-bit draw never touches that buffered half.  Words are
    pulled in blocks through ``bit_generator.random_raw``, so the bit
    generator itself runs ahead of the stream: it must not be drawn
    from directly once a stream wraps it.  NumPy keeps raw bit-generator
    streams stable across versions, which its ``Generator`` method
    algorithms are not, so a trajectory drawn here does not depend on
    how ``Generator`` is implemented.  ``tests/test_annealing_exactness.py``
    pins every method against ``Generator`` over many seeds.
    """

    __slots__ = ("_bitgen", "_words", "_pos", "_half")

    #: Raw 64-bit words fetched per ``random_raw`` call.
    BLOCK = 256

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        state = bit_generator.state
        if state.get("bit_generator") != "PCG64":
            raise TypeError("MoveStream reproduces PCG64 streams only, got "
                            f"{state.get('bit_generator')!r}")
        self._bitgen = bit_generator
        self._words: "list[int]" = []
        self._pos = 0
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _word(self) -> int:
        """The next raw 64-bit word."""
        pos = self._pos
        if pos == len(self._words):
            self._words = self._bitgen.random_raw(self.BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return self._words[pos]

    def _next32(self) -> int:
        """The next 32-bit draw: a buffered high half, else a fresh low."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        # ``_word`` inlined: this is the hottest call of the stream.
        pos = self._pos
        if pos == len(self._words):
            self._words = self._bitgen.random_raw(self.BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        word = self._words[pos]
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def _bounded(self, high: int) -> int:
        """A uniform draw from ``[0, high]`` (``high < 2**32``)."""
        if high == 0:
            return 0
        if high == 0xFFFFFFFF:
            return self._next32()
        span = high + 1
        m = self._next32() * span
        if m & 0xFFFFFFFF < span:
            threshold = (0x100000000 - span) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * span
        return m >> 32

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for ``1 <= n <= 2**32``."""
        if not 1 <= n <= 0x100000000:
            raise ValueError(f"n must lie in [1, 2**32], got {n}")
        return self._bounded(n - 1)

    def pair(self, n: int) -> "tuple[int, int]":
        """``Generator.choice(n, 2, replace=False)``, ``2 <= n <= 2**32``.

        The pair comes back in ``Generator``'s order, not sorted.
        """
        if not 2 <= n <= 0x100000000:
            raise ValueError(f"n must lie in [2, 2**32], got {n}")
        first = self._bounded(n - 2)
        second = self._bounded(n - 1)
        if second == first:
            second = n - 1
        if self._bounded(1) == 0:
            return second, first
        return first, second

    def random(self) -> float:
        """``Generator.random()``: a double in ``[0, 1)``."""
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)


def _propose_into(out: np.ndarray, perm: np.ndarray, move: str,
                  stream: MoveStream) -> None:
    """Apply one move of ``perm`` into the scratch buffer ``out``.

    ``out`` must be a distinct buffer of the same shape; it is fully
    overwritten.  Draws from ``stream`` exactly what :func:`_propose`
    draws from a ``Generator`` on the same bit generator, and lands the
    same permutation.
    """
    n = len(perm)
    out[:] = perm
    if n < 2:
        return
    if move == "swap":
        i, j = stream.pair(n)
        out[i], out[j] = perm[j], perm[i]
    elif move == "migrate":
        # Remove the element at ``i`` and reinsert it at position ``j``
        # of the shortened string — realized as two slice shifts into
        # the scratch buffer instead of an np.delete + np.insert
        # allocation pair.
        i = stream.integers(n)
        j = stream.integers(n - 1)
        if j >= i:
            out[i:j] = perm[i + 1:j + 1]
        else:
            out[j + 1:i + 1] = perm[j:i]
        out[j] = perm[i]
    elif move == "reverse":
        i, j = stream.pair(n + 1)
        if i > j:
            i, j = j, i
        if j - i >= 2:
            out[i:j] = perm[i:j][::-1]
        else:
            i2, j2 = stream.pair(n)
            out[i2], out[j2] = perm[j2], perm[i2]
    else:
        raise ValueError(f"unknown move {move!r}")


def _propose(perm: np.ndarray, move: str, rng: np.random.Generator) -> np.ndarray:
    """Apply one move to a copy of the permutation, drawing from ``rng``.

    The ``Generator``-driven oracle of :func:`_propose_into`, used by
    :func:`anneal_mapping_reference`: the move's indices come from the
    original ``Generator`` calls and :func:`apply_move` applies them.
    An empty reverse window (``j - i < 2``) falls back to a fresh swap.
    """
    n = len(perm)
    if n < 2:
        return np.array(perm, copy=True)
    if move == "swap":
        i, j = rng.choice(n, size=2, replace=False)
        return apply_move(perm, ("swap", i, j))
    if move == "migrate":
        i = int(rng.integers(n))
        return apply_move(perm, ("migrate", i, int(rng.integers(n - 1))))
    if move == "reverse":
        i, j = sorted(rng.choice(n + 1, size=2, replace=False))
        if j - i >= 2:
            return apply_move(perm, ("reverse", i, j))
        i, j = rng.choice(n, size=2, replace=False)
        return apply_move(perm, ("swap", i, j))
    raise ValueError(f"unknown move {move!r}")


def apply_move(perm: np.ndarray, move: "tuple[str, int, int]") -> np.ndarray:
    """Apply a deterministic ``(kind, i, j)`` move spec to a copy of ``perm``.

    The RNG-free twin of :func:`_propose_into`, with the same index
    semantics, for callers that name a move rather than draw one —
    :meth:`repro.core.latency_kernel.LatencyKernel.delta_for_move` and
    the property tests pinning it against full re-scores:

    * ``("swap", i, j)`` — exchange positions ``i`` and ``j``;
    * ``("migrate", i, j)`` — remove the element at ``i``, reinsert it
      at position ``j`` of the shortened string (``0 <= j <= n - 2``);
    * ``("reverse", i, j)`` — reverse the substring ``[i, j)``, which
      needs ``j - i >= 2`` (the RNG form's degenerate-window fallback
      draws fresh indices and has no deterministic counterpart).
    """
    kind, i, j = move
    perm = np.asarray(perm)
    n = len(perm)
    i, j = int(i), int(j)
    out = perm.copy()
    if kind == "swap":
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"swap indices ({i}, {j}) outside [0, {n})")
        out[i], out[j] = perm[j], perm[i]
    elif kind == "migrate":
        if not (0 <= i < n and 0 <= j < n - 1):
            raise ValueError(
                f"migrate needs 0 <= i < {n} and 0 <= j < {n - 1}, "
                f"got ({i}, {j})")
        if j >= i:
            out[i:j] = perm[i + 1:j + 1]
        else:
            out[j + 1:i + 1] = perm[j:i]
        out[j] = perm[i]
    elif kind == "reverse":
        if not (0 <= i and i + 2 <= j <= n):
            raise ValueError(
                f"reverse needs 0 <= i <= j - 2 <= {n - 2}, got ({i}, {j})")
        out[i:j] = perm[i:j][::-1]
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    return out


#: Probe moves drawn when deriving a starting temperature.
TEMPERATURE_PROBES: int = 16


def _temperature_from_spread(deltas: "list[float]", base: float) -> float:
    """The probe-spread → starting-temperature formula.

    Shared by the fast loop and the reference implementation so the
    derivation can never drift between them (the seed-identity
    contract needs both to land the same float).
    """
    spread = float(np.mean(deltas)) if deltas else 0.0
    if spread <= 0.0:
        spread = max(abs(base), 1.0) * 1e-3
    return 2.0 * spread


def _probe_temperature(initial: Mapping, objective, base: float,
                       moves: tuple[str, ...],
                       rng: np.random.Generator) -> float:
    """Derive a starting temperature from the local objective landscape."""
    deltas = []
    for _ in range(TEMPERATURE_PROBES):
        move = moves[int(rng.integers(len(moves)))]
        cand = initial.with_block_permutation(
            _propose(initial.block_to_slot, move, rng))
        deltas.append(abs(objective(cand) - base))
    return _temperature_from_spread(deltas, base)


class _VisitPool:
    """The ``k`` smallest distinct ``(value, bytes)`` accepted states.

    Each state keeps the smallest value it was accepted with.
    :func:`_build_portfolio` returns the best state and the ``k - 1``
    smallest others by ``(value, bytes)``; all of them lie among the
    ``k`` smallest states overall, so a state that falls out of those
    ``k`` can never be selected, and dropping it keeps the pool's
    memory bounded under a wall-clock budget without changing the
    portfolio.  (A dropped state that comes back with a smaller value
    re-enters as a new state, exactly as an unbounded pool would
    lower its entry.)
    """

    __slots__ = ("k", "states", "_worst")

    def __init__(self, k: int, perm: np.ndarray, value: float) -> None:
        self.k = k
        self.states: "dict[bytes, float]" = {perm.tobytes(): value}
        self._worst: "tuple[float, bytes] | None" = None
        self._refresh()

    def note(self, perm: np.ndarray, value: float) -> None:
        """Record an accepted state."""
        key = perm.tobytes()
        states = self.states
        prev = states.get(key)
        if prev is not None:
            if value < prev:
                states[key] = value
                self._refresh()
            return
        if len(states) == self.k:
            if (value, key) >= self._worst:
                return
            del states[self._worst[1]]
        states[key] = value
        self._refresh()

    def _refresh(self) -> None:
        if len(self.states) == self.k:
            self._worst = max(
                (value, key) for key, value in self.states.items())


def _new_pool(options: SAOptions, perm: np.ndarray,
              value: float) -> "_VisitPool | None":
    """The portfolio pool of a loop, or ``None`` when only the best is kept."""
    return _VisitPool(options.portfolio_k, perm, value) \
        if options.portfolio_k > 1 else None


def _build_portfolio(initial: Mapping, best_mapping: Mapping,
                     best_value: float, pool: "_VisitPool | None",
                     portfolio_k: int) -> "list[tuple[Mapping, float]]":
    """Assemble ``SAResult.portfolio``: the best first, then runner-ups.

    Runner-ups are ordered by ``(value, permutation bytes)`` so ties
    resolve deterministically regardless of visit order, and the best
    state is excluded from the pool scan so it never appears twice.
    """
    portfolio = [(best_mapping, best_value)]
    if pool is not None and portfolio_k > 1:
        best_key = np.asarray(
            best_mapping.block_to_slot, dtype=np.int64).tobytes()
        runners = sorted(
            (value, key) for key, value in pool.states.items()
            if key != best_key)
        for value, key in runners[:portfolio_k - 1]:
            perm = np.frombuffer(key, dtype=np.int64).copy()
            portfolio.append(
                (Mapping(initial.grid, initial.cluster, perm), value))
    return portfolio


def _degenerate_result(initial: Mapping, value: float, start: float,
                       recorder, portfolio_k: int) -> SAResult:
    """The immediate result when the permutation space has one state.

    A grid with fewer than two blocks admits exactly one block
    permutation, so there is nothing to anneal: every proposal would
    re-score the starting state.  All three loops exit through here
    *before* the temperature probe, so a wall-clock-budgeted polish
    (the one-node-survivor replan, where pp == tp == dp == 1) answers
    after its single evaluation instead of spinning the whole budget
    on no-op moves.
    """
    if recorder is not None:
        recorder.start(value, evaluations=1)
        recorder.finish("degenerate", value)
    return SAResult(
        mapping=initial.copy(), value=value, initial_value=value,
        iterations=0, accepted=0,
        elapsed_s=time.perf_counter() - start,
        history=[value], evaluations=1, exit_reason="degenerate",
        portfolio=[(initial.copy(), value)] if portfolio_k >= 1 else [],
    )


def anneal_mapping(initial: Mapping,
                   objective: Callable[[Mapping], float],
                   options: SAOptions | None = None,
                   recorder=None) -> SAResult:
    """Minimize ``objective`` over block permutations starting at ``initial``.

    This is the ``SA_NextMap`` loop of Algorithm 1 (lines 9-15): each
    iteration proposes one move, evaluates the latency estimator, and
    accepts by the Metropolis criterion under a geometrically cooling
    temperature.

    ``objective`` is either a plain callable on mappings or — the fast
    path — an object exposing ``evaluate_perm(perm) -> float`` such as
    :class:`repro.core.latency_kernel.LatencyKernel`, in which case the
    loop never constructs a ``Mapping``.  A kernel additionally
    exposing ``incremental()`` is scored through its
    :class:`~repro.core.latency_kernel.IncrementalEvaluator` once the
    permutation reaches ``options.delta_min_slots``, recomputing only
    the components a move touched; the incremental values are
    bit-identical to full re-scores by construction, so the gate is
    purely about throughput.  All paths draw the identical RNG stream,
    so for a
    given seed an iteration-budgeted run's accept/reject trajectory,
    best mapping, and value match :func:`anneal_mapping_reference`
    exactly (bit-identical when the kernel's objective values are,
    which :mod:`repro.core.latency_kernel` guarantees).
    Wall-clock-budgeted runs are inherently timing-dependent in both
    implementations; this loop additionally polls the clock only every
    :data:`TIME_CHECK_INTERVAL` moves, so it may overshoot the limit
    by up to that many iterations.

    ``options.batch_size > 1`` routes to the deterministic
    batched-proposal variant (see the module docstring); everything
    below describes the sequential loop.

    ``recorder`` is an optional :class:`repro.obs.recorder.
    FlightRecorder` observing the run.  It draws nothing from the RNG
    and never touches the mapping, so the trajectory with a recorder
    attached is bit-identical to the bare run; without one the loop
    pays a single ``is not None`` test per iteration.
    """
    options = options or SAOptions()
    if options.batch_size > 1:
        return _anneal_mapping_batched(initial, objective, options, recorder)
    stream = MoveStream(resolve_rng(options.seed).bit_generator)
    start = time.perf_counter()

    evaluate_perm = getattr(objective, "evaluate_perm", None)
    inc = None
    if evaluate_perm is not None:
        kernel_grid = getattr(objective, "grid", None)
        if kernel_grid is not None and kernel_grid != initial.grid:
            raise ValueError(
                f"objective kernel compiled for grid {kernel_grid} cannot "
                f"score mappings of grid {initial.grid}"
            )
        make_incremental = getattr(objective, "incremental", None)
        if make_incremental is not None \
                and initial.grid.n_blocks >= options.delta_min_slots:
            inc = make_incremental()
        if initial.grid.n_blocks <= MEMO_MAX_BLOCKS:
            memo: "dict[bytes, float]" = {}

            def evaluate(perm: np.ndarray) -> float:
                key = perm.tobytes()
                value = memo.get(key)
                if value is None:
                    value = memo[key] = float(evaluate_perm(perm))
                return value
        else:
            evaluate = lambda perm: float(evaluate_perm(perm))  # noqa: E731
    else:
        def evaluate(perm: np.ndarray) -> float:
            return float(objective(initial.with_block_permutation(perm.copy())))

    current = np.array(initial.block_to_slot, dtype=np.int64)
    scratch = np.empty_like(current)
    if inc is not None:
        # One full evaluation binds the partial terms; every proposal
        # after this point goes through the delta path.
        inc.bind(current)
        current_value = float(inc.value)
        propose_value = lambda perm: float(inc.propose(perm))  # noqa: E731
    else:
        current_value = evaluate(current)
        propose_value = evaluate
    initial_value = current_value
    best = current.copy()
    best_value = current_value
    history = [best_value]
    setup_evaluations = 1

    if len(current) < 2:
        return _degenerate_result(initial, current_value, start, recorder,
                                  options.portfolio_k)

    moves = options.moves
    n_moves = len(moves)
    temperature = options.initial_temperature
    if temperature is None:
        # Probe moves start from ``initial`` each time, replicating
        # :func:`_probe_temperature` draw for draw on the permutation
        # arrays (same move stream, same spread formula).
        deltas = []
        for _ in range(TEMPERATURE_PROBES):
            move = moves[stream.integers(n_moves)]
            _propose_into(scratch, current, move, stream)
            deltas.append(abs(propose_value(scratch) - current_value))
        temperature = _temperature_from_spread(deltas, current_value)
        setup_evaluations += TEMPERATURE_PROBES

    if recorder is not None:
        recorder.start(
            initial_value, evaluations=setup_evaluations,
            delta_evaluations=setup_evaluations - 1 if inc is not None else 0)

    pool = _new_pool(options, current, current_value)

    iterations = accepted = 0
    exit_reason = "iteration_budget"
    while True:
        if options.max_iterations is not None \
                and iterations >= options.max_iterations:
            break
        if options.time_limit_s is not None \
                and iterations % TIME_CHECK_INTERVAL == 0 \
                and time.perf_counter() - start >= options.time_limit_s:
            exit_reason = "time_limit"
            break
        move = moves[stream.integers(n_moves)]
        _propose_into(scratch, current, move, stream)
        value = propose_value(scratch)
        delta = value - current_value
        accepted_move = delta <= 0.0 or (
            temperature > 0.0
            and stream.random() < math.exp(-delta / temperature))
        if accepted_move:
            if inc is not None:
                inc.accept()
            current, scratch = scratch, current
            current_value = value
            accepted += 1
            if value < best_value:
                best[:] = current
                best_value = value
                history.append(best_value)
            if pool is not None:
                pool.note(current, value)
        if recorder is not None:
            recorder.sample(iterations, temperature, best_value,
                            accepted_move, move=move,
                            delta=inc is not None)
        temperature *= options.alpha
        iterations += 1

    if recorder is not None:
        recorder.finish(exit_reason, best_value)
    best_mapping = Mapping(initial.grid, initial.cluster, best.copy())
    return SAResult(
        mapping=best_mapping,
        value=best_value,
        initial_value=initial_value,
        iterations=iterations,
        accepted=accepted,
        elapsed_s=time.perf_counter() - start,
        history=history,
        evaluations=setup_evaluations + iterations,
        exit_reason=exit_reason,
        portfolio=_build_portfolio(initial, best_mapping, best_value, pool,
                                   options.portfolio_k),
    )


def _anneal_mapping_batched(initial: Mapping,
                            objective: Callable[[Mapping], float],
                            options: SAOptions,
                            recorder=None) -> SAResult:
    """The deterministic batched-proposal loop (``batch_size > 1``).

    Each round draws up to ``batch_size`` moves from the current state,
    scores them in one ``evaluate_batch`` call when the objective
    offers it (falling back to per-row evaluation otherwise), and scans
    the scores in proposal order: rejects consume their acceptance draw
    and cool the temperature exactly as the sequential loop would; the
    first accept wins and discards the rest of the batch, whose
    proposals were drawn from a now-stale state.  ``iterations`` counts
    scanned proposals (so budgets mean the same thing as in the
    sequential loop) while ``evaluations`` counts scored rows, which is
    why the latter can run ahead.  The wall clock is polled once per
    round.
    """
    stream = MoveStream(resolve_rng(options.seed).bit_generator)
    start = time.perf_counter()

    evaluate_perm = getattr(objective, "evaluate_perm", None)
    evaluate_batch = getattr(objective, "evaluate_batch", None)
    if evaluate_perm is not None:
        kernel_grid = getattr(objective, "grid", None)
        if kernel_grid is not None and kernel_grid != initial.grid:
            raise ValueError(
                f"objective kernel compiled for grid {kernel_grid} cannot "
                f"score mappings of grid {initial.grid}"
            )
        evaluate = lambda perm: float(evaluate_perm(perm))  # noqa: E731
    else:
        def evaluate(perm: np.ndarray) -> float:
            return float(objective(initial.with_block_permutation(perm.copy())))

    current = np.array(initial.block_to_slot, dtype=np.int64)
    scratch = np.empty_like(current)
    current_value = evaluate(current)
    initial_value = current_value
    best = current.copy()
    best_value = current_value
    history = [best_value]
    setup_evaluations = 1

    if len(current) < 2:
        return _degenerate_result(initial, current_value, start, recorder,
                                  options.portfolio_k)

    temperature = options.initial_temperature
    if temperature is None:
        deltas = []
        for _ in range(TEMPERATURE_PROBES):
            move = options.moves[stream.integers(len(options.moves))]
            _propose_into(scratch, current, move, stream)
            deltas.append(abs(evaluate(scratch) - current_value))
        temperature = _temperature_from_spread(deltas, current_value)
        setup_evaluations += TEMPERATURE_PROBES

    if recorder is not None:
        recorder.start(initial_value, evaluations=setup_evaluations)

    pool = _new_pool(options, current, current_value)

    batch = np.empty((options.batch_size, len(current)), dtype=np.int64)
    batch_moves: "list[str]" = [""] * options.batch_size
    iterations = accepted = 0
    evaluations = setup_evaluations
    exit_reason = "iteration_budget"
    while True:
        if options.max_iterations is not None \
                and iterations >= options.max_iterations:
            break
        if options.time_limit_s is not None \
                and time.perf_counter() - start >= options.time_limit_s:
            exit_reason = "time_limit"
            break
        k = options.batch_size
        if options.max_iterations is not None:
            k = min(k, options.max_iterations - iterations)
        for b in range(k):
            move = options.moves[stream.integers(len(options.moves))]
            batch_moves[b] = move
            _propose_into(batch[b], current, move, stream)
        if evaluate_batch is not None:
            values = np.asarray(evaluate_batch(batch[:k]), dtype=np.float64)
        else:
            values = np.array([evaluate(batch[b]) for b in range(k)])
        evaluations += k
        for b in range(k):
            value = float(values[b])
            delta = value - current_value
            accepted_move = delta <= 0.0 or (
                temperature > 0.0
                and stream.random() < math.exp(-delta / temperature))
            if accepted_move:
                current[:] = batch[b]
                current_value = value
                accepted += 1
                if value < best_value:
                    best[:] = current
                    best_value = value
                    history.append(best_value)
                if pool is not None:
                    pool.note(current, value)
            if recorder is not None:
                recorder.sample(iterations, temperature, best_value,
                                accepted_move, move=batch_moves[b])
            temperature *= options.alpha
            iterations += 1
            if accepted_move:
                # The rest of the batch was proposed from a state that
                # no longer exists; discard it and re-propose.
                break

    if recorder is not None:
        recorder.finish(exit_reason, best_value)
    best_mapping = Mapping(initial.grid, initial.cluster, best.copy())
    return SAResult(
        mapping=best_mapping,
        value=best_value,
        initial_value=initial_value,
        iterations=iterations,
        accepted=accepted,
        elapsed_s=time.perf_counter() - start,
        history=history,
        evaluations=evaluations,
        exit_reason=exit_reason,
        portfolio=_build_portfolio(initial, best_mapping, best_value, pool,
                                   options.portfolio_k),
    )


def anneal_mapping_reference(initial: Mapping,
                             objective: Callable[[Mapping], float],
                             options: SAOptions | None = None,
                             recorder=None) -> SAResult:
    """The pre-kernel annealing loop, kept as an executable spec.

    One ``Mapping`` per proposal, one ``perf_counter`` per move, the
    copy-returning, ``Generator``-driven :func:`_propose` — exactly the
    implementation :func:`anneal_mapping` replaced.  The seed-identity
    tests and ``benchmarks/bench_annealing_kernel.py`` pin the fast
    path against this function; it is not meant for production
    callers.
    """
    options = options or SAOptions()
    rng = resolve_rng(options.seed)
    start = time.perf_counter()

    current = initial.copy()
    current_value = float(objective(current))
    initial_value = current_value
    best = current.copy()
    best_value = current_value
    history = [best_value]
    setup_evaluations = 1

    if initial.grid.n_blocks < 2:
        # Mirrors the fast loops exactly (same guard, same result
        # fields) so the seed-identity contract holds on degenerate
        # grids too — except the portfolio, which the reference
        # implementation never collects.
        result = _degenerate_result(initial, current_value, start, recorder,
                                    options.portfolio_k)
        result.portfolio = []
        return result

    temperature = options.initial_temperature
    if temperature is None:
        temperature = _probe_temperature(initial, objective, current_value,
                                         options.moves, rng)
        setup_evaluations += TEMPERATURE_PROBES

    if recorder is not None:
        recorder.start(initial_value, evaluations=setup_evaluations)

    iterations = accepted = 0
    exit_reason = "iteration_budget"
    while True:
        if options.max_iterations is not None \
                and iterations >= options.max_iterations:
            break
        if options.time_limit_s is not None \
                and time.perf_counter() - start >= options.time_limit_s:
            exit_reason = "time_limit"
            break
        move = options.moves[int(rng.integers(len(options.moves)))]
        candidate = current.with_block_permutation(
            _propose(current.block_to_slot, move, rng))
        value = float(objective(candidate))
        delta = value - current_value
        accepted_move = delta <= 0.0 or (
            temperature > 0.0
            and rng.random() < math.exp(-delta / temperature))
        if accepted_move:
            current, current_value = candidate, value
            accepted += 1
            if value < best_value:
                best, best_value = candidate.copy(), value
                history.append(best_value)
        if recorder is not None:
            recorder.sample(iterations, temperature, best_value,
                            accepted_move)
        temperature *= options.alpha
        iterations += 1

    if recorder is not None:
        recorder.finish(exit_reason, best_value)
    return SAResult(
        mapping=best,
        value=best_value,
        initial_value=initial_value,
        iterations=iterations,
        accepted=accepted,
        elapsed_s=time.perf_counter() - start,
        history=history,
        evaluations=setup_evaluations + iterations,
        exit_reason=exit_reason,
    )


def anneal_mapping_with_restarts(initial: Mapping,
                                 objective: Callable[[Mapping], float],
                                 options: SAOptions | None = None,
                                 n_restarts: int = 3,
                                 recorder_factory=None) -> SAResult:
    """Multi-restart annealing: best of several independent runs.

    Annealing on a rugged mapping landscape occasionally stalls in a
    local minimum; restarting from random permutations with derived
    seeds and keeping the best run is the standard remedy.  The first
    run always starts from ``initial`` (the framework's default
    placement), so the result can never lose to single-run annealing
    with the same options.

    The reported ``initial_value`` is always the objective of the
    caller's ``initial`` mapping; it is taken from the first run's own
    starting evaluation, so ``objective(initial)`` is computed exactly
    once across the whole restart portfolio.

    With ``options.portfolio_k > 1`` the per-run portfolios are merged
    across restarts — the runs genuinely diversify start points, so
    the merged pool is where portfolio warm starts earn their keep —
    and the winner's :attr:`SAResult.portfolio` is rebuilt from the
    pool (best first, then ``(value, bytes)``-ordered runner-ups, all
    distinct).

    ``recorder_factory`` optionally instruments each run: it is called
    with the run's provenance string (``"cold"`` for run 0,
    ``"restart-k"`` after) and returns a flight recorder — or ``None``
    — for that run.  The factory owns the recorders it makes; this
    wrapper only passes them through.
    """
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    options = options or SAOptions()
    best: SAResult | None = None
    initial_value: float | None = None
    merged: "dict[bytes, tuple[float, Mapping]] | None" = \
        {} if options.portfolio_k > 1 else None
    for k in range(n_restarts):
        run_options = options.with_seed(options.seed + 7919 * k)
        if k == 0:
            start_mapping = initial
        else:
            from repro.parallel.mapping import random_block_mapping
            start_mapping = random_block_mapping(
                initial.grid, initial.cluster, seed=options.seed + 104729 * k)
        recorder = None if recorder_factory is None \
            else recorder_factory("cold" if k == 0 else f"restart-{k}")
        result = anneal_mapping(start_mapping, objective, run_options,
                                recorder=recorder)
        if k == 0:
            # Run 0 starts at ``initial``, so its starting evaluation
            # *is* objective(initial) — no re-evaluation needed.
            initial_value = result.initial_value
        if merged is not None:
            for mapping, value in result.portfolio:
                key = np.asarray(
                    mapping.block_to_slot, dtype=np.int64).tobytes()
                prev = merged.get(key)
                if prev is None or value < prev[0]:
                    merged[key] = (value, mapping)
        if best is None or result.value < best.value:
            best = result
    # Report the true improvement against the caller's start.
    best.initial_value = float(initial_value)
    if merged is not None:
        best_key = np.asarray(
            best.mapping.block_to_slot, dtype=np.int64).tobytes()
        runners = sorted(
            (value, key) for key, (value, _) in merged.items()
            if key != best_key)
        best.portfolio = [(best.mapping, best.value)] + [
            (merged[key][1], value)
            for value, key in runners[:options.portfolio_k - 1]]
    return best
