"""Replacement policies for the set-associative cache model.

The paper's evaluation uses a conventional cache (gem5's default LRU); the
extra policies here serve the ablation benches:

* :class:`LRUPolicy` — least recently used (default).
* :class:`FIFOPolicy` — first in, first out.
* :class:`RandomPolicy` — uniform random victim.
* :class:`TreePLRUPolicy` — tree pseudo-LRU, the usual hardware-cheap
  approximation of LRU.
* :class:`LERPolicy` — "least error rate" replacement from the paper's
  reference [13]: prefer evicting the block with the largest accumulated
  unchecked-read exposure, so the most error-prone data leaves the cache.

Every policy is expressed through a *compact state* protocol that is the
single source of truth for its behaviour:

* per-set state is a small array (one row per set) exported and imported as
  a plain list (:meth:`ReplacementPolicy.export_set_state` /
  :meth:`ReplacementPolicy.import_set_state`);
* policy-global scalars (the recency tick, the random generator) live in a
  small mutable list returned by
  :meth:`ReplacementPolicy.compact_globals`, and can be snapshotted and
  restored with :meth:`ReplacementPolicy.export_global_state` /
  :meth:`ReplacementPolicy.import_global_state`;
* all transitions are the three pure-compact hooks
  :meth:`ReplacementPolicy.compact_on_access`,
  :meth:`ReplacementPolicy.compact_on_fill` and
  :meth:`ReplacementPolicy.compact_victim`, which operate on (globals,
  set state) and nothing else.

The classic object hooks (`on_fill`, `on_access`, `victim`) are implemented
*in terms of* the compact transitions by the base class, so the
:class:`~repro.cache.cache.SetAssociativeCache` object path and the batched
engine in :mod:`repro.sim.fastpath` (which replays the compact state
directly) can never disagree.  A subclass that overrides the object hooks
directly opts out of that guarantee and is rejected by the fast path —
unless it sets :attr:`ReplacementPolicy.supports_compact_state` to ``True``,
promising that its overrides still route every state change through the
compact transitions.

Two batched layers sit on top of the scalar transitions for the
structure-of-arrays kernel in :mod:`repro.sim.soa`:

* :meth:`ReplacementPolicy.compact_on_access_batch` applies a *sequence*
  of access transitions to one set.  The default loops over the scalar
  hook (so any compact-capable policy is batchable); the built-ins override
  it with true vector forms where the policy's math allows (e.g. LRU
  collapses a batch to one tick bump plus a last-touch scatter).
* The ``soa_*`` protocol describes how the SoA kernel may defer transitions
  across interleaved sets (see :attr:`ReplacementPolicy.soa_mode`).  For
  timestamp policies whose tick advances exactly once per access the
  deferred form is *position arithmetic*: the timestamp written by the
  transition at global access position ``p`` is ``base + p + 1``, so the
  kernel only has to remember each way's last touch position.
"""

from __future__ import annotations

import abc

import numpy as np

from ..config import ReplacementPolicyName
from ..errors import ReplacementError
from .block import CacheBlock


class ReplacementPolicy(abc.ABC):
    """Interface shared by all replacement policies.

    Concrete policies implement the compact-state protocol (`_set_row`,
    `compact_on_access`, `compact_on_fill`, `compact_victim`); the object
    hooks below delegate to it.
    """

    #: Third-party subclasses that override the object hooks may set this to
    #: ``True`` to promise that every state change still flows through the
    #: compact transitions; :func:`repro.sim.supports_fast_path` then accepts
    #: them instead of rejecting the override.
    supports_compact_state = False

    #: How the structure-of-arrays kernel may schedule this policy's
    #: transitions relative to the interleaved access stream:
    #:
    #: * ``"immediate"`` — apply every transition scalar, in trace order
    #:   (always correct; the safe default for opt-in third-party policies).
    #: * ``"position"`` — the tick advances exactly once per access (hit or
    #:   fill), so the timestamp written at global access position ``p`` is
    #:   ``soa_tick_base() + p + 1``; transitions may be deferred per set and
    #:   realised from each way's *last* touch position
    #:   (:meth:`soa_apply_last_positions`), victims chosen over the mixed
    #:   stored/deferred timestamps (:meth:`soa_victim_positions`, whose
    #:   base implementation delegates to :meth:`compact_victim`), and
    #:   :meth:`soa_commit` settles the global tick once at the end.
    #: * ``"ordered"`` — transitions touch no policy-global state,
    #:   ``compact_on_fill`` is equivalent to ``compact_on_access``, and
    #:   consecutive duplicate transitions are idempotent (applying a run
    #:   of same-way touches once equals applying it N times); the kernel
    #:   may defer a set's transitions, collapse consecutive duplicates,
    #:   and replay the rest in order via :meth:`compact_on_access_batch`
    #:   before a victim decision or export.
    #: * ``"fill-only"`` — ``compact_on_access`` is a no-op; only fills (and,
    #:   for random policies, victim draws) mutate state, and both are
    #:   applied scalar in trace order.
    soa_mode = "immediate"

    #: Whether :meth:`compact_victim` reads the per-way unchecked-read
    #: exposure argument.  When ``False`` the SoA kernel may skip computing
    #: live exposures at victim time.  Kept ``True`` in the base class so
    #: opt-in third-party policies are always handed real values.
    victim_uses_exposure = True

    def __init__(self, num_sets: int, associativity: int) -> None:
        if num_sets <= 0 or associativity <= 0:
            raise ReplacementError("num_sets and associativity must be positive")
        self._num_sets = num_sets
        self._associativity = associativity
        #: Live policy-global state shared by the object path and the batched
        #: engine; mutated in place by the compact transition functions.
        self._globals: list = []

    @property
    def num_sets(self) -> int:
        """Number of sets tracked."""
        return self._num_sets

    @property
    def associativity(self) -> int:
        """Ways per set."""
        return self._associativity

    def _check(self, set_index: int, way: int | None = None) -> None:
        if not 0 <= set_index < self._num_sets:
            raise ReplacementError(f"set index {set_index} out of range")
        if way is not None and not 0 <= way < self._associativity:
            raise ReplacementError(f"way {way} out of range")

    # -- compact-state protocol ------------------------------------------------

    @abc.abstractmethod
    def _set_row(self, set_index: int):
        """The mutable per-set state row backing ``set_index``."""

    def compact_globals(self) -> list:
        """The live policy-global state list (mutated in place by transitions).

        The batched engine passes this list to the compact transition
        functions; because it is the policy's own backing store, no
        write-back step is needed after a batched run.
        """
        return self._globals

    def export_global_state(self) -> list:
        """Snapshot the policy-global state as a plain list."""
        return list(self._globals)

    def import_global_state(self, state: list) -> None:
        """Restore a policy-global snapshot taken by :meth:`export_global_state`."""
        self._globals[:] = list(state)

    def export_set_state(self, set_index: int) -> list:
        """Snapshot one set's compact state as a plain list.

        The returned list is detached from the policy: the batched engine
        mutates it through the compact transitions and writes it back with
        :meth:`import_set_state` when the run finishes.
        """
        self._check(set_index)
        row = self._set_row(set_index)
        return row.tolist() if hasattr(row, "tolist") else list(row)

    def import_set_state(self, set_index: int, state: list) -> None:
        """Write one set's compact state back into the policy's backing store."""
        self._check(set_index)
        row = self._set_row(set_index)
        if len(state) != len(row):
            raise ReplacementError(
                f"set state length {len(state)} != expected {len(row)}"
            )
        row[:] = state

    @abc.abstractmethod
    def compact_on_access(self, global_state: list, set_state, way: int) -> None:
        """Transition for a hit on ``way``, on compact state only."""

    @abc.abstractmethod
    def compact_on_fill(self, global_state: list, set_state, way: int) -> None:
        """Transition for a fill into ``way``, on compact state only."""

    @abc.abstractmethod
    def compact_victim(self, global_state: list, set_state, unchecked_reads) -> int:
        """Choose a victim among all-valid ways, on compact state only.

        Args:
            global_state: The policy-global state list.
            set_state: The set's compact state row.
            unchecked_reads: Per-way accumulated unchecked-read exposure
                (used by exposure-aware policies such as LER).
        """

    # -- batched transitions ----------------------------------------------------

    def compact_on_access_batch(self, global_state: list, set_state, ways) -> None:
        """Apply ``compact_on_access`` for every way in ``ways``, in order.

        The default is the literal loop over the scalar transition, so the
        batch form is exact for any compact-capable policy; built-ins
        override it with vector forms where their math collapses.
        """
        on_access = self.compact_on_access
        for way in ways:
            on_access(global_state, set_state, way)

    # -- structure-of-arrays deferral protocol (mode "position") ----------------

    def soa_tick_base(self) -> int:
        """The tick base for position arithmetic (mode ``"position"`` only).

        A replay that starts when the policy's tick is ``base`` writes the
        timestamp ``base + p + 1`` at global access position ``p``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not use position-based transitions"
        )

    def soa_apply_last_positions(self, set_state, last_positions, base: int) -> None:
        """Realise deferred transitions from per-way last touch positions.

        Args:
            set_state: The set's compact state row.
            last_positions: Per-way global access position of the way's most
                recent (deferred) transition, or ``-1`` for untouched ways.
            base: The tick base returned by :meth:`soa_tick_base`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not use position-based transitions"
        )

    def soa_commit(self, base: int, num_accesses: int) -> None:
        """Settle the policy-global tick after a position-based replay.

        Args:
            base: The tick base returned by :meth:`soa_tick_base`.
            num_accesses: Accesses replayed (each one transition).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not use position-based transitions"
        )

    def soa_victim_positions(
        self, global_state: list, set_state, last_positions, base: int, unchecked_reads
    ) -> int:
        """Choose a victim without flushing deferred position transitions.

        Part of the ``"position"`` protocol: equivalent to applying
        ``last_positions`` via :meth:`soa_apply_last_positions` and then
        calling :meth:`compact_victim`.  This base implementation builds the
        effective timestamps — ``base + p + 1`` for a way with a deferred
        touch, the stored row value otherwise — and delegates to
        :meth:`compact_victim`, so any position-mode policy gets a correct
        victim for free; policies may override it with a fused form.
        """
        effective = [
            base + position + 1 if position >= 0 else set_state[way]
            for way, position in enumerate(last_positions)
        ]
        return self.compact_victim(global_state, effective, unchecked_reads)

    # -- object hooks (driven by SetAssociativeCache) --------------------------

    def on_access(self, set_index: int, way: int) -> None:
        """A block was accessed (hit)."""
        self._check(set_index, way)
        self.compact_on_access(self._globals, self._set_row(set_index), way)

    def on_fill(self, set_index: int, way: int) -> None:
        """A block was filled (miss handling installed a new line)."""
        self._check(set_index, way)
        self.compact_on_fill(self._globals, self._set_row(set_index), way)

    def victim(self, set_index: int, blocks: list[CacheBlock]) -> int:
        """Choose the way to evict; invalid ways are preferred."""
        self._check(set_index)
        invalid = self._first_invalid(blocks)
        if invalid is not None:
            return invalid
        return int(
            self.compact_victim(
                self._globals,
                self._set_row(set_index),
                [block.unchecked_reads for block in blocks],
            )
        )

    def _first_invalid(self, blocks: list[CacheBlock]) -> int | None:
        for way, block in enumerate(blocks):
            if not block.valid:
                return way
        return None


def _timestamp_batch(global_state: list, set_state, ways) -> None:
    """Vector form of a run of timestamp transitions (LRU/LER/FIFO ticks).

    A batch of ``n`` transitions advances the tick by ``n`` and leaves each
    touched way stamped with the tick of its *last* occurrence — exactly the
    result of the scalar loop, computed with one pass over the unique ways.
    """
    count = len(ways)
    if count == 0:
        return
    tick = global_state[0]
    global_state[0] = tick + count
    if count <= 8:
        for offset, way in enumerate(ways):
            set_state[way] = tick + offset + 1
        return
    arr = np.asarray(ways)
    unique_ways, reversed_first = np.unique(arr[::-1], return_index=True)
    last_offsets = count - 1 - reversed_first
    for way, offset in zip(unique_ways.tolist(), last_offsets.tolist()):
        set_state[way] = tick + offset + 1


class _PositionTickMixin:
    """Position-arithmetic deferral for policies that tick once per access."""

    soa_mode = "position"

    def soa_tick_base(self) -> int:
        """The current tick; position ``p`` maps to ``base + p + 1``."""
        return self._globals[0]

    def soa_apply_last_positions(self, set_state, last_positions, base: int) -> None:
        """Stamp each touched way with the tick of its last deferred touch."""
        for way, position in enumerate(last_positions):
            if position >= 0:
                set_state[way] = base + position + 1

    def soa_commit(self, base: int, num_accesses: int) -> None:
        """One transition per access: the final tick is ``base + n``."""
        self._globals[0] = base + num_accesses


class LRUPolicy(_PositionTickMixin, ReplacementPolicy):
    """True least-recently-used replacement.

    Compact state: per-set last-use timestamps; global state ``[tick]``.
    """

    victim_uses_exposure = False

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._globals = [0]
        self._last_use = np.zeros((num_sets, associativity), dtype=np.int64)

    def _set_row(self, set_index: int):
        return self._last_use[set_index]

    def compact_on_access(self, global_state: list, set_state, way: int) -> None:
        """Record a use timestamp."""
        tick = global_state[0] + 1
        global_state[0] = tick
        set_state[way] = tick

    def compact_on_fill(self, global_state: list, set_state, way: int) -> None:
        """A fill counts as a use."""
        self.compact_on_access(global_state, set_state, way)

    def compact_on_access_batch(self, global_state: list, set_state, ways) -> None:
        """Vector form: one tick bump plus a last-touch stamp per way."""
        _timestamp_batch(global_state, set_state, ways)

    def compact_victim(self, global_state: list, set_state, unchecked_reads) -> int:
        """The least recently used way (first one on timestamp ties)."""
        if type(set_state) is list:
            return set_state.index(min(set_state))
        return min(range(len(set_state)), key=set_state.__getitem__)

    def soa_victim_positions(
        self, global_state: list, set_state, last_positions, base: int, unchecked_reads
    ) -> int:
        """LRU victim over mixed stored/deferred timestamps, loop-fused.

        A way with a deferred touch is strictly newer than any way without
        one (every stored tick is at most ``base``), so the oldest untouched
        way wins when one exists; otherwise the oldest deferred touch does.
        """
        best = -1
        best_tick = 0
        for way, position in enumerate(last_positions):
            if position < 0:
                tick = set_state[way]
                if best < 0 or tick < best_tick:
                    best_tick = tick
                    best = way
        if best >= 0:
            return best
        return last_positions.index(min(last_positions))


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out replacement: evict the oldest fill.

    Compact state: per-set fill timestamps; global state ``[tick]``.
    """

    soa_mode = "fill-only"
    victim_uses_exposure = False

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._globals = [0]
        self._fill_time = np.zeros((num_sets, associativity), dtype=np.int64)

    def _set_row(self, set_index: int):
        return self._fill_time[set_index]

    def compact_on_access(self, global_state: list, set_state, way: int) -> None:
        """Accesses do not affect FIFO order."""

    def compact_on_fill(self, global_state: list, set_state, way: int) -> None:
        """Record the fill timestamp."""
        tick = global_state[0] + 1
        global_state[0] = tick
        set_state[way] = tick

    def compact_on_access_batch(self, global_state: list, set_state, ways) -> None:
        """Vector form: accesses are no-ops, so a batch of them is too."""

    def compact_victim(self, global_state: list, set_state, unchecked_reads) -> int:
        """The oldest fill (first one on timestamp ties)."""
        if type(set_state) is list:
            return set_state.index(min(set_state))
        return min(range(len(set_state)), key=set_state.__getitem__)


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection.

    Compact state: none per set; the global state carries the live random
    generator (snapshotted/restored through its bit-generator state, so an
    export → import round-trip detaches the copy from the original stream).
    """

    soa_mode = "fill-only"
    victim_uses_exposure = False

    def __init__(self, num_sets: int, associativity: int, seed: int = 1) -> None:
        super().__init__(num_sets, associativity)
        self._globals = [np.random.default_rng(seed)]
        self._empty_row: list = []

    def _set_row(self, set_index: int):
        return self._empty_row

    def compact_on_access_batch(self, global_state: list, set_state, ways) -> None:
        """Vector form: random replacement keeps no access state."""

    def export_global_state(self) -> list:
        """Snapshot the generator's bit-generator state (a plain dict)."""
        return [self._globals[0].bit_generator.state]

    def import_global_state(self, state: list) -> None:
        """Restore a generator snapshot without sharing the stream."""
        self._globals[0].bit_generator.state = state[0]

    def compact_on_access(self, global_state: list, set_state, way: int) -> None:
        """Random replacement keeps no access state."""

    def compact_on_fill(self, global_state: list, set_state, way: int) -> None:
        """Random replacement keeps no fill state."""

    def compact_victim(self, global_state: list, set_state, unchecked_reads) -> int:
        """A uniformly random way."""
        return int(global_state[0].integers(0, len(unchecked_reads)))


class TreePLRUPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU (the common hardware approximation).

    Requires a power-of-two associativity; each set keeps ``ways - 1`` tree
    bits (its compact state).  On an access the bits along the path to the
    accessed way are set to point *away* from it; the victim is found by
    following the bits.
    """

    soa_mode = "ordered"
    victim_uses_exposure = False

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        if associativity & (associativity - 1):
            raise ReplacementError("tree PLRU requires a power-of-two associativity")
        self._tree = np.zeros((num_sets, max(associativity - 1, 1)), dtype=np.int8)
        self._node_bit_by_way: np.ndarray | None = None

    def _set_row(self, set_index: int):
        return self._tree[set_index]

    def _path_table(self) -> np.ndarray:
        """``table[node][way]``: the bit an access to ``way`` writes at
        ``node`` (``-1`` when the way's path does not touch the node)."""
        if self._node_bit_by_way is None:
            associativity = self._associativity
            table = np.full(
                (max(associativity - 1, 1), associativity), -1, dtype=np.int8
            )
            for way in range(associativity):
                node, low, high = 0, 0, associativity
                while high - low > 1:
                    mid = (low + high) // 2
                    if way < mid:
                        table[node, way] = 1
                        node = 2 * node + 1
                        high = mid
                    else:
                        table[node, way] = 0
                        node = 2 * node + 2
                        low = mid
            self._node_bit_by_way = table
        return self._node_bit_by_way

    def compact_on_access_batch(self, global_state: list, set_state, ways) -> None:
        """Vector form: each tree bit ends at the value its *last* toucher set.

        Consecutive duplicate accesses are idempotent, and a batch leaves
        every node pointing away from the last way whose path crossed it —
        exactly the sequential result, computed per node instead of per way.
        """
        count = len(ways)
        if self._associativity <= 1 or count == 0:
            return
        if count <= 16:
            on_access = self.compact_on_access
            for way in ways:
                on_access(global_state, set_state, way)
            return
        table = self._path_table()
        arr = np.asarray(ways)
        for node in range(self._associativity - 1):
            bits = table[node][arr]
            touched = np.flatnonzero(bits >= 0)
            if touched.size:
                set_state[node] = bits[touched[-1]]

    def compact_on_access(self, global_state: list, set_state, way: int) -> None:
        """Flip the tree bits along the accessed way's path."""
        associativity = self._associativity
        if associativity <= 1:
            return
        node = 0
        low, high = 0, associativity
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                set_state[node] = 1  # point to the upper half
                node = 2 * node + 1
                high = mid
            else:
                set_state[node] = 0  # point to the lower half
                node = 2 * node + 2
                low = mid

    def compact_on_fill(self, global_state: list, set_state, way: int) -> None:
        """A fill counts as a use."""
        self.compact_on_access(global_state, set_state, way)

    def compact_victim(self, global_state: list, set_state, unchecked_reads) -> int:
        """Follow the tree bits to the pseudo-LRU way."""
        associativity = self._associativity
        if associativity == 1:
            return 0
        node = 0
        low, high = 0, associativity
        while high - low > 1:
            mid = (low + high) // 2
            if set_state[node]:
                # The bit points away from the lower half: victim is above.
                node = 2 * node + 2
                low = mid
            else:
                node = 2 * node + 1
                high = mid
        return low


class LERPolicy(_PositionTickMixin, ReplacementPolicy):
    """Least-error-rate replacement (paper reference [13]).

    Evicts the valid block with the largest accumulated unchecked-read
    exposure — the block most likely to hold an uncorrectable error — with
    recency (tracked like LRU) as the tie-breaker.
    """

    victim_uses_exposure = True

    def __init__(self, num_sets: int, associativity: int) -> None:
        super().__init__(num_sets, associativity)
        self._globals = [0]
        self._last_use = np.zeros((num_sets, associativity), dtype=np.int64)

    def _set_row(self, set_index: int):
        return self._last_use[set_index]

    def compact_on_access(self, global_state: list, set_state, way: int) -> None:
        """Record a use timestamp for tie-breaking."""
        tick = global_state[0] + 1
        global_state[0] = tick
        set_state[way] = tick

    def compact_on_fill(self, global_state: list, set_state, way: int) -> None:
        """A fill counts as a use."""
        self.compact_on_access(global_state, set_state, way)

    def compact_on_access_batch(self, global_state: list, set_state, ways) -> None:
        """Vector form: one tick bump plus a last-touch stamp per way."""
        _timestamp_batch(global_state, set_state, ways)

    def compact_victim(self, global_state: list, set_state, unchecked_reads) -> int:
        """The most disturbance-exposed way; older last use breaks ties."""
        best_way = 0
        best_key: tuple[int, int] | None = None
        for way, exposure in enumerate(unchecked_reads):
            # Higher exposure first; older (smaller timestamp) breaks ties.
            key = (exposure, -int(set_state[way]))
            if best_key is None or key > best_key:
                best_key = key
                best_way = way
        return best_way


def build_replacement_policy(
    name: ReplacementPolicyName, num_sets: int, associativity: int, seed: int = 1
) -> ReplacementPolicy:
    """Instantiate a replacement policy by configuration name."""
    if name is ReplacementPolicyName.LRU:
        return LRUPolicy(num_sets, associativity)
    if name is ReplacementPolicyName.FIFO:
        return FIFOPolicy(num_sets, associativity)
    if name is ReplacementPolicyName.RANDOM:
        return RandomPolicy(num_sets, associativity, seed=seed)
    if name is ReplacementPolicyName.PLRU:
        return TreePLRUPolicy(num_sets, associativity)
    if name is ReplacementPolicyName.LER:
        return LERPolicy(num_sets, associativity)
    raise ReplacementError(f"unknown replacement policy: {name}")
