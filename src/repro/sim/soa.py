"""Structure-of-arrays (SoA) replay kernel of the fast engine.

:mod:`repro.sim.fastpath` validates and decodes a trace into NumPy columns
and hands them to this module, which replays them without dispatching
Python bytecode per way.  The replay is split into two passes:

1. **Functional pass** (sequential, minimal): one lean Python loop decides
   hit/miss, victim and eviction for every access — the only genuinely
   order-dependent work — while *deferring* everything else.  Replacement
   transitions are deferred through the policy's SoA protocol
   (:attr:`repro.cache.replacement.ReplacementPolicy.soa_mode`): timestamp
   policies collapse to one "last touch position" store per access,
   tree/stateless policies to a queued way, and unknown compact-capable
   policies fall back to exact scalar calls.  From an empty LRU cache the
   pass's only sequential output is the frame each access lands in, which
   does not depend on the scheme or any reliability parameter; with a
   ``frame_memo`` that column is replayed once and everything else the
   pass produces is derived from it vectorised.
2. **Reliability/energy pass** (vectorised): with the per-access
   ``(way, miss, valid-count)`` columns known, every remaining quantity is
   closed-form over NumPy arrays.  Per-set read ranks turn the exposure
   windows into differences of a counter sampled at consecutive events of
   the same cache frame; per-frame event streams (accesses plus patrol
   scrubs, sorted by frame then time) yield the delivery windows, the
   evicted-block exposures, the final per-block counters and the recency
   ticks without touching Python per access.  Half of this pass reads
   neither the scheme nor any reliability parameter: the hit/miss columns,
   read ranks and valid-way counts, the frame-sorted event stream with its
   forward-filled ones counts, per-frame delivery and fill counts and the
   energy accumulators' addend layouts.  Under a ``frame_memo`` the
   schemes of a comparison compute that half once (:class:`SharedStream`);
   each scheme adds only its own windows, probabilities, energy and block
   state, and scrubbing its own patrol events.

Bit-identical to the reference engine by construction:

* the per-access ones-count samples are drawn with
  :meth:`repro.core.DataValueProfile.sample_many`, which consumes the
  generator exactly as the per-access ``sample()`` calls would;
* every floating-point accumulator receives the same addends in the same
  order — each energy accumulator's addend sequence is laid out as one run
  of constant addends per access with one distinguished slot
  (:func:`_run_layout`) and reduced with a seeded ``np.cumsum``, whose
  accumulation is sequential, so the final value is bitwise equal to the
  scalar loop's;
* the deferred failure probabilities go through the vectorised binomial
  evaluation of :mod:`repro.reliability.binomial`, element-for-element
  identical to the scalar math (packed-key deduplication via
  :func:`repro.reliability.binomial.resolve_unique_keys`).

The CPU-level entry (:func:`filter_through_l1_soa`) additionally
run-length-encodes the L1 streams: consecutive references of one L1 to the
same block are guaranteed hits after the first, so each run costs one
Python iteration instead of one per record, and the realised L2 stream is
merged back in global order for the L2 replay above.

The differential harness in ``tests/sim/test_engine_equivalence.py`` sweeps
the fast engine against the reference engine across every scheme,
replacement policy and trace level to enforce all of this field by field.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np

from ..cache import CacheHierarchy
from ..cache.cache import SetAssociativeCache
from ..cache.replacement import (
    FIFOPolicy,
    LERPolicy,
    LRUPolicy,
    RandomPolicy,
    TreePLRUPolicy,
)
from ..core.restore import RestoreCache
from ..core.scrubbing import ScrubbingCache
from ..reliability.binomial import (
    accumulated_failure_probabilities,
    block_failure_probabilities,
    reap_failure_probabilities,
    resolve_unique_keys,
    sequential_float_sum,
)
from ..telemetry import span as telemetry_span

#: Delivery-kind codes of the deferred probability records; the fast path
#: maps each scheme to one of the first three.
_CONVENTIONAL, _REAP, _SERIAL, _WRITEBACK = 0, 1, 2, 3

#: Policies whose SoA-mode shortcuts are maintained together with their
#: compact transitions; exact types only (a subclass may override either).
_BUILTIN_SOA_POLICIES = (
    LRUPolicy,
    LERPolicy,
    FIFOPolicy,
    RandomPolicy,
    TreePLRUPolicy,
)


def effective_soa_scheduling(policy) -> tuple[str, bool]:
    """The (soa_mode, victim_uses_exposure) pair the kernel may trust.

    A non-``"immediate"`` mode lets the kernel replace the scalar compact
    transitions with mode-specific shortcuts (position arithmetic, no-op
    accesses, deferred ordered replay).  That is only sound when the policy
    is an exact built-in — whose shortcuts are maintained in lockstep with
    its transitions — or when the policy's *own* class declares
    ``soa_mode``, vouching for the combination deliberately.  A subclass
    that overrides a compact transition while merely inheriting its
    parent's mode would otherwise have the override silently bypassed, so
    everything else degrades to exact scalar replay.  The exposure flag is
    widened to ``True`` (always hand the victim hook real exposures) under
    the same rule.
    """
    mode = policy.soa_mode
    exposure = policy.victim_uses_exposure
    if type(policy) in _BUILTIN_SOA_POLICIES:
        return mode, exposure
    own = type(policy).__dict__
    if "soa_mode" not in own:
        mode = "immediate"
    if "victim_uses_exposure" not in own:
        exposure = True
    return mode, exposure


def _patrol_visit_schedule(
    credit: float, rate: float, count: int
) -> tuple[np.ndarray, float]:
    """Per-access patrol visit counts under the exact credit arithmetic.

    Replicates :meth:`repro.core.scrubbing.ScrubbingCache._advance_scrubber`
    bit for bit: per access one float add of ``rate``, then one visit per
    whole unit of credit.  Subtracting ``1.0`` from a float ``>= 1`` is
    exact, so the post-access credit equals ``fl(credit + rate) - visits``
    computed in one step, and the credit trajectory is a deterministic map
    on the fractional part.  Because the rate is constant, that map cycles
    quickly for typical rates (e.g. period 4 at ``rate=0.25``); the closed
    form detects the cycle and tiles the visit counts instead of iterating
    all ``count`` accesses.

    Returns:
        ``(visits_per_access, final_credit)`` with ``final_credit`` bitwise
        equal to the scalar loop's.
    """
    visits = np.zeros(count, dtype=np.int64)
    if rate == 0.0 or count == 0:
        return visits, credit
    seen: dict[float, int] = {}
    credits: list[float] = []
    index = 0
    current = credit
    while index < count:
        cycle_start = seen.get(current)
        if cycle_start is not None:
            period = index - cycle_start
            pattern = visits[cycle_start:index].copy()
            remaining = count - index
            repeats, tail = divmod(remaining, period)
            if repeats:
                visits[index : index + repeats * period] = np.tile(pattern, repeats)
            if tail:
                visits[count - tail :] = pattern[:tail]
            final = credits[cycle_start + (count - cycle_start) % period]
            return visits, final
        seen[current] = index
        credits.append(current)
        topped = current + rate
        whole = int(topped)  # == floor: credit is never negative
        visits[index] = whole
        current = topped - whole  # exact (see docstring)
        index += 1
    return visits, current


def _patrol_visit_frames(
    visits_per_access: np.ndarray,
    fill_positions: list[int],
    fill_frames: list[int],
    init_valid_frames: np.ndarray,
    cursor: int,
    total_frames: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reconstruct the patrol visit log from the monotone valid-frame sets.

    During a replay frames only ever *become* valid (a fill into a free way;
    evictions replace in place), so the round-robin walk sees a fixed sorted
    valid-frame array between consecutive free fills.  Within such a
    segment, consecutive visits simply walk consecutive valid frames
    cyclically, starting from the first valid frame at or after the cursor —
    one ``searchsorted`` plus modular index arithmetic per segment instead
    of a per-visit Python scan over the whole cache.  Visits finding no
    valid frame (a cold cache) consume credit, record nothing, and leave the
    cursor where it was, exactly like the scalar walk that wraps fully
    around.

    Args:
        visits_per_access: Per-access visit counts from
            :func:`_patrol_visit_schedule`.
        fill_positions: Access positions of free fills, ascending; a fill at
            position ``i`` is visible to that access's own patrol visits.
        fill_frames: The frame each free fill made valid.
        init_valid_frames: Frames valid before the replay (whole cache).
        cursor: Patrol cursor at replay start.
        total_frames: Cache frame count (cursor modulus).

    Returns:
        ``(positions, frames, final_cursor)`` of the recorded visits, in
        chronological order.
    """
    total = int(visits_per_access.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, cursor
    cumulative = np.cumsum(visits_per_access)
    # Access position of the j-th visit overall (0-based j).
    visit_pos = np.searchsorted(
        cumulative, np.arange(1, total + 1, dtype=np.int64), side="left"
    )
    valid = np.sort(np.asarray(init_valid_frames, dtype=np.int64))
    out_positions: list[np.ndarray] = []
    out_frames: list[np.ndarray] = []
    consumed = 0

    def consume(n_visits: int) -> None:
        nonlocal consumed, cursor
        if n_visits <= 0:
            return
        if valid.size:
            start = np.searchsorted(valid, cursor, side="left")
            indices = (start + np.arange(n_visits, dtype=np.int64)) % valid.size
            frames_segment = valid[indices]
            out_positions.append(visit_pos[consumed : consumed + n_visits])
            out_frames.append(frames_segment)
            cursor = (int(frames_segment[-1]) + 1) % total_frames
        consumed += n_visits

    for position, frame in zip(fill_positions, fill_frames):
        # Visits strictly before this fill's access see the old valid set.
        boundary = int(np.searchsorted(visit_pos, position, side="left"))
        consume(boundary - consumed)
        valid = np.insert(valid, np.searchsorted(valid, frame), frame)
    consume(total - consumed)
    if out_frames:
        return np.concatenate(out_positions), np.concatenate(out_frames), cursor
    empty = np.zeros(0, dtype=np.int64)
    return empty, empty, cursor


def _initial_valid_frames(substrate, num_sets: int, assoc: int) -> np.ndarray:
    """Frames holding a valid block before the replay, across the whole cache.

    Unmaterialised substrate sets are all-invalid by construction and are
    skipped without materialising them (:meth:`SetAssociativeCache.peek_set`).
    """
    frames = []
    for set_index in range(num_sets):
        cache_set = substrate.peek_set(set_index)
        if cache_set is None:
            continue
        base = set_index * assoc
        for way, block in enumerate(cache_set.blocks):
            if block.valid:
                frames.append(base + way)
    return np.asarray(frames, dtype=np.int64)


def _run_layout(
    counts: np.ndarray,
    special: np.ndarray | None = None,
    special_at: np.ndarray | int = 0,
) -> tuple[int, np.ndarray | None]:
    """Layout of per-access addend runs, for :func:`_fold_runs`.

    Access ``i`` adds ``counts[i]`` addends, in access order; an access in
    ``special`` adds one distinguished addend as number ``special_at`` of
    its run.

    Returns:
        ``(total, positions)``: the number of addends and where the
        distinguished ones land, in access order.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if special is None:
        return total, None
    return total, ((ends - counts) + special_at)[special]


def _fold_runs(
    initial: float,
    layout: tuple[int, np.ndarray | None],
    fill: float,
    special_values: np.ndarray | float = 0.0,
) -> float:
    """Left-to-right sum, from ``initial``, of addend runs laid out by
    :func:`_run_layout`: every addend is ``fill`` except the distinguished
    ones, which are ``special_values``.

    The reduction goes through :func:`sequential_float_sum`, whose seeded
    cumulative sum performs the identical sequential float additions.
    """
    total, positions = layout
    addends = np.full(total, fill, dtype=float)
    if positions is not None:
        addends[positions] = special_values
    return sequential_float_sum(initial, addends)


def _energy_layouts(
    is_read: np.ndarray,
    writes: np.ndarray,
    later: np.ndarray,
    rewrites: np.ndarray | int = 0,
) -> tuple[tuple[int, np.ndarray | None], ...]:
    """Addend-run layouts of the energy accumulators, for :func:`_fold_runs`.

    Within one access the scalar loop adds, in this order: ``rewrites``
    restore rewrites, the demand read, the write (write hit or fill), and
    ``later`` addends for the dirty write-back and the patrol visits.  The
    tag accumulator adds at the read, write and later slots (the write
    distinguished); data read, ECC decode and MUX at the read and later
    slots (the read distinguished); data write and ECC encode at the
    rewrite and write slots (the write distinguished).

    Returns:
        ``(tag, demand, write)`` layouts.
    """
    reads = is_read.astype(np.int64)
    demand = reads + later
    return (
        _run_layout(demand + writes, writes, reads),
        _run_layout(demand, is_read),
        _run_layout(rewrites + writes, writes, rewrites),
    )


def _segment_last_where(flags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per segment, the last index where ``flags`` is set (-1 if none).

    ``starts`` are the segment start offsets into ``flags`` (ascending,
    first element 0).
    """
    marked = np.where(flags, np.arange(len(flags), dtype=np.int64), -1)
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.maximum.reduceat(marked, starts)


def resolve_probability_keys(
    engine, kinds: np.ndarray, ones: np.ndarray, windows: np.ndarray
) -> np.ndarray:
    """Evaluate deferred failure probabilities for aligned key columns.

    The unique ``(kind, ones, window)`` keys are deduplicated with the
    packed-key helper and evaluated once each with the vectorised binomial
    math (falling back to the engine's memoised scalar lookups for
    multi-lane REAP, whose expression differs), then scattered back.
    """
    if len(kinds) == 0:
        return np.zeros(0, dtype=float)
    (u_kinds, u_ones, u_windows), inverse = resolve_unique_keys(kinds, ones, windows)
    p_cell = engine.p_cell
    correctable = engine.correctable_errors
    lanes = engine.interleaving_lanes
    unique_probs = np.zeros(len(u_kinds), dtype=float)

    nonzero = u_ones > 0
    if lanes > 1:
        lane_ones = np.maximum(1, np.round(u_ones / lanes)).astype(np.int64)
    else:
        lane_ones = u_ones

    for kind_code in (_CONVENTIONAL, _SERIAL, _WRITEBACK):
        mask = (u_kinds == kind_code) & nonzero
        if not mask.any():
            continue
        if kind_code == _WRITEBACK:
            # Write-back checks use the raw Eq. (3) tail, with no lane
            # adjustment (mirroring ProtectedCache._handle_eviction).
            unique_probs[mask] = accumulated_failure_probabilities(
                p_cell, u_ones[mask], u_windows[mask], correctable
            )
        else:
            if kind_code == _CONVENTIONAL:
                per_lane = accumulated_failure_probabilities(
                    p_cell, lane_ones[mask], u_windows[mask], correctable
                )
            else:
                per_lane = block_failure_probabilities(
                    p_cell, lane_ones[mask], correctable
                )
            unique_probs[mask] = (
                np.minimum(1.0, lanes * per_lane) if lanes > 1 else per_lane
            )

    reap_mask = (u_kinds == _REAP) & nonzero
    if reap_mask.any():
        if lanes == 1:
            unique_probs[reap_mask] = reap_failure_probabilities(
                p_cell, u_ones[reap_mask], u_windows[reap_mask], correctable
            )
        else:
            # The multi-lane REAP expression goes through the engine's
            # memoised per-key scalar path; unique keys keep this cheap.
            for index in np.flatnonzero(reap_mask):
                unique_probs[index] = engine.reap_probability(
                    int(u_ones[index]), int(u_windows[index])
                )

    return unique_probs[inverse]


def frames_key(packed_keys: np.ndarray, num_sets: int, assoc: int) -> str:
    """Content key of the frame column an empty LRU cache assigns a stream.

    ``packed_keys`` are the per-access ``tag << index_bits | set`` keys.
    From an empty cache, LRU's hit/miss and victim decisions read only this
    sequence and the geometry — not the access kinds, the protection scheme
    or any MTJ/ECC parameter — so the key is shared by every scheme and
    every point of a reliability sweep over one stream.
    """
    digest = hashlib.blake2b(digest_size=20)
    digest.update(np.array([num_sets, assoc], dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(packed_keys, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _stable_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for integers in ``[0, bound)``.

    A stable order is unique, so narrowing small keys to ``uint16`` — which
    NumPy sorts by radix, an order of magnitude faster than its int64
    merge sort — returns the identical permutation.
    """
    if bound <= 1 << 16:
        values = values.astype(np.uint16)
    return np.argsort(values, kind="stable")


def _frames_match(frames, set_indices: np.ndarray, assoc: int) -> bool:
    """Whether a memoised frame column can belong to this stream."""
    return (
        isinstance(frames, np.ndarray)
        and frames.ndim == 1
        and len(frames) == len(set_indices)
        and frames.dtype.kind in "iu"
        and bool(np.all(frames // assoc == set_indices))
        and bool(np.all(frames >= 0))
    )


def _functional_from_frames(
    frames: np.ndarray, codes: np.ndarray, tags: np.ndarray, num_frames: int
) -> tuple[np.ndarray, ...]:
    """Everything the functional pass derives, given each access's frame.

    Valid only for a replay that starts from an empty cache: a frame then
    holds the block of its previous access, so an access misses exactly
    when it is the first on its frame or its block differs from the
    previous one there, and it evicts unless it is the first.  A frame is
    dirty when any access since its last fill wrote.

    Returns ``(miss, evicted, evict_dirty)`` per access, the accessed
    frames with their final ``(tag, dirty, last position)``, and the free
    fills' ``(position, frame)`` in stream order.
    """
    count = len(frames)
    order = _stable_argsort(frames, num_frames)
    f_s = frames[order]
    t_s = tags[order]
    w_s = np.asarray(codes)[order] != 0
    first = np.empty(count, dtype=bool)
    first[0] = True
    np.not_equal(f_s[1:], f_s[:-1], out=first[1:])
    miss_s = first.copy()
    miss_s[1:] |= t_s[1:] != t_s[:-1]
    # Writes per fill group (a miss and the hits that follow it on the
    # frame): the group is dirty at position j when it wrote at or before j.
    writes_cum = np.cumsum(w_s)
    group = np.cumsum(miss_s) - 1
    group_base = (writes_cum - w_s)[miss_s]
    dirty_s = writes_cum > group_base[group]
    evicted_s = miss_s & ~first
    evict_dirty_s = np.zeros(count, dtype=bool)
    evict_dirty_s[1:] = evicted_s[1:] & dirty_s[:-1]

    miss = np.empty(count, dtype=bool)
    evicted = np.empty(count, dtype=bool)
    evict_dirty = np.empty(count, dtype=bool)
    miss[order] = miss_s
    evicted[order] = evicted_s
    evict_dirty[order] = evict_dirty_s

    last = np.empty(count, dtype=bool)
    last[-1] = True
    last[:-1] = first[1:]
    final = (f_s[last], t_s[last], dirty_s[last], order[last])
    free_pos = order[first]
    by_pos = np.argsort(free_pos)
    free_fills = (free_pos[by_pos], f_s[first][by_pos])
    return (miss, evicted, evict_dirty), final, free_fills


class _AccessColumns(NamedTuple):
    """Per-access and per-set columns of a replay that no scheme changes."""

    is_read: np.ndarray
    delivery: np.ndarray  # read hits
    write_hit: np.ndarray
    kind: np.ndarray  # event kind: 0 delivery, 1 write hit, 2 fill
    order_by_set: np.ndarray  # stable (set, position) order
    sorted_read: np.ndarray  # is_read in that order
    rr: np.ndarray  # reads to the access's set at positions <= its own
    nvb: np.ndarray  # valid ways the access sees before its own fill
    reads_per_set: np.ndarray
    read_positions: np.ndarray  # read positions in (set, position) order
    read_offsets: np.ndarray  # per-set offsets into read_positions
    last_read_pos: np.ndarray  # per set, -1 when none
    deliveries_per_frame: np.ndarray
    fills_per_frame: np.ndarray
    energy_layouts: tuple  # without restore rewrites or patrol visits


def _access_columns(
    codes: np.ndarray,
    set_indices: np.ndarray,
    frame: np.ndarray,
    miss_mask: np.ndarray,
    evicted: np.ndarray,
    evict_dirty: np.ndarray,
    init_nvalid: np.ndarray,
    num_sets: int,
    num_frames: int,
) -> _AccessColumns:
    """Hit/miss masks, per-set read ranks and valid-way counts of a stream."""
    count = len(codes)
    is_read = np.asarray(codes) == 0
    hit_mask = ~miss_mask
    delivery = is_read & hit_mask
    write_hit = ~is_read & hit_mask

    # Per-set read ranks: RR[i] = number of reads to set(i) at positions <= i.
    order_by_set = _stable_argsort(set_indices, num_sets)
    sorted_read = is_read[order_by_set]
    set_counts = np.bincount(set_indices, minlength=num_sets)
    set_starts = np.concatenate(([0], np.cumsum(set_counts)[:-1]))
    # Sets with no accesses (e.g. materialised only by patrol visits) have
    # out-of-range start offsets; clip them and mask their values out below.
    safe_starts = np.minimum(set_starts, max(count - 1, 0))
    read_cum = np.cumsum(sorted_read)
    seg_base = np.where(
        set_counts > 0, read_cum[safe_starts] - sorted_read[safe_starts], 0
    )
    rr = np.empty(count, dtype=np.int64)
    rr[order_by_set] = read_cum - np.repeat(seg_base, set_counts)
    # Valid-way count seen by each access (before its own fill): the set's
    # initial occupancy plus the free (non-evicting) fills strictly before.
    free_fill_sorted = (miss_mask & ~evicted)[order_by_set].astype(np.int64)
    ff_cum = np.cumsum(free_fill_sorted)
    ff_base = np.where(
        set_counts > 0, ff_cum[safe_starts] - free_fill_sorted[safe_starts], 0
    )
    nvb = np.empty(count, dtype=np.int32)
    nvb[order_by_set] = (ff_cum - np.repeat(ff_base, set_counts)) - free_fill_sorted
    nvb += init_nvalid[set_indices]

    reads_per_set = np.bincount(set_indices[is_read], minlength=num_sets)
    # Read positions in (set, position) order, with per-set offsets; the
    # last read of a set is the final entry of its span (-1 when none).
    read_positions = order_by_set[sorted_read]
    read_offsets = np.concatenate(([0], np.cumsum(reads_per_set)))
    if read_positions.size:
        last_read_pos = np.where(
            reads_per_set > 0,
            read_positions[np.maximum(read_offsets[1:] - 1, 0)],
            -1,
        )
    else:
        # No reads at all (possible for short streaming segments): every
        # set's last-read position is the "none" sentinel.
        last_read_pos = np.full(num_sets, -1, dtype=np.int64)
    return _AccessColumns(
        is_read=is_read,
        delivery=delivery,
        write_hit=write_hit,
        kind=np.where(delivery, 0, np.where(write_hit, 1, 2)).astype(np.int8),
        order_by_set=order_by_set,
        sorted_read=sorted_read,
        rr=rr,
        nvb=nvb,
        reads_per_set=reads_per_set,
        read_positions=read_positions,
        read_offsets=read_offsets,
        last_read_pos=last_read_pos,
        deliveries_per_frame=np.bincount(frame[delivery], minlength=num_frames),
        fills_per_frame=np.bincount(frame[miss_mask], minlength=num_frames),
        energy_layouts=_energy_layouts(is_read, ~delivery, evict_dirty),
    )


class _EventColumns(NamedTuple):
    """The per-frame chronological event stream of a replay.

    One event per access (kind 0 delivery, 1 write hit, 2 fill) plus one
    per patrol scrub (kind 3, after the access at the same position),
    sorted by frame, then time.
    """

    perm: np.ndarray  # event order -> index into (accesses, visits)
    f_s: np.ndarray
    pos_s: np.ndarray
    kind_s: np.ndarray
    event_of_access: np.ndarray  # sorted event index of each access
    new_frame: np.ndarray
    seg_starts: np.ndarray  # first event of each frame's segment
    seg_frames: np.ndarray
    setter: np.ndarray  # write hits and fills set the ones count
    setter_ones: np.ndarray
    ones_after: np.ndarray  # frame's ones count after each event
    ones_at_acc: np.ndarray  # ones count each access finds, in access order
    last_any: np.ndarray  # per frame: its last event (-1 when none)
    last_own: np.ndarray  # per frame: its last access event
    first_fill: np.ndarray  # per frame: its first fill event


def _event_columns(
    frame: np.ndarray,
    access_kind: np.ndarray,
    samples: np.ndarray,
    init_ones: np.ndarray,
    num_frames: int,
    visits_pos: np.ndarray,
    visits_frame: np.ndarray,
) -> _EventColumns:
    """Sort the accesses and patrol scrubs into per-frame event streams."""
    count = len(frame)
    num_visits = len(visits_pos)
    access_index = np.arange(count, dtype=np.int64)
    if num_visits:
        evt_frame = np.concatenate((frame, visits_frame))
        evt_pos = np.concatenate((access_index, visits_pos))
        evt_sub = np.concatenate(
            (np.zeros(count, dtype=np.int64), np.ones(num_visits, dtype=np.int64))
        )
        evt_kind = np.concatenate((access_kind, np.full(num_visits, 3, np.int8)))
        perm = np.lexsort((evt_sub, evt_pos, evt_frame))
        f_s = evt_frame[perm]
        pos_s = evt_pos[perm]
        kind_s = evt_kind[perm]
        own_mask_s = kind_s < 3
        ai_s = np.where(own_mask_s, perm, -1)
    else:
        # Positions are already ascending: a stable frame sort is the
        # (frame, position) order.
        perm = _stable_argsort(frame, num_frames)
        f_s = frame[perm]
        pos_s = ai_s = perm
        kind_s = access_kind[perm]
        own_mask_s = np.ones(count, dtype=bool)
    num_events = len(f_s)
    event_index = np.arange(num_events, dtype=np.int64)
    event_of_access = np.empty(count, dtype=np.int64)
    event_of_access[perm[own_mask_s]] = event_index[own_mask_s]

    new_frame = np.empty(num_events, dtype=bool)
    new_frame[0] = True
    new_frame[1:] = f_s[1:] != f_s[:-1]
    seg_starts = np.flatnonzero(new_frame)
    seg_frames = f_s[seg_starts]
    seg_counts = np.diff(np.concatenate((seg_starts, [num_events])))
    seg_last = seg_starts + seg_counts - 1

    # Ones value after each event (forward-filled setter values).
    setter = (kind_s == 1) | (kind_s == 2)
    setter_ones = np.where(setter, samples[np.maximum(ai_s, 0)], 0)
    ffill_idx = np.maximum.accumulate(np.where(setter, event_index, -1))
    has_setter = ffill_idx >= np.repeat(seg_starts, seg_counts)
    ones_after = np.where(
        has_setter, setter_ones[np.maximum(ffill_idx, 0)], init_ones[f_s]
    )
    # The value an event finds is the one its predecessor on the frame left.
    ones_before = np.empty(num_events, dtype=np.int32)
    ones_before[1:] = ones_after[:-1]
    ones_before[seg_starts] = init_ones[seg_frames]

    last_any = np.full(num_frames, -1, dtype=np.int64)
    last_any[seg_frames] = seg_last
    last_own = np.full(num_frames, -1, dtype=np.int64)
    last_own[seg_frames] = _segment_last_where(own_mask_s, seg_starts)
    first_fill = np.full(num_frames, -1, dtype=np.int64)
    fill_flags = kind_s == 2
    if fill_flags.any():
        first_idx = np.where(fill_flags, event_index, num_events)
        first_fill_seg = np.minimum.reduceat(first_idx, seg_starts)
        first_fill[seg_frames] = np.where(
            first_fill_seg == num_events, -1, first_fill_seg
        )
    return _EventColumns(
        perm=perm,
        f_s=f_s,
        pos_s=pos_s,
        kind_s=kind_s,
        event_of_access=event_of_access,
        new_frame=new_frame,
        seg_starts=seg_starts,
        seg_frames=seg_frames,
        setter=setter,
        setter_ones=setter_ones,
        ones_after=ones_after,
        ones_at_acc=ones_before[event_of_access],
        last_any=last_any,
        last_own=last_own,
        first_fill=first_fill,
    )


class SharedStream:
    """The scheme-independent half of a replay, shared by a comparison.

    From an empty cache under exact LRU, pass 1 and everything pass 2
    derives from its decisions read only the access stream, the geometry
    and the ones-count samples -- not the scheme or any reliability
    parameter.  A :class:`repro.sim.fastpath.FrameMemo` keeps one of these
    per stream, so the other schemes of a comparison reuse the functional
    results, the access columns and the event stream (without patrol
    scrubs: scrubbing sorts its own).  Matching is exact: the stream's
    packed keys, kind codes and samples are compared in full.
    """

    __slots__ = (
        "geometry",
        "packed_keys",
        "codes",
        "samples",
        "functional",
        "access",
        "events",
    )

    def __init__(
        self, geometry, packed_keys, codes, samples, functional, access
    ) -> None:
        self.geometry = geometry
        self.packed_keys = packed_keys
        self.codes = codes
        self.samples = samples
        self.functional = functional
        self.access = access
        self.events: _EventColumns | None = None

    def matches(self, geometry, packed_keys, codes, samples) -> bool:
        """Whether this entry was computed from exactly this stream."""
        return (
            self.geometry == geometry
            and np.array_equal(self.packed_keys, packed_keys)
            and np.array_equal(self.codes, codes)
            and np.array_equal(self.samples, samples)
        )


def replay_l2_soa(
    cache,
    codes: np.ndarray,
    set_indices: np.ndarray,
    tags: np.ndarray,
    scheme_mode: int,
    frame_memo=None,
) -> None:
    """Drive ``cache`` through the decoded stream with the SoA kernel.

    The cache ends in the exact state the reference per-record loop would
    leave it in.

    Args:
        cache: A fast-path-capable :class:`~repro.core.ProtectedCache`.
        codes: Per-access kind codes (0 read, 1 write).
        set_indices: Per-access set indices.
        tags: Per-access tags.
        scheme_mode: The delivery-kind code for the scheme (``_CONVENTIONAL``,
            ``_REAP`` or ``_SERIAL``).
        frame_memo: Optional :class:`repro.sim.fastpath.FrameMemo`.  When
            the cache is empty and uses exact LRU, the functional pass looks
            the stream's frame column up under :func:`frames_key` and, on a
            hit, derives its results from the column instead of replaying
            access by access; a miss replays and stores the column.
    """
    count = len(codes)
    if count == 0:
        return

    restore = type(cache) is RestoreCache
    scrubbing = type(cache) is ScrubbingCache
    substrate = cache.cache
    pristine = substrate.is_pristine()
    assoc = substrate.associativity
    policy = substrate.replacement
    engine = cache.engine
    rel_stats = engine.stats
    stats = substrate.stats
    totals = cache.energy

    # One ones-count sample per access, consumed in trace order exactly as
    # the per-access sample() calls of the scalar loops.  Ones counts (at
    # most the block's bits) and valid-way counts are held as int32: a
    # comparison keeps its shared pass-2 columns (SharedStream) alive.
    samples = np.asarray(cache.data_profile.sample_many(count), dtype=np.int32)

    # -- policy scheduling --------------------------------------------------------
    soa_mode, uses_exposure = effective_soa_scheduling(policy)
    pol_globals = policy.compact_globals()
    pol_access = policy.compact_on_access
    pol_fill = policy.compact_on_fill
    pol_victim = policy.compact_victim
    position_mode = soa_mode == "position"
    ordered_mode = soa_mode == "ordered"
    fill_only_mode = soa_mode == "fill-only"
    tick_base = policy.soa_tick_base() if position_mode else 0
    # Exposure bookkeeping (only when a policy's victim choice reads it):
    # under the accumulating schemes the live unchecked count of a way is
    # the set's read rank minus the rank at the way's last reset; under the
    # self-scrubbing schemes it is the initial exposure until any reset.
    exp_is_rr = scheme_mode == _CONVENTIONAL and not restore
    exp_reads_reset = restore or scheme_mode == _REAP

    # -- pass 1: functional replay ------------------------------------------------
    # Phase spans use the explicit start()/finish() pair: reindenting the
    # two ~300-line passes under ``with`` blocks would obscure the kernel.
    scheme_name = cache.scheme_name()
    pass1_span = telemetry_span(
        "kernel.pass1", scheme=scheme_name, accesses=count
    ).start()
    # Per-set state lives in flat, frame-indexed Python lists (frame id =
    # set * associativity + way), materialised lazily per touched set.  All
    # resident lines share one dict keyed by the packed (tag, set) address
    # and valued with the frame id, so the hit path is a single dict probe
    # plus a couple of flat-list stores.
    num_sets = substrate.num_sets
    index_bits = num_sets.bit_length() - 1
    materialised = [False] * num_sets
    rows: list = [None] * num_sets
    nvalid_l = [0] * num_sets
    total_frame_count = num_sets * assoc
    tags_l = [0] * total_frame_count
    valid_l = [False] * total_frame_count
    dirty_l = [False] * total_frame_count
    pend_l = [-1] * total_frame_count if position_mode else None
    queues: list = [None] * num_sets if ordered_mode else None
    exp_l = [0] * total_frame_count if uses_exposure else None
    rr_l = [0] * num_sets if uses_exposure else None
    touched_sets: list[int] = []
    zeros_exposure = [0] * assoc
    apply_positions = (
        policy.soa_apply_last_positions if position_mode else None
    )
    victim_positions = (
        policy.soa_victim_positions if position_mode else None
    )
    resident: dict[int, int] = {}

    init_nvalid = [0] * num_sets

    def materialise(set_index: int) -> None:
        blocks = substrate.cache_set(set_index).blocks
        base = set_index * assoc
        nvalid = 0
        # A pristine cache's blocks hold the defaults the lists start with.
        for way, block in enumerate(() if pristine else blocks):
            f = base + way
            tags_l[f] = block.tag
            if block.valid:
                valid_l[f] = True
                resident[(block.tag << index_bits) | set_index] = f
                nvalid += 1
            dirty_l[f] = block.dirty
            if uses_exposure:
                exp_l[f] = -block.unchecked_reads
        nvalid_l[set_index] = nvalid
        init_nvalid[set_index] = nvalid
        rows[set_index] = policy.export_set_state(set_index)
        if ordered_mode:
            queues[set_index] = []
        materialised[set_index] = True
        touched_sets.append(set_index)

    way_arr = [0] * count
    miss_positions: list[int] = []
    evicted_flags: list[bool] = []
    evict_dirty_flags: list[bool] = []
    vis_pos: list[int] = []
    vis_set: list[int] = []
    vis_way: list[int] = []

    if scrubbing:
        scrub_rate = cache.scrub_rate
        scrub_credit, scrub_cursor, scrubbed_lines, total_frames = (
            cache.patrol_walk_state()
        )
    # The patrol scrubber only interacts with the functional replay through
    # the exposure counters some policies' victim choice reads (LER).  For
    # every other policy the patrol rate is constant and the valid-frame set
    # grows monotonically, so the whole visit log has a closed form and is
    # reconstructed vectorised after the loop instead of walking frames
    # per access inside it.
    patrol_inline = scrubbing and uses_exposure
    patrol_closed_form = scrubbing and not uses_exposure
    fill_log_pos: list[int] = []
    fill_log_frame: list[int] = []

    # Packed (tag, set) keys for the shared residency dict.
    packed_keys = (tags << index_bits) | set_indices
    way_range = range(assoc)
    fast_loop = position_mode and not uses_exposure

    def handle_miss(i: int, set_index: int, key: int, code: int) -> None:
        """Shared miss path: victim choice, eviction bookkeeping, fill."""
        base = set_index * assoc
        nvalid = nvalid_l[set_index]
        miss_positions.append(i)
        if nvalid < assoc:
            for way in way_range:
                if not valid_l[base + way]:
                    victim = base + way
                    break
            valid_l[victim] = True
            nvalid_l[set_index] = nvalid + 1
            evicted_flags.append(False)
            evict_dirty_flags.append(False)
            if patrol_closed_form:
                # Free fills are the only events that grow the patrol's
                # valid-frame set; log them for the closed-form replay.
                fill_log_pos.append(i)
                fill_log_frame.append(victim)
        else:
            row = rows[set_index]
            if ordered_mode:
                queue = queues[set_index]
                if queue:
                    policy.compact_on_access_batch(pol_globals, row, queue)
                    queue.clear()
            if uses_exposure:
                if exp_is_rr:
                    rank = rr_l[set_index]
                    exposure = [
                        rank - exp_base for exp_base in exp_l[base : base + assoc]
                    ]
                elif exp_reads_reset and rr_l[set_index] > 0:
                    exposure = zeros_exposure
                else:
                    exposure = [
                        -exp_base for exp_base in exp_l[base : base + assoc]
                    ]
            else:
                exposure = zeros_exposure
            if position_mode:
                # No flush: the policy picks a victim over the mixed stored
                # and deferred timestamps directly.
                victim = base + victim_positions(
                    pol_globals, row, pend_l[base : base + assoc], tick_base, exposure
                )
            else:
                victim = base + pol_victim(pol_globals, row, exposure)
            evicted_flags.append(True)
            evict_dirty_flags.append(dirty_l[victim])
            del resident[(tags_l[victim] << index_bits) | set_index]
        tags_l[victim] = key >> index_bits
        dirty_l[victim] = code != 0
        resident[key] = victim
        way_arr[i] = victim
        if uses_exposure:
            exp_l[victim] = rr_l[set_index] if exp_is_rr else 0
        if position_mode:
            pend_l[victim] = i
        elif ordered_mode:
            queues[set_index].append(victim - base)
        else:
            pol_fill(pol_globals, rows[set_index], victim - base)

    # Set when the frame column came from ``frame_memo``: the frames and
    # what the functional pass derives from them (_functional_from_frames).
    functional = None
    # The memo's entry for this stream, once found or computed.
    shared = None
    memo_eligible = (
        fast_loop
        and frame_memo is not None
        and type(policy) is LRUPolicy
        and pristine
    )
    if fast_loop:
        # The common case (LRU-family policy, no patrol scrubber): the hit
        # path is one dict probe plus two flat stores, with the replacement
        # transition deferred as a last-touch position.  All touched sets
        # are materialised up front so the loop never branches on it.
        memo_key = None
        if memo_eligible:
            shared = frame_memo.find_stream(
                (num_sets, assoc), packed_keys, codes, samples
            )
        if shared is not None:
            functional = shared.functional
        elif memo_eligible:
            memo_key = frames_key(packed_keys, num_sets, assoc)
            frames = frame_memo.get(memo_key)
            if frames is not None and _frames_match(frames, set_indices, assoc):
                frames = frames.astype(np.int64)
                functional = (
                    frames,
                    *_functional_from_frames(frames, codes, tags, total_frame_count),
                )
        for set_index in np.flatnonzero(
            np.bincount(set_indices, minlength=num_sets)
        ).tolist():
            materialise(set_index)
        if functional is not None:
            way_arr, derived, final, free_fills = functional
            for f, tag, dirty, last_pos in zip(*(column.tolist() for column in final)):
                tags_l[f] = tag
                valid_l[f] = True
                dirty_l[f] = dirty
                pend_l[f] = last_pos
            fill_log_pos, fill_log_frame = (column.tolist() for column in free_fills)
        else:
            resident_get = resident.get
            set_list = set_indices.tolist()
            for i, (key, code) in enumerate(
                zip(packed_keys.tolist(), codes.tolist())
            ):
                hit_frame = resident_get(key)
                if hit_frame is not None:
                    way_arr[i] = hit_frame
                    pend_l[hit_frame] = i
                    if code:
                        dirty_l[hit_frame] = True
                else:
                    handle_miss(i, set_list[i], key, code)
            if memo_key is not None:
                frame_memo.put(memo_key, np.array(way_arr, dtype=np.int32))
    else:
        resident_get = resident.get
        for i, (set_index, key, code) in enumerate(
            zip(set_indices.tolist(), packed_keys.tolist(), codes.tolist())
        ):
            if not materialised[set_index]:
                materialise(set_index)
            if uses_exposure and code == 0:
                rr_l[set_index] += 1
            hit_frame = resident_get(key)
            if hit_frame is not None:
                way_arr[i] = hit_frame
                if code:
                    dirty_l[hit_frame] = True
                if uses_exposure:
                    exp_l[hit_frame] = rr_l[set_index] if exp_is_rr else 0
                if position_mode:
                    pend_l[hit_frame] = i
                elif ordered_mode:
                    queues[set_index].append(hit_frame - set_index * assoc)
                elif not fill_only_mode:
                    pol_access(
                        pol_globals, rows[set_index], hit_frame - set_index * assoc
                    )
            else:
                handle_miss(i, set_index, key, code)

            if patrol_inline:
                scrub_credit += scrub_rate
                while scrub_credit >= 1.0:
                    scrub_credit -= 1.0
                    for _ in range(total_frames):
                        patrol_frame = scrub_cursor
                        scrub_cursor = (scrub_cursor + 1) % total_frames
                        s_set, s_way = divmod(patrol_frame, assoc)
                        if materialised[s_set]:
                            s_valid = valid_l[patrol_frame]
                        else:
                            s_valid = (
                                substrate.cache_set(s_set).blocks[s_way].valid
                            )
                            if s_valid:
                                materialise(s_set)
                        if not s_valid:
                            continue
                        vis_pos.append(i)
                        vis_set.append(s_set)
                        vis_way.append(s_way)
                        scrubbed_lines += 1
                        if uses_exposure:
                            # A patrol check scrubs the visited way's exposure.
                            exp_l[patrol_frame] = (
                                rr_l[s_set] if exp_is_rr else 0
                            )
                        break

    if patrol_closed_form:
        # Closed-form patrol replay: the constant rate fixes the per-access
        # visit counts (exact credit arithmetic, cycle-detected) and the
        # monotone valid-frame intervals fix which frame each visit lands
        # on; both reconstruct vectorised, bit-identical to the inline walk.
        visits_per_access, scrub_credit = _patrol_visit_schedule(
            scrub_credit, scrub_rate, count
        )
        vis_pos, vis_frames, scrub_cursor = _patrol_visit_frames(
            visits_per_access,
            fill_log_pos,
            fill_log_frame,
            _initial_valid_frames(substrate, num_sets, assoc),
            scrub_cursor,
            total_frames,
        )
        scrubbed_lines += len(vis_frames)
        vis_set = vis_frames // assoc
        vis_way = vis_frames - vis_set * assoc
        # Patrol-visited sets join the touched set for pass 2's write-back,
        # exactly as the inline walk materialises them on first visit.
        for set_index in np.unique(vis_set).tolist():
            if not materialised[set_index]:
                materialise(set_index)

    # Flush deferred replacement transitions and write the policy state back.
    for set_index in touched_sets:
        row = rows[set_index]
        if position_mode:
            base = set_index * assoc
            apply_positions(row, pend_l[base : base + assoc], tick_base)
        elif ordered_mode and queues[set_index]:
            policy.compact_on_access_batch(pol_globals, row, queues[set_index])
        policy.import_set_state(set_index, row)
    if position_mode:
        policy.soa_commit(tick_base, count)
    pass1_span.finish()

    # -- pass 2: vectorised reliability, energy and block state -------------------
    pass2_span = telemetry_span(
        "kernel.pass2", scheme=scheme_name, accesses=count
    ).start()
    frame = np.asarray(way_arr, dtype=np.int64)
    num_frames = total_frame_count

    if functional is not None:
        miss_mask, evicted, evict_dirty = derived
    else:
        miss_mask = np.zeros(count, dtype=bool)
        evicted = np.zeros(count, dtype=bool)
        evict_dirty = np.zeros(count, dtype=bool)
        if miss_positions:
            miss_idx = np.array(miss_positions, dtype=np.int64)
            miss_mask[miss_idx] = True
            evicted[miss_idx] = np.array(evicted_flags, dtype=bool)
            evict_dirty[miss_idx] = np.array(evict_dirty_flags, dtype=bool)

    # Initial (pre-replay) per-frame state, read from the untouched blocks;
    # a pristine cache has none, so every field starts at zero.
    init_ones = np.zeros(num_frames, dtype=np.int32)
    init_valid = np.zeros(num_frames, dtype=bool)
    if pristine:
        init_unch = init_rsd = init_reads = init_conc = init_checks = init_ones
        init_fills = init_tick = init_ones
    else:
        init_unch = np.zeros(num_frames, dtype=np.int64)
        init_rsd = np.zeros(num_frames, dtype=np.int64)
        init_reads = np.zeros(num_frames, dtype=np.int64)
        init_conc = np.zeros(num_frames, dtype=np.int64)
        init_checks = np.zeros(num_frames, dtype=np.int64)
        init_fills = np.zeros(num_frames, dtype=np.int64)
        init_tick = np.zeros(num_frames, dtype=np.int64)
        for set_index in touched_sets:
            base = set_index * assoc
            blocks = substrate.cache_set(set_index).blocks
            for way_index, block in enumerate(blocks):
                f = base + way_index
                init_ones[f] = block.ones_count
                init_unch[f] = block.unchecked_reads
                init_rsd[f] = block.reads_since_demand
                init_reads[f] = block.total_reads
                init_conc[f] = block.total_concealed_reads
                init_checks[f] = block.total_checks
                init_fills[f] = block.fills
                init_tick[f] = block.last_access_tick
                init_valid[f] = block.valid

    if shared is not None:
        access = shared.access
    else:
        access = _access_columns(
            codes,
            set_indices,
            frame,
            miss_mask,
            evicted,
            evict_dirty,
            np.asarray(init_nvalid, dtype=np.int64),
            num_sets,
            num_frames,
        )
        if memo_eligible:
            if functional is None:
                # What _functional_from_frames would derive, from the loop.
                accessed = np.flatnonzero(access.fills_per_frame).tolist()
                free = np.flatnonzero(miss_mask & ~evicted)
                functional = (
                    frame,
                    (miss_mask, evicted, evict_dirty),
                    (
                        np.array(accessed, dtype=np.int64),
                        np.array([tags_l[f] for f in accessed], dtype=np.int64),
                        np.array([dirty_l[f] for f in accessed], dtype=bool),
                        np.array([pend_l[f] for f in accessed], dtype=np.int64),
                    ),
                    (free, frame[free]),
                )
            shared = SharedStream(
                (num_sets, assoc), packed_keys, codes, samples, functional, access
            )
            frame_memo.keep_stream(shared)
    is_read = access.is_read
    delivery = access.delivery
    write_hit = access.write_hit
    rr = access.rr
    nvb = access.nvb
    reads_per_set = access.reads_per_set
    # Frames never turn invalid during a replay (evictions refill in place).
    final_valid = init_valid | (access.fills_per_frame > 0)

    # Scrub-visit read ranks via one packed searchsorted over read positions
    # sorted by (set, position).
    num_visits = len(vis_pos)
    if num_visits:
        visits_pos = np.array(vis_pos, dtype=np.int64)
        visits_set = np.array(vis_set, dtype=np.int64)
        visits_frame = visits_set * assoc + np.array(vis_way, dtype=np.int64)
        read_positions = access.read_positions
        read_keys_sorted = set_indices[read_positions] * (count + 1) + read_positions
        visits_rank = (
            np.searchsorted(
                read_keys_sorted, visits_set * (count + 1) + visits_pos, side="right"
            )
            - access.read_offsets[visits_set]
        )
    else:
        visits_pos = np.zeros(0, dtype=np.int64)
        visits_frame = np.zeros(0, dtype=np.int64)
        visits_rank = np.zeros(0, dtype=np.int64)

    # -- frame-chronological event streams ----------------------------------------
    events = shared.events if shared is not None and not num_visits else None
    if events is None:
        events = _event_columns(
            frame, access.kind, samples, init_ones, num_frames, visits_pos, visits_frame
        )
        if shared is not None and not num_visits:
            shared.events = events
    f_s = events.f_s
    kind_s = events.kind_s
    seg_starts = events.seg_starts
    seg_frames = events.seg_frames
    num_events = len(f_s)
    serial_scheme = scheme_mode == _SERIAL
    reap_like = restore or scheme_mode == _REAP
    if serial_scheme:
        # Serial reads check every delivery: no rank ever accumulates.
        R_s = np.zeros(num_events, dtype=np.int64)
    elif num_visits:
        R_s = np.concatenate((rr, visits_rank))[events.perm]
    else:
        R_s = rr[events.perm]

    # Window deltas: read rank at each event minus the rank at the previous
    # event of the same frame; the first event of a frame is seeded with the
    # initial exposure so warm-cache windows continue exactly.
    if scheme_mode == _REAP:
        first_seed = -init_rsd[seg_frames]
    else:
        first_seed = -init_unch[seg_frames]
    prev_R = np.empty(num_events, dtype=np.int64)
    prev_R[1:] = R_s[:-1]
    prev_R[seg_starts] = first_seed
    delta = R_s - prev_R

    first_event = events.new_frame
    # Delivery windows and concealed counts per scheme family.
    if scheme_mode == _CONVENTIONAL and not restore:
        win_evt = delta
        conc_evt = delta - 1
    elif scheme_mode == _SERIAL:
        win_evt = delta + 1
        conc_evt = delta
    elif scheme_mode == _REAP:
        win_evt = delta
        conc_evt = np.where(
            first_event & (R_s == 1) & init_valid[f_s], init_unch[f_s], 0
        )
    else:  # restore
        residual = np.where(
            first_event & (R_s == 1) & init_valid[f_s], init_unch[f_s], 0
        )
        win_evt = residual + 1
        conc_evt = residual

    # Evicted-block exposure at fill events (the fill closes the previous
    # occupant's accumulation window).
    if reap_like:
        evicted_unch_evt = np.where(
            first_event & (R_s == 0) & init_valid[f_s], init_unch[f_s], 0
        )
    else:
        evicted_unch_evt = delta

    # -- deferred probability events, statistics and tracker ----------------------
    ones_at_acc = events.ones_at_acc
    wb_mask = (
        evicted & evict_dirty & (ones_at_acc > 0)
        if cache.count_writeback_checks
        else np.zeros(count, dtype=bool)
    )
    delivery_kind = (
        _REAP
        if scheme_mode == _REAP
        else (_SERIAL if serial_scheme else _CONVENTIONAL)
    )
    ef_mask = delivery | wb_mask
    ef_delivery = delivery[ef_mask]
    ef_events = events.event_of_access[ef_mask]
    ef_win = win_evt[ef_events]
    ef_evicted = evicted_unch_evt[ef_events] + 1
    ef_kind = np.where(ef_delivery, delivery_kind, _WRITEBACK)
    ef_ones = ones_at_acc[ef_mask]
    ef_pwin = np.where(ef_delivery, 1 if serial_scheme else ef_win, ef_evicted)
    ef_cwin = np.where(ef_delivery, ef_win, ef_evicted)

    probabilities = resolve_probability_keys(engine, ef_kind, ef_ones, ef_pwin)
    rel_stats.record_check_array(ef_cwin, probabilities)
    num_deliveries = int(np.count_nonzero(delivery))
    if scheme_mode == _CONVENTIONAL and not restore:
        concealed_events = int(nvb[is_read].sum()) - num_deliveries
        rel_stats.record_concealed(concealed_events)
    if reap_like:
        rel_stats.scrub_events += int(nvb[is_read].sum()) - num_deliveries
    elif scrubbing:
        rel_stats.scrub_events += num_visits
    tracker = engine.tracker
    if tracker is not None:
        delivery_events = events.event_of_access[delivery]
        tracker.record_sample_arrays(
            conc_evt[delivery_events], ones_at_acc[delivery]
        )

    # -- restore: per-way rewrite probabilities, in (access, way) order -----------
    if restore:
        _record_restores(
            cache,
            count,
            assoc,
            access.order_by_set,
            access.sorted_read,
            reads_per_set,
            rr,
            seg_frames,
            seg_starts,
            f_s,
            events.pos_s,
            kind_s,
            events.setter,
            events.setter_ones,
            init_ones,
            init_valid,
            frame,
            ~miss_mask,
        )

    # -- energy: every accumulator's per-access addend sequence -------------------
    model = cache.energy_model
    tag_e = model.tag_lookup_energy_pj()
    way_e = model.way_read_energy_pj()
    dec_e = model.ecc_decode_energy_pj()
    mux_e = model.mux_energy_pj()
    write_breakdown = model.write_access_energy()
    way_write_e = model.way_write_energy_pj()
    enc_e = model.ecc_encode_energy_pj()

    if scheme_mode == _REAP:
        ways_read = np.where(is_read, nvb, 0)
        decodes = ways_read
    elif serial_scheme:
        ways_read = delivery.astype(np.int64)
        decodes = ways_read
    else:
        ways_read = np.where(is_read, nvb, 0)
        decodes = delivery.astype(np.int64)
    data_way_reads = int(ways_read.sum())
    ecc_decodes = int(decodes.sum())

    if restore or num_visits:
        later = evict_dirty.astype(np.int64)
        if num_visits:
            later += np.bincount(visits_pos, minlength=count)
        tag_runs, demand_runs, write_runs = _energy_layouts(
            is_read, ~delivery, later, np.where(is_read, nvb, 0) if restore else 0
        )
    else:
        tag_runs, demand_runs, write_runs = access.energy_layouts
    totals.tag_pj = _fold_runs(
        totals.tag_pj, tag_runs, tag_e, write_breakdown.tag_pj
    )
    totals.data_read_pj = _fold_runs(
        totals.data_read_pj, demand_runs, way_e, ways_read[is_read] * way_e
    )
    totals.data_write_pj = _fold_runs(
        totals.data_write_pj, write_runs, way_write_e, write_breakdown.data_array_pj
    )
    totals.ecc_encode_pj = _fold_runs(
        totals.ecc_encode_pj, write_runs, enc_e, write_breakdown.ecc_pj
    )
    totals.ecc_decode_pj = _fold_runs(
        totals.ecc_decode_pj, demand_runs, dec_e, decodes[is_read] * dec_e
    )
    totals.mux_pj = _fold_runs(totals.mux_pj, (demand_runs[0], None), mux_e)

    # -- functional statistics ----------------------------------------------------
    num_reads = int(np.count_nonzero(is_read))
    num_write_hits = int(np.count_nonzero(write_hit))
    num_misses = count - num_deliveries - num_write_hits
    stats.demand_reads += num_reads
    stats.demand_writes += count - num_reads
    stats.read_hits += num_deliveries
    stats.read_misses += num_reads - num_deliveries
    stats.write_hits += num_write_hits
    stats.write_misses += (count - num_reads) - num_write_hits
    stats.fills += num_misses
    stats.evictions += int(np.count_nonzero(evicted))
    stats.dirty_evictions += int(np.count_nonzero(evict_dirty))
    stats.data_way_reads += data_way_reads
    stats.data_way_writes += num_misses + num_write_hits
    stats.ecc_decodes += ecc_decodes
    stats.tag_comparisons += count * assoc

    # -- final per-frame block state ----------------------------------------------
    scheme_tick0 = cache._tick  # noqa: SLF001 - engine-internal state sync
    substrate_tick0 = substrate._tick  # noqa: SLF001 - engine-internal state sync

    pos_s = events.pos_s
    last_any = events.last_any
    last_own = events.last_own
    first_fill = events.first_fill
    last_read_pos = access.last_read_pos
    deliveries_per_frame = access.deliveries_per_frame
    scrubs_per_frame = (
        np.bincount(visits_frame, minlength=num_frames)
        if num_visits
        else np.zeros(num_frames, dtype=np.int64)
    )

    set_of_frame = np.arange(num_frames, dtype=np.int64) // assoc
    r_end = reads_per_set[set_of_frame]
    has_own = last_own >= 0
    has_any = last_any >= 0
    r_at_last_own = np.where(has_own, R_s[np.maximum(last_own, 0)], -init_rsd)
    r_at_last_any = np.where(has_any, R_s[np.maximum(last_any, 0)], -init_unch)
    # Reads counted while the frame was resident: from the start for
    # initially valid frames, from the first fill otherwise.
    valid_from_r = np.where(
        init_valid, 0, np.where(first_fill >= 0, R_s[np.maximum(first_fill, 0)], 0)
    )
    resident_mask = final_valid
    reads_while_valid = np.where(resident_mask, r_end - valid_from_r, 0)

    # Patrol scrubs on a frame after its last demand (own) event: they keep
    # incrementing reads_since_demand, which only demand events reset.
    if num_visits:
        seg_start_of_frame = np.full(num_frames, 0, dtype=np.int64)
        seg_start_of_frame[seg_frames] = seg_starts
        exclusive_scrubs = np.concatenate(([0], np.cumsum(kind_s == 3)))
        range_low = np.where(has_own, last_own + 1, seg_start_of_frame)
        scrubs_after_own = np.where(
            has_any,
            exclusive_scrubs[last_any + 1] - exclusive_scrubs[range_low],
            0,
        )
    else:
        scrubs_after_own = np.zeros(num_frames, dtype=np.int64)

    final_ones = np.where(
        has_any, events.ones_after[np.maximum(last_any, 0)], init_ones
    )
    if scheme_mode == _CONVENTIONAL and not restore:
        final_unch = np.where(resident_mask, r_end - r_at_last_any, init_unch)
        final_rsd = (
            np.where(resident_mask, r_end - r_at_last_own, init_rsd)
            + scrubs_after_own
        )
        reads_gain = reads_while_valid + scrubs_per_frame
        conc_gain = reads_while_valid - deliveries_per_frame
        checks_gain = deliveries_per_frame + scrubs_per_frame
    elif serial_scheme:
        final_unch = np.where(has_own, 0, init_unch)
        final_rsd = np.where(has_own, 0, init_rsd)
        reads_gain = deliveries_per_frame
        conc_gain = np.zeros(num_frames, dtype=np.int64)
        checks_gain = deliveries_per_frame
    else:  # REAP and restore
        touched = has_own | (resident_mask & (reads_while_valid > 0))
        final_unch = np.where(touched, 0, init_unch)
        final_rsd = np.where(resident_mask, r_end - r_at_last_own, init_rsd)
        reads_gain = reads_while_valid
        conc_gain = np.zeros(num_frames, dtype=np.int64)
        checks_gain = reads_while_valid

    # Recency ticks: the last writer wins.  For the accumulating schemes
    # every event on a frame writes a tick (deliveries and patrol scrubs use
    # the scheme counter, write hits and fills the substrate counter); for
    # REAP and restore every set read additionally ticks all resident ways,
    # with own events taking precedence at equal positions because the
    # fill/write happens after the scheme's way loop.
    own_pos = np.where(has_own, pos_s[np.maximum(last_own, 0)], -1)
    own_kind = np.where(has_own, kind_s[np.maximum(last_own, 0)], -1)
    if reap_like:
        first_fill_pos = np.where(
            first_fill >= 0, pos_s[np.maximum(first_fill, 0)], -1
        )
        candidate = last_read_pos[set_of_frame]
        candidate = np.where(
            resident_mask & (candidate >= first_fill_pos), candidate, -1
        )
        own_key = np.where(has_own, own_pos * 2 + 1, -1)
        read_key = np.where(candidate >= 0, candidate * 2, -1)
        use_own = own_key >= read_key
        tick_pos = np.where(use_own, own_pos, candidate)
        tick_scheme_base = np.where(use_own, own_kind == 0, True)
        has_tick = (own_key >= 0) | (read_key >= 0)
    else:
        last_any_kind = np.where(has_any, kind_s[np.maximum(last_any, 0)], -1)
        tick_pos = np.where(has_any, pos_s[np.maximum(last_any, 0)], -1)
        tick_scheme_base = (last_any_kind == 0) | (last_any_kind == 3)
        has_tick = has_any
    final_tick = np.where(
        has_tick,
        np.where(tick_scheme_base, scheme_tick0, substrate_tick0) + tick_pos + 1,
        init_tick,
    )

    # -- write everything back (touched frames only) ------------------------------
    touched_arr = np.asarray(touched_sets, dtype=np.int64)
    touched_frames = np.repeat(touched_arr * assoc, assoc) + np.tile(
        np.arange(assoc, dtype=np.int64), len(touched_sets)
    )
    final_ones_l = final_ones[touched_frames].tolist()
    final_unch_l = final_unch[touched_frames].tolist()
    final_rsd_l = final_rsd[touched_frames].tolist()
    reads_l = (init_reads + reads_gain)[touched_frames].tolist()
    conc_l = (init_conc + conc_gain)[touched_frames].tolist()
    checks_l = (init_checks + checks_gain)[touched_frames].tolist()
    fills_l = (init_fills + access.fills_per_frame)[touched_frames].tolist()
    tick_l = final_tick[touched_frames].tolist()
    for touch_index, set_index in enumerate(touched_sets):
        base = set_index * assoc
        compact_base = touch_index * assoc
        blocks = substrate.cache_set(set_index).blocks
        for way_index, block in enumerate(blocks):
            f = compact_base + way_index
            block.tag = tags_l[base + way_index]
            block.valid = valid_l[base + way_index]
            block.dirty = dirty_l[base + way_index]
            block.ones_count = final_ones_l[f]
            block.unchecked_reads = final_unch_l[f]
            block.reads_since_demand = final_rsd_l[f]
            block.total_reads = reads_l[f]
            block.total_concealed_reads = conc_l[f]
            block.total_checks = checks_l[f]
            block.fills = fills_l[f]
            block.last_access_tick = tick_l[f]

    if scrubbing:
        cache.import_scrub_state(scrub_credit, scrub_cursor, scrubbed_lines)
    cache._tick = scheme_tick0 + count  # noqa: SLF001 - engine-internal state sync
    substrate._tick = substrate_tick0 + count  # noqa: SLF001
    pass2_span.finish()


class _L1ReplaySoA:
    """Two-pass, run-length-aware replay of one functional (SRAM) L1 cache.

    Equivalent to :meth:`repro.cache.SetAssociativeCache.access` record by
    record — same counters, same block fields, same replacement transitions
    — but mirrors the L2 kernel's pass split:

    * **Pass 1** (:meth:`replay`, sequential) extracts runs of consecutive
      same-block references vectorised, then walks them with a lean loop
      that resolves only the genuinely order-dependent work — residency (one
      shared dict keyed by the packed (tag, set) address), victim choice and
      eviction bookkeeping — while deferring replacement transitions through
      the policy's SoA protocol.  A hit run costs one dict probe plus one
      flat store.
    * **Pass 2** (:meth:`finalize`, vectorised) reconstructs every counter
      and per-block field closed-form from the run columns: hit/miss
      counters are mask sums, per-frame fill counts a ``bincount``, and the
      final recency tick of each frame the last tick-updating run that
      touched it.

    Bit-identical to a per-run loop: pass 1 performs the identical policy
    calls at the identical points in the stream, and every pass-2 quantity
    is an integer reconstruction of the same arithmetic.
    """

    __slots__ = (
        "cache",
        "assoc",
        "num_sets",
        "index_bits",
        "num_frames",
        "policy",
        "pol_globals",
        "pol_access",
        "pol_fill",
        "pol_victim",
        "position_mode",
        "ordered_mode",
        "fill_only_mode",
        "tick_base",
        "zeros",
        "tick0",
        "acc",
        "tags_f",
        "valid_f",
        "dirty_f",
        "pend_f",
        "rows",
        "queues",
        "touched_sets",
        "evictions",
        "dirty_evictions",
        "_runs",
    )

    def __init__(self, cache: SetAssociativeCache) -> None:
        self.cache = cache
        self.assoc = cache.associativity
        self.num_sets = cache.num_sets
        self.index_bits = self.num_sets.bit_length() - 1
        self.num_frames = self.num_sets * self.assoc
        self.policy = cache.replacement
        self.pol_globals = self.policy.compact_globals()
        self.pol_access = self.policy.compact_on_access
        self.pol_fill = self.policy.compact_on_fill
        self.pol_victim = self.policy.compact_victim
        soa_mode, _ = effective_soa_scheduling(self.policy)
        self.position_mode = soa_mode == "position"
        self.ordered_mode = soa_mode == "ordered"
        self.fill_only_mode = soa_mode == "fill-only"
        self.tick_base = self.policy.soa_tick_base() if self.position_mode else 0
        # The L1s never record reads on their blocks, so the per-way
        # unchecked-read exposure seen by victim selection is always zero.
        self.zeros = [0] * self.assoc
        self.tick0 = cache._tick  # noqa: SLF001 - engine-internal state sync
        self.acc = 0
        # Flat frame-indexed state (frame id = set * associativity + way),
        # filled lazily per touched set, exactly like the L2 kernel.
        self.tags_f = [0] * self.num_frames
        self.valid_f = [False] * self.num_frames
        self.dirty_f = [False] * self.num_frames
        self.pend_f = [-1] * self.num_frames if self.position_mode else None
        self.rows: list = [None] * self.num_sets
        self.queues: list = [None] * self.num_sets if self.ordered_mode else None
        self.touched_sets: list[int] = []
        self.evictions = self.dirty_evictions = 0
        self._runs: tuple | None = None

    def _materialise(self, set_index: int, resident: dict[int, int]) -> None:
        blocks = self.cache.cache_set(set_index).blocks
        base = set_index * self.assoc
        for way, block in enumerate(blocks):
            f = base + way
            self.tags_f[f] = block.tag
            if block.valid:
                self.valid_f[f] = True
                resident[(block.tag << self.index_bits) | set_index] = f
            self.dirty_f[f] = block.dirty
        self.rows[set_index] = self.policy.export_set_state(set_index)
        if self.ordered_mode:
            self.queues[set_index] = []
        self.touched_sets.append(set_index)

    def replay(
        self,
        sub_positions: np.ndarray,
        sets: np.ndarray,
        tags: np.ndarray,
        stores: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pass 1: replay the cache's whole substream.

        Args:
            sub_positions: Global trace positions of this cache's records.
            sets: Per-record set indices.
            tags: Per-record tags.
            stores: Per-record store flags.

        Returns:
            ``(miss_positions, miss_sets, miss_wb_tags)`` — the global
            position and set of every missing run's first reference, and
            the evicted dirty victim's tag (-1 when nothing dirty was
            evicted), in stream order.
        """
        n = int(len(sub_positions))
        self.acc = n
        empty = np.zeros(0, dtype=np.int64)
        if n == 0:
            return empty, empty, empty

        # Run extraction: maximal runs of consecutive same-(set, tag)
        # references collapse to one pass-1 iteration each.
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (sets[1:] != sets[:-1]) | (tags[1:] != tags[:-1])
        run_starts = np.flatnonzero(change)
        run_ends = np.concatenate((run_starts[1:], [n]))
        store_cum = np.concatenate(([0], np.cumsum(stores)))
        last_store = np.maximum.accumulate(
            np.where(stores, np.arange(n, dtype=np.int64), -1)
        )
        run_sets = sets[run_starts]
        n_stores_r = store_cum[run_ends] - store_cum[run_starts]
        last_off_r = last_store[run_ends - 1] - run_starts
        first_store_r = stores[run_starts]
        keys = (tags[run_starts].astype(np.int64) << self.index_bits) | run_sets

        resident: dict[int, int] = {}
        for set_index in np.unique(run_sets).tolist():
            self._materialise(set_index, resident)

        key_list = keys.tolist()
        ends_l = run_ends.tolist()
        nst_l = n_stores_r.tolist()
        sets_l = run_sets.tolist()

        num_runs = len(key_list)
        way_l = [0] * num_runs
        miss_runs: list[int] = []
        miss_wb: list[int] = []

        assoc = self.assoc
        index_bits = self.index_bits
        tags_f = self.tags_f
        valid_f = self.valid_f
        dirty_f = self.dirty_f
        pend_f = self.pend_f
        rows = self.rows
        queues = self.queues
        resident_get = resident.get
        way_range = range(assoc)

        def handle_miss(r: int, key: int, end: int) -> int:
            """Shared miss path: victim choice, eviction bookkeeping, fill."""
            set_index = sets_l[r]
            base = set_index * assoc
            frame = -1
            for candidate in way_range:
                if not valid_f[base + candidate]:
                    frame = base + candidate
                    break
            wb_tag = -1
            if frame < 0:
                row = rows[set_index]
                if self.position_mode:
                    frame = base + self.policy.soa_victim_positions(
                        self.pol_globals,
                        row,
                        pend_f[base : base + assoc],
                        self.tick_base,
                        self.zeros,
                    )
                else:
                    if self.ordered_mode:
                        queue = queues[set_index]
                        if queue:
                            self.policy.compact_on_access_batch(
                                self.pol_globals, row, queue
                            )
                            queue.clear()
                    frame = base + self.pol_victim(self.pol_globals, row, self.zeros)
                self.evictions += 1
                if dirty_f[frame]:
                    self.dirty_evictions += 1
                    wb_tag = tags_f[frame]
                del resident[(tags_f[frame] << index_bits) | set_index]
            else:
                valid_f[frame] = True
            tags_f[frame] = key >> index_bits
            # Write-allocate: an incoming store dirties the fresh line.
            dirty_f[frame] = bool(first_store_l[r])
            resident[key] = frame
            way_l[r] = frame
            miss_runs.append(r)
            miss_wb.append(wb_tag)
            return frame

        first_store_l = first_store_r.tolist()
        if self.position_mode:
            # The common case (LRU-family policy): a hit run is one dict
            # probe plus one deferred last-touch position store.
            for r, (key, end, nst) in enumerate(zip(key_list, ends_l, nst_l)):
                frame = resident_get(key)
                if frame is None:
                    frame = handle_miss(r, key, end)
                else:
                    way_l[r] = frame
                pend_f[frame] = end - 1
                if nst:
                    dirty_f[frame] = True
        else:
            starts_l = run_starts.tolist()
            for r, (key, end, nst) in enumerate(zip(key_list, ends_l, nst_l)):
                frame = resident_get(key)
                hit = frame is not None
                if not hit:
                    frame = handle_miss(r, key, end)
                else:
                    way_l[r] = frame
                if nst:
                    dirty_f[frame] = True
                set_index = sets_l[r]
                way = frame - set_index * assoc
                if self.ordered_mode:
                    queue = queues[set_index]
                    if not queue or queue[-1] != way:
                        queue.append(way)
                elif self.fill_only_mode:
                    if not hit:
                        self.pol_fill(self.pol_globals, rows[set_index], way)
                else:
                    row = rows[set_index]
                    if hit:
                        self.pol_access(self.pol_globals, row, way)
                    else:
                        self.pol_fill(self.pol_globals, row, way)
                    tail = end - starts_l[r] - 1
                    if tail:
                        self.policy.compact_on_access_batch(
                            self.pol_globals, row, [way] * tail
                        )

        miss_idx = np.array(miss_runs, dtype=np.int64)
        self._runs = (
            np.array(way_l, dtype=np.int64),
            run_starts,
            run_ends,
            n_stores_r,
            last_off_r,
            first_store_r,
            miss_idx,
        )
        miss_starts = run_starts[miss_idx]
        return (
            sub_positions[miss_starts],
            run_sets[miss_idx],
            np.array(miss_wb, dtype=np.int64),
        )

    def finalize(self) -> None:
        """Pass 2: vectorised counters/fields, folded back into the cache."""
        policy = self.policy
        assoc = self.assoc
        tick_map: dict[int, int] = {}
        fills_l: list[int] | None = None
        stats = self.cache.stats

        if self._runs is not None:
            (
                run_frame,
                run_starts,
                run_ends,
                n_stores_r,
                last_off_r,
                first_store_r,
                miss_idx,
            ) = self._runs
            num_runs = len(run_frame)
            miss_mask = np.zeros(num_runs, dtype=bool)
            miss_mask[miss_idx] = True
            run_len = run_ends - run_starts
            n_loads_r = run_len - n_stores_r

            demand_reads = int(n_loads_r.sum())
            demand_writes = int(n_stores_r.sum())
            n_miss = int(miss_idx.size)
            write_misses = int(np.count_nonzero(first_store_r[miss_idx]))
            read_misses = n_miss - write_misses
            stats.demand_reads += demand_reads
            stats.demand_writes += demand_writes
            stats.read_hits += demand_reads - read_misses
            stats.read_misses += read_misses
            stats.write_hits += demand_writes - write_misses
            stats.write_misses += write_misses
            stats.fills += n_miss
            # One data-array write per fill plus one per store, minus the
            # store folded into a write-allocate fill (same arithmetic as
            # the object path, summed instead of accumulated).
            stats.data_way_writes += demand_writes + n_miss - write_misses

            fills_l = np.bincount(
                run_frame[miss_mask], minlength=self.num_frames
            ).tolist()

            # Final recency tick per frame: the last run that updated it —
            # a fill stamps start+1, a store run stamps the last store's
            # position+1, a store run over a fill overwrites the fill stamp.
            has_store_r = n_stores_r > 0
            upd = miss_mask | has_store_r
            if upd.any():
                frames_u = run_frame[upd]
                tick_vals = (
                    self.tick0
                    + run_starts[upd]
                    + np.where(has_store_r[upd], last_off_r[upd] + 1, 1)
                )
                rev = frames_u[::-1]
                uniq_f, first_idx = np.unique(rev, return_index=True)
                tick_map = dict(
                    zip(uniq_f.tolist(), tick_vals[::-1][first_idx].tolist())
                )

        for set_index in self.touched_sets:
            row = self.rows[set_index]
            if self.position_mode:
                base = set_index * assoc
                policy.soa_apply_last_positions(
                    row, self.pend_f[base : base + assoc], self.tick_base
                )
            elif self.ordered_mode and self.queues[set_index]:
                policy.compact_on_access_batch(
                    self.pol_globals, row, self.queues[set_index]
                )
            policy.import_set_state(set_index, row)
            blocks = self.cache.cache_set(set_index).blocks
            base = set_index * assoc
            for way, block in enumerate(blocks):
                f = base + way
                block.tag = self.tags_f[f]
                block.valid = self.valid_f[f]
                block.dirty = self.dirty_f[f]
                if fills_l is not None:
                    block.fills += fills_l[f]
                tick = tick_map.get(f)
                if tick is not None:
                    block.last_access_tick = tick
        if self.position_mode:
            policy.soa_commit(self.tick_base, self.acc)
        stats.evictions += self.evictions
        stats.dirty_evictions += self.dirty_evictions
        stats.tag_comparisons += self.acc * self.assoc
        self.cache._tick = self.tick0 + self.acc  # noqa: SLF001


def filter_through_l1_soa(
    hierarchy: CacheHierarchy, codes: np.ndarray, addresses: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run the CPU stream through run-length-encoded two-pass L1 models.

    Args:
        hierarchy: The cache hierarchy whose L1s are replayed (mutated).
        codes: Per-record CPU kind codes (0 ifetch, 1 load, 2 store).
        addresses: Per-record addresses.

    Returns:
        ``(l2_codes, l2_addresses)`` arrays — code 0 demand read, 1
        write-back, in the exact order the reference hierarchy would issue
        them to the L2.
    """
    l1i, l1d = hierarchy.l1i, hierarchy.l1d
    is_ifetch = codes == 0
    i_batch = l1i.mapper.decompose_batch(addresses[is_ifetch])
    d_batch = l1d.mapper.decompose_batch(addresses[~is_ifetch])
    d_config = l1d.config
    d_offset_bits = d_config.offset_bits
    d_tag_shift = d_offset_bits + d_config.index_bits

    i_positions = np.flatnonzero(is_ifetch)
    d_positions = np.flatnonzero(~is_ifetch)
    instruction_fetches = int(i_positions.size)
    d_codes = codes[d_positions]
    d_stores = d_codes == 2
    data_writes = int(np.count_nonzero(d_stores))
    data_reads = int(d_positions.size) - data_writes

    i_replay = _L1ReplaySoA(l1i)
    d_replay = _L1ReplaySoA(l1d)
    i_pos, _, i_wb_tag = i_replay.replay(
        i_positions, i_batch.indices, i_batch.tags, np.zeros(i_positions.size, dtype=bool)
    )
    d_pos, d_sets, d_wb_tag = d_replay.replay(
        d_positions, d_batch.indices, d_batch.tags, d_stores
    )
    i_replay.finalize()
    d_replay.finalize()
    # Only the data side can evict dirty lines (the instruction stream
    # never stores), which the assert pins down.
    assert not i_wb_tag.size or int(i_wb_tag.max()) < 0, "L1I emitted a write-back"

    # Compose write-back addresses with the L1D geometry, then merge the
    # two miss streams back into global order (each is already ascending).
    d_wb = np.where(
        d_wb_tag >= 0,
        (d_wb_tag << d_tag_shift) | (d_sets.astype(np.int64) << d_offset_bits),
        -1,
    )
    miss_pos = np.concatenate((i_pos, d_pos))
    miss_wb = np.concatenate((np.full(i_pos.size, -1, dtype=np.int64), d_wb))
    order = np.argsort(miss_pos, kind="stable")
    pos_o = miss_pos[order]
    wb_o = miss_wb[order]
    has_wb = wb_o >= 0
    l2_reads = int(pos_o.size)
    l2_writebacks = int(np.count_nonzero(has_wb))
    # Each miss emits its demand read, immediately followed by its
    # write-back when one exists: slot = rank + write-backs seen so far.
    out_idx = np.arange(l2_reads, dtype=np.int64) + (np.cumsum(has_wb) - has_wb)
    l2_codes = np.zeros(l2_reads + l2_writebacks, dtype=np.int8)
    l2_addresses = np.empty(l2_reads + l2_writebacks, dtype=np.int64)
    l2_addresses[out_idx] = addresses[pos_o]
    wb_slots = out_idx[has_wb] + 1
    l2_codes[wb_slots] = 1
    l2_addresses[wb_slots] = wb_o[has_wb]

    stats = hierarchy.stats
    stats.instruction_fetches += instruction_fetches
    stats.data_reads += data_reads
    stats.data_writes += data_writes
    stats.l2_reads += l2_reads
    stats.l2_writebacks += l2_writebacks
    return l2_codes, l2_addresses


def _record_restores(
    cache,
    count,
    assoc,
    order_by_set,
    sorted_read,
    reads_per_set,
    rr,
    seg_frames,
    seg_starts,
    f_s,
    pos_s,
    kind_s,
    setter,
    setter_ones,
    init_ones,
    init_valid,
    frame,
    hit_mask,
) -> None:
    """Rebuild the restore scheme's per-(read, way) rewrite stream.

    Every demand read restores all currently valid ways of its set — the
    non-hit ways in ascending order, then the hit way.  The reference loop
    records one ones count per restored way; this reconstructs the exact
    same sequence from the frame event streams and records the write-failure
    probabilities in one batch.
    """
    num_frames = len(init_ones)
    # Each frame is restored by every read of its slot from the moment it is
    # resident: rank > R(first fill) for frames filled during the replay,
    # every read for initially valid frames.
    first_fill_rank = np.zeros(num_frames, dtype=np.int64)
    fill_flags = kind_s == 2
    num_events = len(kind_s)
    filled_frames = np.zeros(num_frames, dtype=bool)
    if fill_flags.any():
        first_idx = np.where(
            fill_flags, np.arange(num_events, dtype=np.int64), num_events
        )
        first_fill_seg = np.minimum.reduceat(first_idx, seg_starts)
        valid_seg = first_fill_seg < num_events
        rr_evt = rr[pos_s]
        first_fill_rank[seg_frames[valid_seg]] = rr_evt[
            first_fill_seg[valid_seg]
        ]
        filled_frames[np.unique(f_s[fill_flags])] = True
    start_rank = np.where(init_valid, 0, first_fill_rank)
    resident_frames = init_valid | filled_frames

    set_of_frame = np.arange(num_frames, dtype=np.int64) // assoc
    pair_counts = np.where(
        resident_frames, reads_per_set[set_of_frame] - start_rank, 0
    )
    pair_counts = np.maximum(pair_counts, 0)
    total_pairs = int(pair_counts.sum())
    restore_model = cache.write_error_model
    if total_pairs == 0:
        return

    # Read positions sorted by (slot, position), with per-slot offsets.
    read_positions = order_by_set[sorted_read]
    read_offsets = np.concatenate(([0], np.cumsum(reads_per_set)))
    frames_idx = np.flatnonzero(pair_counts > 0)
    counts_nz = pair_counts[frames_idx]
    starts_flat = read_offsets[set_of_frame[frames_idx]] + start_rank[frames_idx]
    setter_sel = np.flatnonzero(setter)
    setter_keys = (
        f_s[setter_sel] * (2 * count + 2) + pos_s[setter_sel] * 2
        if setter_sel.size
        else None
    )

    # Single-value fast path: when every ones count a restore could observe
    # — a frame's initial value (only reachable before its first setter
    # event) or any setter event's value — is one and the same, the whole
    # rewrite stream collapses to a single (probability, total_pairs) run
    # and none of the per-pair arrays are needed.  This is the common case:
    # the default data profile installs a constant ones count everywhere.
    first_pos = read_positions[starts_flat]
    if setter_keys is not None:
        query0 = frames_idx * (2 * count + 2) + first_pos * 2
        found0 = np.searchsorted(setter_keys, query0, side="left") - 1
        found0_frame = np.where(
            found0 >= 0, f_s[setter_sel[np.maximum(found0, 0)]], -1
        )
        fallback0 = found0_frame != frames_idx
        candidates = np.concatenate(
            (init_ones[frames_idx[fallback0]], setter_ones[setter_sel])
        )
    else:
        candidates = init_ones[frames_idx]
    unique_candidates = np.unique(candidates)
    if unique_candidates.size == 1:
        probability = restore_model.block_write_failure_probability(
            int(unique_candidates[0])
        )
        cache.record_restore_runs([probability], [total_pairs])
        return

    excl = np.concatenate(([0], np.cumsum(counts_nz)[:-1]))
    ragged = np.arange(total_pairs, dtype=np.int64) - np.repeat(excl, counts_nz)
    pair_read_idx = np.repeat(starts_flat, counts_nz) + ragged
    pair_pos = read_positions[pair_read_idx]
    pair_frame = np.repeat(frames_idx, counts_nz)
    pair_way = pair_frame % assoc

    # Ones value of the frame at the read position: the last setter event
    # strictly before the read (the miss-path fill happens after the
    # restore pass of the same access).
    if setter_keys is not None:
        query = pair_frame * (2 * count + 2) + pair_pos * 2
        found = np.searchsorted(setter_keys, query, side="left") - 1
        found_frame = np.where(found >= 0, f_s[setter_sel[np.maximum(found, 0)]], -1)
        pair_ones = np.where(
            found_frame == pair_frame,
            setter_ones[setter_sel[np.maximum(found, 0)]],
            init_ones[pair_frame],
        )
    else:
        pair_ones = init_ones[pair_frame]

    # Exact loop order: by access position, non-hit ways ascending, hit last.
    pair_hit = (frame[pair_pos] == pair_frame) & hit_mask[pair_pos]
    order = np.lexsort((pair_way, pair_hit, pair_pos))
    ordered_ones = pair_ones[order]

    unique_ones, inverse = np.unique(ordered_ones, return_inverse=True)
    unique_probs = np.array(
        [
            restore_model.block_write_failure_probability(int(ones))
            for ones in unique_ones
        ],
        dtype=float,
    )
    flat_inverse = inverse.reshape(-1)

    # Run-length encode the ordered stream: consecutive equal probabilities
    # fold through the bit-identical chunked accumulator, so long stretches
    # of one data value cost O(runs) instead of O(pairs).  Short mean runs
    # would make the per-run folding slower than the flat array, so fall
    # back when the encoding does not compress.
    change = np.empty(total_pairs, dtype=bool)
    change[0] = True
    change[1:] = flat_inverse[1:] != flat_inverse[:-1]
    run_starts = np.flatnonzero(change)
    if run_starts.size * 4 <= total_pairs:
        run_counts = np.diff(np.concatenate((run_starts, [total_pairs])))
        cache.record_restore_runs(unique_probs[flat_inverse[run_starts]], run_counts)
    else:
        cache.record_restore_array(unique_probs[flat_inverse])
