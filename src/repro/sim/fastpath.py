"""Batched fast-path execution of L2-level and CPU-level traces.

:func:`run_l2_trace_fast` replays an L2 trace against a protected cache and
produces the *same* end state as the reference per-record loop in
:mod:`repro.sim.engine` — same :class:`~repro.sim.results.SchemeRunResult`
snapshot, same :class:`~repro.reliability.AccumulationTracker` samples, same
cache/reliability/energy statistics, same per-block and per-set policy state
— while running several times faster.  This module holds the entry points,
the capability check, the vectorised decode and the L1-state export for the
artifact cache; the replay itself is the structure-of-arrays kernel in
:mod:`repro.sim.soa`:

1. **Decode** — the whole trace is pre-decoded into NumPy arrays (access
   kind, set index, tag) with one vectorised
   :meth:`repro.cache.AddressMapper.decompose_batch` call, validating every
   record before any state is touched.
2. **Replay** — :func:`repro.sim.soa.replay_l2_soa` runs a lean sequential
   functional pass (hit/miss, victim, eviction) followed by a vectorised
   reliability/energy pass.  Replacement decisions go through the policy's
   *compact-state protocol*
   (:meth:`~repro.cache.replacement.ReplacementPolicy.compact_on_access` /
   ``compact_on_fill`` / ``compact_victim`` over exported per-set rows) —
   the same transition functions the object path delegates to, so there is
   no second implementation of any policy here.
3. **Resolve** — the deferred failure-probability keys
   ``(delivery kind, ones count, window)`` are reduced to their unique
   values and evaluated with the vectorised binomial-tail math of
   :mod:`repro.reliability.binomial`, then folded into the reliability
   statistics in trace order.

:func:`run_cpu_trace_fast` extends the same treatment to the full two-level
hierarchy: the CPU stream is pre-decoded once, filtered through compact
L1I/L1D models (the same :class:`~repro.cache.SetAssociativeCache` state and
replacement transitions, minus the reliability machinery the SRAM L1s do
not have), and the realised L2 read/write-back stream is handed to the L2
replay above.  The returned :class:`~repro.cache.CacheHierarchy` carries the
same L1 contents and statistics as the reference loop.

Numerical equivalence is by construction, not by tolerance: every floating
point accumulator (energy components, expected failures) receives the same
addends in the same order as the reference loop, and the vectorised
binomial functions are element-for-element identical to the scalar ones the
:class:`~repro.core.engine.ReliabilityEngine` memoises.  The differential
harness in ``tests/sim/test_engine_equivalence.py`` asserts this field by
field for every scheme x replacement policy x trace level.

The fast path supports every protection scheme (conventional, REAP, serial,
restore, and the patrol-scrubbing baseline, whose deterministic line cursor
is replayed in closed form) over every built-in replacement policy.
:func:`supports_fast_path` reports whether a cache qualifies — the remaining
exclusions are custom :class:`~repro.core.ProtectedCache` subclasses and
replacement policies that override the object hooks instead of the
compact-state transitions; :func:`repro.sim.run_l2_trace` with
``engine="auto"`` falls back to the reference loop (with a one-line warning)
when they appear.

One deliberate behavioural difference: the reference loop validates records
as it consumes them, so a malformed trace leaves the cache partially
mutated; the fast path validates the whole trace during decode and raises
*before* touching any state.
"""

from __future__ import annotations

import numpy as np

from ..cache import CacheHierarchy
from ..cache.replacement import ReplacementPolicy
from ..config import SimulationConfig
from ..core.conventional import ConventionalCache
from ..core.protected import ProtectedCache
from ..core.reap import REAPCache
from ..core.restore import RestoreCache
from ..core.scrubbing import ScrubbingCache
from ..core.serial import SerialAccessCache
from ..errors import SimulationError
from ..telemetry import emit_event, span
from ..workloads.trace import KIND_ORDER, Trace
from . import soa
from .results import SchemeRunResult
from .soa import _CONVENTIONAL, _REAP, _SERIAL

#: Scheme classes the fast path replays (exact types: a subclass may change
#: behaviour the kernel does not know about).
_SCHEME_MODES = {
    ConventionalCache: _CONVENTIONAL,
    REAPCache: _REAP,
    SerialAccessCache: _SERIAL,
    RestoreCache: _CONVENTIONAL,  # restore delivers through the Eq. (3) path
    ScrubbingCache: _CONVENTIONAL,  # scrubbing adds a patrol pass per access
}


class FrameMemo:
    """Frame columns of functional replays, shared by the runs of one job.

    The SoA kernel's functional pass is the same for every scheme and every
    MTJ/ECC setting when the cache starts empty under LRU (see
    :func:`repro.sim.soa.frames_key`).  A memo lets the runs of one
    comparison replay that pass once; with an
    :class:`~repro.workloads.ArtifactCache` behind it, the column is also
    persisted, so the other jobs of a sweep skip the pass as well.  In
    memory only, it also keeps the scheme-independent half of pass 2 for
    each stream (:class:`repro.sim.soa.SharedStream`), which lives as long
    as the memo.  Memo lookups never change results: a hit derives exactly
    what the replay would have computed.
    """

    def __init__(self, artifact_cache=None) -> None:
        self._frames: dict[str, np.ndarray] = {}
        self._streams: list[soa.SharedStream] = []
        self._artifact_cache = artifact_cache

    def find_stream(self, geometry, packed_keys, codes, samples):
        """The shared pass-2 entry computed from exactly this stream, or ``None``."""
        for entry in self._streams:
            if entry.matches(geometry, packed_keys, codes, samples):
                return entry
        return None

    def keep_stream(self, entry: soa.SharedStream) -> None:
        """Remember a stream's shared pass-2 entry for the later runs."""
        self._streams.append(entry)

    def get(self, key: str) -> np.ndarray | None:
        """The frame column stored under ``key``, or ``None``."""
        frames = self._frames.get(key)
        if frames is None and self._artifact_cache is not None:
            frames = self._artifact_cache.load_frames(key)
            if frames is not None:
                self._frames[key] = frames
        return frames

    def put(self, key: str, frames: np.ndarray) -> None:
        """Remember (and persist, when cache-backed) a frame column."""
        self._frames[key] = frames
        if self._artifact_cache is not None:
            self._artifact_cache.store_frames(key, frames)


#: Replacement-policy object hooks that must route through the compact-state
#: transitions for the fast path to be equivalent by construction.
_POLICY_HOOKS = ("on_access", "on_fill", "victim")


def _policy_reason(policy) -> str:
    """Why a replacement policy is not fast-path capable ('' if it is)."""
    if not isinstance(policy, ReplacementPolicy):
        return f"replacement policy {type(policy).__name__}"
    if policy.supports_compact_state:
        # Third-party opt-in: the policy promises its object-hook overrides
        # still route every state change through the compact transitions.
        return ""
    for hook in _POLICY_HOOKS:
        if getattr(type(policy), hook) is not getattr(ReplacementPolicy, hook):
            return (
                f"replacement policy {type(policy).__name__} (overrides "
                f"{hook}() instead of the compact-state transitions)"
            )
    return ""


def supports_fast_path(cache: ProtectedCache) -> tuple[bool, str]:
    """Whether the batched engine can replay traces for ``cache``.

    Returns:
        ``(supported, reason)``; ``reason`` is empty when supported and
        names the unsupported feature otherwise.
    """
    if type(cache) not in _SCHEME_MODES:
        return False, f"scheme {cache.scheme_name()!r} ({type(cache).__name__})"
    reason = _policy_reason(cache.cache.replacement)
    if reason:
        return False, reason
    return True, ""


def run_l2_trace_fast(
    cache: ProtectedCache,
    trace: Trace,
    config: SimulationConfig | None = None,
    add_leakage: bool = True,
    frame_memo: FrameMemo | None = None,
) -> SchemeRunResult:
    """Batched equivalent of the reference :func:`repro.sim.run_l2_trace`.

    Args:
        cache: The protected cache to drive (mutated in place, exactly as
            the reference loop would mutate it).
        trace: L2-level trace (``L2_READ`` / ``L2_WRITE`` records).
        config: Simulation configuration for the time base.
        add_leakage: Whether to add leakage energy for the simulated time.
        frame_memo: Optional :class:`FrameMemo` shared with other runs over
            the same trace.

    Returns:
        A :class:`SchemeRunResult` snapshot taken after the whole trace ran.

    Raises:
        SimulationError: if the cache is not fast-path capable or the trace
            contains CPU-level records (checked before any state mutation).
    """
    from .engine import _snapshot, simulated_time_for

    supported, reason = supports_fast_path(cache)
    if not supported:
        raise SimulationError(f"fast path does not support {reason}")
    config = config or SimulationConfig()
    scheme = cache.scheme_name()
    with span("kernel.decode", scheme=scheme, path="l2", accesses=len(trace)):
        codes, set_indices, tags = _decode(cache, trace)
    emit_event("sim.engine", engine="fast", path="l2", scheme=scheme)
    soa.replay_l2_soa(
        cache,
        codes,
        set_indices,
        tags,
        _SCHEME_MODES[type(cache)],
        frame_memo=frame_memo,
    )
    simulated_time = simulated_time_for(len(trace), config)
    if add_leakage:
        cache.add_leakage(simulated_time)
    return _snapshot(cache, trace.name, len(trace), simulated_time)


def _export_l1_state(hierarchy: CacheHierarchy) -> dict:
    """Snapshot everything the L1 filter mutated, for the artifact cache.

    Captures, per L1 side, the materialised sets' full block state, the
    replacement policy's per-set rows and global state, the cache tick and
    statistics counters, plus the hierarchy-level reference counts — the
    complete observable end state of :func:`filter_through_l1_soa` on a
    fresh hierarchy.
    """
    state: dict = {}
    for side in ("l1i", "l1d"):
        cache = getattr(hierarchy, side)
        policy = cache.replacement
        sets: dict[int, list] = {}
        rows: dict[int, list] = {}
        for set_index in range(cache.num_sets):
            cache_set = cache.peek_set(set_index)
            if cache_set is None:
                continue
            sets[set_index] = [dict(vars(block)) for block in cache_set.blocks]
            rows[set_index] = policy.export_set_state(set_index)
        state[side] = {
            "sets": sets,
            "rows": rows,
            "globals": policy.export_global_state(),
            "tick": cache._tick,  # noqa: SLF001 - engine-internal state sync
            "stats": dict(vars(cache.stats)),
        }
    state["hierarchy"] = dict(vars(hierarchy.stats))
    return state


def _apply_l1_state(hierarchy: CacheHierarchy, state: dict) -> None:
    """Restore an :func:`_export_l1_state` snapshot into a fresh hierarchy."""
    for side in ("l1i", "l1d"):
        cache = getattr(hierarchy, side)
        policy = cache.replacement
        saved = state[side]
        for set_index, blocks_saved in saved["sets"].items():
            blocks = cache.cache_set(set_index).blocks
            for block, fields in zip(blocks, blocks_saved):
                block.__dict__.update(fields)
        for set_index, row in saved["rows"].items():
            policy.import_set_state(set_index, row)
        policy.import_global_state(saved["globals"])
        cache._tick = saved["tick"]  # noqa: SLF001 - engine-internal state sync
        for name, value in saved["stats"].items():
            setattr(cache.stats, name, value)
    for name, value in state["hierarchy"].items():
        setattr(hierarchy.stats, name, value)


def run_cpu_trace_fast(
    l2_cache: ProtectedCache,
    trace: Trace,
    config: SimulationConfig | None = None,
    seed: int = 1,
    add_leakage: bool = True,
    artifact_cache=None,
) -> tuple[SchemeRunResult, CacheHierarchy]:
    """Batched equivalent of the reference :func:`repro.sim.run_cpu_trace`.

    The CPU stream is pre-decoded once, filtered through run-length-encoded
    compact L1I/L1D replays, and the realised L2 read/write-back stream is
    replayed with the same kernel :func:`run_l2_trace_fast` uses.  The
    returned hierarchy holds L1 caches whose contents, statistics and
    replacement state match the reference loop's field for field.

    Args:
        l2_cache: The protected L2 placed under the L1s (mutated in place).
        trace: CPU-level trace (``IFETCH`` / ``LOAD`` / ``STORE`` records).
        config: Simulation configuration (hierarchy geometry and time base).
        seed: Seed for the L1 replacement policies.
        add_leakage: Whether to add L2 leakage energy for the simulated time.
        artifact_cache: Optional :class:`~repro.workloads.ArtifactCache`
            (or directory spec) serving pre-filtered L2 streams keyed by
            trace content and L1 geometry; purely operational — results
            are bit-identical with the cache cold, warm or disabled.

    Returns:
        A (result, hierarchy) pair, as from :func:`repro.sim.run_cpu_trace`.

    Raises:
        SimulationError: if the L2 is not fast-path capable or the trace
            contains L2-level records (checked before any state mutation).
    """
    from .engine import _snapshot

    supported, reason = supports_fast_path(l2_cache)
    if not supported:
        raise SimulationError(f"fast path does not support {reason}")
    config = config or SimulationConfig()
    hierarchy = CacheHierarchy(config.hierarchy, l2_cache, seed=seed)
    scheme = l2_cache.scheme_name()
    emit_event("sim.engine", engine="fast", path="cpu", scheme=scheme)

    stream_cache = stream_key = cached_stream = None
    if isinstance(trace, Trace):
        from ..workloads.artifacts import ArtifactCache

        stream_cache = ArtifactCache.resolve(artifact_cache)
        if stream_cache is not None:
            stream_key = stream_cache.l1_stream_key(
                trace.content_hash(), config.hierarchy, seed
            )
            cached_stream = stream_cache.load_l1_stream(stream_key)

    if cached_stream is not None:
        l2_codes, l2_addresses, l1_state = cached_stream
        _apply_l1_state(hierarchy, l1_state)
    else:
        with span("kernel.decode", scheme=scheme, path="cpu", accesses=len(trace)):
            cpu_codes, cpu_addresses = _decode_cpu(trace)
        with span("kernel.l1_filter", scheme=scheme, accesses=len(trace)):
            l2_codes, l2_addresses = soa.filter_through_l1_soa(
                hierarchy, cpu_codes, cpu_addresses
            )
        if stream_cache is not None:
            stream_cache.store_l1_stream(
                stream_key,
                trace.name,
                np.asarray(l2_codes, dtype=np.int8),
                np.asarray(l2_addresses, dtype=np.int64),
                _export_l1_state(hierarchy),
            )

    l2_count = len(l2_codes)
    with span("kernel.decode", scheme=scheme, path="l2", accesses=l2_count):
        codes = np.asarray(l2_codes, dtype=np.int8)
        addresses = np.asarray(l2_addresses, dtype=np.int64)
        batch = l2_cache.cache.mapper.decompose_batch(addresses)
    soa.replay_l2_soa(
        l2_cache, codes, batch.indices, batch.tags, _SCHEME_MODES[type(l2_cache)]
    )

    # Time base: one CPU reference per cycle, as in the reference loop.
    simulated_time = len(trace) * config.cycle_time_s
    if add_leakage:
        l2_cache.add_leakage(simulated_time)
    l2_accesses = hierarchy.stats.l2_reads + hierarchy.stats.l2_writebacks
    result = _snapshot(l2_cache, trace.name, l2_accesses, simulated_time)
    return result, hierarchy


#: Remaps :data:`repro.workloads.trace.KIND_ORDER` indices (IFETCH, LOAD,
#: STORE, L2_READ, L2_WRITE) to the engines' level-specific codes.
_L2_KIND_MAP = np.array([2, 2, 2, 0, 1], dtype=np.int8)
_CPU_KIND_MAP = np.array([0, 1, 2, 3, 3], dtype=np.int8)


def _decode_arrays(
    cache: ProtectedCache, kinds: np.ndarray, addresses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode (KIND_ORDER kinds, addresses) into (kind code, set, tag) arrays."""
    codes = _L2_KIND_MAP[kinds]
    bad = np.flatnonzero(codes == 2)
    if bad.size:
        raise SimulationError(
            f"run_l2_trace expects L2-level records, got "
            f"{KIND_ORDER[int(kinds[bad[0]])]}"
        )
    batch = cache.cache.mapper.decompose_batch(addresses)
    return codes, batch.indices, batch.tags


def _decode(
    cache: ProtectedCache, trace: Trace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-decode a trace into (kind code, set index, tag) arrays."""
    kinds, addresses = trace.decoded()
    return _decode_arrays(cache, kinds, addresses)


def replay_l2_segments(
    cache: ProtectedCache, segments, frame_memo: FrameMemo | None = None
) -> int:
    """Replay decoded ``(kinds, addresses)`` segments against a protected cache.

    The out-of-core counterpart of the whole-trace replay: each segment is
    decoded and replayed in turn, and because the kernel seeds every
    accumulator from live cache state on entry and folds everything back on
    exit — block fields and ticks through the compact per-set protocol,
    policy state through ``export_set_state``/``import_set_state``, energy
    partial sums from ``cache.energy``, reliability statistics through
    sequential accumulation, tracker samples by append, patrol-scrub
    credit and cursor through the scrub-state export — the end state after N
    segments is bit-identical to one whole-trace replay.  Peak memory is
    bounded by the largest segment.

    Each segment runs inside a ``kernel.segment`` telemetry span carrying
    the segment ordinal and access count.

    Args:
        cache: The protected cache to drive (mutated in place).
        segments: Iterable of ``(kinds, addresses)`` NumPy column pairs in
            the :data:`~repro.workloads.trace.KIND_ORDER` encoding, e.g.
            from :meth:`repro.workloads.streams.TraceSource.segments`.
        frame_memo: Optional :class:`FrameMemo` shared with other runs over
            the same segments (only a replay from an empty cache uses it).

    Returns:
        The total number of accesses replayed.

    Raises:
        SimulationError: if the cache is not fast-path capable or a segment
            contains CPU-level records.  Unlike the whole-trace fast path,
            validation is necessarily per segment: earlier segments have
            already mutated the cache when a later segment fails.
    """
    supported, reason = supports_fast_path(cache)
    if not supported:
        raise SimulationError(f"fast path does not support {reason}")
    scheme = cache.scheme_name()
    emit_event("sim.engine", engine="fast", path="l2", scheme=scheme, streaming=True)
    mode = _SCHEME_MODES[type(cache)]
    total = 0
    for segment_index, (kinds, addresses) in enumerate(segments):
        accesses = len(kinds)
        with span(
            "kernel.segment",
            scheme=scheme,
            path="l2",
            segment=segment_index,
            accesses=accesses,
        ):
            codes, set_indices, tags = _decode_arrays(cache, kinds, addresses)
            soa.replay_l2_soa(
                cache, codes, set_indices, tags, mode, frame_memo=frame_memo
            )
        total += accesses
    return total


def _decode_cpu(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Pre-decode a CPU-level trace into (kind code, address) arrays."""
    kinds, addresses = trace.decoded()
    codes = _CPU_KIND_MAP[kinds]
    bad = np.flatnonzero(codes == 3)
    if bad.size:
        raise SimulationError(
            f"run_cpu_trace expects CPU-level records, got "
            f"{trace.records[bad[0]].kind}"
        )
    return codes, addresses
