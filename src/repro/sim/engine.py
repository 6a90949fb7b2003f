"""Trace-driven simulation engine.

Two entry points:

* :func:`run_l2_trace` — drive a protected L2 cache directly with an L2-level
  trace (the workhorse behind the paper's figures).
* :func:`run_cpu_trace` — drive the full two-level hierarchy with a CPU-level
  trace (instruction fetches, loads, stores), reproducing the paper's gem5
  arrangement end to end.

Both return a :class:`~repro.sim.results.SchemeRunResult` snapshot; the
protected cache object itself remains available for deeper inspection
(accumulation tracker, energy breakdown, per-set state).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar

from ..cache import CacheHierarchy
from ..config import SimulationConfig
from ..core.protected import ProtectedCache
from ..errors import SimulationError
from ..telemetry import emit_event, span
from ..workloads.streams import DEFAULT_SEGMENT_ACCESSES, TraceSource
from ..workloads.trace import _KIND_INDEX, KIND_ORDER, AccessKind, Trace
from .results import SchemeRunResult

_L2_READ_INDEX = _KIND_INDEX[AccessKind.L2_READ]
_L2_WRITE_INDEX = _KIND_INDEX[AccessKind.L2_WRITE]


def simulated_time_for(
    num_accesses: int, config: SimulationConfig, accesses_per_cycle: float = 0.05
) -> float:
    """Estimate the wall-clock time an L2 access stream represents.

    The L2 sees roughly one access every ``1 / accesses_per_cycle`` core
    cycles (the default corresponds to an L2 APKI in the tens, typical of the
    SPEC CPU2006 suite).  Only *relative* MTTF matters for the figures, but a
    consistent time base keeps absolute MTTF values meaningful.
    """
    if num_accesses < 0:
        raise SimulationError("num_accesses must be non-negative")
    if accesses_per_cycle <= 0:
        raise SimulationError("accesses_per_cycle must be positive")
    cycles = num_accesses / accesses_per_cycle
    return cycles * config.cycle_time_s


def _snapshot(
    cache: ProtectedCache,
    workload: str,
    num_accesses: int,
    simulated_time_s: float,
) -> SchemeRunResult:
    """Collect a result record from a driven protected cache."""
    reliability = cache.reliability
    energy = cache.energy
    stats = cache.stats
    return SchemeRunResult(
        workload=workload,
        scheme=cache.scheme_name(),
        num_accesses=num_accesses,
        simulated_time_s=simulated_time_s,
        expected_failures=cache.expected_failures,
        checked_reads=reliability.checked_reads,
        concealed_reads=reliability.concealed_reads,
        max_accumulated_reads=reliability.max_accumulated_reads,
        mean_accumulated_reads=reliability.mean_accumulated_reads,
        dynamic_energy_pj=energy.dynamic_pj,
        ecc_energy_pj=energy.ecc_decode_pj + energy.ecc_encode_pj,
        leakage_energy_pj=energy.leakage_pj,
        hit_rate=stats.hit_rate,
        read_fraction=stats.read_fraction,
        read_hit_latency_ns=cache.read_hit_latency_ns(),
    )


#: Engine names accepted by :func:`run_l2_trace` and the experiment layer.
ENGINE_CHOICES = ("reference", "fast", "auto")


def _check_engine(engine: str) -> None:
    if engine not in ENGINE_CHOICES:
        raise SimulationError(
            f"unknown engine {engine!r}; choose one of {ENGINE_CHOICES}"
        )


#: When set (to a mutable set of already-warned reasons), ``engine="auto"``
#: fallback warnings are deduplicated: each distinct reason warns once.
_fallback_warned: ContextVar[set | None] = ContextVar(
    "repro_fallback_warned", default=None
)


@contextmanager
def deduplicate_fallback_warnings():
    """Scope within which each distinct auto-fallback reason warns only once.

    The campaign/sweep layers wrap whole runs in this so a large sweep over
    an unsupported cache emits one :class:`RuntimeWarning` instead of one
    per job.  Direct ``run_l2_trace`` calls outside the scope keep the
    historical warn-per-call behaviour.
    """
    token = _fallback_warned.set(set())
    try:
        yield
    finally:
        _fallback_warned.reset(token)


def enable_fallback_warning_dedup() -> None:
    """Deduplicate auto-fallback warnings for the rest of this process.

    Used as the initializer of campaign worker processes, where the scoped
    context manager cannot span jobs dispatched by the parent.
    """
    _fallback_warned.set(set())


def _warn_auto_fallback(reason: str) -> None:
    """One-line warning naming why ``engine="auto"`` took the slow loop."""
    # Telemetry sees every fallback occurrence (so ``repro-reap stats`` can
    # count them), even when the stderr warning below is deduplicated.
    emit_event("engine.fallback", reason=reason)
    seen = _fallback_warned.get()
    if seen is not None:
        if reason in seen:
            return
        seen.add(reason)
    # stacklevel 3: warnings.warn <- this helper <- run_*_trace <- API caller.
    warnings.warn(
        f"engine='auto' fell back to the reference loop: "
        f"fast path does not support {reason}",
        RuntimeWarning,
        stacklevel=3,
    )


def _trace_segments(trace: Trace | TraceSource, segment_accesses: int):
    """Yield decoded ``(kinds, addresses)`` segments from either trace form."""
    if isinstance(trace, Trace):
        kinds, addresses = trace.decoded()
        for start in range(0, len(kinds), segment_accesses):
            stop = start + segment_accesses
            yield kinds[start:stop], addresses[start:stop]
    else:
        yield from trace.segments(segment_accesses)


def _run_l2_segmented(
    cache: ProtectedCache,
    trace: Trace | TraceSource,
    config: SimulationConfig | None,
    add_leakage: bool,
    engine: str,
    segment_accesses: int,
) -> SchemeRunResult:
    """Segment-by-segment replay; bit-identical to the whole-trace paths."""
    config = config or SimulationConfig()
    scheme = cache.scheme_name()
    if engine != "reference":
        from .fastpath import replay_l2_segments, supports_fast_path

        supported, reason = supports_fast_path(cache)
        if engine == "fast" or supported:
            total = replay_l2_segments(cache, _trace_segments(trace, segment_accesses))
            simulated_time = simulated_time_for(total, config)
            if add_leakage:
                cache.add_leakage(simulated_time)
            return _snapshot(cache, trace.name, total, simulated_time)
        _warn_auto_fallback(reason)
    emit_event(
        "sim.engine", engine="reference", path="l2", scheme=scheme, streaming=True
    )
    total = 0
    for segment_index, (kinds, addresses) in enumerate(
        _trace_segments(trace, segment_accesses)
    ):
        with span(
            "kernel.segment",
            scheme=scheme,
            path="l2",
            segment=segment_index,
            accesses=len(kinds),
        ):
            for kind_index, address in zip(kinds.tolist(), addresses.tolist()):
                if kind_index == _L2_READ_INDEX:
                    cache.read(address)
                elif kind_index == _L2_WRITE_INDEX:
                    cache.write(address)
                else:
                    raise SimulationError(
                        f"run_l2_trace expects L2-level records, got "
                        f"{KIND_ORDER[kind_index]}"
                    )
        total += len(kinds)
    simulated_time = simulated_time_for(total, config)
    if add_leakage:
        cache.add_leakage(simulated_time)
    return _snapshot(cache, trace.name, total, simulated_time)


def run_l2_trace(
    cache: ProtectedCache,
    trace: Trace | TraceSource,
    config: SimulationConfig | None = None,
    add_leakage: bool = True,
    engine: str = "reference",
    segment_accesses: int | None = None,
) -> SchemeRunResult:
    """Drive a protected L2 cache with an L2-level trace.

    Args:
        cache: The protected cache to drive (mutated in place).
        trace: L2-level trace (``L2_READ`` / ``L2_WRITE`` records; CPU-level
            records are rejected).  Either an in-memory :class:`Trace` or a
            streaming :class:`~repro.workloads.streams.TraceSource` (from
            :func:`repro.workloads.open_trace`); sources are replayed
            segment by segment in bounded memory.
        config: Simulation configuration used for the time base; the default
            paper configuration is used when omitted.
        add_leakage: Whether to add leakage energy for the simulated time.
        engine: ``"reference"`` for the per-record loop, ``"fast"`` for the
            batched engine in :mod:`repro.sim.fastpath` (raises if the cache
            is not fast-path capable), or ``"auto"`` to use the fast engine
            whenever it supports the cache and fall back otherwise.  Both
            engines produce numerically identical results.
        segment_accesses: Replay segment length.  ``None`` (the default)
            replays an in-memory :class:`Trace` whole and a streaming
            source in segments of
            :data:`~repro.workloads.streams.DEFAULT_SEGMENT_ACCESSES`.
            Any value forces segmented replay — bit-identical to the
            whole-trace replay by construction, since all cache, policy,
            accumulator and energy state lives on the cache between
            segments.

    Returns:
        A :class:`SchemeRunResult` snapshot taken after the whole trace ran.
    """
    _check_engine(engine)
    if segment_accesses is not None and segment_accesses <= 0:
        raise SimulationError("segment_accesses must be positive")
    if segment_accesses is not None or not isinstance(trace, Trace):
        return _run_l2_segmented(
            cache,
            trace,
            config,
            add_leakage,
            engine,
            segment_accesses or DEFAULT_SEGMENT_ACCESSES,
        )
    if engine != "reference":
        from .fastpath import run_l2_trace_fast, supports_fast_path

        supported, reason = supports_fast_path(cache)
        if engine == "fast" or supported:
            return run_l2_trace_fast(
                cache, trace, config=config, add_leakage=add_leakage
            )
        _warn_auto_fallback(reason)
    config = config or SimulationConfig()
    scheme = cache.scheme_name()
    emit_event("sim.engine", engine="reference", path="l2", scheme=scheme)
    with span("reference.replay", scheme=scheme, path="l2", accesses=len(trace)):
        for record in trace:
            if record.kind is AccessKind.L2_READ:
                cache.read(record.address)
            elif record.kind is AccessKind.L2_WRITE:
                cache.write(record.address)
            else:
                raise SimulationError(
                    f"run_l2_trace expects L2-level records, got {record.kind}"
                )
    simulated_time = simulated_time_for(len(trace), config)
    if add_leakage:
        cache.add_leakage(simulated_time)
    return _snapshot(cache, trace.name, len(trace), simulated_time)


def run_cpu_trace(
    l2_cache: ProtectedCache,
    trace: Trace,
    config: SimulationConfig | None = None,
    seed: int = 1,
    add_leakage: bool = True,
    engine: str = "reference",
    artifact_cache=None,
) -> tuple[SchemeRunResult, CacheHierarchy]:
    """Drive the full two-level hierarchy with a CPU-level trace.

    Args:
        l2_cache: The protected L2 placed under the L1s (mutated in place).
        trace: CPU-level trace (``IFETCH`` / ``LOAD`` / ``STORE`` records).
        config: Simulation configuration (hierarchy geometry and time base).
        seed: Seed for the L1 replacement policies.
        add_leakage: Whether to add L2 leakage energy for the simulated
            time, matching :func:`run_l2_trace` (hierarchy energy results
            include the leakage term by default).
        engine: ``"reference"`` for the per-record loop, ``"fast"`` for the
            batched engine in :mod:`repro.sim.fastpath` (raises if the L2 is
            not fast-path capable), or ``"auto"`` to use the fast engine
            whenever it supports the L2 and fall back otherwise.  Both
            engines produce numerically identical results, including the L1
            contents and hierarchy statistics.
        artifact_cache: Optional :class:`~repro.workloads.ArtifactCache`
            (or directory spec) the fast engine consults for pre-filtered
            L2 streams; ignored by the reference engine.  Results are
            bit-identical either way.

    Returns:
        A (result, hierarchy) pair; the hierarchy gives access to L1
        statistics and the realised L2 request counts.
    """
    _check_engine(engine)
    if engine != "reference":
        from .fastpath import run_cpu_trace_fast, supports_fast_path

        supported, reason = supports_fast_path(l2_cache)
        if engine == "fast" or supported:
            return run_cpu_trace_fast(
                l2_cache,
                trace,
                config=config,
                seed=seed,
                add_leakage=add_leakage,
                artifact_cache=artifact_cache,
            )
        _warn_auto_fallback(reason)
    config = config or SimulationConfig()
    hierarchy = CacheHierarchy(config.hierarchy, l2_cache, seed=seed)
    scheme = l2_cache.scheme_name()
    emit_event("sim.engine", engine="reference", path="cpu", scheme=scheme)
    with span("reference.replay", scheme=scheme, path="cpu", accesses=len(trace)):
        for record in trace:
            if record.kind is AccessKind.IFETCH:
                hierarchy.fetch_instruction(record.address)
            elif record.kind is AccessKind.LOAD:
                hierarchy.load(record.address)
            elif record.kind is AccessKind.STORE:
                hierarchy.store(record.address)
            else:
                raise SimulationError(
                    f"run_cpu_trace expects CPU-level records, got {record.kind}"
                )
    # Time base: one CPU reference per cycle is a serviceable approximation
    # for an in-order front end feeding two levels of cache.
    simulated_time = len(trace) * config.cycle_time_s
    if add_leakage:
        l2_cache.add_leakage(simulated_time)
    l2_accesses = hierarchy.stats.l2_reads + hierarchy.stats.l2_writebacks
    result = _snapshot(l2_cache, trace.name, l2_accesses, simulated_time)
    return result, hierarchy
