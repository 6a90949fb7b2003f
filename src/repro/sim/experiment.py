"""Experiment orchestration: scheme comparisons and parameter sweeps.

The figure builders in :mod:`repro.analysis` are thin wrappers around the
two workhorses here:

* :func:`compare_schemes` — run the *same* workload trace through a baseline
  scheme and any number of alternatives and pair up the results.
* :class:`ExperimentRunner` — run a whole suite of SPEC-named workloads,
  optionally sweeping a parameter (ECC strength, associativity, disturbance
  probability), and collect the per-workload comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..config import CacheLevelConfig, MTJConfig, SimulationConfig, paper_l2_config
from ..core import DataValueProfile, ProtectionScheme, build_protected_cache
from ..errors import AnalysisError, ReproError
from ..workloads import SPECWorkloadProfile, generate_l2_trace, get_profile
from ..workloads.trace import Trace
from .engine import run_l2_trace
from .results import SchemeRunResult, WorkloadComparison


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all runs of one experiment.

    Attributes:
        l2_config: Geometry and ECC of the L2 under test.
        mtj: MTJ operating point (ignored when ``p_cell`` is given).
        p_cell: Per-read, per-cell disturbance probability override.
        num_accesses: L2 accesses generated per workload.
        ones_count: When set, every block holds exactly this many '1' cells
            (the paper's worked example uses 100); otherwise ones counts are
            sampled from the default data profile.
        seed: Base random seed (workload index is added to it).
        track_accumulation: Record per-delivery samples (needed for Fig. 3).
        trace_file: When set, replay this trace file (any format accepted by
            :func:`repro.workloads.open_trace`) instead of generating a
            trace from the workload profile; ``num_accesses`` and ``seed``
            then no longer affect the access stream.
        segment_accesses: Replay segment length for out-of-core replay; see
            :func:`repro.sim.run_l2_trace`.  ``None`` replays in-memory
            traces whole (segmented replay is bit-identical, so this is an
            execution knob — but it is carried in the settings so campaign
            workers replay files in bounded memory).
    """

    l2_config: CacheLevelConfig = field(default_factory=paper_l2_config)
    mtj: MTJConfig = field(default_factory=MTJConfig)
    p_cell: float | None = 1e-8
    num_accesses: int = 100_000
    ones_count: int | None = 100
    seed: int = 1
    track_accumulation: bool = True
    trace_file: str | None = None
    segment_accesses: int | None = None

    def data_profile(self, seed: int) -> DataValueProfile:
        """Build the ones-count sampler implied by the settings."""
        if self.ones_count is not None:
            return DataValueProfile.constant(
                self.ones_count, block_bits=self.l2_config.block_size_bits
            )
        return DataValueProfile(block_bits=self.l2_config.block_size_bits, seed=seed)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a plain dictionary (nested configs included).

        The streaming fields are included only when set: campaign job keys
        hash this dictionary, and defaulted streaming knobs must not change
        the identity of jobs recorded before the fields existed.
        """
        data = {
            "l2_config": self.l2_config.to_dict(),
            "mtj": self.mtj.to_dict(),
            "p_cell": self.p_cell,
            "num_accesses": self.num_accesses,
            "ones_count": self.ones_count,
            "seed": self.seed,
            "track_accumulation": self.track_accumulation,
        }
        if self.trace_file is not None:
            data["trace_file"] = self.trace_file
        if self.segment_accesses is not None:
            data["segment_accesses"] = self.segment_accesses
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSettings":
        """Build from a plain dictionary, ignoring unknown keys."""
        payload = dict(data)
        l2_data = payload.pop("l2_config", None)
        mtj_data = payload.pop("mtj", None)
        known = {f.name for f in fields(cls)} - {"l2_config", "mtj"}
        return cls(
            l2_config=(
                CacheLevelConfig.from_dict(l2_data)
                if l2_data is not None
                else paper_l2_config()
            ),
            mtj=MTJConfig.from_dict(mtj_data) if mtj_data is not None else MTJConfig(),
            **{k: v for k, v in payload.items() if k in known},
        )


def _is_registered(profile: SPECWorkloadProfile) -> bool:
    """Whether the registry resolves the profile's name back to this profile.

    Campaign jobs carry only the workload *name*; delegating an unregistered
    (or locally modified) profile object would silently evaluate the
    registry's version instead.
    """
    try:
        return get_profile(profile.name) == profile
    except ReproError:
        return False


def _resolve_trace(
    settings: ExperimentSettings,
    profile: SPECWorkloadProfile,
    artifact_cache=None,
):
    """The access stream a settings object asks for: file, cache or generated.

    ``artifact_cache`` accepts an :class:`~repro.workloads.ArtifactCache`,
    a directory spec, or ``None`` (consult ``REPRO_ARTIFACT_CACHE``).  With
    a cache resolved, generated traces are served from (and persisted to)
    the cache — a hit replays through the bit-identical segmented path —
    and text trace files are mirrored to the binary format once.  The knob
    is purely operational: it never enters settings or job identity.
    """
    from ..workloads.artifacts import ArtifactCache

    cache = ArtifactCache.resolve(artifact_cache)
    if settings.trace_file is not None:
        from ..workloads.streams import TextTraceSource, open_trace

        source = open_trace(settings.trace_file)
        if cache is not None and isinstance(source, TextTraceSource):
            return cache.binary_text_trace(settings.trace_file, source)
        return source
    if cache is not None:
        return cache.l2_trace(
            profile, settings.l2_config, settings.num_accesses, settings.seed
        )
    return generate_l2_trace(
        profile, settings.l2_config, settings.num_accesses, seed=settings.seed
    )


def run_workload(
    workload: SPECWorkloadProfile | str,
    scheme: ProtectionScheme | str,
    settings: ExperimentSettings | None = None,
    trace: Trace | None = None,
    sim_config: SimulationConfig | None = None,
    engine: str = "auto",
    artifact_cache=None,
    frame_memo=None,
):
    """Run one (workload, scheme) pair and return (result, protected cache).

    Args:
        workload: Profile object or SPEC benchmark name.
        scheme: Protection scheme to evaluate.
        settings: Experiment settings; defaults reproduce the paper setup.
        trace: Pre-generated trace or a streaming
            :class:`~repro.workloads.streams.TraceSource`; when omitted one
            is resolved from the settings — opened from
            ``settings.trace_file`` when set, generated from the profile
            otherwise (always resolve the trace once and pass it in when
            comparing schemes, so both see the identical access stream).
        sim_config: Simulation configuration for the time base.
        engine: Simulation engine (``"reference"``, ``"fast"`` or
            ``"auto"``, the default); see :func:`repro.sim.run_l2_trace`.
            Both engines produce numerically identical results, so the
            choice never affects experiment outcomes; ``"auto"`` warns and
            falls back to the reference loop for unsupported caches.
        artifact_cache: Optional artifact-cache spec consulted when the
            trace is resolved here (see :func:`_resolve_trace`); results
            are byte-identical with the cache cold, warm or disabled.
        frame_memo: Optional :class:`repro.sim.fastpath.FrameMemo` shared by
            runs over the same trace (see :func:`repro.sim.run_l2_trace`).
    """
    settings = settings or ExperimentSettings()
    profile = get_profile(workload) if isinstance(workload, str) else workload
    if trace is None:
        trace = _resolve_trace(settings, profile, artifact_cache=artifact_cache)
    cache = build_protected_cache(
        scheme,
        settings.l2_config,
        mtj=settings.mtj,
        p_cell=settings.p_cell,
        data_profile=settings.data_profile(settings.seed),
        seed=settings.seed,
        track_accumulation=settings.track_accumulation,
    )
    result = run_l2_trace(
        cache,
        trace,
        config=sim_config,
        engine=engine,
        segment_accesses=settings.segment_accesses,
        frame_memo=frame_memo,
    )
    return result, cache


def compare_schemes(
    workload: SPECWorkloadProfile | str,
    baseline: ProtectionScheme | str = ProtectionScheme.CONVENTIONAL,
    alternatives: Sequence[ProtectionScheme | str] = (ProtectionScheme.REAP,),
    settings: ExperimentSettings | None = None,
    sim_config: SimulationConfig | None = None,
    engine: str = "auto",
    artifact_cache=None,
) -> WorkloadComparison:
    """Run one workload through a baseline and alternative schemes.

    The trace is resolved once (generated from the profile, served from the
    artifact cache, or opened from ``settings.trace_file``) and replayed
    identically for every scheme so the comparison isolates the protection
    mechanism.  ``engine`` selects the simulation engine per
    :func:`repro.sim.run_l2_trace`; results are numerically identical
    across engines, and ``artifact_cache`` (like the engine) is an
    operational knob that never changes results or identities.

    The schemes also share one :class:`~repro.sim.fastpath.FrameMemo`, so
    the fast engine's functional pass (identical for every scheme from an
    empty LRU cache) runs once per comparison; with an artifact cache it is
    persisted next to the trace and reused by later jobs of a sweep.
    """
    from ..workloads.artifacts import ArtifactCache
    from .fastpath import FrameMemo

    settings = settings or ExperimentSettings()
    profile = get_profile(workload) if isinstance(workload, str) else workload
    artifact_cache = ArtifactCache.resolve(artifact_cache)
    trace = _resolve_trace(settings, profile, artifact_cache=artifact_cache)
    frame_memo = FrameMemo(artifact_cache)
    baseline_result, _ = run_workload(
        profile,
        baseline,
        settings=settings,
        trace=trace,
        sim_config=sim_config,
        engine=engine,
        frame_memo=frame_memo,
    )
    alternative_results = []
    for scheme in alternatives:
        result, _ = run_workload(
            profile,
            scheme,
            settings=settings,
            trace=trace,
            sim_config=sim_config,
            engine=engine,
            frame_memo=frame_memo,
        )
        alternative_results.append(result)
    return WorkloadComparison(
        workload=profile.name,
        baseline=baseline_result,
        alternatives=tuple(alternative_results),
    )


class ExperimentRunner:
    """Runs a suite of workloads through a set of schemes."""

    def __init__(
        self,
        workloads: Iterable[SPECWorkloadProfile | str],
        settings: ExperimentSettings | None = None,
        baseline: ProtectionScheme | str = ProtectionScheme.CONVENTIONAL,
        alternatives: Sequence[ProtectionScheme | str] = (ProtectionScheme.REAP,),
        engine: str = "auto",
    ) -> None:
        """Create a runner.

        Args:
            workloads: Profiles or benchmark names to evaluate.
            settings: Shared experiment settings.
            baseline: Scheme every alternative is normalised against.
            alternatives: Schemes to evaluate against the baseline.
            engine: Simulation engine used for every run (``"reference"``,
                ``"fast"`` or ``"auto"``, the default); results are
                numerically identical either way, so the engine is not part
                of any job identity.
        """
        self._workloads = [
            get_profile(w) if isinstance(w, str) else w for w in workloads
        ]
        if not self._workloads:
            raise AnalysisError("at least one workload is required")
        self._settings = settings or ExperimentSettings()
        self._baseline = baseline
        self._alternatives = tuple(alternatives)
        self._engine = engine

    @property
    def workloads(self) -> list[SPECWorkloadProfile]:
        """The workload profiles the runner evaluates."""
        return list(self._workloads)

    @property
    def settings(self) -> ExperimentSettings:
        """Shared experiment settings."""
        return self._settings

    def run(
        self,
        progress: Callable[[str], None] | None = None,
        jobs: int = 1,
        store=None,
    ) -> list[WorkloadComparison]:
        """Run every workload and return the per-workload comparisons.

        Delegates to :mod:`repro.campaign`: each workload becomes one
        campaign job (seed strided by workload index, as before), so the
        suite can fan out over worker processes and reuse a persistent
        result store without changing this method's contract.  Campaign
        jobs are identified by workload *name*, so profiles that are not in
        the registry (custom or modified objects) run in-process instead,
        without store caching or fan-out.

        Args:
            progress: Optional callback invoked with the workload name as
                each comparison finishes.
            jobs: Worker processes to fan the workloads out over (default
                serial, the historical behaviour).
            store: Optional :class:`repro.campaign.ResultStore` (or path)
                used to cache and resume the runs.
        """
        if not all(_is_registered(profile) for profile in self._workloads):
            return self._run_direct(progress)

        from ..campaign import CampaignSpec, run_campaign

        spec = CampaignSpec(
            name="experiment-runner",
            workloads=tuple(profile.name for profile in self._workloads),
            base_settings=self._settings,
            baseline=self._baseline,
            alternatives=self._alternatives,
        )
        job_progress = None
        if progress is not None:
            job_progress = lambda outcome: progress(outcome.job.workload)  # noqa: E731
        result = run_campaign(
            spec,
            store=store,
            jobs=jobs,
            progress=job_progress,
            engine=self._engine,
        )
        return result.comparisons

    def _run_direct(
        self, progress: Callable[[str], None] | None = None
    ) -> list[WorkloadComparison]:
        """In-process fallback for unregistered workload profiles."""
        from .engine import deduplicate_fallback_warnings

        with deduplicate_fallback_warnings():
            return self._run_direct_inner(progress)

    def _run_direct_inner(
        self, progress: Callable[[str], None] | None = None
    ) -> list[WorkloadComparison]:
        comparisons = []
        for index, profile in enumerate(self._workloads):
            comparison = compare_schemes(
                profile,
                baseline=self._baseline,
                alternatives=self._alternatives,
                settings=replace(self._settings, seed=self._settings.seed + index),
                engine=self._engine,
            )
            comparisons.append(comparison)
            if progress is not None:
                progress(profile.name)
        return comparisons


def sweep(
    parameter_values: Sequence[object],
    build_settings: Callable[[object], ExperimentSettings] | str,
    workload: SPECWorkloadProfile | str,
    baseline: ProtectionScheme | str = ProtectionScheme.CONVENTIONAL,
    alternatives: Sequence[ProtectionScheme | str] = (ProtectionScheme.REAP,),
    jobs: int = 1,
    store=None,
    engine: str = "auto",
    settings: ExperimentSettings | None = None,
) -> list[tuple[object, WorkloadComparison]]:
    """Sweep one parameter and compare schemes at each point.

    Each point becomes one :class:`repro.campaign.JobSpec`, so sweeps share
    the campaign machinery: optional process fan-out and result-store
    caching, with results returned in sweep order either way.  Campaign
    jobs are identified by workload *name*; an unregistered (custom)
    profile object sweeps in-process without caching or fan-out.

    Args:
        parameter_values: The values to sweep.
        build_settings: Maps a parameter value to the experiment settings to
            use at that point.  Instead of a callable, a (possibly dotted)
            settings path — ``"p_cell"``, ``"l2_config.associativity"``,
            ``"l2_config.ecc.kind"`` — applies each value to ``settings``
            at that path (validated with a clear error naming any unknown
            path segment).
        workload: The workload evaluated at every point.
        baseline: Baseline scheme.
        alternatives: Alternative schemes.
        jobs: Worker processes to fan the points out over (default serial).
        store: Optional :class:`repro.campaign.ResultStore` (or path) used
            to cache and resume the sweep.
        engine: Simulation engine used at every point (default ``"auto"``;
            results are numerically identical across engines).
        settings: Base settings the dotted-path form starts from (defaults
            to :class:`ExperimentSettings`); ignored when
            ``build_settings`` is a callable.

    Returns:
        ``[(value, comparison), ...]`` in the order of ``parameter_values``.
    """
    from ..campaign import JobSpec, run_campaign

    if isinstance(build_settings, str):
        from ..campaign.spec import apply_sweep_point, validate_sweep_path

        path = build_settings
        base_settings = settings or ExperimentSettings()
        validate_sweep_path(base_settings, path)
        build_settings = lambda value: apply_sweep_point(  # noqa: E731
            base_settings, ((path, value),)
        )
    if not parameter_values:
        return []
    profile = get_profile(workload) if isinstance(workload, str) else workload
    if not _is_registered(profile):
        from .engine import deduplicate_fallback_warnings

        with deduplicate_fallback_warnings():
            return [
                (
                    value,
                    compare_schemes(
                        profile,
                        baseline=baseline,
                        alternatives=alternatives,
                        settings=build_settings(value),
                        engine=engine,
                    ),
                )
                for value in parameter_values
            ]
    job_specs = []
    for index, value in enumerate(parameter_values):
        point_value = value if isinstance(value, (bool, int, float, str)) else str(value)
        job_specs.append(
            JobSpec(
                workload=profile.name,
                settings=build_settings(value),
                baseline=baseline,
                alternatives=tuple(alternatives),
                point=(("sweep_index", index), ("value", point_value)),
            )
        )
    result = run_campaign(job_specs, store=store, jobs=jobs, engine=engine)
    return [
        (value, outcome.comparison)
        for value, outcome in zip(parameter_values, result.outcomes)
    ]
