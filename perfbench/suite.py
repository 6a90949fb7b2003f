"""The benchmark's workloads: inputs built from a seed, one pass, checked outputs.

Each workload is driven as a closed loop by one caller: a *pass* runs the
workload's whole job set once, serially, and the next pass starts only when
the previous one has finished.  The program receives only the generated
inputs (campaign specs, artifact caches, CPU traces); the seed stays here.

Every pass returns its canonical result dictionaries, their digest and the
output-check violations of each job, so the runner can count a job as failed
when it raised, broke an invariant, or produced a digest that differs from
the warm-up pass or from the pinned digest of the default seed.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign.hashing import content_hash
from repro.campaign.store import comparison_to_dict, run_result_to_dict
from repro.config import SimulationConfig
from repro.core import build_protected_cache
from repro.sim import ExperimentSettings, run_cpu_trace
from repro.workloads import (
    ArtifactCache,
    all_profiles,
    get_profile,
    hot_loop_trace,
    mixed_trace,
    pointer_chase_trace,
    sequential_trace,
)

#: Schemes whose read path leaves no read concealed from ECC.
NO_CONCEALED_READS = ("reap", "serial")


@dataclass(frozen=True)
class Size:
    """How much work one pass of each workload does.

    The defaults are the benchmark's; the self-test shrinks them.
    """

    fig5_accesses: int = 20_000
    fig5_profiles: tuple[str, ...] = ()  # empty: the whole SPEC-named suite
    pcell_accesses: int = 20_000
    pcell_profiles: tuple[str, ...] = ("mcf", "gcc", "namd")
    pcell_values: tuple[float, ...] = (1e-9, 1e-8, 1e-7, 1e-6)
    cpu_references: int = 60_000


@dataclass
class Job:
    """One finished job of a pass.

    ``accesses`` counts simulated accesses per scheme (CPU references for
    ``hierarchy-cpu``); ``problems`` lists the output checks it failed.
    """

    latency_s: float
    accesses: int
    problems: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    """Everything one pass produced."""

    jobs: list[Job]
    results: list[dict[str, Any]]
    store_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical JSON of the pass's result dictionaries."""
        return content_hash(self.results)


def _shared_statistics(runs) -> list[str]:
    """Schemes replaying one access stream must agree on its statistics."""
    first = runs[0]
    return [
        f"{run.scheme} differs from {first.scheme} in hit_rate/read_fraction"
        for run in runs[1:]
        if (run.hit_rate, run.read_fraction) != (first.hit_rate, first.read_fraction)
    ]


def _concealed(runs) -> list[str]:
    return [
        f"{run.scheme} reported {run.concealed_reads} concealed reads"
        for run in runs
        if run.scheme in NO_CONCEALED_READS and run.concealed_reads != 0
    ]


class CampaignWorkload:
    """A campaign run on the serial backend into a fresh JSONL store."""

    name = ""
    #: Whether every job must show a REAP MTTF factor above one.
    requires_reap_gain = False

    def __init__(self, size: Size, seed: int, workdir: Path) -> None:
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.spec: CampaignSpec | None = None
        self.artifact_dir: Path | None = None
        self.builds = 0

    def build(self) -> None:
        """Build the pass inputs (part of set-up)."""
        self.spec = self.campaign_spec()
        self.builds += 1

    def campaign_spec(self) -> CampaignSpec:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        store_path = self.workdir / f"store-{index}.jsonl"
        try:
            outcome = run_campaign(
                self.spec,
                store=ResultStore(store_path),
                backend="serial",
                artifact_cache=self.artifact_dir,
            )
            store_bytes = store_path.stat().st_size
        finally:
            store_path.unlink(missing_ok=True)
        jobs, results = [], []
        for job_outcome in outcome.outcomes:
            comparison = job_outcome.comparison
            runs = (comparison.baseline, *comparison.alternatives)
            problems = _concealed(runs) + _shared_statistics(runs)
            if self.requires_reap_gain and not comparison.mttf_improvement("reap") > 1:
                problems.append(f"{comparison.workload}: REAP MTTF factor <= 1")
            jobs.append(
                Job(
                    latency_s=job_outcome.elapsed_s,
                    accesses=sum(run.num_accesses for run in runs),
                    problems=problems,
                )
            )
            results.append(comparison_to_dict(comparison))
        return PassResult(jobs=jobs, results=results, store_bytes=store_bytes)


class Fig5Suite(CampaignWorkload):
    """Fig. 5/6 as the paper runs them: every SPEC-named profile, conventional
    vs REAP, traces generated per job and no artifact cache."""

    name = "fig5-suite"
    requires_reap_gain = True

    def campaign_spec(self) -> CampaignSpec:
        profiles = self.size.fig5_profiles or tuple(p.name for p in all_profiles())
        return CampaignSpec(
            name=self.name,
            workloads=profiles,
            base_settings=ExperimentSettings(
                num_accesses=self.size.fig5_accesses, seed=self.seed
            ),
        )


class PcellSweepWarm(CampaignWorkload):
    """A ``p_cell`` sweep over profiles spanning the suite's stable-traffic
    range, all five schemes, traces served from an artifact cache warmed in
    set-up."""

    name = "pcell-sweep-warm"

    def campaign_spec(self) -> CampaignSpec:
        return CampaignSpec(
            name=self.name,
            workloads=self.size.pcell_profiles,
            base_settings=ExperimentSettings(
                num_accesses=self.size.pcell_accesses, seed=self.seed
            ),
            alternatives=("reap", "serial", "restore", "scrubbing"),
            sweep=(("p_cell", self.size.pcell_values),),
        )

    def build(self) -> None:
        super().build()
        if self.artifact_dir is not None:
            shutil.rmtree(self.artifact_dir, ignore_errors=True)
        self.artifact_dir = self.workdir / f"artifacts-{self.builds}"
        cache = ArtifactCache(self.artifact_dir)
        for job in self.spec.jobs():
            settings = job.settings
            cache.l2_trace(
                get_profile(job.workload),
                settings.l2_config,
                settings.num_accesses,
                settings.seed,
            )


class HierarchyCPU:
    """A CPU-level mix through the full hierarchy, conventional and REAP."""

    name = "hierarchy-cpu"
    schemes = ("conventional", "reap")

    def __init__(self, size: Size, seed: int, workdir: Path) -> None:
        self.size = size
        self.seed = seed
        self.trace = None
        self.config = SimulationConfig()
        self.settings = ExperimentSettings(seed=seed)

    def build(self) -> None:
        """The mix: a hot loop over an L1-resident data set, a pointer chase
        over an L2-resident pool and streaming stores, interleaved."""
        refs, seed = self.size.cpu_references, self.seed * 4
        self.trace = mixed_trace(
            "cpu-mix",
            [
                hot_loop_trace(num_accesses=refs // 2, data_bytes=16 * 1024, seed=seed),
                pointer_chase_trace(
                    num_accesses=refs // 4, num_nodes=8 * 1024, seed=seed + 1
                ),
                sequential_trace(
                    num_accesses=refs // 4, store_fraction=1.0, seed=seed + 2
                ),
            ],
            seed=seed + 3,
        )

    def run_pass(self, index: int) -> PassResult:
        jobs, runs = [], []
        for scheme in self.schemes:
            start = time.perf_counter()
            cache = build_protected_cache(
                scheme,
                self.config.hierarchy.l2,
                p_cell=self.settings.p_cell,
                data_profile=self.settings.data_profile(self.seed),
                seed=self.seed,
            )
            # run_cpu_trace alone defaults to the reference loop; "auto" is
            # the default of every other entry point and takes the fast path.
            result, _ = run_cpu_trace(
                cache, self.trace, config=self.config, seed=self.seed, engine="auto"
            )
            jobs.append(
                Job(
                    latency_s=time.perf_counter() - start,
                    accesses=len(self.trace),
                    problems=_concealed([result]),
                )
            )
            runs.append(result)
        return PassResult(
            jobs=jobs,
            results=[run_result_to_dict(run) for run in runs],
            problems=_shared_statistics(runs),
        )


WORKLOADS = {cls.name: cls for cls in (Fig5Suite, PcellSweepWarm, HierarchyCPU)}
