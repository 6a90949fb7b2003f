"""Bench: cross-job artifact-cache amortisation on a parameter sweep.

Runs the same 12-point ``p_cell`` sweep over one workload three ways:

* **uncached** — no artifact cache; every job regenerates and re-decodes
  the workload trace, which is what every sweep paid before the cache;
* **cold** — an empty cache directory; the first job derives and
  publishes the trace, the remaining eleven hit it (in-run amortisation);
* **warm** — the populated directory, as a second campaign or another
  worker machine would see it; every job serves the trace from disk.

The acceptance bar is the cross-job claim: with the cache warm the sweep
must run at least 2x faster than the uncached sweep (locally ~2.5x — a
warm job skips trace generation and the sequential replay pass, and
pays only the vectorised rest of the simulation).  Results land in
``BENCH_amortisation.json`` (uploaded as a CI artifact) together with the
store-identity check: all three sweeps must fill byte-identical stores.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.config import CacheLevelConfig
from repro.sim import ExperimentSettings

#: Sweep size; the amortisation claim needs a >= 10-point sweep.
SWEEP_POINTS = tuple(1e-9 * (index + 1) for index in range(12))

#: Accesses per job: enough that trace derivation and the functional replay
#: pass, which a warm cache skips, are a large share of an uncached job.
NUM_ACCESSES = 20_000


def sweep_spec() -> CampaignSpec:
    return CampaignSpec(
        name="bench-amortisation",
        workloads=("gcc",),
        base_settings=ExperimentSettings(
            l2_config=CacheLevelConfig(
                name="L2",
                size_bytes=256 * 1024,
                associativity=8,
                block_size_bytes=64,
                technology="stt-mram",
            ),
            num_accesses=NUM_ACCESSES,
            seed=1,
        ),
        sweep=(("p_cell", SWEEP_POINTS),),
    )


def run_sweep(store_path: Path, artifact_cache) -> float:
    store = ResultStore(store_path)
    start = time.perf_counter()
    run_campaign(
        sweep_spec(),
        store=store,
        backend="serial",
        artifact_cache=artifact_cache,
    )
    return time.perf_counter() - start


def test_bench_amortisation_warm_vs_cold():
    """Warm artifact cache must at least halve the sweep's wall clock."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        cache_dir = tmp_path / "artifacts"
        uncached_s = run_sweep(tmp_path / "uncached.jsonl", None)
        cold_s = run_sweep(tmp_path / "cold.jsonl", cache_dir)
        warm_s = run_sweep(tmp_path / "warm.jsonl", cache_dir)

        # The operational knob must not change a single stored byte.
        blobs = [
            (tmp_path / f"{label}.jsonl").read_bytes()
            for label in ("uncached", "cold", "warm")
        ]
        assert blobs[0] == blobs[1] == blobs[2]

        speedup_warm = uncached_s / warm_s
        speedup_cold = uncached_s / cold_s
        report = {
            "workloads": ["gcc"],
            "sweep_points": len(SWEEP_POINTS),
            "accesses_per_job": NUM_ACCESSES,
            "uncached_s": round(uncached_s, 3),
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 3),
            "warm_speedup_over_uncached": round(speedup_warm, 2),
            "cold_speedup_over_uncached": round(speedup_cold, 2),
            "stores_byte_identical": True,
        }
        output = Path("BENCH_amortisation.json")
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(
            f"\n[amortisation] {len(SWEEP_POINTS)}-point sweep x "
            f"{NUM_ACCESSES} accesses: uncached {uncached_s:.2f}s, "
            f"cold {cold_s:.2f}s, warm {warm_s:.2f}s "
            f"(warm {speedup_warm:.1f}x, cold {speedup_cold:.1f}x)"
        )
        assert speedup_warm >= 2.0, (
            f"warm artifact cache only {speedup_warm:.2f}x over an uncached "
            f"sweep (expected >= 3x nominally, 2x floor for CI noise)"
        )
