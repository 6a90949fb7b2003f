"""Self-test of the benchmark at a tiny size.

Every workload must emit, in both modes, exactly the metrics
``BENCHMARK.json`` names, each with its unit, and pass its output checks;
a tampered result digest must count as failed jobs.
"""

from __future__ import annotations

import json

import pytest

import run

run.import_program()
import suite  # noqa: E402

TINY = suite.Size(
    fig5_accesses=2_000,
    fig5_profiles=("mcf", "gcc", "cactusADM"),
    pcell_accesses=2_000,
    pcell_profiles=("mcf", "namd"),
    pcell_values=(1e-8, 1e-7),
    cpu_references=4_000,
)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(suite.WORKLOADS))
def test_each_workload_emits_every_named_metric(workload, trace):
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, size=TINY)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", list(suite.WORKLOADS))
def test_a_tampered_digest_fails_every_job(workload):
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=False, size=TINY, pin="0" * 64)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
