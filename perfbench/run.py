"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout (no install or build step)::

    python3 perfbench/run.py --workload fig5-suite --seed 1 --seconds 30 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in ``suite.py``.  A
run sets up (imports, builds the inputs three times and keeps the median,
runs one untimed warm-up pass), then drives the workload as a closed loop
with one caller for ``--seconds`` seconds.  The run stays on one thread
(numerical libraries are limited to one), and the objects set-up leaves
alive are frozen out of the garbage collector, so a full collection in a
timed pass walks only what that pass allocated.

The end-to-end timings are host seconds scaled to a nominal host speed.
The benchmark shares a few cores of a host whose speed drifts by a third
over minutes, alike for every workload, so raw medians of runs minutes
apart differ by more than any bound a regression check could use.  After
every timed pass the run times a fixed reference kernel (NumPy and
interpreter work the program never touches) for about a tenth of the pass's
time, and scales that pass's times by the kernel's nominal over measured
seconds; set-up is scaled likewise by the kernel timed right after it.  A
program change moves the pass times and not the kernel, so it shows in
full.  The unscaled values are printed on the ``measured:`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones (see ``layers.py``), their overhead over the untraced passes and the
per-layer table of total and self time.

Every job's output is checked (``suite.py``), and the digest of each pass's
result dictionaries must equal the warm-up pass's and, for the default seed,
the digest pinned in ``pins.json``.  A job that raised or failed a check
counts as failed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "pins.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1
SETUP_REPEATS = 3
TAIL_SAMPLES = 10
#: Thread pools of numerical libraries, each limited to one thread.
THREAD_LIMITS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds the reference kernel takes on the nominal host whose speed the
#: reported timings are scaled to.
REFERENCE_NOMINAL_S = 0.1
#: The reference kernel runs after each pass, at least once, until it has
#: taken this share of the pass's wall time.
REFERENCE_SHARE = 0.1


def import_program() -> float:
    """Put the checkout's ``src`` on the path, import the program through
    the benchmark modules, and return the seconds the imports took."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    import layers  # noqa: F401
    import suite  # noqa: F401

    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail(values: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten samples above it, and its
    percentile; the maximum when there are too few samples."""
    ordered = sorted(values)
    index = len(ordered) - 1 - (TAIL_SAMPLES if len(ordered) > TAIL_SAMPLES else 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def reference_kernel() -> float:
    """Seconds one run of a fixed mix of NumPy and interpreter work takes.

    The benchmark owns this code and no program change touches it, so its
    time measures how fast the shared host runs the process at the moment;
    the timings are scaled by it (``measure``)."""
    import numpy as np

    start = time.perf_counter()
    values = np.random.default_rng(DEFAULT_SEED).integers(0, 1 << 20, 200_000)
    np.unique(values >> 3)
    np.bincount(values & 8191)
    counts: dict[int, int] = {}
    for value in values[:60_000].tolist():
        counts[value & 4095] = counts.get(value & 4095, 0) + 1
    return time.perf_counter() - start


class Run:
    """One benchmark run: set-up, timed passes, checks and metrics."""

    def __init__(self, workload, pin: str | None) -> None:
        self.workload = workload
        self.pin = pin
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def setup(self) -> tuple[list[float], float]:
        """Build the inputs ``SETUP_REPEATS`` times, then run the warm-up
        pass; returns the build times and the warm-up seconds."""
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.workload.build()
            builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        self.reference = self.workload.run_pass(0)
        warm_s = time.perf_counter() - start
        self._failures(self.reference)  # reported; later passes repeat them
        return builds, warm_s

    def timed_pass(self):
        """Run one pass; returns ``(wall seconds, PassResult or None)``."""
        self.passes += 1
        expected = len(self.reference.jobs)
        start = time.perf_counter()
        try:
            result = self.workload.run_pass(self.passes)
        except Exception:  # a raising pass counts every job as failed
            wall = time.perf_counter() - start
            self.problems.append(traceback.format_exc(limit=3))
            self.attempted += expected
            self.failed += expected
            return wall, None
        wall = time.perf_counter() - start
        self.attempted += len(result.jobs)
        self.failed += self._failures(result)
        return wall, result

    def _failures(self, result) -> int:
        """Record a pass's failed checks; returns how many of its jobs failed."""
        pass_problems = list(result.problems)
        if result.digest != self.reference.digest:
            pass_problems.append("result digest differs from the warm-up pass")
        if self.pin is not None and result.digest != self.pin:
            pass_problems.append("result digest differs from the pinned digest")
        self.problems.extend(pass_problems)
        failed = 0
        for job in result.jobs:
            self.problems.extend(job.problems)
            failed += bool(job.problems or pass_problems)
        return failed


def host_speed(pass_s: float) -> list[float]:
    """Run the reference kernel after a pass of ``pass_s`` seconds; returns
    its times."""
    times = [reference_kernel()]
    while sum(times) < REFERENCE_SHARE * pass_s:
        times.append(reference_kernel())
    return times


def measure(run: Run, seconds: float) -> tuple[dict, dict, dict, list[float]]:
    """Untraced closed loop: end-to-end metric values and their samples,
    the same values unscaled, and the reference kernel's times.

    Each pass's times are scaled by the host speed the reference kernel
    measured right after it.  The throughput is the accesses of every
    completed pass over their scaled time together, so a slow stretch of
    the run weighs by its length; the per-pass rates are kept as samples
    for the printed quartiles."""
    rates, latencies, raw_latencies, references = [], [], [], []
    accesses = busy_s = raw_busy_s = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        wall, result = run.timed_pass()
        pass_references = host_speed(wall)
        references.extend(pass_references)
        speed = REFERENCE_NOMINAL_S / statistics.median(pass_references)
        if result is not None:
            pass_accesses = sum(job.accesses for job in result.jobs)
            accesses += pass_accesses
            busy_s += wall * speed
            raw_busy_s += wall
            rates.append(pass_accesses / (wall * speed))
            latencies.extend(job.latency_s * speed for job in result.jobs)
            raw_latencies.extend(job.latency_s for job in result.jobs)
        if time.perf_counter() >= deadline:
            break
    if not rates:
        raise SystemExit("perfbench: every timed pass raised")
    tail_s, percentile = tail(latencies)
    print(f"job latency: n={len(latencies)}, tail = p{percentile:.1f}")
    values = {
        "sim_accesses_per_s": accesses / busy_s,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
    }
    measured = {
        "sim_accesses_per_s": accesses / raw_busy_s,
        "job_p50_s": statistics.median(raw_latencies),
        "job_tail_s": tail(raw_latencies)[0],
    }
    samples = {
        "sim_accesses_per_s": rates,
        "job_p50_s": latencies,
        "job_tail_s": latencies,
    }
    return values, samples, measured, references


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics per pass."""
    import layers

    per_pass, spans = [], []
    plain_wall = traced_wall = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        # Alternate which side of a pair runs first, so a drift in machine
        # speed over the run does not bias the overhead ratio.
        for traced in (False, True) if len(per_pass) % 2 == 0 else (True, False):
            if not traced:
                wall, _ = run.timed_pass()
                plain_wall += wall
                continue
            recorder = layers.Recorder()
            with recorder.recording():
                wall, result = run.timed_pass()
            traced_wall += wall
            if result is None:
                continue
            per_pass.append(layers.pass_metrics(recorder.spans, wall, result.store_bytes))
            spans.extend(recorder.spans)
        if time.perf_counter() >= deadline:
            break
    if not per_pass:
        raise SystemExit("perfbench: every traced pass raised")
    print_layer_table(spans, traced_wall, len(per_pass))
    samples = {name: [metrics[name] for metrics in per_pass] for name in per_pass[0]}
    values = {name: statistics.median(vs) for name, vs in samples.items()}
    values["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    return values, samples


def print_layer_table(spans, wall: float, passes: int) -> None:
    import layers

    rows = layers.layer_table(spans)
    attributed = sum(span.duration for span in spans if span.top_level)
    print(f"layer table: {passes} traced passes, {wall:.4f} s wall")
    print(f"  {'layer':<28} {'calls':>7} {'total_s':>10} {'self_s':>10} {'share':>7}")
    for name in sorted(rows, key=lambda n: -rows[n].total_s):
        row = rows[name]
        print(
            f"  {name:<28} {row.calls:>7} {row.total_s:>10.4f} "
            f"{row.self_s:>10.4f} {row.total_s / wall:>7.1%}"
        )
    print(
        f"  {'unattributed':<28} {'':>7} {wall - attributed:>10.4f} "
        f"{wall - attributed:>10.4f} {(wall - attributed) / wall:>7.1%}"
    )


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size=None,
    pin: str | None = None,
    import_s: float = 0.0,
) -> dict:
    """Run one workload and return the result object the script prints."""
    import suite

    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        workload = suite.WORKLOADS[workload_name](size or suite.Size(), seed, workdir)
        run = Run(workload, pin)
        builds, warm_s = run.setup()
        print(f"digest: {run.reference.digest}")
        gc.collect()
        gc.freeze()
        if trace:
            values, samples = measure_traced(run, seconds)
        else:
            setup = [import_s + build_s + warm_s for build_s in builds]
            setup_speed = REFERENCE_NOMINAL_S / statistics.median(
                host_speed(statistics.median(setup))
            )
            values, samples, measured, references = measure(run, seconds)
            measured["setup_s"] = statistics.median(setup)
            samples["setup_s"] = [setup_s * setup_speed for setup_s in setup]
            values["setup_s"] = statistics.median(samples["setup_s"])
            speed = REFERENCE_NOMINAL_S / statistics.median(references)
            print(
                f"reference kernel: host speed {setup_speed:.4f} x nominal after set-up, "
                f"median {speed:.4f} over {len(references)} runs after passes"
            )
            print(f"measured: {json.dumps(measured)}")
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in SPEC["per_layer" if trace else "end_to_end"]
    }
    print(f"workload {workload_name}, seed {seed}, {run.passes} timed passes")
    header = ("metric", "unit", "value", "q1", "median", "q3", "n")
    print("  {:<40} {:<11} {:>12} {:>12} {:>12} {:>12} {:>6}".format(*header))
    rows = [(name, m["unit"], m["value"], samples.get(name)) for name, m in metrics.items()]
    rows.append(("failed_ratio", "ratio", run.failed / max(run.attempted, 1), None))
    for name, unit, value, sample in rows:
        spread = ""
        if sample:
            spread = "".join(f" {q:>12.6g}" for q in quartiles(sample)) + f" {len(sample):>6}"
        print(f"  {name:<40} {unit:<11} {value:>12.6g}{spread}")
    for problem in dict.fromkeys(run.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The program receives only the generated inputs: no artifact cache,
    # telemetry or fault plan leaks in from the environment.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(dict.fromkeys(THREAD_LIMITS, "1"))  # before numpy loads
    import_s = import_program()
    import suite

    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(suite.WORKLOADS)}")
    pin = None
    if args.seed == DEFAULT_SEED:
        pin = json.loads(PINS.read_text())[args.workload]
    result = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), pin=pin, import_s=import_s
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
