"""The shared functional pass: :class:`repro.sim.fastpath.FrameMemo`.

From an empty LRU cache the fast engine's functional pass depends only on
the (set, tag) stream, so a comparison or a reliability sweep may replay it
once and derive every other run from the memoised frame column.  These
tests pin that a memo hit is invisible: results and end state equal both
the reference engine and a memo-less fast run, for every scheme, and a
memo entry that cannot belong to the stream is recomputed, not trusted.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.cache import SetAssociativeCache
from repro.sim import compare_schemes, run_l2_trace
from repro.sim.experiment import ExperimentSettings
from repro.sim.fastpath import FrameMemo
from repro.sim.soa import _stable_argsort, frames_key
from repro.telemetry import MemorySink, telemetry
from repro.workloads import (
    AccessKind,
    ArtifactCache,
    Trace,
    TraceRecord,
    generate_l2_trace,
    get_profile,
)

from equivalence_utils import (
    EQUIVALENCE_SCHEMES,
    assert_caches_equivalent,
    assert_results_equivalent,
    build_cache,
    small_l2,
)

#: Geometries whose set/way arithmetic differs from the default harness L2.
GEOMETRIES = {
    "direct-mapped": dict(size_bytes=16 * 1024, associativity=1),
    "64-way": dict(size_bytes=256 * 1024, associativity=64),
    "32B-blocks": dict(size_bytes=32 * 1024, block_size_bytes=32),
}


def profile_trace(workload: str, seed: int, config=None, length=3_000) -> Trace:
    return generate_l2_trace(
        get_profile(workload), config or small_l2(), num_accesses=length, seed=seed
    )


class CountingMemo(FrameMemo):
    """A memo that records its lookups and stores."""

    def __init__(self, artifact_cache=None) -> None:
        super().__init__(artifact_cache)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def get(self, key):
        frames = super().get(key)
        if frames is None:
            self.misses += 1
        else:
            self.hits += 1
        return frames

    def put(self, key, frames):
        self.puts += 1
        super().put(key, frames)

    def find_stream(self, geometry, packed_keys, codes, samples):
        # Serve no shared pass-2 entry, so every run here takes the
        # frame-column path these tests pin; test_shared_pass2.py covers
        # the entries.
        return None


def run_fast(scheme, trace, config=None, seed=1, memo=None, **kwargs):
    cache = build_cache(scheme, config=config, seed=seed)
    result = run_l2_trace(cache, trace, engine="fast", frame_memo=memo, **kwargs)
    return result, cache


def run_reference(scheme, trace, config=None, seed=1):
    cache = build_cache(scheme, config=config, seed=seed)
    return run_l2_trace(cache, trace, engine="reference"), cache


def assert_memo_hit_invisible(scheme, trace, config=None, seed=1, **kwargs):
    """Prime a memo from another scheme, then replay ``scheme`` from it."""
    memo = CountingMemo()
    primer = "reap" if scheme == "conventional" else "conventional"
    run_fast(primer, trace, config=config, seed=seed, memo=memo, **kwargs)
    assert (memo.misses, memo.puts) == (1, 1)

    hit, hit_cache = run_fast(
        scheme, trace, config=config, seed=seed, memo=memo, **kwargs
    )
    assert memo.hits == 1
    plain, plain_cache = run_fast(scheme, trace, config=config, seed=seed, **kwargs)
    reference, ref_cache = run_reference(scheme, trace, config=config, seed=seed)

    assert dataclasses.asdict(hit) == dataclasses.asdict(plain)  # bitwise
    assert_caches_equivalent(plain_cache, hit_cache)
    assert_results_equivalent(reference, hit)
    assert_caches_equivalent(ref_cache, hit_cache)


class TestMemoHitEquivalence:
    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @pytest.mark.parametrize("workload", ("gcc", "mcf", "namd"))
    def test_profiles(self, workload, scheme):
        assert_memo_hit_invisible(scheme, profile_trace(workload, 2), seed=2)

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_geometries(self, geometry, scheme):
        config = small_l2(**GEOMETRIES[geometry])
        trace = profile_trace("omnetpp", 4, config=config, length=2_000)
        assert_memo_hit_invisible(scheme, trace, config=config, seed=4)

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    def test_store_heavy_stream(self, scheme):
        """Dirty evictions and write hits on re-filled frames."""
        rng = random.Random(5)
        records = [
            TraceRecord(
                AccessKind.L2_WRITE if rng.random() < 0.6 else AccessKind.L2_READ,
                rng.randrange(256) * 64 * 16,  # 256 blocks over 8 sets
            )
            for _ in range(3_000)
        ]
        assert_memo_hit_invisible(scheme, Trace("store-heavy", records), seed=5)

    def test_segmented_replay_memoises_first_segment_only(self):
        trace = profile_trace("gcc", 3)
        memo = CountingMemo()
        run_fast("conventional", trace, memo=memo, segment_accesses=700)
        # Later segments start from a warm cache and never consult the memo.
        assert (memo.misses, memo.puts) == (1, 1)
        assert_memo_hit_invisible("reap", trace, segment_accesses=700)


class TestMemoEligibility:
    def test_non_lru_policy_never_consults_memo(self):
        config = small_l2(replacement="fifo")
        memo = CountingMemo()
        trace = profile_trace("gcc", 1, config=config)
        run_fast("conventional", trace, config=config, memo=memo)
        assert (memo.hits, memo.misses, memo.puts) == (0, 0, 0)

    def test_warm_cache_never_consults_memo(self):
        trace = profile_trace("gcc", 1)
        memo = CountingMemo()
        cache = build_cache("reap")
        run_l2_trace(cache, trace, engine="fast", frame_memo=memo)
        run_l2_trace(cache, trace, engine="fast", frame_memo=memo)
        assert (memo.hits, memo.misses, memo.puts) == (0, 1, 1)

    def test_reference_engine_ignores_memo(self):
        memo = CountingMemo()
        trace = profile_trace("gcc", 1)
        run_l2_trace(build_cache("reap"), trace, engine="reference", frame_memo=memo)
        assert (memo.hits, memo.misses, memo.puts) == (0, 0, 0)

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros(5, dtype=np.int32),  # wrong length
            np.full(3_000, 7, dtype=np.int32),  # frames outside the accessed sets
            np.zeros(3_000, dtype=np.float64),  # not an integer column
        ],
        ids=["length", "sets", "dtype"],
    )
    def test_mismatched_entry_is_recomputed(self, bad):
        trace = profile_trace("mcf", 1)
        memo = CountingMemo()
        cache = build_cache("conventional")
        kinds, addresses = trace.decoded()
        batch = cache.cache.mapper.decompose_batch(addresses)
        index_bits = cache.cache.num_sets.bit_length() - 1
        key = frames_key(
            (batch.tags << index_bits) | batch.indices,
            cache.cache.num_sets,
            cache.cache.associativity,
        )
        memo.put(key, bad)
        result = run_l2_trace(cache, trace, engine="fast", frame_memo=memo)
        plain, _ = run_fast("conventional", trace)
        assert dataclasses.asdict(result) == dataclasses.asdict(plain)
        assert memo.puts == 2  # the recomputed column replaced the bad one
        assert memo.get(key).shape == (len(trace),)


class TestArtifactBackedMemo:
    def test_frames_round_trip_and_corruption(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        frames = np.arange(40, dtype=np.int32) % 16
        assert cache.load_frames("k") is None
        assert cache.store_frames("k", frames)
        np.testing.assert_array_equal(cache.load_frames("k"), frames)
        path = cache._frames_path("k")
        path.write_bytes(path.read_bytes()[:20])  # truncate
        sink = MemorySink()
        with telemetry(sink):
            assert cache.load_frames("k") is None
        outcomes = [
            event["outcome"]
            for event in sink.events
            if event.get("name") == "cache.artifact"
        ]
        assert outcomes == ["error"]

    def test_sweep_jobs_share_the_persisted_column(self, tmp_path):
        """A second job of a p_cell sweep loads the column from disk."""
        settings = ExperimentSettings(
            l2_config=small_l2(), num_accesses=2_000, seed=3
        )
        artifacts = ArtifactCache(tmp_path)
        first = compare_schemes("gcc", settings=settings, artifact_cache=artifacts)
        assert len(list((tmp_path / "frames").glob("*.npy"))) == 1

        swept = dataclasses.replace(settings, p_cell=settings.p_cell * 10)
        sink = MemorySink()
        with telemetry(sink):
            warm = compare_schemes("gcc", settings=swept, artifact_cache=artifacts)
        frame_events = [
            e["outcome"]
            for e in sink.events
            if e.get("name") == "cache.artifact" and e.get("artifact") == "frames"
        ]
        assert frame_events == ["hit"]  # then memoised in memory for REAP
        uncached = compare_schemes("gcc", settings=swept, artifact_cache="off")
        assert dataclasses.asdict(warm) == dataclasses.asdict(uncached)
        # The sweep axis still reaches the results.
        assert dataclasses.asdict(first) != dataclasses.asdict(warm)


class TestHelpers:
    def test_pristine_until_touched(self):
        cache = SetAssociativeCache(small_l2())
        assert cache.is_pristine()
        cache.cache_set(3)
        assert not cache.is_pristine()
        other = SetAssociativeCache(small_l2())
        other.access(0x1000, is_write=False)
        assert not other.is_pristine()

    @pytest.mark.parametrize("bound", [1, 300, 1 << 16, (1 << 16) + 1, 1 << 30])
    def test_stable_argsort_matches_numpy(self, bound):
        values = np.random.default_rng(bound).integers(0, bound, 5_000)
        np.testing.assert_array_equal(
            _stable_argsort(values, bound), np.argsort(values, kind="stable")
        )

    def test_frames_key_reads_stream_and_geometry(self):
        keys = np.arange(100, dtype=np.int64)
        assert frames_key(keys, 128, 8) == frames_key(keys.copy(), 128, 8)
        assert frames_key(keys, 128, 8) != frames_key(keys, 128, 4)
        assert frames_key(keys, 128, 8) != frames_key(keys, 64, 8)
        assert frames_key(keys, 128, 8) != frames_key(keys[::-1], 128, 8)
