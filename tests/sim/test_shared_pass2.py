"""Exact energy totals and the pass-2 columns a comparison shares.

The fast engine folds every energy accumulator from per-access addend runs
(:func:`repro.sim.soa._sequential_runs`), so its totals must equal the
reference loop's *exactly* -- not to the harness tolerance -- for every
scheme, including scrub rates above one patrol visit per access, dirty
evictions and restore's rewrites.

Within one comparison the schemes also share the scheme-independent half of
pass 2 through the :class:`repro.sim.fastpath.FrameMemo`
(:class:`repro.sim.soa.SharedStream`).  A scheme replayed from a shared
entry must leave results, tracker samples, statistics and block state
bitwise equal to the same scheme run alone, and an entry must never serve a
stream that differs in kinds or ones-count samples.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core import ScrubbingCache
from repro.energy.nvsim import AccessEnergyBreakdown
from repro.sim import compare_schemes, run_l2_trace
from repro.sim.experiment import ExperimentSettings, run_workload
from repro.sim.fastpath import FrameMemo
from repro.workloads import AccessKind, Trace, TraceRecord, generate_l2_trace, get_profile

from equivalence_utils import EQUIVALENCE_SCHEMES, build_cache, small_l2


def profile_trace(workload: str, seed: int, length: int = 3_000) -> Trace:
    return generate_l2_trace(
        get_profile(workload), small_l2(), num_accesses=length, seed=seed
    )


def store_heavy_trace(seed: int = 5, length: int = 3_000) -> Trace:
    """Mostly writes over 256 blocks in 8 sets: dirty evictions, write hits."""
    rng = random.Random(seed)
    records = [
        TraceRecord(
            AccessKind.L2_WRITE if rng.random() < 0.6 else AccessKind.L2_READ,
            rng.randrange(256) * 64 * 16,
        )
        for _ in range(length)
    ]
    return Trace("store-heavy", records)


def assert_bitwise_equal(expected, actual) -> None:
    """Every observable of two protected caches, compared with ``==``."""
    assert vars(actual.energy) == vars(expected.energy)
    assert vars(actual.reliability) == vars(expected.reliability)
    assert (actual.tracker is None) == (expected.tracker is None)
    if expected.tracker is not None:
        assert actual.tracker.samples == expected.tracker.samples
    assert vars(actual.cache.stats) == vars(expected.cache.stats)
    for set_index in range(expected.cache.num_sets):
        expected_blocks = expected.cache.blocks_in_set(set_index)
        actual_blocks = actual.cache.blocks_in_set(set_index)
        assert [vars(block) for block in actual_blocks] == [
            vars(block) for block in expected_blocks
        ], set_index
        assert actual.cache.replacement.export_set_state(
            set_index
        ) == expected.cache.replacement.export_set_state(set_index)
    if isinstance(expected, ScrubbingCache):
        assert actual.export_scrub_state() == expected.export_scrub_state()
        assert actual.scrubbed_lines == expected.scrubbed_lines


def use_awkward_energies(cache) -> None:
    """Per-event energies whose sums round: addend order then shows.

    The model's own constants are short binary fractions, whose sums stay
    exact for any order of addition.
    """
    model = cache.energy_model
    for name, value in (
        ("tag_lookup_energy_pj", 0.1),
        ("way_read_energy_pj", 0.7),
        ("way_write_energy_pj", 1 / 3),
        ("ecc_decode_energy_pj", 0.2),
        ("ecc_encode_energy_pj", 0.3),
        ("mux_energy_pj", 0.11),
    ):
        setattr(model, name, lambda value=value: value)
    model.write_access_energy = lambda: AccessEnergyBreakdown(
        tag_pj=0.13, data_array_pj=0.37, ecc_pj=0.29, mux_pj=0.0
    )


class TestExactEnergy:
    """Fast-engine energy totals equal the reference loop's with ``==``."""

    @staticmethod
    def assert_exact(scheme, trace, replays=1, awkward=True, **kwargs):
        reference = build_cache(scheme, **kwargs)
        fast = build_cache(scheme, **kwargs)
        if awkward:
            use_awkward_energies(reference)
            use_awkward_energies(fast)
        for _ in range(replays):  # later replays start from a warm cache
            run_l2_trace(reference, trace, engine="reference")
            run_l2_trace(fast, trace, engine="fast")
            assert vars(fast.energy) == vars(reference.energy)
        return reference, fast

    @pytest.mark.parametrize("awkward", (True, False), ids=("awkward", "model"))
    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    @pytest.mark.parametrize("workload", ("gcc", "mcf", "namd"))
    def test_profiles(self, workload, scheme, awkward):
        self.assert_exact(scheme, profile_trace(workload, 2), awkward=awkward, seed=2)

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    def test_dirty_evictions_and_warm_replay(self, scheme):
        reference, _ = self.assert_exact(scheme, store_heavy_trace(), replays=2)
        assert reference.cache.stats.dirty_evictions > 0

    @pytest.mark.parametrize("scheme", EQUIVALENCE_SCHEMES)
    def test_sampled_ones_counts(self, scheme):
        self.assert_exact(scheme, profile_trace("gcc", 3), ones_count=None, seed=3)

    @pytest.mark.parametrize("rate", (0.25, 1.0, 1.5, 3.0))
    def test_scrub_rates(self, rate):
        trace = profile_trace("omnetpp", 4)
        reference, _ = self.assert_exact(
            "scrubbing", trace, replays=2, scrub_lines_per_access=rate
        )
        assert reference.scrubbed_lines > 0

    def test_restore_rewrites(self):
        reference, _ = self.assert_exact("restore", profile_trace("namd", 6), seed=6)
        assert reference.energy.data_write_pj > 0


class CountingMemo(FrameMemo):
    """A memo that counts the shared-stream entries it serves."""

    def __init__(self) -> None:
        super().__init__()
        self.stream_hits = 0

    def find_stream(self, geometry, packed_keys, codes, samples):
        entry = super().find_stream(geometry, packed_keys, codes, samples)
        self.stream_hits += entry is not None
        return entry


def run_fast(scheme, trace, memo=None, **kwargs):
    cache = build_cache(scheme, **kwargs)
    result = run_l2_trace(cache, trace, engine="fast", frame_memo=memo)
    return result, cache


class TestSharedPass2:
    @pytest.mark.parametrize("first", ("conventional", "scrubbing", "restore"))
    @pytest.mark.parametrize("workload", ("gcc", "mcf"))
    def test_schemes_sharing_a_memo_equal_each_alone(self, workload, first):
        trace = profile_trace(workload, 7)
        memo = CountingMemo()
        order = [first] + [s for s in EQUIVALENCE_SCHEMES if s != first]
        for index, scheme in enumerate(order):
            shared, shared_cache = run_fast(scheme, trace, memo=memo, seed=7)
            alone, alone_cache = run_fast(scheme, trace, seed=7)
            assert memo.stream_hits == index  # every later scheme is served
            assert dataclasses.asdict(shared) == dataclasses.asdict(alone)
            assert_bitwise_equal(alone_cache, shared_cache)

    def test_scrub_rate_above_one_visit_per_access(self):
        trace = store_heavy_trace(seed=8)
        memo = CountingMemo()
        run_fast("conventional", trace, memo=memo)
        shared, shared_cache = run_fast(
            "scrubbing", trace, memo=memo, scrub_lines_per_access=2.5
        )
        alone, alone_cache = run_fast(
            "scrubbing", trace, scrub_lines_per_access=2.5
        )
        assert memo.stream_hits == 1
        assert dataclasses.asdict(shared) == dataclasses.asdict(alone)
        assert_bitwise_equal(alone_cache, shared_cache)

    def test_entry_needs_the_same_kinds(self):
        trace = store_heavy_trace(seed=9)
        flipped = Trace(
            "flipped",
            [
                TraceRecord(
                    AccessKind.L2_READ
                    if record.kind is AccessKind.L2_WRITE
                    else AccessKind.L2_WRITE,
                    record.address,
                )
                for record in trace.records
            ],
        )
        memo = CountingMemo()
        run_fast("conventional", trace, memo=memo)
        shared, shared_cache = run_fast("reap", flipped, memo=memo)
        alone, alone_cache = run_fast("reap", flipped)
        assert memo.stream_hits == 0
        assert dataclasses.asdict(shared) == dataclasses.asdict(alone)
        assert_bitwise_equal(alone_cache, shared_cache)

    def test_entry_needs_the_same_samples(self):
        trace = profile_trace("gcc", 10)
        memo = CountingMemo()
        run_fast("conventional", trace, memo=memo, ones_count=100)
        shared, shared_cache = run_fast("reap", trace, memo=memo, ones_count=150)
        alone, alone_cache = run_fast("reap", trace, ones_count=150)
        assert memo.stream_hits == 0
        assert dataclasses.asdict(shared) == dataclasses.asdict(alone)
        assert_bitwise_equal(alone_cache, shared_cache)

    def test_entry_needs_the_same_geometry(self):
        trace = profile_trace("gcc", 11)
        memo = CountingMemo()
        run_fast("conventional", trace, memo=memo)
        wide = small_l2(size_bytes=128 * 1024, associativity=16)
        shared, shared_cache = run_fast("reap", trace, memo=memo, config=wide)
        alone, alone_cache = run_fast("reap", trace, config=wide)
        assert memo.stream_hits == 0
        assert dataclasses.asdict(shared) == dataclasses.asdict(alone)
        assert_bitwise_equal(alone_cache, shared_cache)

    def test_compare_schemes_equals_each_scheme_alone(self):
        settings = ExperimentSettings(
            l2_config=small_l2(), num_accesses=4_000, seed=12
        )
        alternatives = [s for s in EQUIVALENCE_SCHEMES if s != "conventional"]
        comparison = compare_schemes(
            "namd", alternatives=alternatives, settings=settings, engine="fast"
        )
        runs = (comparison.baseline, *comparison.alternatives)
        for scheme, run in zip(["conventional", *alternatives], runs):
            alone, _ = run_workload("namd", scheme, settings=settings, engine="fast")
            assert dataclasses.asdict(run) == dataclasses.asdict(alone), scheme
