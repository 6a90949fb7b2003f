"""Property-style tests for the compact replacement-state protocol.

The compact per-set representation (export/import plus the
``compact_on_access`` / ``compact_on_fill`` / ``compact_victim`` transition
functions) is the single source of truth for every replacement policy: the
object hooks (`on_access`, `on_fill`, `victim`) delegate to it, and the
batched engine in :mod:`repro.sim.fastpath` replays it directly over
exported rows.  These tests drive an object-path policy and a compact-path
twin through identical randomized access sequences — including export →
import round-trips mid-sequence — and assert that every victim decision and
every piece of exported state agrees at every step, for all five policies.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.block import CacheBlock
from repro.cache.replacement import ReplacementPolicy, build_replacement_policy
from repro.config import ReplacementPolicyName
from repro.errors import ReplacementError

POLICIES = tuple(ReplacementPolicyName)

NUM_SETS = 8
ASSOC = 4


def build(policy_name, seed=7, num_sets=NUM_SETS, assoc=ASSOC):
    return build_replacement_policy(policy_name, num_sets, assoc, seed=seed)


def assert_same_state(label, left: ReplacementPolicy, right: ReplacementPolicy):
    assert left.export_global_state() == right.export_global_state(), (
        f"{label}: global state diverged"
    )
    for set_index in range(left.num_sets):
        assert left.export_set_state(set_index) == right.export_set_state(set_index), (
            f"{label}: set {set_index} state diverged"
        )


class _Scenario:
    """A randomized access/fill/victim sequence shared by both drivers.

    Maintains the per-set block objects (for the object path) whose
    valid/unchecked fields double as the compact path's inputs.
    """

    def __init__(self, seed: int, num_sets=NUM_SETS, assoc=ASSOC) -> None:
        self.rng = random.Random(seed)
        self.num_sets = num_sets
        self.assoc = assoc
        self.blocks = {
            s: [CacheBlock() for _ in range(assoc)] for s in range(num_sets)
        }

    def steps(self, count: int):
        """Yield (op, set_index, way) tuples; op in {access, fill, victim}."""
        for _ in range(count):
            set_index = self.rng.randrange(self.num_sets)
            blocks = self.blocks[set_index]
            roll = self.rng.random()
            valid_ways = [w for w, b in enumerate(blocks) if b.valid]
            if roll < 0.45 and valid_ways:
                yield "access", set_index, self.rng.choice(valid_ways)
            elif roll < 0.85:
                yield "fill", set_index, None
            elif valid_ways:
                # Perturb exposure so LER's victim choice is exercised.
                way = self.rng.choice(valid_ways)
                blocks[way].unchecked_reads += self.rng.randrange(1, 5)
                yield "access", set_index, way
            else:
                yield "fill", set_index, None


def drive_object_and_compact(policy_name, seed, steps=400, round_trip_every=None):
    """Drive an object-path policy and a compact-path twin in lockstep.

    The compact twin holds exported per-set rows and mutates them purely
    through the compact transition functions; the object twin goes through
    `on_access` / `on_fill` / `victim`.  Victim decisions are asserted equal
    at every miss; final states are asserted equal after importing the
    compact rows back.
    """
    obj = build(policy_name, seed=11)
    twin = build(policy_name, seed=11)
    scenario = _Scenario(seed)
    globals_ = twin.compact_globals()
    rows = {s: twin.export_set_state(s) for s in range(NUM_SETS)}

    for step_index, (op, set_index, way) in enumerate(scenario.steps(steps)):
        blocks = scenario.blocks[set_index]
        if op == "access":
            obj.on_access(set_index, way)
            twin.compact_on_access(globals_, rows[set_index], way)
        else:  # fill: pick a victim exactly the way the cache substrate does
            object_victim = obj.victim(set_index, blocks)
            invalid = next((w for w, b in enumerate(blocks) if not b.valid), None)
            if invalid is not None:
                compact_victim = invalid
            else:
                compact_victim = twin.compact_victim(
                    globals_, rows[set_index], [b.unchecked_reads for b in blocks]
                )
            assert object_victim == compact_victim, (
                f"{policy_name}: victim diverged at step {step_index} "
                f"(object {object_victim}, compact {compact_victim})"
            )
            blocks[object_victim].fill(
                tag=step_index, ones_count=1, tick=step_index
            )
            obj.on_fill(set_index, object_victim)
            twin.compact_on_fill(globals_, rows[set_index], object_victim)

        if round_trip_every and (step_index + 1) % round_trip_every == 0:
            # Export → import round trip mid-sequence must be lossless.
            twin.import_set_state(set_index, rows[set_index])
            rows[set_index] = twin.export_set_state(set_index)
            snapshot = twin.export_global_state()
            twin.import_global_state(snapshot)

    for set_index, row in rows.items():
        twin.import_set_state(set_index, row)
    assert_same_state(policy_name, obj, twin)


class TestObjectCompactEquivalence:
    """Object hooks and compact transitions agree on randomized sequences."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_lockstep_equivalence(self, policy, seed):
        drive_object_and_compact(policy, seed)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_lockstep_with_mid_sequence_round_trips(self, policy):
        drive_object_and_compact(policy, seed=5, round_trip_every=17)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_way_cache(self, policy):
        policy_obj = build_replacement_policy(policy, 4, 1)
        blocks = [CacheBlock()]
        blocks[0].fill(tag=1, ones_count=1)
        policy_obj.on_access(0, 0)
        assert policy_obj.victim(0, blocks) == 0


class TestExportImportRoundTrips:
    """Snapshot/restore semantics of the compact representation."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_set_state_round_trip_is_lossless(self, policy):
        obj = build(policy)
        blocks = [CacheBlock() for _ in range(ASSOC)]
        for way in range(ASSOC):
            blocks[way].fill(tag=way, ones_count=1, tick=way)
            obj.on_fill(2, way)
        obj.on_access(2, 1)
        state = obj.export_set_state(2)
        assert isinstance(state, list)
        obj.import_set_state(2, state)
        assert obj.export_set_state(2) == state

    @pytest.mark.parametrize("policy", POLICIES)
    def test_clone_via_exported_state_behaves_identically(self, policy):
        """A policy rebuilt from exported state continues identically."""
        original = build(policy, seed=13)
        scenario = _Scenario(21)
        for op, set_index, way in scenario.steps(150):
            blocks = scenario.blocks[set_index]
            if op == "access":
                original.on_access(set_index, way)
            else:
                victim = original.victim(set_index, blocks)
                blocks[victim].fill(tag=1, ones_count=1)
                original.on_fill(set_index, victim)

        clone = build(policy, seed=99)  # deliberately different seed
        clone.import_global_state(original.export_global_state())
        for set_index in range(NUM_SETS):
            clone.import_set_state(set_index, original.export_set_state(set_index))
        assert_same_state(policy, original, clone)

        # Drive both onward through the same tail and compare every victim.
        tail = _Scenario(22)
        tail.blocks = scenario.blocks
        for op, set_index, way in tail.steps(100):
            blocks = tail.blocks[set_index]
            if op == "access":
                original.on_access(set_index, way)
                clone.on_access(set_index, way)
            else:
                original_victim = original.victim(set_index, blocks)
                clone_victim = clone.victim(set_index, blocks)
                assert original_victim == clone_victim, policy
                blocks[original_victim].fill(tag=2, ones_count=1)
                original.on_fill(set_index, original_victim)
                clone.on_fill(set_index, original_victim)
        assert_same_state(policy, original, clone)

    def test_random_round_trip_detaches_the_stream(self):
        """Restoring a random policy's snapshot must not share the stream."""
        source = build(ReplacementPolicyName.RANDOM, seed=3)
        clone = build(ReplacementPolicyName.RANDOM, seed=4)
        clone.import_global_state(source.export_global_state())
        blocks = [CacheBlock() for _ in range(ASSOC)]
        for way in range(ASSOC):
            blocks[way].fill(tag=way, ones_count=1)
        source_victims = [source.victim(0, blocks) for _ in range(20)]
        clone_victims = [clone.victim(0, blocks) for _ in range(20)]
        # Both consumed 20 draws from *independent* streams with equal state.
        assert source_victims == clone_victims

    @pytest.mark.parametrize("policy", POLICIES)
    def test_import_rejects_wrong_length(self, policy):
        obj = build(policy)
        expected_length = len(obj.export_set_state(0))
        with pytest.raises(ReplacementError):
            obj.import_set_state(0, [0] * (expected_length + 1))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_export_rejects_bad_set_index(self, policy):
        obj = build(policy)
        with pytest.raises(ReplacementError):
            obj.export_set_state(NUM_SETS)
        with pytest.raises(ReplacementError):
            obj.import_set_state(-1, [])


class TestBatchedTransitions:
    """Batched transitions equal N scalar transitions, for every policy.

    Batch sizes straddle the vector-form thresholds (the timestamp policies
    switch representation above 8 ways, tree PLRU above 16), so both the
    scalar-loop defaults and the true vector overrides are exercised.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("batch_size", (1, 5, 40))
    def test_access_batch_matches_scalar_sequence(self, policy, seed, batch_size):
        scalar = build(policy, seed=17)
        batched = build(policy, seed=17)
        rng = random.Random(seed)
        for _ in range(10):
            set_index = rng.randrange(NUM_SETS)
            ways = [rng.randrange(ASSOC) for _ in range(batch_size)]
            scalar_row = scalar.export_set_state(set_index)
            batched_row = batched.export_set_state(set_index)
            for way in ways:
                scalar.compact_on_access(scalar.compact_globals(), scalar_row, way)
            batched.compact_on_access_batch(
                batched.compact_globals(), batched_row, ways
            )
            assert list(scalar_row) == list(batched_row), (policy, ways)
            scalar.import_set_state(set_index, scalar_row)
            batched.import_set_state(set_index, batched_row)
        assert_same_state(policy, scalar, batched)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_mid_batch_export_import_round_trip(self, policy):
        """Splitting a batch around a round trip changes nothing."""
        whole = build(policy, seed=5)
        split = build(policy, seed=5)
        rng = random.Random(41)
        set_index = 3
        ways = [rng.randrange(ASSOC) for _ in range(24)]
        whole_row = whole.export_set_state(set_index)
        whole.compact_on_access_batch(whole.compact_globals(), whole_row, ways)
        whole.import_set_state(set_index, whole_row)

        split_row = split.export_set_state(set_index)
        split.compact_on_access_batch(split.compact_globals(), split_row, ways[:11])
        split.import_set_state(set_index, split_row)
        split.import_global_state(split.export_global_state())
        split_row = split.export_set_state(set_index)
        split.compact_on_access_batch(split.compact_globals(), split_row, ways[11:])
        split.import_set_state(set_index, split_row)
        assert_same_state(policy, whole, split)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_batch_is_a_no_op(self, policy):
        obj = build(policy, seed=2)
        before_globals = obj.export_global_state()
        row = obj.export_set_state(0)
        obj.compact_on_access_batch(obj.compact_globals(), row, [])
        obj.import_set_state(0, row)
        assert obj.export_global_state() == before_globals


class TestPositionProtocol:
    """The SoA position arithmetic of the timestamp policies (LRU, LER)."""

    POSITION_POLICIES = (ReplacementPolicyName.LRU, ReplacementPolicyName.LER)

    @staticmethod
    def _random_schedule(rng, count):
        """One transition per global position, spread over sets and ways."""
        return [
            (rng.randrange(NUM_SETS), rng.randrange(ASSOC)) for _ in range(count)
        ]

    @pytest.mark.parametrize("policy", POSITION_POLICIES)
    @pytest.mark.parametrize("seed", (1, 9))
    def test_last_positions_replay_matches_scalar(self, policy, seed):
        scalar = build(policy, seed=3)
        deferred = build(policy, seed=3)
        rng = random.Random(seed)
        schedule = self._random_schedule(rng, 120)

        rows = {s: scalar.export_set_state(s) for s in range(NUM_SETS)}
        for set_index, way in schedule:
            scalar.compact_on_access(scalar.compact_globals(), rows[set_index], way)
        for set_index, row in rows.items():
            scalar.import_set_state(set_index, row)

        base = deferred.soa_tick_base()
        deferred_rows = {s: deferred.export_set_state(s) for s in range(NUM_SETS)}
        pend = {s: [-1] * ASSOC for s in range(NUM_SETS)}
        for position, (set_index, way) in enumerate(schedule):
            pend[set_index][way] = position
        for set_index, row in deferred_rows.items():
            deferred.soa_apply_last_positions(row, pend[set_index], base)
            deferred.import_set_state(set_index, row)
        deferred.soa_commit(base, len(schedule))
        assert_same_state(policy, scalar, deferred)

    @pytest.mark.parametrize("policy", POSITION_POLICIES)
    @pytest.mark.parametrize("seed", (4, 12))
    def test_victim_positions_matches_flush_then_victim(self, policy, seed):
        flushed = build(policy, seed=6)
        lazy = build(policy, seed=6)
        rng = random.Random(seed)
        exposures = [rng.randrange(5) for _ in range(ASSOC)]
        for touched in range(ASSOC + 1):  # 0 .. all ways touched
            schedule = [
                (2, rng.randrange(ASSOC)) for _ in range(touched * 3)
            ]
            pend = [-1] * ASSOC
            for position, (_, way) in enumerate(schedule):
                pend[way] = position
            base = flushed.soa_tick_base()

            flushed_row = flushed.export_set_state(2)
            flushed.soa_apply_last_positions(flushed_row, pend, base)
            expected = flushed.compact_victim(
                flushed.compact_globals(), flushed_row, exposures
            )

            lazy_row = lazy.export_set_state(2)
            actual = lazy.soa_victim_positions(
                lazy.compact_globals(), lazy_row, pend, base, exposures
            )
            assert actual == expected, (policy, touched)

    def test_non_position_policies_reject_the_protocol(self):
        plru = build(ReplacementPolicyName.PLRU)
        with pytest.raises(NotImplementedError):
            plru.soa_tick_base()
        with pytest.raises(NotImplementedError):
            plru.soa_apply_last_positions([], [], 0)
        with pytest.raises(NotImplementedError):
            plru.soa_commit(0, 0)
