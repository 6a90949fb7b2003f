"""Tests for trace containers and file I/O."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workloads import AccessKind, Trace, TraceRecord


class TestTraceRecord:
    def test_is_write(self):
        assert TraceRecord(AccessKind.STORE, 0x10).is_write
        assert TraceRecord(AccessKind.L2_WRITE, 0x10).is_write
        assert not TraceRecord(AccessKind.LOAD, 0x10).is_write
        assert not TraceRecord(AccessKind.IFETCH, 0x10).is_write

    def test_rejects_negative_address(self):
        with pytest.raises(TraceError):
            TraceRecord(AccessKind.LOAD, -1)


class TestTraceContainer:
    @pytest.fixture
    def trace(self):
        trace = Trace(name="unit")
        trace.extend(
            [
                TraceRecord(AccessKind.LOAD, 0x0),
                TraceRecord(AccessKind.STORE, 0x40),
                TraceRecord(AccessKind.LOAD, 0x80),
                TraceRecord(AccessKind.LOAD, 0x0),
            ]
        )
        return trace

    def test_len_and_iteration(self, trace):
        assert len(trace) == 4
        assert sum(1 for _ in trace) == 4
        assert trace[1].kind is AccessKind.STORE

    def test_read_write_counts(self, trace):
        assert trace.read_count == 3
        assert trace.write_count == 1
        assert trace.read_fraction == pytest.approx(0.75)

    def test_unique_blocks_and_footprint(self, trace):
        assert trace.unique_blocks(block_size=64) == 3
        assert trace.footprint_bytes(block_size=64) == 192

    def test_unique_blocks_rejects_bad_block_size(self, trace):
        with pytest.raises(TraceError):
            trace.unique_blocks(block_size=0)

    def test_empty_trace_fractions(self):
        assert Trace(name="empty").read_fraction == 0.0

    def test_counts_maintained_incrementally(self, trace):
        """append/extend keep the O(1) counters in sync with the records."""
        trace.append(TraceRecord(AccessKind.L2_WRITE, 0xC0))
        assert trace.write_count == 2
        assert trace.read_count == 3
        trace.extend(
            [
                TraceRecord(AccessKind.L2_READ, 0x100),
                TraceRecord(AccessKind.STORE, 0x140),
            ]
        )
        assert trace.write_count == 3
        assert trace.read_count == 4
        # The counters always agree with a full rescan.
        assert trace.write_count == sum(1 for r in trace if r.is_write)
        assert trace.read_count == sum(1 for r in trace if not r.is_write)

    def test_counts_for_records_passed_at_construction(self):
        trace = Trace(
            name="init",
            records=[
                TraceRecord(AccessKind.STORE, 0x0),
                TraceRecord(AccessKind.LOAD, 0x40),
            ],
        )
        assert trace.write_count == 1
        assert trace.read_count == 1

    def test_extend_accepts_generators(self):
        trace = Trace(name="gen")
        trace.extend(TraceRecord(AccessKind.L2_WRITE, a) for a in (0x0, 0x40))
        assert len(trace) == 2
        assert trace.write_count == 2


class TestDecodedMemo:
    def test_decoded_arrays_are_read_only(self):
        trace = Trace(name="ro", records=[TraceRecord(AccessKind.L2_READ, 0x40)])
        kinds, addresses = trace.decoded()
        with pytest.raises(ValueError):
            kinds[0] = 0
        with pytest.raises(ValueError):
            addresses[0] = 0

    def test_decoded_is_memoised(self):
        trace = Trace(name="memo", records=[TraceRecord(AccessKind.L2_READ, 0x40)])
        first = trace.decoded()
        second = trace.decoded()
        assert first[0] is second[0]
        assert first[1] is second[1]

    def test_append_invalidates_memo(self):
        trace = Trace(name="grow", records=[TraceRecord(AccessKind.L2_READ, 0x40)])
        trace.decoded()
        trace.append(TraceRecord(AccessKind.L2_WRITE, 0x80))
        kinds, addresses = trace.decoded()
        assert len(kinds) == 2
        assert addresses[1] == 0x80

    def test_equal_length_mutation_invalidates_memo(self):
        """Pop-then-append through the API must not replay stale arrays."""
        trace = Trace(name="swap")
        trace.extend(
            [
                TraceRecord(AccessKind.L2_READ, 0x40),
                TraceRecord(AccessKind.L2_READ, 0x80),
            ]
        )
        stale_kinds, stale_addresses = trace.decoded()
        trace.records.pop()
        trace.append(TraceRecord(AccessKind.L2_WRITE, 0xC0))
        kinds, addresses = trace.decoded()
        assert len(kinds) == len(stale_kinds)  # same length, new content
        assert addresses[1] == 0xC0
        assert kinds[1] != stale_kinds[1]

    def test_extend_bumps_version_even_after_external_pop(self):
        trace = Trace(name="swap2")
        trace.extend([TraceRecord(AccessKind.L2_READ, 0x40)])
        trace.decoded()
        trace.records.pop(0)
        trace.extend([TraceRecord(AccessKind.L2_WRITE, 0x100)])
        kinds, addresses = trace.decoded()
        assert np.array_equal(addresses, [0x100])
        assert kinds[0] == 4  # KIND_ORDER index of L2_WRITE


class TestTraceIO:
    def test_save_and_load_roundtrip(self, tmp_path):
        trace = Trace(name="io")
        trace.extend(
            [
                TraceRecord(AccessKind.L2_READ, 0x1000),
                TraceRecord(AccessKind.L2_WRITE, 0x2040),
                TraceRecord(AccessKind.IFETCH, 0x3FFF),
            ]
        )
        path = tmp_path / "trace.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "trace"
        assert len(loaded) == 3
        assert loaded[0].kind is AccessKind.L2_READ
        assert loaded[1].address == 0x2040

    def test_load_with_explicit_name(self, tmp_path):
        trace = Trace(name="x", records=[TraceRecord(AccessKind.LOAD, 0)])
        path = tmp_path / "t.txt"
        trace.save(path)
        assert Trace.load(path, name="renamed").name == "renamed"

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("L 0x10 extra\n")
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("Z 0x10\n")
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_load_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# header\n\nL 0x40\n")
        assert len(Trace.load(path)) == 1

    def test_roundtrip_preserves_every_record_and_counters(self, tmp_path):
        trace = Trace(name="full")
        trace.extend(
            TraceRecord(kind, address)
            for address, kind in enumerate(
                [
                    AccessKind.IFETCH,
                    AccessKind.LOAD,
                    AccessKind.STORE,
                    AccessKind.L2_READ,
                    AccessKind.L2_WRITE,
                ]
            )
        )
        path = tmp_path / "full.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.records == trace.records
        assert loaded.read_count == trace.read_count
        assert loaded.write_count == trace.write_count

    def test_load_rejects_non_hex_address(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("L zzzz\n")
        with pytest.raises(TraceError, match="bad.txt:1"):
            Trace.load(path)

    def test_load_rejects_missing_address_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("L\n")
        with pytest.raises(TraceError, match="expected '<kind> <address>'"):
            Trace.load(path)

    def test_load_negative_address_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("L 0x10\nL -0x10\n")
        with pytest.raises(TraceError, match="bad.txt:2.*non-negative"):
            Trace.load(path)

    def test_save_creates_parent_directories(self, tmp_path):
        trace = Trace(name="deep", records=[TraceRecord(AccessKind.L2_READ, 0x40)])
        path = tmp_path / "results" / "traces" / "deep.txt"
        trace.save(path)
        assert Trace.load(path).records == trace.records


class TestContentHash:
    def records(self):
        return [
            TraceRecord(AccessKind.LOAD, 0x0),
            TraceRecord(AccessKind.STORE, 0x40),
            TraceRecord(AccessKind.LOAD, 0x80),
        ]

    def test_equal_content_equal_hash(self):
        a = Trace(name="a", records=self.records())
        b = Trace(name="completely-different-name")
        b.extend(self.records())
        # Identity is the content (kinds + addresses), not the name or the
        # construction path.
        assert a.content_hash() == b.content_hash()

    def test_hash_spans_kinds_and_addresses(self):
        base = Trace(name="t", records=self.records())
        kind_flip = Trace(
            name="t",
            records=[
                TraceRecord(AccessKind.STORE, 0x0),
                TraceRecord(AccessKind.STORE, 0x40),
                TraceRecord(AccessKind.LOAD, 0x80),
            ],
        )
        address_flip = Trace(
            name="t",
            records=[
                TraceRecord(AccessKind.LOAD, 0x40),
                TraceRecord(AccessKind.STORE, 0x40),
                TraceRecord(AccessKind.LOAD, 0x80),
            ],
        )
        assert base.content_hash() != kind_flip.content_hash()
        assert base.content_hash() != address_flip.content_hash()

    def test_append_invalidates_memo(self):
        trace = Trace(name="t", records=self.records())
        before = trace.content_hash()
        trace.append(TraceRecord(AccessKind.L2_WRITE, 0xC0))
        after = trace.content_hash()
        assert before != after
        fresh = Trace(name="t", records=list(trace.records))
        assert after == fresh.content_hash()

    def test_agrees_with_decoded_memo_key(self):
        """content_hash and decoded() share one identity (mutation version)."""
        trace = Trace(name="t", records=self.records())
        kinds_before, _ = trace.decoded()
        hash_before = trace.content_hash()
        trace.extend(self.records())
        kinds_after, _ = trace.decoded()
        assert len(kinds_after) == 2 * len(kinds_before)
        assert trace.content_hash() != hash_before


class TestFromColumns:
    RECORDS = [
        TraceRecord(AccessKind.L2_READ, 0x40),
        TraceRecord(AccessKind.L2_WRITE, 0x1000),
        TraceRecord(AccessKind.LOAD, 0x0),
        TraceRecord(AccessKind.STORE, 0x7F),
        TraceRecord(AccessKind.IFETCH, 0x40),
        TraceRecord(AccessKind.L2_READ, 0x1000),
    ]

    def columnar(self, records=None):
        built = Trace(name="t", records=list(records or self.RECORDS))
        kinds, addresses = built.decoded()
        return Trace.from_columns("t", kinds, addresses), built

    def test_summaries_without_records(self):
        trace, built = self.columnar()
        assert len(trace) == len(built)
        assert trace.write_count == built.write_count == 2
        assert trace.read_count == built.read_count
        assert trace.read_fraction == built.read_fraction
        assert trace.unique_blocks(64) == built.unique_blocks(64)
        assert trace.footprint_bytes(128) == built.footprint_bytes(128)
        assert trace.content_hash() == built.content_hash()
        for mine, theirs in zip(trace.decoded(), built.decoded()):
            assert np.array_equal(mine, theirs)
            assert mine.dtype == theirs.dtype
        assert trace._records is None  # nothing above needed records

    def test_record_views_equal_record_built_trace(self):
        trace, built = self.columnar()
        assert trace.records == built.records
        assert list(trace) == list(built)
        assert [trace[i] for i in range(len(trace))] == self.RECORDS
        assert trace[-1] == built[-1]
        assert all(type(r.address) is int for r in trace)
        assert trace == built

    def test_save_matches_record_built_trace(self, tmp_path):
        trace, built = self.columnar()
        trace.save(tmp_path / "columns.txt")
        built.save(tmp_path / "records.txt")
        assert (tmp_path / "columns.txt").read_text() == (
            tmp_path / "records.txt"
        ).read_text()
        assert trace._records is None
        assert Trace.load(tmp_path / "columns.txt", name="t") == trace

    def test_append_invalidates_decoded_and_hash(self):
        trace, built = self.columnar()
        stale_hash = trace.content_hash()
        trace.append(TraceRecord(AccessKind.L2_WRITE, 0x2000))
        built.append(TraceRecord(AccessKind.L2_WRITE, 0x2000))
        kinds, addresses = trace.decoded()
        assert len(kinds) == len(trace) == 7
        assert addresses[-1] == 0x2000
        assert trace.content_hash() != stale_hash
        assert trace.content_hash() == built.content_hash()
        assert trace.write_count == 3

    def test_extend_invalidates_decoded_and_hash(self):
        trace, _ = self.columnar()
        stale_kinds, _ = trace.decoded()
        stale_hash = trace.content_hash()
        trace.extend(self.RECORDS)
        kinds, _ = trace.decoded()
        assert len(kinds) == 2 * len(stale_kinds)
        assert trace.content_hash() != stale_hash
        assert trace.content_hash() == Trace("t", self.RECORDS * 2).content_hash()
        assert trace.write_count == 4

    def test_columns_are_read_only_copies(self):
        kinds = np.array([3, 4], dtype=np.int8)
        addresses = np.array([0x40, 0x80], dtype=np.int64)
        trace = Trace.from_columns("t", kinds, addresses)
        got_kinds, got_addresses = trace.decoded()
        with pytest.raises(ValueError):
            got_kinds[0] = 4
        with pytest.raises(ValueError):
            got_addresses[0] = 0
        kinds[0] = 4  # the caller's arrays stay writable and unshared
        assert got_kinds[0] == 3
        assert kinds.flags.writeable

    def test_accepts_lists_and_empty_columns(self):
        trace = Trace.from_columns("t", [3, 4], [0x40, 0x80])
        assert trace.decoded()[0].dtype == np.int8
        assert trace.decoded()[1].dtype == np.int64
        empty = Trace.from_columns("e", [], [])
        assert len(empty) == 0
        assert empty.read_fraction == 0.0
        assert empty.content_hash() == Trace("e").content_hash()

    @pytest.mark.parametrize(
        "kinds, addresses",
        [([3, 4], [0x40]), ([5], [0x40]), ([-1], [0x40]), ([3], [-64])],
    )
    def test_rejects_bad_columns(self, kinds, addresses):
        with pytest.raises(TraceError):
            Trace.from_columns("t", kinds, addresses)

    def test_fast_comparison_builds_no_records(self, monkeypatch):
        """Generating and replaying a trace on the fast engine never builds
        a per-access record (the guard for peak memory)."""
        from repro.sim import ExperimentSettings, compare_schemes
        from repro.workloads import artifacts

        monkeypatch.delenv(artifacts.ARTIFACT_CACHE_ENV, raising=False)
        built = []
        original = TraceRecord.__post_init__

        def counting(record):
            built.append(record)
            original(record)

        monkeypatch.setattr(TraceRecord, "__post_init__", counting)
        settings = ExperimentSettings(num_accesses=3_000, seed=2)
        comparison = compare_schemes("gcc", settings=settings, engine="fast")
        assert comparison.baseline.num_accesses == 3_000
        assert built == []
