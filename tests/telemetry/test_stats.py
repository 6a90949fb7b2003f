"""Tests for telemetry aggregation and the ``repro-reap stats`` report."""

from repro.telemetry import (
    MemorySink,
    TelemetryAggregator,
    aggregate_telemetry,
    emit_counter,
    emit_event,
    emit_gauge,
    load_telemetry_stats,
    render_telemetry_stats,
    span,
    telemetry,
)


def span_event(name, duration_s, **fields):
    return {"kind": "span", "name": name, "duration_s": duration_s, **fields}


def event(name, **fields):
    return {"kind": "event", "name": name, **fields}


def counter(name, value, **fields):
    return {"kind": "counter", "name": name, "value": value, **fields}


class TestSpanAggregation:
    def test_rollup_keyed_by_name_and_scheme(self):
        stats = aggregate_telemetry(
            [
                span_event("kernel.pass1", 0.2, scheme="reap"),
                span_event("kernel.pass1", 0.4, scheme="reap"),
                span_event("kernel.pass1", 0.1, scheme="conventional"),
                span_event("kernel.pass2", 0.3, scheme="reap"),
            ]
        )
        reap_pass1 = stats.spans[("kernel.pass1", "reap")]
        assert reap_pass1.count == 2
        assert reap_pass1.total_s == 0.6000000000000001
        assert reap_pass1.min_s == 0.2 and reap_pass1.max_s == 0.4
        assert reap_pass1.mean_s == reap_pass1.total_s / 2
        assert stats.spans[("kernel.pass1", "conventional")].count == 1
        assert stats.spans[("kernel.pass2", "reap")].count == 1

    def test_schemeless_spans_roll_up_under_empty_scheme(self):
        stats = aggregate_telemetry([span_event("job.execute", 1.0)])
        assert stats.spans[("job.execute", "")].count == 1

    def test_campaign_run_and_job_spans_fold_into_campaign(self):
        stats = aggregate_telemetry(
            [
                span_event("campaign.run", 5.0, jobs=2),
                span_event("job.execute", 2.0, accesses=10_000),
                span_event("job.execute", 3.0, accesses=30_000),
            ]
        )
        campaign = stats.campaign
        assert campaign.runs == 1
        assert campaign.elapsed_s == 5.0
        assert campaign.job_elapsed_s == 5.0
        assert campaign.accesses == 40_000
        assert campaign.accesses_per_s == 8_000.0


class TestEventAggregation:
    def test_engine_selections_and_fallbacks(self):
        stats = aggregate_telemetry(
            [
                event("sim.engine", engine="fast", path="l2"),
                event("sim.engine", engine="fast", path="cpu"),
                event("sim.engine", engine="reference"),
                event("engine.fallback", reason="numpy is unavailable"),
            ]
        )
        assert stats.engine_selections == {"fast": 2, "reference": 1}
        assert stats.fallbacks == {"numpy is unavailable": 1}

    def test_campaign_jobs_split_cached_and_executed(self):
        stats = aggregate_telemetry(
            [
                event("campaign.job", workload="gcc", cached=False),
                event("campaign.job", workload="mcf", cached=True),
                event("campaign.job", workload="namd", cached=True),
            ]
        )
        campaign = stats.campaign
        assert (campaign.jobs, campaign.executed, campaign.cached) == (3, 1, 2)
        assert campaign.cache_hit_ratio == 2 / 3

    def test_unknown_kinds_and_names_are_counted_but_ignored(self):
        stats = aggregate_telemetry(
            [{"kind": "mystery", "name": "x"}, event("unrelated.event")]
        )
        assert stats.total_events == 2
        assert stats.spans == {} and stats.fallbacks == {}


class TestDistributedAggregation:
    def events(self):
        return [
            event("coordinator.lease_grant", worker="healthy-1", key="k0"),
            event("coordinator.lease_grant", worker="doomed-2", key="k1"),
            event("coordinator.lease_renew", worker="healthy-1", key="k0"),
            event(
                "coordinator.lease_expire", worker="doomed-2", key="k1", held_s=2.0
            ),
            event("coordinator.lease_grant", worker="healthy-1", key="k1"),
            event(
                "coordinator.result",
                worker="healthy-1",
                key="k0",
                worker_elapsed_s=0.8,
                observed_elapsed_s=1.0,
            ),
            event(
                "coordinator.result",
                worker="healthy-1",
                key="k1",
                worker_elapsed_s=0.7,
                observed_elapsed_s=0.9,
            ),
            event("coordinator.error", worker="flaky-3", key="k2", message="boom"),
            counter("net.frame", 100, direction="send"),
            counter("net.frame", 60, direction="recv"),
            counter("net.frame", 40, direction="recv"),
        ]

    def test_health_rollup(self):
        distributed = aggregate_telemetry(self.events()).distributed
        assert distributed.seen
        assert distributed.lease_grants == 3
        assert distributed.lease_renewals == 1
        assert distributed.lease_expiries == 1
        assert distributed.requeues == 1
        assert distributed.results == 2
        assert distributed.errors == 1
        assert distributed.workers == {"healthy-1", "doomed-2", "flaky-3"}
        assert distributed.lost_workers == {"doomed-2"}

    def test_frame_traffic_by_direction(self):
        distributed = aggregate_telemetry(self.events()).distributed
        assert distributed.frames == {"send": 1, "recv": 2}
        assert distributed.bytes == {"send": 100, "recv": 100}

    def test_dual_clock_dispatch_overhead(self):
        distributed = aggregate_telemetry(self.events()).distributed
        assert distributed.worker_elapsed_s == 1.5
        assert distributed.observed_elapsed_s == 1.9
        assert abs(distributed.dispatch_overhead_s - 0.4) < 1e-12

    def test_empty_stream_reports_not_seen(self):
        assert not aggregate_telemetry([]).distributed.seen


class TestCountersAndGauges:
    def test_counter_sums_and_gauge_extrema(self):
        aggregator = TelemetryAggregator()
        aggregator.add(counter("retries", 1))
        aggregator.add(counter("retries", 2))
        aggregator.add({"kind": "gauge", "name": "depth", "value": 5.0})
        aggregator.add({"kind": "gauge", "name": "depth", "value": 2.0})
        aggregator.add({"kind": "gauge", "name": "depth", "value": 3.0})
        stats = aggregator.stats
        assert stats.counters["retries"] == (2, 3.0)
        assert stats.gauges["depth"] == (3, 3.0, 2.0, 5.0)


class TestRoundTripThroughFile:
    def test_load_from_real_emission(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with telemetry(path, campaign="demo"):
            emit_event("sim.engine", engine="fast", kernel="loop")
            with span("kernel.replay", scheme="reap", accesses=500):
                pass
            emit_counter("net.frame", 42, direction="send")
            emit_gauge("queue.depth", 1)
            emit_event(
                "campaign.job",
                workload="gcc",
                cached=False,
                elapsed_s=0.1,
                accesses=500,
            )
        stats = load_telemetry_stats(path)
        assert stats.total_events == 5
        assert stats.spans[("kernel.replay", "reap")].count == 1
        assert stats.engine_selections == {"fast": 1}
        assert stats.campaign.jobs == 1 and stats.campaign.executed == 1
        assert stats.counters["net.frame"] == (1, 42.0)


class TestRendering:
    def full_stats(self):
        return aggregate_telemetry(
            [
                span_event("kernel.pass1", 0.2, scheme="reap"),
                span_event("kernel.decode", 0.05),
                span_event("campaign.run", 5.0),
                span_event("job.execute", 2.0, accesses=10_000),
                event("campaign.job", workload="gcc", cached=False),
                event("sim.engine", engine="fast", kernel="soa"),  # legacy field
                event("engine.fallback", reason="numpy is unavailable"),
                event("coordinator.lease_grant", worker="w1"),
                event(
                    "coordinator.result",
                    worker="w1",
                    worker_elapsed_s=0.5,
                    observed_elapsed_s=0.6,
                ),
                counter("net.frame", 64, direction="send"),
                counter("retries", 1),
                {"kind": "gauge", "name": "depth", "value": 2.0},
            ]
        )

    def test_report_has_every_section(self):
        report = render_telemetry_stats(self.full_stats())
        for heading in (
            "phase timings",
            "campaign",
            "engine selections",
            "engine fallbacks",
            "distributed health",
            "counters",
            "gauges",
        ):
            assert heading in report, f"missing section {heading!r}"
        assert "kernel.pass1" in report and "reap" in report
        selections = report.split("engine selections\n")[1].split("\n\n")[0]
        assert "fast" in selections and "soa" not in selections
        assert "numpy is unavailable" in report
        assert "dispatch overhead s" in report
        assert "frames send" in report

    def test_phase_rows_follow_pipeline_order(self):
        report = render_telemetry_stats(self.full_stats())
        assert report.index("kernel.decode") < report.index("kernel.pass1")

    def test_campaign_run_span_not_listed_as_a_phase(self):
        report = render_telemetry_stats(self.full_stats())
        phase_section = report.split("campaign\n")[0]
        assert "campaign.run" not in phase_section

    def test_empty_stream_renders_header_only(self):
        report = render_telemetry_stats(aggregate_telemetry([]))
        assert report == "telemetry: 0 events"

    def test_sinkless_aggregation_matches_memory_sink(self):
        sink = MemorySink()
        with telemetry(sink):
            emit_event("sim.engine", engine="fast", kernel="loop")
        stats = aggregate_telemetry(sink.events)
        assert stats.engine_selections == {"fast": 1}


class TestArtifactCacheAggregation:
    def events(self):
        return [
            counter("cache.artifact", 1, artifact="trace", outcome="miss", bytes=0),
            counter("cache.artifact", 1, artifact="trace", outcome="store", bytes=900),
            counter("cache.artifact", 1, artifact="trace", outcome="hit", bytes=900),
            counter("cache.artifact", 1, artifact="trace", outcome="hit", bytes=900),
            counter("cache.artifact", 1, artifact="l1-stream", outcome="error", bytes=0),
            counter("cache.artifact", 1, artifact="l1-stream", outcome="hit", bytes=300),
        ]

    def test_hit_ratio_and_bytes_saved(self):
        artifact = aggregate_telemetry(self.events()).artifact_cache
        assert artifact.seen
        assert artifact.hits == 3
        # Unreadable artifacts are recomputed, so errors count as misses.
        assert artifact.misses == 2
        assert artifact.hit_ratio == 3 / 5
        assert artifact.bytes_saved == 2100
        assert artifact.counts[("trace", "hit")] == 2
        assert artifact.bytes[("trace", "store")] == 900

    def test_empty_stream_reports_not_seen(self):
        artifact = aggregate_telemetry([]).artifact_cache
        assert not artifact.seen
        assert artifact.hit_ratio == 0.0 and artifact.bytes_saved == 0

    def test_rendered_section(self):
        report = render_telemetry_stats(aggregate_telemetry(self.events()))
        assert "artifact cache" in report
        assert "hit ratio" in report
        assert "bytes saved" in report
        assert "l1-stream hit" in report

    def test_excluded_from_generic_counter_section(self):
        report = render_telemetry_stats(
            aggregate_telemetry([*self.events(), counter("retries", 1)])
        )
        counter_section = report.split("counters\n")[1]
        assert "cache.artifact" not in counter_section
