"""Integration tests: the telemetry substrate threaded through serving.

The unit behaviour of the metrics/trace primitives is covered by
``test_obs_metrics.py`` / ``test_obs_trace.py``; here we assert that the
serving pipeline actually *reports* — stage wall time, component counters,
the phase breakdown in the report, and the on-disk exports behind
``serve-sim --metrics-dir``.
"""

import json

import pytest

from repro.core.inference import LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.crowd.arrival import UniformRandomArrival
from repro.crowd.budget import Budget
from repro.crowd.platform import CrowdPlatform
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serving import (
    AnswerEvent,
    AnswerIngestor,
    AnswerJournal,
    FaultInjector,
    GuardConfig,
    IngestConfig,
    OnlineServingService,
    ServingConfig,
    SnapshotStore,
)
from repro.serving.frontend import AssignmentFrontend
from repro.serving.guard import EventGuard


def make_events(small_dataset, worker_pool, distance_model, count, gap=0.1):
    simulator = AnswerSimulator(distance_model, noise=0.0)
    events = []
    index = 0
    for profile in worker_pool:
        for task in small_dataset.tasks:
            if index >= count:
                return events
            events.append(
                AnswerEvent(
                    simulator.sample_answer(profile, task, seed=1000 + index),
                    time=gap * index,
                )
            )
            index += 1
    return events


def make_traced_ingestor(
    small_dataset, worker_pool, distance_model, tmp_path=None, guard=None, faults=None
):
    inference = LocationAwareInference(
        small_dataset.tasks, worker_pool.workers, distance_model
    )
    snapshots = SnapshotStore()
    metrics = MetricsRegistry()
    tracer = Tracer(metrics, ring_capacity=64)
    journal = AnswerJournal(tmp_path / "journal") if tmp_path is not None else None
    ingestor = AnswerIngestor(
        inference,
        snapshots,
        config=IngestConfig(
            max_batch_answers=4, max_batch_delay=100.0, full_refresh_interval=8
        ),
        journal=journal,
        guard=guard,
        faults=faults,
        tracer=tracer,
    )
    return ingestor, snapshots, metrics, tracer


def make_platform(small_dataset, worker_pool, distance_model, budget=60):
    return CrowdPlatform(
        dataset=small_dataset,
        worker_pool=worker_pool,
        budget=Budget(total=budget),
        distance_model=distance_model,
        answer_simulator=AnswerSimulator(distance_model, noise=0.05),
        arrival_process=UniformRandomArrival(worker_pool, batch_size=3, seed=7),
        seed=7,
    )


class TestIngestorTelemetry:
    def test_stage_totals_cover_the_pipeline(
        self, small_dataset, worker_pool, distance_model
    ):
        ingestor, _, metrics, tracer = make_traced_ingestor(
            small_dataset, worker_pool, distance_model
        )
        for event in make_events(small_dataset, worker_pool, distance_model, 12):
            ingestor.submit(event)
        ingestor.flush()

        totals = tracer.stage_totals()
        # 12 answers at refresh interval 8: both incremental applies and a
        # full refresh ran, and every update published a snapshot.
        assert totals["apply"] > 0.0
        assert totals["refresh"] > 0.0
        assert totals["publish"] > 0.0
        assert metrics.get("ingest_answers_total").value == 12.0
        assert metrics.get("ingest_batches_total", kind="incremental").value >= 1.0
        assert metrics.get("ingest_batches_total", kind="full_refresh").value >= 1.0
        assert metrics.get("em_localized_sweeps_total").value >= 1.0
        assert metrics.get("em_refresh_iterations").count >= 1

    def test_journal_histogram_and_segment_counter(
        self, small_dataset, worker_pool, distance_model, tmp_path
    ):
        ingestor, _, metrics, _ = make_traced_ingestor(
            small_dataset, worker_pool, distance_model, tmp_path=tmp_path
        )
        events = make_events(small_dataset, worker_pool, distance_model, 8)
        for event in events:
            ingestor.submit(event)
        ingestor.flush()
        ingestor.journal.close()

        appends = metrics.get("journal_append_seconds", fsync="off")
        assert appends is not None and appends.count == len(events)
        assert metrics.get("journal_segments_created_total").value >= 1.0
        # Per-batch journal attribution rode along in the stage totals.
        assert metrics.get("stage_seconds", stage="journal").count >= 1

    def test_guard_reason_counters_reach_the_registry(
        self, small_dataset, worker_pool, distance_model
    ):
        guard = EventGuard(GuardConfig())
        ingestor, _, metrics, _ = make_traced_ingestor(
            small_dataset, worker_pool, distance_model, guard=guard
        )
        events = make_events(small_dataset, worker_pool, distance_model, 3)
        for event in events:
            ingestor.submit(event)
        ingestor.submit(events[0])  # identical resubmission -> duplicate
        ingestor.flush()

        assert metrics.get("guard_accepted_total").value == 3.0
        assert metrics.get("guard_quarantined_total", reason="duplicate").value == 1.0

    def test_fault_injector_counts_armed_and_fired(
        self, small_dataset, worker_pool, distance_model
    ):
        faults = FaultInjector()
        ingestor, _, metrics, _ = make_traced_ingestor(
            small_dataset, worker_pool, distance_model, faults=faults
        )
        faults.arm("refresh", after=1, times=1)
        for event in make_events(small_dataset, worker_pool, distance_model, 4):
            ingestor.submit(event)
        ingestor.flush()

        assert metrics.get("faults_armed_total", point="refresh").value == 1.0
        assert (
            metrics.get("faults_fired_total", point="refresh", kind="fault").value
            == 1.0
        )
        # The supervisor retried the failed refresh and counted it.
        assert metrics.get("ingest_update_retries_total", point="refresh").value >= 1.0


class TestFrontendTelemetry:
    def test_latency_histogram_is_the_percentile_source(
        self, small_dataset, worker_pool, distance_model
    ):
        ingestor, snapshots, metrics, tracer = make_traced_ingestor(
            small_dataset, worker_pool, distance_model
        )
        for event in make_events(small_dataset, worker_pool, distance_model, 8):
            ingestor.submit(event)
        ingestor.flush()
        frontend = AssignmentFrontend(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            snapshots,
            strategy="random",
            seed=3,
            tracer=tracer,
        )
        from repro.data.models import AnswerSet

        for worker_id in worker_pool.worker_ids[:5]:
            frontend.assign(worker_id, 2, AnswerSet())

        hist = metrics.get("assign_latency_seconds")
        assert hist.count == 5
        assert frontend.latency_percentile_ms(50.0) == pytest.approx(
            hist.percentile(50.0) * 1000.0
        )
        # Snapshot age at serve was observed against the published snapshot.
        assert metrics.get("snapshot_age_at_serve_seconds").count == 5
        # The stats report off the same registry histogram.
        assert frontend.stats.latency is hist

    def test_empty_reservoir_and_histogram_percentiles_are_zero(
        self, small_dataset, worker_pool, distance_model
    ):
        frontend = AssignmentFrontend(
            small_dataset.tasks,
            worker_pool.workers,
            distance_model,
            SnapshotStore(),
            strategy="random",
        )
        assert frontend.stats.latency_percentile(50.0) == 0.0
        assert frontend.latency_percentile_ms(95.0) == 0.0


class TestServiceTelemetry:
    def test_report_carries_the_phase_breakdown(
        self, small_dataset, worker_pool, distance_model
    ):
        platform = make_platform(small_dataset, worker_pool, distance_model)
        service = OnlineServingService(
            platform,
            config=ServingConfig(
                ingest=IngestConfig(
                    max_batch_answers=8, max_batch_delay=4.0, full_refresh_interval=40
                ),
                seed=13,
            ),
        )
        report = service.run()

        assert report.phases is not None
        assert len(report.phases.quarters) == 4
        assert 0.0 < report.phases.attributed_fraction <= 1.0
        assert "assign" in report.phases.stages
        assert "phase breakdown" in report.summary()
        # Histogram-backed percentiles made it into the report.
        assert report.assign_p50_ms > 0.0
        assert report.assign_p95_ms >= report.assign_p50_ms

    def test_metrics_dir_exports_jsonl_prom_and_trace(
        self, small_dataset, worker_pool, distance_model, tmp_path
    ):
        platform = make_platform(small_dataset, worker_pool, distance_model)
        metrics_dir = tmp_path / "telemetry"
        service = OnlineServingService(
            platform,
            config=ServingConfig(
                ingest=IngestConfig(
                    max_batch_answers=8, max_batch_delay=4.0, full_refresh_interval=40
                ),
                seed=13,
                metrics_dir=metrics_dir,
                metrics_interval=2,
                trace=True,
            ),
        )
        report = service.run()

        lines = (metrics_dir / "metrics.jsonl").read_text().splitlines()
        # Periodic snapshots every 2 rounds plus the final one.
        assert len(lines) >= report.rounds // 2
        last = json.loads(lines[-1])
        assert last["answers"] == report.answers_ingested
        names = {entry["name"] for entry in last["series"]}
        assert "stage_seconds" in names
        assert "assign_latency_seconds" in names

        prom = (metrics_dir / "metrics.prom").read_text()
        assert "# TYPE ingest_answers_total counter" in prom

        trace = json.loads((metrics_dir / "trace.json").read_text())
        assert trace["traceEvents"], "trace ring should retain span events"
        assert {"name", "ph", "ts", "dur"} <= set(trace["traceEvents"][0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(metrics_interval=-1)
        with pytest.raises(ValueError):
            ServingConfig(metrics_interval=3)  # no metrics_dir
        with pytest.raises(ValueError):
            ServingConfig(trace_capacity=0)


class TestReportRateContracts:
    def test_zero_elapsed_rates_are_zero(
        self, small_dataset, worker_pool, distance_model
    ):
        from repro.serving.ingest import IngestStats
        from repro.serving.frontend import FrontendStats
        from repro.serving.service import ServingReport

        report = ServingReport(
            rounds=0,
            workers_served=0,
            answers_ingested=0,
            ingest=IngestStats(),
            frontend=FrontendStats(),
            snapshots_published=0,
            latest_version=None,
            simulated_duration=0.0,
            wall_seconds=0.0,
            final_accuracy=0.5,
        )
        assert report.ingest_answers_per_second == 0.0
        assert report.wall_answers_per_second == 0.0
        assert report.open_world_fraction == 0.0
        assert report.assign_p50_ms == 0.0
        # The summary renders without dividing by zero anywhere.
        assert "answers ingested: 0" in report.summary()
