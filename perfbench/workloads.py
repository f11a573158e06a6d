"""The benchmark's three workloads: input generation, timed drivers and checks.

Each workload has two halves.  ``generate_*`` builds every input from the
seed (corpus, worker pool, arrival schedule) before any timing starts;
``measure_*`` constructs the program, drives it for the run's seconds and
checks its outputs after the timed windows.  The program only ever receives
generated inputs.

Answer simulation in hostile-durable runs between requests (a HIT is
answered by the simulated crowd before its answers are submitted); it is
timed as ``crowd.generate`` and kept out of every program layer.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench_common import build_answer_stream
from layers import Recorder, installed

from repro.assign.accopt import AccOptAssigner
from repro.core.inference import InferenceConfig, LocationAwareInference
from repro.crowd.answer_model import AnswerSimulator
from repro.crowd.platform import CrowdPlatform
from repro.crowd.worker_pool import WorkerPool, WorkerPoolSpec
from repro.data.models import POI, AnswerSet, Task
from repro.framework.metrics import labelling_accuracy
from repro.framework.scenarios import build_scenario
from repro.obs.metrics import MetricsRegistry
from repro.serving.guard import EventGuard, GuardConfig, ReputationTracker
from repro.serving.ingest import AnswerEvent, AnswerIngestor, IngestConfig
from repro.serving.journal import recover_ingestor
from repro.serving.service import OnlineServingService, ServingConfig
from repro.serving.snapshots import SnapshotStore
from repro.spatial.bbox import BoundingBox
from repro.spatial.distance import DistanceModel
from repro.spatial.geometry import GeoPoint

#: The frontend's latency target: a HIT served later than this misses.
HIT_SLO_S = 0.050

#: The percentile hostile-durable reports as its latency tail.  It must sit
#: inside one population of HITs, not on the edge between two, or a few HITs
#: crossing the edge move it.  The HITs that wait on flushes and checkpoints
#: are about one in twenty, so p95 and p99 lie near their edge and p90 among
#: the plain HITs: over five seeds p90 moved 0.07-0.20 of its median and p99
#: 0.15-0.36.  p99 is still printed, as hit_p99_ms.
HIT_TAIL_PERCENTILE = 90

#: Program constructions timed once per run: at least this many, and more
#: until :data:`SETUP_MIN_S` is spent.  ``setup_s`` is their median; single
#: millisecond constructions vary by 2x on a shared host, so the median needs
#: hundreds of them.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 1000

#: Workload sizes.  ``smoke`` variants run each workload end to end in a
#: second or two for the test suite.
SIZES = {
    "stream-20k": {
        "full": {"answers": 20_000},
        "smoke": {"answers": 600},
    },
    # ``rate`` is the offered HIT arrival rate (HITs/s), measured on a 2-core
    # x86-64 machine.  At 40 HITs/s the idle gap between arrivals (25 ms)
    # absorbs a micro-batch flush (about 10 ms) even when the host slows.  At
    # 80 HITs/s a host slowdown that raised p50 1.6x raised p99 4x, and at 60
    # HITs/s the 3000-answer campaign's peak RSS moved 0.11 of its median
    # over ten seeds.  At 60-85 HITs/s on 500 tasks and 100 workers the
    # background refresh falls behind.  200 tasks give each task ~10 answers,
    # so detection works (on 1000 tasks honest false positives reached 20%).
    "hostile-durable": {
        "full": {"tasks": 200, "workers": 60, "rate": 40.0},
        "smoke": {"tasks": 80, "workers": 40, "rate": 60.0},
    },
    "offline-sparse": {
        "full": {"tasks": 10_000, "workers": 10_000, "arrivals": 250},
        "smoke": {"tasks": 600, "workers": 600, "arrivals": 20},
    },
}


@dataclass
class RunResult:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end metrics every workload reports (the
    names ``BENCHMARK.json`` declares); ``named`` holds the same numbers
    under the workload's own metric names, with units, plus the
    workload-only metrics such as ``spam_recall``.  ``windows`` are the timed
    intervals (``perf_counter`` seconds) the trace coverage is measured over.
    """

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    named: dict = field(default_factory=dict)
    repetitions: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _tracing(recorder: Recorder | None):
    """The shims for a traced run; nothing for a measured one."""
    return installed(recorder) if recorder is not None else nullcontext()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _served_accuracy(snapshot, tasks) -> float:
    """Accuracy of the labels a snapshot serves, against ground truth."""
    params = snapshot.as_model()
    predictions = {
        task.task_id: (
            params.task(task.task_id, num_labels=task.num_labels).label_probs >= 0.5
        ).astype(int)
        for task in tasks
    }
    return labelling_accuracy(predictions, tasks)


def _timed_setup(build, discard):
    """Construct the program repeatedly; keep the last product.

    Returns ``(product, median_seconds)``; earlier products go to ``discard``
    so they release what they hold.
    """
    times = []
    product = None
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S
    ):
        if product is not None:
            discard(product)
        started = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - started)
    return product, statistics.median(times)


def _another_repetition(used_s: float, last_s: float, seconds: float) -> bool:
    """Start another repetition when at least half of one still fits.

    A run of repetitions lasting ``r`` seconds makes ``seconds / r`` of them,
    rounded to the nearest whole number, and takes about ``seconds``.
    """
    return used_s + last_s / 2 <= seconds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------- stream-20k
#: The serving gate's micro-batch policy (``bench_serving_throughput.py``).
STREAM_INGEST = {
    "max_batch_answers": 64,
    "max_batch_delay": 2.0,
    "full_refresh_interval": 4000,
    "pipeline_lag_answers": 1500,
}
STREAM_REFRESH_ITERATIONS = 25


def generate_stream(seed: int, size: dict):
    return build_answer_stream(size["answers"], seed=seed)


def measure_stream(inputs, seconds: float, recorder: Recorder | None = None) -> RunResult:
    """Closed-loop replays of the whole stream until ``seconds`` are used."""
    dataset, pool, distance_model, events = inputs
    result = RunResult()
    n = len(events)
    lags: list[np.ndarray] = []
    used = 0.0
    accuracy = None
    def build():
        inference = LocationAwareInference(
            dataset.tasks,
            pool.workers,
            distance_model,
            config=InferenceConfig(max_iterations=STREAM_REFRESH_ITERATIONS),
        )
        snapshots = SnapshotStore()
        ingestor = AnswerIngestor(inference, snapshots, config=IngestConfig(**STREAM_INGEST))
        return ingestor, snapshots

    with _tracing(recorder):
        (ingestor, snapshots), setup_s = _timed_setup(
            build, lambda product: product[0].close()
        )
        while True:
            if ingestor is None:
                ingestor, snapshots = build()
            submitted = np.empty(n)
            lag = np.full(n, np.nan)
            published = 0
            clock = time.perf_counter
            start = clock()
            for index, event in enumerate(events):
                submitted[index] = clock()
                if ingestor.submit(event) is not None:
                    now = clock()
                    lag[published : index + 1] = now - submitted[published : index + 1]
                    published = index + 1
            if ingestor.flush() is not None:
                now = clock()
                lag[published:] = now - submitted[published:]
                published = n
            end = clock()
            ingestor.close()
            result.windows.append((start, end))

            stats = ingestor.stats
            result.attempted += n
            unpublished = int(np.isnan(lag).sum())
            result.failed += max(stats.answers_dropped, unpublished)
            result.check(stats.answers == n, f"ingested {stats.answers} of {n} events")
            result.check(stats.log_flattens == 0, f"{stats.log_flattens} log flattens")
            result.check(stats.dropped_batches == 0, f"{stats.dropped_batches} batches dropped")
            result.check(unpublished == 0, f"{unpublished} events never published")
            for name, value in (
                ("ingest.batches", stats.batches),
                ("ingest.batches_dropped", stats.dropped_batches),
                ("ingest.retries", stats.update_retries),
                ("ingest.refresh_wait_s", stats.refresh_wait_seconds),
                ("snapshots.publish_full", stats.snapshots_published - stats.delta_publishes),
                ("snapshots.publish_delta", stats.delta_publishes),
            ):
                result.count(name, value)
            lags.append(lag[~np.isnan(lag)] * 1000.0)
            wall = end - start
            result.repetitions.append(
                {
                    "answers_per_s": n / wall,
                    "publish_lag_p50_ms": percentile(lags[-1], 50),
                    "publish_lag_p99_ms": percentile(lags[-1], 99),
                    "publish_lag_p999_ms": percentile(lags[-1], 99.9),
                    "wall_s": wall,
                    "max_ingest_stall_ms": stats.max_flush_stall_ms,
                    "refresh_wait_s": stats.refresh_wait_seconds,
                }
            )
            if accuracy is None:
                accuracy = _served_accuracy(snapshots.latest(), dataset.tasks)
            ingestor = None
            used += wall
            if not _another_repetition(used, wall, seconds):
                break

    pooled = np.concatenate(lags)
    reps = result.repetitions
    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "label_accuracy": accuracy,
        "answers_per_s": statistics.median(r["answers_per_s"] for r in reps),
        "latency_p50_ms": percentile(pooled, 50),
        "latency_tail_ms": percentile(pooled, 99.9),
    }
    result.named |= {
        "answers_per_s": (result.metrics["answers_per_s"], "answers/s"),
        "publish_lag_p50_ms": (result.metrics["latency_p50_ms"], "ms"),
        "publish_lag_p999_ms": (result.metrics["latency_tail_ms"], "ms"),
        "publish_lag_samples": (int(pooled.size), "count"),
        "max_ingest_stall_ms": (max(r["max_ingest_stall_ms"] for r in reps), "ms"),
    }
    return result


# ------------------------------------------------ hostile-durable (open loop)
@dataclass
class Campaign:
    """One served HIT campaign: a fresh platform and its serving config."""

    platform: CrowdPlatform
    config: ServingConfig
    adversaries: frozenset


def arrival_schedule(seed: int, worker_ids, rate: float, seconds: float):
    """Open-loop arrivals: ``(due_offset_s, worker_id)`` at a fixed rate."""
    rng = np.random.default_rng([seed, 0xA11])
    count = max(1, int(rate * seconds))
    picks = rng.integers(len(worker_ids), size=count)
    return [(i / rate, worker_ids[int(p)]) for i, p in enumerate(picks)]


#: Answers between checkpoints: about four in a run's 2000-answer campaign,
#: and at least one in each half of a traced run.
HOSTILE_CHECKPOINT_INTERVAL = 500

#: The hostile refreshes (every 100 answers) are capped like the stream's.
#: Uncapped, a fit's length follows its seed-dependent convergence, and the
#: background thread it runs on holds the interpreter lock against HIT
#: serving for that long: HIT p99 spread 44% over ten seeds uncapped, 21%
#: over five seeds capped.
HOSTILE_REFRESH_ITERATIONS = STREAM_REFRESH_ITERATIONS


def generate_hostile(seed: int, size: dict):
    def campaign(budget: int) -> Campaign:
        scenario = build_scenario(
            "spam",
            num_tasks=size["tasks"],
            num_workers=size["workers"],
            budget=budget,
            seed=seed,
        )
        config = dataclasses.replace(
            scenario.config,
            journal_fsync=False,
            guard=GuardConfig(),
            ingest=dataclasses.replace(
                scenario.config.ingest,
                checkpoint_interval=HOSTILE_CHECKPOINT_INTERVAL,
            ),
            inference=dataclasses.replace(
                scenario.config.inference, max_iterations=HOSTILE_REFRESH_ITERATIONS
            ),
        )
        pool = scenario.platform.worker_pool
        return Campaign(scenario.platform, config, frozenset(pool.adversary_ids))

    worker_ids = build_scenario(
        "spam", num_tasks=size["tasks"], num_workers=size["workers"], budget=1, seed=seed
    ).platform.worker_pool.worker_ids
    return campaign, worker_ids, size["rate"], seed


def _drive(service, platform, schedule, h, result, span):
    """Serve ``schedule`` open-loop; returns per-HIT latency from due time.

    Each arrival asks the frontend for a HIT, has the simulated crowd answer
    it and submits the answers.  A HIT's latency runs from its due time to
    the frontend's response, so a stall on an earlier arrival shows up as
    waiting on every later one.  Failed HITs count as infinitely late.

    Also returns the seconds the driver slept waiting for due times and the
    seconds the simulated crowd spent answering; the rest of the window is
    the program's time on the main thread.
    """
    frontend, ingestor = service.frontend, service.ingestor
    latencies, lateness, assigned = [], [], []
    blocked = 0
    idle = generate = 0.0
    clock = time.perf_counter
    origin = clock() + 0.01
    for due, worker_id in schedule:
        target = origin + due
        now = clock()
        if target > now:
            with span("driver.idle"):
                time.sleep(target - now)
            idle += clock() - now
        begin = clock()
        lateness.append(begin - target)
        result.attempted += 1
        blocked_before = frontend.stats.blocked_requests
        try:
            response = frontend.assign(
                worker_id, min(h, platform.budget.remaining), platform.answers
            )
        except Exception:
            traceback.print_exc()
            result.failed += 1
            latencies.append(math.inf)
            continue
        latencies.append(clock() - target)
        if frontend.stats.blocked_requests > blocked_before:
            blocked += 1
            continue
        if not response.task_ids:
            result.failed += 1
            latencies[-1] = math.inf
            continue
        assigned.append((worker_id, response.task_ids))
        generating = clock()
        try:
            with span("crowd.generate"):
                answers = platform.execute_assignment(
                    {worker_id: list(response.task_ids)}, time=due
                )
        except Exception:
            traceback.print_exc()
            result.failed += 1
            continue
        finally:
            generate += clock() - generating
        for answer in answers:
            result.attempted += 1
            try:
                ingestor.submit(AnswerEvent(answer, time=due))
            except Exception:
                traceback.print_exc()
                result.failed += 1
    window = (origin, clock())
    return latencies, lateness, assigned, blocked, window, idle, generate


def _check_hits(result, assigned, h, budget):
    pairs = [(w, t) for w, task_ids in assigned for t in task_ids]
    result.check(
        all(len(set(ids)) == len(ids) <= h for _, ids in assigned),
        "a HIT repeated a task or exceeded h",
    )
    result.check(len(set(pairs)) == len(pairs), "a HIT re-assigned an answered task")
    result.check(len(pairs) <= budget, "HITs exceeded the budget")


def measure_hostile(inputs, seconds: float, state_root: Path,
                    recorder: Recorder | None = None) -> RunResult:
    """One open-loop campaign whose arrival schedule spans ``seconds``."""
    make_campaign, worker_ids, rate, seed = inputs
    schedule = arrival_schedule(seed, worker_ids, rate, seconds)
    campaign = make_campaign(len(schedule) * ServingConfig().tasks_per_worker)
    platform = campaign.platform
    config = campaign.config
    h = config.tasks_per_worker
    budget = platform.budget.total
    result = RunResult()
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    config = dataclasses.replace(config, state_dir=state_root / "state")

    def discard(stale):
        stale.close()
        shutil.rmtree(config.state_dir)

    with _tracing(recorder):
        service, setup_s = _timed_setup(
            lambda: OnlineServingService(platform, config), discard
        )
        latencies, lateness, assigned, blocked, window, idle, generate = _drive(
            service, platform, schedule, h, result, span
        )
    result.windows.append(window)
    ingestor = service.ingestor
    stats = ingestor.stats

    submits = sum(len(ids) for _, ids in assigned)
    _check_durable(result, service, config, platform, stats, submits, state_root)
    final = ingestor.flush(now=schedule[-1][0], full=True)
    latest = final if final is not None else service.snapshots.latest()
    accuracy = _served_accuracy(latest, platform.dataset.tasks)
    service.close()

    intake_rejected = stats.events_quarantined - stats.events_rejected_reputation
    result.failed += stats.answers_dropped + stats.journal_append_failures + intake_rejected
    _check_hits(result, assigned, h, budget)
    result.check(stats.dropped_batches == 0, f"{stats.dropped_batches} batches dropped")
    result.check(intake_rejected == 0, f"the guard rejected {intake_rejected} valid events")

    frontend_stats = service.frontend.stats
    wall = window[1] - window[0]
    # The window is as long as the arrival schedule; the program's own share
    # of it is what is left after the driver's sleeps and the crowd's
    # answering.
    program_s = wall - idle - generate
    latency_ms = np.asarray(latencies) * 1000.0
    for name, value in (
        ("ingest.batches", stats.batches),
        ("ingest.batches_dropped", stats.dropped_batches),
        ("ingest.retries", stats.update_retries),
        ("ingest.refresh_wait_s", stats.refresh_wait_seconds),
        ("snapshots.publish_full", stats.snapshots_published - stats.delta_publishes),
        ("snapshots.publish_delta", stats.delta_publishes),
        ("frontend.param_refreshes", frontend_stats.parameter_refreshes),
        ("frontend.blocked", frontend_stats.blocked_requests),
        ("driver.late_p99_ms", percentile(lateness, 99) * 1000.0),
    ):
        result.count(name, value)
    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "label_accuracy": accuracy,
        "answers_per_s": stats.answers / program_s,
        "latency_p50_ms": percentile(latency_ms, 50),
        "latency_tail_ms": percentile(latency_ms, HIT_TAIL_PERCENTILE),
    }
    slo = float(np.mean(latency_ms <= HIT_SLO_S * 1000.0))
    result.named |= {
        "hit_p50_ms": (result.metrics["latency_p50_ms"], "ms"),
        "hit_p90_ms": (percentile(latency_ms, 90), "ms"),
        "hit_p99_ms": (percentile(latency_ms, 99), "ms"),
        "hit_slo_frac": (slo, "fraction"),
        "hits": (len(latencies), "count"),
        "hits_blocked": (blocked, "count"),
        "offered_rate": (rate, "HITs/s"),
        "ingested_per_window_s": (stats.answers / wall, "answers/s"),
        "program_busy_frac": (program_s / wall, "fraction"),
        "driver_late_p99_ms": (result.counters["driver.late_p99_ms"], "ms"),
        "submits": (submits, "count"),
    }
    quarantined = service.reputation.quarantined_ids
    adversaries = campaign.adversaries
    honest = set(worker_ids) - adversaries
    result.named["spam_recall"] = (
        len(quarantined & adversaries) / max(1, len(adversaries)), "fraction"
    )
    result.named["honest_fp_frac"] = (
        len(quarantined & honest) / max(1, len(honest)), "fraction"
    )
    result.count("guard.transitions", service.reputation.transitions)
    result.repetitions.append(
        {k: v for k, (v, _) in result.named.items()}
    )
    return result


def _check_durable(result, service, config, platform, stats, submitted: int,
                   state_root: Path) -> None:
    """Journal completeness and crash recovery, against the live state.

    Runs before the closing full refresh, which is not journaled.  Recovery
    works on a copy of the state directory so the live session's journal and
    checkpoints stay untouched.
    """
    ingestor = service.ingestor
    journal = ingestor.journal
    accepted = submitted - stats.events_quarantined
    result.check(
        journal.stats.appends == accepted,
        f"journal holds {journal.stats.appends} records for {accepted} accepted events",
    )
    guard = ingestor.guard
    result.count("journal.appends", journal.stats.appends)
    result.count("guard.rejected", guard.stats.quarantined)

    live = service.snapshots.latest()
    copy_dir = state_root / "recovered"
    shutil.rmtree(copy_dir, ignore_errors=True)
    shutil.copytree(config.state_dir, copy_dir)
    inference = LocationAwareInference(
        list(platform.dataset.tasks),
        platform.workers,
        platform.distance_model,
        config=config.inference,
    )
    snapshots = SnapshotStore(max_snapshots=config.max_snapshots)
    recovered, _report = recover_ingestor(
        copy_dir,
        inference=inference,
        snapshots=snapshots,
        ingest_config=config.ingest,
        guard=EventGuard(GuardConfig()),
        reputation=ReputationTracker(config.reputation),
    )
    replayed = snapshots.latest()
    recovered.close()
    recovered.journal.close()
    if live is None or replayed is None:
        # Fewer answers than one micro-batch: nothing was published live, and
        # recovery must not publish anything either.
        diff = 0.0 if live is replayed else math.inf
    else:
        try:
            diff = live.store.max_difference(replayed.store)
        except ValueError as error:
            diff = math.inf
            result.problems.append(f"recovered store does not line up: {error}")
    result.check(diff <= 1e-9, f"recovered store differs from the live one by {diff:.3g}")
    result.named["recovery_max_diff"] = (diff, "abs")


# ------------------------------------------------------------ offline-sparse
#: Expected in-radius tasks per worker; sets the candidate radius.
CANDIDATES_PER_WORKER = 30
ANSWERS_PER_WORKER = 2
HIT_SIZE = 2
#: High enough that cold fits stop on the convergence threshold (they take
#: 110-200 iterations on these universes), not on the cap.
SPARSE_MAX_ITERATIONS = 500
LABELS = ("l1", "l2", "l3", "l4")


def _sparse_universe(num_tasks: int, num_workers: int, seed):
    """Tasks and workers uniform over the unit square; each worker answers
    tasks in its own grid cell, with responses drawn from the crowd model."""
    rng = np.random.default_rng(seed)
    tx, ty = rng.random(num_tasks), rng.random(num_tasks)
    truth = rng.integers(0, 2, size=(num_tasks, len(LABELS)))
    tasks = [
        Task(
            task_id=f"t{j}",
            poi=POI(poi_id=f"p{j}", name=f"p{j}", location=GeoPoint(float(tx[j]), float(ty[j]))),
            labels=LABELS,
            truth=tuple(int(v) for v in truth[j]),
        )
        for j in range(num_tasks)
    ]
    pool = WorkerPool.generate(
        BoundingBox(0.0, 0.0, 1.0, 1.0),
        spec=WorkerPoolSpec(num_workers=num_workers, locations_per_worker=(1, 1)),
        seed=rng,
    )
    distance_model = DistanceModel.from_pois([task.location for task in tasks])
    simulator = AnswerSimulator(distance_model, noise=0.05)
    radius = math.sqrt(CANDIDATES_PER_WORKER / (math.pi * num_tasks))
    cells = max(1, int(1.0 / radius))
    cell_of_task = (np.minimum((tx * cells).astype(int), cells - 1) * cells
                    + np.minimum((ty * cells).astype(int), cells - 1))
    order = np.argsort(cell_of_task, kind="stable")
    starts = np.searchsorted(cell_of_task[order], np.arange(cells * cells + 1))
    answers = AnswerSet()
    for worker in pool.workers:
        home = worker.locations[0]
        cx = min(int(home.x * cells), cells - 1)
        cy = min(int(home.y * cells), cells - 1)
        members = order[starts[cx * cells + cy] : starts[cx * cells + cy + 1]]
        if members.size < ANSWERS_PER_WORKER:
            members = np.arange(num_tasks)
        picks = rng.choice(members, size=ANSWERS_PER_WORKER, replace=False)
        profile = pool.profile(worker.worker_id)
        for j in picks:
            answers.add(simulator.sample_answer(profile, tasks[int(j)], seed=rng))
    return tasks, pool.workers, answers, radius


def generate_sparse(seed: int, size: dict):
    tasks, workers, answers, radius = _sparse_universe(size["tasks"], size["workers"], [seed, 1])
    rng = np.random.default_rng([seed, 2])
    arrivals = [workers[int(i)].worker_id for i in rng.choice(len(workers), size["arrivals"], replace=False)]
    oracle = _sparse_universe(150, 60, [seed, 3])
    return tasks, workers, answers, radius, arrivals, oracle


def _fit(tasks, workers, answers, engine, radius):
    distance_model = DistanceModel.from_pois([task.location for task in tasks])
    config = InferenceConfig(
        engine=engine,
        candidate_radius=radius if engine == "sparse" else None,
        max_iterations=SPARSE_MAX_ITERATIONS,
    )
    model = LocationAwareInference(tasks, workers, distance_model, config=config)
    model.fit(answers)
    return model, distance_model


def _sparse_oracle(result, oracle) -> None:
    """Sparse and dense agree on a small universe with a covering radius."""
    tasks, workers, answers, _ = oracle
    covering = 10.0  # the unit square's diameter is sqrt(2)
    outputs = []
    for engine in ("vectorized", "sparse"):
        model, distance_model = _fit(tasks, workers, answers, engine, covering)
        assigner = AccOptAssigner(
            tasks, workers, distance_model, model.parameters, engine=engine,
            candidate_radius=covering if engine == "sparse" else None,
        )
        batch = [w.worker_id for w in workers[:8]]
        outputs.append((model.last_result.store, assigner.assign(batch, HIT_SIZE, answers)))
    (dense_store, dense_hits), (sparse_store, sparse_hits) = outputs
    diff = dense_store.max_difference(sparse_store)
    result.check(diff <= 1e-9, f"sparse and dense fits differ by {diff:.3g}")
    result.check(dense_hits == sparse_hits, "sparse and dense assignments differ")
    result.named["oracle_max_diff"] = (diff, "abs")


def measure_sparse(inputs, seconds: float, recorder: Recorder | None = None) -> RunResult:
    """Cold sparse fits plus one AccOpt request per arriving worker, repeated."""
    tasks, workers, answers, radius, arrivals, oracle = inputs
    result = RunResult()
    latencies = []
    used = 0.0
    accuracy = None
    locations = [task.location for task in tasks]
    def build():
        distance_model = DistanceModel.from_pois(locations)
        config = InferenceConfig(
            engine="sparse", candidate_radius=radius, max_iterations=SPARSE_MAX_ITERATIONS
        )
        return LocationAwareInference(tasks, workers, distance_model, config=config)

    with _tracing(recorder):
        model, setup_s = _timed_setup(build, lambda _stale: None)
        while True:
            if model is None:
                model = build()
            clock = time.perf_counter
            start = clock()
            model.fit(answers)
            fitted = clock()
            registry = MetricsRegistry()
            assigner = AccOptAssigner(
                tasks, workers, model.distance_model, model.parameters,
                engine="sparse", candidate_radius=radius, metrics=registry,
            )
            hits = []
            for worker_id in arrivals:
                began = clock()
                assignment = assigner.assign([worker_id], HIT_SIZE, answers)
                latencies.append(clock() - began)
                hits.append((worker_id, tuple(assignment.get(worker_id, ()))))
            end = clock()
            result.windows.append((start, end))
            result.attempted += len(arrivals)
            bad = [
                w for w, ids in hits
                if len(ids) != HIT_SIZE or len(set(ids)) != len(ids)
                or any(answers.get(w, t) is not None for t in ids)
            ]
            result.failed += len(bad)
            result.check(not bad, f"{len(bad)} sparse HITs were short, repeated or answered")
            fit_s = fitted - start
            result.repetitions.append(
                {
                    "fit_s": fit_s,
                    "fit_assign_s": end - start,
                    "iterations": model.last_result.iterations,
                    "converged": model.last_result.converged,
                }
            )
            for name in ("kept", "pruned"):
                counter = registry.counter(f"candidate_pairs_{name}_total")
                result.count(f"spatial.pairs_{name}", int(counter.value))
            if accuracy is None:
                accuracy = labelling_accuracy(model.predict_all(), tasks)
            model = None
            used += end - start
            if not _another_repetition(used, end - start, seconds):
                break
    _sparse_oracle(result, oracle)

    reps = result.repetitions
    latency_ms = np.asarray(latencies) * 1000.0
    fit_assign = statistics.median(r["fit_assign_s"] for r in reps)
    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "label_accuracy": accuracy,
        # Answer rows swept per second of EM: the fit's per-iteration speed.
        # The iteration count to convergence varies with the seed and is
        # reported as ``em_iterations``; ``fit_assign_s`` carries both.
        "answers_per_s": statistics.median(
            len(answers) * r["iterations"] / r["fit_s"] for r in reps
        ),
        "latency_p50_ms": percentile(latency_ms, 50),
        "latency_tail_ms": percentile(latency_ms, 95),
    }
    result.named |= {
        "fit_assign_s": (fit_assign, "s"),
        "em_answer_sweeps_per_s": (result.metrics["answers_per_s"], "answers/s"),
        "sparse_hit_p50_ms": (result.metrics["latency_p50_ms"], "ms"),
        "sparse_hit_p95_ms": (result.metrics["latency_tail_ms"], "ms"),
        "em_iterations": (reps[0]["iterations"], "count"),
        "universe": (f"{len(tasks)} tasks x {len(workers)} workers, {len(answers)} answers", ""),
    }
    return result
