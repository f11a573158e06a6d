"""Perf regression harness: vectorized vs per-record EM on a fixed corpus.

Times the vectorized engine and the per-record oracle (``tests/oracles/em.py``)
on the same 20k-answer corpus (the `bench_fig13` quick profile scale
referenced by the paper's Figures 12-13), with a fixed iteration budget so the
comparison is per-iteration cost, and writes
``benchmarks/results/BENCH_inference_speed.json`` — speedup plus per-iteration
milliseconds — so future PRs can track the trajectory.  The run fails if the
vectorized engine falls below ``MIN_SPEEDUP`` over the per-record loop.

The E-step layer is also timed on its own: the median and interquartile range
of ``EM_STEP_RUNS`` calls of :func:`repro.core.em_kernel.em_step` on the same
corpus (N = 20k answers, M = 200k label responses), and the tracemalloc peak
of one step.  These are recorded, not gated.
"""

from __future__ import annotations

import json
import time
import tracemalloc

import numpy as np

from bench_common import RESULTS_DIR, build_inference_corpus
from oracles import em as oracle

from repro.core import em_kernel
from repro.core.inference import InferenceConfig, LocationAwareInference

#: Fixed workload: answers in the corpus and EM iterations per run.
CORPUS_ANSWERS = 20_000
EM_ITERATIONS = 3

#: The regression gate: minimum required speedup of vectorized over reference.
#: Raised from the initial 5x once the kernel reliably measured ~18x.
MIN_SPEEDUP = 10.0

#: Timed ``em_step`` calls behind the recorded median and IQR.
EM_STEP_RUNS = 9


def _em_step_profile(corpus) -> dict:
    """Median/IQR milliseconds and tracemalloc peak of one ``em_step``."""
    dataset, pool, distance_model, answers = corpus
    config = InferenceConfig()
    tensor = em_kernel.AnswerTensor.build(
        answers,
        {task.task_id: task for task in dataset.tasks},
        {worker.worker_id: worker for worker in pool.workers},
        distance_model,
        config.function_set,
    )
    store = em_kernel.initial_store(
        tensor, config.function_set, config.alpha, config.initial_p_qualified
    )
    for _ in range(3):  # move off the cold start, as a refresh would
        store, _ = em_kernel.em_step(tensor, store)
    samples = []
    for _ in range(EM_STEP_RUNS):
        started = time.perf_counter()
        em_kernel.em_step(tensor, store)
        samples.append(1000.0 * (time.perf_counter() - started))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        em_kernel.em_step(tensor, store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "em_step_answers": tensor.num_answers,
        "em_step_label_responses": tensor.num_label_responses,
        "em_step_runs": EM_STEP_RUNS,
        "em_step_median_ms": round(float(median), 3),
        "em_step_iqr_ms": [round(float(q1), 3), round(float(q3), 3)],
        "em_step_tracemalloc_peak_mb": round((peak - base) / 2**20, 3),
    }


def _time_engine(run_em, corpus) -> tuple[float, int]:
    dataset, pool, distance_model, answers = corpus
    config = InferenceConfig(max_iterations=EM_ITERATIONS, convergence_threshold=0.0)
    model = LocationAwareInference(
        dataset.tasks, pool.workers, distance_model, config=config
    )
    started = time.perf_counter()
    result = run_em(model, answers)
    return time.perf_counter() - started, result.iterations


def test_inference_speed_regression(benchmark):
    corpus = build_inference_corpus(CORPUS_ANSWERS)
    # Order matters for the per-record loop only through the distance cache,
    # which the vectorized run does not populate; time vectorized first so the
    # per-record run cannot warm anything up for it.
    vectorized_s, vectorized_iters = _time_engine(
        LocationAwareInference.run_em, corpus
    )
    reference_s, reference_iters = _time_engine(oracle.run_em, corpus)
    assert vectorized_iters == reference_iters == EM_ITERATIONS

    reference_ms = 1000.0 * reference_s / reference_iters
    vectorized_ms = 1000.0 * vectorized_s / vectorized_iters
    speedup = reference_ms / vectorized_ms

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "answers": CORPUS_ANSWERS,
        "iterations": EM_ITERATIONS,
        "reference_total_s": round(reference_s, 4),
        "vectorized_total_s": round(vectorized_s, 4),
        "reference_per_iteration_ms": round(reference_ms, 3),
        "vectorized_per_iteration_ms": round(vectorized_ms, 3),
        "speedup": round(speedup, 2),
        "min_required_speedup": MIN_SPEEDUP,
        **_em_step_profile(corpus),
    }
    path = RESULTS_DIR / "BENCH_inference_speed.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n=== inference_speed ===\n{json.dumps(payload, indent=2)}\n")

    # The timed unit for pytest-benchmark: one vectorized EM run.
    dataset, pool, distance_model, answers = corpus
    model = LocationAwareInference(
        dataset.tasks,
        pool.workers,
        distance_model,
        config=InferenceConfig(
            max_iterations=EM_ITERATIONS, convergence_threshold=0.0
        ),
    )
    benchmark.pedantic(lambda: model.run_em(answers), rounds=1, iterations=1)

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized EM is only {speedup:.1f}x faster than the per-record "
        f"oracle (required: {MIN_SPEEDUP}x); see {path}"
    )
