"""The per-observation Dawid & Skene (1979) EM loop.

The executable specification the flat-index
:class:`~repro.baselines.dawid_skene.DawidSkeneInference` is
equivalence-tested against: the same binary per-label model, iterated with
one Python step per observation.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.dawid_skene import DawidSkeneConfig, DawidSkeneResult
from repro.data.models import AnswerSet, Task


def fit_dawid_skene(
    tasks: list[Task], answers: AnswerSet, config: DawidSkeneConfig | None = None
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], DawidSkeneResult]:
    """Fit on ``answers``; returns per-task label probabilities, per-worker
    confusion matrices ``π_w[z][r]`` and the run's diagnostics."""
    config = config or DawidSkeneConfig()
    observations = [
        (answer.worker_id, (answer.task_id, k), int(response))
        for answer in answers
        for k, response in enumerate(answer.responses)
    ]
    items = sorted({item for _, item, _ in observations})
    worker_ids = sorted({worker_id for worker_id, _, _ in observations})

    # Initialise truth posteriors with the majority-vote fraction.
    posterior = {}
    for item in items:
        votes = [r for _, key, r in observations if key == item]
        posterior[item] = float(np.mean(votes)) if votes else 0.5

    # Index observations per item and per worker once.
    obs_by_item: dict[tuple[str, int], list[tuple[str, int]]] = {item: [] for item in items}
    obs_by_worker: dict[str, list[tuple[tuple[str, int], int]]] = {
        worker_id: [] for worker_id in worker_ids
    }
    for worker_id, item, response in observations:
        obs_by_item[item].append((worker_id, response))
        obs_by_worker[worker_id].append((item, response))

    confusion = {
        worker_id: np.array([[0.7, 0.3], [0.3, 0.7]]) for worker_id in worker_ids
    }
    prior_positive = 0.5

    trace: list[float] = []
    converged = False
    iterations = 0
    for iteration in range(config.max_iterations):
        iterations = iteration + 1

        # M-step: confusion matrices and class prior from current posteriors.
        new_confusion = {}
        for worker_id in worker_ids:
            counts = np.full((2, 2), config.smoothing)
            for item, response in obs_by_worker[worker_id]:
                p1 = posterior[item]
                counts[1, response] += p1
                counts[0, response] += 1.0 - p1
            counts /= counts.sum(axis=1, keepdims=True)
            new_confusion[worker_id] = counts
        confusion = new_confusion
        if posterior:
            prior_positive = float(np.mean(list(posterior.values())))
            prior_positive = min(1.0 - 1e-6, max(1e-6, prior_positive))

        # E-step: truth posteriors from the confusion matrices.
        max_change = 0.0
        new_posterior = {}
        for item in items:
            log_p1 = np.log(prior_positive)
            log_p0 = np.log(1.0 - prior_positive)
            for worker_id, response in obs_by_item[item]:
                matrix = confusion[worker_id]
                log_p1 += np.log(max(matrix[1, response], 1e-12))
                log_p0 += np.log(max(matrix[0, response], 1e-12))
            denominator = np.logaddexp(log_p1, log_p0)
            value = float(np.exp(log_p1 - denominator))
            max_change = max(max_change, abs(value - posterior[item]))
            new_posterior[item] = value
        posterior = new_posterior
        trace.append(max_change)
        if max_change <= config.convergence_threshold:
            converged = True
            break

    probabilities = {
        task.task_id: np.array(
            [posterior.get((task.task_id, k), 0.5) for k in range(task.num_labels)]
        )
        for task in tasks
    }
    result = DawidSkeneResult(
        iterations=iterations, converged=converged, convergence_trace=trace
    )
    return probabilities, confusion, result
