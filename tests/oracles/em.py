"""The paper's per-record EM (Equations 12-14) and its localized sweep.

One Python step per ``(worker, task)`` answer with dict-based scatter-adds in
the M-step: the executable specification the batched kernels of
:mod:`repro.core.em_kernel` are equivalence-tested (and speed-gated) against.
Only the model's task/worker registries, distance model and config are read;
nothing here touches the array engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inference import InferenceResult, LocationAwareInference
from repro.core.params import ModelParameters, TaskParameters, WorkerParameters
from repro.data.models import Answer, AnswerSet
from repro.utils.validation import clamp_probability


@dataclass
class AnswerRecord:
    """One (worker, task) answer flattened for the E-step."""

    worker_id: str
    task_id: str
    responses: np.ndarray
    distance: float
    f_values: np.ndarray  # the function set evaluated at `distance`


def build_records(
    model: LocationAwareInference, answers: AnswerSet
) -> list[AnswerRecord]:
    """Validate ``answers`` against ``model``'s registries and flatten them."""
    tasks, workers = model.tasks, model.workers
    function_set = model.config.function_set
    records: list[AnswerRecord] = []
    for answer in answers:
        task = tasks.get(answer.task_id)
        if task is None:
            raise KeyError(f"answer references unknown task {answer.task_id!r}")
        worker = workers.get(answer.worker_id)
        if worker is None:
            raise KeyError(f"answer references unknown worker {answer.worker_id!r}")
        if answer.num_labels != task.num_labels:
            raise ValueError(
                f"answer for task {task.task_id!r} has {answer.num_labels} labels, "
                f"task has {task.num_labels}"
            )
        distance = model.distance_model.worker_task_distance(
            worker.locations, task.location
        )
        records.append(
            AnswerRecord(
                worker_id=answer.worker_id,
                task_id=answer.task_id,
                responses=np.asarray(answer.responses, dtype=int),
                distance=distance,
                f_values=function_set.evaluate(distance),
            )
        )
    return records


def initial_parameters(records: list[AnswerRecord], config) -> ModelParameters:
    """Soft majority vote for labels, optimistic priors elsewhere."""
    function_set = config.function_set
    uniform = function_set.uniform_weights()

    vote_sums: dict[str, np.ndarray] = {}
    vote_counts: dict[str, int] = {}
    worker_ids: set[str] = set()
    for record in records:
        worker_ids.add(record.worker_id)
        if record.task_id not in vote_sums:
            vote_sums[record.task_id] = np.zeros(record.responses.size)
            vote_counts[record.task_id] = 0
        vote_sums[record.task_id] += record.responses
        vote_counts[record.task_id] += 1

    tasks = {}
    for task_id, sums in vote_sums.items():
        count = vote_counts[task_id]
        probs = np.clip(sums / count, 0.02, 0.98) if count else np.full(sums.size, 0.5)
        tasks[task_id] = TaskParameters(
            label_probs=probs, influence_weights=uniform.copy()
        )
    workers = {
        worker_id: WorkerParameters(
            p_qualified=config.initial_p_qualified,
            distance_weights=uniform.copy(),
        )
        for worker_id in sorted(worker_ids)
    }
    return ModelParameters(
        function_set=function_set, alpha=config.alpha, workers=workers, tasks=tasks
    )


def expectation(
    record: AnswerRecord, params: ModelParameters
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Closed-form E-step marginals for one answer vector.

    Returns ``(post_z1, post_i1, post_dw, post_dt, log_likelihood)`` where
    ``post_z1`` and ``post_i1`` are per-label vectors, ``post_dw`` and
    ``post_dt`` are per-label × |F| matrices, and ``log_likelihood`` is the
    summed log of the answer probabilities ``P(r_{w,t,k})``.
    """
    alpha = params.alpha
    worker = params.worker(record.worker_id)
    task = params.task(record.task_id, num_labels=record.responses.size)

    f_values = record.f_values
    p_qualified = clamp_probability(worker.p_qualified)
    p_unqualified = 1.0 - p_qualified
    dw = worker.distance_weights
    dt = task.influence_weights

    worker_quality = float(np.dot(dw, f_values))          # DQ_w at this distance
    poi_quality = float(np.dot(dt, f_values))              # IQ_t at this distance
    s_q = clamp_probability(alpha * worker_quality + (1.0 - alpha) * poi_quality)
    # Per-function rows/columns of q(d_w, d_t) marginalised over the other
    # variable's current weights.
    q_row = alpha * f_values + (1.0 - alpha) * poi_quality     # varies with d_w
    q_col = alpha * worker_quality + (1.0 - alpha) * f_values  # varies with d_t

    responses = record.responses
    pz1 = np.clip(task.label_probs, 1e-9, 1.0 - 1e-9)
    pz_equal_r = np.where(responses == 1, pz1, 1.0 - pz1)      # P(z = r)
    pz_not_r = 1.0 - pz_equal_r

    # P(r) per label: the normaliser of the joint posterior.
    evidence = 0.5 * p_unqualified + p_qualified * (
        pz_equal_r * s_q + pz_not_r * (1.0 - s_q)
    )
    evidence = np.clip(evidence, 1e-12, None)

    # P(z = 1 | r): the z=1 branch uses s_q when r=1 and (1-s_q) when r=0.
    agree_factor = np.where(responses == 1, s_q, 1.0 - s_q)
    post_z1 = pz1 * (0.5 * p_unqualified + p_qualified * agree_factor) / evidence

    post_i1 = p_qualified * (pz_equal_r * s_q + pz_not_r * (1.0 - s_q)) / evidence

    # P(d_w = a | r) and P(d_t = a | r) per label: (labels x |F|).
    agree_dw = pz_equal_r[:, None] * q_row[None, :] + pz_not_r[:, None] * (
        1.0 - q_row[None, :]
    )
    post_dw = dw[None, :] * (0.5 * p_unqualified + p_qualified * agree_dw)
    post_dw /= evidence[:, None]

    agree_dt = pz_equal_r[:, None] * q_col[None, :] + pz_not_r[:, None] * (
        1.0 - q_col[None, :]
    )
    post_dt = dt[None, :] * (0.5 * p_unqualified + p_qualified * agree_dt)
    post_dt /= evidence[:, None]

    log_likelihood = float(np.sum(np.log(evidence)))
    return post_z1, post_i1, post_dw, post_dt, log_likelihood


def _maximise(
    records: list[AnswerRecord],
    params: ModelParameters,
    function_set,
    workers_kept=None,
    tasks_kept=None,
) -> tuple[dict, dict, float]:
    """E-step over ``records`` plus the M-step of Equations 12 and 14.

    Only entities in ``workers_kept`` / ``tasks_kept`` (``None`` keeps all)
    accumulate statistics; returns their re-estimated parameters and the
    summed log-likelihood.
    """
    function_count = len(function_set)
    z_sums: dict[str, np.ndarray] = {}
    z_counts: dict[str, int] = {}
    dt_sums: dict[str, np.ndarray] = {}
    dt_counts: dict[str, int] = {}
    i_sums: dict[str, float] = {}
    i_counts: dict[str, int] = {}
    dw_sums: dict[str, np.ndarray] = {}

    total_log_likelihood = 0.0
    for record in records:
        post_z1, post_i1, post_dw, post_dt, log_likelihood = expectation(
            record, params
        )
        total_log_likelihood += log_likelihood
        n_labels = record.responses.size

        if tasks_kept is None or record.task_id in tasks_kept:
            if record.task_id not in z_sums:
                z_sums[record.task_id] = np.zeros(n_labels)
                z_counts[record.task_id] = 0
                dt_sums[record.task_id] = np.zeros(function_count)
                dt_counts[record.task_id] = 0
            z_sums[record.task_id] += post_z1
            z_counts[record.task_id] += 1
            dt_sums[record.task_id] += post_dt.sum(axis=0)
            dt_counts[record.task_id] += n_labels

        if workers_kept is None or record.worker_id in workers_kept:
            if record.worker_id not in i_sums:
                i_sums[record.worker_id] = 0.0
                i_counts[record.worker_id] = 0
                dw_sums[record.worker_id] = np.zeros(function_count)
            i_sums[record.worker_id] += float(post_i1.sum())
            i_counts[record.worker_id] += n_labels
            dw_sums[record.worker_id] += post_dw.sum(axis=0)

    def normalised(weights: np.ndarray) -> np.ndarray:
        total = weights.sum()
        return weights / total if total > 0 else function_set.uniform_weights()

    tasks = {
        task_id: TaskParameters(
            label_probs=np.clip(sums / max(1, z_counts[task_id]), 0.0, 1.0),
            influence_weights=normalised(
                dt_sums[task_id] / max(1, dt_counts[task_id])
            ),
        )
        for task_id, sums in z_sums.items()
    }
    workers = {}
    for worker_id, total in i_sums.items():
        count = max(1, i_counts[worker_id])
        workers[worker_id] = WorkerParameters(
            p_qualified=min(1.0, max(0.0, total / count)),
            distance_weights=normalised(dw_sums[worker_id] / count),
        )
    return workers, tasks, total_log_likelihood


def em_iteration(
    records: list[AnswerRecord], params: ModelParameters, config
) -> tuple[ModelParameters, float]:
    """One combined E+M step; parameters are emitted under ``config``'s alpha."""
    workers, tasks, log_likelihood = _maximise(records, params, config.function_set)
    new_params = ModelParameters(
        function_set=config.function_set,
        alpha=config.alpha,
        workers=workers,
        tasks=tasks,
    )
    return new_params, log_likelihood


def run_em(
    model: LocationAwareInference,
    answers: AnswerSet,
    initial: ModelParameters | None = None,
) -> InferenceResult:
    """Full EM to convergence under ``model.config``; ``model`` is not mutated."""
    config = model.config
    records = build_records(model, answers)
    params = initial.copy() if initial is not None else initial_parameters(records, config)

    convergence_trace: list[float] = []
    likelihood_trace: list[float] = []
    converged = False
    iterations = 0
    for iteration in range(config.max_iterations):
        iterations = iteration + 1
        new_params, log_likelihood = em_iteration(records, params, config)
        delta = new_params.max_difference(params)
        params = new_params
        convergence_trace.append(delta)
        likelihood_trace.append(log_likelihood)
        if delta <= config.convergence_threshold:
            converged = True
            break

    return InferenceResult(
        parameters=params,
        iterations=iterations,
        converged=converged,
        convergence_trace=convergence_trace,
        log_likelihood_trace=likelihood_trace,
    )


def relevant_answers(
    answers: AnswerSet, affected_workers: set[str], affected_tasks: set[str]
) -> list[Answer]:
    """Union of the affected workers' and tasks' answers, deduplicated.

    Deterministic regardless of submission order: affected workers in sorted
    order (each worker's answers sorted by task), then the affected tasks'
    remaining answers (sorted by worker).
    """
    seen: set[tuple[str, str]] = set()
    relevant: list[Answer] = []
    for worker_id in sorted(affected_workers):
        for answer in answers.answers_of_worker(worker_id):
            seen.add((answer.worker_id, answer.task_id))
            relevant.append(answer)
    for task_id in sorted(affected_tasks):
        for answer in answers.answers_of_task(task_id):
            key = (answer.worker_id, answer.task_id)
            if key not in seen:
                seen.add(key)
                relevant.append(answer)
    return relevant


def local_maximisation(
    records: list[AnswerRecord],
    params: ModelParameters,
    affected_workers: set[str],
    affected_tasks: set[str],
    function_set,
) -> ModelParameters:
    """One E+M sweep that re-estimates only the affected workers and tasks."""
    workers, tasks, _ = _maximise(
        records, params, function_set, affected_workers, affected_tasks
    )
    new_params = params.copy()
    new_params.tasks.update(tasks)
    new_params.workers.update(workers)
    return new_params


def incremental_update(
    model: LocationAwareInference,
    answers: AnswerSet,
    new_answers: list[Answer],
    params: ModelParameters,
    local_iterations: int = 2,
) -> ModelParameters:
    """The paper's localized update (Section III-D) for one micro-batch.

    ``answers`` must already contain ``new_answers``; the affected
    neighbourhood is gathered through its per-worker/per-task indexes and
    swept ``local_iterations`` times starting from ``params``.
    """
    affected_workers = {answer.worker_id for answer in new_answers}
    affected_tasks = {answer.task_id for answer in new_answers}
    records = build_records(
        model, AnswerSet(relevant_answers(answers, affected_workers, affected_tasks))
    )
    for _ in range(local_iterations):
        params = local_maximisation(
            records, params, affected_workers, affected_tasks, model.config.function_set
        )
    return params
