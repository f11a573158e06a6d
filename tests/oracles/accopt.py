"""Scalar accuracy estimation (Section IV-B) and the scalar AccOpt greedy.

Section IV-B of the paper derives how the inference accuracy of a label
``l_{t,k}`` changes when the task is assigned to additional workers:

* ``Acc_{t,k}`` (Equation 15) is ``P(z = 1)`` if the label is truly correct and
  ``P(z = 0)`` otherwise — since the truth is unknown, both branches are carried
  around as a pair;
* assigning the task to a single new worker ``w`` with estimated answer
  accuracy ``P(z = r_w)`` changes the pair according to Equation 18;
* Lemma 1 shows the result is independent of the order in which workers answer,
  and Lemma 2 turns the exponential enumeration over answer combinations into a
  linear-time recursion;
* the expected accuracy improvement ΔAcc (Equation 20) weights the two branches
  by the current ``P(z)``.

:class:`LabelAccuracy` is the per-label pair with its recursion,
:class:`AccuracyEstimator` wires it to the model parameters, the answer set and
the distance model, and :func:`assign_accopt` drives both through Algorithm 1
with a lazy max-heap.  Together they are the one-label-at-a-time specification
the batched kernels of :mod:`repro.core.accuracy_kernel` and the dense/sparse
:class:`~repro.assign.accopt.AccOptAssigner` engines are tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from repro.core.assignment import TaskAssigner
from repro.core.params import ModelParameters
from repro.data.models import AnswerSet, Task, Worker
from repro.spatial.distance import DistanceModel


@dataclass(frozen=True)
class LabelAccuracy:
    """The accuracy pair of one label under both truth hypotheses.

    Attributes
    ----------
    p_z1:
        The current inference ``P(z_{t,k} = 1)``; stays fixed while hypothetical
        workers are added (it is the weight used by ΔAcc, Equation 20).
    acc_if_correct:
        Expected accuracy if the label is truly correct (``z ≡ 1``).
    acc_if_incorrect:
        Expected accuracy if the label is truly incorrect (``z ≡ 0``).
    effective_answers:
        ``|W(t)| + |Ŵ(t)|`` — real answers plus hypothetical workers added so far.
    """

    p_z1: float
    acc_if_correct: float
    acc_if_incorrect: float
    effective_answers: int

    @classmethod
    def from_current_inference(cls, p_z1: float, answer_count: int) -> "LabelAccuracy":
        """The baseline pair before any hypothetical assignment (Equation 15)."""
        if not 0.0 <= p_z1 <= 1.0:
            raise ValueError(f"p_z1 must be in [0, 1], got {p_z1}")
        if answer_count < 0:
            raise ValueError(f"answer_count must be non-negative, got {answer_count}")
        return cls(
            p_z1=p_z1,
            acc_if_correct=p_z1,
            acc_if_incorrect=1.0 - p_z1,
            effective_answers=answer_count,
        )

    def add_worker(self, answer_accuracy: float) -> "LabelAccuracy":
        """Apply Lemma 2's recursion for one additional worker.

        ``answer_accuracy`` is the estimated ``P(z = r_w)`` of the new worker on
        this task (Equation 9).
        """
        if not 0.0 <= answer_accuracy <= 1.0:
            raise ValueError(
                f"answer_accuracy must be in [0, 1], got {answer_accuracy}"
            )
        m = self.effective_answers
        pe = answer_accuracy
        new_correct = (
            (m * self.acc_if_correct + pe) / (m + 1) * pe
            + (m * self.acc_if_correct + (1.0 - pe)) / (m + 1) * (1.0 - pe)
        )
        new_incorrect = (
            (m * self.acc_if_incorrect + pe) / (m + 1) * pe
            + (m * self.acc_if_incorrect + (1.0 - pe)) / (m + 1) * (1.0 - pe)
        )
        return LabelAccuracy(
            p_z1=self.p_z1,
            acc_if_correct=new_correct,
            acc_if_incorrect=new_incorrect,
            effective_answers=m + 1,
        )

    def add_workers(self, answer_accuracies: Sequence[float]) -> "LabelAccuracy":
        """Apply the recursion for several additional workers (order irrelevant)."""
        state = self
        for accuracy in answer_accuracies:
            state = state.add_worker(accuracy)
        return state

    def expected_improvement_over(self, baseline: "LabelAccuracy") -> float:
        """ΔAcc relative to ``baseline`` (Equation 20)."""
        return self.p_z1 * (self.acc_if_correct - baseline.acc_if_correct) + (
            1.0 - self.p_z1
        ) * (self.acc_if_incorrect - baseline.acc_if_incorrect)

    @property
    def expected_accuracy(self) -> float:
        """The truth-weighted expected accuracy ``P(z=1)·Acc₁ + P(z=0)·Acc₀``."""
        return self.p_z1 * self.acc_if_correct + (1.0 - self.p_z1) * self.acc_if_incorrect


def enumerate_expected_accuracy(
    p_z1: float, answer_count: int, answer_accuracies: Sequence[float]
) -> LabelAccuracy:
    """Exponential-time computation of ``Acc_{t,k}(Ŵ(t))`` from its definition.

    Enumerates every combination of agree/disagree answers from the
    hypothetical workers, exactly as the definition preceding Lemma 2 requires.
    """
    baseline = LabelAccuracy.from_current_inference(p_z1, answer_count)
    n = len(answer_accuracies)
    if n == 0:
        return baseline

    total_correct = 0.0
    total_incorrect = 0.0
    for agreement in product((True, False), repeat=n):
        probability = 1.0
        contribution = 0.0
        for agrees, pe in zip(agreement, answer_accuracies):
            probability *= pe if agrees else (1.0 - pe)
            contribution += pe if agrees else (1.0 - pe)
        posterior_correct = (
            answer_count * baseline.acc_if_correct + contribution
        ) / (answer_count + n)
        posterior_incorrect = (
            answer_count * baseline.acc_if_incorrect + contribution
        ) / (answer_count + n)
        total_correct += probability * posterior_correct
        total_incorrect += probability * posterior_incorrect

    return LabelAccuracy(
        p_z1=p_z1,
        acc_if_correct=total_correct,
        acc_if_incorrect=total_incorrect,
        effective_answers=answer_count + n,
    )


class AccuracyEstimator:
    """Estimates answer accuracies and assignment gains from the current model.

    Combines the estimated :class:`~repro.core.params.ModelParameters`, the
    answer set (for ``|W(t)|``) and the distance model.  The paper's footnote 3
    is honoured through :class:`ModelParameters`: unseen workers and tasks get
    optimistic priors so they are explored early.
    """

    def __init__(
        self,
        tasks: dict[str, Task],
        workers: dict[str, Worker],
        distance_model: DistanceModel,
        parameters: ModelParameters,
        answers: AnswerSet,
    ) -> None:
        self._tasks = tasks
        self._workers = workers
        self._distance_model = distance_model
        self._parameters = parameters
        self._answers = answers

    @property
    def parameters(self) -> ModelParameters:
        return self._parameters

    def answer_accuracy(self, worker_id: str, task_id: str) -> float:
        """Estimated ``P(z = r)`` of ``worker_id`` on ``task_id`` (Equation 9)."""
        task = self._tasks[task_id]
        worker = self._workers[worker_id]
        distance = self._distance_model.worker_task_distance(
            worker.locations, task.location
        )
        return self._parameters.answer_accuracy(worker_id, task_id, distance)

    def current_label_accuracies(self, task_id: str) -> list[LabelAccuracy]:
        """Baseline accuracy pairs for every label of ``task_id``."""
        task = self._tasks[task_id]
        params = self._parameters.task(task_id, num_labels=task.num_labels)
        answer_count = self._answers.answer_count_of_task(task_id)
        return [
            LabelAccuracy.from_current_inference(float(p), answer_count)
            for p in params.label_probs
        ]

    def task_improvement(
        self,
        task_id: str,
        worker_id: str,
        current_states: Sequence[LabelAccuracy] | None = None,
        baselines: Sequence[LabelAccuracy] | None = None,
    ) -> tuple[float, list[LabelAccuracy]]:
        """Expected total ΔAcc of assigning ``task_id`` to ``worker_id``.

        ``current_states`` carries the accuracy pairs already reflecting other
        workers tentatively assigned to the task this round (the greedy
        algorithm's ``Ŵ(t)``); ``baselines`` are the pre-round pairs used as the
        reference point of the improvement.  Returns the summed improvement over
        the task's labels and the new per-label states.
        """
        if current_states is None:
            current_states = self.current_label_accuracies(task_id)
            if baselines is None:
                # Neither side supplied: the current state IS the baseline, so
                # share the pairs instead of recomputing them (LabelAccuracy is
                # frozen, making the aliasing safe).
                baselines = current_states
        elif baselines is None:
            baselines = self.current_label_accuracies(task_id)
        answer_accuracy = self.answer_accuracy(worker_id, task_id)
        new_states = [state.add_worker(answer_accuracy) for state in current_states]
        improvement = sum(
            new.expected_improvement_over(base)
            for new, base in zip(new_states, baselines)
        )
        return improvement, new_states


def assign_accopt(
    tasks: dict[str, Task],
    workers: dict[str, Worker],
    distance_model: DistanceModel,
    parameters: ModelParameters,
    available_workers: Sequence[str],
    h: int,
    answers: AnswerSet,
) -> dict[str, list[str]]:
    """Algorithm 1 one pair at a time: per-label recursion plus a lazy max-heap."""
    estimator = AccuracyEstimator(tasks, workers, distance_model, parameters, answers)
    assignment: dict[str, list[str]] = {w: [] for w in available_workers}

    # Per-task baseline accuracy pairs (Equation 15) and the evolving state
    # reflecting the workers tentatively assigned this round (Ŵ(t)).
    baselines: dict[str, list[LabelAccuracy]] = {}
    current_states: dict[str, list[LabelAccuracy]] = {}
    # Cache of estimated answer accuracies P(z = r_w) per (worker, task).
    answer_accuracy: dict[tuple[str, str], float] = {}

    def states_for(task_id: str) -> list[LabelAccuracy]:
        if task_id not in baselines:
            base = estimator.current_label_accuracies(task_id)
            baselines[task_id] = base
            current_states[task_id] = list(base)
        return current_states[task_id]

    def improvement_for(worker_id: str, task_id: str) -> tuple[float, list[LabelAccuracy]]:
        key = (worker_id, task_id)
        if key not in answer_accuracy:
            answer_accuracy[key] = estimator.answer_accuracy(worker_id, task_id)
        states = states_for(task_id)
        new_states = [state.add_worker(answer_accuracy[key]) for state in states]
        gain = sum(
            new.expected_improvement_over(base)
            for new, base in zip(new_states, baselines[task_id])
        )
        # Subtract the gain already banked by previously selected workers so
        # the heap ranks *marginal* improvements, as line 19 of Algorithm 1.
        already = sum(
            state.expected_improvement_over(base)
            for state, base in zip(states, baselines[task_id])
        )
        return gain - already, new_states

    # Candidate tasks per worker (tasks not yet answered by that worker).
    candidates: dict[str, set[str]] = {
        worker_id: set(tasks) - answers.tasks_of_worker(worker_id)
        for worker_id in available_workers
    }

    # Max-heap of (-marginal_gain, version, worker, task).  Whenever a task
    # receives a new tentative worker its version bumps, the task is eagerly
    # re-scored for every remaining worker (Algorithm 1's incremental
    # re-score), and entries carrying an old version are discarded on pop.  The
    # re-score must be eager: a pick can *increase* other workers' marginal
    # gains on the same task (a negative gain shrinks in magnitude as ``m_t``
    # grows), so a lazy heap would commit an in-between pair and miss the true
    # greedy maximum.
    task_version: dict[str, int] = {}
    heap: list[tuple[float, int, str, str]] = []

    def push(worker_id: str, task_id: str) -> None:
        gain, _ = improvement_for(worker_id, task_id)
        heapq.heappush(heap, (-gain, task_version.get(task_id, 0), worker_id, task_id))

    for worker_id in available_workers:
        for task_id in candidates[worker_id]:
            push(worker_id, task_id)

    remaining_capacity = {worker_id: h for worker_id in available_workers}
    total_to_assign = sum(
        min(h, len(candidates[worker_id])) for worker_id in available_workers
    )
    assigned_total = 0
    while assigned_total < total_to_assign and heap:
        _, version, worker_id, task_id = heapq.heappop(heap)
        if remaining_capacity[worker_id] <= 0:
            continue
        if task_id not in candidates[worker_id]:
            continue
        if version != task_version.get(task_id, 0):
            continue  # superseded by the eager re-score below

        _, new_states = improvement_for(worker_id, task_id)
        current_states[task_id] = new_states
        task_version[task_id] = task_version.get(task_id, 0) + 1
        assignment[worker_id].append(task_id)
        candidates[worker_id].discard(task_id)
        remaining_capacity[worker_id] -= 1
        assigned_total += 1

        # Re-score the chosen task for every worker that can still take it.
        for other_id in available_workers:
            if remaining_capacity[other_id] > 0 and task_id in candidates[other_id]:
                push(other_id, task_id)

    return assignment


class ScalarAccOptAssigner(TaskAssigner):
    """:func:`assign_accopt` behind the :class:`TaskAssigner` contract.

    Lets the oracle run wherever an assigner is expected (the framework loop,
    the assigner contract tests), with the same request validation and
    quarantine exclusion as the production engines.
    """

    def __init__(
        self,
        tasks: list[Task],
        workers: list[Worker],
        distance_model: DistanceModel,
        parameters: ModelParameters | None = None,
    ) -> None:
        super().__init__(tasks, workers)
        self._distance_model = distance_model
        self._parameters = parameters or ModelParameters()

    def update_parameters(self, parameters: ModelParameters) -> None:
        self._parameters = parameters

    def assign(
        self, available_workers: Sequence[str], h: int, answers: AnswerSet
    ) -> dict[str, list[str]]:
        self._validate_request(available_workers, h)
        workers = self._assignable_workers(available_workers)
        assignment: dict[str, list[str]] = {}
        if workers:
            assignment = assign_accopt(
                self._tasks,
                self._workers,
                self._distance_model,
                self._parameters,
                workers,
                h,
                answers,
            )
        for worker_id in available_workers:
            assignment.setdefault(worker_id, [])
        return assignment
