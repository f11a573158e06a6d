"""The fused E-step: per-answer reductions, one weighted M-step, bounded memory.

The equivalence of the EM kernels with the per-record oracle lives in
``tests/test_em_equivalence.py``.  This module pins what the fused form adds:

* unit answer weights reproduce the unweighted step bit for bit, and an
  integer weight is the same evidence as that many copies of the answer;
* no ``(M, |F|)`` block (label responses × distance functions) is allocated
  by :func:`em_step`, the :class:`SufficientStatCache` build or a fold —
  their transient memory stays below one such float64 block.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.distance_functions import DistanceFunctionSet
from repro.core.em_kernel import AnswerTensor, SufficientStatCache, em_step
from repro.core.params import ArrayParameterStore


def synthetic_problem(
    num_workers: int = 50,
    num_tasks: int = 200,
    answers_per_task: int = 10,
    labels_per_task: int = 10,
    num_functions: int = 16,
    seed: int = 7,
    repeat_rows: np.ndarray | None = None,
) -> tuple[AnswerTensor, ArrayParameterStore]:
    """A random tensor (every task has the same label count) and a store.

    ``repeat_rows`` (one count per answer row) replicates answer rows in
    place, so a row repeated ``k`` times is ``k`` independent copies of the
    same evidence.
    """
    rng = np.random.default_rng(seed)
    a_task = np.repeat(np.arange(num_tasks, dtype=np.intp), answers_per_task)
    a_worker = np.concatenate(
        [
            rng.choice(num_workers, size=answers_per_task, replace=False)
            for _ in range(num_tasks)
        ]
    ).astype(np.intp)
    num_answers = a_task.size
    distances = rng.uniform(0.0, 1.0, size=num_answers)
    responses = rng.integers(0, 2, size=num_answers * labels_per_task).astype(float)
    if repeat_rows is not None:
        a_task = np.repeat(a_task, repeat_rows)
        a_worker = np.repeat(a_worker, repeat_rows)
        distances = np.repeat(distances, repeat_rows)
        responses = np.repeat(
            responses.reshape(num_answers, labels_per_task), repeat_rows, axis=0
        ).ravel()
        num_answers = a_task.size
    function_set = DistanceFunctionSet(np.geomspace(0.1, 100.0, num_functions))
    num_labels = np.full(num_tasks, labels_per_task, dtype=np.intp)
    label_offsets = np.concatenate(([0], np.cumsum(num_labels)))
    r_answer = np.repeat(np.arange(num_answers, dtype=np.intp), labels_per_task)
    within = np.tile(np.arange(labels_per_task, dtype=np.intp), num_answers)
    tensor = AnswerTensor(
        worker_ids=[f"w{i}" for i in range(num_workers)],
        task_ids=[f"t{j}" for j in range(num_tasks)],
        num_labels=num_labels,
        label_offsets=label_offsets,
        a_worker=a_worker,
        a_task=a_task,
        distances=distances,
        f_values=function_set.evaluate_many(distances),
        r_answer=r_answer,
        r_worker=a_worker[r_answer],
        r_label=label_offsets[a_task[r_answer]] + within,
        responses=responses,
        task_of_label=np.repeat(np.arange(num_tasks, dtype=np.intp), num_labels),
    )
    ones = np.ones(num_functions)
    store = ArrayParameterStore(
        function_set=function_set,
        alpha=0.5,
        worker_ids=tensor.worker_ids,
        task_ids=tensor.task_ids,
        label_offsets=label_offsets,
        p_qualified=rng.uniform(0.3, 0.95, size=num_workers),
        distance_weights=rng.dirichlet(ones, size=num_workers),
        influence_weights=rng.dirichlet(ones, size=num_tasks),
        label_probs=rng.uniform(0.05, 0.95, size=int(label_offsets[-1])),
    )
    return tensor, store


class TestWeightedStep:
    def test_unit_weights_equal_unweighted_bit_for_bit(self):
        tensor, store = synthetic_problem(num_functions=3)
        for _ in range(3):
            plain, plain_ll = em_step(tensor, store)
            unit, unit_ll = em_step(tensor, store, np.ones(tensor.num_answers))
            assert plain.max_difference(unit) == 0.0
            assert plain_ll == unit_ll
            store = plain

    def test_integer_weight_equals_repeated_answer(self):
        base, store = synthetic_problem(num_functions=3, num_tasks=40)
        counts = np.random.default_rng(3).integers(1, 4, size=base.num_answers)
        repeated, _ = synthetic_problem(
            num_functions=3, num_tasks=40, repeat_rows=counts
        )
        weighted, weighted_ll = em_step(base, store, counts.astype(float))
        copied, copied_ll = em_step(repeated, store)
        assert weighted.max_difference(copied) <= 1e-12
        assert weighted_ll == pytest.approx(copied_ll, rel=1e-12)

    def test_weight_shape_validated(self):
        tensor, store = synthetic_problem(num_functions=3, num_tasks=20)
        with pytest.raises(ValueError):
            em_step(tensor, store, np.ones(tensor.num_answers + 1))


def _transient_bytes(call) -> int:
    """Peak bytes allocated while ``call()`` runs (its result included)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - base


class TestNoLabelByFunctionBlocks:
    """Memory of the fused kernels stays below one (M, |F|) float64 block.

    Ten labels per answer and sixteen distance functions: one (M, |F|) block
    is then several times the handful of (M,) scalar buffers and (N, |F|)
    answer rows the fused kernels need, so a kernel that forms any
    per-label-response F-wide array fails the bound.
    """

    @pytest.fixture(scope="class")
    def problem(self):
        tensor, store = synthetic_problem()
        em_step(tensor, store)  # warm any lazily built caches
        return tensor, store

    @staticmethod
    def _block_bytes(tensor, store) -> int:
        return tensor.num_label_responses * len(store.function_set) * 8

    def test_em_step(self, problem):
        tensor, store = problem
        used = _transient_bytes(lambda: em_step(tensor, store))
        assert used < self._block_bytes(tensor, store)

    def test_cache_build(self, problem):
        tensor, store = problem
        used = _transient_bytes(lambda: SufficientStatCache(tensor, store))
        assert used < self._block_bytes(tensor, store)

    def test_cache_fold_of_every_row(self, problem):
        tensor, store = problem
        cache = SufficientStatCache(tensor, store, decay=0.9)
        rows = np.arange(tensor.num_answers, dtype=np.intp)
        used = _transient_bytes(lambda: cache.fold(rows))
        assert used < self._block_bytes(tensor, store)
