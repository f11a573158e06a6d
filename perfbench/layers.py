"""Span recording around the program's public layer entry points.

Tracing is installed only for a ``--trace 1`` run.  :func:`installed` wraps
each entry point named in :data:`SHIMS` where its callers look it up (a
method on its class, or a module-level function in the module that calls it)
and restores the originals on exit.  Nothing under ``src/`` is modified.

A span records its name, start, end, parent span and thread.  A layer's
*self* time is its span's duration minus the time its direct child spans
cover.  A span re-entering a layer that is already open on the same thread
(``candidate_pairs`` calling ``items_within_many``) folds into the outer span
instead of counting twice.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: ``(layer, module, attribute)`` — the attribute is ``Class.method`` or a
#: module-level function.  Several entry points may share one layer name.
SHIMS: tuple[tuple[str, str, str], ...] = (
    ("ingest.submit", "repro.serving.ingest", "AnswerIngestor.submit"),
    ("ingest.flush", "repro.serving.ingest", "AnswerIngestor.flush"),
    ("ingest.refresh_wait", "repro.serving.pipeline", "RefreshWorker.wait"),
    ("pipeline.fit", "repro.core.inference", "LocationAwareInference.run_em_detached"),
    ("inference.refresh", "repro.core.inference", "LocationAwareInference.run_em"),
    ("em_kernel.em_step", "repro.core.em_kernel", "em_step"),
    ("em_kernel.append", "repro.core.em_kernel", "AnswerTensor.append_answers"),
    ("em_kernel.fold", "repro.core.em_kernel", "SufficientStatCache.fold"),
    ("em_kernel.sweep", "repro.core.em_kernel", "localized_sweeps"),
    ("em_kernel.sweep", "repro.core.em_kernel", "cached_sweeps"),
    ("incremental.apply", "repro.core.incremental", "IncrementalUpdater.apply"),
    ("incremental.full_refresh", "repro.core.incremental", "IncrementalUpdater.full_refresh"),
    ("incremental.capture", "repro.core.incremental", "IncrementalUpdater.capture_refresh_state"),
    ("incremental.integrate", "repro.core.incremental", "IncrementalUpdater.integrate_refresh_result"),
    ("snapshots.publish", "repro.core.incremental", "IncrementalUpdater.collect_publish_delta"),
    ("snapshots.publish", "repro.core.incremental", "IncrementalUpdater.publish_store"),
    ("snapshots.publish", "repro.serving.snapshots", "SnapshotStore.publish"),
    ("snapshots.publish", "repro.serving.snapshots", "SnapshotStore.publish_delta"),
    ("snapshots.as_model", "repro.serving.snapshots", "ParameterSnapshot.as_model"),
    ("snapshots.checkpoint", "repro.serving.snapshots", "CheckpointManager.save"),
    ("frontend.assign", "repro.serving.frontend", "AssignmentFrontend.assign"),
    ("accopt.update_parameters", "repro.assign.accopt", "AccOptAssigner.update_parameters"),
    ("accopt.assign", "repro.assign.accopt", "AccOptAssigner.assign"),
    ("accuracy_kernel.accuracy", "repro.core.accuracy_kernel", "answer_accuracy_matrix"),
    ("accuracy_kernel.accuracy", "repro.core.accuracy_kernel", "answer_accuracy_csr"),
    ("accuracy_kernel.gain", "repro.core.accuracy_kernel", "marginal_gains"),
    ("accuracy_kernel.gain", "repro.core.accuracy_kernel", "marginal_gains_csr"),
    ("accuracy_kernel.gain", "repro.core.accuracy_kernel", "marginal_gains_for_task"),
    ("accuracy_kernel.gain", "repro.core.accuracy_kernel", "far_field_gains"),
    ("journal.append", "repro.serving.journal", "AnswerJournal.append"),
    ("guard.admit", "repro.serving.guard", "EventGuard.admit"),
    ("guard.trust", "repro.serving.ingest", "trust_scores"),
    ("guard.reputation", "repro.serving.guard", "ReputationTracker.evaluate"),
    ("spatial.candidate_build", "repro.spatial.candidates", "CandidateIndex.__init__"),
    ("spatial.query", "repro.spatial.grid_index", "GridIndex.items_within_many"),
    ("spatial.query", "repro.spatial.grid_index", "GridIndex.candidate_pairs"),
    ("spatial.diameter", "repro.spatial.distance", "max_pairwise_distance"),
    ("accopt.build", "repro.assign.accopt", "AccOptAssigner.__init__"),
)

#: Rows of work per call, read off the call's arguments (``args[0]`` is self).
WORK = {
    "em_kernel.append": lambda args, kwargs: len(args[1] if len(args) > 1 else kwargs["answers"]),
    "em_kernel.fold": lambda args, kwargs: len(args[1] if len(args) > 1 else kwargs["answer_rows"]),
}


@dataclass
class LayerTotals:
    """Aggregate of every span of one layer."""

    calls: int = 0
    work: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    main_self_s: float = 0.0


@dataclass
class _Frame:
    name: str
    index: int
    child_s: float = 0.0


@dataclass
class Recorder:
    """In-memory span store shared by every shim of one traced run.

    ``spans`` holds ``(index, name, start, end, parent, thread, self_s)``
    tuples in the order spans close; ``index`` numbers spans in the order
    they open and ``parent`` is the index of the enclosing span (``-1`` at
    top level).  ``totals`` aggregates every span; :meth:`in_windows`
    aggregates the spans of the timed windows only.
    """

    main_thread: int = field(default_factory=threading.get_ident)
    spans: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    results: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _next_index: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span of ``name`` around the ``with`` body."""
        stack = self._stack()
        if any(frame.name == name for frame in stack):
            yield
            return
        with self._lock:
            index = self._next_index
            self._next_index += 1
        parent = stack[-1].index if stack else -1
        frame = _Frame(name, index)
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self_s = duration - frame.child_s
            if stack:
                stack[-1].child_s += duration
            thread = threading.get_ident()
            with self._lock:
                self.spans.append((index, name, start, end, parent, thread, self_s))
                _add(self.totals, name, duration, self_s, thread == self.main_thread)

    def wrap(self, name: str, function):
        recorder = self
        work = WORK.get(name)

        @functools.wraps(function)
        def shim(*args, **kwargs):
            with recorder.span(name):
                result = function(*args, **kwargs)
            if work is not None:
                with recorder._lock:
                    recorder.totals.setdefault(name, LayerTotals()).work += work(args, kwargs)
            if name in ("inference.refresh", "pipeline.fit"):
                recorder.results.append(result)
            return result

        return shim

    def in_windows(self, windows) -> dict:
        """Per-layer totals of the spans that began inside ``windows``."""
        rows: dict = {}
        for _, name, s, e, _, thread, self_s in self.spans:
            if any(start <= s < end for start, end in windows):
                _add(rows, name, e - s, self_s, thread == self.main_thread)
        return rows

    def covered_seconds(self, start: float, end: float) -> float:
        """Main-thread time inside top-level spans that began in ``[start, end)``.

        Equal to the sum of the self times of every main-thread span in the
        window, since a span's duration is its self time plus its children's.
        """
        return sum(
            min(e, end) - s
            for _, _, s, e, parent, thread, _ in self.spans
            if thread == self.main_thread and parent == -1 and start <= s < end
        )


def _add(rows: dict, name: str, duration: float, self_s: float, main: bool) -> None:
    totals = rows.setdefault(name, LayerTotals())
    totals.calls += 1
    totals.total_s += duration
    totals.self_s += self_s
    if main:
        totals.main_self_s += self_s


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def installed(recorder: Recorder):
    """Install every shim of :data:`SHIMS` for the ``with`` body."""
    originals = []
    try:
        for layer, module_name, attribute in SHIMS:
            owner, leaf = _resolve(module_name, attribute)
            original = owner.__dict__[leaf]
            originals.append((owner, leaf, original))
            setattr(owner, leaf, recorder.wrap(layer, original))
        yield recorder
    finally:
        for owner, leaf, original in reversed(originals):
            setattr(owner, leaf, original)
