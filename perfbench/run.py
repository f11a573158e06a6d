"""Benchmark of the serving stack: three seeded workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload stream-20k --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/spec.json`` for why each was chosen and which
layers it should and should not move):

``stream-20k``       closed-loop replay of the 20k-answer corpus through the
                     pipelined ``AnswerIngestor``;
``hostile-durable``  open-loop campaign on the ``spam`` scenario with the
                     journal, checkpoints, guard and reputation on;
``offline-sparse``   cold sparse EM fit to convergence plus sparse AccOpt
                     requests on a 10^4 x 10^4 universe.

``--trace 0`` measures with tracing off and prints every end-to-end metric.
``--trace 1`` runs the workload twice on the same inputs, for half the
seconds each: untraced, then with timing shims around each layer's public
entry points.  It prints a per-layer table, the trace coverage and the
tracing overhead (traced minus untraced end-to-end numbers), and ends with
every per-layer metric.  ``--smoke`` runs tiny inputs.

Every run checks the program's outputs after its timed windows.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON record of the run
(machine fingerprint, seed, every repetition, every workload metric).  A run
whose checks fail reports no metrics and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream-20k", "hostile-durable", "offline-sparse")

#: Scratch state (journal and checkpoints) lives inside the checkout.
STATE_DIR = ROOT / ".perfbench_state"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    return parser.parse_args(argv)


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(ROOT),
    }


def _measure(workload: str, inputs, seconds: float, recorder=None):
    import workloads as w

    if workload == "stream-20k":
        return w.measure_stream(inputs, seconds, recorder)
    if workload == "offline-sparse":
        return w.measure_sparse(inputs, seconds, recorder)
    return w.measure_hostile(inputs, seconds, STATE_DIR, recorder)


def _generate(workload: str, seed: int, size: dict):
    import workloads as w

    return {
        "stream-20k": w.generate_stream,
        "hostile-durable": w.generate_hostile,
        "offline-sparse": w.generate_sparse,
    }[workload](seed, size)


def _layer_metrics(recorder, result) -> dict:
    """The per-layer metrics of one traced run, by ``<module>.<metric>``."""
    totals = recorder.totals
    counters = result.counters

    def calls(layer):
        return totals[layer].calls if layer in totals else 0

    def seconds(layer):
        return totals[layer].total_s if layer in totals else 0.0

    def work(layer):
        return totals[layer].work if layer in totals else 0

    refreshes = recorder.results
    fit_busy = seconds("pipeline.fit")
    refresh_wait = counters.get("ingest.refresh_wait_s", 0.0)
    kept = counters.get("spatial.pairs_kept", 0)
    pruned = counters.get("spatial.pairs_pruned", 0)
    window = sum(end - start for start, end in result.windows)
    covered = sum(recorder.covered_seconds(start, end) for start, end in result.windows)
    metrics = {
        "em_kernel.em_step_calls": (calls("em_kernel.em_step"), "count"),
        "em_kernel.em_step_s": (seconds("em_kernel.em_step"), "s"),
        "inference.refresh_calls": (calls("inference.refresh") + calls("pipeline.fit"), "count"),
        "inference.refresh_s": (seconds("inference.refresh") + fit_busy, "s"),
        "inference.refresh_iterations": (sum(r.iterations for r in refreshes), "count"),
        "inference.refresh_converged_frac": (
            sum(r.converged for r in refreshes) / len(refreshes) if refreshes else 0.0,
            "fraction",
        ),
        "em_kernel.append_rows": (work("em_kernel.append"), "count"),
        "em_kernel.append_s": (seconds("em_kernel.append"), "s"),
        "em_kernel.fold_rows": (work("em_kernel.fold"), "count"),
        "em_kernel.fold_s": (seconds("em_kernel.fold"), "s"),
        "em_kernel.sweep_calls": (calls("em_kernel.sweep"), "count"),
        "em_kernel.sweep_s": (seconds("em_kernel.sweep"), "s"),
        "incremental.apply_calls": (calls("incremental.apply"), "count"),
        "incremental.apply_s": (seconds("incremental.apply"), "s"),
        "ingest.submit_calls": (calls("ingest.submit"), "count"),
        "ingest.batches": (counters.get("ingest.batches", 0), "count"),
        "ingest.batches_dropped": (counters.get("ingest.batches_dropped", 0), "count"),
        "ingest.retries": (counters.get("ingest.retries", 0), "count"),
        "ingest.refresh_wait_s": (refresh_wait, "s"),
        "pipeline.fit_busy_s": (fit_busy, "s"),
        "pipeline.overlap_frac": (
            max(0.0, 1.0 - refresh_wait / fit_busy) if fit_busy > 0 else 0.0,
            "fraction",
        ),
        "snapshots.publish_full": (counters.get("snapshots.publish_full", 0), "count"),
        "snapshots.publish_delta": (counters.get("snapshots.publish_delta", 0), "count"),
        "snapshots.publish_s": (seconds("snapshots.publish"), "s"),
        "snapshots.as_model_calls": (calls("snapshots.as_model"), "count"),
        "snapshots.as_model_s": (seconds("snapshots.as_model"), "s"),
        "frontend.assign_calls": (calls("frontend.assign"), "count"),
        "frontend.assign_s": (seconds("frontend.assign"), "s"),
        "frontend.param_refreshes": (counters.get("frontend.param_refreshes", 0), "count"),
        "frontend.blocked": (counters.get("frontend.blocked", 0), "count"),
        "accopt.assign_calls": (calls("accopt.assign"), "count"),
        "accopt.assign_s": (seconds("accopt.assign"), "s"),
        "accuracy_kernel.gain_calls": (calls("accuracy_kernel.gain"), "count"),
        "accuracy_kernel.gain_s": (seconds("accuracy_kernel.gain"), "s"),
        "journal.appends": (counters.get("journal.appends", 0), "count"),
        "journal.append_s": (seconds("journal.append"), "s"),
        "snapshots.checkpoint_calls": (calls("snapshots.checkpoint"), "count"),
        "snapshots.checkpoint_s": (seconds("snapshots.checkpoint"), "s"),
        "guard.admit_s": (seconds("guard.admit"), "s"),
        "guard.rejected": (counters.get("guard.rejected", 0), "count"),
        "guard.trust_calls": (calls("guard.trust"), "count"),
        "guard.trust_s": (seconds("guard.trust"), "s"),
        "guard.transitions": (counters.get("guard.transitions", 0), "count"),
        "spatial.candidate_build_s": (seconds("spatial.candidate_build"), "s"),
        "spatial.query_calls": (calls("spatial.query"), "count"),
        "spatial.query_s": (seconds("spatial.query"), "s"),
        "spatial.pairs_kept": (kept, "count"),
        "spatial.kept_frac": (kept / (kept + pruned) if kept + pruned else 0.0, "fraction"),
        "crowd.generate_s": (seconds("crowd.generate"), "s"),
        "driver.idle_s": (seconds("driver.idle"), "s"),
        "driver.late_p99_ms": (counters.get("driver.late_p99_ms", 0.0), "ms"),
        "trace.coverage_frac": (covered / window if window > 0 else 0.0, "fraction"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _layer_table(recorder, result) -> str:
    """Self time per layer inside the timed windows, main thread first.

    Spans outside the windows (program construction, checks) are left out
    here but counted in the per-layer metrics.
    """
    window = sum(end - start for start, end in result.windows)
    lines = [
        f"{'layer':<28}{'calls':>9}{'total_s':>11}{'self_s':>11}{'main_self_s':>13}{'of wall':>9}"
    ]
    rows = sorted(
        recorder.in_windows(result.windows).items(), key=lambda item: -item[1].main_self_s
    )
    for name, t in rows:
        share = t.main_self_s / window if window > 0 else 0.0
        lines.append(
            f"{name:<28}{t.calls:>9}{t.total_s:>11.4f}{t.self_s:>11.4f}"
            f"{t.main_self_s:>13.4f}{share:>8.1%}"
        )
    covered = sum(recorder.covered_seconds(start, end) for start, end in result.windows)
    lines.append(
        f"timed wall {window:.3f} s; main-thread layer self time {covered:.3f} s "
        f"({covered / window if window else 0.0:.1%}); background rows are the refresh thread"
    )
    return "\n".join(lines)


def _report(result, fingerprint, args, extra=None) -> dict:
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "fingerprint": fingerprint,
        "metrics": result.metrics,
        "workload_metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result.named.items()
        },
        "repetitions": result.repetitions,
        "problems": result.problems,
    }
    if extra:
        record.update(extra)
    return record


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not (
        ROOT / "benchmarks" / "bench_common.py"
    ).is_file():
        print(f"perfbench: no program sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "benchmarks")]
    import layers
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in declared["end_to_end"]}
    size = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
    fingerprint = _fingerprint()
    inputs = _generate(args.workload, args.seed, size)
    try:
        if args.trace:
            untraced = _measure(args.workload, inputs, args.seconds / 2)
            recorder = layers.Recorder()
            result = _measure(args.workload, inputs, args.seconds / 2, recorder)
            result.problems += untraced.problems
            result.attempted += untraced.attempted
            result.failed += untraced.failed
            # Peak RSS is cumulative over the process both halves share.
            overhead = {
                name: result.metrics[name] - untraced.metrics[name]
                for name in untraced.metrics
                if name != "peak_rss_mb"
            }
            metrics = _layer_metrics(recorder, result)
            print(_layer_table(recorder, result))
            print("tracing overhead (traced minus untraced):")
            for name, delta in overhead.items():
                base = untraced.metrics[name]
                share = delta / base if base else 0.0
                print(f"  {name:<18}{delta:>+14.4f} {units[name]:<10}({share:+.1%})")
            record = _report(
                result,
                fingerprint,
                args,
                {"untraced_metrics": untraced.metrics, "tracing_overhead": overhead},
            )
        else:
            result = _measure(args.workload, inputs, args.seconds)
            metrics = {
                name: {"value": value, "unit": units[name]}
                for name, value in result.metrics.items()
            }
            record = _report(result, fingerprint, args)
    finally:
        shutil.rmtree(STATE_DIR, ignore_errors=True)

    for name, (value, unit) in result.named.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<24}{shown:>16} {unit}")
    print(json.dumps(record, default=float))
    correct = not result.problems
    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed if correct else result.attempted,
                "metrics": metrics if correct else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
