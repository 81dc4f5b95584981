"""The repo benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload matrix_fixed --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans installed.
``--trace 1`` runs the same workload untraced, then again with spans
around each layer's public functions (installed from this directory;
the program is not edited), and reports the per-layer metrics and the
tracing overhead. ``--smoke`` shrinks every workload to a few seconds.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits 1 when any output is wrong and 2 when the program's
sources are missing. Workloads, metrics and predictions are described
in ``perfbench/plan.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: Set-up samples per run (matrix, serve); the median is reported. A
#: serve bring-up spawns two shard processes, so it gets fewer.
SETUP_SAMPLES = {"matrix": 5, "serve": 3}
TAIL_BEYOND = 10

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


def tail(latencies: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it, or the maximum (p100) below
    ``TAIL_BEYOND + 1`` samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup: List[float], latencies: List[float], ops_per_s: float,
               attempted: int, failed: int, degraded: int,
               rss_mb: float) -> Tuple[Dict[str, float], List[str]]:
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops_per_s,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_ms,
        "answered_share": 1.0 - failed / attempted,
        "exact_share": 1.0 - degraded / attempted,
        "peak_rss_mb": rss_mb,
    }
    notes = [
        f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup)}",
        f"latency_tail_ms is p{tail_pct:.1f} over {len(latencies)} samples "
        f"({min(TAIL_BEYOND, len(latencies) - 1)} beyond it)",
        f"failed_share = {failed / attempted:.4f} ({failed}/{attempted})",
        f"degraded_share = {degraded / attempted:.4f} "
        f"({degraded}/{attempted})",
    ]
    return metrics, notes


def layer_metrics(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; layers a workload never calls read 0."""
    from perfbench.plan import PER_LAYER

    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def run_matrix(args, env) -> Dict[str, Any]:
    from perfbench import matrix

    setup = matrix.measure_setup(str(ROOT), env, args.workload, args.seed,
                                 1 if args.smoke else SETUP_SAMPLES["matrix"],
                                 args.smoke)
    rows = matrix.build_rows(args.workload, args.seed, args.smoke)
    matrix.warm_up()
    run = matrix.run_passes(rows, matrix.pass_count(args.workload,
                                                     args.seconds))
    ops = run["ops"]
    problems = list(run["problems"])
    failed = sum(op.failed for op in ops)
    degraded = sum(op.degraded for op in ops)
    # Median of the per-pass rates: a short slow spell of the host moves
    # one pass, not the run's figure.
    ops_per_s = statistics.median(len(rows) / w for w in run["pass_walls"])
    metrics, notes = end_to_end(
        setup, [op.latency_s for op in ops], ops_per_s, len(ops), failed,
        degraded, matrix.peak_rss_mb())
    notes.append(f"{run['passes']} pass(es) over {len(rows)} rows in "
                 f"{run['wall_s']:.3f} s; ops_per_s is the median pass rate")
    out = {"metrics": metrics, "notes": notes, "attempted": len(ops),
           "failed": failed, "problems": problems}
    if args.trace:
        traced = matrix.traced_layers(rows, run["passes"])
        problems.extend(traced["run"]["problems"])
        values = dict(traced["metrics"])
        values["trace.overhead_s"] = traced["run"]["wall_s"] - run["wall_s"]
        values["trace.uncovered_s"] = traced["uncovered_s"]
        values["trace.ledger_gap_s"] = sum(
            abs(span_s - ledger_s)
            for _, _, ledger_s, span_s, _ in traced["gaps"])
        for phases, span, ledger_s, span_s, ok in traced["gaps"]:
            if not ok:
                problems.append(
                    f"traced span {span} ({span_s:.4f} s) does not match the "
                    f"result.timings ledger {phases} ({ledger_s:.4f} s)")
        out["layers"] = values
        out["tables"] = [_self_time_table(traced["tracer"], "synthesis"),
                         _ledger_table(traced["gaps"]),
                         _overhead_line(run["wall_s"],
                                        traced["run"]["wall_s"])]
    return out


def run_serve(args, work: Path) -> Dict[str, Any]:
    from perfbench import serve

    result = serve.run(args.workload, args.seed, args.seconds,
                       bool(args.trace),
                       1 if args.smoke else SETUP_SAMPLES["serve"], work)
    ops = result.ops
    terminal = sum(1 for op in ops if op.line is not None
                   and op.line.get("state") in ("done", "degraded",
                                                "failed"))
    metrics, notes = end_to_end(
        result.setup, [op.latency_s for op in ops], terminal / result.wall_s,
        len(ops), result.failed, result.degraded, result.peak_rss_mb)
    repeats = sum(op.job.repeat_of is not None for op in ops)
    notes.append(f"{terminal} terminal of {len(ops)} jobs "
                 f"({repeats} resubmissions) in {result.wall_s:.3f} s, "
                 f"{serve.CLIENTS} closed-loop clients, {serve.SHARDS} "
                 f"shards x {serve.WORKERS} worker")
    out = {"metrics": metrics, "notes": notes, "attempted": len(ops),
           "failed": result.failed, "problems": result.problems}
    if args.trace:
        values = dict(result.layers)
        per_op = result.wall_s / max(1, len(ops))
        traced_per_op = result.traced_wall_s / max(1, result.traced_ops)
        values["trace.overhead_s"] = (traced_per_op - per_op) \
            * result.traced_ops
        out["layers"] = values
        out["tables"] = [_self_time_table(tracer, title)
                         for title, tracer in result.tracers]
        out["tables"].append(_overhead_line(per_op * result.traced_ops,
                                            result.traced_wall_s))
    return out


def stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Shard processes are stopped by ``ShardCoordinator.stop``; any child
    still alive here (a failed bring-up, an interrupted run) is
    terminated, then killed. Last goes the ``multiprocessing`` resource
    tracker that the ``spawn`` start method launches: left alone it
    outlives this process until it notices its pipe closing.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _self_time_table(tracer, title: str) -> str:
    lines = [f"per-layer self time, traced run: {title}",
             f"  {'layer':<28} {'calls':>8} {'self s':>10} {'share':>7}"]
    layers = [(name, tracer.layer(name)) for name in tracer.names()]
    total = sum(layer["self_s"] for _, layer in layers) or 1.0
    for name, layer in sorted(layers, key=lambda x: -x[1]["self_s"]):
        lines.append(f"  {name:<28} {int(layer['calls']):>8} "
                     f"{layer['self_s']:>10.4f} "
                     f"{100 * layer['self_s'] / total:>6.1f}%")
    lines.append(f"  {'total':<28} {'':>8} {total:>10.4f}")
    return "\n".join(lines)


def _ledger_table(gaps) -> str:
    from perfbench.matrix import TOLERANCE_PER_OP_S, TOLERANCE_SHARE

    lines = [f"span totals vs result.timings (tolerance {TOLERANCE_SHARE:.0%}"
             f" + {1e3 * TOLERANCE_PER_OP_S:.0f} ms per op)"]
    for phases, span, ledger_s, span_s, ok in gaps:
        lines.append(f"  {phases:<14} {span:<16} ledger {ledger_s:9.4f} s  "
                     f"span {span_s:9.4f} s  {'ok' if ok else 'MISMATCH'}")
    return "\n".join(lines)


def _overhead_line(untraced_s: float, traced_s: float) -> str:
    return (f"tracing overhead: traced wall {traced_s:.3f} s - untraced wall "
            f"{untraced_s:.3f} s = {traced_s - untraced_s:+.3f} s")


def main(argv: Optional[List[str]] = None) -> int:
    from perfbench.plan import END_TO_END, PER_LAYER, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    env.pop("REPRO_STORE", None)
    os.environ.pop("REPRO_STORE", None)

    from perfbench import expected

    # A SIGTERM unwinds through the finally below like an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    table_problems = expected.cross_check()
    started = time.perf_counter()
    work = WORK / str(os.getpid())
    try:
        if args.workload.startswith("matrix"):
            out = run_matrix(args, env)
        else:
            work.mkdir(parents=True, exist_ok=True)
            out = run_serve(args, work)
    finally:
        stop_processes()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    problems = table_problems + out["problems"]

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({time.perf_counter() - started:.1f} s)")
    for name, value in out["metrics"].items():
        print(f"  {name:<16} {value:12.4f} {END_TO_END[name][0]}")
    for note in out["notes"]:
        print(f"  {note}")
    if args.trace:
        for table in out["tables"]:
            print(table)
        values = layer_metrics(out["layers"])
        for name, value in values.items():
            print(f"  {name:<40} {value:12.6f} {PER_LAYER[name][0]}")
        metrics = {name: {"value": value, "unit": PER_LAYER[name][0]}
                   for name, value in values.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, value in out["metrics"].items()}
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more")
    print(json.dumps({"correct": not problems, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
