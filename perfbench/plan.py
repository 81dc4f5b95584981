"""What the benchmark measures: workloads, metrics and predictions.

``BENCHMARK.json`` lists the gated subset of this in its fixed schema;
the full record (composition, seed use, client count and the
layer -> end-to-end metric -> workload prediction map) lives here, and
``test_bench.py`` checks that the two agree.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: name -> (composition, seed use, closed-loop clients, why chosen).
WORKLOADS: Dict[str, Dict[str, object]] = {
    "matrix_fixed": {
        "composition": "7 application cases under FIXED + the 30 FIXED "
                       "rows of suite_90, direct synthesize(), store off, "
                       "clear_path_cache() before every pass",
        "seed": "shuffles the row order of the run",
        "clients": 1,
        "why": "machinery (catalog, build, presolve, linearize, pressure, "
               "verify) does most of the work; solve is a minority share",
    },
    "matrix_hard": {
        "composition": "kinase_sw1 CLOCKWISE/UNFIXED, nucleic_acid UNFIXED, "
                       "mrna_isolation CLOCKWISE/UNFIXED, example_4_2 "
                       "CLOCKWISE; 60 s limit, store off",
        "seed": "shuffles the row order of the run",
        "clients": 1,
        "why": "the paper's hard binding policies: opt.solvers does >= 90% "
               "of the work; rows that end at the 60 s limit are left out",
    },
    "serve_fixed": {
        "composition": "distinct generated FIXED specs (8/12 pins, 3-5 "
                       "flows, 0-2 conflicts) over HTTP to ShardCoordinator "
                       "(2 shards x 1 worker, fresh shared store); every "
                       "5th job resubmits an earlier one (dedup path)",
        "seed": "generates the spec stream and the resubmission picks",
        "clients": 2,
        "why": "the hops (HTTP, routing, shard RPC, 50 ms poll) are most "
               "of a job's latency",
    },
    "serve_mixed": {
        "composition": "serve_fixed, but every 10th job is a 12-pin 5-flow "
                       "UNFIXED spec with time_limit=0.5",
        "seed": "as serve_fixed",
        "clients": 2,
        "why": "long and timed-out jobs next to short ones: worker blocking, "
               "retry/backoff, the breaker and the degrade ladder",
    },
}

#: Workloads whose figures gate a change (listed in BENCHMARK.json).
#: matrix_fixed is Python-heavy and moved by up to 25-38% between
#: ten-run sets on a shared 2-core VM (median ops_per_s 21.0 then 16.1,
#: tail 379 then 523 ms), past the largest allowed bound of 25%, so it
#: runs on request only; its layers are still traced on serve_fixed
#: (the replay solves FIXED specs) and matrix_hard. serve_mixed fails
#: some jobs by design (the service charges timeouts and degraded
#: answers to the backend breaker), and a gated workload must have no
#: failing operation, so it runs on request only too.
GATED = ("matrix_hard", "serve_fixed")

#: name -> (unit, better, meaning). Emitted with ``--trace 0``.
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "setup_s": ("s", "lower",
                "median of several bring-ups: imports + case construction "
                "(matrix); store open, shard spawn with journal open, HTTP "
                "server start (serve)"),
    "ops_per_s": ("1/s", "higher",
                  "operations that reached a terminal state per second of "
                  "workload wall time (matrix: median over passes)"),
    "latency_p50_ms": ("ms", "lower",
                       "median operation latency: one synthesize() call, or "
                       "POST /jobs to the terminal job JSON"),
    "latency_tail_ms": ("ms", "lower",
                        "highest percentile with at least ten samples "
                        "beyond it (the maximum below 11 samples)"),
    "answered_share": ("ratio", "higher",
                       "1 - failed_share: operations not failed / attempted"),
    "exact_share": ("ratio", "higher",
                    "1 - degraded_share: operations not answered by the "
                    "greedy fallback / attempted"),
    "peak_rss_mb": ("MB", "lower",
                    "peak RSS of the process that ran the synthesis "
                    "(benchmark process, or the largest shard)"),
}

#: name -> (unit, better, layer module, moves metric, on workload).
PER_LAYER: Dict[str, Tuple[str, str, str, str, str]] = {}


def _layer(names: List[Tuple[str, str, str]], module: str, moves: str,
           on: str) -> None:
    for name, unit, better in names:
        PER_LAYER[name] = (unit, better, module, moves, on)


_layer([("switches.paths.self_s", "s", "lower"),
        ("switches.paths.calls", "count", "lower"),
        ("switches.paths.cache_hit_ratio", "ratio", "higher")],
       "switches.paths", "latency_p50_ms",
       "matrix_fixed; no change on matrix_hard")
_layer([("core.builder.self_s", "s", "lower"),
        ("core.builder.rows", "count", "lower"),
        ("core.builder.vars", "count", "lower")],
       "core.builder", "latency_p50_ms",
       "matrix_fixed; a stronger formulation raises rows and shows its "
       "cost here")
_layer([("opt.linearize.self_s", "s", "lower"),
        ("opt.presolve.self_s", "s", "lower"),
        ("opt.presolve.rows_dropped", "count", "higher")],
       "opt.linearize, opt.presolve", "latency_p50_ms", "matrix_fixed")
_layer([("opt.solvers.self_s", "s", "lower"),
        ("opt.solvers.calls", "count", "lower"),
        ("opt.solvers.nodes", "count", "lower")],
       "opt.solvers", "ops_per_s",
       "matrix_hard; under 30% of matrix_fixed")
_layer([("core.valves.self_s", "s", "lower"),
        ("core.pressure.self_s", "s", "lower"),
        ("core.pressure.degraded", "count", "lower"),
        ("core.verify.self_s", "s", "lower"),
        ("core.heuristic.self_s", "s", "lower")],
       "core.valves + switches.reduce, core.pressure, core.verify, "
       "core.heuristic", "latency_p50_ms / exact_share",
       "matrix_fixed / serve_mixed")
_layer([("core.synthesizer.self_s", "s", "lower")],
       "core.synthesizer", "latency_p50_ms", "matrix_fixed")
_layer([("service.http.self_ms", "ms", "lower")],
       "service.http", "latency_p50_ms", "serve_fixed")
_layer([("service.coordinator.submit_ms", "ms", "lower"),
        ("service.coordinator.wait_ms", "ms", "lower"),
        ("service.coordinator.job_calls_per_job", "count", "lower")],
       "service.coordinator", "latency_p50_ms",
       "serve_fixed; polling makes job_calls_per_job grow with solve time")
_layer([("service.overhead_ms", "ms", "lower"),
        ("service.queue_wait_ms", "ms", "lower"),
        ("service.attempts_per_job", "count", "lower"),
        ("service.retries_per_job", "count", "lower"),
        ("service.breaker_refusals", "count", "lower"),
        ("service.dedup_hits", "count", "higher")],
       "service.service", "latency_tail_ms, answered_share",
       "serve_mixed; little on serve_fixed")
_layer([("service.journal.self_ms", "ms", "lower"),
        ("service.journal.appends_per_job", "count", "lower"),
        ("store.get_ms", "ms", "lower"),
        ("store.put_ms", "ms", "lower"),
        ("store.puts_per_job", "count", "lower"),
        ("store.hit_ratio", "ratio", "higher")],
       "service.journal, store", "ops_per_s", "serve_fixed")
_layer([("trace.overhead_s", "s", "lower"),
        ("trace.uncovered_s", "s", "lower"),
        ("trace.ledger_gap_s", "s", "lower")],
       "benchmark tracing", "(none: checks the traced run itself)", "all")

#: Self times are seconds per ``synthesize`` call; counts are per call
#: unless the name says otherwise (rows/vars per build, rows_dropped per
#: presolve, ``*_per_job`` per distinct job, dedup_hits per submission,
#: core.pressure.degraded and breaker_refusals per run). The ``_ms``
#: store and coordinator figures are means per call; service.http.self_ms
#: and service.journal.self_ms are per job; service.overhead_ms is the
#: median job latency minus the row's runtime_s. On serve workloads the
#: synthesis layers come from the in-process replay; layers a workload
#: never calls read 0. trace.* figures are seconds for the whole traced
#: run: traced minus untraced wall; time outside any synthesize span
#: (matrix) or outside any client HTTP call (serve); and the summed
#: |span - result.timings| over the reconciled phases (matrix).
