"""Case-matrix workloads: direct ``synthesize()`` over fixed rows.

A run makes a fixed number of whole passes over the rows (in a
seed-shuffled order), set by ``seconds`` through
:data:`PASSES_PER_SECOND` and at least one. A fixed count keeps the
sample set, and so the tail percentile's rank, the same from run to
run. Each pass starts with ``clear_path_cache()``, as a fresh sweep process
would. Every operation is checked against the hand-written table in
:mod:`perfbench.expected` and, when solved, re-verified with
``verify_result``; checks run outside the timed region.

``repro`` is imported inside functions only, so :func:`probe_setup`
times the imports as part of set-up.
"""

from __future__ import annotations

import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from perfbench import expected
from perfbench.tracing import Target, Tracer, has_ancestor

#: The hard rows: proven within the 60 s limit well before it.
HARD_ROWS = [("kinase_sw1", "clockwise"), ("kinase_sw1", "unfixed"),
             ("nucleic_acid", "unfixed"), ("mrna_isolation", "clockwise"),
             ("mrna_isolation", "unfixed"), ("example_4_2", "clockwise")]
#: The two fastest hard rows, for smoke runs.
HARD_SMOKE = [("kinase_sw1", "unfixed"), ("nucleic_acid", "unfixed")]
TIME_LIMIT = 60.0
#: Passes per second of ``--seconds``. A matrix_fixed pass takes about
#: 2 s and a matrix_hard pass about 30 s on a 2-core x86 VM, so
#: ``--seconds 15`` runs for about 30 s on either. Fifteen matrix_fixed
#: passes put the tail sample (the 11th slowest) inside the slowest
#: row's own samples instead of at the maximum of the next row's.
PASSES_PER_SECOND = {"matrix_fixed": 1.0, "matrix_hard": 1 / 30}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * PASSES_PER_SECOND[workload]))


@dataclass
class Row:
    label: str
    spec: Any
    want: expected.Outcome


def build_rows(workload: str, seed: int, smoke: bool = False) -> List[Row]:
    from repro.cases import CASE_REGISTRY, suite_90
    from repro.core.spec import BindingPolicy

    rows: List[Row] = []
    if workload == "matrix_fixed":
        for name, factory in CASE_REGISTRY.items():
            rows.append(Row(f"{name}/fixed", factory(BindingPolicy.FIXED),
                            expected.CASES[(name, "fixed")]))
        for spec in suite_90():
            if spec.binding is BindingPolicy.FIXED:
                rows.append(Row(spec.name, spec,
                                expected.SUITE_FIXED[spec.name]))
        if smoke:
            rows = rows[:4] + rows[7:9]
    elif workload == "matrix_hard":
        for name, policy in (HARD_SMOKE if smoke else HARD_ROWS):
            spec = CASE_REGISTRY[name](BindingPolicy(policy))
            rows.append(Row(f"{name}/{policy}", spec,
                            expected.CASES[(name, policy)]))
    else:
        raise ValueError(f"not a matrix workload: {workload}")
    random.Random(seed).shuffle(rows)
    return rows


def probe_setup(workload: str, seed: int, smoke: bool) -> None:
    """Body of one set-up sample: imports plus case construction."""
    start = time.perf_counter()
    import repro.core.synthesizer  # noqa: F401
    build_rows(workload, seed, smoke)
    print(f"{time.perf_counter() - start:.6f}")


def measure_setup(root: str, env: Dict[str, str], workload: str, seed: int,
                  samples: int, smoke: bool) -> List[float]:
    """Set-up seconds of ``samples`` fresh interpreters."""
    code = ("from perfbench.matrix import probe_setup; "
            f"probe_setup({workload!r}, {seed}, {smoke})")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def warm_up() -> None:
    """One untimed small solve, so lazy imports inside the solver stack
    finish before the first timed pass."""
    from repro.cases import kinase_sw1
    from repro.core.spec import BindingPolicy
    from repro.core.synthesizer import synthesize
    from repro.switches.paths import clear_path_cache

    synthesize(kinase_sw1(BindingPolicy.FIXED), options())
    clear_path_cache()


def options():
    from repro.core.synthesizer import SynthesisOptions

    return SynthesisOptions(cache=False, time_limit=TIME_LIMIT)


@dataclass
class Op:
    label: str
    latency_s: float
    failed: bool
    degraded: bool
    result: Any


def run_passes(rows: List[Row], passes: int) -> Dict[str, Any]:
    """``passes`` timed passes over ``rows``; checks are not timed."""
    import repro.core.synthesizer as synth
    from repro.core.verify import verify_result
    from repro.switches.paths import clear_path_cache, path_cache_info

    opts = options()
    ops: List[Op] = []
    problems: List[str] = []
    cache = {"hits": 0, "misses": 0}
    pass_walls: List[float] = []
    for _ in range(passes):
        wall = 0.0
        start = time.perf_counter()
        clear_path_cache()
        for row in rows:
            t0 = time.perf_counter()
            result = synth.synthesize(row.spec, opts)
            latency = time.perf_counter() - t0
            wall += time.perf_counter() - start
            ops.append(_check(row, result, latency, verify_result, problems))
            start = time.perf_counter()
        pass_walls.append(wall)
        info = path_cache_info()
        cache["hits"] += info["hits"]
        cache["misses"] += info["misses"]
    return {"ops": ops, "wall_s": sum(pass_walls), "pass_walls": pass_walls,
            "passes": passes, "problems": problems, "path_cache": cache}


def _check(row: Row, result, latency: float, verify_result,
           problems: List[str]) -> Op:
    status = result.status.value
    objective = result.objective if result.status.solved else None
    failed = not expected.matches(row.want, status, objective)
    if failed:
        problems.append(f"{row.label}: got ({status}, {objective}), "
                        f"expected {row.want}")
    elif result.status.solved:
        try:
            verify_result(result)
        except Exception as exc:  # any verifier complaint is a failure
            failed = True
            problems.append(f"{row.label}: verify_result: {exc}")
    return Op(row.label, latency, failed,
              bool(result.counters.get("degraded")), result)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- traced run ---------------------------------------------------------
def _count_model(tracer: Tracer, built, _args) -> None:
    tracer.count("core.builder.rows", built.model.num_constraints)
    tracer.count("core.builder.vars", built.model.num_vars)


def _count_presolve(tracer: Tracer, reduction, _args) -> None:
    tracer.count("opt.presolve.rows_dropped", reduction.dropped_constraints)


def _count_nodes(tracer: Tracer, solution, _args) -> None:
    tracer.count("opt.solvers.nodes", solution.counters.get("nodes", 0))


def _count_pressure(tracer: Tracer, sharing, _args) -> None:
    tracer.count("core.pressure.degraded", int(bool(sharing.degraded)))


SYNTH = "repro.core.synthesizer"
TARGETS: List[Target] = [
    (SYNTH, "synthesize", "core.synthesizer", None),
    (SYNTH, "enumerate_paths", "switches.paths", None),
    ("repro.core.builder:SynthesisModelBuilder", "build", "core.builder",
     _count_model),
    ("repro.opt.linearize", "linearize", "opt.linearize", None),
    ("repro.opt.presolve", "presolve", "opt.presolve", _count_presolve),
    ("repro.opt.model:Model", "solve", "opt.solvers", _count_nodes),
    (SYNTH, "analyze_valves", "core.valves", None),
    (SYNTH, "reduce_switch", "core.valves", None),
    (SYNTH, "share_pressure", "core.pressure", _count_pressure),
    (SYNTH, "verify_result", "core.verify", None),
    ("repro.core.heuristic", "synthesize_greedy", "core.heuristic", None),
]

#: Ledger phase(s) of ``result.timings`` -> the span that must cover
#: them. Spans inside ``core.pressure`` are left out of the other pairs
#: (the ledger books pressure-sharing solves under "pressure"), and
#: ``opt.solvers`` is compared by self time (the ledger's "solve"
#: excludes presolve and linearize).
RECONCILE = [
    (("catalog",), "switches.paths"),
    (("build",), "core.builder"),
    (("heuristic",), "core.heuristic"),
    (("linearize",), "opt.linearize"),
    (("presolve",), "opt.presolve"),
    (("solve", "check"), "opt.solvers"),
    (("analyze",), "core.valves"),
    (("pressure",), "core.pressure"),
    (("verify",), "core.verify"),
]
#: Allowed |span - ledger| per pair: 5% of the ledger time plus 1 ms per
#: operation (the ledger's timers and the spans start a few statements
#: apart, e.g. the builder's constructor sits inside "build" only).
TOLERANCE_SHARE = 0.05
TOLERANCE_PER_OP_S = 0.001


def traced_layers(rows: List[Row], passes: int) -> Dict[str, Any]:
    """Re-run ``passes`` passes with spans installed; per-layer figures."""
    tracer = Tracer()
    with tracer.installed(TARGETS):
        run = run_passes(rows, passes)
    metrics = synthesis_metrics(tracer, run["path_cache"])
    gaps = reconcile(tracer, run["ops"])
    covered = tracer.layer("core.synthesizer")["total_s"]
    return {"run": run, "tracer": tracer, "metrics": metrics,
            "gaps": gaps, "uncovered_s": run["wall_s"] - covered}


def synthesis_metrics(tracer: Tracer,
                      path_cache: Dict[str, int]) -> Dict[str, float]:
    """Per-layer figures of the synthesis stack, per ``synthesize`` call.

    ``path_cache`` holds the path-cache hits and misses of the run.
    """
    n_ops = max(1.0, tracer.layer("core.synthesizer")["calls"])
    metrics: Dict[str, float] = {}
    for layer in ("switches.paths", "core.builder", "opt.linearize",
                  "opt.presolve", "opt.solvers", "core.valves",
                  "core.pressure", "core.verify", "core.heuristic",
                  "core.synthesizer"):
        metrics[f"{layer}.self_s"] = tracer.layer(layer)["self_s"] / n_ops
    builds = max(1.0, tracer.layer("core.builder")["calls"])
    presolves = max(1.0, tracer.layer("opt.presolve")["calls"])
    metrics["switches.paths.calls"] = \
        tracer.layer("switches.paths")["calls"] / n_ops
    lookups = path_cache["hits"] + path_cache["misses"]
    metrics["switches.paths.cache_hit_ratio"] = \
        path_cache["hits"] / lookups if lookups else 0.0
    metrics["core.builder.rows"] = \
        tracer.counters.get("core.builder.rows", 0) / builds
    metrics["core.builder.vars"] = \
        tracer.counters.get("core.builder.vars", 0) / builds
    metrics["opt.presolve.rows_dropped"] = \
        tracer.counters.get("opt.presolve.rows_dropped", 0) / presolves
    metrics["opt.solvers.calls"] = tracer.layer("opt.solvers")["calls"] / n_ops
    metrics["opt.solvers.nodes"] = \
        tracer.counters.get("opt.solvers.nodes", 0) / n_ops
    metrics["core.pressure.degraded"] = \
        tracer.counters.get("core.pressure.degraded", 0)
    return metrics


def reconcile(tracer: Tracer, ops: List[Op]) -> List[Tuple[str, str, float,
                                                          float, bool]]:
    """``(phases, span, ledger_s, span_s, within_tolerance)`` per pair."""
    ledger: Dict[str, float] = {}
    for op in ops:
        for phase, seconds in op.result.timings.items():
            ledger[phase] = ledger.get(phase, 0.0) + seconds
    out = []
    for phases, span in RECONCILE:
        booked = sum(ledger.get(p, 0.0) for p in phases)
        measured = 0.0
        for s in tracer.spans:
            if s.name != span or has_ancestor(s, (span, "core.pressure")):
                continue
            if span == "opt.solvers":
                measured += s.self_s
            else:
                measured += s.duration
        allowed = TOLERANCE_SHARE * booked + TOLERANCE_PER_OP_S * len(ops)
        out.append(("+".join(phases), span, booked, measured,
                    abs(measured - booked) <= allowed))
    return out
