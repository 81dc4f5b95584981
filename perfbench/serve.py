"""Serving workloads: a closed loop of HTTP clients against the platform.

Set-up brings up a fresh store, a :class:`ShardCoordinator` (2 shards x
1 worker; each shard opens its journal) and a
:class:`ServiceHTTPServer`, several times, keeping the last. Two client
threads then send jobs from a seeded stream until ``seconds`` pass,
each waiting for its job's terminal JSON before sending the next.

Correctness, checked after the timed loop: every ``done`` row matches a
direct ``synthesize()`` of the same spec; every shard journal passes
``validate_journal``; every job line carries the job's own id, so a
resubmission came back as its original (a dedup hit), and the journals
hold one job record per distinct job and one ``running`` transition
per attempt (no extra executions).
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.tracing import Target, Tracer

SHARDS = 2
WORKERS = 1
CLIENTS = 2
#: Every REPEAT_EVERY-th job (position % REPEAT_EVERY == REPEAT_AT)
#: resubmits an earlier one.
REPEAT_EVERY, REPEAT_AT = 5, 2
#: serve_mixed: every MIXED_EVERY-th job is a hard timed-out spec.
MIXED_EVERY = 10
MIXED_OPTIONS = {"time_limit": 0.5}
#: Jobs replayed in-process for the shard-side split of a traced run.
REPLAY_CAP = 300
BREAKER_OPEN = "every circuit breaker is open"
CONCLUSIVE = {"optimal", "no solution"}
ANSWERS = CONCLUSIVE | {"feasible"}


@dataclass
class Job:
    index: int
    spec: Any
    spec_dict: Dict[str, Any]
    options: Optional[Dict[str, Any]]
    job_id: str
    repeat_of: Optional[int] = None


class JobStream:
    """The seeded job sequence, drawn lazily by the client threads."""

    def __init__(self, workload: str, seed: int) -> None:
        self.mixed = workload == "serve_mixed"
        self.rng = random.Random(seed)
        self.jobs: List[Job] = []
        self.fresh: List[Job] = []
        self._ids: set = set()
        self._lock = threading.Lock()

    def next(self) -> Job:
        with self._lock:
            index = len(self.jobs)
            if self.fresh and index % REPEAT_EVERY == REPEAT_AT:
                original = self.fresh[self.rng.randrange(len(self.fresh))]
                job = Job(index, original.spec, original.spec_dict,
                          original.options, original.job_id,
                          repeat_of=original.index)
            else:
                job = self._fresh(index)
                self.fresh.append(job)
            self.jobs.append(job)
            return job

    def _fresh(self, index: int) -> Job:
        from repro.cases import generate_case
        from repro.core.spec import BindingPolicy
        from repro.core.synthesizer import SynthesisOptions
        from repro.io.spec_json import spec_to_dict
        from repro.service import job_id_for, options_from_dict

        hard = self.mixed and index % MIXED_EVERY == MIXED_EVERY - 1
        while True:
            case_seed = self.rng.randrange(1 << 30)
            conflicts = self.rng.randint(0, 2)
            if hard:
                spec = generate_case(case_seed, switch_size=12, n_flows=5,
                                     n_inlets=3, n_conflicts=conflicts,
                                     binding=BindingPolicy.UNFIXED)
                options = dict(MIXED_OPTIONS)
            else:
                flows = self.rng.choice((3, 4, 5))
                spec = generate_case(case_seed,
                                     switch_size=self.rng.choice((8, 12)),
                                     n_flows=flows,
                                     n_inlets=2 if flows < 5 else 3,
                                     n_conflicts=conflicts,
                                     binding=BindingPolicy.FIXED)
                options = None
            effective = (options_from_dict(options) if options
                         else SynthesisOptions())
            job_id = job_id_for(spec, effective)
            if job_id not in self._ids:
                self._ids.add(job_id)
                return Job(index, spec, spec_to_dict(spec), options, job_id)


@dataclass
class Outcome:
    job: Job
    latency_s: float
    line: Optional[Dict[str, Any]]
    error: Optional[str] = None


@dataclass
class Platform:
    store: Any
    coordinator: Any
    server: Any
    journal_dir: Path

    def stop(self) -> None:
        self.server.stop()
        self.coordinator.stop()


def bring_up(workdir: Path, tag: str) -> Tuple[Platform, float]:
    """One platform bring-up; returns it with its set-up seconds."""
    from repro.service import ServiceHTTPServer, ShardCoordinator
    from repro.store import Store

    start = time.perf_counter()
    store = Store(workdir / f"store-{tag}")
    coordinator = ShardCoordinator(str(workdir / f"journals-{tag}"),
                                   shards=SHARDS, workers=WORKERS,
                                   store=store)
    coordinator.start()
    try:
        server = ServiceHTTPServer(coordinator).start()
    except BaseException:
        coordinator.stop()
        raise
    elapsed = time.perf_counter() - start
    return Platform(store, coordinator, server,
                    workdir / f"journals-{tag}"), elapsed


def client_loop(stream: JobStream, url: str, deadline: float,
                out: List[Outcome], lock: threading.Lock) -> None:
    import repro.service.http as http
    from repro.service import TERMINAL_STATES

    while time.perf_counter() < deadline:
        job = stream.next()
        start = time.perf_counter()
        line: Optional[Dict[str, Any]] = None
        error = None
        try:
            line = http.submit_job(url, job.spec_dict, job.options)
            if line.get("state") not in TERMINAL_STATES:
                line = http.wait_job(url, line["id"], timeout=120.0)
        except http.HTTPServiceError as exc:
            error = f"HTTP {exc.status}: {exc}"
        except Exception as exc:  # any client-side failure fails the op
            error = f"{type(exc).__name__}: {exc}"
        outcome = Outcome(job, time.perf_counter() - start, line, error)
        with lock:
            out.append(outcome)


def run_loop(stream: JobStream, url: str, seconds: float) -> Dict[str, Any]:
    """The closed loop: ``CLIENTS`` threads for ``seconds``."""
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    start = time.perf_counter()
    threads = [threading.Thread(target=client_loop,
                                args=(stream, url, start + seconds,
                                      outcomes, lock),
                                name=f"bench-client-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"ops": outcomes, "wall_s": time.perf_counter() - start}


def shard_peak_rss_mb(coordinator) -> float:
    """Largest VmHWM among the live shard processes."""
    peak = 0.0
    for info in coordinator.stats()["shards"].values():
        pid = info.get("pid")
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except (OSError, TypeError):
            continue
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.M)
        if match:
            peak = max(peak, int(match.group(1)) / 1024.0)
    return peak


# -- correctness ----------------------------------------------------------
def classify(ops: List[Outcome], references: Dict[str, Tuple[str, Any]],
             problems: List[str]) -> Tuple[int, int]:
    """Count failed and degraded operations; wrong answers go to
    ``problems``."""
    from perfbench.expected import matches

    failed = degraded = 0
    for op in ops:
        if op.error is not None or op.line is None:
            failed += 1
            continue
        state = op.line.get("state")
        if op.line.get("id") != op.job.job_id:
            problems.append(f"job {op.job.index}: id {op.line.get('id')} "
                            f"!= {op.job.job_id}")
            failed += 1
        elif state == "failed":
            failed += 1
        elif state == "degraded":
            degraded += 1
        elif state != "done":
            problems.append(f"job {op.job.index}: not terminal ({state})")
            failed += 1
        elif (op.line.get("row") or {}).get("status") not in ANSWERS:
            failed += 1  # an ERROR or TIMEOUT row
        else:
            row = op.line.get("row") or {}
            want = references[op.job.job_id]
            # A time-limited job is compared only when both answers are
            # conclusive: its incumbent at the limit may differ run to run.
            timed = bool(op.job.options)
            conclusive = {want[0], row.get("status")} <= CONCLUSIVE
            if (conclusive or not timed) and not matches(
                    want, row.get("status"), row.get("objective")):
                problems.append(f"job {op.job.index} ({op.job.spec.name}): "
                                f"row ({row.get('status')}, "
                                f"{row.get('objective')}) != direct {want}")
                failed += 1
    return failed, degraded


def references(jobs: List[Job]) -> Dict[str, Tuple[str, Any]]:
    """Direct ``synthesize()`` outcome of every distinct spec."""
    from repro.core.synthesizer import SynthesisOptions, synthesize

    out: Dict[str, Tuple[str, Any]] = {}
    for job in jobs:
        if job.job_id in out:
            continue
        result = synthesize(job.spec, SynthesisOptions(
            cache=False, **(job.options or {})))
        out[job.job_id] = (result.status.value,
                           result.objective if result.status.solved else None)
    return out


def check_journals(journal_dir: Path, ops: List[Outcome],
                   problems: List[str]) -> Dict[str, Any]:
    """validate_journal on each shard; one job record per distinct job,
    one ``running`` transition per attempt."""
    from repro.service import validate_journal

    job_records: Dict[str, int] = {}
    running: Dict[str, int] = {}
    refusals = 0
    journals = sorted(journal_dir.glob("shard-*.jsonl"))
    for path in journals:
        try:
            validate_journal(path)
        except Exception as exc:  # any validation error is a failure
            problems.append(f"{path.name}: {exc}")
        for text in path.read_text(encoding="utf-8").splitlines():
            if not text.strip():
                continue
            record = json.loads(text)
            job_id = record.get("id")
            if record.get("type") == "job":
                job_records[job_id] = job_records.get(job_id, 0) + 1
            elif record.get("state") == "running":
                running[job_id] = running.get(job_id, 0) + 1
            if BREAKER_OPEN in str(record.get("error") or ""):
                refusals += 1
    if len(journals) != SHARDS:
        problems.append(f"expected {SHARDS} shard journals, "
                        f"found {len(journals)}")
    final: Dict[str, int] = {}
    for op in ops:
        if op.line is not None and op.line.get("state") in (
                "done", "degraded", "failed"):
            final[op.job.job_id] = int(op.line.get("attempts", 0))
    for job_id, attempts in final.items():
        if job_records.get(job_id, 0) != 1:
            problems.append(f"job {job_id}: {job_records.get(job_id, 0)} "
                            f"job records in the journals")
        if running.get(job_id, 0) != attempts:
            problems.append(f"job {job_id}: {running.get(job_id, 0)} "
                            f"executions for {attempts} attempts")
    return {"distinct": len(final), "refusals": refusals}


# -- traced run -------------------------------------------------------------
COORD = "repro.service.coordinator:ShardCoordinator"
HOP_TARGETS: List[Target] = [
    ("repro.service.http", "submit_job", "service.http", None),
    ("repro.service.http", "fetch_job", "service.http", None),
    (COORD, "submit", "service.coordinator.submit", None),
    (COORD, "job", "service.coordinator.job", None),
    (COORD, "wait", "service.coordinator.wait", None),
]
SHARD_TARGETS: List[Target] = [
    ("repro.service.journal:Journal", "record_job", "service.journal", None),
    ("repro.service.journal:Journal", "record_state", "service.journal",
     None),
    ("repro.store.store:Store", "get", "store.get",
     lambda tracer, payload, _a: tracer.count("store.hits",
                                              payload is not None)),
    ("repro.store.store:Store", "put", "store.put", None),
    ("repro.service.service", "synthesize", "core.synthesizer", None),
]


def hop_metrics(tracer: Tracer, ops: List[Outcome]) -> Dict[str, float]:
    """HTTP and coordinator hops timed in the benchmark process."""
    n_ops = len(ops)
    coordinator = [s for s in tracer.spans
                   if s.name.startswith("service.coordinator.")]
    top = sum(s.duration for s in coordinator
              if s.parent is None
              or not s.parent.name.startswith("service.coordinator."))
    http_total = tracer.layer("service.http")["total_s"]

    def mean_ms(name: str) -> float:
        layer = tracer.layer(name)
        return 1e3 * layer["total_s"] / layer["calls"] if layer["calls"] \
            else 0.0

    return {
        "service.http.self_ms": 1e3 * (http_total - top) / max(1, n_ops),
        "service.coordinator.submit_ms":
            mean_ms("service.coordinator.submit"),
        "service.coordinator.wait_ms": mean_ms("service.coordinator.wait"),
        "service.coordinator.job_calls_per_job":
            tracer.layer("service.coordinator.job")["calls"] / max(1, n_ops),
        # Client time outside any HTTP call (the benchmark's own loop).
        "trace.uncovered_s": sum(op.latency_s for op in ops) - http_total,
    }


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text -> per-name sums over every label set."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


def replay(jobs: List[Job], workdir: Path) -> Tuple[Dict[str, float], Tracer]:
    """Shard-side split: the same job stream through an in-process
    SynthesisService with spans on journal, store and every synthesis
    layer. Returns the per-layer figures and the replay's spans."""
    from perfbench import matrix
    from repro.core.synthesizer import SynthesisOptions
    from repro.service import SynthesisService, options_from_dict
    from repro.store import Store
    from repro.switches.paths import clear_path_cache, path_cache_info

    jobs = jobs[:REPLAY_CAP]
    tracer = Tracer()
    clear_path_cache()  # a fresh shard starts cold
    before = path_cache_info()
    with tracer.installed(SHARD_TARGETS + matrix.TARGETS[1:]):
        service = SynthesisService(workdir / "replay.jsonl", workers=WORKERS,
                                   store=Store(workdir / "replay-store"))
        with service:
            for job in jobs:
                options = (options_from_dict(job.options) if job.options
                           else SynthesisOptions())
                job_id = service.submit(job.spec, options)
                service.wait(job_id, timeout=120.0)
    after = path_cache_info()
    layers = matrix.synthesis_metrics(
        tracer, {k: after[k] - before[k] for k in ("hits", "misses")})
    distinct = max(1, len({job.job_id for job in jobs}))
    journal = tracer.layer("service.journal")
    gets = tracer.layer("store.get")
    puts = tracer.layer("store.put")
    layers.update({
        "service.journal.self_ms": 1e3 * journal["self_s"] / distinct,
        "service.journal.appends_per_job": journal["calls"] / distinct,
        "store.get_ms": 1e3 * gets["total_s"] / gets["calls"]
        if gets["calls"] else 0.0,
        "store.put_ms": 1e3 * puts["total_s"] / puts["calls"]
        if puts["calls"] else 0.0,
        "store.puts_per_job": puts["calls"] / distinct,
        "store.hit_ratio": tracer.counters.get("store.hits", 0)
        / gets["calls"] if gets["calls"] else 0.0,
    })
    return layers, tracer


def service_metrics(counters: Dict[str, float], ops: List[Outcome],
                    refusals: int) -> Dict[str, float]:
    """Service-layer figures from /metrics counters and job lines."""
    originals = [op for op in ops
                 if op.job.repeat_of is None and op.line is not None]
    sent = max(1, len(ops))
    distinct = max(1, len(originals))
    overhead = sorted(
        1e3 * (op.latency_s - float((op.line.get("row") or {})
                                    .get("runtime_s", 0.0)))
        for op in originals if op.line.get("state") == "done")
    waits = counters.get("service_queue_wait_count", 0.0)
    return {
        "service.overhead_ms": overhead[len(overhead) // 2]
        if overhead else 0.0,
        "service.queue_wait_ms": 1e3 * counters.get(
            "service_queue_wait_sum", 0.0) / waits if waits else 0.0,
        "service.attempts_per_job": sum(
            int(op.line.get("attempts", 0)) for op in originals) / distinct,
        "service.retries_per_job": counters.get("service_retries", 0.0)
        / distinct,
        "service.breaker_refusals": float(refusals),
        "service.dedup_hits": counters.get("service_dedup_hits", 0.0) / sent,
    }


@dataclass
class ServeRun:
    setup: List[float]
    ops: List[Outcome] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    failed: int = 0
    degraded: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    traced_wall_s: float = 0.0
    traced_ops: int = 0
    #: ``(title, tracer)`` of the hop spans and of the replay's spans.
    tracers: List[Tuple[str, Tracer]] = field(default_factory=list)


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_samples: int, workdir: Path) -> ServeRun:
    import repro.service.http as http

    setup: List[float] = []
    platform = None
    for i in range(setup_samples):
        if platform is not None:
            platform.stop()
        platform, elapsed = bring_up(workdir, str(i))
        setup.append(elapsed)
    result = ServeRun(setup)
    traced_jobs: List[Job] = []
    try:
        stream = JobStream(workload, seed)
        loop = run_loop(stream, platform.server.url, seconds)
        result.ops, result.wall_s = loop["ops"], loop["wall_s"]
        if trace:
            first = len(stream.jobs)
            tracer = Tracer()
            with tracer.installed(HOP_TARGETS):
                traced = run_loop(stream, platform.server.url, seconds)
            traced_jobs = stream.jobs[first:]
            result.traced_wall_s = traced["wall_s"]
            result.traced_ops = len(traced["ops"])
            result.layers.update(hop_metrics(tracer, traced["ops"]))
            result.tracers.append((
                "HTTP and coordinator hops (client-side HTTP spans also "
                "cover the coordinator calls served on handler threads; "
                "service.http.self_ms subtracts them)", tracer))
            counters = parse_metrics(http.fetch_metrics(platform.server.url))
            all_ops = result.ops + traced["ops"]
        else:
            all_ops = result.ops
        result.peak_rss_mb = shard_peak_rss_mb(platform.coordinator)
    finally:
        platform.stop()
    journal = check_journals(platform.journal_dir, all_ops, result.problems)
    refs = references([op.job for op in all_ops])
    failed, degraded = classify(result.ops, refs, result.problems)
    if trace:
        classify(all_ops[len(result.ops):], refs, result.problems)
        result.layers.update(service_metrics(counters, all_ops,
                                             journal["refusals"]))
        layers, tracer = replay(traced_jobs, workdir)
        result.layers.update(layers)
        result.tracers.append((f"shard side, in-process replay of "
                               f"{min(len(traced_jobs), REPLAY_CAP)} jobs",
                               tracer))
    result.failed, result.degraded = failed, degraded
    return result
