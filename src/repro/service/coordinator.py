"""Shard coordinator: routes jobs to worker processes, survives their death.

The coordinator owns N :mod:`~repro.service.shard` processes and is the
single in-process façade the HTTP front-end and CLI talk to. Three
responsibilities:

**Routing.** A submission's identity is computed *before* it leaves the
coordinator — ``job_id_for(spec, options)``, the same case⊕config
fingerprint the shard's service would compute — and hashed
(``crc32(job_id) % shards``) to pick a shard. The hash is stable across
restarts and processes, so a resubmission of the same work always lands
on the shard already holding its journal entry, and the per-shard
idempotent-submission logic keeps doing its job unchanged. (Changing
the shard *count* remaps jobs; that is safe too, because every shard
shares one content-addressed store — the remapped shard's admission
check hits the store and journals the job straight to ``done``.)

**Recovery.** A monitor thread watches the shard processes. When one
dies — SIGKILL, OOM, a native crash in a solver — the coordinator
respawns it *on the same journal file*: replay re-journals every
non-terminal job, retries recompute their backoff ready-times from the
persisted attempt count (no thundering herd), and nothing is lost or
run twice. In-flight RPCs against a dead shard fail over to the fresh
incarnation and are retried once; submissions are idempotent, so the
retry is safe.

**Waiting.** ``wait()`` blocks without polling. Every shard incarnation
gets a second, one-way pipe on which the shard pushes each job line the
moment the job turns terminal, and a listener thread per incarnation
drains it into a condition variable. A waiter registers its job id
*before* its first ``job`` RPC — so a push cannot slip past between the
check and the block — and then blocks until the pushed line arrives,
its deadline passes, or the shard's *epoch* moves. The epoch is bumped
whenever an incarnation ends (event-pipe EOF, or a respawn), and every
waiter then re-checks with one ``job`` RPC: that covers a push lost to
a SIGKILL, and lets :meth:`stop` release blocked long-polls at once.
Pushed lines are kept only for ids with a live waiter, so the
bookkeeping is bounded by the number of waiters.

**Aggregation.** ``stats()``/``health()`` merge per-shard views and add
coordinator-level facts (pids, restart counts, routing table), which is
what ``GET /stats`` and ``GET /health`` serve.

**Telemetry.** The monitor thread doubles as the telemetry pump: about
once a second it pulls an incremental batch (``telemetry`` verb) from
every live shard into a :class:`~repro.obs.telemetry.TelemetryCollector`,
whose merged stream, aggregated metric snapshots and per-job flight
recorder back ``GET /metrics``, ``GET /jobs/<id>/trace`` and the merged
trace artifact written on :meth:`stop`. Logical clocks piggyback on
every RPC in both directions (``_clock`` in payload and reply), so the
deterministic merge orders causally-related records consistently.

Pipes are not thread-safe, so every shard has its own lock serializing
request/response pairs; the HTTP tier's many threads contend only when
they target the same shard.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import signal
import threading
import time
import zlib
from typing import Any, Dict, List, Optional

from repro.errors import AdmissionError, ServiceError
from repro.obs.telemetry import TelemetryCollector, _merge_histogram
from repro.obs.trace import current_tracer, obs_event
from repro.service.journal import TERMINAL_STATES
from repro.service.shard import CTX_ENV, ShardConfig, shard_main

#: How long to wait for a freshly spawned shard's "up" handshake.
SPAWN_DEADLINE = 60.0
#: Poll slice while waiting on an RPC reply; liveness is checked
#: between slices so a killed shard fails the call quickly.
RPC_SLICE = 0.1
#: How often the monitor thread pulls telemetry batches from shards.
TELEMETRY_INTERVAL = 1.0


class ShardError(ServiceError):
    """A shard RPC failed (dead shard, handler error, protocol break)."""


def pick_context() -> mp.context.BaseContext:
    """The process start method for shards.

    ``spawn`` by default: shards are respawned from the coordinator's
    monitor *thread*, and forking a multithreaded process is undefined
    behaviour waiting to happen. ``REPRO_SERVICE_CTX=fork`` opts into
    faster starts where the embedder knows it is safe.
    """
    choice = os.environ.get(CTX_ENV, "").strip().lower()
    if choice:
        return mp.get_context(choice)
    return mp.get_context("spawn")


class _Shard:
    """Coordinator-side handle: process + pipes + lock + lifecycle stats."""

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self.process: Optional[mp.process.BaseProcess] = None
        self.conn: Any = None
        self.lock = threading.Lock()
        self.restarts = 0
        self.pid: Optional[int] = None
        #: Drains the current incarnation's terminal-event pipe.
        self.listener: Optional[threading.Thread] = None
        #: Bumped (under the coordinator's ``_events``) each time an
        #: incarnation ends; waiters re-check their job when it moves.
        self.epoch = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ShardCoordinator:
    """N shard processes behind one submit/job/stats/health interface."""

    def __init__(
        self,
        journal_dir: str,
        *,
        shards: int = 2,
        workers: int = 2,
        queue_size: int = 256,
        options: Optional[Dict[str, Any]] = None,
        backends: Optional[List[str]] = None,
        max_attempts: int = 3,
        backoff: Optional[Dict[str, Any]] = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 5.0,
        store: Optional[Any] = None,
        tenant_quota: Optional[int] = None,
        trace_dir: Optional[str] = None,
        telemetry: bool = True,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"shards must be >= 1, got {shards}")
        from pathlib import Path

        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.telemetry = telemetry
        #: Parent-side accumulator for every shard's telemetry batches.
        self.collector = TelemetryCollector()
        if store is not None and not hasattr(store, "get"):
            from repro.store import Store

            store = Store(store)
        self.store = store
        self._ctx = pick_context()
        self._shards: List[_Shard] = []
        for index in range(shards):
            trace = None
            if trace_dir is not None:
                trace = str(Path(trace_dir) / f"shard-{index}-trace.jsonl")
            self._shards.append(_Shard(ShardConfig(
                index=index,
                journal=str(self.journal_dir / f"shard-{index}.jsonl"),
                workers=workers,
                queue_size=queue_size,
                options=dict(options or {}),
                backends=list(backends) if backends else None,
                max_attempts=max_attempts,
                backoff=dict(backoff or {}),
                breaker_threshold=breaker_threshold,
                breaker_reset=breaker_reset,
                store=store,
                tenant_quota=tenant_quota,
                trace=trace,
                telemetry=telemetry,
            )))
        self._stopping = threading.Event()
        #: Guards the waiter bookkeeping and every shard's ``epoch``;
        #: notified on each kept push and each epoch bump.
        self._events = threading.Condition()
        #: job id -> number of threads blocked in :meth:`wait` on it.
        self._waiters: Dict[str, int] = {}
        #: job id -> its pushed terminal line, kept while it has waiters.
        self._pushed: Dict[str, Dict[str, Any]] = {}
        self._monitor: Optional[threading.Thread] = None
        self._started = False
        self._tracer_ctx: Optional[Any] = None

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "ShardCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def shards(self) -> int:
        return len(self._shards)

    def start(self) -> None:
        if self._started:
            return
        if self.telemetry and current_tracer() is None:
            # No ambient tracer (e.g. embedded use without --trace):
            # install our own so coordinator-side spans/events (submit,
            # shard_up, restarts) still appear in the merged stream.
            from repro.obs.trace import Tracer, use_tracer

            self._tracer_ctx = use_tracer(Tracer("coordinator"))
            self._tracer_ctx.__enter__()
        for shard in self._shards:
            self._spawn(shard, reason="start")
        self._monitor = threading.Thread(
            target=self._watch, name="shard-monitor", daemon=True)
        self._monitor.start()
        self._started = True

    def _spawn(self, shard: _Shard, reason: str) -> None:
        """(Re)start one shard and wait for its journal replay to finish.

        Called with ``shard.lock`` held (or before any other thread can
        reach the shard). The "up" handshake doubles as a barrier: once
        it arrives, the shard has replayed its journal and is accepting
        RPCs, so a failed-over call retried against the new process
        sees all pre-crash state.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        events_in, events_out = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=shard_main, args=(shard.config, child_conn, events_out),
            name=f"repro-shard-{shard.config.index}", daemon=True)
        process.start()
        child_conn.close()
        events_out.close()
        deadline = time.monotonic() + SPAWN_DEADLINE
        try:
            while not parent_conn.poll(RPC_SLICE):
                if time.monotonic() > deadline or not process.is_alive():
                    raise ShardError(
                        f"shard {shard.config.index} failed to come up "
                        f"({reason}); journal {shard.config.journal}")
            try:
                hello = parent_conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardError(
                    f"shard {shard.config.index} died during startup "
                    f"({reason}); journal {shard.config.journal}") from exc
        except ShardError:
            with contextlib.suppress(Exception):
                process.terminate()
            events_in.close()
            raise
        shard.process = process
        shard.conn = parent_conn
        shard.pid = hello.get("pid")
        shard.listener = threading.Thread(
            target=self._listen, args=(shard, events_in),
            name=f"shard-{shard.config.index}-events", daemon=True)
        shard.listener.start()
        obs_event("shard_up", shard=shard.config.index, pid=shard.pid,
                  reason=reason, replayed=hello.get("replayed", 0))

    def _listen(self, shard: _Shard, events: Any) -> None:
        """Listener thread for one incarnation: pushed lines to waiters."""
        try:
            while True:
                line = events.recv()
                with self._events:
                    if line["id"] in self._waiters:
                        line["shard"] = shard.config.index
                        self._pushed[line["id"]] = line
                        self._events.notify_all()
        except (EOFError, OSError):
            pass  # the incarnation is gone
        finally:
            events.close()
            self._end_epoch(shard)

    def _end_epoch(self, shard: _Shard) -> None:
        """Wake every waiter on ``shard`` to re-check its job."""
        with self._events:
            shard.epoch += 1
            self._events.notify_all()

    def _watch(self) -> None:
        """Monitor thread: respawn dead shards, pump telemetry batches."""
        last_pull = time.monotonic()
        while not self._stopping.is_set():
            for shard in self._shards:
                if self._stopping.is_set():
                    break
                if shard.process is not None and not shard.alive:
                    # A concurrent RPC holding the lock will discover
                    # the death itself and fail over; don't fight it.
                    if shard.lock.acquire(timeout=0.05):
                        try:
                            if not shard.alive and not self._stopping.is_set():
                                self._recover(shard)
                        finally:
                            shard.lock.release()
            if self.telemetry and \
                    time.monotonic() - last_pull >= TELEMETRY_INTERVAL:
                last_pull = time.monotonic()
                self.pull_telemetry()
            self._stopping.wait(0.2)

    def pull_telemetry(self) -> int:
        """Pull one incremental telemetry batch from every live shard.

        Returns the number of batches absorbed. Normally driven by the
        monitor thread; callable directly (tests, ``stop``, chaos
        harnesses) to flush without waiting an interval.
        """
        if not self.telemetry:
            return 0
        absorbed = 0
        for shard in self._shards:
            if self._stopping.is_set() or not shard.alive:
                continue
            try:
                reply = self._call(shard.config.index, "telemetry", {})
            except (ShardError, AdmissionError):
                continue  # dead/respawning shard: its final batch is lost
            batch = reply.get("batch")
            if batch is not None and self.collector.absorb(batch):
                absorbed += 1
        return absorbed

    def _recover(self, shard: _Shard) -> None:
        """Respawn a dead shard on its journal. Caller holds the lock."""
        if shard.process is not None and shard.process.is_alive():
            # Pipe broke but the process lingers: make sure the old
            # incarnation is dead before a new one opens its journal.
            with contextlib.suppress(Exception):
                shard.process.terminate()
                shard.process.join(timeout=5.0)
        exitcode = shard.process.exitcode if shard.process else None
        shard.restarts += 1
        obs_event("shard_crashed", shard=shard.config.index,
                  pid=shard.pid, exitcode=exitcode)
        if shard.conn is not None:
            with contextlib.suppress(Exception):
                shard.conn.close()
        self._spawn(shard, reason="crash")
        self._end_epoch(shard)
        obs_event("shard_restarted", shard=shard.config.index,
                  pid=shard.pid, restarts=shard.restarts)

    def stop(self, drain: Any = True,
             deadline: Optional[float] = None) -> Dict[str, Any]:
        """Stop every shard (RPC first, escalating to terminate)."""
        was_started = self._started
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        summaries: Dict[str, Any] = {"shards": {}, "stopped": True}
        for shard in self._shards:
            with shard.lock:
                summary = None
                if shard.alive:
                    try:
                        shard.conn.send(("stop", {"drain": drain,
                                                  "deadline": deadline}))
                        wait_until = time.monotonic() + (
                            (deadline or 30.0) + 10.0)
                        while not shard.conn.poll(RPC_SLICE):
                            if (time.monotonic() > wait_until
                                    or not shard.alive):
                                break
                        else:
                            reply = shard.conn.recv()
                            if reply.get("ok"):
                                summary = reply.get("summary")
                                if reply.get("batch") is not None:
                                    # The shard's final increment rides
                                    # on its last message.
                                    self.collector.absorb(reply["batch"])
                    except (BrokenPipeError, EOFError, OSError):
                        pass
                if shard.process is not None:
                    shard.process.join(timeout=10.0)
                    if shard.process.is_alive():
                        shard.process.terminate()
                        shard.process.join(timeout=5.0)
                if shard.conn is not None:
                    with contextlib.suppress(Exception):
                        shard.conn.close()
                if shard.listener is not None:
                    shard.listener.join(timeout=5.0)
                summaries["shards"][str(shard.config.index)] = summary
        if self.trace_dir is not None and self.telemetry and was_started:
            # One merged artifact next to the per-shard traces: the
            # whole platform's record stream as a single valid trace.
            # (Guarded on was_started so a second stop() — e.g. the
            # context manager exiting after an explicit stop — cannot
            # rewrite it after the coordinator tracer is gone.)
            from repro.obs import write_trace_jsonl

            with contextlib.suppress(Exception):
                self.trace_dir.mkdir(parents=True, exist_ok=True)
                write_trace_jsonl(
                    self.telemetry_records(),
                    str(self.trace_dir / "merged-trace.jsonl"))
        if self._tracer_ctx is not None:
            self._tracer_ctx.__exit__(None, None, None)
            self._tracer_ctx = None
        self._started = False
        return summaries

    # -- chaos -----------------------------------------------------------
    def kill_shard(self, index: int) -> Optional[int]:
        """SIGKILL one shard process (fault injection; monitor recovers).

        Returns the killed pid, or None if the shard was not running.
        """
        shard = self._shards[index]
        pid = shard.pid if shard.alive else None
        if pid is not None:
            with contextlib.suppress(ProcessLookupError, OSError):
                os.kill(pid, signal.SIGKILL)
        return pid

    # -- routing & RPC ---------------------------------------------------
    def route(self, job_id: str) -> int:
        """Stable shard index for a job id."""
        return zlib.crc32(job_id.encode("utf-8")) % len(self._shards)

    def _call(self, index: int, verb: str,
              payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response against a shard, failing over once.

        If the shard dies mid-call (killed between send and reply), the
        call respawns it and retries: every verb is either read-only or
        an idempotent submission, so at-least-once delivery is sound.
        """
        shard = self._shards[index]
        tracer = current_tracer() if self.telemetry else None
        reply: Optional[Dict[str, Any]] = None
        with shard.lock:
            for attempt in (0, 1):
                if not shard.alive:
                    if self._stopping.is_set():
                        raise ShardError(
                            f"shard {index} unavailable (stopping)")
                    self._recover(shard)
                try:
                    if tracer is not None:
                        payload["_clock"] = tracer.clock
                    shard.conn.send((verb, payload))
                    while not shard.conn.poll(RPC_SLICE):
                        if not shard.alive:
                            raise BrokenPipeError(
                                f"shard {index} died mid-call")
                    reply = shard.conn.recv()
                    break
                except (BrokenPipeError, EOFError, OSError):
                    if attempt == 0 and not self._stopping.is_set():
                        # A freshly SIGKILLed process can report alive
                        # until the OS reaps it — wait out the death so
                        # the retry path sees it and respawns.
                        if shard.process is not None:
                            shard.process.join(timeout=5.0)
                        continue
                    raise ShardError(
                        f"shard {index} died during {verb!r} and "
                        f"failover failed") from None
        if reply is None:  # pragma: no cover - loop always breaks/raises
            raise ShardError(f"shard {index} unreachable")
        if tracer is not None and "_clock" in reply:
            tracer.witness(reply.pop("_clock"))
        if reply.get("ok"):
            return reply
        if reply.get("error") == "AdmissionError":
            raise AdmissionError(reply.get("message", "admission refused"))
        raise ShardError(
            f"shard {index} {verb!r} failed: "
            f"{reply.get('error')}: {reply.get('message')}")

    # -- the service-shaped surface --------------------------------------
    def submit(self, spec_dict: Dict[str, Any],
               options_dict: Optional[Dict[str, Any]] = None, *,
               tenant: Optional[str] = None,
               priority: int = 0,
               corr: Optional[str] = None) -> Dict[str, Any]:
        """Route a submission to its shard; returns the job line."""
        from repro.core.synthesizer import SynthesisOptions
        from repro.io.spec_json import spec_from_dict
        from repro.service.service import job_id_for, options_from_dict

        spec = spec_from_dict(spec_dict)  # validates before routing
        if options_dict:
            effective = options_from_dict(options_dict)
        elif self._shards[0].config.options:
            effective = options_from_dict(self._shards[0].config.options)
        else:
            effective = SynthesisOptions()
        job_id = job_id_for(spec, effective)
        index = self.route(job_id)
        payload: Dict[str, Any] = {"spec": spec_dict, "priority": priority}
        if options_dict:
            payload["options"] = options_dict
        if tenant is not None:
            payload["tenant"] = tenant
        if corr is not None:
            payload["corr"] = corr
        reply = self._call(index, "submit", payload)
        job = dict(reply["job"])
        job["shard"] = index
        return job

    def submit_repair(self, job_id: str, faults) -> Dict[str, Any]:
        """Turn observed faults on a completed job into a repair job.

        Coordinator-side on purpose: the original job line (spec,
        options, corr) is fetched from its owning shard, the spec is
        masked here, and the degraded spec goes through the normal
        :meth:`submit` — so the repair job hashes to its *own* id and
        lands on whichever shard the crc32 ring assigns it, keeping the
        routing invariant (resubmissions and journal replays find the
        same shard). ``faults`` is a list of
        :class:`~repro.sim.faults.ValveFault`s, ``(a, b, kind)``
        triples, or a :class:`~repro.switches.health.HealthMask`. The
        repair inherits the original's correlation ID, tenant and
        priority.
        """
        from repro.io.spec_json import spec_from_dict, switch_to_dict
        from repro.repair.engine import as_mask, mask_spec
        from repro.sim.faults import ValveFault
        from repro.switches.health import HealthMask

        if isinstance(faults, HealthMask):
            mask = faults
        elif faults and isinstance(faults[0], ValveFault):
            mask = as_mask(faults)
        else:
            mask = HealthMask.from_triples(faults)
        original = self.job(job_id)
        spec = mask_spec(spec_from_dict(original["spec"]), mask)
        spec_dict = dict(original["spec"])
        spec_dict["switch"] = switch_to_dict(spec.switch)
        return self.submit(
            spec_dict,
            original.get("options") or None,
            tenant=original.get("tenant"),
            priority=int(original.get("priority") or 0),
            corr=original.get("corr"),
        )

    def job(self, job_id: str) -> Dict[str, Any]:
        """The job line from its owning shard (KeyError if unknown)."""
        index = self.route(job_id)
        try:
            reply = self._call(index, "job", {"id": job_id})
        except ShardError as exc:
            if "unknown job" in str(exc):
                raise KeyError(job_id) from None
            raise
        job = dict(reply["job"])
        job["shard"] = index
        return job

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until a job is terminal; returns its line.

        On timeout, returns the job's current (non-terminal) line.
        Long-polling lives here, coordinator-side, so the shard RPC
        loop never blocks on one caller's patience: the shard pushes
        the terminal line, and a respawn or shutdown of the shard
        (an epoch bump) triggers one re-check RPC.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        shard = self._shards[self.route(job_id)]
        with self._events:
            # Registered before the first RPC, so a push that lands
            # between that RPC and the block below is kept, not lost.
            self._waiters[job_id] = self._waiters.get(job_id, 0) + 1
        try:
            while True:
                with self._events:
                    epoch = shard.epoch
                job = self.job(job_id)
                if job["state"] in TERMINAL_STATES:
                    return job
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return job
                with self._events:
                    self._events.wait_for(
                        lambda: job_id in self._pushed
                        or shard.epoch != epoch, remaining)
                    pushed = self._pushed.get(job_id)
                if pushed is not None:
                    return dict(pushed)
        finally:
            with self._events:
                left = self._waiters[job_id] - 1
                if left:
                    self._waiters[job_id] = left
                else:
                    del self._waiters[job_id]
                    self._pushed.pop(job_id, None)

    #: Numeric per-shard stats that are meaningful summed.
    _SUMMED = ("queue_depth", "in_flight", "shed", "worker_crashes")

    def stats(self) -> Dict[str, Any]:
        """Aggregate per-shard stats plus coordinator-level facts."""
        per_shard: Dict[str, Any] = {}
        totals: Dict[str, int] = {name: 0 for name in self._SUMMED}
        states: Dict[str, int] = {}
        tenants: Dict[str, Dict[str, int]] = {}
        depth_high_water = 0
        latency: Dict[str, Dict[str, Any]] = {}
        for shard in self._shards:
            key = str(shard.config.index)
            try:
                reply = self._call(shard.config.index, "stats", {})
            except ShardError as exc:
                per_shard[key] = {"error": str(exc),
                                  "restarts": shard.restarts}
                continue
            stats = reply["stats"]
            per_shard[key] = {
                "pid": reply.get("pid"),
                "restarts": shard.restarts,
                **stats,
            }
            for name in self._SUMMED:
                totals[name] += int(stats.get(name, 0))
            depth_high_water = max(depth_high_water,
                                   int(stats.get("queue_depth_max", 0)))
            for name, snap in (stats.get("latency") or {}).items():
                merged = latency.get(name)
                if merged is None:
                    latency[name] = dict(snap)
                else:
                    _merge_histogram(merged, snap)
            for state, count in stats.get("jobs", {}).items():
                states[state] = states.get(state, 0) + int(count)
            for tenant, per in stats.get("tenants", {}).items():
                merged = tenants.setdefault(tenant, {})
                for state, count in per.items():
                    merged[state] = merged.get(state, 0) + int(count)
        out = {
            "shards": per_shard,
            "jobs": states,
            "tenants": tenants,
            "restarts": sum(s.restarts for s in self._shards),
            "queue_depth_max": depth_high_water,
            **totals,
        }
        if latency:
            out["latency"] = latency
        if self.telemetry:
            out["telemetry"] = {
                "sources": len(self.collector.sources()),
                "dropped": self.collector.dropped_total(),
                "rejected": self.collector.rejected,
            }
        return out

    # -- telemetry surface ------------------------------------------------
    def telemetry_records(self) -> List[Dict[str, Any]]:
        """One merged ``repro-obs-v1`` stream over every shard batch.

        Includes the coordinator process's own tracer records (when one
        is installed) as a peer stream, so a merged trace shows the
        coordinator's routing/restart events alongside shard spans.
        """
        extra = None
        tracer = current_tracer()
        if tracer is not None:
            extra = [(tracer.name or "coordinator", os.getpid(),
                      tracer.records())]
        return self.collector.merged(extra=extra)

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Latest per-stream metric snapshots, keyed ``source@pid``.

        The coordinator's own registry (when a tracer is installed)
        appears as one more stream, so ``/metrics`` exposes parent-side
        counters next to shard-side ones. Pulls a fresh batch first so
        a scrape always reflects the shards' current totals rather
        than the last monitor-interval snapshot.
        """
        self.pull_telemetry()
        sources = self.collector.metrics_by_source()
        tracer = current_tracer()
        if tracer is not None:
            name = tracer.name or "coordinator"
            sources[f"{name}@{os.getpid()}"] = tracer.metrics.snapshot()
        return sources

    def job_trace(self, job_id: str) -> List[Dict[str, Any]]:
        """Flight-recorder trace for a recent job (KeyError if absent).

        ``job_id`` may be a bare job id or a full correlation ID. Pulls
        a fresh batch first so a job that just finished is visible
        without waiting out the telemetry interval.
        """
        self.pull_telemetry()
        records = self.collector.flight.trace(job_id)
        if records is None:
            raise KeyError(job_id)
        return records

    def health(self) -> Dict[str, Any]:
        """Rolled-up liveness: ok iff every shard is live and ready."""
        shard_health: Dict[str, Any] = {}
        ok = True
        for shard in self._shards:
            key = str(shard.config.index)
            try:
                reply = self._call(shard.config.index, "health", {})
            except ShardError as exc:
                shard_health[key] = {"live": False, "ready": False,
                                     "reason": str(exc)}
                ok = False
                continue
            info = dict(reply["health"])
            info["pid"] = reply.get("pid")
            info["restarts"] = shard.restarts
            shard_health[key] = info
            ok = ok and bool(info.get("live")) and bool(info.get("ready"))
        return {"ok": ok, "shards": shard_health}


__all__ = ["ShardCoordinator", "ShardError", "pick_context",
           "SPAWN_DEADLINE", "TELEMETRY_INTERVAL"]
