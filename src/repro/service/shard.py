"""One shard of the synthesis platform: a service in its own process.

A shard is a whole :class:`~repro.service.service.SynthesisService` —
journal, queue, breakers, worker threads — running in a child process
and driven over a :mod:`multiprocessing` pipe by the
:class:`~repro.service.coordinator.ShardCoordinator`. The process
boundary is the point: a shard can be SIGKILLed (by chaos tests, the
OOM killer, or a deploy) without taking the coordinator or its
siblings down, and its own write-ahead journal replays every
non-terminal job when the coordinator respawns it.

The wire protocol is deliberately tiny — request/response tuples
``(verb, payload)`` answered by one dict each, handled strictly in
order by the shard's main thread (the service's worker threads do the
actual solving, so the RPC loop stays responsive while jobs run):

=========  =======================================================
verb       payload → reply
=========  =======================================================
submit     ``{"spec", "options"?, "tenant"?, "priority"?, "corr"?}``
           → ``{"ok": True, "job": <job line>}``
job        ``{"id"}`` → ``{"ok": True, "job": <job line>}``
stats      ``{}`` → ``{"ok": True, "stats", "pid"}``
health     ``{}`` → ``{"ok": True, "health", "pid"}``
telemetry  ``{}`` → ``{"ok": True, "batch": <telemetry batch>}``
           (incremental: records since the previous pull)
stop       ``{"drain", "deadline"?}`` → ``{"ok": True, "summary",
           "batch"?}`` (the reply is the shard's last message,
           carrying its final telemetry batch; it then exits)
=========  =======================================================

A second, one-way pipe carries pushes in the other direction:

=========  =======================================================
pipe       shard → coordinator, never answered
=========  =======================================================
events     one ``<job line>`` per terminal transition, sent the
           moment a job turns ``done``/``degraded``/``failed``; the
           coordinator wakes that job's waiters on it. EOF means the
           incarnation is gone.
=========  =======================================================

The service's terminal hook only enqueues the line; a sender thread
does the pipe write, so a slow reader can stall neither the service's
workers (which hold its lock while transitioning) nor the RPC loop.

Every payload may carry a ``_clock`` key — the coordinator's logical
clock, witnessed by the shard's tracer so merged cross-process traces
order causally-related records consistently (see
:mod:`repro.obs.telemetry`).

Failures inside a handler never kill the loop: they come back as
``{"ok": False, "error": <type name>, "message": ...}`` and the
coordinator re-raises the matching exception. A shard that loses its
pipe (the coordinator died) drains in-flight work and exits — the
journal keeps the rest.

Spawn-safety: :func:`shard_main` is a module-level entry point and
:class:`ShardConfig` is a plain picklable dataclass, so shards start
under the ``spawn`` context (the default — respawning from the
coordinator's monitor thread must not fork a threaded process) as well
as ``fork`` (``REPRO_SERVICE_CTX=fork`` for faster starts where safe).
"""

from __future__ import annotations

import contextlib
import os
import queue
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.service.backoff import Backoff

#: Environment override for the shard process start method
#: (``spawn``/``fork``/``forkserver``); empty picks the default.
CTX_ENV = "REPRO_SERVICE_CTX"


@dataclass
class ShardConfig:
    """Everything a shard process needs to build its service.

    Must stay picklable under the ``spawn`` start method: plain
    values, dicts (the ``options_to_dict`` form, not the dataclass)
    and a :class:`repro.store.Store` (which pickles by configuration,
    so every shard shares the same on-disk cache).
    """

    index: int
    journal: str
    workers: int = 2
    queue_size: int = 256
    #: ``options_to_dict`` form of the shard's default options.
    options: Dict[str, Any] = field(default_factory=dict)
    backends: Optional[List[str]] = None
    max_attempts: int = 3
    #: Constructor kwargs for the shard's :class:`Backoff` policy.
    backoff: Dict[str, Any] = field(default_factory=dict)
    breaker_threshold: int = 3
    breaker_reset: float = 5.0
    store: Optional[Any] = None
    tenant_quota: Optional[int] = None
    #: Where to write this shard's obs trace on stop (None = no trace).
    trace: Optional[str] = None
    #: Ship spans/events/metrics to the coordinator over the pipe.
    #: Default-on: the shard tracer is bounded, so an idle telemetry
    #: plane costs a few KB, and turning it off would silently blind
    #: ``/metrics`` and per-job flight recorders for this shard.
    telemetry: bool = True


def build_service(config: ShardConfig):
    """The shard's :class:`SynthesisService`, built from its config."""
    from repro.service.service import SynthesisService, options_from_dict

    return SynthesisService(
        config.journal,
        workers=config.workers,
        queue_size=config.queue_size,
        options=options_from_dict(config.options) if config.options else None,
        backends=config.backends,
        max_attempts=config.max_attempts,
        backoff=Backoff(**config.backoff),
        breaker_threshold=config.breaker_threshold,
        breaker_reset=config.breaker_reset,
        store=config.store,
        tenant_quota=config.tenant_quota,
        instance=f"shard-{config.index}",
    )


def _handle(service, verb: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.synthesizer import SynthesisOptions
    from repro.io.spec_json import spec_from_dict
    from repro.service.service import options_from_dict

    if verb == "submit":
        spec = spec_from_dict(payload["spec"])
        options: Optional[SynthesisOptions] = None
        if payload.get("options"):
            options = options_from_dict(payload["options"])
        job_id = service.submit(spec, options,
                                tenant=payload.get("tenant"),
                                priority=int(payload.get("priority", 0)),
                                corr=payload.get("corr"))
        return {"ok": True, "job": service.job(job_id).to_line()}
    if verb == "job":
        return {"ok": True, "job": service.job(payload["id"]).to_line()}
    if verb == "stats":
        return {"ok": True, "stats": service.stats(), "pid": os.getpid()}
    if verb == "health":
        return {"ok": True, "health": service.health(), "pid": os.getpid()}
    raise ReproError(f"unknown shard RPC verb {verb!r}")


def _push_terminal(outbox: "queue.SimpleQueue", events) -> None:
    """Sender thread: forward terminal job lines until the None sentinel."""
    while True:
        line = outbox.get()
        if line is None:
            return
        try:
            events.send(line)
        except (BrokenPipeError, OSError):
            return  # coordinator gone; the journal keeps the outcome


def shard_main(config: ShardConfig, conn, events) -> None:
    """Child-process entry point: serve RPCs until ``stop`` or EOF.

    ``conn`` is the request/response pipe; ``events`` is the write end
    of the one-way terminal-event pipe.
    """
    # The coordinator owns signal-driven shutdown and talks to shards
    # over the pipe; a terminal Ctrl-C is delivered to the whole
    # foreground process group, and a shard that died on it would turn
    # every interactive interrupt into a (recoverable, but noisy)
    # crash-and-replay instead of a graceful drain.
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)

    tracer = None
    shipper = None
    if config.trace or config.telemetry:
        from repro.obs import Tracer

        tracer = Tracer(f"shard-{config.index}")
        if config.telemetry:
            from repro.obs.telemetry import TelemetryShipper

            shipper = TelemetryShipper(tracer, source=f"shard-{config.index}")

    from repro.obs.trace import use_tracer

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        service = build_service(config)
        outbox: "queue.SimpleQueue" = queue.SimpleQueue()
        service.on_terminal = outbox.put
        sender = threading.Thread(target=_push_terminal,
                                  args=(outbox, events),
                                  name="shard-events", daemon=True)
        sender.start()
        service.start()
        conn.send({"ok": True, "up": True, "pid": os.getpid(),
                   "index": config.index,
                   "replayed": sum(1 for j in service.jobs.values()
                                   if not j.terminal)})
        stopped = False
        try:
            while True:
                try:
                    if not conn.poll(0.2):
                        continue
                    message = conn.recv()
                except (EOFError, OSError):
                    break  # coordinator died; drain and exit
                verb, payload = message
                if tracer is not None and isinstance(payload, dict) \
                        and "_clock" in payload:
                    tracer.witness(payload.pop("_clock"))
                if verb == "telemetry":
                    reply: Dict[str, Any] = {"ok": True}
                    if shipper is not None:
                        reply["batch"] = shipper.collect()
                    try:
                        conn.send(reply)
                    except (BrokenPipeError, OSError):
                        break
                    continue
                if verb == "stop":
                    summary = service.stop(
                        drain=payload.get("drain", True),
                        deadline=payload.get("deadline"))
                    stopped = True
                    reply = {"ok": True, "summary": summary}
                    if shipper is not None:
                        # Final incremental batch: spans/events emitted
                        # since the last periodic pull (drain included).
                        reply["batch"] = shipper.collect()
                    with contextlib.suppress(OSError):
                        conn.send(reply)
                    break
                try:
                    reply = _handle(service, verb, payload)
                except Exception as exc:
                    reply = {"ok": False, "error": type(exc).__name__,
                             "message": str(exc)}
                if tracer is not None:
                    reply["_clock"] = tracer.clock
                try:
                    conn.send(reply)
                except (BrokenPipeError, OSError):
                    break
        finally:
            if not stopped:
                # Orphaned (coordinator gone): finish what is on a
                # worker, journal the rest for the next incarnation.
                with contextlib.suppress(Exception):
                    service.stop(drain="inflight", deadline=10.0)
            outbox.put(None)
            sender.join(timeout=5.0)
            events.close()
            if tracer is not None and config.trace:
                from repro.obs import write_trace_jsonl

                with contextlib.suppress(Exception):
                    write_trace_jsonl(tracer, config.trace)


__all__ = ["CTX_ENV", "ShardConfig", "build_service", "shard_main"]
