"""Tests for the sharded HTTP synthesis platform (coordinator + API).

Everything here crosses real process boundaries: shard processes are
spawned, SIGKILLed and respawned, and the HTTP tier is driven through
actual sockets with the stdlib client helpers. Specs stay tiny so the
suite's cost is process startup, not solving.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cases import generate_case
from repro.core import BindingPolicy
from repro.errors import AdmissionError
from repro.io import spec_to_dict
from repro.service import (
    HTTPServiceError,
    ServiceHTTPServer,
    ShardCoordinator,
    fetch_job,
    replay_journal,
    submit_job,
    validate_journal,
    wait_job,
)

OPTS = {"time_limit": 30}


def small_spec(seed=0):
    return generate_case(seed=seed, switch_size=8, n_flows=2, n_inlets=2,
                         n_conflicts=0, binding=BindingPolicy.FIXED)


def platform(tmp_path, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("options", OPTS)
    return ShardCoordinator(str(tmp_path / "platform"), **kwargs)


def get_json(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


# ----------------------------------------------------------------------
# round trip, routing, dedup
# ----------------------------------------------------------------------
def test_platform_http_round_trip_across_shards(tmp_path):
    specs = [small_spec(s) for s in range(4)]
    with platform(tmp_path) as coord:
        with ServiceHTTPServer(coord) as server:
            jobs = [submit_job(server.url, spec_to_dict(s)) for s in specs]
            # the fingerprint hash spreads jobs over both shards
            assert {j["shard"] for j in jobs} == {0, 1}
            # resubmission routes to the same shard and dedups there
            again = submit_job(server.url, spec_to_dict(specs[0]))
            assert (again["id"], again["shard"]) == (jobs[0]["id"],
                                                     jobs[0]["shard"])
            finals = [wait_job(server.url, j["id"], timeout=180)
                      for j in jobs]
            assert all(f["state"] == "done" for f in finals)
            status, health = get_json(server.url + "/health")
            assert status == 200 and health["ok"]
            status, stats = get_json(server.url + "/stats")
            assert stats["jobs"] == {"done": 4}
            assert stats["restarts"] == 0
            assert set(stats["shards"]) == {"0", "1"}
    for index in range(2):
        counts = validate_journal(tmp_path / "platform"
                                  / f"shard-{index}.jsonl")
        assert set(counts) == {"done"}


def test_platform_routing_is_stable(tmp_path):
    with platform(tmp_path) as coord:
        job = coord.submit(spec_to_dict(small_spec()))
        assert coord.route(job["id"]) == job["shard"]
        # the same id maps to the same shard forever
        assert coord.route(job["id"]) == coord.route(job["id"])
        coord.wait(job["id"], timeout=180)


# ----------------------------------------------------------------------
# crash recovery: SIGKILL a whole shard mid-run
# ----------------------------------------------------------------------
def test_platform_survives_shard_sigkill_exactly_once(tmp_path):
    specs = [small_spec(s) for s in range(6)]
    with platform(tmp_path) as coord:
        ids = [coord.submit(spec_to_dict(s))["id"] for s in specs]
        assert len({coord.route(i) for i in ids}) == 2  # both shards hit
        time.sleep(0.3)  # let some work start
        killed_pid = coord.kill_shard(0)
        assert killed_pid is not None
        finals = {i: coord.wait(i, timeout=240)["state"] for i in ids}
        assert all(state == "done" for state in finals.values()), finals
        stats = coord.stats()
        assert stats["restarts"] >= 1
        assert stats["shards"]["0"]["pid"] != killed_pid  # fresh process
    # exactly-once completion survives the kill: validate_journal raises
    # on any double terminal transition.
    totals = {}
    for index in range(2):
        for state, count in validate_journal(
                tmp_path / "platform" / f"shard-{index}.jsonl").items():
            totals[state] = totals.get(state, 0) + count
    assert totals == {"done": 6}


def test_platform_query_fails_over_during_kill(tmp_path):
    """A job RPC caught mid-crash retries against the respawned shard
    instead of surfacing a broken pipe."""
    spec = small_spec()
    with platform(tmp_path) as coord:
        job = coord.submit(spec_to_dict(spec))
        coord.kill_shard(job["shard"])
        # immediately query the killed shard: must fail over, not raise
        seen = coord.job(job["id"])
        assert seen["id"] == job["id"]
        assert coord.wait(job["id"], timeout=180)["state"] == "done"


# ----------------------------------------------------------------------
# cross-shard store dedup (and resharding)
# ----------------------------------------------------------------------
def test_platform_store_dedup_across_resharding(tmp_path):
    """A result solved under one shard layout completes at admission
    under another: the shared store is the cross-shard memory."""
    spec = small_spec()
    store = tmp_path / "store"
    with ShardCoordinator(str(tmp_path / "one"), shards=1, workers=1,
                          options=OPTS, store=str(store)) as coord:
        job = coord.submit(spec_to_dict(spec))
        done = coord.wait(job["id"], timeout=180)
        assert done["state"] == "done"
        assert done["attempts"] == 1

    with ShardCoordinator(str(tmp_path / "three"), shards=3, workers=1,
                          options=OPTS, store=str(store)) as coord:
        with ServiceHTTPServer(coord) as server:
            hit = submit_job(server.url, spec_to_dict(spec))
            # Tier-A admission hit: journaled straight to done on the
            # (possibly different) owning shard — no queue, no worker.
            assert hit["id"] == job["id"]
            assert hit["state"] == "done"
            assert hit["attempts"] == 0
    owning = None
    for index in range(3):
        path = tmp_path / "three" / f"shard-{index}.jsonl"
        if path.exists() and replay_journal(path).jobs:
            owning = validate_journal(path)
    assert owning == {"done": 1}


# ----------------------------------------------------------------------
# HTTP error mapping, quotas, long-poll
# ----------------------------------------------------------------------
def test_http_rejects_malformed_submissions(tmp_path):
    with platform(tmp_path, shards=1) as coord:
        with ServiceHTTPServer(coord) as server:
            for body in (b"not json", b"[1,2]",
                         json.dumps({"options": {}}).encode(),
                         json.dumps({"spec": "nope"}).encode()):
                request = urllib.request.Request(
                    server.url + "/jobs", data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST")
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(request)
                assert err.value.code == 400
            with pytest.raises(HTTPServiceError) as exc:
                submit_job(server.url, {"name": "x", "garbage": True})
            assert exc.value.status == 400


def test_http_unknown_job_and_route_are_404(tmp_path):
    with platform(tmp_path, shards=1) as coord:
        with ServiceHTTPServer(coord) as server:
            with pytest.raises(HTTPServiceError) as exc:
                fetch_job(server.url, "deadbeef-deadbeef")
            assert exc.value.status == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope")
            assert err.value.code == 404


def test_http_tenant_quota_sheds_with_429(tmp_path):
    """One tenant at quota gets 429; the shed job is never journaled."""
    # a deliberately heavier case keeps the single worker busy while
    # the backlog builds up behind it
    blocker = generate_case(seed=9, switch_size=12, n_flows=6, n_inlets=4,
                            n_conflicts=2, binding=BindingPolicy.UNFIXED)
    queued = [small_spec(s) for s in range(2)]
    with platform(tmp_path, shards=1, workers=1,
                  options={"time_limit": 8},
                  tenant_quota=1) as coord:
        with ServiceHTTPServer(coord) as server:
            submit_job(server.url, spec_to_dict(blocker))  # occupies worker
            time.sleep(0.5)
            first = submit_job(server.url, spec_to_dict(queued[0]),
                               tenant="alice")
            with pytest.raises(HTTPServiceError) as exc:
                submit_job(server.url, spec_to_dict(queued[1]),
                           tenant="alice")
            assert exc.value.status == 429
            assert "quota" in str(exc.value)
            # bob is not throttled by alice's backlog
            other = submit_job(server.url, spec_to_dict(queued[1]),
                               tenant="bob")
            for job in (first, other):
                assert wait_job(server.url, job["id"],
                                timeout=180)["state"] in ("done", "degraded")
    jobs = replay_journal(tmp_path / "platform" / "shard-0.jsonl").jobs
    # the shed submission was refused before journaling (WAL order)
    assert len(jobs) == 3


def test_http_long_poll_returns_terminal_state(tmp_path):
    spec = small_spec()
    with platform(tmp_path, shards=1) as coord:
        with ServiceHTTPServer(coord) as server:
            job = submit_job(server.url, spec_to_dict(spec))
            # one server-side long-poll observes the terminal state
            final = fetch_job(server.url, job["id"], wait=30)
            assert final["state"] == "done"
            assert final["row"]["case"] == spec.name


# ----------------------------------------------------------------------
# push-based wait: terminal lines arrive on the shard's event pipe
# ----------------------------------------------------------------------
LONG_OPTS = {"time_limit": 1}


def long_spec():
    """A 12-pin UNFIXED case that holds its worker for about 1.5 s."""
    return generate_case(seed=1, switch_size=12, n_flows=4, n_inlets=3,
                         n_conflicts=2, binding=BindingPolicy.UNFIXED)


def count_job_rpcs(coord):
    """Wrap the coordinator's RPC helper; returns the live counter."""
    counts = {"job": 0}
    call = coord._call

    def counting(index, verb, payload):
        if verb == "job":
            counts["job"] += 1
        return call(index, verb, payload)

    coord._call = counting
    return counts


def assert_no_waiters(coord):
    assert coord._waiters == {}
    assert coord._pushed == {}


def test_wait_is_woken_by_push_not_polling(tmp_path):
    with platform(tmp_path, shards=1, options=LONG_OPTS) as coord:
        job = coord.submit(spec_to_dict(long_spec()))
        counts = count_job_rpcs(coord)
        start = time.monotonic()
        final = coord.wait(job["id"], timeout=120)
        assert final["state"] in ("done", "degraded", "failed")
        assert time.monotonic() - start >= 0.5  # it really was running
        # one RPC to register, then the push answers: polling every
        # 50 ms would make about 20 RPCs per second of solve
        assert counts["job"] <= 2, counts
        assert final == coord.job(job["id"])  # same JSON as a GET
        assert_no_waiters(coord)


def test_wait_survives_sigkill_of_the_jobs_shard(tmp_path):
    with platform(tmp_path, shards=1, options=LONG_OPTS) as coord:
        job = coord.submit(spec_to_dict(long_spec()))
        out = {}

        def waiter():
            start = time.monotonic()
            out["line"] = coord.wait(job["id"], timeout=120)
            out["elapsed"] = time.monotonic() - start

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.5)  # the waiter is blocked, the job is running
        assert coord.kill_shard(0) is not None
        thread.join(timeout=90)
        assert not thread.is_alive(), "waiter never woke after the kill"
        assert out["line"]["state"] in ("done", "degraded", "failed")
        assert out["elapsed"] < 60
        assert coord.stats()["restarts"] >= 1
        assert_no_waiters(coord)


def test_wait_timeout_returns_current_line_and_cleans_up(tmp_path):
    with platform(tmp_path, shards=1, options=LONG_OPTS) as coord:
        job = coord.submit(spec_to_dict(long_spec()))
        start = time.monotonic()
        line = coord.wait(job["id"], timeout=0.3)
        assert time.monotonic() - start >= 0.3
        assert line["state"] not in ("done", "degraded", "failed")
        assert line["id"] == job["id"] and line["shard"] == 0
        assert_no_waiters(coord)
        coord.wait(job["id"], timeout=120)
        assert_no_waiters(coord)


def test_two_waiters_on_one_job_both_get_the_terminal_line(tmp_path):
    with platform(tmp_path, shards=1, options=LONG_OPTS) as coord:
        job = coord.submit(spec_to_dict(long_spec()))
        with ThreadPoolExecutor(2) as pool:
            lines = list(pool.map(
                lambda _: coord.wait(job["id"], timeout=120), range(2)))
        assert all(line["state"] in ("done", "degraded", "failed")
                   for line in lines)
        assert lines[0] == lines[1]
        assert_no_waiters(coord)


def test_many_waiters_under_fast_thread_switching(tmp_path):
    """Stress the register/check/block race: 18 waiter threads over 6
    jobs on 2 shards, with the interpreter switching threads every
    10 us. A lost wakeup leaves a waiter holding a non-terminal line
    at its timeout; a bookkeeping race leaves an entry behind."""
    specs = [small_spec(s) for s in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with platform(tmp_path) as coord:
            ids = [coord.submit(spec_to_dict(s))["id"] for s in specs]
            with ThreadPoolExecutor(len(ids) * 3) as pool:
                lines = list(pool.map(
                    lambda i: coord.wait(i, timeout=60), ids * 3))
            assert [line["id"] for line in lines] == ids * 3
            assert all(line["state"] == "done" for line in lines)
            assert_no_waiters(coord)
    finally:
        sys.setswitchinterval(interval)


def test_coordinator_surfaces_admission_error_directly(tmp_path):
    """Library callers (no HTTP) get the same AdmissionError a local
    service would raise, propagated across the process boundary."""
    blocker = generate_case(seed=9, switch_size=12, n_flows=6, n_inlets=4,
                            n_conflicts=2, binding=BindingPolicy.UNFIXED)
    with platform(tmp_path, shards=1, workers=1,
                  options={"time_limit": 8}, tenant_quota=1) as coord:
        coord.submit(spec_to_dict(blocker))
        time.sleep(0.5)
        coord.submit(spec_to_dict(small_spec(0)), tenant="alice")
        with pytest.raises(AdmissionError, match="quota"):
            coord.submit(spec_to_dict(small_spec(1)), tenant="alice")
