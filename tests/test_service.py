"""Tests for the reproduction service: JobManager + the HTTP front-end.

Covers the service PR's tentpole contract: submission and result
retrieval, request coalescing keyed on the engine cache key (two
concurrent identical submissions observe exactly ONE computation — the
engine task counter is asserted), bounded-queue backpressure
(:class:`QueueFull` / HTTP 429), per-client token-bucket rate limiting,
cancellation of queued and running jobs (propagating into every
execution backend), the append-only event stream, and the stdlib HTTP
endpoints end-to-end on a real socket.

No ``pytest-asyncio`` in the environment: each test drives its own loop
through ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time

import pytest

from repro.engine import ExperimentRegistry
from repro.service import (
    JobCancelled,
    JobManager,
    JobState,
    QueueFull,
    RateLimited,
    RateLimiter,
    ServiceServer,
    request,
)

#: Engine options keeping every test job fast, deterministic and diskless.
FAST_ENGINE = {"use_cache": False, "backend": "sequential", "jobs": 1}


def _cube(x):
    return x**3


def _gated_task(marker_dir: str, index: int, gate: str, timeout: float = 30.0):
    with open(os.path.join(marker_dir, f"ran-{index}"), "w"):
        pass
    gate_path = os.path.join(marker_dir, gate)
    deadline = time.time() + timeout
    while not os.path.exists(gate_path) and time.time() < deadline:
        time.sleep(0.01)
    return index


def make_counting_runner(record, started=None, release=None, tasks=5):
    """A runner that counts its invocations and computes through the engine."""

    def runner(engine, seed=None, batch_size=None, full=False, stats=None,
               topology=None, tuning=None, benchmarks=None, routing=None):
        record["runs"] += 1
        if started is not None:
            started.set()
        if release is not None:
            release.wait(timeout=30.0)
        values = engine.map_calls(
            _cube, [{"x": i} for i in range(tasks)], name="svc.cube"
        )
        total = sum(values)
        return {"total": total}, f"total={total}"

    return runner


def make_registry(*entries):
    registry = ExperimentRegistry()
    for name, runner in entries:
        registry.register(name, f"{name} (service test)", runner)
    return registry


async def poll_until(predicate, timeout=15.0, message="condition not met"):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, message
        await asyncio.sleep(0.01)


class TestSubmitAndResult:
    def test_submit_runs_and_returns_result(self):
        record = {"runs": 0}
        registry = make_registry(("toy", make_counting_runner(record)))

        async def scenario():
            async with JobManager(
                registry, workers=2, engine_options=FAST_ENGINE
            ) as manager:
                handle = await manager.submit("toy", {"seed": 1})
                assert not handle.coalesced
                result, text = await handle.result(timeout=30)
                return handle, result, text, manager.status(handle.id), manager.stats()

        handle, result, text, status, stats = asyncio.run(scenario())
        assert record["runs"] == 1
        assert result == {"total": sum(i**3 for i in range(5))}
        assert text == f"total={sum(i ** 3 for i in range(5))}"
        assert status["state"] == "succeeded"
        assert status["attempts"] == 1
        assert status["engine"]["tasks_executed"] == 5
        assert status["finished"] >= status["started"] >= status["created"]
        assert stats["submitted"] == 1 and stats["succeeded"] == 1

    def test_unknown_experiment_has_did_you_mean(self):
        registry = make_registry(("toy", make_counting_runner({"runs": 0})))

        async def scenario():
            async with JobManager(registry, engine_options=FAST_ENGINE) as manager:
                with pytest.raises(KeyError, match="toy"):
                    await manager.submit("toyy")

        asyncio.run(scenario())

    def test_bad_params_rejected_before_queueing(self):
        registry = make_registry(("toy", make_counting_runner({"runs": 0})))

        async def scenario():
            async with JobManager(registry, engine_options=FAST_ENGINE) as manager:
                with pytest.raises(ValueError, match="sed"):
                    await manager.submit("toy", {"sed": 1})
                assert manager.stats()["jobs_known"] == 0

        asyncio.run(scenario())

    def test_wait_timeout(self):
        started = threading.Event()
        release = threading.Event()
        record = {"runs": 0}
        registry = make_registry(
            ("slow", make_counting_runner(record, started, release))
        )

        async def scenario():
            async with JobManager(registry, engine_options=FAST_ENGINE) as manager:
                handle = await manager.submit("slow")
                with pytest.raises(asyncio.TimeoutError):
                    await manager.wait(handle.id, timeout=0.05)
                release.set()
                await handle.wait(timeout=30)

        asyncio.run(scenario())


class TestCoalescing:
    def test_identical_submissions_share_one_computation(self):
        """Two concurrent identical submissions -> one job, one runner
        invocation, one engine computation (task counter asserted)."""
        started = threading.Event()
        release = threading.Event()
        record = {"runs": 0}
        registry = make_registry(
            ("slow", make_counting_runner(record, started, release, tasks=7))
        )

        async def scenario():
            async with JobManager(
                registry, workers=2, engine_options=FAST_ENGINE
            ) as manager:
                first = await manager.submit("slow", {"seed": 3}, client="a")
                await poll_until(started.is_set, message="job never started")
                second = await manager.submit("slow", {"seed": 3}, client="b")
                assert second.coalesced and not first.coalesced
                assert second.id == first.id
                assert first.job.submissions == 2
                release.set()
                result_a = await first.result(timeout=30)
                result_b = await second.result(timeout=30)
                return result_a, result_b, manager.status(first.id), manager.stats()

        result_a, result_b, status, stats = asyncio.run(scenario())
        assert record["runs"] == 1, "coalesced submission re-ran the computation"
        assert result_a == result_b
        assert status["submissions"] == 2
        # The engine task counter: exactly one computation's worth of tasks.
        assert status["engine"]["tasks_executed"] == 7
        assert stats["submitted"] == 2 and stats["coalesced"] == 1
        assert stats["succeeded"] == 1

    def test_different_params_do_not_coalesce(self):
        record = {"runs": 0}
        registry = make_registry(("toy", make_counting_runner(record)))

        async def scenario():
            async with JobManager(
                registry, workers=2, engine_options=FAST_ENGINE
            ) as manager:
                first = await manager.submit("toy", {"seed": 1})
                second = await manager.submit("toy", {"seed": 2})
                assert second.id != first.id and not second.coalesced
                await first.result(timeout=30)
                await second.result(timeout=30)

        asyncio.run(scenario())
        assert record["runs"] == 2

    def test_none_params_normalize_away(self):
        started = threading.Event()
        release = threading.Event()
        record = {"runs": 0}
        registry = make_registry(
            ("slow", make_counting_runner(record, started, release))
        )

        async def scenario():
            async with JobManager(registry, engine_options=FAST_ENGINE) as manager:
                first = await manager.submit("slow", {"seed": 5, "topology": None})
                await poll_until(started.is_set)
                second = await manager.submit("slow", {"seed": 5})
                assert second.coalesced and second.id == first.id
                release.set()
                await first.wait(timeout=30)

        asyncio.run(scenario())

    def test_completed_jobs_do_not_coalesce_new_submissions(self):
        record = {"runs": 0}
        registry = make_registry(("toy", make_counting_runner(record)))

        async def scenario():
            async with JobManager(registry, engine_options=FAST_ENGINE) as manager:
                first = await manager.submit("toy", {"seed": 1})
                await first.result(timeout=30)
                second = await manager.submit("toy", {"seed": 1})
                assert not second.coalesced and second.id != first.id
                await second.result(timeout=30)

        asyncio.run(scenario())
        assert record["runs"] == 2  # no cache in FAST_ENGINE: both computed


class TestBackpressure:
    def test_queue_full_rejects_with_backpressure(self):
        started = threading.Event()
        release = threading.Event()
        registry = make_registry(
            ("slow", make_counting_runner({"runs": 0}, started, release))
        )

        async def scenario():
            async with JobManager(
                registry, workers=1, queue_size=1, engine_options=FAST_ENGINE
            ) as manager:
                running = await manager.submit("slow", {"seed": 1})
                await poll_until(started.is_set, message="job never started")
                queued = await manager.submit("slow", {"seed": 2})
                with pytest.raises(QueueFull, match="full"):
                    await manager.submit("slow", {"seed": 3})
                assert manager.stats()["rejected_queue_full"] == 1
                # Coalescing onto live jobs still works while the queue is
                # full: it adds no queue entry.
                again = await manager.submit("slow", {"seed": 1})
                assert again.coalesced and again.id == running.id
                release.set()
                await running.result(timeout=30)
                await queued.result(timeout=30)

        asyncio.run(scenario())


class TestRateLimiting:
    def test_per_client_token_bucket(self):
        clock = {"now": 0.0}
        limiter = RateLimiter(rate=1.0, burst=2.0, clock=lambda: clock["now"])
        record = {"runs": 0}
        registry = make_registry(("toy", make_counting_runner(record)))

        async def scenario():
            async with JobManager(
                registry, workers=2, engine_options=FAST_ENGINE, limiter=limiter
            ) as manager:
                a = await manager.submit("toy", {"seed": 1}, client="alice")
                b = await manager.submit("toy", {"seed": 2}, client="alice")
                with pytest.raises(RateLimited) as excinfo:
                    await manager.submit("toy", {"seed": 3}, client="alice")
                assert excinfo.value.client == "alice"
                assert 0.0 < excinfo.value.retry_after <= 1.0
                # An independent client has its own bucket.
                c = await manager.submit("toy", {"seed": 3}, client="bob")
                # Refill: one second buys one token.
                clock["now"] = 1.0
                d = await manager.submit("toy", {"seed": 4}, client="alice")
                for handle in (a, b, c, d):
                    await handle.result(timeout=30)
                assert manager.stats()["rejected_rate_limited"] == 1

        asyncio.run(scenario())


class TestCancellation:
    def test_cancel_queued_job_never_runs(self):
        started = threading.Event()
        release = threading.Event()
        record = {"runs": 0}
        registry = make_registry(
            ("slow", make_counting_runner(record, started, release))
        )

        async def scenario():
            async with JobManager(
                registry, workers=1, queue_size=4, engine_options=FAST_ENGINE
            ) as manager:
                running = await manager.submit("slow", {"seed": 1})
                await poll_until(started.is_set)
                queued = await manager.submit("slow", {"seed": 2})
                assert await queued.cancel()
                assert queued.state is JobState.CANCELLED
                with pytest.raises(JobCancelled):
                    await queued.result(timeout=5)
                assert not await queued.cancel()  # already terminal
                release.set()
                await running.result(timeout=30)

        asyncio.run(scenario())
        assert record["runs"] == 1  # the cancelled job never executed

    @pytest.mark.parametrize(
        "backend", ("sequential", "threads", "processes", "shared-memory")
    )
    def test_cancel_running_job_stops_remaining_batches(self, backend, tmp_path):
        """Service cancel -> engine CancelToken -> every backend stops
        scheduling; the tail tasks never execute."""
        marker_dir = str(tmp_path)

        def runner(engine, seed=None, batch_size=None, full=False, stats=None,
                   topology=None, tuning=None, benchmarks=None, routing=None):
            kwargs = [
                {
                    "marker_dir": marker_dir,
                    "index": i,
                    "gate": "go-first" if i == 0 else "go-rest",
                }
                for i in range(8)
            ]
            values = engine.map_calls(_gated_task, kwargs, name="svc.gated")
            return {"values": values}, "done"

        registry = make_registry(("gated", runner))
        engine_options = {"use_cache": False, "backend": backend, "jobs": 1}

        async def scenario():
            async with JobManager(
                registry, workers=1, engine_options=engine_options
            ) as manager:
                handle = await manager.submit("gated")
                await poll_until(
                    lambda: (tmp_path / "ran-0").exists(),
                    message="first task never started",
                )
                assert await handle.cancel()
                (tmp_path / "go-first").write_text("")
                await asyncio.sleep(0.5)
                (tmp_path / "go-rest").write_text("")
                job = await handle.wait(timeout=60)
                assert job.state is JobState.CANCELLED
                with pytest.raises(JobCancelled):
                    await handle.result(timeout=5)
                return manager.status(handle.id)

        status = asyncio.run(scenario())
        assert status["state"] == "cancelled"
        assert status["attempts"] == 1  # cancellation is never retried
        ran = {int(p.name.split("-")[1]) for p in tmp_path.glob("ran-*")}
        assert 0 in ran
        assert ran.isdisjoint({4, 5, 6, 7}), f"tail tasks ran: {sorted(ran)}"

    def test_stop_cancels_live_jobs(self):
        started = threading.Event()
        release = threading.Event()
        registry = make_registry(
            ("slow", make_counting_runner({"runs": 0}, started, release))
        )

        async def scenario():
            manager = JobManager(registry, workers=1, engine_options=FAST_ENGINE)
            await manager.start()
            handle = await manager.submit("slow")
            await poll_until(started.is_set)
            release.set()
            await manager.stop()
            assert handle.job.cancel.cancelled
            assert not manager.started

        asyncio.run(scenario())


class TestEventStream:
    def test_replay_after_completion(self):
        registry = make_registry(("toy", make_counting_runner({"runs": 0})))

        async def scenario():
            async with JobManager(registry, engine_options=FAST_ENGINE) as manager:
                handle = await manager.submit("toy")
                await handle.result(timeout=30)
                events = [event async for event in manager.events(handle.id)]
                return events

        events = asyncio.run(scenario())
        kinds = [event.kind for event in events]
        states = [
            event.payload["state"] for event in events if event.kind == "state"
        ]
        assert states[0] == "queued"
        assert "running" in states
        assert states[-1] == "succeeded"
        assert "progress" in kinds  # the engine's batch snapshot arrived
        assert [event.sequence for event in events] == list(range(len(events)))

    def test_live_stream_terminates_on_terminal_state(self):
        started = threading.Event()
        release = threading.Event()
        registry = make_registry(
            ("slow", make_counting_runner({"runs": 0}, started, release))
        )

        async def scenario():
            async with JobManager(registry, engine_options=FAST_ENGINE) as manager:
                handle = await manager.submit("slow")
                await poll_until(started.is_set)

                async def consume():
                    return [event async for event in manager.events(handle.id)]

                consumer = asyncio.create_task(consume())
                await asyncio.sleep(0.05)
                release.set()
                events = await asyncio.wait_for(consumer, timeout=30)
                assert handle.job.watchers == []  # subscription cleaned up
                return events

        events = asyncio.run(scenario())
        states = [
            event.payload["state"] for event in events if event.kind == "state"
        ]
        assert states[-1] == "succeeded"
        sequences = [event.sequence for event in events]
        assert sequences == sorted(set(sequences)), "replay/live overlap leaked"


class TestHttpEndpoints:
    """End-to-end over a real socket: the stdlib server + client helper."""

    def _registry(self, started=None, release=None):
        record = {"runs": 0}
        entries = [("toy", make_counting_runner(record))]
        if started is not None:
            entries.append(("slow", make_counting_runner(record, started, release)))
        return make_registry(*entries), record

    def test_submit_result_status_roundtrip(self):
        registry, record = self._registry()

        async def scenario():
            async with JobManager(
                registry, workers=2, engine_options=FAST_ENGINE
            ) as manager:
                server = ServiceServer(manager, port=0)
                await server.start()
                try:
                    host, port = server.host, server.port
                    status, _, body = await request(host, port, "GET", "/healthz")
                    assert status == 200 and body["status"] == "ok"

                    status, _, body = await request(
                        host, port, "POST", "/jobs",
                        {"experiment": "toy", "params": {"seed": 1}},
                    )
                    assert status == 202 and body["coalesced"] is False
                    job_id = body["id"]

                    status, _, body = await request(
                        host, port, "GET", f"/jobs/{job_id}/result?wait=30"
                    )
                    assert status == 200
                    assert body["result"] == {"total": sum(i**3 for i in range(5))}
                    assert body["engine"]["tasks_executed"] == 5

                    status, _, body = await request(
                        host, port, "GET", f"/jobs/{job_id}"
                    )
                    assert status == 200 and body["state"] == "succeeded"

                    status, _, body = await request(host, port, "GET", "/jobs")
                    assert status == 200 and len(body) == 1

                    status, _, body = await request(host, port, "GET", "/experiments")
                    assert status == 200
                    assert {spec["name"] for spec in body} == {"toy"}
                finally:
                    await server.stop()

        asyncio.run(scenario())

    def test_error_statuses(self):
        registry, _ = self._registry()

        async def scenario():
            async with JobManager(
                registry, workers=1, engine_options=FAST_ENGINE
            ) as manager:
                server = ServiceServer(manager, port=0)
                await server.start()
                try:
                    host, port = server.host, server.port
                    status, _, body = await request(
                        host, port, "POST", "/jobs", {"experiment": "nope"}
                    )
                    assert status == 404 and "unknown experiment" in body["error"]

                    status, _, body = await request(
                        host, port, "POST", "/jobs",
                        {"experiment": "toy", "params": {"sed": 1}},
                    )
                    assert status == 400 and "sed" in body["error"]

                    status, _, body = await request(
                        host, port, "POST", "/jobs", {"params": {}}
                    )
                    assert status == 400

                    status, _, body = await request(
                        host, port, "GET", "/jobs/j999999"
                    )
                    assert status == 404

                    status, _, body = await request(host, port, "GET", "/nope")
                    assert status == 404
                finally:
                    await server.stop()

        asyncio.run(scenario())

    def test_queue_full_is_429_with_retry_after(self):
        started = threading.Event()
        release = threading.Event()
        registry, _ = self._registry(started, release)

        async def scenario():
            async with JobManager(
                registry, workers=1, queue_size=1, engine_options=FAST_ENGINE
            ) as manager:
                server = ServiceServer(manager, port=0)
                await server.start()
                try:
                    host, port = server.host, server.port
                    await request(
                        host, port, "POST", "/jobs",
                        {"experiment": "slow", "params": {"seed": 1}},
                    )
                    await poll_until(started.is_set)
                    await request(
                        host, port, "POST", "/jobs",
                        {"experiment": "slow", "params": {"seed": 2}},
                    )
                    status, headers, body = await request(
                        host, port, "POST", "/jobs",
                        {"experiment": "slow", "params": {"seed": 3}},
                    )
                    assert status == 429
                    assert "retry-after" in headers
                    assert "full" in body["error"]
                finally:
                    release.set()
                    await server.stop()

        asyncio.run(scenario())

    def test_cancel_via_delete_and_410_result(self):
        started = threading.Event()
        release = threading.Event()
        registry, _ = self._registry(started, release)

        async def scenario():
            async with JobManager(
                registry, workers=1, engine_options=FAST_ENGINE
            ) as manager:
                server = ServiceServer(manager, port=0)
                await server.start()
                try:
                    host, port = server.host, server.port
                    _, _, body = await request(
                        host, port, "POST", "/jobs",
                        {"experiment": "slow", "params": {"seed": 1}},
                    )
                    running_id = body["id"]
                    await poll_until(started.is_set)
                    _, _, body = await request(
                        host, port, "POST", "/jobs",
                        {"experiment": "slow", "params": {"seed": 2}},
                    )
                    queued_id = body["id"]

                    status, _, body = await request(
                        host, port, "DELETE", f"/jobs/{queued_id}"
                    )
                    assert status == 200 and body["cancelled"] is True
                    assert body["state"] == "cancelled"

                    status, _, body = await request(
                        host, port, "GET", f"/jobs/{queued_id}/result"
                    )
                    assert status == 410
                finally:
                    release.set()
                    await server.stop()

        asyncio.run(scenario())

    def test_event_stream_over_http(self):
        registry, _ = self._registry()

        async def scenario():
            async with JobManager(
                registry, workers=1, engine_options=FAST_ENGINE
            ) as manager:
                server = ServiceServer(manager, port=0)
                await server.start()
                try:
                    host, port = server.host, server.port
                    _, _, body = await request(
                        host, port, "POST", "/jobs", {"experiment": "toy"}
                    )
                    job_id = body["id"]
                    await request(host, port, "GET", f"/jobs/{job_id}/result?wait=30")
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(
                        f"GET /jobs/{job_id}/events HTTP/1.1\r\n"
                        "Host: t\r\n\r\n".encode()
                    )
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(), timeout=30)
                    writer.close()
                    return raw


                finally:
                    await server.stop()

        raw = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 200")
        assert b"text/event-stream" in raw
        frames = [
            line for line in raw.split(b"\n") if line.startswith(b"data: ")
        ]
        assert len(frames) >= 3  # queued, running, ..., succeeded
        assert b'"succeeded"' in frames[-1]

    @pytest.mark.parametrize(
        "content_length,body",
        [
            ("abc", b"{}"),
            ("1e3", b"{}"),
            ("-5", b"{}"),
            ("10", b"{}"),  # the client half-closes after 2 of 10 bytes
        ],
        ids=["non-numeric", "exponent", "negative", "truncated-body"],
    )
    def test_malformed_body_framing_is_a_well_formed_400(self, content_length, body):
        registry, record = self._registry()

        async def scenario():
            async with JobManager(
                registry, workers=1, engine_options=FAST_ENGINE
            ) as manager:
                server = ServiceServer(manager, port=0)
                await server.start()
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    writer.write(
                        b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                        + f"Content-Length: {content_length}\r\n\r\n".encode()
                        + body
                    )
                    writer.write_eof()
                    raw = await asyncio.wait_for(reader.read(), timeout=30)
                    writer.close()
                    return raw
                finally:
                    await server.stop()

        raw = asyncio.run(scenario())
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"content-type: application/json" in head.lower()
        assert "error" in json.loads(payload)
        assert record["runs"] == 0


class TestMetricsEndpoint:
    """``GET /metrics``: Prometheus text covering the service series."""

    def test_metrics_scrape_parses_and_counts_jobs(self):
        from repro.obs.metrics import parse_prometheus

        registry = make_registry(("toy", make_counting_runner({"runs": 0})))

        async def scenario():
            async with JobManager(
                registry, workers=1, engine_options=FAST_ENGINE
            ) as manager:
                server = ServiceServer(manager, port=0)
                await server.start()
                try:
                    host, port = server.host, server.port
                    status, headers, body = await request(
                        host, port, "GET", "/metrics"
                    )
                    assert status == 200
                    assert "text/plain" in headers.get("content-type", "")
                    before = parse_prometheus(body)

                    _, _, submitted = await request(
                        host, port, "POST", "/jobs", {"experiment": "toy"}
                    )
                    _, _, result = await request(
                        host, port, "GET",
                        f"/jobs/{submitted['id']}/result?wait=30",
                    )
                    _, _, job_status = await request(
                        host, port, "GET", f"/jobs/{submitted['id']}"
                    )
                    _, _, after_text = await request(
                        host, port, "GET", "/metrics"
                    )
                    return before, parse_prometheus(after_text), result, job_status

                finally:
                    await server.stop()

        before, after, result, job_status = asyncio.run(scenario())

        accepted = (("outcome", "accepted"),)
        succeeded = (("state", "succeeded"),)
        # The full catalogue is pre-registered: every outcome/state shows
        # up in a scrape even before anything happens.
        submission_outcomes = {
            dict(key)["outcome"]
            for key in before["repro_service_submissions_total"]
        }
        assert submission_outcomes >= {
            "accepted", "coalesced", "rejected_queue_full", "rejected_rate_limited",
        }
        job_states = {
            dict(key)["state"] for key in before["repro_service_jobs_total"]
        }
        assert job_states >= {"succeeded", "failed", "cancelled"}
        assert any(
            name == "repro_service_retries_total" for name in before
        )
        assert () in before["repro_service_queue_depth"]

        # The registry is process-global, so compare scrapes as deltas.
        delta_accepted = (
            after["repro_service_submissions_total"][accepted]
            - before["repro_service_submissions_total"][accepted]
        )
        delta_succeeded = (
            after["repro_service_jobs_total"][succeeded]
            - before["repro_service_jobs_total"][succeeded]
        )
        assert delta_accepted == 1.0
        assert delta_succeeded == 1.0
        # Histograms materialise on first observation, so the "before"
        # scrape may not carry the series yet.
        assert (
            after["repro_service_job_seconds_count"][()]
            - before.get("repro_service_job_seconds_count", {}).get((), 0.0)
        ) == 1.0
        # Engine series moved too: the job executed real tasks.
        executed = (("status", "executed"),)
        assert (
            after["repro_engine_tasks_total"][executed]
            - before.get("repro_engine_tasks_total", {}).get(executed, 0.0)
        ) > 0

        # Per-job observability rides along in the job payloads.
        assert job_status["trace_id"]
        assert result["engine"]["trace_id"] == job_status["trace_id"]
        assert "routing_cache" in result["engine"]
        assert "result_cache" in result["engine"]
