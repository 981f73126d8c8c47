"""The ``service`` workload: a closed loop of clients against ``repro serve``.

The server runs as the CLI starts it (``python -m repro serve --port 0
--jobs 1``, result cache on, every other flag at its default; see
:data:`SERVE_FLAGS` for why ``--jobs 1``) in a fresh directory per run.
``nproc`` clients each submit one operation, wait for every
result it asked for, then take the next operation from one seeded
stream.  Operations:

``fresh``
    A short registry job (``topoyield`` at batch 10, 20 or 30) at
    parameters never submitted before.
``repeat``
    Exactly the parameters of an earlier fresh job, issued at least
    :data:`REPEAT_LAG` fresh jobs earlier so that it has normally
    finished and the server replays it from the result cache.
``duplicate``
    One fresh job submitted twice at once by the same client; the
    second submission coalesces onto the first job.

Latency is client-observed, from submit to result.  Correctness: every
submission must succeed, repeats and duplicates must return their
original's result, and a seeded sample of fresh jobs must equal the
in-process registry runner at the same parameters.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from stats import percentile
from workloads import SMOKE

#: Short registry jobs the fresh operations draw from (experiment, params),
#: uniformly.  One experiment at three sizes keeps the latency distribution
#: unimodal, so its median and 90th percentile do not sit in a gap between
#: clusters of very different job costs, where they would jump from run
#: to run.
FRESH_MENU = (
    ("topoyield", {"batch_size": 10}),
    ("topoyield", {"batch_size": 20}),
    ("topoyield", {"batch_size": 30}),
)

#: Operation mix per block of 20 operations: 55 % fresh, 30 % repeat,
#: 15 % duplicate.  Blocks (and the menu) are shuffled per seed, so every
#: seed runs the same composition in a different order.  These shares
#: (and :data:`REPEAT_LAG`) are an assumption, not measured traffic: no
#: record of real service traffic exists.  They set the cache-hit and
#: coalescing shares and so the pooled latency percentiles; the report
#: prints each kind's count and latency so that a change here shows.
MIX = (("fresh", 11), ("repeat", 6), ("duplicate", 3))

#: Fresh operations a repeat stays behind the head of the stream.
REPEAT_LAG = 8

#: Fresh jobs re-run in process per correctness check.
VERIFY_SAMPLE = 3

#: Distinct fresh jobs the traced run replays in process.
REPLAY_JOBS = 3 if SMOKE else 12

#: Jobs a run completes at least; the time to the last of them is the
#: run's ``wall_s`` (and ``job_p90_s`` has well over 10 samples beyond it).
MIN_JOBS = 10 if SMOKE else 300

#: ``repro serve`` flags beyond the defaults.  Each job's engine runs
#: sequentially: with the default ``auto`` backend the server forks
#: process pools from its job threads, and the forked workers can hang
#: on a lock another thread held at the fork (seen within a minute of
#: this load), which would stall the run.
SERVE_FLAGS = ("--jobs", "1")

#: Longest a client waits for one response (these jobs take well under 1 s).
REQUEST_TIMEOUT_S = 30

_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


def _shuffled_cycle(rng: random.Random, items: list):
    """``items`` over and over, each round in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def operations(seed: int):
    """The seeded operation stream: ``(kind, experiment, params)`` forever."""
    rng = random.Random(seed)
    kinds = _shuffled_cycle(rng, [kind for kind, count in MIX for _ in range(count)])
    fresh_menu = _shuffled_cycle(rng, list(range(len(FRESH_MENU))))
    repeat_menu = _shuffled_cycle(rng, list(range(len(FRESH_MENU))))
    issued: list[tuple[int, str, dict]] = []
    while True:
        kind = next(kinds)
        if kind == "repeat":
            choice = next(repeat_menu)
            eligible = [spec for spec in issued[:-REPEAT_LAG] if spec[0] == choice]
            if eligible:
                _, experiment, params = rng.choice(eligible)
                yield kind, experiment, params
                continue
            kind = "fresh"
        choice = next(fresh_menu)
        experiment, base = FRESH_MENU[choice]
        params = {**base, "seed": seed * 100_000 + len(issued)}
        issued.append((choice, experiment, params))
        yield kind, experiment, params


def fresh_specs(seed: int, count: int) -> list[tuple[str, dict]]:
    """The first ``count`` fresh jobs of the stream."""
    specs: list[tuple[str, dict]] = []
    for kind, experiment, params in operations(seed):
        if kind != "repeat":
            specs.append((experiment, params))
        if len(specs) == count:
            return specs
    raise AssertionError("unreachable")


def in_process_result(experiment: str, params: dict, engine) -> Any:
    """The registry runner's result as the service would serialise it."""
    from repro.analysis.reporting import jsonable
    from repro.analysis.registry import EXPERIMENTS

    result, _text = EXPERIMENTS.get(experiment).runner(engine, **params)
    return json.loads(json.dumps(jsonable(result)))


# ---------------------------------------------------------------------- #
# HTTP
# ---------------------------------------------------------------------- #
async def http(host: str, port: int, method: str, path: str, body: Any = None) -> tuple[int, Any]:
    """One ``Connection: close`` request; returns ``(status, parsed JSON)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n"
        if payload:
            head += f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
        writer.write(head.encode() + b"\r\n" + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), REQUEST_TIMEOUT_S)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head_bytes, _, data = raw.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b" ", 2)[1])
    return status, json.loads(data) if data else None


class Server:
    """``python -m repro serve`` in a subprocess, in its own directory.

    The server runs in its own session so that stopping it also stops
    any engine worker it forked; its output goes to ``server.log`` in the
    work directory.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.log = workdir / "server.log"
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self.setup_s = 0.0

    def start(self, timeout: float = 60.0) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_CACHE_DIR"] = str(self.workdir / "cache")
        launched = time.monotonic()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", *SERVE_FLAGS],
                cwd=self.workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        while time.monotonic() - launched < timeout and self.proc.poll() is None:
            match = _LISTEN_RE.search(self.log.read_text(errors="replace"))
            if match:
                self.setup_s = time.monotonic() - launched
                self.host, self.port = match.group(1), int(match.group(2))
                return
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"repro serve never started listening: {self.log_tail()}")

    def log_tail(self, chars: int = 2000) -> str:
        try:
            return self.log.read_text(errors="replace")[-chars:]
        except OSError:
            return ""

    def peak_rss_kb(self) -> int:
        """The server process's peak resident set size (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def stop(self) -> None:
        """Stop the server and everything in its session, and wait for them."""
        if self.proc is None:
            return
        group = self.proc.pid
        for sig, grace in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(group, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                self.proc.poll()
                try:
                    os.killpg(group, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.02)
            else:
                continue
            break
        self.proc.wait()
        self.proc = None


# ---------------------------------------------------------------------- #
# The closed loop
# ---------------------------------------------------------------------- #
async def _submit_and_wait(server: Server, experiment: str, params: dict, client: str) -> dict:
    started = time.monotonic()
    record = {"experiment": experiment, "params": params, "ok": False}
    status, body = await http(
        server.host, server.port, "POST", "/jobs",
        {"experiment": experiment, "params": params, "client": client},
    )
    if status == 202:
        record["id"] = body["id"]
        record["coalesced"] = body.get("coalesced", False)
        status, body = await http(
            server.host, server.port, "GET", f"/jobs/{body['id']}/result?wait={REQUEST_TIMEOUT_S}"
        )
        record["ok"] = status == 200
        record["result"] = body.get("result") if record["ok"] else None
    record["status"] = status
    record["done_at"] = time.monotonic()
    record["latency_s"] = record["done_at"] - started
    return record


async def closed_loop(
    server: Server, seed: int, clients: int, seconds: float, limit: float
) -> list[dict]:
    """Drive the server until ``seconds`` passed and ``MIN_JOBS`` finished.

    No operation starts after ``limit`` seconds, whatever the job count.
    """
    stream = operations(seed)
    records: list[dict] = []
    begin = time.monotonic()

    async def client(number: int) -> None:
        name = f"client{number}"
        while True:
            elapsed = time.monotonic() - begin
            if elapsed >= limit or (elapsed >= seconds and len(records) >= MIN_JOBS):
                break
            kind, experiment, params = next(stream)
            if kind == "duplicate":
                pair = await asyncio.gather(
                    _submit_and_wait(server, experiment, params, name),
                    _submit_and_wait(server, experiment, params, name),
                )
                for record in pair:
                    record["kind"] = kind
                records.extend(pair)
            else:
                record = await _submit_and_wait(server, experiment, params, name)
                record["kind"] = kind
                records.append(record)

    await asyncio.gather(*(client(n) for n in range(clients)))
    return records


def latency_by_kind(records: list[dict]) -> dict[str, tuple[int, float, float]]:
    """``kind -> (count, p50, p90)`` of the client-observed latencies."""
    by_kind: dict[str, list[float]] = {}
    for record in records:
        by_kind.setdefault(record["kind"], []).append(record["latency_s"])
    return {
        kind: (len(values), percentile(values, 50), percentile(values, 90))
        for kind, values in by_kind.items()
    }


def check_records(records: list[dict], seed: int, engine) -> list[str]:
    """Problems in a run's results (empty when every job is correct)."""
    problems = []
    first: dict[str, Any] = {}
    for record in records:
        if not record["ok"]:
            problems.append(f"{record['experiment']} {record['params']}: HTTP {record['status']}")
            continue
        key = json.dumps([record["experiment"], record["params"]], sort_keys=True)
        if key in first and first[key] != record["result"]:
            problems.append(f"{key}: differs from the first result for the same parameters")
        first.setdefault(key, record["result"])
    fresh = [r for r in records if r["kind"] == "fresh" and r["ok"]]
    for record in random.Random(seed).sample(fresh, min(VERIFY_SAMPLE, len(fresh))):
        expected = in_process_result(record["experiment"], record["params"], engine)
        if expected != record["result"]:
            problems.append(
                f"{record['experiment']} {record['params']}: differs from the in-process runner"
            )
    return problems
