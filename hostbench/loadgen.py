"""Open-loop load generator of the ``serve_mixed`` workload.

The whole schedule is built from the seed before the first request:
arrival times, job configs, tenants and the status-read times.  Arrivals
are a Poisson process at a fixed rate, drawn as a fixed number of
uniform times per one-second slot, so every seed offers the same amount
of work.  New configs come in fixed proportions per size class; half of
the submissions repeat an earlier config, picked by a Zipf law over
first appearance, so the result cache and in-flight dedup see both hits
and misses.

Requests go out on two persistent, pipelined HTTP/1.1 connections, one
for writes (``POST /v1/jobs``) and one for reads (status and result
``GET``s).  A request is written when it falls due, whether or not
earlier replies have arrived, and its latency is timed from that due
time, so a server stall shows as latency of every request it delays.
The client learns a job finished from a status read (or from the 202
itself, for a cache hit) and then fetches ``/result``; result bodies are
kept as bytes and decoded after the run so that decoding never delays a
send.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import deque
from functools import partial

#: Offered load: about half the rate at which the two-shard server of
#: the commit that introduced this benchmark fell behind on this mix
#: (about 40 jobs/s on a 2-core Xeon container).
RATE_JOBS_PER_S = 20.0
#: Warm-up phase before the measured one; its latencies are not reported.
WARMUP_S = 3.0
#: Arrivals are uniform within each slot with a fixed count per slot
#: (Poisson conditioned on the count), and each slot repeats the same
#: share of earlier configs; this keeps the offered work equal across
#: seeds while arrival times still cluster.
SLOT_S = 1.0
#: Lattice sides of new configs, as counts per block of 20 new configs;
#: every block is shuffled, so the mix stays fixed over the run.
CLASS_BLOCK = ((32, 5), (64, 5), (128, 7), (256, 3))
#: Sweeps of new configs; each side cycles through a shuffled copy.
SWEEPS = (16, 32, 64)
TEMPERATURES = (1.5, 2.0, 2.2, 2.3, 2.5, 3.0)
TENANTS = ("alpha", "beta", "gamma")
REPEAT_SHARE = 0.5
ZIPF_EXPONENT = 1.2
#: Status reads of a job fall due every period after its POST was due.
STATUS_PERIOD_S = 0.02
#: A job with no result this long after the last arrival counts as lost.
RESULT_DEADLINE_S = 60.0


class PlannedJob:
    """One submission of the schedule; ``due`` is seconds from the start."""

    __slots__ = ("index", "phase", "due", "config", "sweeps", "tenant", "repeat_of")

    def __init__(self, index, phase, due, config, sweeps, tenant, repeat_of):
        self.index = index
        self.phase = phase
        self.due = due
        self.config = config
        self.sweeps = sweeps
        self.tenant = tenant
        self.repeat_of = repeat_of

    def body(self) -> bytes:
        return json.dumps(
            {"config": self.config, "sweeps": self.sweeps, "tenant": self.tenant}
        ).encode("utf-8")


def build_plan(seed: int, seconds: float) -> "list[PlannedJob]":
    """The full submission schedule of one run, from the seed alone."""
    rng = random.Random(seed)
    per_slot = round(RATE_JOBS_PER_S * SLOT_S)
    n_repeat = round(per_slot * REPEAT_SHARE)
    warm_slots = round(WARMUP_S / SLOT_S)
    n_slots = warm_slots + max(1, round(seconds / SLOT_S))
    block = [side for side, count in CLASS_BLOCK for _ in range(count)]
    sides: "list[int]" = []
    sweeps = {side: [] for side, _ in CLASS_BLOCK}

    def new_job() -> "tuple[int, int]":
        if not sides:
            sides.extend(rng.sample(block, len(block)))
        side = sides.pop()
        if not sweeps[side]:
            sweeps[side].extend(rng.sample(SWEEPS, len(SWEEPS)))
        return side, sweeps[side].pop()

    distinct: "list[PlannedJob]" = []
    plan: "list[PlannedJob]" = []
    for slot in range(n_slots):
        phase = "warmup" if slot < warm_slots else "measured"
        times = sorted(rng.uniform(slot * SLOT_S, (slot + 1) * SLOT_S)
                       for _ in range(per_slot))
        flags = [True] * n_repeat + [False] * (per_slot - n_repeat)
        rng.shuffle(flags)
        for due, repeat in zip(times, flags):
            tenant = rng.choice(TENANTS)
            if repeat and distinct:
                weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
                           for rank in range(len(distinct))]
                source = rng.choices(distinct, weights)[0]
                job = PlannedJob(len(plan), phase, due, source.config,
                                 source.sweeps, tenant, source.index)
            else:
                side, n_sweeps = new_job()
                config = {
                    "shape": [side, side],
                    "temperature": rng.choice(TEMPERATURES),
                    "seed": rng.randrange(1_000_000),
                    "dtype": "float32",
                }
                job = PlannedJob(len(plan), phase, due, config, n_sweeps, tenant, None)
                distinct.append(job)
            plan.append(job)
    return plan


class _Connection:
    """One keep-alive HTTP/1.1 connection with pipelined requests.

    Replies arrive in request order, so each one goes to the callback at
    the head of the FIFO.
    """

    def __init__(self, reader, writer, host: str) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host
        self._pending: "deque" = deque()

    def send(self, method: str, path: str, body: bytes, on_reply) -> None:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        self._pending.append(on_reply)

    async def pump(self, clock) -> None:
        """Hand every reply to its callback until the server closes."""
        reader = self._reader
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                return
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body = await reader.readexactly(length) if length else b""
            self._pending.popleft()(status, body, clock())

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class JobRun:
    """What the client saw of one planned job."""

    __slots__ = ("plan", "due_at", "admit_status", "admit_s", "id", "result_status",
                 "result_s", "result_body", "status_s", "done_known", "next_read",
                 "digest")

    def __init__(self, plan: PlannedJob, due_at: float) -> None:
        self.plan = plan
        self.due_at = due_at
        self.admit_status = None
        self.admit_s = None
        self.id = None
        self.result_status = None
        self.result_s = None
        self.result_body = None
        self.status_s: "list[float]" = []
        self.done_known = False
        self.next_read = None
        self.digest = None


class OpenLoop:
    """Sends the schedule on time and records what came back."""

    def __init__(self, plan, host: str, port: int, on_mark=None) -> None:
        self.plan = plan
        self.host = host
        self.port = port
        self.on_mark = on_mark
        self.runs: "list[JobRun]" = []
        self.lags: "dict[str, list[float]]" = {"warmup": [], "measured": []}
        #: ``/v1/statsz`` at the start of the measured phase and at the end.
        self.stats: "dict[str, dict]" = {}
        self._mark_stats = None
        self._unresolved = 0
        self._all_resolved: "asyncio.Event | None" = None

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        clock = loop.time
        self._clock = clock
        self._loop = loop
        self._all_resolved = asyncio.Event()
        self._writes = _Connection(*await asyncio.open_connection(self.host, self.port), self.host)
        self._reads = _Connection(*await asyncio.open_connection(self.host, self.port), self.host)
        pumps = [
            asyncio.create_task(self._writes.pump(clock)),
            asyncio.create_task(self._reads.pump(clock)),
        ]
        start = clock() + 0.2
        self._unresolved = len(self.plan)
        for job in self.plan:
            run = JobRun(job, start + job.due)
            self.runs.append(run)
            loop.call_at(run.due_at, self._post, run)
        loop.call_at(start + WARMUP_S, self._mark)
        deadline = start + self.plan[-1].due + RESULT_DEADLINE_S
        try:
            await asyncio.wait_for(self._all_resolved.wait(), deadline - clock())
        except asyncio.TimeoutError:
            pass
        for run in self.runs:
            if run.next_read is not None:
                run.next_read.cancel()
        self.stats["mark"] = await asyncio.wait_for(self._mark_stats, 30.0)
        self.stats["end"] = await asyncio.wait_for(self._get_json("/v1/statsz"), 30.0)
        for connection in (self._writes, self._reads):
            await connection.close()
        for task in pumps:
            task.cancel()
        await asyncio.gather(*pumps, return_exceptions=True)

    # -- requests -----------------------------------------------------------

    def _late(self, run: JobRun, due: float) -> None:
        self.lags[run.plan.phase].append(self._clock() - due)

    def _mark(self) -> None:
        if self.on_mark is not None:
            self.on_mark()
        self._mark_stats = self._get_json("/v1/statsz")

    def _get_json(self, path: str) -> "asyncio.Future":
        future = self._loop.create_future()
        self._reads.send(
            "GET", path, b"", lambda status, body, now: future.set_result(json.loads(body))
        )
        return future

    def _post(self, run: JobRun) -> None:
        self._late(run, run.due_at)
        self._writes.send("POST", "/v1/jobs", run.plan.body(), partial(self._admitted, run))

    def _admitted(self, run: JobRun, status, body, now) -> None:
        run.admit_status = status
        run.admit_s = now - run.due_at
        if status != 202:
            self._resolve(run)
            return
        reply = json.loads(body)
        run.id = reply["id"]
        if reply["state"] in ("done", "failed"):
            self._fetch_result(run)
            return
        k = int((now - run.due_at) / STATUS_PERIOD_S)
        if k == 0:
            first = run.due_at + STATUS_PERIOD_S
            run.next_read = self._loop.call_at(first, self._read, run, 1, first)
        else:
            # Reads planned before the 202 arrived collapse into one, now.
            self._read(run, k, now)

    def _read(self, run: JobRun, k: int, due: float) -> None:
        if run.done_known:
            return
        self._late(run, due)
        self._reads.send("GET", f"/v1/jobs/{run.id}", b"", partial(self._status, run, due))
        planned = run.due_at + (k + 1) * STATUS_PERIOD_S
        run.next_read = self._loop.call_at(planned, self._read, run, k + 1, planned)

    def _status(self, run: JobRun, due: float, status, body, now) -> None:
        run.status_s.append(now - due)
        if status != 200 or run.done_known:
            return
        if json.loads(body)["state"] in ("done", "failed"):
            self._fetch_result(run)

    def _fetch_result(self, run: JobRun) -> None:
        run.done_known = True
        if run.next_read is not None:
            run.next_read.cancel()
        self._reads.send(
            "GET", f"/v1/jobs/{run.id}/result", b"", partial(self._result, run)
        )

    def _result(self, run: JobRun, status, body, now) -> None:
        run.result_status = status
        run.result_s = now - run.due_at
        run.result_body = body
        self._resolve(run)

    def _resolve(self, run: JobRun) -> None:
        self._unresolved -= 1
        if self._unresolved == 0:
            self._all_resolved.set()
