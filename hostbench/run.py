#!/usr/bin/env python3
"""The repository benchmark: host wall-clock on three workloads.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload sweep_512 --seed 1 --seconds 20 --trace 0

Workloads (``hostbench/README.md`` says why each was chosen):

``sweep_512``    one 512^2 chain, compact updater, float32, default engine,
                 T = 2.2, sweeps only;
``scan_64``      a 16-temperature 64^2 ensemble over T = 2.0-2.6 through
                 ``repro.ensemble``, sampling |m| and energy every sweep;
``serve_mixed``  an open-loop job stream over loopback HTTP to a
                 ``ServeApp`` in its own process (2 shards, no autoscaling).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps public methods of each layer from this
directory's ``tracing.py`` and reports per-layer metrics instead.  Every
run checks the outputs it timed.  The human-readable report comes
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The workloads run in child processes started from this one, so set-up
time counts from process start.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import http.client
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import loadgen
from tracing import backend_category

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOST = "127.0.0.1"

#: Processes started per run to sample set-up time; the median is reported.
SETUP_SAMPLES = 3
#: A run whose generator sent its requests this late (p90) is invalid:
#: its latencies would measure the client, not the server.
MAX_LAG_P90_MS = 20.0
#: Distinct measured-phase configs re-run in-process per serve_mixed run.
REFERENCE_SAMPLES = 3
#: Seconds a child may take beyond the measured window.
CHILD_GRACE_S = 150.0

SIM_WORKLOADS = ("sweep_512", "scan_64")
WORKLOADS = SIM_WORKLOADS + ("serve_mixed",)


class BenchError(RuntimeError):
    """A workload process failed; the run prints no result."""


# -- statistics -----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metric(value: float, unit: str, n: int, stat: str, tag: str = "measured") -> dict:
    return {"value": float(value), "unit": unit, "n": int(n), "stat": stat, "tag": tag}


# -- child processes ------------------------------------------------------------


class Child:
    """A workload process; killed and reaped on exit from the ``with``."""

    def __init__(self, script: str, *args: str, stdin: bool = False) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchError(
                f"{self.proc.args[1]} exited with {self.proc.returncode} "
                "before reporting"
            )
        return line.strip()

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def result(self, timeout: float) -> dict:
        """The JSON object on the child's last stdout line."""
        out, _ = self.proc.communicate(timeout=timeout)
        if self.proc.returncode != 0:
            raise BenchError(f"{self.proc.args[1]} exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def sim_child(workload: str, seed: int, seconds: float, trace: int,
              setup_only: bool = False) -> "tuple[float, dict]":
    """Run one library-workload process; returns (set-up seconds, result)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if setup_only:
        args.append("--setup-only")
    with Child("sim_worker.py", *args) as child:
        if child.readline() != "READY":
            raise BenchError("sim_worker did not report READY")
        setup_s = time.perf_counter() - child.started
        if setup_only:
            child.proc.wait(timeout=CHILD_GRACE_S)
            return setup_s, {}
        return setup_s, child.result(timeout=seconds + CHILD_GRACE_S)


def first_202(port: int, tag: int) -> float:
    """POST one small job outside the plan; returns when its 202 arrived."""
    body = json.dumps({
        "config": {"shape": [32, 32], "temperature": 3.0, "seed": 1_000_000 + tag},
        "sweeps": 8,
        "tenant": "setup",
    })
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        conn.request("POST", "/v1/jobs", body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
    finally:
        conn.close()
    if response.status != 202:
        raise BenchError(f"set-up probe got HTTP {response.status}")
    return time.perf_counter()


def serve_once(seed: int, seconds: float, trace: int, setup_only: bool = False) -> dict:
    """Start a server, run the open-loop plan against it, stop it."""
    with Child("serve_worker.py", "--trace", str(trace), stdin=True) as server:
        line = server.readline()
        if not line.startswith("PORT "):
            raise BenchError(f"serve_worker said {line!r}")
        port = int(line.split()[1])
        setup_s = first_202(port, seed) - server.started
        run = {"setup_s": setup_s}
        if not setup_only:
            gen = loadgen.OpenLoop(
                loadgen.build_plan(seed, seconds), HOST, port,
                on_mark=lambda: server.send("mark"),
            )
            asyncio.run(gen.run())
            run["gen"] = gen
        server.send("stop")
        run["server"] = json.loads(server.readline())
        server.proc.wait(timeout=CHILD_GRACE_S)
    return run


# -- correctness of serve_mixed ---------------------------------------------------


def check_serve(gen, seed: int) -> dict:
    """Every 202 returned a correct result; sampled ones match ``repro.submit``."""
    import numpy as np
    import repro

    counts = {"refused": 0, "failed": 0, "lost": 0, "wrong": 0}
    digests: "dict[int, str]" = {}
    for run in gen.runs:
        if run.admit_status != 202:
            counts["refused"] += 1
            continue
        if run.result_status is None:
            counts["lost"] += 1
            continue
        payload = json.loads(run.result_body)
        if run.result_status != 200 or payload.get("state") != "done":
            counts["failed"] += 1
            continue
        result = payload["result"]
        lattice = np.asarray(result["lattice"], dtype=np.float32)
        digest = hashlib.sha256(lattice.tobytes()).hexdigest()
        source = run.plan.repeat_of if run.plan.repeat_of is not None else run.plan.index
        if (
            digest != result["lattice_sha256"]
            or result["sweeps"] != run.plan.sweeps
            or digests.setdefault(source, digest) != digest
        ):
            counts["wrong"] += 1
        run.result_body = None
        run.digest = digest

    pool = [
        run for run in gen.runs
        if run.plan.phase == "measured" and run.plan.repeat_of is None
        and run.digest is not None
    ]
    picks = random.Random(seed).sample(pool, min(REFERENCE_SAMPLES, len(pool)))
    references = []
    for run in picks:
        wire = run.plan.config
        config = repro.SimulationConfig(
            shape=tuple(wire["shape"]), temperature=wire["temperature"],
            seed=wire["seed"], dtype=wire["dtype"],
        )
        local = repro.submit(config, run.plan.sweeps)
        lattice = np.ascontiguousarray(np.asarray(local.lattice, dtype=np.float32))
        match = hashlib.sha256(lattice.tobytes()).hexdigest() == run.digest
        references.append({"config": wire, "sweeps": run.plan.sweeps, "match": match})
        if not match:
            counts["wrong"] += 1
    return {
        **counts,
        "in_process_references": references,
        "ok": not any(counts.values()) and len(references) == len(picks) > 0,
    }


# -- end-to-end reports -----------------------------------------------------------


def sim_report(workload: str, seed: int, seconds: float) -> dict:
    setups = [sim_child(workload, seed, seconds, 0, setup_only=True)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, run = sim_child(workload, seed, seconds, 0)
    setups.append(setup_s)
    times = run["times"]
    n = len(times)
    p50 = percentile(times, 50)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups), "median"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB", 1, "max"),
        "flips_per_s": metric(run["sites_per_sweep"] / p50, "1/s", n,
                              "spins per sweep / median sweep"),
    }
    extra = {
        "sweep_ms_p50": metric(p50 * 1e3, "ms", n, "p50"),
        "sweep_ms_p99": metric(percentile(times, 99) * 1e3, "ms", n, "p99"),
    }
    return {
        "metrics": metrics,
        "extra": extra,
        "check": run["check"],
        "attempted": n,
        "failed": 0 if run["check"]["ok"] else n,
        "valid": True,
    }


def _phase_counts(gen) -> dict:
    counts = {}
    for phase in ("warmup", "measured"):
        runs = [run for run in gen.runs if run.plan.phase == phase]
        done = sum(1 for run in runs if run.result_status == 200)
        counts[phase] = {"sent": len(runs), "succeeded": done, "failed": len(runs) - done}
    return counts


def serve_latencies(gen) -> dict:
    measured = [run for run in gen.runs if run.plan.phase == "measured"]
    return {
        "admit": [run.admit_s for run in measured if run.admit_status == 202],
        "result": [run.result_s for run in measured if run.result_status == 200],
        "status": [s for run in measured for s in run.status_s],
        "lag": gen.lags["measured"],
    }


def serve_report(seed: int, seconds: float) -> dict:
    setups = [serve_once(seed, seconds, 0, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = serve_once(seed, seconds, 0)
    setups.append(run["setup_s"])
    gen = run["gen"]
    check = check_serve(gen, seed)
    lat = serve_latencies(gen)
    measured = [r for r in gen.runs if r.plan.phase == "measured" and r.result_status == 200]
    first_due = min(r.due_at for r in gen.runs if r.plan.phase == "measured")
    last_held = max(r.due_at + r.result_s for r in measured)
    # Repeats are served from the result cache or in-flight dedup, so only
    # the first submission of a config costs sweeps.
    flips = sum(r.plan.config["shape"][0] * r.plan.config["shape"][1] * r.plan.sweeps
                for r in measured if r.plan.repeat_of is None)
    lag_p90_ms = percentile(lat["lag"], 90) * 1e3
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups), "median"),
        "peak_rss_mb": metric(run["server"]["peak_rss_mb"], "MB", 1, "max (server)"),
        "flips_per_s": metric(flips / (last_held - first_due), "1/s", len(measured),
                              "computed spins x sweeps held / measured span"),
    }
    extra = {}
    for name, values in (("admit_ms", lat["admit"]), ("result_ms", lat["result"]),
                         ("status_ms", lat["status"])):
        for q in (50, 90):
            extra[f"{name}_p{q}"] = metric(percentile(values, q) * 1e3, "ms", len(values), f"p{q}")
    attempted = len(gen.runs)
    failed = check["refused"] + check["failed"] + check["lost"] + check["wrong"]
    extra["failed_share"] = metric(failed / attempted, "ratio", attempted, "failed / attempted")
    extra["loadgen.lag_ms_p90"] = metric(lag_p90_ms, "ms", len(lat["lag"]), "p90")
    return {
        "metrics": metrics,
        "extra": extra,
        "check": check,
        "phases": _phase_counts(gen),
        "attempted": attempted,
        "failed": failed,
        "valid": lag_p90_ms <= MAX_LAG_P90_MS,
    }


# -- per-layer reports ------------------------------------------------------------

CORE_RUNS = ("IsingSimulation.run", "EnsembleSimulation.run")


class Spans:
    """Queries over one process's span summary."""

    def __init__(self, summary: dict) -> None:
        self.records = summary

    def self_s(self, layer: str) -> float:
        return sum(r["self_s"] for r in self.records.values() if r["layer"] == layer)

    def entries(self, layer: str) -> int:
        return sum(r["entries"] for r in self.records.values() if r["layer"] == layer)

    def units(self, layer: str) -> float:
        return sum(r["units"][0] for r in self.records.values()
                   if r["layer"] == layer and r["units"])

    def get(self, name: str) -> dict:
        return self.records.get(name) or {
            "calls": 0, "entries": 0, "span_s": 0.0, "self_s": 0.0, "units": [],
            "durations": [],
        }

    def durations(self, name: str) -> "list[float]":
        return self.get(name)["durations"] or []

    def p_ms(self, name: str, q: float) -> float:
        values = self.durations(name)
        return percentile(values, q) * 1e3 if values else 0.0


def layer_metrics(spans: Spans, window_s: float) -> dict:
    """rng / backend / core / observables metrics, per ensemble sweep."""
    runs = [spans.get(name) for name in CORE_RUNS]
    sweeps = sum(r["units"][0] for r in runs if r["units"])
    run_span = sum(r["span_s"] for r in runs)
    rng_self = spans.self_s("rng")
    by_category = {"matmul": 0.0, "gather": 0.0, "vpu": 0.0, "packed": 0.0}
    for name, r in spans.records.items():
        if r["layer"] == "backend":
            by_category[backend_category(name.split(".", 1)[1])] += r["self_s"]
    layers = ("rng", "backend", "core", "observables", "sched", "serve")
    n = int(sweeps)
    out = {
        "rng.calls": metric(ratio(spans.entries("rng"), sweeps), "count", n, "per sweep"),
        "rng.self_s": metric(ratio(rng_self, sweeps), "s", n, "per sweep"),
        "rng.share": metric(ratio(rng_self, run_span), "ratio", n, "of sweep wall"),
        "rng.words_per_s": metric(
            ratio(spans.units("rng"), rng_self), "1/s", n, "words / rng self"),
        "backend.calls": metric(ratio(spans.entries("backend"), sweeps), "count", n, "per sweep"),
    }
    for category, seconds in by_category.items():
        out[f"backend.{category}_s"] = metric(ratio(seconds, sweeps), "s", n, "self per sweep")
    out["backend.bytes_per_sweep"] = metric(
        ratio(spans.units("backend"), sweeps), "B", n, "array args + outs per sweep", "computed"
    )
    out["core.sweep_s"] = metric(ratio(run_span, sweeps), "s", n, "run() span per sweep")
    out["core.self_s"] = metric(
        ratio(sum(r["self_s"] for r in runs), sweeps), "s", n, "run() self per sweep"
    )
    # One sample is one magnetization call (plus its energy call).
    samples = sum(spans.get(name)["calls"] for name in (
        "IsingSimulation.magnetization", "EnsembleSimulation.magnetizations"))
    out["observables.self_s"] = metric(
        ratio(spans.self_s("observables"), samples), "s", samples, "self per sample"
    )
    out["trace.coverage"] = metric(
        ratio(sum(spans.self_s(layer) for layer in layers), window_s), "ratio", 1,
        "layer self time / window wall",
    )
    return out


SERVE_LAYER_METRICS = (
    ("sched.step_ms_p50", "ms"), ("sched.submit_ms_p50", "ms"),
    ("sched.chains_per_advance", "count"), ("sched.cache_hit_rate", "ratio"),
    ("sched.batches_started", "count"), ("sched.preemptions", "count"),
    ("sched.jobs_failed", "count"), ("serve.router_step_ms_p90", "ms"),
    ("serve.loop_busy_share", "ratio"), ("serve.admit_path_ms_p50", "ms"),
    ("serve.protocol_ms_p50", "ms"), ("serve.affine_share", "ratio"),
    ("serve.accepted", "count"), ("serve.throttled", "count"),
    ("serve.saturated", "count"), ("loadgen.lag_ms_p90", "ms"),
)


def bypassed() -> dict:
    """The sched / serve metrics of a workload that never calls them: zero."""
    return {name: metric(0.0, unit, 0, "layer bypassed") for name, unit in SERVE_LAYER_METRICS}


def _statsz_delta(mark: dict, end: dict) -> dict:
    def shards_sum(stats, *path):
        total = 0
        for shard in stats["router"]["shards"].values():
            value = shard
            for key in path:
                value = value[key]
            total += value
        return total

    def delta(fn):
        return fn(end) - fn(mark)

    return {
        "cache_hits": delta(lambda s: s["router"]["cache"]["hits"]),
        "cache_misses": delta(lambda s: s["router"]["cache"]["misses"]),
        "batches_started": delta(lambda s: shards_sum(s, "batches", "started")),
        "preemptions": delta(lambda s: shards_sum(s, "preemptions")),
        "jobs_failed": delta(lambda s: shards_sum(s, "jobs", "failed")),
        "routed_affine": delta(lambda s: s["router"]["routed_affine"]),
        "routed_spilled": delta(lambda s: s["router"]["routed_spilled"]),
        "accepted": delta(lambda s: s["http"]["accepted"]),
        "throttled": delta(lambda s: s["http"]["throttled"]),
        "saturated": delta(lambda s: s["http"]["saturated"]),
    }


def serve_layer_metrics(spans: Spans, gen, window_s: float) -> dict:
    """sched / serve / load-generator metrics of one traced serve run."""
    d = _statsz_delta(gen.stats["mark"], gen.stats["end"])
    runs = spans.get("EnsembleSimulation.run")
    admit = spans.durations("RateLimiter.admit")
    submit = spans.durations("ShardRouter.submit")
    if len(admit) == len(submit) and admit:
        admit_path = percentile([a + b for a, b in zip(admit, submit)], 50) * 1e3
    else:
        admit_path = spans.p_ms("RateLimiter.admit", 50) + spans.p_ms("ShardRouter.submit", 50)
    steps = spans.durations("ShardRouter.step")
    lags = gen.lags["measured"]
    lookups = d["cache_hits"] + d["cache_misses"]
    routed = d["routed_affine"] + d["routed_spilled"]
    chains = runs["units"][1] if runs["units"] else 0.0
    delta = "statsz delta over the measured phase"
    values = {  # name: (value, samples, statistic)
        "sched.step_ms_p50": (
            spans.p_ms("Scheduler.step", 50), len(spans.durations("Scheduler.step")), "p50"),
        "sched.submit_ms_p50": (
            spans.p_ms("Scheduler.submit", 50), len(spans.durations("Scheduler.submit")), "p50"),
        "sched.chains_per_advance": (
            ratio(chains, runs["calls"]), runs["calls"], "mean chains per EnsembleSimulation.run"),
        "sched.cache_hit_rate": (ratio(d["cache_hits"], lookups), lookups, delta),
        "sched.batches_started": (d["batches_started"], 1, delta),
        "sched.preemptions": (d["preemptions"], 1, delta),
        "sched.jobs_failed": (d["jobs_failed"], 1, delta),
        "serve.router_step_ms_p90": (spans.p_ms("ShardRouter.step", 90), len(steps), "p90"),
        "serve.loop_busy_share": (
            ratio(sum(steps), window_s), len(steps), "ShardRouter.step time / window wall"),
        "serve.admit_path_ms_p50": (
            admit_path, len(admit), "p50 of RateLimiter.admit + ShardRouter.submit"),
        "serve.protocol_ms_p50": (
            spans.p_ms("config_from_wire", 50) + spans.p_ms("result_to_wire", 50),
            len(spans.durations("result_to_wire")),
            "p50 config_from_wire + p50 result_to_wire"),
        "serve.affine_share": (ratio(d["routed_affine"], routed), routed, delta),
        "serve.accepted": (d["accepted"], 1, delta),
        "serve.throttled": (d["throttled"], 1, delta),
        "serve.saturated": (d["saturated"], 1, delta),
        "loadgen.lag_ms_p90": (
            percentile(lags, 90) * 1e3 if lags else 0.0, len(lags), "p90"),
    }
    return {
        name: metric(values[name][0], unit, values[name][1], values[name][2])
        for name, unit in SERVE_LAYER_METRICS
    }


def sim_trace_report(workload: str, seed: int, seconds: float) -> dict:
    half = seconds / 2.0
    _, plain = sim_child(workload, seed, half, 0)
    _, traced = sim_child(workload, seed, half, 1)
    spans = Spans(traced["trace"])
    times = traced["times"]
    out = layer_metrics(spans, sum(times))
    out["core.setup_s"] = metric(traced["core_setup_s"], "s", 1, "construct + 2 warm-up sweeps")
    out.update(bypassed())
    plain_mean = statistics.fmean(plain["times"])
    out["trace.overhead_share"] = metric(
        (statistics.fmean(times) - plain_mean) / plain_mean, "ratio", len(times),
        "mean sweep, traced vs untraced",
    )
    ok = plain["check"]["ok"] and traced["check"]["ok"]
    return {
        "metrics": out,
        "extra": {},
        "check": {"untraced": plain["check"], "traced": traced["check"], "ok": ok},
        "attempted": len(times) + len(plain["times"]),
        "failed": 0 if ok else len(times) + len(plain["times"]),
        "valid": True,
    }


def serve_trace_report(seed: int, seconds: float) -> dict:
    half = seconds / 2.0
    plain = serve_once(seed, half, 0)
    traced = serve_once(seed, half, 1)
    checks = {"untraced": check_serve(plain["gen"], seed),
              "traced": check_serve(traced["gen"], seed)}
    spans = Spans(traced["server"]["trace"])
    window_s = traced["server"]["window_s"]
    gen = traced["gen"]
    lat = serve_latencies(gen)
    out = layer_metrics(spans, window_s)
    inits = spans.durations("EnsembleSimulation.__init__")
    out["core.setup_s"] = metric(
        statistics.median(inits) if inits else 0.0, "s", len(inits),
        "median EnsembleSimulation construction per batch",
    )
    out.update(serve_layer_metrics(spans, gen, window_s))
    plain_p50 = percentile(serve_latencies(plain["gen"])["result"], 50)
    out["trace.overhead_share"] = metric(
        (percentile(lat["result"], 50) - plain_p50) / plain_p50, "ratio", len(lat["result"]),
        "result p50, traced vs untraced",
    )
    failed = sum(
        c["refused"] + c["failed"] + c["lost"] + c["wrong"] for c in checks.values()
    )
    lag_ok = all(
        percentile(serve_latencies(r["gen"])["lag"], 90) * 1e3 <= MAX_LAG_P90_MS
        for r in (plain, traced)
    )
    return {
        "metrics": out,
        "extra": {},
        "check": {**checks, "ok": all(c["ok"] for c in checks.values())},
        "attempted": len(plain["gen"].runs) + len(gen.runs),
        "failed": failed,
        "valid": lag_ok,
    }


# -- provenance and output ----------------------------------------------------------


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_sha256() -> str:
    """Digest of every source file under ``src/``: the code that was timed."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_report(prov: dict, report: dict) -> None:
    print(f"hostbench {prov['workload']}  seed={prov['seed']}  seconds={prov['seconds']}  "
          f"trace={prov['trace']}")
    print(f"  git {prov['git_sha']}  src sha256 {prov['src_sha256'][:16]}")
    print(f"  python {prov['python']}  numpy {prov['numpy']}  cpu {prov['cpu']}  "
          f"nproc {prov['nproc']}")
    rows = list(report["metrics"].items()) + list(report["extra"].items())
    print(f"  {'metric':28s} {'value':>14s} {'unit':6s} {'n':>7s}  {'tag':9s} stat")
    for name, m in rows:
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} {m['n']:7d}  "
              f"{m['tag']:9s} {m['stat']}")
    for phase, counts in report.get("phases", {}).items():
        print(f"  {phase:8s} sent {counts['sent']}  succeeded {counts['succeeded']}  "
              f"failed {counts['failed']}")
    if not report["valid"]:
        print(f"  INVALID: the load generator ran late (lag p90 > {MAX_LAG_P90_MS} ms)")
    print("  checks " + json.dumps(report["check"], sort_keys=True))
    print(json.dumps({"provenance": prov, "metrics": report["metrics"],
                      "extra": report["extra"]}, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload in SIM_WORKLOADS:
            build = sim_trace_report if args.trace else sim_report
            report = build(args.workload, args.seed, args.seconds)
        else:
            build = serve_trace_report if args.trace else serve_report
            report = build(args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1
    prov = provenance(args)
    print_report(prov, report)
    correct = bool(report["check"]["ok"]) and report["failed"] == 0 and report["valid"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in report["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
