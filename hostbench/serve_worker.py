"""Server process of the ``serve_mixed`` workload.

Runs one :class:`repro.serve.ServeApp` on a loopback port with the
topology pinned at two shards and autoscaling off, prints ``PORT <n>``
once it listens, and takes commands on stdin:

``mark``  start the measured window (resets the per-layer spans);
``stop``  stop serving and print one JSON line: peak RSS, the window's
          wall time and, with ``--trace 1``, the window's spans.

Run by ``hostbench/run.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import threading
import time

from tracing import Tracer, install_serve


async def serve(tracer: "Tracer | None") -> dict:
    from repro.serve import ServeApp, ShardRouter

    app = ServeApp(router=ShardRouter(n_shards=2), autoscale=False)
    await app.start()
    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()
    window = {"start": time.perf_counter()}

    def command(line: str) -> None:
        if line == "mark":
            window["start"] = time.perf_counter()
            if tracer is not None:
                tracer.reset()
        elif line in ("stop", ""):
            stopped.set()

    def read_commands() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(command, line.strip())
        loop.call_soon_threadsafe(command, "")

    threading.Thread(target=read_commands, daemon=True).start()
    sys.stdout.write(f"PORT {app.port}\n")
    sys.stdout.flush()
    await stopped.wait()
    window_s = time.perf_counter() - window["start"]
    trace = tracer.summary() if tracer is not None else None
    await app.stop(finish=False)
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "window_s": window_s,
        "trace": trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_serve(tracer)
    result = asyncio.run(serve(tracer))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
