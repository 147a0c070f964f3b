"""Per-layer spans recorded from outside the program.

The traced run wraps public methods of each layer's classes with a
timer before any simulation, scheduler or server is built.  A span is
one call; a layer's self time is the span minus the spans of the calls
it made into other wrapped methods.  Methods are wrapped on the class,
not looked up through module attributes, because callers bind them
early: ``streams.py`` imports ``philox_bits_into`` by name, and the
traced sweep executor stores bound backend methods when it records.

Spans live in memory as per-method aggregates; a few methods whose
latency distribution is reported also keep every duration.
"""

from __future__ import annotations

import functools
import time

import numpy as np

#: Backend ``*_into`` ops grouped by the kind of work they do on the host:
#: neighbour sums (band matmuls and convs), the acceptance-table gather,
#: packed word kernels, and elementwise work (everything else).
MATMUL_OPS = frozenset(
    {
        "matmul_into",
        "band_cross_matmul_into",
        "band_pair_matmul_into",
        "shifted_pair_sum_into",
        "conv2d_neighbors_into",
    }
)
GATHER_OPS = frozenset({"take_into"})


def backend_category(name: str) -> str:
    if name.startswith("packed_"):
        return "packed"
    if name in MATMUL_OPS:
        return "matmul"
    if name in GATHER_OPS:
        return "gather"
    return "vpu"


class Record:
    """Aggregate of every span of one wrapped method."""

    __slots__ = ("layer", "calls", "entries", "span_s", "self_s", "units", "durations")

    def __init__(self, layer: str, keep: bool) -> None:
        self.layer = layer
        self.durations: "list[float] | None" = [] if keep else None
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        #: Calls entered from outside this record's layer.
        self.entries = 0
        self.span_s = 0.0
        self.self_s = 0.0
        #: Work counts the calls reported (words drawn, bytes touched, ...).
        self.units: "list[float]" = []
        if self.durations is not None:
            self.durations.clear()


class Tracer:
    """Wraps methods with span timers and keeps the aggregates."""

    def __init__(self) -> None:
        self.records: "dict[str, Record]" = {}
        self._stack: "list[list]" = []

    def wrap(self, fn, layer: str, name: str, units=None, keep: bool = False):
        """``fn`` with a span around every call, booked to ``layer``.

        ``units(args, kwargs)`` returns a tuple of work counts summed
        into the record (e.g. words drawn); it runs after the span ends.
        """
        rec = self.records[name] = Record(layer, keep)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = stack[-1] if stack else None
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                rec.calls += 1
                rec.span_s += span
                rec.self_s += span - frame[0]
                if outer is None or outer[1] != layer:
                    rec.entries += 1
                if outer is not None:
                    outer[0] += span
                if rec.durations is not None:
                    rec.durations.append(span)
                if units is not None:
                    counts = units(args, kwargs)
                    if rec.units:
                        rec.units = [a + b for a, b in zip(rec.units, counts)]
                    else:
                        rec.units = list(counts)

        return traced

    def patch(self, owner, attr: str, layer: str, name: str | None = None,
              units=None, keep: bool = False) -> None:
        """Replace ``owner.attr`` with its traced wrapper."""
        setattr(owner, attr, self.wrap(
            getattr(owner, attr), layer, name or f"{owner.__name__}.{attr}",
            units=units, keep=keep,
        ))

    def reset(self) -> None:
        for rec in self.records.values():
            rec.reset()

    def summary(self) -> dict:
        """Plain-data snapshot of every record (for a JSON hand-off)."""
        return {
            name: {
                "layer": r.layer,
                "calls": r.calls,
                "entries": r.entries,
                "span_s": r.span_s,
                "self_s": r.self_s,
                "units": r.units,
                "durations": list(r.durations) if r.durations is not None else None,
            }
            for name, r in self.records.items()
        }


# -- what each layer's wrappers count -----------------------------------------


def _out_words(args, kwargs) -> tuple:
    return (float(kwargs.get("out", args[-1]).size),)


def _n_words(args, kwargs) -> tuple:
    return (float(kwargs.get("n_words", args[1])),)


def _shape_words(args, kwargs) -> tuple:
    return (float(np.prod(kwargs.get("shape", args[1]))),)


def _array_bytes(args, kwargs) -> tuple:
    return (float(sum(
        value.nbytes
        for value in (*args, *kwargs.values())
        if isinstance(value, np.ndarray)
    )),)


def _sweeps(args, kwargs) -> tuple:
    return (float(kwargs.get("n_sweeps", args[1])),)


def _sweeps_and_chains(args, kwargs) -> tuple:
    return (float(kwargs.get("n_sweeps", args[1])), float(args[0].n_chains))


def install_core(tracer: Tracer) -> None:
    """Wrap the ``rng``, ``backend``, ``core`` and ``observables`` layers."""
    from repro.backend.base import Backend
    from repro.core.ensemble import EnsembleSimulation
    from repro.core.simulation import IsingSimulation
    from repro.rng.streams import BatchedPhiloxStream, PhiloxStream

    for cls in (PhiloxStream, BatchedPhiloxStream):
        prefix = cls.__name__
        tracer.patch(cls, "uniform_into", "rng", f"{prefix}.uniform_into", _out_words)
        tracer.patch(cls, "bits_into", "rng", f"{prefix}.bits_into", _out_words)
        tracer.patch(cls, "random_bits", "rng", f"{prefix}.random_bits", _n_words)
        tracer.patch(cls, "uniform", "rng", f"{prefix}.uniform", _shape_words)

    for attr in sorted(vars(Backend)):
        if attr.endswith("_into") and not attr.startswith("_"):
            tracer.patch(Backend, attr, "backend", f"backend.{attr}", _array_bytes)

    for cls in (IsingSimulation, EnsembleSimulation):
        tracer.patch(cls, "__init__", "core", keep=True)
    tracer.patch(IsingSimulation, "run", "core", units=_sweeps)
    tracer.patch(EnsembleSimulation, "run", "core", units=_sweeps_and_chains)
    for attr in ("magnetization", "energy_per_spin"):
        tracer.patch(IsingSimulation, attr, "observables")
    for attr in ("magnetizations", "energies_per_spin"):
        tracer.patch(EnsembleSimulation, attr, "observables")


def install_serve(tracer: Tracer) -> None:
    """Wrap the ``sched`` and ``serve`` layers (plus the core-side ones)."""
    import repro.serve.app as app_module
    from repro.sched.scheduler import Scheduler
    from repro.serve.limits import RateLimiter
    from repro.serve.router import ShardRouter

    install_core(tracer)
    tracer.patch(Scheduler, "submit", "sched", keep=True)
    tracer.patch(Scheduler, "step", "sched", keep=True)
    tracer.patch(ShardRouter, "submit", "serve", keep=True)
    tracer.patch(ShardRouter, "step", "serve", keep=True)
    tracer.patch(RateLimiter, "admit", "serve", keep=True)
    # The wire codecs are module functions; the app calls them through
    # its own module globals, so that is where they are wrapped.
    tracer.patch(app_module, "config_from_wire", "serve", "config_from_wire", keep=True)
    tracer.patch(app_module, "result_to_wire", "serve", "result_to_wire", keep=True)
