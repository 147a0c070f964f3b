"""Traced sweep executor: record one fused sweep, replay it N times.

The fused engine (:mod:`repro.core.fused`) removed steady-state
allocations, but every sweep still walks the updater's Python logic —
workspace lookups, shape checks, method dispatch — before each backend
op.  BENCH_fused_sweep.json shows what that costs: once allocation is
gone, eager per-op *dispatch* is the ceiling (fused conv at ~1.09x).
The paper hits the same wall and amortises it by XLA-compiling the whole
sweep into one program; the rack-scale GPU reproduction does it with
fused persistent kernels.  This module is the software analogue:

1. warm-up — one eager fused sweep builds every cached artifact
   (workspace buffers, the :class:`~repro.core.accept.AcceptanceTable`,
   checkerboard masks, device-scalar cache), so the steady state touches
   only the ``*_into`` backend vocabulary on stable buffers;
2. record — one more sweep runs with the updater's backend swapped for a
   :class:`_RecordingBackend` proxy that captures the exact
   (op, arg-buffer, out-buffer) sequence into a :class:`SweepTrace`;
3. replay — N further sweeps are the recorded program run back as a
   tight loop over pre-bound callables, with **zero** Python
   re-interpretation of updater logic.

Replay is bit-identical to eager-fused by construction: every mutation
of a fused sweep flows through backend ops on buffers that are stable
across sweeps, and the one stateful op — ``uniform_into`` — advances the
recorded Philox stream exactly as an eager sweep would.  Soundness is
checked, not assumed: if the recording sweep calls any *allocating*
backend op (a cold cache, an updater outside the fused steady state),
the trace is marked unsound and the executor falls back to eager sweeps
permanently for that binding.  Which ops replay and which allocate is
read off the backend's naming rule (:data:`REPLAYABLE_OPS`), not kept
in a list here.

A trace is bound to the identities of the state tensors and the stream
it recorded.  Any change — checkpoint restore, ensemble roster rebuild,
distributed topology rebuild, or a new shape/dtype/beta/field/fused
configuration (all of which rebuild the updater and its buffers) —
invalidates the trace and the next run re-records.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..backend.base import Backend
from .kernels import PhaseHalos

__all__ = [
    "REPLAYABLE_OPS",
    "ALLOCATING_OPS",
    "SweepTrace",
    "TracedExecutor",
    "PhaseTracedExecutor",
    "record_traced_metrics",
]

#: The public backend vocabulary, split by its naming rule: an op whose
#: name ends in ``_into`` writes into caller-owned buffers, every other
#: public op allocates its result.
_VOCABULARY = frozenset(
    name
    for name, attr in vars(Backend).items()
    if not name.startswith("_") and callable(attr)
)

#: The in-place ops a steady-state fused sweep uses.  Calls to these are
#: recorded verbatim: same bound method, same buffer arguments, replayed
#: in order.
REPLAYABLE_OPS = frozenset(name for name in _VOCABULARY if name.endswith("_into"))

#: Ops that allocate fresh arrays.  Seeing one during a recording sweep
#: means the sweep was not in its steady state (a cold cache, an
#: elementwise code path) — the resulting trace could not be replayed
#: faithfully, so it is marked unsound.
ALLOCATING_OPS = _VOCABULARY - REPLAYABLE_OPS


class SweepTrace:
    """One recorded sweep: an ordered (op, args) program plus soundness.

    ``record`` appends entries during the recording sweep; ``compile``
    freezes them into a list of pre-bound callables; ``replay`` runs the
    program once — one full sweep's worth of backend ops, no updater
    logic.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[str, object, tuple, dict]] = []
        self._steps: list | None = None
        self.sound = True
        self.unsound_ops: list[str] = []

    def record(self, name: str, fn, args: tuple, kwargs: dict) -> None:
        self._entries.append((name, fn, args, kwargs))

    def mark_unsound(self, name: str) -> None:
        self.sound = False
        self.unsound_ops.append(name)

    @property
    def n_ops(self) -> int:
        """Recorded backend ops per sweep."""
        return len(self._entries)

    def compile(self) -> "SweepTrace":
        """Freeze the recorded entries into pre-bound replay callables."""
        if not self.sound:
            raise RuntimeError(
                f"cannot compile an unsound trace (saw {self.unsound_ops})"
            )
        steps = []
        for name, fn, args, kwargs in self._entries:
            if kwargs:
                steps.append(partial(fn, *args, **kwargs))
            else:
                steps.append(partial(fn, *args))
        self._steps = steps
        return self

    def replay(self) -> None:
        """Run the recorded program once (one sweep / one phase)."""
        for step in self._steps:
            step()


class _RecordingBackend:
    """Proxy over a real backend that records the ``*_into`` op stream.

    Every attribute not intercepted (dtype, caches, private helpers)
    delegates to the real backend, so cached scalars and quantize
    scratch live where eager sweeps left them.  Replayable ops are
    recorded *and* executed — the recording sweep is a real sweep;
    allocating ops execute but mark the trace unsound.
    """

    __slots__ = ("_real", "_trace")

    def __init__(self, real: Backend, trace: SweepTrace) -> None:
        self._real = real
        self._trace = trace

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if name in REPLAYABLE_OPS:
            trace = self._trace

            def recorded_op(*args, _fn=attr, _name=name, **kwargs):
                trace.record(_name, _fn, args, kwargs)
                return _fn(*args, **kwargs)

            return recorded_op
        if name in ALLOCATING_OPS:
            trace = self._trace

            def allocating_op(*args, _fn=attr, _name=name, **kwargs):
                trace.mark_unsound(_name)
                return _fn(*args, **kwargs)

            return allocating_op
        return attr


class _TracedBase:
    """Counters and trace bookkeeping shared by both executor shapes."""

    def __init__(self, updater) -> None:
        self.updater = updater
        self.sweeps_replayed = 0
        self.sweeps_eager = 0
        self.traces_recorded = 0
        self.invalidations = 0
        self.fallbacks = 0
        self._bound: tuple | None = None
        self._fallback = False

    @staticmethod
    def _tensors_of(state) -> tuple:
        s00 = getattr(state, "s00", None)
        if s00 is not None:
            return (s00, state.s01, state.s10, state.s11)
        w00 = getattr(state, "w00", None)
        if w00 is not None:
            # Packed states carry four uint64 word planes.
            return (w00, state.w01, state.w10, state.w11)
        return (state,)

    def _check_binding(self, state, stream) -> None:
        """(Re)bind to the state tensors + stream; invalidate on change.

        Identity (``is``), not equality: a trace replays writes into the
        exact arrays it recorded, so a restored checkpoint, a rebuilt
        ensemble roster or a new stream object must drop it.  The bound
        references are held strongly, so an id can never be recycled
        under us.
        """
        key = (*self._tensors_of(state), stream)
        bound = self._bound
        if bound is not None and len(bound) == len(key) and all(
            a is b for a, b in zip(bound, key)
        ):
            return
        if bound is not None:
            self._invalidate()
        self._bound = key

    def _invalidate(self) -> None:
        if self._has_trace():
            self.invalidations += 1
        self._drop_traces()
        self._fallback = False

    def rebind(self, updater) -> None:
        """Point at a rebuilt updater, dropping any recorded program.

        Counters carry over — invalidations are part of the story the
        ``traced_*`` gauges tell.
        """
        self.updater = updater
        self._invalidate()
        self._bound = None

    # Subclass hooks -------------------------------------------------------

    def _has_trace(self) -> bool:
        raise NotImplementedError

    def _drop_traces(self) -> None:
        raise NotImplementedError

    @property
    def program_ops(self) -> int:
        raise NotImplementedError


class TracedExecutor(_TracedBase):
    """Whole-sweep traced execution for the solo and ensemble drivers.

    ``run(state, stream, n)`` advances the chain ``n`` sweeps: the first
    call pays one eager warm-up sweep and one recording sweep, every
    further sweep is a replay.  All sweeps — eager, recording, replayed —
    advance the Philox stream identically, so the trajectory is
    bit-identical to ``n`` eager sweeps however they were split.
    """

    def __init__(self, updater) -> None:
        super().__init__(updater)
        self.trace: SweepTrace | None = None
        self._warmed = False

    def _has_trace(self) -> bool:
        return self.trace is not None

    def _drop_traces(self) -> None:
        self.trace = None
        self._warmed = False

    @property
    def program_ops(self) -> int:
        """Backend ops per replayed sweep (0 without a sound trace)."""
        return self.trace.n_ops if self.trace is not None else 0

    def _eager(self, state, stream, n: int):
        updater = self.updater
        for _ in range(n):
            state = updater.sweep(state, stream)
        self.sweeps_eager += n
        return state

    def _record(self, state, stream):
        trace = SweepTrace()
        updater = self.updater
        real = updater.backend
        updater.backend = _RecordingBackend(real, trace)
        try:
            state = updater.sweep(state, stream)
        finally:
            updater.backend = real
        self.sweeps_eager += 1  # the recording sweep advanced the chain
        if trace.sound and trace.n_ops > 0:
            self.trace = trace.compile()
            self.traces_recorded += 1
        else:
            # Not a steady-state fused sweep (cold cache or elementwise
            # path): replay would be unfaithful, stay eager from now on.
            self._fallback = True
            self.fallbacks += 1
        return state

    def run(self, state, stream, n_sweeps: int):
        """Advance ``n_sweeps`` sweeps, replaying wherever possible."""
        if n_sweeps <= 0:
            return state
        self._check_binding(state, stream)
        n = n_sweeps
        if self.trace is None and not self._fallback:
            # Warm-up state persists across calls, so per-sweep callers
            # (telemetry-attached drivers) still reach the replay path:
            # sweep 1 warms caches + buffers, sweep 2 records, 3+ replay.
            if not self._warmed:
                state = self._eager(state, stream, 1)
                self._warmed = True
                n -= 1
                if n == 0:
                    return state
            state = self._record(state, stream)
            n -= 1
        trace = self.trace
        if trace is None:
            return self._eager(state, stream, n) if n else state
        replay = trace.replay
        for _ in range(n):
            replay()
        self.sweeps_replayed += n
        return state


class PhaseTracedExecutor(_TracedBase):
    """Per-colour-phase traced execution for one distributed core.

    A distributed sweep interleaves halo collectives (which must stay
    eager — they flow through the SPMD runtime and the link model) with
    two local colour-phase updates, so the traced unit is the phase, not
    the sweep.  Incoming halos are fresh arrays every sweep; they are
    staged into stable per-(colour, direction) buffers before the phase
    runs, so the recorded program's halo splices read refreshed contents
    from the same arrays on every replay.
    """

    def __init__(self, updater) -> None:
        super().__init__(updater)
        self.traces: dict[str, SweepTrace] = {}
        self._warmed: set[str] = set()
        self._halo_bufs: dict[tuple[str, str], np.ndarray] = {}

    def _has_trace(self) -> bool:
        return bool(self.traces)

    def _drop_traces(self) -> None:
        self.traces.clear()
        self._warmed.clear()

    @property
    def program_ops(self) -> int:
        """Backend ops per replayed *sweep* (both colour phases)."""
        return sum(trace.n_ops for trace in self.traces.values())

    def _stage_halos(self, color: str, halos: dict) -> PhaseHalos:
        staged = {}
        for direction, arrived in halos.items():
            key = (color, direction)
            buf = self._halo_bufs.get(key)
            if (
                buf is None
                or buf.shape != arrived.shape
                or buf.dtype != arrived.dtype
            ):
                buf = np.empty_like(arrived)
                self._halo_bufs[key] = buf
            np.copyto(buf, arrived)
            staged[direction] = buf
        return PhaseHalos(**staged)

    def run_phase(self, lat, color: str, stream, halos: dict):
        """One colour phase: eager warm-up, then record, then replay."""
        self._check_binding(lat, stream)
        staged = self._stage_halos(color, halos)
        trace = self.traces.get(color)
        if trace is not None:
            trace.replay()
            self.sweeps_replayed += 1
            return lat
        updater = self.updater
        if self._fallback or color not in self._warmed:
            self._warmed.add(color)
            self.sweeps_eager += 1
            return updater.update_color(lat, color, stream=stream, halos=staged)
        trace = SweepTrace()
        real = updater.backend
        updater.backend = _RecordingBackend(real, trace)
        try:
            lat = updater.update_color(lat, color, stream=stream, halos=staged)
        finally:
            updater.backend = real
        self.sweeps_eager += 1
        if trace.sound and trace.n_ops > 0:
            self.traces[color] = trace.compile()
            self.traces_recorded += 1
        else:
            self._fallback = True
            self.fallbacks += 1
        return lat


def record_traced_metrics(registry, *executors) -> None:
    """Publish the traced executor's gauges (zeros when tracing is off).

    Sums over every executor given (one for solo/ensemble, one per core
    for distributed; ``None`` entries are skipped so drivers can pass
    their executor slot unconditionally):

    * ``traced_sweeps_replayed`` / ``traced_sweeps_eager`` — how the
      chain's sweeps (phases, for distributed cores) were executed;
    * ``traced_traces_recorded`` / ``traced_invalidations`` /
      ``traced_fallbacks`` — recorder lifecycle;
    * ``traced_program_ops`` — backend ops per replayed sweep.
    """
    replayed = eager = recorded = invalidations = fallbacks = ops = 0
    for ex in executors:
        if ex is None:
            continue
        replayed += ex.sweeps_replayed
        eager += ex.sweeps_eager
        recorded += ex.traces_recorded
        invalidations += ex.invalidations
        fallbacks += ex.fallbacks
        ops += ex.program_ops
    registry.gauge("traced_sweeps_replayed").set(replayed)
    registry.gauge("traced_sweeps_eager").set(eager)
    registry.gauge("traced_traces_recorded").set(recorded)
    registry.gauge("traced_invalidations").set(invalidations)
    registry.gauge("traced_fallbacks").set(fallbacks)
    registry.gauge("traced_program_ops").set(ops)

