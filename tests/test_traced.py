"""Traced sweep executor: record once, replay N, stay bit-identical.

The contract under test (see ``docs/traced_executor.md``): replayed
sweeps are bit-identical to eager-fused sweeps (which are themselves
bit-identical to the elementwise path), across all four updaters, both
dtypes, solo / ensemble / distributed drivers, field on and off; traces
invalidate on any binding change (restored checkpoints, roster rebuilds,
new streams); checkpoints taken mid-replay round-trip; and the
``traced_*`` telemetry gauges tell the recorder's story.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SimulationConfig, load, simulate
from repro.backend.numpy_backend import NumpyBackend
from repro.core.config import resolve_engine, resolve_tristate
from repro.core.distributed import DistributedIsing
from repro.core.ensemble import EnsembleSimulation
from repro.core.simulation import IsingSimulation
from repro.core.traced import (
    ALLOCATING_OPS,
    REPLAYABLE_OPS,
    SweepTrace,
    TracedExecutor,
    record_traced_metrics,
)
from repro.telemetry.report import RunTelemetry
from repro.tpu.dtypes import BFLOAT16

UPDATERS = ("compact", "conv", "checkerboard", "masked_conv")


def _solo(traced, updater="compact", dtype=None, field=0.0, seed=11, side=16):
    backend = NumpyBackend(dtype) if dtype is not None else None
    return IsingSimulation(
        side, 2.2, updater=updater, backend=backend, seed=seed,
        field=field, fused=True, traced=traced,
    )


class TestResolve:
    def test_auto_follows_fused(self):
        sim = _solo("auto")
        assert sim.traced is True
        assert sim._executor is not None

    def test_off_by_default_on_tpu_cost_model(self):
        sim = DistributedIsing(16, 2.2, core_grid=(1, 1))
        assert sim.traced is False
        assert sim._executors == [None]

    def test_true_requires_fused(self):
        with pytest.raises(ValueError, match="requires the fused"):
            IsingSimulation(16, 2.2, fused=False, traced=True)
        with pytest.raises(ValueError, match="requires the fused"):
            EnsembleSimulation(16, [2.0, 2.2], fused=False, traced=True)
        with pytest.raises(ValueError, match="requires the fused"):
            DistributedIsing(16, 2.2, core_grid=(1, 1), traced=True)

    def test_rejects_junk(self):
        with pytest.raises(ValueError, match="traced must be"):
            resolve_tristate("traced", "yes")
        with pytest.raises(ValueError, match="traced must be"):
            SimulationConfig(traced="sometimes")

    def test_op_sets_are_disjoint(self):
        assert not (REPLAYABLE_OPS & ALLOCATING_OPS)


class TestSoloBitIdentity:
    @pytest.mark.parametrize("updater", UPDATERS)
    @pytest.mark.parametrize("dtype", [None, BFLOAT16])
    def test_traced_matches_eager_fused(self, updater, dtype):
        traced = _solo(True, updater=updater, dtype=dtype)
        eager = _solo(False, updater=updater, dtype=dtype)
        traced.run(9)
        eager.run(9)
        assert np.array_equal(traced.lattice, eager.lattice)
        ex = traced._executor
        assert ex.traces_recorded == 1
        assert ex.fallbacks == 0
        assert ex.sweeps_replayed == 7  # 1 warm-up + 1 recording + 7 replays

    @pytest.mark.parametrize("updater", UPDATERS)
    def test_traced_matches_elementwise(self, updater):
        traced = _solo(True, updater=updater)
        elementwise = IsingSimulation(
            16, 2.2, updater=updater, seed=11, fused=False, traced=False
        )
        traced.run(8)
        elementwise.run(8)
        assert np.array_equal(traced.lattice, elementwise.lattice)

    @pytest.mark.parametrize("updater", ["compact", "masked_conv"])
    def test_with_external_field(self, updater):
        traced = _solo(True, updater=updater, field=0.3)
        eager = _solo(False, updater=updater, field=0.3)
        traced.run(8)
        eager.run(8)
        assert np.array_equal(traced.lattice, eager.lattice)

    def test_split_runs_match_one_run(self):
        whole = _solo(True)
        split = _solo(True)
        whole.run(10)
        for _ in range(10):
            split.run(1)
        assert np.array_equal(whole.lattice, split.lattice)

    def test_per_sweep_calls_still_reach_replay(self):
        # Telemetry-attached drivers advance one sweep per call; warm-up
        # state must persist across calls or tracing never engages.
        sim = IsingSimulation(
            16, 2.2, seed=4, fused=True, traced=True,
            telemetry=RunTelemetry(physics_interval=0),
        )
        sim.run(6)
        assert sim._executor.sweeps_replayed == 4
        bare = _solo(False, seed=4)
        bare.run(6)
        assert np.array_equal(sim.lattice, bare.lattice)


class TestInvalidation:
    def test_new_stream_invalidates(self):
        sim = _solo(True)
        sim.run(5)
        ex = sim._executor
        assert ex.traces_recorded == 1
        sim.stream = type(sim.stream)(sim.stream.seed, sim.stream.stream_id)
        sim.run(5)
        assert ex.invalidations == 1
        assert ex.traces_recorded == 2

    def test_ensemble_roster_change_invalidates(self):
        ens = EnsembleSimulation(16, [2.0, 2.2], seed=2, traced=True)
        ens.run(5)
        ex = ens._executor
        assert ex.traces_recorded == 1
        lattice, stream = ens.remove_chain(1)
        ens.run(5)
        assert ex.invalidations == 1
        assert ex.traces_recorded == 2
        # The rejoined roster stays bit-identical to an undisturbed solo.
        ens.add_chain(2.2, stream, lattice)
        ens.run(3)

    def test_unsound_trace_falls_back_eagerly(self):
        sim = _solo(True)
        ex = sim._executor
        trace = SweepTrace()
        trace.mark_unsound("array")
        assert not trace.sound
        with pytest.raises(RuntimeError, match="unsound"):
            trace.compile()
        # An executor over a non-fused updater records nothing and
        # permanently falls back rather than replaying garbage.
        eager = IsingSimulation(16, 2.2, seed=11, fused=False)
        bad = TracedExecutor(eager._updater)
        state = eager._updater.to_state(eager.lattice)
        state = bad.run(state, eager.stream, 4)
        assert bad.fallbacks == 1
        assert bad.sweeps_replayed == 0
        assert bad.sweeps_eager == 4
        assert ex.fallbacks == 0


class TestCheckpointRoundTrip:
    def test_solo_checkpoint_mid_replay(self):
        sim = _solo(True)
        sim.run(6)  # well into replay territory
        resumed = IsingSimulation.from_state_dict(sim.state_dict())
        assert resumed.traced_config is True
        assert resumed.traced is True
        baseline = _solo(False)
        baseline.run(13)
        sim.run(7)
        resumed.run(7)
        assert np.array_equal(sim.lattice, baseline.lattice)
        assert np.array_equal(resumed.lattice, baseline.lattice)

    def test_explicit_traced_flag_round_trips(self):
        sim = _solo(False)
        state = sim.state_dict()
        assert state["traced"] is False
        assert IsingSimulation.from_state_dict(state).traced is False

    def test_ensemble_checkpoint_mid_replay(self):
        ens = EnsembleSimulation(16, [2.0, 2.4], seed=5, traced=True)
        ens.run(6)
        resumed = load(ens.state_dict())
        ens.run(6)
        resumed.run(6)
        assert np.array_equal(ens.lattices, resumed.lattices)

    def test_distributed_checkpoint_mid_replay(self):
        sim = DistributedIsing(
            16, 2.2, core_grid=(2, 2), seed=3, fused=True, traced=True
        )
        sim.sweep(5)
        state = sim.state_dict()
        assert state["traced"] is True
        resumed = DistributedIsing.from_state_dict(state)
        assert resumed.traced is True
        sim.sweep(5)
        resumed.sweep(5)
        assert np.array_equal(sim.gather_lattice(), resumed.gather_lattice())


class TestDistributed:
    @pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
    def test_matches_eager_fused_and_elementwise(self, dtype):
        kw = dict(core_grid=(2, 2), seed=7, dtype=dtype)
        traced = DistributedIsing(16, 2.2, fused=True, traced=True, **kw)
        eager = DistributedIsing(16, 2.2, fused=True, traced=False, **kw)
        elementwise = DistributedIsing(16, 2.2, fused=False, **kw)
        traced.sweep(6)
        eager.sweep(6)
        elementwise.sweep(6)
        assert np.array_equal(traced.gather_lattice(), eager.gather_lattice())
        assert np.array_equal(
            traced.gather_lattice(), elementwise.gather_lattice()
        )
        for ex in traced._executors:
            assert ex.traces_recorded == 2  # one program per colour phase
            assert ex.fallbacks == 0
            assert ex.sweeps_replayed == 8  # (6 sweeps x 2 phases) - 4 warm

    def test_explicit_probs_bypass_tracing(self):
        sim = DistributedIsing(
            16, 2.2, core_grid=(1, 1), seed=1, fused=True, traced=True
        )
        rng = np.random.default_rng(0)
        pb = rng.random((16, 16)).astype(np.float32)
        pw = rng.random((16, 16)).astype(np.float32)
        sim.sweep(1, probs_black=pb, probs_white=pw)
        assert sim._executors[0].traces_recorded == 0

    def test_traced_log_spans_on_modeled_timeline(self):
        from repro.telemetry.trace import chrome_trace

        sim = DistributedIsing(
            16, 2.2, core_grid=(2, 2), seed=2,
            fused=True, traced=True, record_trace=True,
        )
        sim.sweep(5)
        names = [span["name"] for span in sim.traced_log]
        assert names[0] == "traced warmup"
        assert names[-1] == "traced replay"
        trace = chrome_trace(sim)
        assert trace["otherData"]["num_traced_spans"] == 5
        labels = [
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev["ph"] == "M"
        ]
        assert "traced replay" in labels


class TestTelemetryAndApi:
    def test_gauges(self):
        sim = IsingSimulation(
            16, 2.2, seed=9, fused=True, traced=True,
            telemetry=RunTelemetry(physics_interval=0),
        )
        sim.run(6)
        report = sim.report()
        assert report.run["traced"] is True
        metrics = report.metrics
        assert metrics["traced_sweeps_replayed"]["value"] == 4
        assert metrics["traced_sweeps_eager"]["value"] == 2
        assert metrics["traced_traces_recorded"]["value"] == 1
        assert metrics["traced_fallbacks"]["value"] == 0
        assert metrics["traced_program_ops"]["value"] > 0

    def test_gauges_zero_when_off(self):
        registry = RunTelemetry().registry
        record_traced_metrics(registry, None)
        assert registry.gauge("traced_sweeps_replayed").value == 0

    def test_config_passes_traced_through(self):
        cfg = SimulationConfig(shape=16, temperature=2.2, traced=False)
        sim = simulate(cfg)
        assert sim.traced is False
        assert simulate(cfg.evolve(traced="auto")).traced is True


class TestDefaultBlockShape:
    @pytest.mark.parametrize(
        "updater, expected",
        [
            ("masked_conv", None),
            ("checkerboard", (16, 20)),
            ("compact", (8, 10)),
            ("conv", (8, 10)),
        ],
    )
    def test_matches_driver_defaults(self, updater, expected):
        engine = resolve_engine(updater, "float32", "numpy", (16, 20))
        assert engine.block_shape == expected

    def test_packed_takes_no_block(self):
        # Packed spins are words per compact quarter: no block for any
        # updater, in the drivers and in the scheduler's cache key alike.
        for updater in ("compact", "checkerboard"):
            engine = resolve_engine(updater, "packed", "numpy", (128, 128))
            assert engine.block_shape is None
        sim = simulate(SimulationConfig(shape=128, dtype="packed"))
        assert sim.block_shape is None
        assert SimulationConfig(
            shape=128, dtype="packed"
        ).resolved_engine.block_shape is None

    @pytest.mark.parametrize("updater", ["compact", "conv", "checkerboard"])
    def test_driver_consumes_helper(self, updater):
        implicit = IsingSimulation(16, 2.2, updater=updater)
        engine = resolve_engine(updater, "float32", "numpy", (16, 16))
        assert implicit.block_shape == engine.block_shape
