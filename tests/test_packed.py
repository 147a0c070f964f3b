"""The packed multi-spin engine: bit-identity, physics, checkpoints, costs.

``dtype="packed"`` promotes the bit-packed baseline to a first-class
engine (``repro.core.packed``).  The contracts asserted here are the
ones ``docs/packed_engine.md`` documents: bit-identity against the
unpacked chains on shared uniforms (the CI invariant), the
``rng_bits=32`` same-stream twin property, Onsager-validated physics,
word-level checkpoint round trips that refuse to cross-load with
unpacked checkpoints, traced replay, "alu" cost-model charging, the
``packed_*`` telemetry gauges, and honest scheduler keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SimulationConfig, distributed, simulate
from repro.backend import NumpyBackend
from repro.backend.packed_ops import packed_threshold, site_values_u16
from repro.backend.tpu_backend import TPUBackend
from repro.baselines.multispin import MultispinUpdater
from repro.core import (
    CheckerboardUpdater,
    CompactUpdater,
    EnsembleSimulation,
    IsingSimulation,
    PackedState,
    PackedUpdater,
    record_packed_metrics,
    plain_to_grid,
    plain_to_quarters,
    grid_to_plain,
)
from repro.rng import PhiloxStream
from repro.rng.streams import BatchedPhiloxStream
from repro.sched.cache import canonical_cache_key
from repro.sched.coalesce import compat_key
from repro.telemetry import MetricsRegistry, RunTelemetry
from repro.tpu.dtypes import PACKED, resolve_dtype
from repro.tpu.tensorcore import TensorCore

from .conftest import make_lattice


def packed_backend() -> NumpyBackend:
    return NumpyBackend(PACKED)


# -- dtype plumbing ----------------------------------------------------------


class TestPackedDtype:
    def test_resolves_by_name(self):
        assert resolve_dtype("packed") is PACKED
        assert PACKED.name == "packed"
        assert PACKED.itemsize == 8

    def test_quantize_is_passthrough(self):
        words = np.array([1, 2], dtype=np.uint64)
        assert PACKED.quantize(words) is words or np.array_equal(
            PACKED.quantize(words), words
        )


# -- low-level kernels -------------------------------------------------------


class TestKernels:
    def test_packed_threshold_is_exact_ceiling(self):
        t = np.float32(0.25)
        assert packed_threshold(t, 16) == 2**14
        assert packed_threshold(np.float32(1.0), 16) == 2**16  # needs uint32
        assert packed_threshold(t, 24).dtype == np.uint32

    def test_site_values_u16_lanes(self):
        bits = np.array([0x0002_0001, 0xFFFF_0003], dtype=np.uint32)
        lanes = site_values_u16(bits, (2, 2))
        assert np.array_equal(lanes.ravel(), [1, 2, 3, 0xFFFF])

    def test_bits_into_matches_random_bits(self):
        a, b = PhiloxStream(9, 4), PhiloxStream(9, 4)
        out = np.empty(96, dtype=np.uint32)
        a.bits_into(out)
        assert np.array_equal(out, b.random_bits(96))
        assert a.counter == b.counter

    def test_batched_bits_into_per_chain_identity(self):
        solos = [PhiloxStream(3, sid) for sid in (0, 5)]
        batched = BatchedPhiloxStream.from_streams(
            [PhiloxStream(3, sid) for sid in (0, 5)]
        )
        out = np.empty((2, 64), dtype=np.uint32)
        batched.bits_into(out)
        for b, solo in enumerate(solos):
            assert np.array_equal(out[b], solo.random_bits(64))


# -- bit-identity (the CI invariant) -----------------------------------------


class TestBitIdentity:
    def test_probs_path_matches_checkerboard_chain(self):
        """Packed == unpacked checkerboard (Alg. 1) on shared per-site uniforms."""
        shape, beta, block = (8, 256), 0.44, (8, 256)
        plain = make_lattice(shape, seed=11)
        stream = PhiloxStream(2, 0)

        cb = CheckerboardUpdater(beta, NumpyBackend(), block_shape=block)
        grid = plain_to_grid(plain, block)
        packed = PackedUpdater(beta)
        pstate = packed.to_state(plain)

        for _ in range(6):
            u_black = stream.uniform(shape)
            u_white = stream.uniform(shape)
            grid = cb.sweep(
                grid,
                probs_black=plain_to_grid(u_black, block),
                probs_white=plain_to_grid(u_white, block),
            )
            qb, qw = plain_to_quarters(u_black), plain_to_quarters(u_white)
            pstate = packed.sweep(
                pstate,
                probs_black=(qb[0], qb[3]),
                probs_white=(qw[1], qw[2]),
            )
            assert np.array_equal(grid_to_plain(grid), packed.to_plain(pstate))

    def test_probs_path_matches_multispin_baseline(self):
        plain = make_lattice((8, 128), seed=3)
        baseline, packed = MultispinUpdater(0.6), PackedUpdater(0.6)
        b_state, p_state = baseline.to_state(plain), packed.to_state(plain)
        rng = np.random.default_rng(0)
        quarter = (4, 64)
        for _ in range(5):
            probs = [rng.random(quarter, dtype=np.float32) for _ in range(4)]
            b_state = baseline.sweep(
                b_state,
                probs_black=tuple(probs[:2]),
                probs_white=tuple(probs[2:]),
            )
            p_state = packed.sweep(
                p_state,
                probs_black=tuple(probs[:2]),
                probs_white=tuple(probs[2:]),
            )
            assert np.array_equal(
                baseline.to_plain(b_state), packed.to_plain(p_state)
            )

    def test_rng32_is_same_stream_twin_of_compact_float32(self):
        """rng_bits=32 consumes the float chains' exact Philox schedule."""
        plain = make_lattice((16, 128), seed=5)
        packed = PackedUpdater(0.5, rng_bits=32)
        compact = CompactUpdater(0.5, NumpyBackend(), block_shape=(8, 64))
        p_state, c_state = packed.to_state(plain), compact.to_state(plain)
        s_packed, s_compact = PhiloxStream(7, 1), PhiloxStream(7, 1)
        for _ in range(10):
            p_state = packed.sweep(p_state, s_packed)
            c_state = compact.sweep(c_state, s_compact)
        assert np.array_equal(packed.to_plain(p_state), compact.to_plain(c_state))
        assert s_packed.counter == s_compact.counter

    def test_ensemble_chains_match_solo_runs(self):
        ens = EnsembleSimulation(
            128, [1.8, 2.6], backend=packed_backend(), seed=13
        )
        ens.run(8)
        for b, temp in enumerate([1.8, 2.6]):
            solo = IsingSimulation(
                128, temp, backend=packed_backend(), seed=13, stream_id=b
            )
            solo.run(8)
            assert np.array_equal(ens.lattices[b], solo.lattice)

    def test_traced_replay_equals_eager(self):
        traced = IsingSimulation(128, 2.2, backend=packed_backend(), seed=1)
        eager = IsingSimulation(
            128, 2.2, backend=packed_backend(), seed=1, traced=False
        )
        assert traced.traced and not eager.traced
        traced.run(12)
        eager.run(12)
        assert np.array_equal(traced.lattice, eager.lattice)

    def test_checkerboard_updater_name_runs_same_engine(self):
        compact = IsingSimulation(128, 2.2, backend=packed_backend(), seed=2)
        checker = IsingSimulation(
            128, 2.2, updater="checkerboard", backend=packed_backend(), seed=2
        )
        compact.run(5)
        checker.run(5)
        assert np.array_equal(compact.lattice, checker.lattice)

    def test_steady_state_workspace_is_stable(self):
        sim = IsingSimulation(
            128, 2.2, backend=packed_backend(), seed=4, traced=False
        )
        sim.run(3)
        ws = sim._updater.workspace
        buffers, misses = ws.n_buffers, ws.misses
        sim.run(5)
        assert ws.n_buffers == buffers
        assert ws.misses == misses


# -- physics -----------------------------------------------------------------


class TestPhysics:
    def test_ordered_phase_onsager(self):
        sim = IsingSimulation(
            128, 1.5, backend=packed_backend(), seed=3, initial="cold"
        )
        sim.run(300)
        # Onsager: m(T=1.5) = 0.9865; stream-mode fluctuations stay close.
        assert abs(sim.magnetization()) == pytest.approx(0.9865, abs=0.02)

    def test_disordered_phase(self):
        sim = IsingSimulation(128, 3.0, backend=packed_backend(), seed=5)
        sim.run(300)
        assert abs(sim.magnetization()) < 0.1


# -- checkpoints -------------------------------------------------------------


class TestCheckpoints:
    def test_mid_run_resume_is_bit_identical(self):
        sim = IsingSimulation(128, 2.2, backend=packed_backend(), seed=8)
        sim.run(7)
        resumed = IsingSimulation.from_state_dict(sim.state_dict())
        assert resumed.packed
        sim.run(9)
        resumed.run(9)
        assert np.array_equal(sim.lattice, resumed.lattice)

    @pytest.mark.parametrize("driver", [IsingSimulation, EnsembleSimulation])
    def test_restores_do_not_alias_the_checkpoint(self, driver):
        # Two chains resumed from one checkpoint run independently and
        # leave its word planes untouched.
        if driver is IsingSimulation:
            sim = IsingSimulation(128, 2.2, backend=packed_backend(), seed=8)
        else:
            sim = EnsembleSimulation(128, [2.0, 2.4], backend=packed_backend(), seed=8)
        sim.run(3)
        state = sim.state_dict()
        words = {k: v.copy() for k, v in state["packed"]["words"].items()}
        first = driver.from_state_dict(state)
        first.run(5)
        second = driver.from_state_dict(state)
        for name, plane in words.items():
            assert np.array_equal(state["packed"]["words"][name], plane)
        second.run(5)
        assert np.array_equal(
            first._updater.to_plain(first._state),
            second._updater.to_plain(second._state),
        )

    def test_checkpoint_stores_word_planes(self):
        sim = IsingSimulation(128, 2.2, backend=packed_backend(), seed=8)
        sim.run(2)
        payload = sim.state_dict()["packed"]
        assert payload["word_bits"] == 64
        assert payload["bit_order"] == "little"
        assert payload["rng_bits"] == 16
        assert payload["words"]["w00"].dtype == np.uint64
        assert payload["words"]["w00"].shape == (64, 1)

    def test_unpacked_checkpoint_refuses_packed_load(self):
        state = IsingSimulation(128, 2.2, seed=1).state_dict()
        with pytest.raises(ValueError, match="cannot resume as dtype='packed'"):
            IsingSimulation.from_state_dict(state, backend=packed_backend())

    def test_packed_checkpoint_refuses_unpacked_load(self):
        state = IsingSimulation(
            128, 2.2, backend=packed_backend(), seed=1
        ).state_dict()
        with pytest.raises(ValueError, match="cannot resume on an unpacked"):
            IsingSimulation.from_state_dict(state, backend=NumpyBackend())

    def test_rng_bits_round_trips(self):
        sim = IsingSimulation(128, 2.2, backend=packed_backend(), seed=1)
        state = sim.state_dict()
        state["packed"]["rng_bits"] = 32
        resumed = IsingSimulation.from_state_dict(state)
        assert resumed._updater.rng_bits == 32

    def test_foreign_word_layout_rejected(self):
        sim = IsingSimulation(128, 2.2, backend=packed_backend(), seed=1)
        state = sim.state_dict()
        state["packed"]["word_bits"] = 32
        with pytest.raises(ValueError, match="word layout"):
            IsingSimulation.from_state_dict(state)

    def test_ensemble_resume_and_refusals(self):
        ens = EnsembleSimulation(
            128, [2.0, 2.4], backend=packed_backend(), seed=6
        )
        ens.run(4)
        state = ens.state_dict()
        resumed = EnsembleSimulation.from_state_dict(state)
        ens.run(4)
        resumed.run(4)
        assert np.array_equal(ens.lattices, resumed.lattices)
        with pytest.raises(ValueError, match="cannot resume on an unpacked"):
            EnsembleSimulation.from_state_dict(state, backend=NumpyBackend())
        unpacked = EnsembleSimulation(128, [2.0, 2.4], seed=6).state_dict()
        with pytest.raises(ValueError, match="cannot resume as dtype='packed'"):
            EnsembleSimulation.from_state_dict(
                unpacked, backend=packed_backend()
            )


# -- rejected configurations -------------------------------------------------


class TestRejections:
    @pytest.mark.parametrize("updater", ["conv", "masked_conv"])
    def test_conv_updaters_rejected(self, updater):
        with pytest.raises(ValueError, match="no packed kernels"):
            SimulationConfig(shape=128, dtype="packed", updater=updater)
        with pytest.raises(ValueError, match="no packed kernels"):
            IsingSimulation(
                128, 2.2, updater=updater, backend=packed_backend()
            )

    def test_field_rejected(self):
        with pytest.raises(ValueError, match="field=0.0"):
            SimulationConfig(shape=128, dtype="packed", field=0.2)
        with pytest.raises(ValueError, match="field=0.0"):
            IsingSimulation(128, 2.2, backend=packed_backend(), field=0.2)

    def test_block_shape_rejected(self):
        with pytest.raises(ValueError, match="block_shape"):
            SimulationConfig(shape=128, dtype="packed", block_shape=(32, 32))
        with pytest.raises(ValueError, match="block_shape"):
            IsingSimulation(
                128, 2.2, backend=packed_backend(), block_shape=(32, 32)
            )

    def test_narrow_lattice_rejected(self):
        with pytest.raises(ValueError, match="multiple of 128"):
            IsingSimulation(64, 2.2, backend=packed_backend())
        with pytest.raises(ValueError, match="multiple of 128"):
            EnsembleSimulation(64, [2.2], backend=packed_backend())

    def test_fused_false_rejected(self):
        with pytest.raises(ValueError, match="no elementwise path"):
            SimulationConfig(shape=128, dtype="packed", fused=False)
        with pytest.raises(ValueError, match="no elementwise path"):
            IsingSimulation(128, 2.2, backend=packed_backend(), fused=False)

    def test_distributed_rejected(self):
        with pytest.raises(ValueError, match="does not support dtype='packed'"):
            distributed(SimulationConfig(shape=128, dtype="packed", grid=(2, 2)))

    def test_updater_field_validation(self):
        with pytest.raises(ValueError, match="no field support"):
            PackedUpdater(0.44, field=0.1)
        with pytest.raises(ValueError, match="rng_bits"):
            PackedUpdater(0.44, rng_bits=24)
        with pytest.raises(ValueError, match="beta"):
            PackedUpdater(-1.0)


# -- cost model --------------------------------------------------------------


class TestCostModel:
    def test_alu_category_charges_vpu_lane(self):
        backend = TPUBackend(TensorCore(core_id=0), PACKED)
        words = np.zeros((4, 2), dtype=np.uint64)
        out = np.empty_like(words)
        backend.packed_xor_into(words, words, out)
        seconds = backend.core.profiler.seconds
        assert seconds["vpu"] > 0.0
        assert seconds["mxu"] == 0.0
        assert seconds["conv"] == 0.0

    def test_alu_prices_as_vpu_elementwise_not_matmul(self):
        """Packed words charge integer-ALU (VPU-pipe) flops per word."""
        backend = TPUBackend(TensorCore(core_id=0), PACKED)
        model = backend.core.cost_model
        alu = model.op_times("alu", flops=1e6, bytes_moved=0)
        vpu = model.op_times("vpu", flops=1e6, bytes_moved=0)
        assert set(alu) == {"vpu"}  # booked under the vpu profiler lane
        assert alu["vpu"] == pytest.approx(vpu["vpu"])
        # The charged work is per 64-spin word: a packed sweep's flops are
        # ~1/64 of the per-site float path's, so no matmul parity sneaks in.
        assert model.op_times("alu", flops=1e6 / 64, bytes_moved=0)["vpu"] < alu["vpu"]

    def test_packed_sim_runs_on_tpu_backend(self):
        backend = TPUBackend(TensorCore(core_id=0), PACKED)
        sim = IsingSimulation(128, 2.2, backend=backend, seed=1, traced=False)
        sim.run(2)
        assert backend.core.profiler.seconds["vpu"] > 0.0


# -- telemetry ---------------------------------------------------------------


class TestTelemetry:
    def test_report_carries_packed_gauges(self):
        telemetry = RunTelemetry()
        sim = IsingSimulation(
            128, 2.2, backend=packed_backend(), seed=1, telemetry=telemetry,
            traced=False,  # replayed sweeps bypass the Python-side counters
        )
        sim.run(5)
        sim.report()
        registry = telemetry.registry
        assert registry.gauge("packed_sweeps").value == 5
        assert registry.gauge("packed_words_updated").value > 0
        assert registry.gauge("packed_workspace_bytes").value > 0
        assert registry.gauge("packed_rng_bits").value == 16
        assert registry.gauge("packed_word_bits").value == 64

    def test_float_chain_reports_zero_packed_gauges(self):
        registry = MetricsRegistry()
        updater = CompactUpdater(0.44, NumpyBackend(), block_shape=(8, 64))
        record_packed_metrics(registry, updater)
        assert registry.gauge("packed_sweeps").value == 0
        assert registry.gauge("packed_word_bits").value == 0


# -- scheduler key honesty ---------------------------------------------------


class TestSchedulerKeys:
    def test_compat_key_separates_packed(self):
        base = SimulationConfig(shape=128, temperature=2.2, seed=1)
        packed = SimulationConfig(
            shape=128, temperature=2.2, seed=1, dtype="packed"
        )
        assert compat_key(base) != compat_key(packed)

    def test_cache_key_separates_packed(self):
        base = SimulationConfig(shape=128, temperature=2.2, seed=1)
        packed = SimulationConfig(
            shape=128, temperature=2.2, seed=1, dtype="packed"
        )
        assert canonical_cache_key(base, 100) != canonical_cache_key(packed, 100)


# -- api surface -------------------------------------------------------------


class TestApi:
    def test_simulate_builds_packed_engine(self):
        sim = simulate(SimulationConfig(shape=128, dtype="packed", seed=1))
        assert sim.packed and sim.fused
        assert isinstance(sim._updater, PackedUpdater)
        assert isinstance(sim._state, PackedState)

    def test_report_run_dtype_is_packed(self):
        sim = simulate(
            SimulationConfig(shape=128, dtype="packed", seed=1, telemetry=True)
        )
        sim.run(1)
        assert sim.report().run["dtype"] == "packed"
