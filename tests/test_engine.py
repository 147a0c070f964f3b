"""One engine decision: ``resolve_engine`` and everything that calls it.

The agreement table drives every combination of updater, dtype, backend
kind, ``fused``, ``traced`` and ``block_shape`` (on a packable and an
unpackable width) through the four places that must agree on the
engine: ``SimulationConfig`` validation, :class:`IsingSimulation`, a
2-chain :class:`EnsembleSimulation` and the scheduler's coalescer key.
Each row either rejects everywhere with one message or resolves to one
(fused, traced, block_shape) everywhere.
"""

import itertools

import numpy as np
import pytest

import repro
from repro.api import SimulationConfig
from repro.core.config import Engine, backend_from_checkpoint, resolve_engine
from repro.core.ensemble import EnsembleSimulation
from repro.core.simulation import IsingSimulation
from repro.sched.coalesce import compat_key

UPDATERS = ("compact", "conv", "checkerboard", "masked_conv")
DTYPES = ("float32", "bfloat16", "packed")
BACKENDS = ("numpy", "tpu")
SWITCHES = ("auto", True, False)
#: (8, 128) packs into whole words; (8, 96) does not.
SHAPES = ((8, 128), (8, 96))
#: None, or a block that divides the quarters and the whole lattice.
BLOCKS = (None, (2, 16))


def _outcome(build):
    """``("ok", (fused, traced, block_shape))`` or ``("error", message)``."""
    try:
        return ("ok", build())
    except ValueError as exc:
        return ("error", str(exc))


class TestAgreement:
    def test_config_drivers_and_coalescer_agree(self):
        mismatches = []
        resolved = rejected = 0
        for updater, dtype, backend, fused, traced, block, shape in itertools.product(
            UPDATERS, DTYPES, BACKENDS, SWITCHES, SWITCHES, BLOCKS, SHAPES
        ):
            common = dict(
                updater=updater, block_shape=block, fused=fused, traced=traced
            )

            def config():
                cfg = SimulationConfig(
                    shape=shape, dtype=dtype, backend=backend, initial="cold",
                    **common,
                )
                engine = cfg.resolved_engine
                key = compat_key(cfg)
                assert key[-3:] == (engine.block_shape, engine.fused, engine.traced)
                return key[-2], key[-1], key[-3]

            def solo():
                sim = IsingSimulation(
                    shape, 2.2, backend=backend_from_checkpoint(backend, dtype),
                    initial="cold", **common,
                )
                return sim.fused, sim.traced, sim.block_shape

            def ensemble():
                ens = EnsembleSimulation(
                    shape, [2.2, 2.4],
                    backend=backend_from_checkpoint(backend, dtype),
                    initial="cold", **common,
                )
                return ens.fused, ens.traced, ens.block_shape

            outcomes = [_outcome(f) for f in (config, solo, ensemble)]
            if any(o != outcomes[0] for o in outcomes):
                row = (updater, dtype, backend, fused, traced, block, shape)
                mismatches.append((row, outcomes))
            elif outcomes[0][0] == "ok":
                resolved += 1
            else:
                rejected += 1
        assert not mismatches, mismatches[:5]
        # The table exercises both sides of the decision.
        assert resolved > 100 and rejected > 100

    def test_auto_resolution(self):
        cpu = resolve_engine("compact", "float32", "numpy", (16, 16))
        assert cpu == Engine(False, True, True, (8, 8))
        tpu = resolve_engine("compact", "float32", "tpu", (16, 16))
        assert tpu == Engine(False, False, False, (8, 8))
        # Packed is always fused, on every backend kind, and unblocked.
        for kind in BACKENDS:
            packed = resolve_engine("checkerboard", "packed", kind, 128)
            assert packed == Engine(True, True, True, None)
        assert resolve_engine("checkerboard", "float32", "numpy", (4, 6)).block_shape == (4, 6)
        assert resolve_engine("masked_conv", "float32", "numpy", 8).block_shape is None

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dtype": "packed", "fused": False}, "has no elementwise path"),
            ({"fused": False, "traced": True}, "requires the fused sweep engine"),
            ({"updater": "masked_conv", "block_shape": (4, 4)}, "does not take a block_shape"),
            ({"dtype": "packed", "block_shape": (4, 4)}, "does not take a block_shape"),
            ({"dtype": "packed", "shape": 96}, "multiple of 128"),
            ({"dtype": "packed", "updater": "conv"}, "has no packed kernels"),
            ({"dtype": "packed", "field": 0.1}, "requires field=0.0"),
            ({"dtype": "packed", "couplings": "bimodal"}, "couplings='ferro' only"),
            ({"couplings": "bimodal"}, "require updater='masked_conv'"),
            ({"updater": "wolff"}, "unknown updater"),
        ],
    )
    def test_rejections(self, kwargs, message):
        args = {"updater": "compact", "dtype": "float32", "backend": "numpy",
                "shape": 128, **kwargs}
        with pytest.raises(ValueError, match=message):
            resolve_engine(
                args.pop("updater"), args.pop("dtype"), args.pop("backend"),
                args.pop("shape"), **args,
            )


class TestScheduler:
    def test_packed_tpu_job_matches_simulate(self):
        config = SimulationConfig(
            shape=128, temperature=2.2, seed=3, dtype="packed", backend="tpu"
        )
        sim = repro.simulate(config)
        sim.run(6)
        result = repro.submit(config, 6)
        np.testing.assert_array_equal(result.lattice, sim.lattice)
