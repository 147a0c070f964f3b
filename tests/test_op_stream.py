"""The modeled op stream of one warm sweep, pinned to a committed fixture.

``TensorCore.op_log`` records every op's raw ``(category, flops,
bytes, batch)`` charge in order.  The performance tables are sums over
that stream, so it is pinned exactly here — same floats, same order —
for every updater, both float dtypes, both engines, and the packed
engine.  The modeled-table tests only compare against the paper with
loose tolerances; this one catches any drift in how ops are priced.

Regenerate the fixture (only when the modeled op stream is meant to
change) with ``PYTHONPATH=src python tests/test_op_stream.py``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.backend.tpu_backend import TPUBackend
from repro.core.simulation import IsingSimulation
from repro.tpu.tensorcore import TensorCore

FIXTURE = pathlib.Path(__file__).parent / "data" / "op_stream.json"

SHAPE = (16, 128)
UPDATERS = ("compact", "conv", "checkerboard", "masked_conv")

#: (key, updater, dtype, fused) of every pinned configuration.
CASES = [
    (f"{updater}/{dtype}/{'fused' if fused else 'elementwise'}", updater, dtype, fused)
    for updater in UPDATERS
    for dtype in ("float32", "bfloat16")
    for fused in (False, True)
] + [("compact/packed/fused", "compact", "packed", True)]


def warm_sweep_ops(updater: str, dtype: str, fused: bool, traced: bool = False) -> list:
    """The op log of the third sweep (past warm-up and trace recording)."""
    core = TensorCore(core_id=0)
    sim = IsingSimulation(
        SHAPE, 2.2, updater=updater, backend=TPUBackend(core, dtype),
        seed=5, fused=fused, traced=traced,
    )
    sim.run(2)
    core.op_log = []
    sim.run(1)
    return [list(entry) for entry in core.op_log]


def capture() -> dict:
    return {key: warm_sweep_ops(*case) for key, *case in CASES}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key,updater,dtype,fused", CASES, ids=[c[0] for c in CASES])
def test_warm_sweep_op_stream_is_pinned(pinned, key, updater, dtype, fused):
    assert warm_sweep_ops(updater, dtype, fused) == pinned[key]


@pytest.mark.parametrize(
    "key,updater,dtype,fused",
    [case for case in CASES if case[3]],
    ids=[c[0] for c in CASES if c[3]],
)
def test_traced_replay_charges_the_same_stream(pinned, key, updater, dtype, fused):
    # The third sweep of a traced run is a replay of the recorded program.
    assert warm_sweep_ops(updater, dtype, fused, traced=True) == pinned[key]


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(key for key, *_ in CASES)
    assert all(pinned.values())


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    # One op per line; json writes floats with repr, so they round-trip.
    blocks = [
        f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(op) for op in ops) + "\n]"
        for key, ops in sorted(capture().items())
    ]
    FIXTURE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {FIXTURE}")
