"""Shared simulation-configuration helpers, neutral of any driver.

The knob normaliser (:func:`resolve_tristate`) and the backend
checkpoint helpers live here, below all three drivers, so no driver
reaches into another for plumbing.

It owns the engine decision: :func:`resolve_engine` turns (updater,
dtype, backend kind, shape, field, block_shape, fused, traced,
couplings) into one :class:`Engine` or raises, and
:func:`build_updater` builds the updater it names.  Every driver,
``SimulationConfig`` validation and the scheduler's keys go through it.

This module also owns the versioned **checkpoint/v2** envelope shared by
every driver's ``state_dict()``:

``{"schema": "checkpoint/v2", "kind": "single" | "ensemble" | "distributed", ...}``

v1 checkpoints (bare dicts without a ``schema`` key, as emitted before
the envelope existed) are still readable everywhere — they decode with a
:class:`DeprecationWarning` pointing at the migration path.  A single
:func:`repro.api.load` dispatches any envelope to the right class.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..backend.base import Backend
from ..backend.numpy_backend import NumpyBackend
from .checkerboard import CheckerboardUpdater
from .compact import CompactUpdater
from .conv import ConvUpdater, MaskedConvUpdater
from .packed import PackedUpdater

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_KINDS",
    "Engine",
    "resolve_engine",
    "build_updater",
    "resolve_tristate",
    "backend_kind",
    "backend_from_checkpoint",
    "check_checkpoint_dtype",
    "checkpoint_envelope",
    "unwrap_checkpoint",
    "checkpoint_kind",
]

#: Versioned schema identifier carried by every state_dict() envelope.
CHECKPOINT_SCHEMA = "checkpoint/v2"

#: Checkpoint kinds a v2 envelope may carry.
CHECKPOINT_KINDS = ("single", "ensemble", "distributed", "tempering")


def resolve_tristate(name: str, value: "bool | str") -> "bool | str":
    """Normalise the tri-state knob ``name`` to ``"auto"`` / True / False.

    The ``fused``, ``traced`` and ``overlap`` knobs share this check;
    each resolves ``"auto"`` later against its own context:

    * ``fused`` against the backend family — on for plain numpy backends
      (pure host speedup), off for accounting backends so the calibrated
      TPU cost tables keep their historical op sequence;
    * ``traced`` against the resolved ``fused`` flag — the traced
      executor replays a recorded fused sweep (an explicit
      ``traced=True`` with the fused engine off is rejected by
      :func:`resolve_engine`);
    * ``overlap`` against the topology — the split-phase halo schedule
      is on for hierarchical multi-pod meshes and off on flat tori.  The
      chain is schedule-independent, so forcing either value is safe.
    """
    if value == "auto":
        return "auto"
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be 'auto', True or False, got {value!r}")


#: Updater names the single-core and ensemble drivers accept: "compact"
#: (Algorithm 2), "conv" (appendix conv variant on the compact layout),
#: "checkerboard" (Algorithm 1) and "masked_conv" (full-lattice conv + mask).
_UPDATERS = ("compact", "conv", "checkerboard", "masked_conv")


@dataclass(frozen=True)
class Engine:
    """The sweep engine one configuration runs (see :func:`resolve_engine`)."""

    packed: bool
    fused: bool
    traced: bool
    block_shape: "tuple[int, int] | None"


def resolve_engine(
    updater: str,
    dtype: str,
    backend: str,
    shape: "int | tuple[int, int]",
    field: float = 0.0,
    block_shape: "tuple[int, int] | None" = None,
    fused: "bool | str" = "auto",
    traced: "bool | str" = "auto",
    couplings: str = "ferro",
) -> Engine:
    """Decide which sweep engine a configuration runs, or reject it.

    The one place that encodes the engine rules (``docs/engines.md``,
    "Engine resolution"); the drivers, ``SimulationConfig`` validation
    and the scheduler's batch and cache keys all call it.  ``dtype`` is
    a dtype name, ``backend`` a :func:`backend_kind`, ``couplings`` a
    coupling kind.  ``fused="auto"`` is on for numpy and off for tpu
    (the calibrated cost tables' op sequence); packed is always fused;
    ``traced="auto"`` follows the resolved ``fused``.  An unset
    ``block_shape`` resolves to the default decomposition: one block
    covering the lattice for checkerboard, a 2x2 grid of half-lattice
    blocks for compact/conv, and none (unblocked) for masked_conv and
    packed, whose spins are 64-bit words per compact quarter.
    """
    if updater not in _UPDATERS:
        raise ValueError(
            f"unknown updater {updater!r}; expected one of {sorted(_UPDATERS)}"
        )
    packed = dtype == "packed"
    fused = resolve_tristate("fused", fused)
    if packed and fused is False:
        # The packed engine exists only in workspace-backed *_into form.
        raise ValueError(
            "dtype='packed' has no elementwise path: the packed engine is "
            "workspace-backed only; drop fused=False or use dtype='float32'"
        )
    if fused == "auto":
        fused = packed or backend == "numpy"
    traced = resolve_tristate("traced", traced)
    if traced == "auto":
        traced = fused
    if traced and not fused:
        raise ValueError(
            "traced=True requires the fused sweep engine; "
            "the elementwise path allocates per sweep and cannot be replayed"
        )
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape), int(shape))
    if packed:
        if updater not in ("compact", "checkerboard"):
            raise ValueError(
                "dtype='packed' supports updater='compact' or 'checkerboard' "
                f"(both run the packed multi-spin engine); {updater!r} has no "
                "packed kernels — use dtype='float32' for it"
            )
        if field:
            raise ValueError(
                "dtype='packed' requires field=0.0: the three-case Metropolis "
                f"collapse assumes h = 0 (got {field!r}); use dtype='float32' "
                "for runs with a field"
            )
        if block_shape is not None:
            raise ValueError(
                "dtype='packed' does not take a block_shape: spins are stored "
                "as 64-bit words per compact quarter, not blocked grids"
            )
        if shape[1] % 128:
            raise ValueError(
                "dtype='packed' needs the lattice width to be a multiple of 128 "
                "(each compact quarter packs into whole 64-bit words), "
                f"got {shape[1]}"
            )
        if couplings != "ferro":
            raise ValueError(
                "dtype='packed' supports couplings='ferro' only: the three-case "
                "Metropolis collapse assumes uniform J = 1; use dtype='float32' "
                "with updater='masked_conv' for disordered bonds"
            )
    elif updater == "masked_conv" and block_shape is not None:
        raise ValueError("masked_conv does not take a block_shape")
    if couplings != "ferro" and updater != "masked_conv":
        raise ValueError(
            f"disordered couplings ({couplings!r}) require updater='masked_conv' "
            "(the compact/blocked updaters have no per-bond kernels yet); "
            f"got {updater!r}"
        )
    if block_shape is not None:
        block_shape = (int(block_shape[0]), int(block_shape[1]))
    elif not packed and updater != "masked_conv":
        rows, cols = int(shape[0]), int(shape[1])
        if updater != "checkerboard":
            rows, cols = rows // 2, cols // 2
        block_shape = (rows, cols)
    return Engine(packed, bool(fused), bool(traced), block_shape)


def build_updater(
    engine: Engine, updater: str, beta, backend: Backend, field=0.0, couplings=None
):
    """Build the updater ``engine`` resolved to.

    ``beta`` is a scalar for one chain or a ``(B,)`` vector for an
    ensemble, broadcast here against the batched state (rank 3 for
    masked_conv, rank 5 for the blocked grids; the packed engine
    broadcasts its own thresholds).  ``couplings`` reaches masked_conv.
    """
    if engine.packed:
        return PackedUpdater(beta, backend, field=field)
    if np.ndim(beta) == 1:
        rank = 3 if updater == "masked_conv" else 5
        beta = np.reshape(beta, (-1,) + (1,) * (rank - 1))
    if updater == "masked_conv":
        return MaskedConvUpdater(
            beta, backend, field=field, fused=engine.fused, couplings=couplings
        )
    updater_cls = {
        "checkerboard": CheckerboardUpdater,
        "compact": CompactUpdater,
        "conv": ConvUpdater,
    }[updater]
    return updater_cls(
        beta, backend, block_shape=engine.block_shape, field=field, fused=engine.fused
    )


def backend_kind(backend: Backend) -> str:
    """Checkpoint tag for the backend family ("numpy" or "tpu")."""
    from ..backend.tpu_backend import TPUBackend

    return "tpu" if isinstance(backend, TPUBackend) else "numpy"


def backend_from_checkpoint(kind: str, dtype_name: str) -> Backend:
    """Rebuild a backend of the checkpointed kind and dtype.

    Raises on unknown backend kinds; unknown dtype names raise inside
    :func:`~repro.tpu.dtypes.resolve_dtype` rather than silently
    substituting a default.
    """
    from ..tpu.dtypes import resolve_dtype

    dtype = resolve_dtype(dtype_name)
    if kind == "numpy":
        return NumpyBackend(dtype)
    if kind == "tpu":
        from ..backend.tpu_backend import TPUBackend
        from ..tpu.tensorcore import TensorCore

        return TPUBackend(TensorCore(core_id=0), dtype)
    raise ValueError(
        f"unknown backend kind {kind!r} in checkpoint; expected 'numpy' or 'tpu'"
    )


def check_checkpoint_dtype(state_dtype: str, backend: Backend) -> None:
    """Refuse cross-loading between packed and unpacked checkpoints.

    The packed engine stores the lattice as 64-spin words and (in stream
    mode) consumes randomness on a different counter schedule than the
    unpacked chains, so resuming a checkpoint across the packed/unpacked
    boundary would silently change the trajectory.  Loading is only
    allowed when both sides agree on packedness; dtype changes *within*
    the unpacked family (float32 <-> bfloat16) remain legal.
    """
    backend_packed = backend.dtype.name == "packed"
    state_packed = state_dtype == "packed"
    if backend_packed == state_packed:
        return
    if backend_packed:
        raise ValueError(
            f"checkpoint was written by an unpacked dtype={state_dtype!r} "
            "chain and cannot resume as dtype='packed': the packed stream "
            "mode consumes randomness on a different counter schedule. "
            "Resume on the checkpoint's own dtype, or start a fresh packed "
            "run seeded from its lattice."
        )
    raise ValueError(
        "checkpoint was written by a dtype='packed' chain and cannot "
        f"resume on an unpacked dtype={backend.dtype.name!r} backend: the "
        "stored randomness schedule only matches the packed engine. Resume "
        "with dtype='packed', or start a fresh unpacked run seeded from "
        "the checkpoint's lattice."
    )


def checkpoint_envelope(kind: str, payload: dict) -> dict:
    """Wrap a driver's checkpoint payload in the versioned v2 envelope."""
    if kind not in CHECKPOINT_KINDS:
        raise ValueError(
            f"unknown checkpoint kind {kind!r}; expected one of {CHECKPOINT_KINDS}"
        )
    return {"schema": CHECKPOINT_SCHEMA, "kind": kind, **payload}


def checkpoint_kind(state: dict) -> str:
    """The checkpoint kind of a state dict, inferring it for v1 dicts.

    v2 envelopes carry ``kind`` explicitly; legacy v1 dicts are
    classified by their distinguishing keys ("temperatures" only ever
    appears in ensemble checkpoints, "core_grid" only in distributed
    ones).
    """
    if not isinstance(state, dict):
        raise TypeError(f"checkpoint must be a dict, got {type(state).__name__}")
    kind = state.get("kind")
    if kind is not None:
        if kind not in CHECKPOINT_KINDS:
            raise ValueError(
                f"unknown checkpoint kind {kind!r}; expected one of {CHECKPOINT_KINDS}"
            )
        return kind
    if "temperatures" in state:
        return "ensemble"
    if "core_grid" in state:
        return "distributed"
    return "single"


def unwrap_checkpoint(state: dict, expected_kind: str) -> dict:
    """Validate a checkpoint envelope and return its payload.

    Accepts a v2 envelope (schema + kind checked against
    ``expected_kind``) or a legacy v1 dict (no ``schema`` key), which
    decodes with a :class:`DeprecationWarning`.  Unknown schema strings
    raise — a future v3 must be migrated explicitly, not guessed at.
    """
    if not isinstance(state, dict):
        raise TypeError(f"checkpoint must be a dict, got {type(state).__name__}")
    schema = state.get("schema")
    if schema is None:
        warnings.warn(
            "reading a legacy v1 checkpoint (no 'schema' key); re-save with "
            f"state_dict() to migrate to {CHECKPOINT_SCHEMA!r} — v1 support "
            "will be removed in a future release",
            DeprecationWarning,
            stacklevel=3,
        )
        return state
    if schema != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"unsupported checkpoint schema {schema!r}; expected "
            f"{CHECKPOINT_SCHEMA!r} (or a legacy v1 dict without a schema key)"
        )
    kind = checkpoint_kind(state)
    if kind != expected_kind:
        raise ValueError(
            f"checkpoint kind {kind!r} cannot restore a {expected_kind!r} "
            "simulation — use repro.api.load() to dispatch automatically"
        )
    return state
