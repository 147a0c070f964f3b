"""Shared simulation-configuration helpers, neutral of any driver.

Historically :func:`resolve_fused` and the backend checkpoint helpers
lived in :mod:`repro.core.simulation` and were imported by
:mod:`repro.core.distributed` and :mod:`repro.core.ensemble` — a
layering inversion (the distributed driver reaching *up* into the
single-core driver for plumbing).  They live here now, below all three
drivers; ``simulation.py`` re-exports the old names for compatibility.

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

import numpy as np

from ..backend.base import Backend
from ..backend.numpy_backend import NumpyBackend

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_KINDS",
    "resolve_fused",
    "resolve_traced",
    "resolve_overlap",
    "default_block_shape",
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


def resolve_fused(fused: "bool | str") -> "bool | str":
    """Normalise a fused-engine selection to ``"auto"`` / True / False.

    ``"auto"`` resolves later against the backend family: enabled on plain
    numpy backends (pure host speedup), disabled on accounting backends so
    the calibrated TPU cost tables keep their historical op sequence.
    """
    if fused == "auto":
        return "auto"
    if isinstance(fused, (bool, np.bool_)):
        return bool(fused)
    raise ValueError(f"fused must be 'auto', True or False, got {fused!r}")


def resolve_traced(traced: "bool | str") -> "bool | str":
    """Normalise a traced-executor selection to ``"auto"`` / True / False.

    ``"auto"`` resolves later against the fused-engine selection: the
    traced executor replays a recorded fused sweep, so it follows the
    fused flag wherever that resolves True and stays off elsewhere.
    An explicit ``traced=True`` with the fused engine off is rejected by
    the drivers — there is no elementwise trace to record.
    """
    if traced == "auto":
        return "auto"
    if isinstance(traced, (bool, np.bool_)):
        return bool(traced)
    raise ValueError(f"traced must be 'auto', True or False, got {traced!r}")


def resolve_overlap(overlap: "bool | str") -> "bool | str":
    """Normalise a halo-overlap selection to ``"auto"`` / True / False.

    ``"auto"`` resolves later against the topology: the split-phase
    schedule is enabled on hierarchical multi-pod meshes (where the slow
    inter-pod tier is worth hiding) and stays off on flat tori, keeping
    single-pod modeled timelines exactly as they were.  The chain itself
    is schedule-independent — overlap only changes the modeled clock —
    so forcing either value is always safe.
    """
    if overlap == "auto":
        return "auto"
    if isinstance(overlap, (bool, np.bool_)):
        return bool(overlap)
    raise ValueError(f"overlap must be 'auto', True or False, got {overlap!r}")


def default_block_shape(
    updater: str, shape: "tuple[int, int]", dtype: str = "float32"
) -> "tuple[int, int] | None":
    """The driver's default block decomposition for ``updater`` on ``shape``.

    This is the single source of truth consumed by the drivers *and* by
    the scheduler's cache key and batch plan (:mod:`repro.sched`), so an
    unset ``block_shape`` and its spelled-out default can never drift
    apart:

    * ``dtype="packed"`` runs unblocked (and rejects an explicit block):
      its spins are 64-bit words per compact quarter;
    * ``masked_conv`` runs unblocked (and rejects an explicit block);
    * ``checkerboard`` defaults to one block covering the whole lattice;
    * ``compact`` / ``conv`` default to a 2x2 grid of half-lattice blocks.
    """
    if dtype == "packed" or updater == "masked_conv":
        return None
    rows, cols = (int(shape[0]), int(shape[1]))
    if updater == "checkerboard":
        return (rows, cols)
    return (rows // 2, cols // 2)


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
