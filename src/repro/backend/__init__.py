"""Backend op vocabulary: numpy execution, priced per op on the TPU backend."""

from .base import Backend
from .numpy_backend import NumpyBackend

__all__ = ["Backend", "NumpyBackend", "TPUBackend"]


def __getattr__(name: str):
    # TPUBackend pulls in the device model; import lazily to keep the
    # physics-only dependency graph light.
    if name == "TPUBackend":
        from .tpu_backend import TPUBackend

        return TPUBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
