"""Magnetization observables.

The paper's first correctness check (Fig. 4 top) is the average
magnetization per spin, ``m(T) = <sigma> = (1/N) sum_i sigma_i``; on a
finite lattice below Tc the distribution of m is bimodal around the
spontaneous values, so the convention (also used in finite-size-scaling
practice) is to average ``|m|``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["magnetization", "abs_magnetization", "magnetizations"]


def magnetization(plain: np.ndarray) -> float:
    """Signed magnetization per spin, in [-1, 1]."""
    return float(np.mean(plain, dtype=np.float64))


def abs_magnetization(plain: np.ndarray) -> float:
    """Absolute magnetization per spin, in [0, 1]."""
    return float(abs(np.mean(plain, dtype=np.float64)))


def magnetizations(plains: np.ndarray) -> np.ndarray:
    """Signed magnetization per spin of every lattice in a ``(B, rows, cols)`` stack.

    Bit-equal to ``[magnetization(p) for p in plains]``: each per-lattice
    sum of +/-1 spins is an integer of magnitude at most ``rows * cols``,
    exact in any summation order (in float32 while that bound stays
    within 2**24, float64 beyond), and is divided by the site count in
    float64 exactly as ``np.mean`` does.
    """
    plains = np.asarray(plains)
    n_sites = plains.shape[-2] * plains.shape[-1]
    acc = np.float32 if n_sites <= 1 << 24 else np.float64
    sums = np.sum(plains, axis=(-2, -1), dtype=acc)
    return np.asarray(sums, dtype=np.float64) / n_sites
