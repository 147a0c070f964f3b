"""Energy observables for the zero-field J = 1 Ising Hamiltonian.

``H(sigma) = -sum_<ij> sigma_i sigma_j`` over nearest-neighbour pairs on
the torus; each pair is counted once, so summing ``sigma_i * nn(i)`` over
all sites double-counts and the 1/2 factor restores pair counting.  On a
side-2 torus a site meets the same neighbour twice — the enumeration-based
tests use exactly this convention so comparisons are consistent.
"""

from __future__ import annotations

import numpy as np

__all__ = ["total_energy", "energy_per_spin", "energies_per_spin", "specific_heat"]


def total_energy(plain: np.ndarray) -> float:
    """Total configuration energy ``H(sigma)``."""
    # Summing over the two forward directions counts each bond exactly once
    # (self-contained here to keep observables independent of repro.core).
    sigma = plain.astype(np.float64)
    nn_forward = np.roll(sigma, -1, axis=0) + np.roll(sigma, -1, axis=1)
    return float(-np.sum(sigma * nn_forward))


def energy_per_spin(plain: np.ndarray) -> float:
    """Energy per site, in [-2, 2] for the square lattice."""
    return total_energy(plain) / plain.size


def energies_per_spin(plains: np.ndarray) -> np.ndarray:
    """Energy per site of every lattice in a ``(B, rows, cols)`` stack.

    Bit-equal to ``[energy_per_spin(p) for p in plains]``, with the same
    forward-bond convention (so a side-2 torus counts each bond twice).
    Every product and partial sum is an integer of magnitude at most
    ``2 * rows * cols``, so the sums are exact in any order: float32
    while that bound stays within 2**24, float64 beyond.
    """
    plains = np.asarray(plains)
    n_sites = plains.shape[-2] * plains.shape[-1]
    s = plains.astype(
        np.float32 if 2 * n_sites <= 1 << 24 else np.float64, copy=False
    )
    # Right bonds, their wrap column, down bonds, their wrap row.
    bonds = (
        np.einsum("...ij,...ij->...", s[..., :, :-1], s[..., :, 1:])
        + np.einsum("...i,...i->...", s[..., :, -1], s[..., :, 0])
        + np.einsum("...ij,...ij->...", s[..., :-1, :], s[..., 1:, :])
        + np.einsum("...j,...j->...", s[..., -1, :], s[..., 0, :])
    )
    return -np.asarray(bonds, dtype=np.float64) / n_sites


def specific_heat(e_samples: np.ndarray, beta: float, n_sites: int) -> float:
    """``c = beta^2 * N * (<e^2> - <e>^2)`` from per-site energy samples.

    The specific heat per site diverges logarithmically at Tc in the
    thermodynamic limit (Onsager); on finite lattices it shows a peak
    near Tc that sharpens with size — a standard transition locator
    complementary to the susceptibility.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if n_sites <= 0:
        raise ValueError(f"n_sites must be positive, got {n_sites}")
    e = np.asarray(e_samples, dtype=np.float64)
    if e.size == 0:
        raise ValueError("need at least one energy sample")
    return float(beta * beta * n_sites * (np.mean(e * e) - np.mean(e) ** 2))
