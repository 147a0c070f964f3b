"""Lattice representations and exact layout conversions.

The paper stores the spin lattice in three layouts:

* **plain** — a 2D array ``(rows, cols)`` of spins in {-1, +1} on a torus;
* **grid** — a rank-4 tensor ``[m, n, r, c]``: an ``m x n`` grid of
  ``r x c`` sub-lattices (``r = c = 128`` on TPU, to match MXU registers
  and HBM tiling); ``grid[i, j]`` is the sub-lattice at grid position
  ``(i, j)``.  The batched ensemble adds a leading chain axis — the
  rank-5 form ``[batch, m, n, r, c]`` — and the kernels and updaters
  broadcast over it;
* **compact** — Figure 3-(2): the four interleaved sub-lattices
  ``sigma00 = sigma[0::2, 0::2]`` etc., each kept in grid form.  ``sigma00``
  and ``sigma11`` hold all *black* spins, ``sigma01`` and ``sigma10`` all
  *white* spins (colour = parity of row+col).

All conversions are exact inverses of each other, which the property-based
tests verify on random lattices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng.streams import PhiloxStream

__all__ = [
    "random_lattice",
    "cold_lattice",
    "validate_spins",
    "plain_to_grid",
    "grid_to_plain",
    "plain_to_quarters",
    "quarters_to_plain",
    "checkerboard_mask",
    "CompactLattice",
]


def random_lattice(
    shape: tuple[int, int], stream: PhiloxStream, p_up: float = 0.5
) -> np.ndarray:
    """A hot (disordered) start: each spin +1 with probability ``p_up``."""
    rows, cols = shape
    if rows <= 0 or cols <= 0:
        raise ValueError(f"lattice shape must be positive, got {shape}")
    u = stream.uniform((rows, cols))
    return np.where(u < p_up, 1.0, -1.0).astype(np.float32)


def cold_lattice(shape: tuple[int, int], value: int = 1) -> np.ndarray:
    """A cold (fully ordered) start with every spin equal to ``value``."""
    if value not in (1, -1):
        raise ValueError(f"spin value must be +1 or -1, got {value}")
    return np.full(shape, float(value), dtype=np.float32)


def validate_spins(plain: np.ndarray) -> None:
    """Raise if the array is not a valid +/-1 spin lattice."""
    if plain.ndim != 2:
        raise ValueError(f"expected a 2D lattice, got shape {plain.shape}")
    if not np.all(np.abs(plain) == 1.0):
        bad = np.unique(plain[np.abs(plain) != 1.0])
        raise ValueError(f"spins must be +/-1; found values {bad[:8]}")


def plain_to_grid(plain: np.ndarray, block_shape: tuple[int, int]) -> np.ndarray:
    """Split a plain lattice into an ``[m, n, r, c]`` grid of blocks."""
    rows, cols = plain.shape
    r, c = block_shape
    if r <= 0 or c <= 0:
        raise ValueError(f"block shape must be positive, got {block_shape}")
    if rows % r or cols % c:
        raise ValueError(
            f"lattice shape {plain.shape} not divisible by block shape {block_shape}"
        )
    m, n = rows // r, cols // c
    return np.ascontiguousarray(
        plain.reshape(m, r, n, c).transpose(0, 2, 1, 3)
    )


def grid_to_plain(grid: np.ndarray) -> np.ndarray:
    """Inverse of :func:`plain_to_grid`.

    A rank-5 ``[batch, m, n, r, c]`` stack of grids maps to a
    ``(batch, m * r, n * c)`` stack of plain lattices in one copy.  The
    result never shares memory with ``grid`` (a 1 x 1 grid would
    otherwise reshape to a view of the state that in-place sweeps
    mutate).
    """
    if grid.ndim not in (4, 5):
        raise ValueError(
            f"expected a rank-4 grid (rank 5 when batched), got shape {grid.shape}"
        )
    *batch, m, n, r, c = grid.shape
    plain = np.empty((*batch, m * r, n * c), dtype=grid.dtype)
    np.copyto(plain.reshape(*batch, m, r, n, c), grid.swapaxes(-3, -2))
    return plain


def plain_to_quarters(
    plain: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extract the four interleaved quarters (sigma00, sigma01, sigma10, sigma11).

    ``sigma_xy`` holds the spins at rows ``x mod 2`` and columns
    ``y mod 2``; the lattice must have even dimensions so every quarter has
    the same shape.
    """
    rows, cols = plain.shape
    if rows % 2 or cols % 2:
        raise ValueError(f"lattice shape must be even, got {plain.shape}")
    return (
        np.ascontiguousarray(plain[0::2, 0::2]),
        np.ascontiguousarray(plain[0::2, 1::2]),
        np.ascontiguousarray(plain[1::2, 0::2]),
        np.ascontiguousarray(plain[1::2, 1::2]),
    )


def quarters_to_plain(
    q00: np.ndarray, q01: np.ndarray, q10: np.ndarray, q11: np.ndarray
) -> np.ndarray:
    """Inverse of :func:`plain_to_quarters`.

    Quarters with a leading batch axis, ``(batch, H, W)``, interleave
    into a ``(batch, 2H, 2W)`` stack.
    """
    *batch, h, w = q00.shape
    for name, q in (("q01", q01), ("q10", q10), ("q11", q11)):
        if q.shape != q00.shape:
            raise ValueError(f"{name} shape {q.shape} != q00 shape {q00.shape}")
    plain = np.empty((*batch, 2 * h, 2 * w), dtype=np.float32)
    plain[..., 0::2, 0::2] = q00
    plain[..., 0::2, 1::2] = q01
    plain[..., 1::2, 0::2] = q10
    plain[..., 1::2, 1::2] = q11
    return plain


def checkerboard_mask(shape: tuple[int, int], color: str = "black") -> np.ndarray:
    """The binary mask ``M`` of the paper: 1 on sites of the given colour.

    Black sites are those with even (row + col) parity — the convention
    under which sigma00/sigma11 are black.
    """
    if color not in ("black", "white"):
        raise ValueError(f"color must be 'black' or 'white', got {color!r}")
    rows, cols = shape
    parity = (np.add.outer(np.arange(rows), np.arange(cols)) % 2).astype(np.float32)
    black = 1.0 - parity
    return black if color == "black" else parity


@dataclass
class CompactLattice:
    """The compact representation of Figure 3-(2), in grid form.

    Attributes ``s00``, ``s01``, ``s10``, ``s11`` are each ``[m, n, r, c]``
    grids over the corresponding H x W quarter of the ``(2H, 2W)`` plain
    lattice.  Black spins live in (s00, s11); white in (s01, s10).

    A rank-5 ``[batch, m, n, r, c]`` form is also accepted: the leading
    axis indexes independent ensemble chains sharing one lattice geometry
    (see :class:`~repro.core.ensemble.EnsembleSimulation`), and every
    kernel addresses the grid axes from the right so the chain axis
    broadcasts through untouched.
    """

    s00: np.ndarray
    s01: np.ndarray
    s10: np.ndarray
    s11: np.ndarray

    def __post_init__(self) -> None:
        shape = self.s00.shape
        if len(shape) not in (4, 5):
            raise ValueError(
                f"compact tensors must be rank 4 (or 5 when batched), got shape {shape}"
            )
        for name in ("s01", "s10", "s11"):
            other = getattr(self, name).shape
            if other != shape:
                raise ValueError(f"{name} shape {other} != s00 shape {shape}")

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.s00.shape

    @property
    def batched(self) -> bool:
        """True when the tensors carry a leading ensemble chain axis."""
        return self.s00.ndim == 5

    @property
    def n_chains(self) -> int:
        """Number of ensemble chains (1 for the unbatched form)."""
        return self.s00.shape[0] if self.batched else 1

    @property
    def plain_shape(self) -> tuple[int, int]:
        m, n, r, c = self.s00.shape[-4:]
        return 2 * m * r, 2 * n * c

    @property
    def n_sites(self) -> int:
        rows, cols = self.plain_shape
        return rows * cols

    @classmethod
    def stack(cls, lats: "list[CompactLattice]") -> "CompactLattice":
        """Stack unbatched lattices of one geometry into the batched form."""
        if not lats:
            raise ValueError("need at least one lattice to stack")
        if any(lat.batched for lat in lats):
            raise ValueError("can only stack unbatched lattices")
        return cls(
            s00=np.stack([lat.s00 for lat in lats]),
            s01=np.stack([lat.s01 for lat in lats]),
            s10=np.stack([lat.s10 for lat in lats]),
            s11=np.stack([lat.s11 for lat in lats]),
        )

    def chain(self, index: int) -> "CompactLattice":
        """Extract one chain of a batched lattice as an unbatched copy."""
        if not self.batched:
            raise ValueError("chain() requires a batched lattice")
        return CompactLattice(
            s00=np.ascontiguousarray(self.s00[index]),
            s01=np.ascontiguousarray(self.s01[index]),
            s10=np.ascontiguousarray(self.s10[index]),
            s11=np.ascontiguousarray(self.s11[index]),
        )

    @classmethod
    def from_plain(
        cls, plain: np.ndarray, block_shape: tuple[int, int] | None = None
    ) -> "CompactLattice":
        """Build the compact grid form from a plain +/-1 lattice.

        ``block_shape`` is the (r, c) of each compact block; the default is
        one block spanning the whole quarter (fine off-TPU, where there is
        no 128-alignment constraint).
        """
        q00, q01, q10, q11 = plain_to_quarters(plain)
        if block_shape is None:
            block_shape = q00.shape
        return cls(
            s00=plain_to_grid(q00, block_shape),
            s01=plain_to_grid(q01, block_shape),
            s10=plain_to_grid(q10, block_shape),
            s11=plain_to_grid(q11, block_shape),
        )

    def to_plain(self) -> np.ndarray:
        """Reassemble the plain lattice (exact inverse).

        Returns ``(2H, 2W)`` for the unbatched form and
        ``(batch, 2H, 2W)`` for the batched form.
        """
        return quarters_to_plain(
            grid_to_plain(self.s00),
            grid_to_plain(self.s01),
            grid_to_plain(self.s10),
            grid_to_plain(self.s11),
        )

    def copy(self) -> "CompactLattice":
        return CompactLattice(
            self.s00.copy(), self.s01.copy(), self.s10.copy(), self.s11.copy()
        )

    def black(self) -> tuple[np.ndarray, np.ndarray]:
        """The two black compact sub-lattices (s00, s11)."""
        return self.s00, self.s11

    def white(self) -> tuple[np.ndarray, np.ndarray]:
        """The two white compact sub-lattices (s01, s10)."""
        return self.s01, self.s10
