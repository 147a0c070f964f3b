"""Preis-style multi-spin-coded (bit-packed) checkerboard updater.

The GPU baselines the paper compares against (Preis et al. 2009, Block et
al. 2010) pack spins as bits to compress memory traffic and evaluate the
Metropolis test with integer logic.  This module implements the full
technique in vectorised numpy:

* each compact quarter (the interleaved sub-lattices of Algorithm 2) is
  packed 64 spins per ``uint64`` word, little-endian bit order;
* the number of *disagreeing* neighbours k in {0..4} is computed with
  bitwise full adders on the four neighbour XOR planes;
* since ``sigma * nn = 4 - 2k``, the Metropolis rule collapses to three
  cases: always flip for k >= 2 (dE <= 0), flip with probability
  ``exp(-4 beta)`` for k == 1 and ``exp(-8 beta)`` for k == 0 — evaluated
  by comparing per-site uniforms against two precomputed thresholds and
  packing the comparison bits.

The thresholds are computed through the same float32 expression the
backend updaters use, so for identical per-site uniforms the bit-packed
chain is *bit-identical* to Algorithm 2 — the strongest cross-check the
test suite has for both implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.packed_ops import pack_bits, unpack_bits
from ..core.lattice import plain_to_quarters, quarters_to_plain
from ..rng.streams import PhiloxStream

__all__ = ["MultispinState", "MultispinUpdater", "pack_bits", "unpack_bits"]

_WORD = 64


def _prev_col(words: np.ndarray) -> np.ndarray:
    """Bit plane of the column-(j-1) neighbour, wrapping on the torus.

    In the little-endian bit order a left word shift moves every bit to
    one column *higher*, so the plane whose column-``j`` bit holds the
    old column ``j-1`` is ``words << 1`` with the top bit of the
    preceding word carried into bit 0.
    """
    left_word = np.roll(words, 1, axis=-1)
    return (words << np.uint64(1)) | (left_word >> np.uint64(_WORD - 1))


def _next_col(words: np.ndarray) -> np.ndarray:
    """Bit plane of the column-(j+1) neighbour, wrapping on the torus.

    Mirror of :func:`_prev_col`: ``words >> 1`` with bit 0 of the
    following word carried into the top bit.
    """
    right_word = np.roll(words, -1, axis=-1)
    return (words >> np.uint64(1)) | (right_word << np.uint64(_WORD - 1))


def _prev_row(words: np.ndarray) -> np.ndarray:
    """Bit plane of the row-(i-1) neighbour — a pure roll, no bit carries."""
    return np.roll(words, 1, axis=0)


def _next_row(words: np.ndarray) -> np.ndarray:
    """Bit plane of the row-(i+1) neighbour — a pure roll, no bit carries."""
    return np.roll(words, -1, axis=0)


def _disagreement_count_bits(
    d1: np.ndarray, d2: np.ndarray, d3: np.ndarray, d4: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bitwise full adders: per-bit k = d1+d2+d3+d4 as planes (bit0, bit1, bit2)."""
    s1, c1 = d1 ^ d2, d1 & d2
    s2, c2 = d3 ^ d4, d3 & d4
    low = s1 ^ s2
    lc = s1 & s2
    # k = 2*(c1 + c2 + lc) + low; the carry sum needs two bits.
    bit1 = c1 ^ c2 ^ lc
    bit2 = (c1 & c2) | (c1 & lc) | (c2 & lc)
    return low, bit1, bit2


@dataclass
class MultispinState:
    """Bit-packed compact lattice: four quarter word planes.

    Each plane is ``(rows/2, cols/128)`` uint64 in :func:`pack_bits`'s
    little-endian bit order (bit value 1 = spin +1); ``quarter_shape``
    is the unpacked ``(rows/2, cols/2)`` quarter geometry.  The same
    representation, with leading batch axes allowed, backs the
    first-class packed engine's
    :class:`~repro.core.packed.PackedState`.
    """

    w00: np.ndarray
    w01: np.ndarray
    w10: np.ndarray
    w11: np.ndarray
    quarter_shape: tuple[int, int]

    @classmethod
    def from_plain(cls, plain: np.ndarray) -> "MultispinState":
        """Pack a plain ``(rows, cols)`` ±1 lattice (width % 128 == 0)."""
        q00, q01, q10, q11 = plain_to_quarters(plain)
        bits = [(q > 0).astype(np.uint8) for q in (q00, q01, q10, q11)]
        return cls(
            w00=pack_bits(bits[0]),
            w01=pack_bits(bits[1]),
            w10=pack_bits(bits[2]),
            w11=pack_bits(bits[3]),
            quarter_shape=q00.shape,
        )

    def to_plain(self) -> np.ndarray:
        """Unpack back to a fresh plain ±1 float32 lattice."""
        cols = self.quarter_shape[1]
        quarters = [
            (2.0 * unpack_bits(w, cols).astype(np.float32)) - 1.0
            for w in (self.w00, self.w01, self.w10, self.w11)
        ]
        return quarters_to_plain(*quarters)

    def copy(self) -> "MultispinState":
        """Deep copy (fresh word arrays; ``update_color`` never mutates)."""
        return MultispinState(
            self.w00.copy(),
            self.w01.copy(),
            self.w10.copy(),
            self.w11.copy(),
            self.quarter_shape,
        )


class MultispinUpdater:
    """Checkerboard Metropolis on bit-packed spins.

    The quarter width must be a multiple of 64 (columns pack into whole
    words), i.e. the plain lattice width a multiple of 128 — the same
    alignment the TPU layout wants.
    """

    def __init__(self, beta: float) -> None:
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta)
        # Thresholds through the exact float32 expression of the backend
        # path: exp(float32(-2 beta) * float32(sigma * nn)).
        factor = np.float32(-2.0 * beta)
        self.threshold_k1 = np.exp(factor * np.float32(2.0))  # sigma*nn = +2
        self.threshold_k0 = np.exp(factor * np.float32(4.0))  # sigma*nn = +4

    # -- phases ------------------------------------------------------------

    def _flip_words(
        self,
        spins: np.ndarray,
        neighbors: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        probs: np.ndarray,
    ) -> np.ndarray:
        """Flip mask for one packed quarter given its 4 neighbour planes.

        ``spins`` and ``neighbors`` are word planes of one quarter
        (same shape); ``probs`` are that quarter's per-site float32
        uniforms in *unpacked* ``quarter_shape``.  Returns a fresh word
        plane with bit set where the site flips; no argument is
        mutated.
        """
        d = [spins ^ n for n in neighbors]
        low, bit1, bit2 = _disagreement_count_bits(*d)
        k_ge_2 = bit1 | bit2
        k_eq_1 = ~bit1 & ~bit2 & low
        k_eq_0 = ~(bit1 | bit2 | low)
        r1 = pack_bits(probs < self.threshold_k1)
        r0 = pack_bits(probs < self.threshold_k0)
        return k_ge_2 | (k_eq_1 & r1) | (k_eq_0 & r0)

    def update_color(
        self,
        state: MultispinState,
        color: str,
        stream: PhiloxStream | None = None,
        probs: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> MultispinState:
        """One colour phase on the packed representation.

        ``probs`` are the two active quarters' uniforms ((q00, q11) for
        black, (q01, q10) for white) — drawn from ``stream`` when absent,
        in the same order as Algorithm 2, each shaped
        ``quarter_shape``.  Returns a *new* state (copy semantics, the
        passive planes shared by reference); the input state is never
        mutated — unlike the in-place first-class engine, which is
        bit-identical anyway because active quarters of a colour never
        read each other.
        """
        if color not in ("black", "white"):
            raise ValueError(f"color must be 'black' or 'white', got {color!r}")
        if probs is None:
            if stream is None:
                raise ValueError("either stream or probs must be provided")
            probs = (
                stream.uniform(state.quarter_shape),
                stream.uniform(state.quarter_shape),
            )
        p0, p1 = probs
        if p0.shape != state.quarter_shape or p1.shape != state.quarter_shape:
            raise ValueError(
                f"probs shapes {p0.shape}, {p1.shape} != quarter {state.quarter_shape}"
            )

        out = state.copy()
        if color == "black":
            # nn(q00) = s01 + s01.prev_col + s10 + s10.prev_row
            flips00 = self._flip_words(
                state.w00,
                (state.w01, _prev_col(state.w01), state.w10, _prev_row(state.w10)),
                p0,
            )
            # nn(q11) = s01 + s01.next_row + s10 + s10.next_col
            flips11 = self._flip_words(
                state.w11,
                (state.w01, _next_row(state.w01), state.w10, _next_col(state.w10)),
                p1,
            )
            out.w00 = state.w00 ^ flips00
            out.w11 = state.w11 ^ flips11
        else:
            # nn(q01) = s00 + s00.next_col + s11 + s11.prev_row
            flips01 = self._flip_words(
                state.w01,
                (state.w00, _next_col(state.w00), state.w11, _prev_row(state.w11)),
                p0,
            )
            # nn(q10) = s00 + s00.next_row + s11 + s11.prev_col
            flips10 = self._flip_words(
                state.w10,
                (state.w00, _next_row(state.w00), state.w11, _prev_col(state.w11)),
                p1,
            )
            out.w01 = state.w01 ^ flips01
            out.w10 = state.w10 ^ flips10
        return out

    def sweep(
        self,
        state: MultispinState,
        stream: PhiloxStream | None = None,
        probs_black: tuple[np.ndarray, np.ndarray] | None = None,
        probs_white: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> MultispinState:
        """One full lattice sweep (black then white), returning a new state."""
        state = self.update_color(state, "black", stream, probs_black)
        return self.update_color(state, "white", stream, probs_white)

    # -- uniform interface --------------------------------------------------

    @staticmethod
    def to_state(plain: np.ndarray) -> MultispinState:
        """Pack a plain ±1 lattice (the updaters' shared entry point)."""
        return MultispinState.from_plain(plain)

    @staticmethod
    def to_plain(state: MultispinState) -> np.ndarray:
        """Unpack to a fresh plain ±1 float32 lattice."""
        return state.to_plain()

    def sweep_plain(self, plain: np.ndarray, stream: PhiloxStream) -> np.ndarray:
        """Pack, sweep once, unpack — convenience for tests."""
        return self.to_plain(self.sweep(self.to_state(plain), stream))
