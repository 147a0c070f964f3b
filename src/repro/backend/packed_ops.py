"""Pure numpy word kernels of the packed (multi-spin) representation.

These are the allocation-free building blocks behind the ``packed_*``
methods of :class:`~repro.backend.base.Backend`: every function is an
``*_into`` kernel writing into caller-owned buffers, so a steady-state
packed sweep performs no heap allocation — the same contract the fused
float kernels honour (see ``docs/packed_engine.md``).

Representation (shared with the :mod:`repro.baselines.multispin` test
oracle, which imports :func:`pack_bits` / :func:`unpack_bits` from here):

* a packed plane is a ``(..., rows, cols/64)`` uint64 array, one compact
  quarter per plane, with optional leading batch axes;
* bit ``j`` of word ``w`` holds lattice column ``64*w + j`` (LSB-first,
  little-endian bit order), so shifting words left by one moves every
  spin one column higher; word *values* are host-independent;
* acceptance randomness is compared in integer space: a uniform draw of
  ``rng_bits`` bits accepts iff it is below ``ceil(t * 2**rng_bits)``
  where ``t`` is the float32 Metropolis threshold (see
  :func:`packed_threshold`).

Unless a docstring says otherwise, ``out`` must not alias any input.
All kernels operate on the trailing two axes and broadcast over leading
batch axes, so solo ``(rows, words)`` and batched ``(B, rows, words)``
planes share one code path.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "pack_bits",
    "unpack_bits",
    "pack_bool_into",
    "compare_pack_into",
    "shift_cols_into",
    "full_adder_into",
    "flip_select_into",
    "packed_threshold",
    "site_values_u16",
]

_WORD = 64
_ONE = np.uint64(1)
_SIXTY_THREE = np.uint64(_WORD - 1)


def packed_threshold(t: "np.floating | np.ndarray", rng_bits: int) -> np.ndarray:
    """Integer acceptance threshold ``T = ceil(t * 2**rng_bits)`` as uint32.

    For an integer draw ``m`` uniform on ``[0, 2**rng_bits)``,
    ``m < T  <=>  m < t * 2**rng_bits  <=>  m / 2**rng_bits < t`` —
    exactly, because ``T`` is computed in float64 where the product of a
    float32 ``t`` with a power of two is representable without rounding.
    ``t`` in (0, 1] gives ``T <= 2**rng_bits``, which can exceed the
    ``rng_bits``-bit lane range — hence the uint32 return even for
    16-bit draws (a uint16 would overflow at ``T == 2**16``).

    Accepts a scalar or an array of per-chain thresholds; the result has
    the same shape.
    """
    if not 1 <= rng_bits <= 31:
        raise ValueError(f"rng_bits must be in [1, 31], got {rng_bits}")
    scaled = np.ceil(np.asarray(t, dtype=np.float64) * float(2**rng_bits))
    if np.any(scaled < 0) or np.any(scaled > 2**rng_bits):
        raise ValueError(f"threshold {t!r} outside [0, 1]")
    return scaled.astype(np.uint32)


def site_values_u16(bits: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """View a uint32 draw buffer as per-site 16-bit lanes shaped ``shape``.

    Word ``w`` of ``bits`` feeds two consecutive sites (row-major):
    ``w & 0xFFFF`` then ``w >> 16`` — a host-independent contract.  On
    little-endian hosts this is a free reinterpreting view of ``bits``
    (the packed engine's zero-allocation fast path); on big-endian hosts
    the lanes are materialised arithmetically (allocating — correctness
    fallback only).
    """
    if bits.dtype != np.uint32 or not bits.flags["C_CONTIGUOUS"]:
        raise ValueError("bits must be a C-contiguous uint32 array")
    if int(np.prod(shape)) != 2 * bits.size:
        raise ValueError(f"shape {shape} does not hold {2 * bits.size} lanes")
    if sys.byteorder == "little":
        return bits.view(np.uint16).reshape(shape)
    lanes = np.empty(bits.shape + (2,), dtype=np.uint16)
    lanes[..., 0] = bits & np.uint32(0xFFFF)
    lanes[..., 1] = bits >> np.uint32(16)
    return lanes.reshape(shape)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into (rows, cols/64) uint64 words.

    Bit ``j`` of word ``w`` holds column ``64*w + j`` (LSB-first /
    little-endian within the word), so shifting words left by one moves
    each bit to one column higher.  ``cols`` must be a multiple of 64;
    the row count is unconstrained.  Returns a fresh native-order
    uint64 array whose word *values* are host-independent — this is the
    word layout shared by the packed engine (:mod:`repro.core.packed`),
    the ``packed`` checkpoint payload and the
    :class:`~repro.baselines.multispin.MultispinState` test oracle.
    """
    rows, cols = bits.shape
    if cols % _WORD:
        raise ValueError(f"columns ({cols}) must be a multiple of {_WORD}")
    packed8 = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    if not packed8.flags.c_contiguous:
        packed8 = np.ascontiguousarray(packed8)
    # Compose the 8 bytes little-endian explicitly: a bare np.uint64 view
    # would read them in *host* order, flipping which column each bit
    # addresses on big-endian machines.  astype(uint64) then normalises
    # to the native representation so downstream shifts stay fast; the
    # word *values* are host-independent.
    return packed8.view(np.dtype("<u8")).astype(np.uint64, copy=False)


def unpack_bits(words: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: (rows, cols/64) words → (rows, cols) 0/1.

    ``cols`` is the unpacked column count (it cannot be recovered from
    the word array alone when the last word is partially used, so the
    caller states it; the packed engine keeps it in ``quarter_shape``).
    Accepts words in any byte order (e.g. read from a foreign-endian
    checkpoint): values are re-encoded as little-endian bytes before the
    bit unpack, mirroring :func:`pack_bits`'s explicit ``'<u8'`` layout.
    Returns a fresh uint8 array.
    """
    rows = words.shape[0]
    le_words = np.ascontiguousarray(words).astype(np.dtype("<u8"), copy=False)
    flat = np.unpackbits(
        le_words.view(np.uint8), axis=-1, bitorder="little"
    )
    return flat[:, :cols].reshape(rows, cols)


def pack_bool_into(
    cmp: np.ndarray,
    out: np.ndarray,
    byte_lo: np.ndarray,
    byte_tmp: np.ndarray,
) -> np.ndarray:
    """Pack a boolean site plane into uint64 words without allocating.

    The in-place analogue of :func:`pack_bits`
    (``np.packbits`` has no ``out=``): eight strided shift-OR passes
    compose each byte LSB-first, then the byte plane is reinterpreted as
    little-endian uint64 words — bit ``j`` of word ``w`` is site column
    ``64*w + j``, identical to ``pack_bits``.

    Parameters
    ----------
    cmp:
        ``(..., rows, cols)`` bool plane, C-contiguous, ``cols`` a
        multiple of 64.
    out:
        ``(..., rows, cols/64)`` uint64 destination.
    byte_lo, byte_tmp:
        ``(..., rows, cols/8)`` uint8 scratch.

    None of the four arrays may alias another.
    """
    cols = cmp.shape[-1]
    if cols % _WORD:
        raise ValueError(f"columns ({cols}) must be a multiple of {_WORD}")
    flat = cmp.view(np.uint8).reshape(cmp.shape[:-1] + (cols,))
    np.copyto(byte_lo, flat[..., 0::8], casting="unsafe")
    for k in range(1, 8):
        np.copyto(byte_tmp, flat[..., k::8], casting="unsafe")
        np.left_shift(byte_tmp, np.uint8(k), out=byte_tmp)
        np.bitwise_or(byte_lo, byte_tmp, out=byte_lo)
    # Bytes compose little-endian into words; on big-endian hosts the
    # '<u8' view is a byte-order-aware copy into native out words.
    np.copyto(
        out,
        byte_lo.reshape(out.shape[:-1] + (-1,)).view(np.dtype("<u8")),
        casting="unsafe",
    )
    return out


def compare_pack_into(
    values: np.ndarray,
    threshold: "np.ndarray | np.number",
    out: np.ndarray,
    cmp: np.ndarray,
    byte_lo: np.ndarray,
    byte_tmp: np.ndarray,
) -> np.ndarray:
    """Pack the acceptance mask ``values < threshold`` into uint64 words.

    ``values`` is a ``(..., rows, cols)`` site plane — integer lanes
    from :func:`site_values_u16` / shifted 24-bit words, or float32
    uniforms on the explicit-``probs`` path — and ``threshold`` a scalar
    or a ``(..., 1, 1)``-broadcastable per-chain array of the matching
    comparison space.  ``cmp`` is bool scratch shaped like ``values``;
    ``byte_lo``/``byte_tmp``/``out`` as in :func:`pack_bool_into`.  No
    argument may alias another.
    """
    np.less(values, threshold, out=cmp)
    return pack_bool_into(cmp, out, byte_lo, byte_tmp)


def shift_cols_into(
    words: np.ndarray, direction: int, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Bit plane of the column-neighbour, wrapping words on the torus.

    ``direction=+1`` builds the column-(j-1) ("prev") neighbour plane:
    ``(w << 1) | (roll(w, 1, axis=-1) >> 63)``; ``direction=-1`` the
    column-(j+1) ("next") plane — bit-identical to the ``_prev_col`` /
    ``_next_col`` helpers of :mod:`repro.baselines.multispin`.  ``tmp``
    is uint64 scratch shaped like ``words``; ``out`` and ``tmp`` must
    not alias ``words`` or each other.
    """
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    if direction == 1:
        np.copyto(tmp[..., 1:], words[..., :-1])
        np.copyto(tmp[..., :1], words[..., -1:])
        np.left_shift(words, _ONE, out=out)
        np.right_shift(tmp, _SIXTY_THREE, out=tmp)
    else:
        np.copyto(tmp[..., :-1], words[..., 1:])
        np.copyto(tmp[..., -1:], words[..., :1])
        np.right_shift(words, _ONE, out=out)
        np.left_shift(tmp, _SIXTY_THREE, out=tmp)
    np.bitwise_or(out, tmp, out=out)
    return out


def full_adder_into(
    d1: np.ndarray,
    d2: np.ndarray,
    d3: np.ndarray,
    d4: np.ndarray,
    low: np.ndarray,
    bit1: np.ndarray,
    bit2: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
) -> None:
    """Bitwise full adders: per-bit k = d1+d2+d3+d4 as planes (low, bit1, bit2).

    In-place version of
    :func:`repro.baselines.multispin._disagreement_count_bits` — same
    carry network, every temporary caller-owned.  ``d1`` and ``d3`` are
    *consumed* (overwritten with carry planes); ``d2``/``d4`` are read
    only.  ``low``/``bit1``/``bit2``/``s1``/``s2`` are uint64 outputs
    and scratch shaped like the inputs; no two arguments may alias.
    """
    np.bitwise_xor(d1, d2, out=s1)  # s1 = sum(d1, d2)
    np.bitwise_and(d1, d2, out=d1)  # d1 = carry(d1, d2) = c1
    np.bitwise_xor(d3, d4, out=s2)  # s2 = sum(d3, d4)
    np.bitwise_and(d3, d4, out=d3)  # d3 = carry(d3, d4) = c2
    np.bitwise_xor(s1, s2, out=low)  # k bit 0
    np.bitwise_and(s1, s2, out=s1)  # s1 = lc
    # k = 2*(c1 + c2 + lc) + low; the carry sum needs two bits.
    np.bitwise_xor(d1, d3, out=s2)  # s2 = c1 ^ c2
    np.bitwise_xor(s2, s1, out=bit1)
    np.bitwise_or(d1, d3, out=s2)  # s2 = c1 | c2
    np.bitwise_and(s2, s1, out=s2)  # s2 = lc & (c1 | c2)
    np.bitwise_and(d1, d3, out=d1)  # d1 = c1 & c2
    np.bitwise_or(d1, s2, out=bit2)


def flip_select_into(
    low: np.ndarray,
    bit1: np.ndarray,
    bit2: np.ndarray,
    r1: np.ndarray,
    r0: np.ndarray,
    out: np.ndarray,
    tmp: np.ndarray,
) -> np.ndarray:
    """Three-case Metropolis flip mask from the disagreement-count planes.

    ``out = (k>=2) | (k==1 & r1) | (k==0 & r0)`` where ``k`` is encoded
    by ``(low, bit1, bit2)`` from :func:`full_adder_into` and ``r1`` /
    ``r0`` are the packed acceptance masks for thresholds
    ``exp(-4 beta)`` / ``exp(-8 beta)``.  ``tmp`` is uint64 scratch;
    ``out``/``tmp`` must not alias any input or each other.  ``bit1`` /
    ``bit2`` / ``low`` / ``r1`` / ``r0`` are read only.
    """
    np.bitwise_or(bit1, bit2, out=tmp)  # tmp = k >= 2
    np.bitwise_or(tmp, low, out=out)  # out = k >= 1
    np.bitwise_not(out, out=out)  # out = k == 0
    np.bitwise_and(out, r0, out=out)
    np.bitwise_or(out, tmp, out=out)  # + always-flip cases
    np.bitwise_not(tmp, out=tmp)  # tmp = k < 2
    np.bitwise_and(tmp, low, out=tmp)  # tmp = k == 1
    np.bitwise_and(tmp, r1, out=tmp)
    np.bitwise_or(out, tmp, out=out)
    return out
