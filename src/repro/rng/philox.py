"""Philox4x32-10 counter-based pseudo-random number generator.

TPUs use stateless (counter-based) RNGs so that every core can draw an
independent, reproducible stream without shared mutable state.  This module
implements the Philox4x32 generator of Salmon et al. (SC 2011, "Parallel
random numbers: as easy as 1, 2, 3") in fully vectorised numpy.  It is the
random-number substrate for the whole library: the checkerboard updaters
draw their per-site acceptance uniforms from per-core keyed Philox streams
(see :mod:`repro.rng.streams`).

The generator maps a 128-bit counter and a 64-bit key to 128 bits of
output through 10 rounds of a simple multiply/xor network.  Distinct
(counter, key) pairs give statistically independent outputs, so parallel
streams are obtained by giving each core its own key and letting each core
advance its own counter.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PHILOX_M0",
    "PHILOX_M1",
    "PHILOX_W0",
    "PHILOX_W1",
    "philox4x32",
    "philox_uniform_bits",
    "philox_uniform_bits_batched",
    "PHILOX_PASS_COUNTERS",
    "make_philox_scratch",
    "philox_bits_into",
    "uint32_to_uniform",
    "uniform_from_bits_into",
]

# Multiplication and Weyl-sequence constants from the Random123 reference
# implementation.
PHILOX_M0 = np.uint64(0xD2511F53)
PHILOX_M1 = np.uint64(0xCD9E8D57)
PHILOX_W0 = np.uint32(0x9E3779B9)
PHILOX_W1 = np.uint32(0xBB67AE85)

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(mult: np.uint64, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the (high, low) 32-bit halves of ``mult * value``.

    ``value`` is a uint32 array; the product is formed in uint64 so both
    halves are exact.
    """
    product = mult * value.astype(np.uint64)
    hi = (product >> _SHIFT32).astype(np.uint32)
    lo = (product & _MASK32).astype(np.uint32)
    return hi, lo


def philox4x32(
    counter: np.ndarray, key: np.ndarray, rounds: int = 10
) -> np.ndarray:
    """Apply the Philox4x32 bijection to a batch of counters.

    Parameters
    ----------
    counter:
        uint32 array of shape ``(4, n)`` (or ``(4,)`` for a single
        counter); ``counter[0]`` is the least-significant word.
    key:
        uint32 array of shape ``(2, n)`` or ``(2,)``; broadcast against
        the counters.
    rounds:
        Number of rounds; 10 is the standard, crush-resistant choice.

    Returns
    -------
    uint32 array with the same shape as ``counter``: 128 bits of output
    per counter.
    """
    counter = np.asarray(counter, dtype=np.uint32)
    key = np.asarray(key, dtype=np.uint32)
    if counter.shape[0] != 4:
        raise ValueError(f"counter must have leading dimension 4, got {counter.shape}")
    if key.shape[0] != 2:
        raise ValueError(f"key must have leading dimension 2, got {key.shape}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")

    c0, c1, c2, c3 = (np.array(c, dtype=np.uint32, copy=True) for c in counter)
    k0 = np.array(key[0], dtype=np.uint32, copy=True)
    k1 = np.array(key[1], dtype=np.uint32, copy=True)

    # uint32 arithmetic wraps; numpy warns on overflow for scalars only,
    # and arrays wrap silently, which is exactly what we want here.
    with np.errstate(over="ignore"):
        for _ in range(rounds):
            hi0, lo0 = _mulhilo(PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + PHILOX_W0
            k1 = k1 + PHILOX_W1
    return np.stack([c0, c1, c2, c3])


def philox_uniform_bits(
    start_counter: int, n_words: int, key: tuple[int, int]
) -> np.ndarray:
    """Generate ``n_words`` uint32 words from consecutive Philox counters.

    The 128-bit counter space is indexed by ``start_counter`` (a Python
    int, taken modulo 2**128); each counter produces four output words.
    """
    if n_words <= 0:
        return np.empty(0, dtype=np.uint32)
    n_counters = -(-n_words // 4)
    start_counter %= 1 << 128

    base_lo = start_counter & ((1 << 64) - 1)
    base_hi = start_counter >> 64
    idx = np.arange(n_counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        lo = np.uint64(base_lo) + idx
    # Wrap-around of the low 64-bit limb carries into the high limb.
    carry = (lo < np.uint64(base_lo)).astype(np.uint64)
    with np.errstate(over="ignore"):
        hi = np.uint64(base_hi & ((1 << 64) - 1)) + carry

    counter = np.empty((4, n_counters), dtype=np.uint32)
    counter[0] = (lo & _MASK32).astype(np.uint32)
    counter[1] = (lo >> _SHIFT32).astype(np.uint32)
    counter[2] = (hi & _MASK32).astype(np.uint32)
    counter[3] = (hi >> _SHIFT32).astype(np.uint32)

    key_arr = np.array(
        [key[0] & 0xFFFFFFFF, key[1] & 0xFFFFFFFF], dtype=np.uint32
    ).reshape(2, 1)
    out = philox4x32(counter, key_arr)
    # Interleave so that consecutive words come from output lanes 0..3 of
    # consecutive counters: transpose (4, n) -> (n, 4) -> flatten.
    return out.T.reshape(-1)[:n_words]


def philox_uniform_bits_batched(
    start_counters: "list[int] | np.ndarray",
    n_words: int,
    keys: np.ndarray,
) -> np.ndarray:
    """Generate ``n_words`` words for each of B independent (counter, key) streams.

    Parameters
    ----------
    start_counters:
        Length-B sequence of 128-bit counters (Python ints, taken modulo
        2**128); stream ``b`` consumes counters starting at
        ``start_counters[b]``.
    n_words:
        Words to draw per stream.
    keys:
        ``(B, 2)`` array-like of uint32 key words, one pair per stream.

    Returns
    -------
    ``(B, n_words)`` uint32 array whose row ``b`` is bit-identical to
    ``philox_uniform_bits(start_counters[b], n_words, keys[b])`` — the
    batched draw is exactly B independent solo draws evaluated in one
    vectorised Philox pass.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    if keys.ndim != 2 or keys.shape[1] != 2:
        raise ValueError(f"keys must have shape (B, 2), got {keys.shape}")
    n_streams = keys.shape[0]
    if len(start_counters) != n_streams:
        raise ValueError(
            f"{len(start_counters)} counters for {n_streams} keys"
        )
    if n_words <= 0:
        return np.empty((n_streams, 0), dtype=np.uint32)
    n_counters = -(-n_words // 4)

    starts = [int(c) % (1 << 128) for c in start_counters]
    base_lo = np.array(
        [c & ((1 << 64) - 1) for c in starts], dtype=np.uint64
    ).reshape(-1, 1)
    base_hi = np.array(
        [(c >> 64) & ((1 << 64) - 1) for c in starts], dtype=np.uint64
    ).reshape(-1, 1)
    idx = np.arange(n_counters, dtype=np.uint64).reshape(1, -1)
    with np.errstate(over="ignore"):
        lo = base_lo + idx
    # Wrap-around of the low 64-bit limb carries into the high limb.
    carry = (lo < base_lo).astype(np.uint64)
    with np.errstate(over="ignore"):
        hi = base_hi + carry

    counter = np.empty((4, n_streams, n_counters), dtype=np.uint32)
    counter[0] = (lo & _MASK32).astype(np.uint32)
    counter[1] = (lo >> _SHIFT32).astype(np.uint32)
    counter[2] = (hi & _MASK32).astype(np.uint32)
    counter[3] = (hi >> _SHIFT32).astype(np.uint32)

    key_arr = keys.T.reshape(2, n_streams, 1)
    out = philox4x32(counter, key_arr)
    # Per stream, interleave output lanes exactly like the solo path:
    # (4, B, n) -> (B, n, 4) -> (B, n * 4) -> trim.
    return out.transpose(1, 2, 0).reshape(n_streams, -1)[:, :n_words]


#: Philox counters evaluated per pass of :func:`philox_bits_into`, summed
#: over streams.  A draw longer than this walks its counter range in
#: passes, so the round network's temporaries (about 48 bytes per
#: counter) stay bounded and cache-sized however long the draw: 16,384
#: counters is 65,536 words, one sub-lattice of a 512^2 compact sweep,
#: so a 262,144-word whole-sweep draw costs four such passes, no more
#: time or memory than four per-sub-lattice draws.
PHILOX_PASS_COUNTERS = 16384


def make_philox_scratch(n_streams: int, n_words: int) -> dict:
    """Preallocate every buffer :func:`philox_bits_into` needs.

    The returned dict is an opaque workspace sized for ``n_streams``
    independent streams drawing ``n_words`` words each; reusing it across
    calls is what makes the in-place generator allocation-free.  Its
    size is bounded by one pass (:data:`PHILOX_PASS_COUNTERS`), however
    long the draw.
    """
    if n_streams < 1:
        raise ValueError(f"n_streams must be >= 1, got {n_streams}")
    if n_words < 1:
        raise ValueError(f"n_words must be >= 1, got {n_words}")
    n_counters = -(-n_words // 4)
    pass_cols = max(1, min(n_counters, PHILOX_PASS_COUNTERS // n_streams))
    size = n_streams * pass_cols
    scratch = {
        "n_streams": n_streams,
        "n_words": n_words,
        "n_counters": n_counters,
        "pass_cols": pass_cols,
        "idx": np.arange(pass_cols, dtype=np.uint64).reshape(1, -1),
        "base_lo": np.empty((n_streams, 1), dtype=np.uint64),
        "base_hi": np.empty((n_streams, 1), dtype=np.uint64),
        "lo": np.empty(size, dtype=np.uint64),
        "hi": np.empty(size, dtype=np.uint64),
        "carry": np.empty(size, dtype=bool),
        "p0": np.empty(size, dtype=np.uint64),
        "p1": np.empty(size, dtype=np.uint64),
        "c": np.empty((4, size), dtype=np.uint32),
        "k0": np.empty((n_streams, 1), dtype=np.uint32),
        "k1": np.empty((n_streams, 1), dtype=np.uint32),
        # (n_streams, w)-shaped views of the flat buffers, one set per
        # pass width seen (at most two: full passes and the last one).
        "views": {},
    }
    if n_words % 4 != 0:
        scratch["bits_pad"] = np.empty(4 * size, dtype=np.uint32)
    return scratch


def _pass_views(scratch: dict, width: int) -> tuple:
    """The scratch buffers viewed as C-contiguous ``(n_streams, width)``."""
    views = scratch["views"].get(width)
    if views is None:
        n_streams = scratch["n_streams"]
        m = n_streams * width
        shape = (n_streams, width)
        c = scratch["c"]
        views = (
            scratch["idx"][:, :width],
            scratch["lo"][:m].reshape(shape),
            scratch["hi"][:m].reshape(shape),
            scratch["carry"][:m].reshape(shape),
            scratch["p0"][:m].reshape(shape),
            scratch["p1"][:m].reshape(shape),
            tuple(c[i, :m].reshape(shape) for i in range(4)),
        )
        scratch["views"][width] = views
    return views


def philox_bits_into(
    start_counters: "list[int] | tuple[int, ...]",
    keys: np.ndarray,
    out: np.ndarray,
    scratch: dict,
    rounds: int = 10,
) -> np.ndarray:
    """Fill ``out`` with Philox words without allocating any arrays.

    Bit-identical to :func:`philox_uniform_bits_batched` (and, for a
    single stream, to :func:`philox_uniform_bits`): same counter layout,
    same round network, same lane interleave.  All intermediates live in
    ``scratch`` (from :func:`make_philox_scratch` with matching
    ``n_streams``/``n_words``); ``out`` must be a C-contiguous
    ``(n_streams, n_words)`` uint32 array.  Long draws run in passes of
    at most :data:`PHILOX_PASS_COUNTERS` counters; the words do not
    depend on the pass split.
    """
    n_streams = scratch["n_streams"]
    n_words = scratch["n_words"]
    n_counters = scratch["n_counters"]
    keys = np.asarray(keys, dtype=np.uint32)
    if keys.shape != (n_streams, 2):
        raise ValueError(
            f"keys must have shape ({n_streams}, 2), got {keys.shape}"
        )
    if len(start_counters) != n_streams:
        raise ValueError(
            f"{len(start_counters)} counters for {n_streams} streams"
        )
    if out.shape != (n_streams, n_words) or out.dtype != np.uint32:
        raise ValueError(
            f"out must be uint32 ({n_streams}, {n_words}), got "
            f"{out.dtype} {out.shape}"
        )
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")

    starts = [int(start) % (1 << 128) for start in start_counters]
    base_lo = scratch["base_lo"]
    base_hi = scratch["base_hi"]
    if n_streams == 1:
        # Scalar keys broadcast cheaper than (1, 1) arrays; precompute the
        # whole Weyl schedule from Python ints so nothing wraps at runtime.
        key_schedule = [
            (
                np.uint32((int(keys[0, 0]) + r * 0x9E3779B9) & 0xFFFFFFFF),
                np.uint32((int(keys[0, 1]) + r * 0xBB67AE85) & 0xFFFFFFFF),
            )
            for r in range(rounds)
        ]
    else:
        key_schedule = None
        k0 = scratch["k0"]
        k1 = scratch["k1"]

    pass_cols = scratch["pass_cols"]
    for first in range(0, n_counters, pass_cols):
        width = min(pass_cols, n_counters - first)
        idx, lo, hi, carry, p0, p1, c = _pass_views(scratch, width)
        c0, c1, c2, c3 = c
        for b, start in enumerate(starts):
            start = (start + first) % (1 << 128)
            base_lo[b, 0] = start & ((1 << 64) - 1)
            base_hi[b, 0] = start >> 64
        if key_schedule is None:
            k0[:, 0] = keys[:, 0]
            k1[:, 0] = keys[:, 1]

        with np.errstate(over="ignore"):
            # Counter block: lo/hi limbs with carry, split into 32-bit lanes.
            np.add(base_lo, idx, out=lo)
            np.less(lo, base_lo, out=carry)
            np.copyto(hi, carry, casting="unsafe")
            np.add(hi, base_hi, out=hi)
            np.copyto(c0, lo, casting="unsafe")
            np.right_shift(lo, _SHIFT32, out=lo)
            np.copyto(c1, lo, casting="unsafe")
            np.copyto(c2, hi, casting="unsafe")
            np.right_shift(hi, _SHIFT32, out=hi)
            np.copyto(c3, hi, casting="unsafe")

            # Round network, identical to philox4x32 but with every
            # temporary drawn from scratch.  ``copyto`` with unsafe casting
            # truncates uint64 -> uint32, i.e. keeps the low word.
            for r in range(rounds):
                if key_schedule is not None:
                    k0, k1 = key_schedule[r]
                np.multiply(c0, PHILOX_M0, out=p0)
                np.multiply(c2, PHILOX_M1, out=p1)
                # new c2 = hi(p0) ^ old c3 ^ k1; old c2 already consumed.
                np.right_shift(p0, _SHIFT32, out=hi)
                np.copyto(c2, hi, casting="unsafe")
                np.bitwise_xor(c2, c3, out=c2)
                np.bitwise_xor(c2, k1, out=c2)
                # new c3 = lo(p0); old c3 consumed above.
                np.copyto(c3, p0, casting="unsafe")
                # new c0 = hi(p1) ^ old c1 ^ k0; old c0 already consumed.
                np.right_shift(p1, _SHIFT32, out=hi)
                np.copyto(c0, hi, casting="unsafe")
                np.bitwise_xor(c0, c1, out=c0)
                np.bitwise_xor(c0, k0, out=c0)
                # new c1 = lo(p1); old c1 consumed above.
                np.copyto(c1, p1, casting="unsafe")
                if key_schedule is None:
                    np.add(k0, PHILOX_W0, out=k0)
                    np.add(k1, PHILOX_W1, out=k1)

        # Interleave lanes exactly like the allocating paths: word i of
        # counter j comes from output lane i of counter j.  Only the last
        # pass of a draw whose length is not a multiple of 4 goes through
        # the pad, which drops the unused tail words.
        lo_word = 4 * first
        hi_word = min(n_words, 4 * (first + width))
        if hi_word - lo_word == 4 * width:
            lanes = out[:, lo_word:hi_word].reshape(n_streams, width, 4)
            for i in range(4):
                np.copyto(lanes[:, :, i], c[i])
        else:
            pad = scratch["bits_pad"][: 4 * n_streams * width].reshape(
                n_streams, 4 * width
            )
            lanes = pad.reshape(n_streams, width, 4)
            for i in range(4):
                np.copyto(lanes[:, :, i], c[i])
            np.copyto(out[:, lo_word:hi_word], pad[:, : hi_word - lo_word])
    return out


def uniform_from_bits_into(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """In-place version of :func:`uint32_to_uniform`.

    Destroys ``bits`` (shifts it right by 8 in place) and fills ``out``
    (float32, same shape) with uniforms bit-identical to
    ``uint32_to_uniform(bits)``.
    """
    np.right_shift(bits, np.uint32(8), out=bits)
    # uint32 -> float32 is exact for values below 2**24, which the shift
    # guarantees, so the unsafe cast reproduces .astype(np.float32).
    np.copyto(out, bits, casting="unsafe")
    np.multiply(out, np.float32(2.0**-24), out=out)
    return out


def uint32_to_uniform(bits: np.ndarray) -> np.ndarray:
    """Map uint32 words to float32 uniforms in [0, 1).

    Uses the top 24 bits so every result is exactly representable in
    float32 (and the mapping is the one TF's stateless uniform uses).
    """
    return ((bits >> np.uint32(8)).astype(np.float32)) * np.float32(2.0**-24)
