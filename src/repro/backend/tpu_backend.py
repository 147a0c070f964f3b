"""Backend that executes ops in numpy and prices them on a simulated TensorCore.

This is the accounting twin of :class:`NumpyBackend`: numerics are
bit-identical for the same dtype (the equivalence tests rely on it), and
every op books modeled time into the bound core's profiler through the
calibrated cost model — which is how the performance tables of the paper
are regenerated without TPU hardware.

:class:`~repro.backend.base.Backend` only computes; the device's prices
live here, in one table.  :data:`PRICES` maps each op name to a pure
function of the call's buffers and result that returns the op's
``(category, flops, bytes, batch)`` charges.  An allocating op and its
``*_into`` twin share one entry, so each formula is written once.  One
loop wraps every priced op as "compute, then ``core.charge_op``"; the
ops in :data:`UNPRICED` run as they are.  Replays recorded from this
backend bind the priced methods, so they charge too.

Byte counts are HBM traffic in the backend dtype (``itemsize`` bytes per
element), except the packed word kernels, whose planes mix uint64 words,
uint32 draws and uint8/bool scratch and so count actual buffer bytes.
"""

from __future__ import annotations

import functools
import inspect

from ..tpu.dtypes import DType, BFLOAT16, FLOAT32
from ..tpu.tensorcore import TensorCore
from .base import Backend

__all__ = ["PRICES", "UNPRICED", "TPUBackend", "float32_tpu_backend"]


def _nbytes(itemsize, *arrays) -> float:
    """HBM bytes of ``arrays`` stored in the backend dtype."""
    return float(sum(a.size for a in arrays)) * itemsize


def _raw_nbytes(*arrays) -> float:
    """Actual bytes of mixed-width packed buffers."""
    return float(sum(a.nbytes for a in arrays))


# Every price is ``price(itemsize, result, *args)``: the backend dtype's
# item size, the op's return value and the op's positional arguments.
# It returns a tuple of (category, flops, bytes, batch) charges.


def _matmul(w, out, a, b, *_):
    # FLOP count: 2 * (output elements) * (contraction length); ``batch``
    # is the number of independent matrix blocks (the MXU pipeline ramp).
    batch = out.size / (out.shape[-1] * out.shape[-2]) if out.ndim >= 2 else 1.0
    return (("mxu", 2.0 * out.size * a.shape[-1], _nbytes(w, a, b, out), batch),)


def _band_cross_matmul(w, out, grid, *_):
    # Two band matmuls (``grid @ K_c`` and ``K_r @ grid``) plus their add.
    r, c = grid.shape[-2:]
    batch = out.size / (r * c)
    return (
        ("mxu", 2.0 * out.size * c, _nbytes(w, grid, out) + c * c * w, batch),
        ("mxu", 2.0 * out.size * r, _nbytes(w, grid, out) + r * r * w, batch),
        ("vpu", float(out.size), 3.0 * _nbytes(w, out), None),
    )


def _band_pair_matmul(w, out, a, axis, *_):
    k = out.shape[axis]
    batch = out.size / (out.shape[-1] * out.shape[-2])
    return (("mxu", 2.0 * out.size * k, _nbytes(w, a, out) + k * k * w, batch),)


def _shifted_pair_conv(w, out, a, *_):
    # 2-tap im2col conv: 2 MACs = 4 flops per output element.
    return (("conv", 4.0 * out.size, _nbytes(w, a, out), None),)


def _cross_conv(w, out, a, *_):
    # im2col-style dense 3x3 conv: 2 flops per kernel tap per output element.
    return (("conv", 2.0 * 9.0 * out.size, _nbytes(w, a, out), None),)


def _elementwise(n_operands: int, flops_per_elem: float = 1.0):
    """Price of a VPU op reading its first ``n_operands`` arguments."""

    def price(w, out, *args):
        operands = args[:n_operands]
        return (("vpu", flops_per_elem * out.size, _nbytes(w, *operands, out), None),)

    return price


def _uniform(w, out, *_):
    # Philox4x32-10: 10 rounds x (2 mul + 4 xor/add) per 4 words, plus
    # the int->float conversion: ~20 flops per element is a fair model.
    return (("vpu", 20.0 * out.size, _nbytes(w, out), None),)


def _acceptance_index(w, idx_out, sigma, nn, _idx, _fscratch, offsets=None):
    # A short VPU chain: 5*sigma + nn (+ per-chain offsets), then the cast.
    flops = (5.0 if offsets is not None else 4.0) * idx_out.size
    return (("vpu", flops, _nbytes(w, sigma, nn) + 4.0 * idx_out.size, None),)


def _take(w, out, _table, indices, *_):
    # A memory-bound gather: one lookup per element, index + result traffic.
    nbytes = _nbytes(w, out) + 4.0 * indices.size
    return (("formatting", float(out.size), nbytes, None),)


def _slab_add(w, _result, _target, _index, update, *_):
    # Formatting plus a vector add: the dominant cost on real hardware is
    # the strided gather/scatter of the boundary slab.
    return (("formatting", float(update.size), 2.0 * _nbytes(w, update), None),)


def _move_input(w, _out, a, *_):
    return (("formatting", 0.0, 2.0 * _nbytes(w, a), None),)


def _move_result(w, out, *_):
    return (("formatting", 0.0, 2.0 * _nbytes(w, out), None),)


def _reshape(w, out, *_):
    # Logical reshapes are free on layouts that match tiling; a token
    # zero-byte charge keeps reshape-heavy code visible.
    return (("formatting", 0.0, 0.0, None),)


def _packed_bits(w, out, *_):
    # The generator at the RNG rate: 20 flops per 32-bit word, matching
    # uniform_into per word drawn.
    return (("alu", 20.0 * out.size, _raw_nbytes(out), None),)


def _packed_rshift(w, out, a, *_):
    return (("alu", float(out.size), _raw_nbytes(a, out), None),)


def _packed_xor(w, out, a, b, *_):
    return (("alu", float(out.size), _raw_nbytes(a, b, out), None),)


def _packed_shift_cols(w, out, words, *_):
    # Two word shifts and an OR, with the carry word.
    return (("alu", 3.0 * out.size, _raw_nbytes(words, out), None),)


def _packed_compare_pack(w, out, values, *_):
    # Half a word-op per site lane: the compare and the byte-pack passes
    # both run at full vector width over sub-word lanes.
    return (("alu", 0.5 * values.size, _raw_nbytes(values, out), None),)


def _packed_full_adder(w, _result, d1, d2, d3, d4, low, bit1, bit2, *_):
    # The 12-word-op carry network of the multi-spin popcount.
    nbytes = _raw_nbytes(d1, d2, d3, d4, low, bit1, bit2)
    return (("alu", 12.0 * low.size, nbytes, None),)


def _packed_flip_select(w, out, low, bit1, bit2, r1, r0, *_):
    # Three-case Metropolis flip mask in 9 word ops.
    return (("alu", 9.0 * out.size, _raw_nbytes(low, bit1, bit2, r1, r0, out), None),)


def _packed_pack(w, out, *_):
    return (("formatting", 0.0, 2.0 * _raw_nbytes(out), None),)


def _packed_unpack(w, _out, words, *_):
    return (("formatting", 0.0, 2.0 * _raw_nbytes(words), None),)


_PRICE_TABLE = {
    ("matmul", "matmul_into"): _matmul,
    ("band_cross_matmul_into",): _band_cross_matmul,
    ("band_pair_matmul_into",): _band_pair_matmul,
    ("shifted_pair_sum", "shifted_pair_sum_into"): _shifted_pair_conv,
    ("conv2d_neighbors", "conv2d_neighbors_into"): _cross_conv,
    ("add", "add_into"): _elementwise(2),
    ("subtract", "subtract_into"): _elementwise(2),
    ("multiply", "multiply_into"): _elementwise(2),
    # Transcendentals cost several VPU ops: ~8 flops per element for exp.
    ("exp", "exp_into"): _elementwise(1, flops_per_elem=8.0),
    ("less", "less_into"): _elementwise(2),
    ("where",): _elementwise(3),
    ("random_uniform", "uniform_into"): _uniform,
    ("acceptance_index_into",): _acceptance_index,
    ("take_into",): _take,
    ("add_at_slice", "add_at_slice_into"): _slab_add,
    ("roll", "roll_into"): _move_input,
    ("copy", "copy_into"): _move_input,
    ("slice_copy", "slice_copy_into"): _move_result,
    ("concat",): _move_result,
    ("reshape",): _reshape,
    ("packed_bits_into",): _packed_bits,
    ("packed_rshift_into",): _packed_rshift,
    ("packed_xor_into",): _packed_xor,
    ("packed_shift_cols_into",): _packed_shift_cols,
    ("packed_compare_pack_into",): _packed_compare_pack,
    ("packed_full_adder_into",): _packed_full_adder,
    ("packed_flip_select_into",): _packed_flip_select,
    ("packed_pack",): _packed_pack,
    ("packed_unpack",): _packed_unpack,
}

#: Op name -> price: ``price(itemsize, result, *args)`` returns the op's
#: ``(category, flops, bytes, batch)`` charges in booking order.
PRICES = {name: price for names, price in _PRICE_TABLE.items() for name in names}

#: Ops the device does not price: tensor materialisation, and the halo
#: splice whose store the device fuses into the roll it follows.
UNPRICED = frozenset({"array", "assign_at_slice_into"})


class TPUBackend(Backend):
    """Numpy execution + per-op cost charging on a TensorCore.

    Parameters
    ----------
    core:
        The simulated TensorCore receiving the charges.
    dtype:
        Storage format; ``BFLOAT16`` halves all byte accounting and
        applies round-to-nearest-even on every op result, exactly like
        the hardware's bfloat16 stores.
    """

    def __init__(self, core: TensorCore, dtype: DType | str = BFLOAT16) -> None:
        super().__init__(dtype)
        self.core = core


@functools.cache
def _parameters(op) -> tuple:
    """(name, default) of each parameter of ``op`` after ``self``."""
    params = list(inspect.signature(op).parameters.values())[1:]
    return tuple((p.name, p.default) for p in params)


def _priced(op, price):
    """``op`` followed by booking ``price`` of the call on ``self.core``."""

    @functools.wraps(op)
    def priced_op(self, *args, **kwargs):
        result = op(self, *args, **kwargs)
        if kwargs:
            # The op accepted the call, so each parameter past the
            # positional ones came as a keyword or takes its default.
            args += tuple(
                kwargs.get(name, default)
                for name, default in _parameters(op)[len(args):]
            )
        charge = self.core.charge_op
        for category, flops, nbytes, batch in price(self.dtype.itemsize, result, *args):
            charge(category, flops, nbytes, batch)
        return result

    return priced_op


for _name, _price in PRICES.items():
    setattr(TPUBackend, _name, _priced(getattr(Backend, _name), _price))


def float32_tpu_backend(core: TensorCore) -> TPUBackend:
    """Convenience constructor for the float32 ablation runs."""
    return TPUBackend(core, dtype=FLOAT32)
