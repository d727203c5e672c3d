"""Dense fixed-point tensors, the exact convolution reference, and sparsity ops.

Arithmetic is exact signed integer fixed point: 16-bit operands, 24-bit
accumulator semantics. Accumulation is exact (int64, or float64 under a
checked bound) and the final partial sums are checked against the 24-bit
range, so any two correct implementations of the same layer agree bit for
bit.

Storage is int32: every `DenseTensor` holds its values as int32, so each
operand, output and synthetic draw takes half the memory int64 would, and
`reference_conv` pads its input as int32. Only sums that can outgrow int32
are wider: `reference_conv`'s float64 terms and its int64 running output; a
value narrowed to int32 is range-checked first, never wrapped.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dataflow import LayerShape, ShapeError
from .record import Record

VALUE_BITS = 16
ACCUM_BITS = 24
VALUE_MIN = -(1 << (VALUE_BITS - 1))
VALUE_MAX = (1 << (VALUE_BITS - 1)) - 1
ACCUM_MIN = -(1 << (ACCUM_BITS - 1))
ACCUM_MAX = (1 << (ACCUM_BITS - 1)) - 1
STORAGE_BITS = 32  # every DenseTensor's values are int32
# A 16-bit product is at most 2**30 in magnitude and float64 holds every
# integer below 2**53, so a float64 sum of under 2**23 products is exact.
PRODUCT_BITS = 2 * (VALUE_BITS - 1)
EXACT_FLOAT_BITS = 53
_CONV_PASS = 1 << 18  # values per buffer of one reference_conv band


class FixedPointOverflow(ArithmeticError):
    """A value left the 16-bit operand, 24-bit accumulator or 32-bit storage
    range."""


class DenseTensor(Record):
    """An integer array: weights [k, c, r, s], activations [c, x, y] and
    outputs [k, x, y]; each consumer checks the shape against its layer.

    The values are one read-only int32 copy of what is given. Operands are
    16-bit and outputs 24-bit checked partial sums, so int32 holds them all;
    a value outside int32 raises FixedPointOverflow instead of wrapping."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.dtype != np.int32:
            arr = np.asarray(arr, dtype=np.int64)
            check_range(arr, STORAGE_BITS, "tensor values")
        arr = arr.astype(np.int32)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return int(self.values.size)

    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def density(self) -> float:
        return self.nnz() / self.size if self.size else 0.0


def check_range(values: np.ndarray, bits: int, what: str) -> None:
    """Raise FixedPointOverflow if any value leaves the signed `bits`-bit range."""
    if values.size:
        lo, hi = int(values.min()), int(values.max())
        if lo < -(1 << (bits - 1)) or hi >= 1 << (bits - 1):
            raise FixedPointOverflow(f"{what} [{lo}, {hi}] exceed {bits}-bit range")


def check_operand_range(t: DenseTensor, what: str = "operand") -> None:
    check_range(t.values, VALUE_BITS, f"{what} values")


def reference_conv(layer: LayerShape, weights: DenseTensor, input_: DenseTensor) -> DenseTensor:
    """Exact integer convolution, the functional oracle for every pipeline.

    out[k][x][y] = sum_{c,r,s} in[c][x*stride + r - pad][y*stride + s - pad]
                   * w[k][c][r][s], with out-of-range input coordinates
    contributing zero. Raises FixedPointOverflow instead of saturating.

    Each (tap, convolution group) term is a float64 matrix product of the
    tap's filters with a contiguous copy of the strided input window, added
    into the int64 output. It is exact: every partial sum, in whatever order
    the BLAS forms it, is an integer below channels_per_group * 2**30 <
    2**53. Layers with 2**23 or more channels per group raise ShapeError.
    The checked 24-bit sums are handed back as an int32 tensor.
    """
    if weights.shape != layer.weight_shape():
        raise ShapeError(
            f"weights {weights.shape} do not match layer {layer.weight_shape()}"
        )
    if input_.shape != layer.input_shape():
        raise ShapeError(
            f"input {input_.shape} does not match layer {layer.input_shape()}"
        )
    cpg, kpg = layer.channels_per_group, layer.filters_per_group
    if cpg << PRODUCT_BITS >= 1 << EXACT_FLOAT_BITS:
        raise ShapeError(
            f"{layer.name}: {cpg} channels per group could sum past "
            f"2**{EXACT_FLOAT_BITS}, beyond exact float64 accumulation"
        )
    check_operand_range(weights, "weight")
    check_operand_range(input_, "activation")

    c, w, h = layer.C, layer.W, layer.H
    pad, stride = layer.pad, layer.stride
    wo, ho = layer.Wo, layer.Ho
    # int32 like the input; each window copy below widens it to float64
    padded = np.zeros((c, w + 2 * pad, h + 2 * pad), dtype=np.int32)
    padded[:, pad : pad + w, pad : pad + h] = input_.values
    # [r, s, k, c]: each tap's filter matrix, rows contiguous
    taps = np.ascontiguousarray(weights.values.transpose(2, 3, 0, 1), dtype=np.float64)
    out = np.zeros((layer.K, wo, ho), dtype=np.int64)
    # a band of output rows at a time, so the window copy, the term and its
    # int64 copy each hold about _CONV_PASS values
    rows = max(1, _CONV_PASS // (max(c, kpg) * ho))
    for x0 in range(0, wo, rows):
        n = min(rows, wo - x0)
        window = np.empty((c, n, ho))
        cols = window.reshape(c, n * ho)
        term = np.empty((kpg, n * ho))
        exact = np.empty((kpg, n, ho), dtype=np.int64)
        for r in range(layer.R):
            xs = slice(x0 * stride + r, (x0 + n - 1) * stride + r + 1, stride)
            for s in range(layer.S):
                window[...] = padded[:, xs, s : s + stride * ho : stride]
                for g in range(layer.groups):
                    ks = slice(g * kpg, (g + 1) * kpg)
                    np.matmul(taps[r, s, ks], cols[g * cpg : (g + 1) * cpg], out=term)
                    exact.reshape(kpg, -1)[...] = term
                    out[ks, x0 : x0 + n] += exact
    del padded  # before DenseTensor copies the output
    check_range(out, ACCUM_BITS, "partial sums")
    return DenseTensor(out)


def apply_relu(t: DenseTensor) -> DenseTensor:
    """Clamp negative values to zero, element-wise; shape preserved."""
    return DenseTensor(np.maximum(t.values, 0))


def reference_pool(t: DenseTensor, pool) -> DenseTensor:
    """Ceil-mode max pooling, the oracle's own, sharing no code with the
    PPU's: along each axis, output o is the maximum of inputs o * stride + j,
    j < window, an index past the far edge clamped to the last input."""
    (_, w, h), st, j = t.shape, pool.stride, np.arange(pool.window)
    x, y = (np.minimum(np.arange(pool.out_extent(n))[:, None] * st + j, n - 1) for n in (w, h))
    return DenseTensor(t.values[:, x].max(axis=2)[:, :, y].max(axis=3))


def prune_magnitude(weights: DenseTensor, target_density: float) -> DenseTensor:
    """Zero all but the ceil(target_density * n) largest-magnitude values.

    Only the thresholding half of the usual two-phase pruning flow; no
    retraining. The threshold is the keep-th largest magnitude, found by a
    linear-time partition; of the values at the threshold, the lowest
    linear indices survive, so the result is deterministic. Surviving values
    are untouched (pure Hadamard mask).
    """
    if weights.size == 0:
        raise ShapeError("cannot prune an empty tensor")
    if not 0.0 < target_density <= 1.0:
        raise ValueError(f"target_density {target_density} outside (0, 1]")
    n = weights.size
    keep = math.ceil(target_density * n)
    # as uint32, so that |-2**31| does not wrap to a negative magnitude
    mag = np.abs(weights.values.reshape(-1)).view(np.uint32)
    threshold = np.partition(mag, n - keep)[n - keep]
    mask = mag > threshold
    mask[np.flatnonzero(mag == threshold)[: keep - np.count_nonzero(mask)]] = True
    return DenseTensor(np.where(mask.reshape(weights.shape), weights.values, 0))


def gen_synthetic(
    shape: Sequence[int],
    density: float,
    seed: int,
    lo: int = 1,
    hi: int = 99,
    signed: bool = True,
) -> DenseTensor:
    """Seeded synthetic tensor with an exact non-zero fraction of ceil(d*n)/n.

    Non-zero positions are the first ceil(d*n) entries of one seeded
    permutation, so lowering the density with the same seed always yields a
    subset of the positions (used by the density sweeps for monotonicity).
    Values are uniform integers in [lo, hi], optionally sign-flipped. They
    are drawn as int32: a range below 2**32 takes the same 32-bit draws from
    the generator at either width, so the values are those an int64 draw
    gives.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    if not 1 <= lo <= hi <= VALUE_MAX:
        raise ValueError(f"value range [{lo}, {hi}] invalid")
    shape = tuple(int(d) for d in shape)
    n = math.prod(shape)
    m = math.ceil(density * n)
    rng = np.random.default_rng(seed)
    positions = rng.permutation(n)
    # draw a value for every slot so the first m are identical across densities
    mags = rng.integers(lo, hi + 1, size=n, dtype=np.int32)
    if signed:
        mags *= rng.integers(0, 2, size=n, dtype=np.int32) * 2 - 1
    flat = np.zeros(n, dtype=np.int32)
    flat[positions[:m]] = mags[:m]
    return DenseTensor(flat.reshape(shape))
