"""Dense fixed-point tensors, the exact convolution reference, and sparsity ops.

Arithmetic is exact signed integer fixed point: 16-bit operands, 24-bit
accumulator semantics. Accumulation runs in int64 internally and the final
partial sums are checked against the 24-bit range, so any two correct
implementations of the same layer agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataflow import LayerShape, ShapeError

VALUE_BITS = 16
ACCUM_BITS = 24
VALUE_MIN = -(1 << (VALUE_BITS - 1))
VALUE_MAX = (1 << (VALUE_BITS - 1)) - 1
ACCUM_MIN = -(1 << (ACCUM_BITS - 1))
ACCUM_MAX = (1 << (ACCUM_BITS - 1)) - 1

WEIGHT_ROLES = ("k", "c", "r", "s")
ACT_ROLES = ("c", "x", "y")
OUT_ROLES = ("k", "x", "y")


class FixedPointOverflow(ArithmeticError):
    """A value left the 16-bit operand or 24-bit accumulator range."""


@dataclass(frozen=True)
class DenseTensor:
    """A rank-3/4 integer array with role labels for each dimension
    (weights: k,c,r,s; activations: c,x,y)."""

    values: np.ndarray
    roles: tuple[str, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.int64, copy=True)
        if arr.ndim != len(self.roles):
            raise ShapeError(f"rank {arr.ndim} does not match roles {self.roles}")
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

    def with_values(self, values: np.ndarray) -> "DenseTensor":
        return DenseTensor(values, self.roles)


def check_operand_range(t: DenseTensor, what: str = "operand") -> None:
    if t.size == 0:
        return
    lo = int(t.values.min())
    hi = int(t.values.max())
    if lo < VALUE_MIN or hi > VALUE_MAX:
        raise FixedPointOverflow(
            f"{what} values [{lo}, {hi}] exceed {VALUE_BITS}-bit range"
        )


def _check_accum_range(out: np.ndarray) -> None:
    if out.size == 0:
        return
    lo = int(out.min())
    hi = int(out.max())
    if lo < ACCUM_MIN or hi > ACCUM_MAX:
        raise FixedPointOverflow(
            f"partial sums [{lo}, {hi}] exceed {ACCUM_BITS}-bit accumulator range"
        )


def reference_conv(layer: LayerShape, weights: DenseTensor, input_: DenseTensor) -> DenseTensor:
    """Exact integer convolution, the functional oracle for every pipeline.

    out[k][x][y] = sum_{c,r,s} in[c][x*stride + r - pad][y*stride + s - pad]
                   * w[k][c][r][s], with out-of-range input coordinates
    contributing zero. Raises FixedPointOverflow instead of saturating.
    """
    if weights.shape != layer.weight_shape():
        raise ShapeError(
            f"weights {weights.shape} do not match layer {layer.weight_shape()}"
        )
    if input_.shape != layer.input_shape():
        raise ShapeError(
            f"input {input_.shape} does not match layer {layer.input_shape()}"
        )
    check_operand_range(weights, "weight")
    check_operand_range(input_, "activation")

    c, w, h = layer.C, layer.W, layer.H
    pad, stride = layer.pad, layer.stride
    wo, ho = layer.Wo, layer.Ho
    padded = np.zeros((c, w + 2 * pad, h + 2 * pad), dtype=np.int64)
    padded[:, pad : pad + w, pad : pad + h] = input_.values

    out = np.zeros((layer.K, wo, ho), dtype=np.int64)
    cpg, kpg = layer.channels_per_group, layer.filters_per_group
    for r in range(layer.R):
        for s in range(layer.S):
            window = padded[:, r : r + stride * wo : stride, s : s + stride * ho : stride]
            for g in range(layer.groups):
                cs = slice(g * cpg, (g + 1) * cpg)
                ks = slice(g * kpg, (g + 1) * kpg)
                out[ks] += np.einsum(
                    "kc,cxy->kxy", weights.values[ks, :, r, s], window[cs]
                )
    _check_accum_range(out)
    return DenseTensor(out, OUT_ROLES)


def apply_relu(t: DenseTensor) -> DenseTensor:
    """Clamp negative values to zero, element-wise; shape preserved."""
    return t.with_values(np.maximum(t.values, 0))


def prune_magnitude(weights: DenseTensor, target_density: float) -> DenseTensor:
    """Zero all but the ceil(target_density * n) largest-magnitude values.

    Only the thresholding half of the usual two-phase pruning flow; no
    retraining. Ties break toward the lowest linear index so the result is
    deterministic. Surviving values are untouched (pure Hadamard mask).
    """
    if weights.size == 0:
        raise ShapeError("cannot prune an empty tensor")
    if not 0.0 < target_density <= 1.0:
        raise ValueError(f"target_density {target_density} outside (0, 1]")
    n = weights.size
    keep = math.ceil(target_density * n)
    flat = weights.values.reshape(-1)
    # stable sort on descending magnitude keeps equal magnitudes in index order
    order = np.argsort(-np.abs(flat), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[:keep]] = True
    return weights.with_values(np.where(mask.reshape(weights.shape), weights.values, 0))


def gen_synthetic(
    shape: Sequence[int],
    density: float,
    seed: int,
    roles: tuple[str, ...] | None = None,
    lo: int = 1,
    hi: int = 99,
    signed: bool = True,
) -> DenseTensor:
    """Seeded synthetic tensor with an exact non-zero fraction of ceil(d*n)/n.

    Non-zero positions are the first ceil(d*n) entries of one seeded
    permutation, so lowering the density with the same seed always yields a
    subset of the positions (used by the density sweeps for monotonicity).
    Values are uniform integers in [lo, hi], optionally sign-flipped.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    if not 1 <= lo <= hi <= VALUE_MAX:
        raise ValueError(f"value range [{lo}, {hi}] invalid")
    shape = tuple(int(d) for d in shape)
    if roles is None:
        roles = {3: ACT_ROLES, 4: WEIGHT_ROLES}.get(len(shape), tuple("d" * len(shape)))
    n = math.prod(shape)
    m = math.ceil(density * n)
    rng = np.random.default_rng(seed)
    positions = rng.permutation(n)
    # draw a value for every slot so the first m are identical across densities
    mags = rng.integers(lo, hi + 1, size=n, dtype=np.int64)
    if signed:
        mags *= rng.integers(0, 2, size=n, dtype=np.int64) * 2 - 1
    flat = np.zeros(n, dtype=np.int64)
    flat[positions[:m]] = mags[:m]
    return DenseTensor(flat.reshape(shape), roles)
