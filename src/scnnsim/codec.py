"""Run-length compressed-sparse blocks for weight groups and activation tiles.

Each stored value carries the count of zeros that precede it in the dense
linearization (weights: k-major then r then s; activations: x-major then y).
A zero gap g before a non-zero is stored as g // 2**index_bits zero-value
placeholders, each standing for 2**index_bits - 1 zeros plus itself, and a
final run of g % 2**index_bits. Trailing zeros are implicit in the logical
extent, so decode(encode(x)) == x for every slice.

`BlockSet` is the one block format: many blocks as the flat `values`,
`run_lengths` and `positions` columns plus per-block `offsets` and
`extents`; a single block is the slice offsets[b]:offsets[b + 1] of the
columns. As on the machine, where only its own compressor writes the
encoding (weights offline, outputs in the PPU), one producer builds every
set: `encode_blocks`, which encodes a whole tensor slice at once and derives
each entry's dense position from the runs as it goes. A set is a plain
record, never checked after it is built. Value ranges are checked where data
enters the pipeline instead: operands by `tensors.check_operand_range` in
`simulator.compress_weights` and `simulator.distribute_activations`, outputs
against 24 bits in `simulator.ppu_finalize`; `ArchConfig` holds index_bits
to [1, 62].

Each entry is held at its stored width: its value as int32; its run length
in the narrowest unsigned type that holds 2**index_bits - 1 (uint8 at 4
bits); and its position as int32 while every extent is below 2**31, else as
int64. That is 9 bytes an entry at 4 bits, where the int32 dense tensor
takes 4 bytes a value, and every column is exactly as long as the set's
entries. The per-block offsets and extents are int64, and so is the
arithmetic on runs and positions wherever a sum may pass 2**31.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .record import Record


class CodecError(ValueError):
    """Dense values the encoder cannot take."""


# Items per pass of the encoder. A pass covers whole blocks, so its scratch
# arrays stay near cache size however large the set; a block longer than
# this is a pass of its own.
_PASS = 1 << 16

# The least extent whose positions are stored as int64.
_WIDE = 1 << 31


def _passes(bounds: np.ndarray) -> list[tuple[int, int]]:
    """Cut the blocks, block b spanning bounds[b]:bounds[b + 1], into runs
    [b0, b1) of whole blocks about _PASS items long."""
    marks = np.searchsorted(bounds, np.arange(_PASS, bounds[-1], _PASS))
    cuts = np.concatenate(([0], marks, [bounds.size - 1]))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0].tolist()
    return list(zip(cuts[:-1], cuts[1:]))


class BlockSet(Record, eq=False):
    """Many blocks in the stream format, stored column-wise, as
    `encode_blocks` builds them.

    Block b owns entries offsets[b]:offsets[b + 1] of `values`,
    `run_lengths` and `positions` and expands to extents[b] dense values;
    an entry's position is its dense coordinate within its block."""

    values: np.ndarray
    run_lengths: np.ndarray
    positions: np.ndarray
    offsets: np.ndarray
    extents: np.ndarray

    def __len__(self) -> int:
        return self.extents.size


def encode_blocks(
    dense: np.ndarray, extents: Sequence[int] | np.ndarray, index_bits: int
) -> BlockSet:
    """Run-length encode many int32 dense slices at once: `dense`
    concatenates the blocks' linearized slices and `extents` gives their
    lengths. Values and runs are written at their stored width into
    worst-case buffers, which are then shrunk in place to the entry count;
    only then are the positions allocated and derived from the runs."""
    flat = np.asarray(dense).reshape(-1)
    if flat.dtype != np.int32:
        raise CodecError(f"dense values are {flat.dtype}, not int32")
    extents = np.asarray(extents, dtype=np.int64).reshape(-1)
    starts = np.zeros(extents.size + 1, dtype=np.int64)
    np.cumsum(extents, out=starts[1:])
    # with no extent negative, a wrapped int64 sum shows as a decrease
    if (
        (extents < 0).any()
        or (starts[1:] < starts[:-1]).any()
        or starts[-1] != flat.size
    ):
        raise CodecError(f"extents do not partition {flat.size} dense values")
    # a block of extent e holds at most e >> index_bits placeholders
    bound = np.count_nonzero(flat) + int((extents >> index_bits).sum())
    max_run = (1 << index_bits) - 1
    values = np.zeros(bound, dtype=np.int32)
    runs = np.full(bound, max_run, dtype=np.min_scalar_type(max_run))
    offsets = np.zeros(extents.size + 1, dtype=np.int64)
    for b0, b1 in _passes(starts):
        part, at = flat[starts[b0] : starts[b1]], offsets[b0]
        # np.flatnonzero runs several times faster on a boolean mask than on integers
        nz = np.flatnonzero(part != 0)
        # block b's non-zeros are nz[first[b]:first[b + 1]]
        block_starts = starts[b0:b1] - starts[b0]
        first = np.append(np.searchsorted(nz, block_starts), nz.size)
        # zeros since the previous non-zero, or since the start of its block
        prev = np.empty_like(nz)
        prev[1:] = nz[:-1]
        held = first[:-1] < first[1:]
        prev[first[:-1][held]] = block_starts[held] - 1
        gap = nz - prev - 1
        # each placeholder stands for 2**index_bits - 1 zeros plus itself
        ends = at + np.cumsum((gap >> index_bits) + 1)
        values[ends - 1] = part[nz]
        runs[ends - 1] = gap & max_run
        offsets[b0 + 1 : b1 + 1] = np.concatenate(([at], ends))[first[1:]]
    n = int(offsets[-1])
    # no view of either buffer exists yet
    values.resize(n, refcheck=False)
    runs.resize(n, refcheck=False)
    wide = extents.size and int(extents.max()) >= _WIDE
    positions = np.empty(n, dtype=np.int64 if wide else np.int32)
    for b0, b1 in _passes(offsets):
        lo, hi = offsets[b0], offsets[b1]
        # widened first: a uint8 run of 255 plus one wraps
        ends = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(runs[lo:hi].astype(np.int64) + 1, out=ends[1:])
        before = ends[offsets[b0:b1] - lo]
        positions[lo:hi] = ends[1:] - 1 - np.repeat(before, np.diff(offsets[b0 : b1 + 1]))
    return BlockSet(values, runs, positions, offsets, extents)
