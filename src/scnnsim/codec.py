"""Run-length compressed-sparse blocks for weight groups and activation tiles.

Each stored value carries the count of zeros that precede it in the dense
linearization (weights: k-major then r then s; activations: x-major then y).
A zero gap g before a non-zero is stored as g // 2**index_bits zero-value
placeholders, each standing for 2**index_bits - 1 zeros plus itself, and a
final run of g % 2**index_bits. Trailing zeros are implicit in the logical
extent, so decode(encode(x)) == x for every slice.

`BlockSet` is the one block format: it holds many blocks as the flat
`values` and `run_lengths` streams plus per-block `offsets` and `extents`,
built for a whole tensor slice by one vectorized `encode_blocks` and
validated once. The simulator reads the flat arrays (and the dense positions
derived from the runs) directly; a single block is the slice
offsets[b]:offsets[b + 1] of those arrays.

Each entry is held at its stored width: its value as int32, narrowed only
after the 24-bit accumulator check; its run length in the narrowest unsigned
type that holds 2**index_bits - 1 (uint8 at the default 4 bits); and its
position as int32 while every extent is below 2**31, else as int64. That is
9 bytes an entry at the default width, where the int32 dense tensor takes 4
bytes a value. The per-block offsets and extents stay int64, and so does
the arithmetic on runs and positions wherever a sum or product may pass
2**31.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .analytic import MAX_INDEX_BITS
from .record import Record
from .tensors import ACCUM_MAX, ACCUM_MIN

DEFAULT_INDEX_BITS = 4


class CodecError(ValueError):
    """Malformed compressed block."""


def _check_index_bits(index_bits: int) -> None:
    if not 1 <= index_bits <= MAX_INDEX_BITS:
        raise CodecError(f"index_bits {index_bits} outside [1, {MAX_INDEX_BITS}]")


# Items per pass of the encoder and the stream check. A pass covers whole
# blocks, so its scratch arrays stay near cache size however large the set;
# a block longer than this is a pass of its own.
_PASS = 1 << 16


def _passes(bounds: np.ndarray) -> list[tuple[int, int]]:
    """Cut the blocks, block b spanning bounds[b]:bounds[b + 1], into runs
    [b0, b1) of whole blocks about _PASS items long."""
    marks = np.searchsorted(bounds, np.arange(_PASS, bounds[-1], _PASS))
    cuts = np.concatenate(([0], marks, [bounds.size - 1]))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0].tolist()
    return list(zip(cuts[:-1], cuts[1:]))


def _run_dtype(index_bits: int) -> np.dtype:
    """The narrowest unsigned type that holds a run of 2**index_bits - 1."""
    return np.min_scalar_type((1 << index_bits) - 1)


def _check_stream(
    values: np.ndarray,
    run_lengths: np.ndarray,
    offsets: np.ndarray,
    extents: np.ndarray,
    index_bits: int,
) -> np.ndarray:
    """Validate a stream of blocks, block b owning entries
    offsets[b]:offsets[b + 1], and return each entry's dense position within
    its block, as int32 when every extent is below 2**31."""
    if values.shape != run_lengths.shape or values.ndim != 1:
        raise CodecError("values and run_lengths differ in length")
    if (
        offsets.ndim != 1
        or extents.ndim != 1
        or offsets.size != extents.size + 1
        or offsets[0] != 0
        or offsets[-1] != values.size
        or (np.diff(offsets) < 0).any()
    ):
        raise CodecError("block offsets do not partition the stream")
    max_run = (1 << index_bits) - 1
    if values.size and (run_lengths.min() < 0 or run_lengths.max() > max_run):
        bad = (run_lengths < 0) | (run_lengths > max_run)
        run = int(run_lengths[bad.argmax()])
        raise CodecError(f"run length {run} outside [0, {max_run}]")
    # blocks carry 16-bit operands or 24-bit pre-requantization outputs;
    # operand-range enforcement happens where data enters the pipeline
    if values.size and (values.min() < ACCUM_MIN or values.max() > ACCUM_MAX):
        bad = (values < ACCUM_MIN) | (values > ACCUM_MAX)
        raise CodecError(
            f"value {int(values[bad.argmax()])} outside 24-bit accumulator range"
        )
    # every entry must land inside its block. The runs are widened to int64
    # first (a uint8 run of 255 plus one wraps), and the int64 sums wrap
    # modulo 2**64, so a position is exact while below 2**63; the first entry
    # past an extent (< 2**63) overshoots it by at most one run (< 2**62), so
    # its position is either exact or wraps negative.
    wide = extents.size and int(extents.max()) >= 1 << 31
    positions = np.empty(values.size, dtype=np.int64 if wide else np.int32)
    over = extents < 0
    for b0, b1 in _passes(offsets):
        lo, hi = offsets[b0], offsets[b1]
        ends = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(run_lengths[lo:hi].astype(np.int64) + 1, out=ends[1:])
        counts = np.diff(offsets[b0 : b1 + 1])
        pos = ends[1:] - 1 - np.repeat(ends[offsets[b0:b1] - lo], counts)
        outside = (pos < 0) | (pos >= np.repeat(extents[b0:b1], counts))
        if outside.any():
            over[np.searchsorted(offsets, lo + outside.argmax(), side="right") - 1] = True
            break
        positions[lo:hi] = pos
    if over.any():
        raise CodecError(
            f"block expands past its logical extent {int(extents[over.argmax()])}"
        )
    return positions


def _int64(xs, what: str) -> np.ndarray:
    try:
        return np.asarray(xs, dtype=np.int64)
    except OverflowError as e:
        raise CodecError(f"{what} outside the 64-bit range") from e


def _int_values(xs) -> np.ndarray:
    """Values as given when they are an int32 array, else as int64."""
    if isinstance(xs, np.ndarray) and xs.dtype == np.int32:
        return xs
    return _int64(xs, "value")


class BlockSet(Record, eq=False):
    """Many blocks in the stream format, stored column-wise.

    Block b owns entries offsets[b]:offsets[b + 1] of `values` and
    `run_lengths` and expands to extents[b] dense values. `positions`, not a
    field, holds each entry's dense coordinate within its block, derived
    from the runs.
    The whole set is checked once: the index width, offsets that partition
    the stream, runs within the index width, values within the 24-bit
    accumulator range and every entry inside its block's extent. Then
    `values` is held as int32, `run_lengths` as `_run_dtype(index_bits)`,
    `positions` as int32 while every extent is below 2**31 (else int64),
    and `offsets` and `extents` as int64. Runs of any other width are read
    as int64 and narrowed after their check."""

    values: np.ndarray
    run_lengths: np.ndarray
    offsets: np.ndarray
    extents: np.ndarray
    index_bits: int = DEFAULT_INDEX_BITS

    def __post_init__(self) -> None:
        _check_index_bits(self.index_bits)
        for name in ("offsets", "extents"):
            object.__setattr__(self, name, _int64(getattr(self, name), name))
        runs, narrow = self.run_lengths, _run_dtype(self.index_bits)
        if not (isinstance(runs, np.ndarray) and runs.dtype == narrow):
            runs = _int64(runs, "run_lengths")
        values = _int_values(self.values)
        positions = _check_stream(values, runs, self.offsets, self.extents, self.index_bits)
        object.__setattr__(self, "values", values.astype(np.int32, copy=False))
        object.__setattr__(self, "run_lengths", runs.astype(narrow, copy=False))
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return self.extents.size


def encode_blocks(
    dense: Sequence[int] | np.ndarray,
    extents: Sequence[int] | np.ndarray,
    index_bits: int = DEFAULT_INDEX_BITS,
) -> BlockSet:
    """Run-length encode many dense slices at once: `dense` concatenates the
    blocks' linearized slices and `extents` gives their lengths. The value
    buffer takes the dense values' width, int32 from every simulator stage;
    any other input is widened to int64 and narrowed by `BlockSet` after its
    range check. Runs are written at their stored width from the start."""
    _check_index_bits(index_bits)
    flat = _int_values(dense).reshape(-1)
    extents = _int64(extents, "extent").reshape(-1)
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
    values = np.zeros(bound, dtype=flat.dtype)
    runs = np.full(bound, (1 << index_bits) - 1, dtype=_run_dtype(index_bits))
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
        runs[ends - 1] = gap & ((1 << index_bits) - 1)
        offsets[b0 + 1 : b1 + 1] = np.concatenate(([at], ends))[first[1:]]
    n = offsets[-1]
    return BlockSet(values[:n], runs[:n], offsets, extents, index_bits)
