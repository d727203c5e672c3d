import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_rle_encode, naive_rle_decode, pass_encode_blocks
from scnnsim import codec
from scnnsim.analytic import ArchConfig
from scnnsim.codec import CodecError, encode_blocks
from scnnsim.dataflow import ConfigurationError
from scnnsim.tensors import ACCUM_MAX, ACCUM_MIN


def encode_list(dense, extents, index_bits=4):
    """`encode_blocks` of dense values given as a list."""
    return encode_blocks(np.array(dense, dtype=np.int32), extents, index_bits)


def encode(dense, index_bits=4):
    """One dense slice as a one-block set."""
    return encode_list(dense, [len(dense)], index_bits)


def decode(b):
    """Every block of a set expanded by the loop reference, concatenated."""
    out = []
    for i, extent in enumerate(b.extents.tolist()):
        lo, hi = b.offsets[i], b.offsets[i + 1]
        out += naive_rle_decode(
            b.values[lo:hi].tolist(), b.run_lengths[lo:hi].tolist(), extent
        )
    return out


class TestEncode:
    def test_basic(self):
        b = encode([1, 0, 0, 2])
        assert b.values.tolist() == [1, 2]
        assert b.run_lengths.tolist() == [0, 2]

    def test_all_zero_is_empty(self):
        b = encode([0] * 8)
        assert b.values.size == 0
        assert b.run_lengths.size == 0
        assert b.extents.tolist() == [8]

    def test_long_run_split_with_placeholder(self):
        # 20 zeros then 7: a zero placeholder absorbs the 16th zero
        b = encode([0] * 20 + [7], index_bits=4)
        assert b.values.tolist() == [0, 7]
        assert b.run_lengths.tolist() == [15, 4]
        assert decode(b) == [0] * 20 + [7]

    def test_two_placeholders(self):
        b = encode([0] * 40 + [3], index_bits=4)
        assert b.values.tolist() == [0, 0, 3]
        assert b.run_lengths.tolist() == [15, 15, 8]
        assert decode(b) == [0] * 40 + [3]

    def test_trailing_zeros_implicit(self):
        b = encode([0, 5] + [0] * 100)
        assert b.values.tolist() == [5]
        assert b.run_lengths.tolist() == [1]
        assert b.extents.tolist() == [102]

    def test_nnz_excludes_placeholders(self):
        b = encode([0] * 20 + [7])
        assert b.values.size == 2
        assert np.count_nonzero(b.values) == 1


class TestDecode:
    def test_basic(self):
        assert decode(encode([1, 0, 0, 2])) == [1, 0, 0, 2]

    def test_empty_block(self):
        assert decode(encode([0, 0, 0])) == [0, 0, 0]

    def test_entries_expose_coordinates(self):
        b = encode([0, 9, 0, 0, 4])
        assert b.values.tolist() == [9, 4]
        assert b.positions.tolist() == [1, 4]


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 1.0])
    def test_random_slices(self, seed, density):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        dense = np.where(
            rng.random(n) < density, rng.integers(-999, 1000, n), 0
        )
        b = encode(dense)
        assert decode(b) == dense.tolist()
        # stored non-placeholder count preserves the slice's non-zero count
        assert np.count_nonzero(b.values) == np.count_nonzero(dense)

    def test_bulk_random_slices(self):
        # volume pass: ten thousand slices incl. >15-zero runs, one encode
        rng = np.random.default_rng(1234)
        extents = rng.integers(1, 64, 10_000)
        dense = np.where(
            rng.random(extents.sum()) < 0.15, rng.integers(1, 100, extents.sum()), 0
        ).astype(np.int32)
        b = encode_blocks(dense, extents, 4)
        assert len(b) == extents.size
        assert decode(b) == dense.tolist()

    @given(st.lists(st.integers(-100, 100), min_size=0, max_size=80))
    @settings(max_examples=300)
    def test_property_round_trip(self, xs):
        b = encode(xs)
        assert decode(b) == list(xs)
        # the positions the simulator decodes from place every entry
        dense = np.zeros(len(xs), dtype=np.int64)
        dense[b.positions] = b.values
        assert dense.tolist() == list(xs)

    @given(st.integers(1, 64), st.integers(1, 6))
    def test_placeholders_only_for_long_runs(self, n_zeros, index_bits):
        b = encode([0] * n_zeros + [5], index_bits=index_bits)
        placeholders = int((b.values == 0).sum())
        assert placeholders == n_zeros // (1 << index_bits)


nonzero = st.one_of(
    st.sampled_from([ACCUM_MIN, ACCUM_MAX, -1, 1]),
    st.integers(ACCUM_MIN, ACCUM_MAX).filter(bool),
)


@st.composite
def dense_block(draw):
    """Zero runs of 0-40 (several placeholders at small index widths)
    between values, then trailing zeros; may be empty or all zero."""
    out = []
    for zeros, v in draw(st.lists(st.tuples(st.integers(0, 40), nonzero), max_size=6)):
        out += [0] * zeros + [v]
    return out + [0] * draw(st.integers(0, 40))


class TestEncodeBlocks:
    """The batch encoder against the per-value loop, block by block."""

    @given(st.lists(dense_block(), max_size=8), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_equals_loop_reference(self, blocks, index_bits):
        bs = encode_list(
            [v for b in blocks for v in b], [len(b) for b in blocks], index_bits
        )
        refs = [loop_rle_encode(b, index_bits) for b in blocks]
        assert len(bs) == len(blocks)
        assert bs.extents.tolist() == [len(b) for b in blocks]
        assert bs.values.tolist() == [v for vals, _ in refs for v in vals]
        assert bs.run_lengths.tolist() == [r for _, runs in refs for r in runs]
        assert np.diff(bs.offsets).tolist() == [len(vals) for vals, _ in refs]
        positions = []
        for _, runs in refs:
            pos = -1
            for r in runs:
                pos += r + 1
                positions.append(pos)
        assert bs.positions.tolist() == positions
        for b, (vals, runs) in zip(blocks, refs):
            assert naive_rle_decode(vals, runs, len(b)) == b

    @given(st.lists(dense_block(), max_size=8), st.integers(1, 4), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_pass_size_changes_nothing(self, blocks, index_bits, pass_size):
        # passes of a few values split the set at many block boundaries, and
        # blocks longer than a pass each take one of their own
        dense, extents = [v for b in blocks for v in b], [len(b) for b in blocks]
        one = encode_list(dense, extents, index_bits)
        with mock.patch.object(codec, "_PASS", pass_size):
            many = encode_list(dense, extents, index_bits)
        for name in ("values", "run_lengths", "offsets", "extents", "positions"):
            assert getattr(many, name).tolist() == getattr(one, name).tolist()

    @given(
        st.lists(
            st.one_of(
                dense_block(),
                # all-zero blocks, and long runs past 2**8 zeros
                st.integers(0, 600).map(lambda n: [0] * n),
                st.tuples(st.integers(256, 600), nonzero).map(lambda t: [0] * t[0] + [t[1]]),
            ),
            max_size=8,
        ),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([None, 3, 64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_pass_encoder(self, blocks, index_bits, pass_size):
        # block starts found among the non-zeros against per-value block ids:
        # zero extents, all-zero blocks, gaps of 2**index_bits and more, and
        # at small pass sizes blocks longer than a pass
        dense, extents = [v for b in blocks for v in b], [len(b) for b in blocks]
        with mock.patch.object(codec, "_PASS", pass_size or codec._PASS):
            got = encode_list(dense, extents, index_bits)
            ref = pass_encode_blocks(dense, extents, index_bits)
        for name in ("values", "run_lengths", "offsets", "extents", "positions"):
            assert getattr(got, name).tolist() == ref[name].tolist()

    def test_equals_pass_encoder_on_empty_input(self):
        for extents in ([], [0], [0, 0, 0]):
            got, ref = encode_list([], extents), pass_encode_blocks([], extents, 4)
            assert got.offsets.tolist() == ref["offsets"].tolist() == [0] * (len(extents) + 1)
            assert got.values.size == ref["values"].size == got.positions.size == 0

    def test_extents_must_cover_the_values(self):
        with pytest.raises(CodecError, match="partition"):
            encode_list([1, 0, 2], [2])
        with pytest.raises(CodecError, match="partition"):
            encode_list([1, 0, 2], [4, -1])

    def test_columns_are_exactly_sized(self):
        # long zero runs make the worst-case bound, a placeholder for every
        # 2**index_bits values, far exceed the entries stored
        dense = np.zeros(10_000, dtype=np.int32)
        dense[[5, 4_000, 9_999]] = [3, -2, 7]
        b = encode_blocks(dense, [2_000] * 5, 4)
        assert b.values.size < (dense.size >> 4)
        for column in (b.values, b.run_lengths, b.positions):
            assert column.base is None
            assert column.size == b.offsets[-1]
            assert column.nbytes == column.size * column.itemsize


class TestBlockSetRejects:
    """What `encode_blocks` refuses, and the widths of what it builds."""

    @pytest.mark.parametrize("index_bits", [0, -1, 63])
    def test_index_bits_outside_range(self, index_bits):
        # the encoder takes its width unchecked from `ArchConfig`, which
        # refuses any outside [1, 62]
        with pytest.raises(ConfigurationError, match="index_bits"):
            ArchConfig(index_bits=index_bits)

    def test_extents_summing_past_int64_do_not_wrap(self):
        with pytest.raises(CodecError, match="partition"):
            encode_list([], [(1 << 63) - 1, (1 << 63) - 1, 2])

    @pytest.mark.parametrize("value", [(1 << 32) + 1, -(1 << 32) + 7, 1 << 40])
    def test_values_past_int32_are_refused_not_wrapped(self, value):
        # each would wrap to a small int32: any dense dtype but int32 is refused
        with pytest.raises(CodecError, match="int64, not int32"):
            encode_blocks(np.array([0, value, 0]), [3], 4)
        for dense in ([0, 1, 0], np.array([0, 1, 0], dtype=np.int16), np.zeros(3)):
            with pytest.raises(CodecError, match="not int32"):
                encode_blocks(dense, [3], 4)

    @pytest.mark.parametrize(
        "index_bits,runs",
        [(1, np.uint8), (4, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
         (17, np.uint32), (32, np.uint32), (33, np.uint64), (62, np.uint64)],
    )
    def test_entries_are_held_at_their_stored_width(self, index_bits, runs):
        # an int32 value, the narrowest unsigned run that holds
        # 2**index_bits - 1 and an int32 position: 9 bytes an entry at 4 bits
        bs = encode_list([0, 5, 0, -3], [2, 2], index_bits)
        assert bs.values.dtype == np.int32
        assert bs.run_lengths.dtype == runs
        assert bs.positions.dtype == np.int32
        assert bs.offsets.dtype == bs.extents.dtype == np.int64
        entry = (bs.values, bs.run_lengths, bs.positions)
        assert sum(column.itemsize for column in entry) == 8 + np.dtype(runs).itemsize

    def test_extremes_accepted(self):
        bs = encode_list([ACCUM_MIN] + [0] * 15 + [ACCUM_MAX], [1, 16])
        assert bs.values.tolist() == [ACCUM_MIN, ACCUM_MAX]
        assert bs.run_lengths.tolist() == [0, 15]
        assert bs.positions.tolist() == [0, 15]


class TestIndexWidths:
    """Runs held as uint8 to uint64 and positions as int32 or int64 place
    every entry exactly; all index arithmetic on them runs in int64."""

    def test_runs_of_255_at_8_bits(self):
        # a uint8 run of 255 plus one wraps to 0 unless widened first
        dense = ([0] * 255 + [7]) * 3 + [0] * 256 + [9]
        b = encode(dense, index_bits=8)
        assert b.run_lengths.dtype == np.uint8
        assert b.run_lengths.tolist() == [255, 255, 255, 255, 0]
        assert b.values.tolist() == [7, 7, 7, 0, 9]
        assert b.positions.tolist() == [255, 511, 767, 1023, 1024]
        assert decode(b) == dense

    @pytest.mark.parametrize("index_bits", range(9, 63))
    def test_round_trip_at_every_wider_width(self, index_bits):
        # gaps around 2**9 and 2**10 make placeholders at the narrowest widths
        rng = np.random.default_rng(index_bits)
        dense = []
        for gap in (0, 1, 255, 256, 511, 512, 513, 1023, 1024, 2500):
            dense += [0] * gap + [int(rng.integers(1, 1000))]
        dense += [0] * 700
        b = encode(dense, index_bits)
        runs = np.uint16 if index_bits <= 16 else np.uint32 if index_bits <= 32 else np.uint64
        assert b.run_lengths.dtype == runs
        assert decode(b) == dense
        placed = np.zeros(len(dense), dtype=np.int64)
        placed[b.positions] = b.values
        assert placed.tolist() == dense

    def test_an_extent_past_2_31_keeps_int64_positions(self):
        # no dense array of 2**31 values is built: the threshold is lowered
        # to 16, so an extent of 16 stores its positions as int64, and one
        # of 15 keeps them int32
        dense = [0, 0, 4, 0, 0, 0, 6] + [0] * 8 + [8]
        with mock.patch.object(codec, "_WIDE", 16):
            bs = encode_list(dense, [3, 13], index_bits=2)
            wide = encode_list(dense, [16], index_bits=2)
            below = encode_list(dense[:15], [15], index_bits=2)
        assert bs.positions.dtype == below.positions.dtype == np.int32
        assert bs.positions.tolist() == [2, 3, 7, 11, 12]
        assert wide.positions.dtype == np.int64
        assert wide.positions.tolist() == [2, 6, 10, 14, 15]
        assert wide.values.tolist() == [4, 6, 0, 0, 8]
        assert below.positions.tolist() == [2, 6]
