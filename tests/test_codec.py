import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_rle_encode, naive_rle_decode, pass_encode_blocks
from scnnsim import codec
from scnnsim.codec import BlockSet, CodecError, encode_blocks
from scnnsim.tensors import ACCUM_MAX, ACCUM_MIN


def encode(dense, index_bits=4):
    """One dense slice as a one-block set."""
    return encode_blocks(dense, [len(dense)], index_bits)


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
        assert decode(BlockSet([1, 2], [0, 2], [0, 2], [4])) == [1, 0, 0, 2]

    def test_empty_block(self):
        assert decode(BlockSet([], [], [0, 0], [3])) == [0, 0, 0]

    def test_entries_expose_coordinates(self):
        b = encode([0, 9, 0, 0, 4])
        assert b.values.tolist() == [9, 4]
        assert b.positions.tolist() == [1, 4]

    def test_overlong_block_rejected(self):
        with pytest.raises(CodecError):
            BlockSet([1, 1], [3, 3], [0, 2], [4])

    def test_run_length_over_width_rejected(self):
        with pytest.raises(CodecError):
            BlockSet([1], [16], [0, 1], [20], index_bits=4)


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
        )
        b = encode_blocks(dense, extents)
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
        bs = encode_blocks(
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
        one = encode_blocks(dense, extents, index_bits)
        with mock.patch.object(codec, "_PASS", pass_size):
            many = encode_blocks(dense, extents, index_bits)
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
            got = encode_blocks(dense, extents, index_bits)
            ref = pass_encode_blocks(dense, extents, index_bits)
        for name in ("values", "run_lengths", "offsets", "extents", "positions"):
            assert getattr(got, name).tolist() == getattr(ref, name).tolist()

    def test_equals_pass_encoder_on_empty_input(self):
        for extents in ([], [0], [0, 0, 0]):
            got, ref = encode_blocks([], extents), pass_encode_blocks([], extents, 4)
            assert got.offsets.tolist() == ref.offsets.tolist() == [0] * (len(extents) + 1)
            assert got.values.size == ref.values.size == 0

    def test_extents_must_cover_the_values(self):
        with pytest.raises(CodecError, match="partition"):
            encode_blocks([1, 0, 2], [2])
        with pytest.raises(CodecError, match="partition"):
            encode_blocks([1, 0, 2], [4, -1])


class TestBlockSetRejects:
    """One case per condition the container checks."""

    @pytest.mark.parametrize("index_bits", [0, -1, 63])
    def test_index_bits_outside_range(self, index_bits):
        with pytest.raises(CodecError, match="index_bits"):
            BlockSet([], [], [0], [], index_bits=index_bits)
        with pytest.raises(CodecError, match="index_bits"):
            encode_blocks([1], [1], index_bits=index_bits)

    def test_values_and_runs_differ_in_length(self):
        with pytest.raises(CodecError, match="differ in length"):
            BlockSet([1, 2], [0], [0, 2], [4])

    def test_offsets_do_not_partition_the_stream(self):
        cases = [
            ([0, 1], [4]),              # last offset short of the stream
            ([1, 2], [4]),              # first offset not 0
            ([0, 2, 1, 2], [4, 4, 4]),  # decreasing
            ([0, 2], [4, 4]),           # one offset too few for the extents
        ]
        for offsets, extents in cases:
            with pytest.raises(CodecError, match="offsets"):
                BlockSet([1, 2], [0, 0], offsets, extents)

    @pytest.mark.parametrize("run", [-1, 16])
    def test_run_outside_index_width(self, run):
        with pytest.raises(CodecError, match="run length"):
            BlockSet([5, 1], [0, run], [0, 1, 2], [20, 20], index_bits=4)

    @pytest.mark.parametrize(
        "value,message",
        [
            (ACCUM_MIN - 1, "24-bit accumulator range"),
            (ACCUM_MAX + 1, "24-bit accumulator range"),
            (1 << 70, "64-bit range"),
        ],
    )
    def test_value_outside_accumulator_range(self, value, message):
        with pytest.raises(CodecError, match=message):
            BlockSet([1, value], [0, 0], [0, 1, 2], [1, 1])

    def test_block_expands_past_its_extent(self):
        # the stream fits the total extent 7; block 1 alone needs 3 of its 2
        with pytest.raises(CodecError, match="logical extent 2"):
            BlockSet([1, 1], [0, 2], [0, 1, 2], [5, 2])

    def test_block_past_its_extent_in_a_later_pass(self):
        # one block per pass: the third pass finds block 2 overflowing
        with mock.patch.object(codec, "_PASS", 1):
            with pytest.raises(CodecError, match="logical extent 2"):
                BlockSet([1, 1, 1], [0, 4, 2], [0, 1, 2, 3], [5, 5, 2])

    def test_run_sum_past_int64_does_not_wrap_into_the_extent(self):
        # two runs of 2**62 - 1 sum to 2**63, which wraps negative in int64
        runs = [(1 << 62) - 1] * 2
        with pytest.raises(CodecError, match="logical extent 5"):
            BlockSet([1, 1], runs, [0, 2], [5], index_bits=62)
        # the third entry's position, 2**63 + 4, wraps negative
        with pytest.raises(CodecError, match="logical extent"):
            BlockSet(
                [1] * 3, [(1 << 62) - 1, (1 << 62) - 2, 5], [0, 3], [(1 << 63) - 1],
                index_bits=62,
            )
        # blocks that fit their extents stay valid when the stream total wraps
        bs = BlockSet([1] * 4, runs * 2, [0, 1, 2, 3, 4], [1 << 62] * 4, index_bits=62)
        assert bs.positions.tolist() == [(1 << 62) - 1] * 4

    def test_extents_summing_past_int64_do_not_wrap(self):
        with pytest.raises(CodecError, match="partition"):
            encode_blocks([], [(1 << 63) - 1, (1 << 63) - 1, 2])

    @pytest.mark.parametrize("value", [(1 << 32) + 1, -(1 << 32) + 7, 1 << 40])
    def test_values_past_int32_are_refused_not_wrapped(self, value):
        # each wraps to a small int32; the 24-bit check must see it first
        with pytest.raises(CodecError, match=f"value {value} outside 24-bit"):
            BlockSet([1, value], [0, 0], [0, 1, 2], [1, 1])
        with pytest.raises(CodecError, match=f"value {value} outside 24-bit"):
            encode_blocks([0, value, 0], [3])

    @pytest.mark.parametrize(
        "index_bits,runs",
        [(1, np.uint8), (4, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
         (17, np.uint32), (32, np.uint32), (33, np.uint64), (62, np.uint64)],
    )
    def test_entries_are_held_at_their_stored_width(self, index_bits, runs):
        # an int32 value, the narrowest unsigned run that holds
        # 2**index_bits - 1 and an int32 position: 9 bytes an entry at 4 bits
        for bs in (
            BlockSet([ACCUM_MIN, ACCUM_MAX], [0, 1], [0, 1, 2], [1, 16], index_bits),
            BlockSet([7], np.array([1], dtype=runs), [0, 1], [2], index_bits),
            encode_blocks(np.array([0, 5, 0, -3], dtype=np.int32), [2, 2], index_bits),
            encode_blocks([0, 5, 0, -3], [2, 2], index_bits),
        ):
            assert bs.values.dtype == np.int32
            assert bs.run_lengths.dtype == runs
            assert bs.positions.dtype == np.int32
            assert bs.offsets.dtype == bs.extents.dtype == np.int64
        entry = (bs.values, bs.run_lengths, bs.positions)
        assert sum(column.itemsize for column in entry) == 8 + np.dtype(runs).itemsize

    def test_runs_of_another_width_are_checked_then_narrowed(self):
        # a uint8 run past the 4-bit width, and an int64 one that uint8 would wrap
        for run in (np.array([16], dtype=np.uint8), np.array([256 + 3], dtype=np.int64)):
            with pytest.raises(CodecError, match="run length"):
                BlockSet([1], run, [0, 1], [300], index_bits=4)
        bs = BlockSet([1], np.array([3], dtype=np.uint16), [0, 1], [4], index_bits=4)
        assert bs.run_lengths.dtype == np.uint8 and bs.positions.tolist() == [3]

    def test_extremes_accepted(self):
        bs = BlockSet([ACCUM_MIN, ACCUM_MAX], [0, 15], [0, 1, 2], [1, 16])
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
        # the longest run the width holds, and the entry just after it
        top = (1 << index_bits) - 1
        bs = BlockSet([3, 5], [top, 0], [0, 2], [top + 2], index_bits)
        assert bs.run_lengths.dtype == runs
        assert bs.positions.tolist() == [top, top + 1]
        assert bs.positions.dtype == (np.int32 if top + 2 < 1 << 31 else np.int64)

    def test_an_extent_past_2_31_keeps_int64_positions(self):
        # built from offsets and extents: no dense array of that size exists
        big = 1 << 31
        bs = BlockSet([4, 6, 8], [2, big - 1, 5], [0, 1, 3], [3, big + 6], index_bits=31)
        assert bs.positions.dtype == np.int64
        assert bs.positions.tolist() == [2, big - 1, big + 5]
        below = BlockSet([6], [big - 2], [0, 1], [big - 1], index_bits=31)
        assert below.positions.dtype == np.int32
        assert below.positions.tolist() == [big - 2]
        with pytest.raises(CodecError, match=f"logical extent {big}"):
            BlockSet([6], [big], [0, 1], [big], index_bits=32)
