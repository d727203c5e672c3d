import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_rle_encode, naive_rle_decode
from scnnsim.analytic import FootprintModel
from scnnsim.codec import (
    BlockSet,
    CodecError,
    CompressedBlock,
    decode_block,
    encode_block,
    encode_blocks,
    footprint,
)
from scnnsim.tensors import ACCUM_MAX, ACCUM_MIN


class TestEncode:
    def test_basic(self):
        b = encode_block([1, 0, 0, 2])
        assert b.values == (1, 2)
        assert b.run_lengths == (0, 2)

    def test_all_zero_is_empty(self):
        b = encode_block([0] * 8)
        assert b.values == ()
        assert b.run_lengths == ()
        assert b.logical_extent == 8

    def test_long_run_split_with_placeholder(self):
        # 20 zeros then 7: a zero placeholder absorbs the 16th zero
        b = encode_block([0] * 20 + [7], index_bits=4)
        assert b.values == (0, 7)
        assert b.run_lengths == (15, 4)
        assert decode_block(b).tolist() == [0] * 20 + [7]

    def test_two_placeholders(self):
        b = encode_block([0] * 40 + [3], index_bits=4)
        assert b.values == (0, 0, 3)
        assert b.run_lengths == (15, 15, 8)
        assert decode_block(b).tolist() == [0] * 40 + [3]

    def test_trailing_zeros_implicit(self):
        b = encode_block([0, 5] + [0] * 100)
        assert b.values == (5,)
        assert b.run_lengths == (1,)
        assert b.logical_extent == 102

    def test_nnz_excludes_placeholders(self):
        b = encode_block([0] * 20 + [7])
        assert b.stored_count == 2
        assert b.nnz() == 1


class TestDecode:
    def test_basic(self):
        b = CompressedBlock((1, 2), (0, 2), 4)
        assert decode_block(b).tolist() == [1, 0, 0, 2]

    def test_empty_block(self):
        assert decode_block(CompressedBlock((), (), 3)).tolist() == [0, 0, 0]

    def test_entries_expose_coordinates(self):
        b = encode_block([0, 9, 0, 0, 4])
        assert b.values == (9, 4)
        assert b.positions().tolist() == [1, 4]

    def test_overlong_block_rejected(self):
        with pytest.raises(CodecError):
            decode_block(CompressedBlock((1, 1), (3, 3), 4))

    def test_run_length_over_width_rejected(self):
        with pytest.raises(CodecError):
            CompressedBlock((1,), (16,), 20, index_bits=4)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 1.0])
    def test_random_slices(self, seed, density):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        dense = np.where(
            rng.random(n) < density, rng.integers(-999, 1000, n), 0
        )
        b = encode_block(dense)
        assert decode_block(b).tolist() == dense.tolist()
        # stored non-placeholder count preserves the slice's non-zero count
        assert b.nnz() == int(np.count_nonzero(dense))

    def test_bulk_random_slices(self):
        # volume pass: ten thousand slices incl. >15-zero runs
        rng = np.random.default_rng(1234)
        for _ in range(10_000):
            n = int(rng.integers(1, 64))
            dense = np.where(rng.random(n) < 0.15, rng.integers(1, 100, n), 0)
            b = encode_block(dense)
            assert decode_block(b).tolist() == dense.tolist()

    @given(st.lists(st.integers(-100, 100), min_size=0, max_size=80))
    @settings(max_examples=300)
    def test_property_round_trip(self, xs):
        b = encode_block(xs)
        assert decode_block(b).tolist() == list(xs)
        assert decode_block(b).tolist() == naive_rle_decode(
            b.values, b.run_lengths, b.logical_extent
        )

    @given(st.integers(1, 64), st.integers(1, 6))
    def test_placeholders_only_for_long_runs(self, n_zeros, index_bits):
        dense = [0] * n_zeros + [5]
        b = encode_block(dense, index_bits=index_bits)
        placeholders = sum(1 for v in b.values if v == 0)
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
        for i, (b, (vals, runs)) in enumerate(zip(blocks, refs)):
            block = bs.block(i)
            assert block == CompressedBlock(
                tuple(vals), tuple(runs), len(b), index_bits
            )
            assert naive_rle_decode(vals, runs, len(b)) == b

    @given(dense_block(), st.integers(1, 4))
    def test_encode_block_is_the_one_block_case(self, dense, index_bits):
        vals, runs = loop_rle_encode(dense, index_bits)
        b = encode_block(dense, index_bits)
        assert b == CompressedBlock(tuple(vals), tuple(runs), len(dense), index_bits)
        assert all(type(v) is int for v in b.values + b.run_lengths)

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
        with pytest.raises(CodecError, match=message):
            CompressedBlock((1, value), (0, 0), 2)

    def test_block_expands_past_its_extent(self):
        # the stream fits the total extent 7; block 1 alone needs 3 of its 2
        with pytest.raises(CodecError, match="logical extent 2"):
            BlockSet([1, 1], [0, 2], [0, 1, 2], [5, 2])

    def test_run_sum_past_int64_does_not_wrap_into_the_extent(self):
        # two runs of 2**62 - 1 sum to 2**63, which wraps negative in int64
        runs = [(1 << 62) - 1] * 2
        with pytest.raises(CodecError, match="logical extent 5"):
            BlockSet([1, 1], runs, [0, 2], [5], index_bits=62)
        with pytest.raises(CodecError, match="logical extent 5"):
            CompressedBlock((1, 1), tuple(runs), 5, index_bits=62)
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

    def test_extremes_accepted(self):
        bs = BlockSet([ACCUM_MIN, ACCUM_MAX], [0, 15], [0, 1, 2], [1, 16])
        assert bs.positions.tolist() == [0, 15]


class TestFootprint:
    def test_single_value_default_model(self):
        b = encode_block([0, 0, 42])
        fp = footprint(b)
        assert fp.data_bits == 16
        assert fp.index_bits == 10
        assert fp.total_bits == 26

    def test_empty_block_zero_bits(self):
        assert footprint(encode_block([0, 0, 0])).total_bits == 0

    def test_index_to_data_ratio(self):
        # the shipped overhead model stores 10 index bits per 16 data bits
        rng = np.random.default_rng(0)
        blocks = [
            encode_block(np.where(rng.random(64) < 0.4, rng.integers(1, 50, 64), 0))
            for _ in range(32)
        ]
        fp = footprint(blocks)
        assert fp.data_bits > 0
        assert fp.index_bits / fp.data_bits == pytest.approx(10 / 16)

    def test_monotone_in_nonzero_count(self):
        dense = np.zeros(64, dtype=int)
        last = 0
        for i in range(0, 64, 8):
            dense[i] = 7
            fp = footprint(encode_block(dense)).total_bits
            assert fp >= last
            last = fp

    def test_custom_model(self):
        fp = footprint(encode_block([1, 2, 3]), FootprintModel(16, 4))
        assert (fp.data_bits, fp.index_bits) == (48, 12)
