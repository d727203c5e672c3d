import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import argsort_prune, einsum_conv, naive_conv, naive_max_pool
from scnnsim.analytic import PoolSpec
from scnnsim.dataflow import LayerShape, ShapeError
from scnnsim.tensors import (
    ACCUM_MAX,
    ACCUM_MIN,
    DenseTensor,
    FixedPointOverflow,
    VALUE_MAX,
    VALUE_MIN,
    apply_relu,
    gen_synthetic,
    prune_magnitude,
    reference_conv,
    reference_pool,
)


class TestDenseTensor:
    def test_values_are_one_read_only_int32_copy(self):
        src = np.arange(6, dtype=np.int64).reshape(1, 2, 3)
        x = DenseTensor(src)
        assert x.values.dtype == np.int32
        assert not x.values.flags.writeable
        src[0, 0, 0] = 9
        assert x.values[0, 0, 0] == 0
        y = DenseTensor(x.values)
        assert y.values is not x.values

    @pytest.mark.parametrize(
        "value", [1 << 40, -(1 << 40), (1 << 31), -(1 << 31) - 1, (1 << 32) + 5]
    )
    def test_values_outside_int32_are_refused_not_wrapped(self, value):
        with pytest.raises(FixedPointOverflow, match=str(value)):
            DenseTensor(np.array([[[0, value]]]))
        with pytest.raises(FixedPointOverflow, match=str(value)):
            DenseTensor([[[value]]])

    def test_int32_extremes_accepted(self):
        x = DenseTensor([[[-(1 << 31), (1 << 31) - 1]]])
        assert x.values.tolist() == [[[-(1 << 31), (1 << 31) - 1]]]


class TestLayerShape:
    def test_output_extent(self):
        layer = LayerShape("l", C=2, K=2, W=4, H=4, R=3, S=3, pad=1)
        assert (layer.Wo, layer.Ho) == (4, 4)

    def test_strided_extent(self):
        layer = LayerShape("l", C=3, K=96, W=227, H=227, R=11, S=11, stride=4)
        assert (layer.Wo, layer.Ho) == (55, 55)

    def test_non_integer_output_rejected(self):
        with pytest.raises(ShapeError):
            LayerShape("l", C=1, K=1, W=5, H=5, R=2, S=2, stride=2)

    def test_groups_must_divide(self):
        with pytest.raises(ShapeError):
            LayerShape("l", C=3, K=4, W=4, H=4, R=1, S=1, groups=2)

    def test_grouped_dense_multiplies(self):
        layer = LayerShape("conv2", C=96, K=256, W=27, H=27, R=5, S=5, pad=2, groups=2)
        assert layer.dense_multiplies() == 27 * 27 * 256 * 48 * 25


class TestReferenceConv:
    def test_degenerate_1x1(self):
        layer = LayerShape("one", C=1, K=1, W=1, H=1, R=1, S=1)
        out = reference_conv(layer, DenseTensor([[[[3]]]]), DenseTensor([[[7]]]))
        assert out.values.tolist() == [[[21]]]

    def test_all_zero_weights_annihilate(self):
        layer = LayerShape("z", C=2, K=2, W=3, H=3, R=3, S=3, pad=1)
        rng = np.random.default_rng(0)
        acts = DenseTensor(rng.integers(-9, 9, (2, 3, 3)))
        w = DenseTensor(np.zeros((2, 2, 3, 3), dtype=int))
        assert not reference_conv(layer, w, acts).values.any()

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_triple_loop(self, seed):
        layer = LayerShape("rand", C=2, K=2, W=4, H=4, R=3, S=3, pad=1)
        rng = np.random.default_rng(seed)
        w = rng.integers(-9, 10, layer.weight_shape())
        a = rng.integers(-9, 10, layer.input_shape())
        expect = naive_conv(layer, w.tolist(), a.tolist())
        got = reference_conv(layer, DenseTensor(w), DenseTensor(a))
        assert got.values.tolist() == expect

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(C=4, K=4, W=5, H=7, R=3, S=1, pad=0),
            dict(C=4, K=6, W=8, H=8, R=5, S=5, pad=2),
            dict(C=4, K=4, W=9, H=9, R=3, S=3, pad=1, stride=2),
            dict(C=4, K=4, W=6, H=6, R=3, S=3, pad=0, groups=2),
            dict(C=6, K=9, W=5, H=5, R=3, S=3, pad=2, stride=3, groups=3),
        ],
    )
    def test_matches_naive_across_shapes(self, kwargs):
        layer = LayerShape("shape", **kwargs)
        rng = np.random.default_rng(hash(str(kwargs)) % 2**32)
        w = rng.integers(-20, 21, layer.weight_shape())
        a = rng.integers(-20, 21, layer.input_shape())
        expect = naive_conv(layer, w.tolist(), a.tolist())
        got = reference_conv(layer, DenseTensor(w), DenseTensor(a))
        assert got.values.tolist() == expect

    def test_linear_in_activations(self):
        layer = LayerShape("lin", C=2, K=3, W=4, H=4, R=3, S=3, pad=1)
        rng = np.random.default_rng(42)
        w = DenseTensor(rng.integers(-9, 10, layer.weight_shape()))
        a = rng.integers(-9, 10, layer.input_shape())
        b = rng.integers(-9, 10, layer.input_shape())
        lhs = reference_conv(layer, w, DenseTensor(a + b)).values
        rhs = (
            reference_conv(layer, w, DenseTensor(a)).values
            + reference_conv(layer, w, DenseTensor(b)).values
        )
        assert (lhs == rhs).all()

    def test_dimension_mismatch(self):
        layer = LayerShape("mm", C=2, K=2, W=4, H=4, R=3, S=3, pad=1)
        w = DenseTensor(np.zeros((2, 2, 3, 3), dtype=int))
        bad = DenseTensor(np.zeros((3, 4, 4), dtype=int))
        with pytest.raises(ShapeError):
            reference_conv(layer, w, bad)

    def test_accumulator_overflow_reported(self):
        layer = LayerShape("ovf", C=64, K=1, W=3, H=3, R=3, S=3, pad=1)
        w = DenseTensor(np.full(layer.weight_shape(), 181, dtype=int))
        a = DenseTensor(np.full(layer.input_shape(), 181, dtype=int))
        with pytest.raises(FixedPointOverflow):
            reference_conv(layer, w, a)

    def test_operand_overflow_reported(self):
        layer = LayerShape("op", C=1, K=1, W=1, H=1, R=1, S=1)
        w = DenseTensor([[[[1 << 16]]]])
        with pytest.raises(FixedPointOverflow):
            reference_conv(layer, w, DenseTensor([[[1]]]))


def _operand(rng, shape, bits, extreme):
    """Signed values below 2**bits in magnitude, a share `extreme` of them
    replaced by the 16-bit extremes, and about a third zero."""
    vals = rng.integers(-(1 << bits), 1 << bits, size=shape)
    ext = rng.random(shape) < extreme
    vals[ext] = rng.choice([VALUE_MIN, VALUE_MAX], size=int(ext.sum()))
    return np.clip(vals, VALUE_MIN, VALUE_MAX) * (rng.random(shape) < 0.7)


@st.composite
def conv_cases(draw):
    stride, pad = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    R, S = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    groups = draw(st.integers(1, 3))
    C, K = groups * draw(st.integers(1, 3)), groups * draw(st.integers(1, 3))
    # W = R - 2*pad + stride*n keeps the output size integral
    W = R - 2 * pad + stride * draw(st.integers(0, 4))
    H = S - 2 * pad + stride * draw(st.integers(0, 4))
    W += stride * max(0, -(-(1 - W) // stride))
    H += stride * max(0, -(-(1 - H) // stride))
    layer = LayerShape("p", C=C, K=K, W=W, H=H, R=R, S=S, stride=stride, pad=pad, groups=groups)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extreme = draw(st.sampled_from([0.0, 0.05, 0.5]))
    w = _operand(rng, layer.weight_shape(), draw(st.integers(0, 15)), extreme)
    a = _operand(rng, layer.input_shape(), draw(st.integers(0, 15)), extreme)
    return layer, w, a


class TestReferenceConvAgainstEinsum:
    """The float64 matmul oracle against the int64 einsum it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(conv_cases())
    def test_equals_einsum(self, case):
        layer, w, a = case
        expect = einsum_conv(layer, w, a)
        if expect.min() < ACCUM_MIN or expect.max() > ACCUM_MAX:
            with pytest.raises(FixedPointOverflow):
                reference_conv(layer, DenseTensor(w), DenseTensor(a))
        else:
            got = reference_conv(layer, DenseTensor(w), DenseTensor(a))
            assert got.values.dtype == np.int32
            assert np.array_equal(got.values, expect)

    def test_partial_sums_past_24_bits(self):
        layer = LayerShape("wide", C=2, K=2, W=1, H=1, R=1, S=1)
        # filter 0 sums to 2 * 32767**2 > 2**24; filter 1's two products
        # of that size cancel to zero
        w = np.array([[VALUE_MAX, VALUE_MAX], [VALUE_MAX, -VALUE_MAX]]).reshape(2, 2, 1, 1)
        a = np.full((2, 1, 1), VALUE_MAX)
        with pytest.raises(FixedPointOverflow):
            reference_conv(layer, DenseTensor(w), DenseTensor(a))
        w[0] = 0
        got = reference_conv(layer, DenseTensor(w), DenseTensor(a))
        assert got.values.reshape(-1).tolist() == [0, 0]

    def test_wide_channel_sum_near_the_float64_bound(self):
        # 2**21 products of 2**30 each: the first half climbs to 2**50, the
        # second half cancels it, and one product of the two -32768 extremes
        # leaves 2**30 - 32767**2 = 65535
        n = 1 << 21
        layer = LayerShape("deep", C=n, K=1, W=1, H=1, R=1, S=1)
        w = np.full(n, VALUE_MAX)
        w[n // 2 :] = -VALUE_MAX
        a = np.full(n, VALUE_MAX)
        w[0] = a[0] = VALUE_MIN
        w, a = w.reshape(1, n, 1, 1), a.reshape(n, 1, 1)
        got = reference_conv(layer, DenseTensor(w), DenseTensor(a))
        assert got.values.reshape(-1).tolist() == [65535]
        assert einsum_conv(layer, w, a).reshape(-1).tolist() == [65535]

    def test_channels_past_the_float64_bound_rejected(self):
        # channels_per_group * 2**30 must stay below 2**53
        n = 1 << 23
        layer = LayerShape("too-deep", C=n, K=1, W=1, H=1, R=1, S=1)
        w = DenseTensor(np.zeros((1, n, 1, 1), dtype=np.int64))
        a = DenseTensor(np.zeros((n, 1, 1), dtype=np.int64))
        with pytest.raises(ShapeError, match="exact float64"):
            reference_conv(layer, w, a)


class TestRelu:
    def test_definition(self):
        assert apply_relu(DenseTensor([-3, 0, 5])).values.tolist() == [0, 0, 5]

    def test_all_negative_gives_zero_density(self):
        out = apply_relu(DenseTensor([[-1, -2], [-3, -4]]))
        assert not out.values.any()
        assert out.density() == 0.0

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=64))
    def test_idempotent(self, xs):
        once = apply_relu(DenseTensor(xs))
        twice = apply_relu(once)
        assert once.values.tolist() == twice.values.tolist()

    def test_symmetric_distribution_halves_density(self):
        rng = np.random.default_rng(7)
        vals = rng.integers(1, 1000, 20000) * rng.choice([-1, 1], 20000)
        out = apply_relu(DenseTensor(vals))
        assert abs(out.density() - 0.5) < 0.02


@settings(max_examples=300, deadline=None)
@given(
    window=st.integers(1, 5),
    stride=st.integers(1, 5),
    k=st.integers(1, 3),
    w=st.integers(1, 13),
    h=st.integers(1, 13),
    seed=st.integers(0, 2**32 - 1),
)
def test_reference_pool_equals_loop_reference(window, stride, k, w, h, seed):
    # spans shorter than the window and windows shorter than the stride
    # included; negative values check that no cut window reads past its edge
    plane = np.random.default_rng(seed).integers(-(1 << 23), 1 << 23, size=(k, w, h))
    got = reference_pool(DenseTensor(plane), PoolSpec(window, stride))
    assert got.values.tolist() == naive_max_pool(plane.tolist(), window, stride)


class TestPrune:
    def test_top_two_survive(self):
        out = prune_magnitude(DenseTensor([5, -1, 3, 2]), 0.5)
        assert out.values.tolist() == [5, 0, 3, 0]

    def test_density_one_is_identity(self):
        x = DenseTensor([4, -4, 0, 9])
        assert prune_magnitude(x, 1.0).values.tolist() == x.values.tolist()

    def test_exact_resulting_density(self):
        rng = np.random.default_rng(3)
        x = DenseTensor(rng.choice([-1, 1], 1000) * rng.integers(1, 500, 1000))
        out = prune_magnitude(x, 0.3)
        assert out.nnz() == 300
        assert out.density() == pytest.approx(0.3)

    def test_least_int32_ranks_as_largest(self):
        # |-2**31| wraps in int32; the magnitude must not
        out = prune_magnitude(DenseTensor([1, -(1 << 31), 3, 2]), 0.25)
        assert out.values.tolist() == [0, -(1 << 31), 0, 0]

    def test_tie_break_by_lowest_index(self):
        out = prune_magnitude(DenseTensor([2, -2, 2, 1]), 0.5)
        assert out.values.tolist() == [2, -2, 0, 0]

    @given(
        st.lists(st.integers(-99, 99), min_size=1, max_size=40),
        st.floats(0.05, 1.0),
    )
    def test_hadamard_mask(self, xs, d):
        x = DenseTensor(xs)
        out = prune_magnitude(x, d)
        kept = out.values != 0
        assert (out.values[kept] == x.values[kept]).all()

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            prune_magnitude(DenseTensor(np.zeros((0,), dtype=int)), 0.5)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([-9, -4, -1, 0, 1, 4, 9]), min_size=1, max_size=120),
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([(-1,), (2, -1), (1, 2, 1, -1)]),
    )
    def test_equals_stable_argsort_with_ties(self, xs, d, shape):
        # a few magnitudes of both signs, so the threshold is nearly always tied
        x = np.array(xs)
        if len(xs) % 2:
            shape = (-1,)
        got = prune_magnitude(DenseTensor(x.reshape(shape)), d)
        assert got.values.tolist() == argsort_prune(x.reshape(shape), d).tolist()


def int64_draws(shape, density, seed, lo, hi, signed):
    """gen_synthetic's construction with int64 draws, as it was first written."""
    n = math.prod(shape)
    rng = np.random.default_rng(seed)
    positions = rng.permutation(n)
    mags = rng.integers(lo, hi + 1, size=n, dtype=np.int64)
    if signed:
        mags *= rng.integers(0, 2, size=n, dtype=np.int64) * 2 - 1
    flat = np.zeros(n, dtype=np.int64)
    flat[positions[: math.ceil(density * n)]] = mags[: math.ceil(density * n)]
    return flat.reshape(shape)


class TestSynthetic:
    # signed weights and unsigned activations in [1, 31], and the default range
    @pytest.mark.parametrize(
        "lo,hi,signed", [(1, 31, True), (1, 31, False), (1, 99, True), (1, 99, False)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 51, 2**31 + 3])
    @pytest.mark.parametrize(
        "shape,density", [((1,), 1.0), ((7,), 0.5), ((3, 5, 5), 0.3), ((4, 3, 3, 3), 1.0)]
    )
    def test_int32_draws_equal_the_int64_stream(self, lo, hi, signed, seed, shape, density):
        got = gen_synthetic(shape, density, seed, lo=lo, hi=hi, signed=signed)
        assert got.values.dtype == np.int32
        assert np.array_equal(got.values, int64_draws(shape, density, seed, lo, hi, signed))

    def test_density_zero_all_zero(self):
        assert gen_synthetic((4, 5), 0.0, seed=1).nnz() == 0

    def test_density_one_no_zeros(self):
        assert gen_synthetic((4, 5), 1.0, seed=1).nnz() == 20

    def test_deterministic(self):
        a = gen_synthetic((3, 8, 8), 0.4, seed=9)
        b = gen_synthetic((3, 8, 8), 0.4, seed=9)
        assert (a.values == b.values).all()

    @pytest.mark.parametrize("d", [0.1, 0.25, 0.5, 0.9])
    def test_exact_density(self, d):
        x = gen_synthetic((10, 10), d, seed=2)
        assert x.nnz() == int(np.ceil(d * 100))

    def test_lower_density_positions_nested(self):
        hi = gen_synthetic((6, 6), 0.8, seed=5)
        lo = gen_synthetic((6, 6), 0.3, seed=5)
        hi_pos = set(zip(*np.nonzero(hi.values)))
        lo_pos = set(zip(*np.nonzero(lo.values)))
        assert lo_pos <= hi_pos
        for p in lo_pos:
            assert lo.values[p] == hi.values[p]

    def test_unsigned_mode(self):
        x = gen_synthetic((50,), 1.0, seed=4, signed=False)
        assert (x.values > 0).all()

