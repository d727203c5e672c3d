from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    count_cartesian_products,
    loop_gated_mults,
    loop_rle_encode,
    naive_max_pool,
    naive_rle_decode,
    per_pe_tiles_encoded,
)
from scnnsim.analytic import (
    VARIANT_DCNN,
    VARIANT_DCNN_OPT,
    ArchConfig,
    Footprint,
    FootprintModel,
    PoolSpec,
    dcnn_arch,
)
from scnnsim import codec, simulator
from scnnsim.codec import encode_blocks
from scnnsim.dataflow import ConfigurationError, LayerShape, choose_kc, partition_tiles
from scnnsim.simulator import (
    WeightStream,
    _gated_mults,
    _slots,
    compress_weights,
    distribute_activations,
    max_pool,
    ppu_finalize,
    prepare_scnn_inputs,
    simulate_dcnn_layer,
    simulate_scnn_layer,
)
from scnnsim.tensors import (
    ACT_ROLES,
    WEIGHT_ROLES,
    DenseTensor,
    apply_relu,
    gen_synthetic,
    prune_magnitude,
    reference_conv,
)


def small_arch(**kw):
    base = dict(pe_rows=2, pe_cols=2, accum_banks=32, bank_entries=64)
    base.update(kw)
    return ArchConfig(**base)


def run_scnn(arch, layer, wd=0.5, ad=0.5, seed=0, pool=None):
    w = prune_magnitude(gen_synthetic(layer.weight_shape(), 1.0, seed=seed), wd) \
        if wd < 1.0 else gen_synthetic(layer.weight_shape(), 1.0, seed=seed)
    a = gen_synthetic(layer.input_shape(), ad, seed=seed + 1, signed=False)
    stream, tiles = prepare_scnn_inputs(arch, layer, w, a)
    out, report = simulate_scnn_layer(arch, layer, stream, tiles, pool=pool)
    return w, a, out, report


def block_values(blocks, b):
    """Block b of a set, expanded by the loop reference."""
    lo, hi = blocks.offsets[b], blocks.offsets[b + 1]
    return naive_rle_decode(
        blocks.values[lo:hi].tolist(), blocks.run_lengths[lo:hi].tolist(),
        int(blocks.extents[b]),
    )


def expected_output(layer, w, a, pool=None):
    ref = apply_relu(reference_conv(layer, w, a))
    if pool is None:
        return ref.values
    return max_pool(ref.values, pool)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize(
        "kw,grid,wd,ad",
        [
            (dict(C=2, K=8, W=8, H=8, R=3, S=3, pad=1), (2, 2), 0.5, 0.5),
            (dict(C=3, K=5, W=9, H=7, R=3, S=3, pad=0), (2, 3), 0.4, 0.6),
            (dict(C=2, K=4, W=6, H=6, R=5, S=5, pad=2), (3, 3), 0.7, 0.3),
            (dict(C=4, K=6, W=10, H=10, R=1, S=1), (2, 2), 0.5, 0.5),
            (dict(C=4, K=4, W=8, H=8, R=3, S=3, pad=1, groups=2), (2, 2), 0.6, 0.5),
            # every output sees only padding: no accumulator cell on any PE
            (dict(C=1, K=1, W=2, H=6, R=1, S=5, stride=3, pad=1), (3, 2), 1.0, 1.0),
        ],
    )
    def test_outputs_bit_equal_to_oracle(self, kw, grid, wd, ad):
        layer = LayerShape("fe", **kw)
        arch = small_arch(pe_rows=grid[0], pe_cols=grid[1])
        w, a, out, report = run_scnn(arch, layer, wd, ad)
        assert out.decoded().values.tolist() == expected_output(layer, w, a).tolist()

    def test_strided_layer_matches_oracle(self):
        layer = LayerShape("stride", C=2, K=4, W=11, H=11, R=3, S=3, pad=1, stride=2)
        arch = small_arch()
        w, a, out, report = run_scnn(arch, layer, 0.6, 0.6)
        assert out.decoded().values.tolist() == expected_output(layer, w, a).tolist()
        assert report.stride_skipped > 0

    def test_pooled_layer_matches_oracle(self):
        layer = LayerShape("pooled", C=2, K=4, W=8, H=8, R=3, S=3, pad=1)
        pool = PoolSpec(2, 2)
        arch = small_arch()
        w, a, out, report = run_scnn(arch, layer, 0.5, 0.5, pool=pool)
        assert out.decoded().values.tolist() == expected_output(layer, w, a, pool).tolist()

    def test_dense_with_placeholder_runs(self):
        # a 16x16 tile at 10% density forces zero-runs past the 4-bit index
        layer = LayerShape("ph", C=2, K=2, W=16, H=16, R=3, S=3, pad=1)
        arch = ArchConfig(pe_rows=1, pe_cols=1, bank_entries=64)
        w, a, out, report = run_scnn(arch, layer, 0.5, 0.1)
        assert out.decoded().values.tolist() == expected_output(layer, w, a).tolist()
        assert report.events.mult_ops >= report.useful_mults

    def test_all_zero_activations(self):
        layer = LayerShape("zero", C=2, K=4, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        w = gen_synthetic(layer.weight_shape(), 0.5, seed=3)
        a = gen_synthetic(layer.input_shape(), 0.0, seed=4, signed=False)
        stream, tiles = prepare_scnn_inputs(arch, layer, w, a)
        out, report = simulate_scnn_layer(arch, layer, stream, tiles)
        assert report.batches == 0
        assert report.useful_mults == 0
        assert not out.decoded().values.any()
        assert report.oaram_footprint.data_bits == 0


class TestWorkConservation:
    @pytest.mark.parametrize("seed", range(5))
    def test_useful_equals_recount(self, seed):
        layer = LayerShape("wc", C=3, K=6, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        w, a, out, report = run_scnn(arch, layer, 0.5, 0.4, seed=seed)
        recount = count_cartesian_products(layer, w.values.tolist(), a.values.tolist())
        assert report.useful_mults == recount

    def test_independent_of_vector_widths_and_banks(self):
        layer = LayerShape("inv", C=2, K=8, W=8, H=8, R=3, S=3, pad=1)
        counts = set()
        for f, i, banks in [(1, 1, 8), (4, 4, 32), (2, 8, 32), (8, 2, 16)]:
            arch = small_arch(
                weights_per_fetch=f, acts_per_fetch=i, accum_banks=banks
            )
            _, _, _, report = run_scnn(arch, layer, 0.5, 0.5, seed=7)
            counts.add(report.useful_mults)
        assert len(counts) == 1


class TestCycleModel:
    def test_scalar_pe_fully_dense_counts_every_product(self):
        layer = LayerShape("scalar", C=2, K=4, W=4, H=4, R=3, S=3, pad=1)
        arch = ArchConfig(
            pe_rows=1, pe_cols=1, weights_per_fetch=1, acts_per_fetch=1,
            accum_banks=4, bank_entries=256,
        )
        w = gen_synthetic(layer.weight_shape(), 1.0, seed=1)
        a = gen_synthetic(layer.input_shape(), 1.0, seed=2, signed=False)
        stream, tiles = prepare_scnn_inputs(arch, layer, w, a)
        out, report = simulate_scnn_layer(arch, layer, stream, tiles)
        gplan = choose_kc(layer, arch)
        products = layer.C * layer.K * layer.R * layer.S * layer.W * layer.H
        assert report.useful_mults == products
        assert report.cycles == report.batches == products
        assert report.mult_utilization == pytest.approx(1.0)
        assert report.bank_conflict_stalls == 0

    def test_cycle_lower_bound(self):
        layer = LayerShape("lb", C=3, K=8, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        _, _, _, report = run_scnn(arch, layer, 0.6, 0.6)
        assert report.cycles >= report.useful_mults / arch.total_mults

    def test_barrier_accounting_invariant(self):
        layer = LayerShape("bar", C=3, K=8, W=9, H=9, R=3, S=3, pad=1)
        arch = small_arch(pe_rows=2, pe_cols=2)
        _, _, _, report = run_scnn(arch, layer, 0.5, 0.5)
        for busy, wait in zip(report.pe_busy, report.pe_wait):
            assert busy + wait == report.cycles
        total = sum(report.pe_busy) + sum(report.pe_wait)
        assert total == arch.n_pes * report.cycles

    def test_single_pe_zero_barrier_stalls(self):
        layer = LayerShape("nobar", C=2, K=4, W=6, H=6, R=3, S=3, pad=1)
        arch = ArchConfig(pe_rows=1, pe_cols=1, bank_entries=64)
        _, _, _, report = run_scnn(arch, layer, 1.0, 1.0)
        # one PE never waits for a barrier; wait only from unhidden drain
        assert report.barrier_stall_fraction <= report.drain_overhead_cycles / max(
            report.cycles, 1
        )

    def test_monotone_cycles_as_density_falls(self):
        # small tiles keep runs under the 4-bit index limit, so lowering the
        # density strictly shrinks every compressed stream
        layer = LayerShape("mono", C=4, K=8, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        base_w = gen_synthetic(layer.weight_shape(), 1.0, seed=5)
        prev = None
        for d in [1.0, 0.8, 0.6, 0.4, 0.2, 0.1]:
            w = prune_magnitude(base_w, d)
            a = gen_synthetic(layer.input_shape(), d, seed=6, signed=False)
            stream, tiles = prepare_scnn_inputs(arch, layer, w, a)
            _, report = simulate_scnn_layer(arch, layer, stream, tiles)
            if prev is not None:
                assert report.cycles <= prev
            prev = report.cycles

    def test_determinism(self):
        layer = LayerShape("det", C=3, K=6, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        _, _, out1, r1 = run_scnn(arch, layer, 0.5, 0.5, seed=11)
        _, _, out2, r2 = run_scnn(arch, layer, 0.5, 0.5, seed=11)
        assert r1 == r2
        assert out1.decoded().values.tolist() == out2.decoded().values.tolist()

    def test_footprints_charge_every_stored_entry(self):
        # one PE, so each channel's input and output plane is one block
        layer = LayerShape("ph", C=2, K=2, W=16, H=16, R=3, S=3, pad=1)
        arch = ArchConfig(pe_rows=1, pe_cols=1, bank_entries=64)
        _, a, out, report = run_scnn(arch, layer, 0.5, 0.1)

        def stored(planes):
            # entries of each x-major plane, placeholders included
            vals = [loop_rle_encode(p.reshape(-1), arch.index_bits)[0] for p in planes]
            return sum(map(len, vals)), sum(v.count(0) for v in vals)

        (n_in, ph_in), (n_out, _) = stored(a.values), stored(out.decoded().values)
        assert ph_in > 0
        fm = FootprintModel()
        assert (fm.value_bits, fm.index_overhead_bits) == (16, 10)
        assert report.iaram_footprint == Footprint(n_in * 16, n_in * 10)
        assert report.oaram_footprint == Footprint(n_out * 16, n_out * 10)


class TestLayerEncodes:
    """A layer's activations, weights and outputs are encoded once each,
    however many output-channel groups it has and however they batch."""

    @pytest.mark.parametrize(
        "kw,bank_entries,budget,n_groups",
        [
            (dict(C=2, K=4, W=6, H=6, R=3, S=3, pad=1), 256, None, 1),
            (dict(C=3, K=8, W=8, H=8, R=3, S=3, pad=1), 16, None, 2),
            # eight groups, scattered in one batch and in eight
            (dict(C=3, K=8, W=8, H=8, R=3, S=3, pad=1), 4, None, 8),
            (dict(C=3, K=8, W=8, H=8, R=3, S=3, pad=1), 4, 1, 8),
            (dict(C=4, K=6, W=9, H=9, R=3, S=3, stride=2, groups=2), 1, 1, 6),
        ],
    )
    def test_three_encodes_per_layer(self, kw, bank_entries, budget, n_groups):
        layer = LayerShape("enc", **kw)
        arch = small_arch(bank_entries=bank_entries)
        w = gen_synthetic(layer.weight_shape(), 0.5, seed=1)
        a = gen_synthetic(layer.input_shape(), 0.5, seed=2, signed=False)
        assert choose_kc(layer, arch).n_groups == n_groups
        scatter = mock.Mock(side_effect=simulator._scatter)
        with mock.patch.object(codec, "encode_blocks", side_effect=codec.encode_blocks) as enc, \
                mock.patch.object(simulator, "_scatter", scatter), \
                mock.patch.object(simulator, "_BATCH", budget or simulator._BATCH):
            out, _ = simulate_scnn_layer(arch, layer, *prepare_scnn_inputs(arch, layer, w, a))
        assert enc.call_count == 3
        assert scatter.call_count == (n_groups if budget else 1)
        assert len(out.blocks) == arch.n_pes * layer.K

    def test_weight_set_must_hold_every_group(self):
        # one group's worth of channel blocks for a layer of two groups
        layer = LayerShape("short", C=3, K=8, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch(bank_entries=16)
        w = gen_synthetic(layer.weight_shape(), 0.5, seed=1)
        a = gen_synthetic(layer.input_shape(), 0.5, seed=2, signed=False)
        stream, tiles = prepare_scnn_inputs(arch, layer, w, a)
        assert stream.gplan.n_groups == 2
        short = WeightStream(layer, stream.gplan, encode_blocks([], [0] * layer.C))
        with pytest.raises(ConfigurationError, match="expected 6 weight blocks"):
            simulate_scnn_layer(arch, layer, short, tiles)


class TestDistribute:
    """The all-PE block set against one encode per PE."""

    @pytest.mark.parametrize(
        "kw,grid,empty",
        [
            # ragged last column and row
            (dict(C=3, K=2, W=11, H=7, R=3, S=3, pad=1), (2, 3), False),
            # a 2-wide plane over 3 columns and a 1-high plane over 2 rows
            # leave whole columns and rows of PEs empty
            (dict(C=2, K=2, W=2, H=6, R=1, S=5, stride=3, pad=1), (2, 3), True),
            (dict(C=2, K=2, W=5, H=1, R=3, S=1, pad=1), (2, 4), True),
        ],
    )
    @pytest.mark.parametrize("index_bits", [1, 4])
    def test_equals_per_pe_encodes(self, kw, grid, empty, index_bits):
        layer = LayerShape("tiles", **kw)
        plan = partition_tiles(layer, grid)
        a = gen_synthetic(layer.input_shape(), 0.4, seed=3, signed=False)
        got = distribute_activations(plan, a, index_bits)
        refs = per_pe_tiles_encoded(plan, a.values, index_bits)
        assert any(plan.tile(pe).empty for pe in range(plan.n_pes)) == empty
        assert len(got) == plan.n_pes * layer.C
        for name in ("values", "run_lengths", "positions", "extents"):
            assert getattr(got, name).tolist() == np.concatenate(
                [getattr(r, name) for r in refs]
            ).tolist()
        counts = np.concatenate([np.diff(r.offsets) for r in refs])
        assert np.diff(got.offsets).tolist() == counts.tolist()

    def test_tile_checks_name_the_pe_and_channel(self):
        layer = LayerShape("chk", C=3, K=2, W=6, H=6, R=3, S=3, pad=1)
        arch = small_arch()
        w = gen_synthetic(layer.weight_shape(), 0.5, seed=1)
        a = gen_synthetic(layer.input_shape(), 0.5, seed=2, signed=False)
        stream, tiles = prepare_scnn_inputs(arch, layer, w, a)
        short = encode_blocks(np.zeros(9 * 3), [9] * 3)
        with pytest.raises(ConfigurationError, match="3 activation blocks for 4 PEs of 3 channels"):
            simulate_scnn_layer(arch, layer, stream, short)
        extents = tiles.extents.copy()
        extents[1 * 3 + 2] += 1  # PE 1, channel 2
        dense = np.zeros(int(extents.sum()))
        with pytest.raises(ConfigurationError, match="pe 1 channel 2: block extent 10"):
            simulate_scnn_layer(arch, layer, stream, encode_blocks(dense, extents))


class TestPPU:
    def test_halo_product_lands_in_neighbor_output(self):
        # 1x2 grid; a single product in PE0's halo column belongs to PE1
        layer = LayerShape("halo", C=1, K=1, W=8, H=4, R=3, S=3, pad=1)
        arch = ArchConfig(pe_rows=1, pe_cols=2, bank_entries=64)
        w = np.zeros(layer.weight_shape(), dtype=int)
        w[0, 0, 0, 1] = 2  # r=0 shifts the contribution right
        a = np.zeros(layer.input_shape(), dtype=int)
        a[0, 3, 2] = 5  # last column of PE0's tile
        from scnnsim.tensors import ACT_ROLES, WEIGHT_ROLES, DenseTensor

        stream, tiles = prepare_scnn_inputs(
            arch, layer, DenseTensor(w, WEIGHT_ROLES), DenseTensor(a, ACT_ROLES)
        )
        out, report = simulate_scnn_layer(arch, layer, stream, tiles)
        # output coordinate: xo = x - r + pad = 4, owned by PE1; one output
        # channel, so block pe * K + 0 holds PE pe's tile
        assert np.reshape(block_values(out.blocks, 1), (4, 4))[0, 2] == 10
        assert not any(block_values(out.blocks, 0))

    def test_single_pe_halo_exchange_noop(self):
        layer = LayerShape("noop", C=2, K=2, W=6, H=6, R=3, S=3, pad=1)
        plan = partition_tiles(layer, (1, 1))
        acc = np.zeros((1, 2, 8, 8), dtype=np.int64)
        acc[0, 0, 2, 2] = 7
        res = ppu_finalize(acc, _slots(plan, 2, 32, "mod"))
        assert res.halo_values == 0
        # accumulator base is -1 with pad 1 and a 3x3 filter
        assert res.plane[0, 1, 1] == 7

    def test_all_negative_group_encodes_empty(self):
        # every partial sum is -5, so ReLU leaves an empty output block
        layer = LayerShape("neg", C=1, K=1, W=4, H=4, R=1, S=1)
        plan = partition_tiles(layer, (1, 1))
        acc = np.full((1, 1, 4, 4), -5, dtype=np.int64)
        res = ppu_finalize(acc, _slots(plan, 1, 32, "mod"))
        assert not res.plane.any()
        arch = ArchConfig(pe_rows=1, pe_cols=1)
        w = DenseTensor(np.full(layer.weight_shape(), -1), WEIGHT_ROLES)
        a = DenseTensor(np.full(layer.input_shape(), 5), ACT_ROLES)
        out, _ = simulate_scnn_layer(arch, layer, *prepare_scnn_inputs(arch, layer, w, a))
        assert out.blocks.offsets.tolist() == [0, 0]


class TestDenseBaselines:
    def test_throughput_bound_full_density(self):
        layer = LayerShape("tp", C=4, K=8, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        w = gen_synthetic(layer.weight_shape(), 1.0, seed=1)
        a = gen_synthetic(layer.input_shape(), 1.0, seed=2, signed=False)
        report = simulate_dcnn_layer(arch, layer, w, a)
        ideal = layer.dense_multiplies() / arch.total_mults
        assert report.cycles >= ideal
        assert report.cycles <= 1.3 * ideal + arch.n_pes

    def test_opt_same_cycles_lower_energy(self):
        layer = LayerShape("opt", C=4, K=8, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        w = prune_magnitude(gen_synthetic(layer.weight_shape(), 1.0, seed=3), 0.5)
        a = gen_synthetic(layer.input_shape(), 0.5, seed=4, signed=False)
        dcnn = simulate_dcnn_layer(arch, layer, w, a, VARIANT_DCNN)
        opt = simulate_dcnn_layer(arch, layer, w, a, VARIANT_DCNN_OPT)
        assert dcnn.cycles == opt.cycles
        assert opt.energy <= dcnn.energy

    def test_gated_multiplies_scale_with_activation_density(self):
        layer = LayerShape("gate", C=2, K=4, W=8, H=8, R=1, S=1)
        arch = small_arch()
        w = gen_synthetic(layer.weight_shape(), 1.0, seed=5)
        full = gen_synthetic(layer.input_shape(), 1.0, seed=6, signed=False)
        half_vals = full.values.copy()
        half_vals[:, ::2, :] = 0  # zero half the activations
        half = DenseTensor(half_vals, ACT_ROLES)
        r_full = simulate_dcnn_layer(arch, layer, w, full, VARIANT_DCNN_OPT)
        r_half = simulate_dcnn_layer(arch, layer, w, half, VARIANT_DCNN_OPT)
        assert r_half.events.energized_mults * 2 == r_full.events.energized_mults

    @settings(max_examples=200, deadline=None)
    @given(
        stride=st.integers(1, 4),
        pad=st.integers(0, 2),
        groups=st.integers(1, 3),
        taps=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        per_group=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        steps=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        wd=st.sampled_from([0.0, 0.3, 1.0]),
        ad=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gated_multiplies_equal_loop_reference(
        self, stride, pad, groups, taps, per_group, steps, wd, ad, seed
    ):
        (R, S), (cpg, kpg) = taps, per_group
        # W = R - 2*pad + stride*n keeps the output size integral
        W, H = R - 2 * pad + stride * steps[0], S - 2 * pad + stride * steps[1]
        W += stride * max(0, -(-(1 - W) // stride))
        H += stride * max(0, -(-(1 - H) // stride))
        layer = LayerShape(
            "g", C=groups * cpg, K=groups * kpg, W=W, H=H, R=R, S=S,
            stride=stride, pad=pad, groups=groups,
        )
        rng = np.random.default_rng(seed)
        w = rng.integers(-3, 4, size=layer.weight_shape()) * (rng.random(layer.weight_shape()) < wd)
        a = rng.integers(1, 4, size=layer.input_shape()) * (rng.random(layer.input_shape()) < ad)
        got = _gated_mults(layer, DenseTensor(w, WEIGHT_ROLES), DenseTensor(a, ACT_ROLES))
        assert got == loop_gated_mults(layer, w, a)

    def test_dcnn_arch_has_2mb_sram(self):
        arch = ArchConfig()
        d = dcnn_arch(arch)
        total = d.n_pes * (d.iaram_bytes + d.oaram_bytes)
        assert total == 2 * 1024 * 1024


@settings(max_examples=300, deadline=None)
@given(
    window=st.integers(1, 5),
    stride=st.integers(1, 5),
    k=st.integers(1, 3),
    w=st.integers(1, 13),
    h=st.integers(1, 13),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_pool_equals_loop_reference(window, stride, k, w, h, seed):
    # spans shorter than the window and windows shorter than the stride
    # included; negative values check that the far-edge padding never wins
    plane = np.random.default_rng(seed).integers(-(1 << 23), 1 << 23, size=(k, w, h))
    got = max_pool(plane, PoolSpec(window, stride))
    assert got.dtype == plane.dtype
    assert got.tolist() == naive_max_pool(plane.tolist(), window, stride)
