import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    loop_gated_mults,
    loop_rle_encode,
    naive_max_pool,
    naive_rle_decode,
    per_pe_tiles_encoded,
)
from scnnsim.analytic import (
    INDEX_OVERHEAD_BITS,
    STORED_VALUE_BITS,
    VARIANT_DCNN,
    VARIANT_DCNN_OPT,
    ArchConfig,
    EventCounts,
    PoolSpec,
    count_events,
    dense_dram_tiled,
    useful_products,
)
from scnnsim import codec, simulator, workloads
from scnnsim.dataflow import ConfigurationError, LayerShape, choose_kc, partition_tiles
from scnnsim.record import fields
from scnnsim.simulator import (
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


def sim_scnn(arch, layer, w, a, **kw):
    """`simulate_scnn_layer` given the tensors' useful count."""
    return simulate_scnn_layer(arch, layer, w, a, _gated_mults(layer, w, a), **kw)


def sim_dcnn(arch, layer, w, a, *args, **kw):
    """`simulate_dcnn_layer` given the tensors' useful count."""
    return simulate_dcnn_layer(arch, layer, a, _gated_mults(layer, w, a), *args, **kw)


def run_scnn(arch, layer, wd=0.5, ad=0.5, seed=0, pool=None):
    w = prune_magnitude(gen_synthetic(layer.weight_shape(), 1.0, seed=seed), wd) \
        if wd < 1.0 else gen_synthetic(layer.weight_shape(), 1.0, seed=seed)
    a = gen_synthetic(layer.input_shape(), ad, seed=seed + 1, signed=False)
    out, report = sim_scnn(arch, layer, w, a, pool=pool)
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
        # only the stored pairs whose stride phases meet are formed, and all land
        assert report.stride_skipped == 0
        assert report.events.mult_ops == report.events.xbar_transfers

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
        out, report = sim_scnn(arch, layer, w, a)
        assert report.batches == 0
        assert report.useful_mults == 0
        assert not out.decoded().values.any()
        assert out.blocks.values.size == 0


class TestWorkConservation:
    @pytest.mark.parametrize("seed", range(5))
    def test_useful_equals_recount(self, seed):
        layer = LayerShape("wc", C=3, K=6, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        w, a, out, report = run_scnn(arch, layer, 0.5, 0.4, seed=seed)
        recount = loop_gated_mults(layer, w.values, a.values)
        assert report.useful_mults == recount
        # every useful product is one the array formed and landed
        assert recount <= report.events.xbar_transfers <= report.events.mult_ops

    def test_independent_of_vector_widths_and_banks(self):
        layer = LayerShape("inv", C=2, K=8, W=8, H=8, R=3, S=3, pad=1)
        counts = set()
        for f, i, banks in [(1, 1, 8), (4, 4, 32), (2, 8, 32), (8, 2, 16)]:
            arch = small_arch(
                weights_per_fetch=f, acts_per_fetch=i, accum_banks=banks
            )
            _, _, _, report = run_scnn(arch, layer, 0.5, 0.5, seed=7)
            ev = report.events
            counts.add((ev.useful_mults, ev.mult_ops, ev.xbar_transfers, report.stride_skipped))
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
        out, report = sim_scnn(arch, layer, w, a)
        products = layer.C * layer.K * layer.R * layer.S * layer.W * layer.H
        assert report.events.mult_ops == products
        assert report.cycles == report.batches == products
        # the products of border inputs with taps that reach past the plane
        # are formed but land on no output
        assert report.useful_mults == useful_products(layer, 1.0, 1.0) < products
        assert report.mult_utilization == report.useful_mults / products
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
            _, report = sim_scnn(arch, layer, w, a)
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
        # one PE, so each channel's input and output plane is one block; RAMs
        # of one value each tile the layer through DRAM
        layer = LayerShape("ph", C=2, K=2, W=16, H=16, R=3, S=3, pad=1)
        arch = ArchConfig(
            pe_rows=1, pe_cols=1, bank_entries=64, iaram_bytes=2, oaram_bytes=2
        )
        w, a, out, report = run_scnn(arch, layer, 0.5, 0.1)
        _, inner = sim_scnn(arch, layer, w, a, input_from_dram=False)

        def stored(planes):
            # entries of each x-major plane, placeholders included
            vals = [loop_rle_encode(p.reshape(-1), arch.index_bits)[0] for p in planes]
            return sum(map(len, vals)), sum(v.count(0) for v in vals)

        (n_in, ph_in), (n_out, _) = stored(a.values), stored(out.decoded().values)
        assert ph_in > 0
        assert (STORED_VALUE_BITS, INDEX_OVERHEAD_BITS) == (16, 10)
        assert report.dram_tiled and inner.dram_tiled
        # a first layer reads its input from DRAM anyway: tiling adds only
        # the output's round trip; an inner layer's tiling adds its input too
        assert report.events.tiling_dram_bits == n_out * 26
        assert inner.events.tiling_dram_bits == (n_in + n_out) * 26


@settings(max_examples=150, deadline=None)
@given(
    per_group=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    groups=st.integers(1, 2),
    plane=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    taps=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    pad=st.integers(0, 1),
    stride=st.integers(1, 4),
    grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    fetch=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    bank_entries=st.sampled_from([1, 2, 4, 8, 64]),
    ppu=st.integers(1, 16),
    halo=st.integers(0, 3),
    double_buffered=st.booleans(),
    dram=st.sampled_from([0.25, 1.0, 3.0, 16.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_engines_time_a_fully_dense_layer_alike(
    per_group, groups, plane, taps, pad, stride, grid, fetch, bank_entries, ppu, halo,
    double_buffered, dram, seed,
):
    # at density 1 the closed form's expectations are the exact counts, per
    # stride phase as in the sim, so with no bank stall and no FIFO
    # re-stream (which it does not model) its compute-side cycles are the
    # sim's: single-buffered drains, stream-bound groups and halo latency
    # included
    (cpg, kpg), (R, S) = per_group, taps
    # each span rounded up so that the outputs fit it exactly
    W, H = (
        span + (tap - span - 2 * pad) % stride
        for span, tap in ((max(plane[0], R - 2 * pad), R), (max(plane[1], S - 2 * pad), S))
    )
    layer = LayerShape(
        "t", C=groups * cpg, K=groups * kpg, W=W, H=H, R=R, S=S, pad=pad, stride=stride,
        groups=groups,
    )
    arch = ArchConfig(
        pe_rows=grid[0], pe_cols=grid[1], weights_per_fetch=fetch[0],
        acts_per_fetch=fetch[1], bank_entries=bank_entries, ppu_values_per_cycle=ppu,
        halo_latency_cycles=halo, accum_double_buffered=double_buffered,
        dram_values_per_cycle=dram,
    )
    try:
        gplan = choose_kc(layer, arch)
    except ConfigurationError:
        assume(False)
    assume(-(-gplan.kc * R * S // arch.weights_per_fetch) <= arch.weight_fifo_entries)
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 8, size=layer.weight_shape()) * rng.choice([-1, 1], layer.weight_shape())
    a = rng.integers(1, 8, size=layer.input_shape())
    _, report = sim_scnn(arch, layer, DenseTensor(w), DenseTensor(a))
    assume(report.bank_conflict_stalls == 0)
    counts = count_events(arch, layer, "sparse", (1.0, 1.0))
    assert counts.pe_cycles == report.cycles
    # and every event but the activation bits, which the closed form
    # charges for outputs at the input's density
    for name in set(fields(EventCounts)) - {"act_ram_bits", "dram_bits", "tiling_dram_bits"}:
        assert getattr(counts, name) == getattr(report.events, name), name


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
            out, _ = sim_scnn(arch, layer, w, a)
        assert enc.call_count == 3
        assert scatter.call_count == (n_groups if budget else 1)
        assert len(out.blocks) == arch.n_pes * layer.K

    def test_activation_tiles_are_freed_before_the_first_scatter(self):
        # the phase grids are all the scatter reads, so the tiles' block set
        # is dead before any batch of groups is scattered
        layer = LayerShape("free", C=3, K=8, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch(bank_entries=16)
        w = gen_synthetic(layer.weight_shape(), 0.5, seed=1)
        a = gen_synthetic(layer.input_shape(), 0.5, seed=2, signed=False)
        tiles, alive, scatter_batch = [], [], simulator._scatter

        def prepare(*args):
            w_blocks, blocks = prepare_scnn_inputs(*args)
            tiles.append(weakref.ref(blocks))
            return w_blocks, blocks

        def scatter(*args):
            alive.append(tiles[0]() is not None)
            return scatter_batch(*args)

        with mock.patch.object(simulator, "prepare_scnn_inputs", prepare), \
                mock.patch.object(simulator, "_scatter", scatter), \
                mock.patch.object(simulator, "_BATCH", 1):
            sim_scnn(arch, layer, w, a)
        assert alive == [False, False]

    def test_weights_must_have_the_layers_shape(self):
        # a 1x3 layer's taps given as 3x1 hold as many values, and would
        # encode and be simulated with transposed taps
        layer = LayerShape("taps", C=2, K=2, W=4, H=4, R=1, S=3)
        arch = small_arch()
        assert layer.weight_shape() == (2, 2, 1, 3)
        w = gen_synthetic((2, 2, 3, 1), 1.0, seed=1)
        a = gen_synthetic(layer.input_shape(), 0.5, seed=2, signed=False)
        error = r"weights \(2, 2, 3, 1\) do not match layer \(2, 2, 1, 3\)"
        with pytest.raises(ConfigurationError, match=error):
            compress_weights(layer, choose_kc(layer, arch), w, arch.index_bits)
        with pytest.raises(ConfigurationError, match=error):
            simulate_scnn_layer(arch, layer, w, a, 0)


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
        assert (0 in plan.x.widths or 0 in plan.y.widths) == empty
        assert len(got) == plan.n_pes * layer.C
        for name in ("values", "run_lengths", "positions", "extents"):
            assert getattr(got, name).tolist() == np.concatenate(
                [getattr(r, name) for r in refs]
            ).tolist()
        counts = np.concatenate([np.diff(r.offsets) for r in refs])
        assert np.diff(got.offsets).tolist() == counts.tolist()


def test_values_are_int32_from_synthesis_to_the_output_blocks():
    # every stored value on either side is int32, and every block entry takes
    # 9 bytes: its int32 value, uint8 run (4-bit index) and int32 position
    layer = LayerShape("widths", C=3, K=6, W=9, H=9, R=3, S=3, pad=1, stride=2)
    arch = small_arch()
    assert arch.index_bits == 4
    w, a, out, _ = run_scnn(arch, layer, 0.5, 0.6, pool=PoolSpec(2, 2))
    w_blocks, tiles = prepare_scnn_inputs(arch, layer, w, a)
    for values in (w.values, a.values, w_blocks.values, tiles.values, out.blocks.values):
        assert values.dtype == np.int32
    for blocks in (w_blocks, tiles, out.blocks):
        assert blocks.run_lengths.dtype == np.uint8
        assert blocks.positions.dtype == np.int32
        assert blocks.offsets.dtype == blocks.extents.dtype == np.int64
        entry = (blocks.values, blocks.run_lengths, blocks.positions)
        assert sum(column.itemsize for column in entry) == 9
    decoded = out.decoded().values
    assert decoded.dtype == np.int32
    assert decoded.tolist() == expected_output(layer, w, a, PoolSpec(2, 2)).tolist()


class TestPPU:
    def test_halo_product_lands_in_neighbor_output(self):
        # 1x2 grid; a single product in PE0's halo column belongs to PE1
        layer = LayerShape("halo", C=1, K=1, W=8, H=4, R=3, S=3, pad=1)
        arch = ArchConfig(pe_rows=1, pe_cols=2, bank_entries=64)
        w = np.zeros(layer.weight_shape(), dtype=int)
        w[0, 0, 0, 1] = 2  # r=0 shifts the contribution right
        a = np.zeros(layer.input_shape(), dtype=int)
        a[0, 3, 2] = 5  # last column of PE0's tile
        from scnnsim.tensors import DenseTensor

        w, a = DenseTensor(w), DenseTensor(a)
        out, report = sim_scnn(arch, layer, w, a)
        # output coordinate: xo = x - r + pad = 4, owned by PE1; one output
        # channel, so block pe * K + 0 holds PE pe's tile
        assert np.reshape(block_values(out.blocks, 1), (4, 4))[0, 2] == 10
        assert not any(block_values(out.blocks, 0))

    def test_single_pe_halo_exchange_noop(self):
        layer = LayerShape("noop", C=2, K=2, W=6, H=6, R=3, S=3, pad=1)
        plan = partition_tiles(layer, (1, 1))
        # [k, EX, EY, slot], the scatter's float64 layout
        acc = np.zeros((2, 8, 8, 1))
        acc[0, 2, 2, 0] = 7
        plane, halo_values = ppu_finalize(acc, _slots(plan, 2, 32, "mod"))
        assert plane.dtype == np.int32
        assert halo_values == 0
        # accumulator base is -1 with pad 1 and a 3x3 filter
        assert plane[0, 1, 1] == 7

    def test_all_negative_group_encodes_empty(self):
        # every partial sum is -5, so ReLU leaves an empty output block
        layer = LayerShape("neg", C=1, K=1, W=4, H=4, R=1, S=1)
        plan = partition_tiles(layer, (1, 1))
        acc = np.full((1, 4, 4, 1), -5.0)
        plane, _ = ppu_finalize(acc, _slots(plan, 1, 32, "mod"))
        assert not plane.any()
        arch = ArchConfig(pe_rows=1, pe_cols=1)
        w = DenseTensor(np.full(layer.weight_shape(), -1))
        a = DenseTensor(np.full(layer.input_shape(), 5))
        out, _ = sim_scnn(arch, layer, w, a)
        assert out.blocks.offsets.tolist() == [0, 0]


class TestDenseBaselines:
    def test_throughput_bound_full_density(self):
        layer = LayerShape("tp", C=4, K=8, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        w = gen_synthetic(layer.weight_shape(), 1.0, seed=1)
        a = gen_synthetic(layer.input_shape(), 1.0, seed=2, signed=False)
        report = sim_dcnn(arch, layer, w, a)[VARIANT_DCNN]
        ideal = layer.dense_multiplies() / arch.total_mults
        assert report.cycles >= ideal
        assert report.cycles <= 1.3 * ideal + arch.n_pes

    def test_opt_same_cycles_lower_energy(self):
        layer = LayerShape("opt", C=4, K=8, W=8, H=8, R=3, S=3, pad=1)
        arch = small_arch()
        w = prune_magnitude(gen_synthetic(layer.weight_shape(), 1.0, seed=3), 0.5)
        a = gen_synthetic(layer.input_shape(), 0.5, seed=4, signed=False)
        reports = sim_dcnn(arch, layer, w, a)
        dcnn, opt = reports[VARIANT_DCNN], reports[VARIANT_DCNN_OPT]
        assert dcnn.cycles == opt.cycles
        assert opt.energy <= dcnn.energy

    def test_gated_multiplies_scale_with_activation_density(self):
        layer = LayerShape("gate", C=2, K=4, W=8, H=8, R=1, S=1)
        arch = small_arch()
        w = gen_synthetic(layer.weight_shape(), 1.0, seed=5)
        full = gen_synthetic(layer.input_shape(), 1.0, seed=6, signed=False)
        half_vals = full.values.copy()
        half_vals[:, ::2, :] = 0  # zero half the activations
        half = DenseTensor(half_vals)
        (r_full,) = sim_dcnn(arch, layer, w, full, (VARIANT_DCNN_OPT,)).values()
        (r_half,) = sim_dcnn(arch, layer, w, half, (VARIANT_DCNN_OPT,)).values()
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
        got = _gated_mults(layer, DenseTensor(w), DenseTensor(a))
        assert got == loop_gated_mults(layer, w, a)

    def test_tiled_layer_charges_the_output_round_trip(self):
        # 64 channels of 96 x 96 in and out overflow the baselines' 2MB
        layer = LayerShape("wide", C=64, K=64, W=96, H=96, R=1, S=1)
        arch = ArchConfig()
        w = gen_synthetic(layer.weight_shape(), 1.0, seed=1)
        a = gen_synthetic(layer.input_shape(), 1.0, seed=2, signed=False)
        out_bits = layer.K * layer.Wo * layer.Ho * STORED_VALUE_BITS
        in_bits = layer.C * layer.W * layer.H * STORED_VALUE_BITS
        w_bits = layer.K * layer.C * STORED_VALUE_BITS
        for first, tiling in ((True, out_bits), (False, in_bits + out_bits)):
            report = sim_dcnn(arch, layer, w, a, input_from_dram=first)[VARIANT_DCNN]
            assert report.dram_tiled
            # the output makes a round trip, and so does an input that
            # would not cross DRAM anyway
            assert report.events.tiling_dram_bits == tiling
            assert report.events.dram_bits == w_bits + in_bits + out_bits

    def test_both_rows_count_the_tensors_once(self):
        # one count of useful multiplies per layer, whatever rows are asked
        # for, and every row reports it; dcnn-opt energizes just those
        layer = LayerShape("once", C=4, K=8, W=9, H=9, R=3, S=3, pad=1, stride=2)
        spec = workloads.LayerSpec(layer, 0.5, 0.5, 0.5)
        arch = small_arch()
        w = prune_magnitude(gen_synthetic(layer.weight_shape(), 1.0, seed=7), 0.5)
        a = gen_synthetic(layer.input_shape(), 0.5, seed=8, signed=False)
        useful = loop_gated_mults(layer, w.values, a.values)
        busy = set()
        for variants in (
            workloads.ALL_VARIANTS, (VARIANT_DCNN,), (VARIANT_DCNN, VARIANT_DCNN_OPT),
            (workloads.VARIANT_SCNN,), (workloads.VARIANT_ORACLE,),
        ):
            with mock.patch.object(
                simulator, "_gated_mults", wraps=simulator._gated_mults
            ) as gate:
                reports, _, _ = workloads._sim_layer(arch, spec, w, a, variants, first=True)
            assert gate.call_count == 1
            assert set(reports) == set(variants)
            assert {rep.useful_mults for rep in reports.values()} == {useful}
            if VARIANT_DCNN_OPT in reports:
                assert reports[VARIANT_DCNN_OPT].events.energized_mults == useful
            busy |= {reports[v].pe_busy for v in (VARIANT_DCNN, VARIANT_DCNN_OPT) if v in reports}
        assert len(busy) == 1

    @pytest.mark.parametrize(
        "grid,capacity",
        [
            # 2MB of 16-bit values over 64 PEs' two RAMs each
            ((8, 8), 1024 * 1024),
            # 2MB does not split evenly over 18 RAMs: 116,508 bytes each
            ((3, 3), 18 * (116_508 // 2)),
        ],
        ids=["8x8", "3x3"],
    )
    def test_dram_tiling_starts_one_value_past_the_sram(self, grid, capacity):
        arch = ArchConfig(pe_rows=grid[0], pe_cols=grid[1])
        for extra, tiled in ((0, False), (1, True)):
            # one input value, the rest output
            layer = LayerShape("b", C=1, K=capacity - 1 + extra, W=1, H=1, R=1, S=1)
            assert dense_dram_tiled(arch, layer, None) is tiled
        # the pooled output is what must fit: 32 x 128² in, 128 x 64² out
        layer = LayerShape("p", C=32, K=128, W=128, H=128, R=1, S=1)
        assert dense_dram_tiled(arch, layer, PoolSpec(2, 2)) is (capacity < 1024 * 1024)
        assert dense_dram_tiled(arch, layer, None)


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
