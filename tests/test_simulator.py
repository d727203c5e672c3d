import dataclasses
import io

import numpy as np
import pytest

from oracles import count_cartesian_products
from scnnsim.codec import decode_block
from scnnsim.dataflow import choose_kc, partition_tiles
from scnnsim.simulator import (
    ArchConfig,
    PoolSpec,
    VARIANT_DCNN,
    VARIANT_DCNN_OPT,
    compress_weights,
    dcnn_arch,
    distribute_activations,
    max_pool,
    ppu_finalize,
    prepare_scnn_inputs,
    route_batch,
    simulate_dcnn_layer,
    simulate_scnn_layer,
)
from scnnsim.tensors import (
    LayerShape,
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
        stored = sum(b.stored_count for blocks in [out.blocks[0]] for b in blocks.values())
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
        assert r1 == dataclasses.replace(r2, events=r1.events) or r1.cycles == r2.cycles
        assert r1.events.as_dict() == r2.events.as_dict()
        assert out1.decoded().values.tolist() == out2.decoded().values.tolist()

    def test_trace_emission(self):
        layer = LayerShape("trace", C=2, K=4, W=6, H=6, R=3, S=3, pad=1)
        arch = small_arch()
        w = gen_synthetic(layer.weight_shape(), 0.5, seed=1)
        a = gen_synthetic(layer.input_shape(), 0.5, seed=2, signed=False)
        stream, tiles = prepare_scnn_inputs(arch, layer, w, a)
        buf = io.StringIO()
        simulate_scnn_layer(arch, layer, stream, tiles, trace=buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines and all(line.startswith("layer=trace group=") for line in lines)


class TestRouteBatch:
    def test_distinct_banks_no_stall(self):
        assert route_batch([(b, 1) for b in range(16)]) == 0

    def test_all_one_bank_worst_case(self):
        assert route_batch([(3, 1)] * 16) == 15

    def test_empty_batch(self):
        assert route_batch([]) == 0

    def test_uniform_random_stream_overhead_under_15_percent(self):
        # 1e5 batches of 16 products on 32 banks; banks retire one product
        # per cycle with elastic queueing, so stalls need sustained imbalance
        rng = np.random.default_rng(99)
        batches = 100_000
        banks = 32
        totals = np.zeros(banks, dtype=np.int64)
        for _ in range(100):
            chunk = rng.integers(0, 4096, size=(batches // 100, 16))
            ids = chunk % banks
            totals += np.bincount(ids.reshape(-1), minlength=banks)
        stall = max(0, int(totals.max()) - batches)
        assert stall / batches < 0.15

    def test_stream_model_matches_route_batch_on_single_batches(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 17))
            bank_ids = rng.integers(0, 32, n)
            stream_stall = max(0, int(np.bincount(bank_ids, minlength=32).max()) - 1)
            assert stream_stall == route_batch([(int(b), 1) for b in bank_ids])


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
        # output coordinate: xo = x - r + pad = 4, owned by PE1
        assert decode_block(out.blocks[1][0]).reshape(4, 4)[0, 2] == 10
        assert not out.blocks[0] or not decode_block(out.blocks[0][0]).any()

    def test_single_pe_halo_exchange_noop(self):
        layer = LayerShape("noop", C=2, K=2, W=6, H=6, R=3, S=3, pad=1)
        plan = partition_tiles(layer, (1, 1))
        acc = np.zeros((2, 8, 8), dtype=np.int64)
        acc[0, 2, 2] = 7
        res = ppu_finalize([acc], plan, range(0, 2))
        assert res.halo_values == 0
        # accumulator base is -1 with pad 1 and a 3x3 filter
        assert res.plane[0, 1, 1] == 7

    def test_all_negative_group_encodes_empty(self):
        layer = LayerShape("neg", C=1, K=1, W=4, H=4, R=1, S=1)
        plan = partition_tiles(layer, (1, 1))
        acc = np.full((1, 4, 4), -5, dtype=np.int64)
        res = ppu_finalize([acc], plan, range(0, 1))
        assert res.blocks[0][0].stored_count == 0


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
        from scnnsim.tensors import ACT_ROLES, DenseTensor

        half = DenseTensor(half_vals, ACT_ROLES)
        r_full = simulate_dcnn_layer(arch, layer, w, full, VARIANT_DCNN_OPT)
        r_half = simulate_dcnn_layer(arch, layer, w, half, VARIANT_DCNN_OPT)
        assert r_half.events.energized_mults * 2 == r_full.events.energized_mults

    def test_dcnn_arch_has_2mb_sram(self):
        arch = ArchConfig()
        d = dcnn_arch(arch)
        total = d.n_pes * (d.iaram_bytes + d.oaram_bytes)
        assert total == 2 * 1024 * 1024
