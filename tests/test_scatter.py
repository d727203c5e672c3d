"""The group-level scatter against a per-(PE, channel) loop reference.

`loop_scatter` is the straightforward form of the Cartesian-product scatter:
for one PE and each input channel, form every weight x activation product,
drop those the stride skips, and add the rest into the accumulator with
`np.add.at` in int64. The simulator scatters a batch of consecutive
output-channel groups over every live PE at once into a uniform float64
[k, EX, EY, slot] layout: per stride phase it contracts the input channels
with a float64 GEMM of the values and a float32 GEMM of the stored-entry
masks, in bands of the GEMM output, then adds each tap's rows into the
accumulators as a shifted slice. Every PE's view of each group's result,
its bank totals and its skipped count, the products formed less those
landed, must reproduce the reference exactly, however the groups are
batched, and the PPU merges those float64 accumulators where they lie.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scnnsim.analytic import ArchConfig
from scnnsim.codec import BlockSet, encode_blocks
from scnnsim.dataflow import (
    ConfigurationError,
    GroupPlan,
    LayerShape,
    choose_kc,
    partition_tiles,
)
from oracles import loop_merge_group_plane
from scnnsim import codec, simulator
from scnnsim.simulator import (
    _BAND,
    _activation_operand,
    _batches,
    _merge_group_plane,
    _scatter,
    _slots,
    _weight_cells,
    _weight_operand,
    _weight_phases,
    prepare_scnn_inputs,
    simulate_scnn_layer,
)
from scnnsim.tensors import DenseTensor


def block_entries(blocks, b):
    """Values and dense positions of block b's entries, the positions summed
    from its runs, widened from their stored width, here rather than read
    from the set."""
    lo, hi = blocks.offsets[b], blocks.offsets[b + 1]
    return blocks.values[lo:hi], np.cumsum(blocks.run_lengths[lo:hi].astype(np.int64) + 1) - 1


def loop_scatter(arch, layer, w_blocks, tiles, gi, pe):
    """(acc, bank_totals, stride_skipped) of one PE and group, one
    `np.add.at` per input channel."""
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    row, col = divmod(pe, plan.pe_cols)
    x0, y0, ht = plan.x.starts[col], plan.y.starts[row], plan.y.widths[row]
    group = choose_kc(layer, arch).groups[gi]
    kc = len(group)
    xb, yb = plan.x.acc_base(col), plan.y.acc_base(row)
    ex, ey = plan.x.acc_extent(col), plan.y.acc_extent(row)
    banks = arch.accum_banks
    acc = np.zeros((kc, ex, ey), dtype=np.int64)
    bank_totals = np.zeros(banks, dtype=np.int64)
    skipped = 0
    rs = layer.R * layer.S
    kpg, cpg = layer.filters_per_group, layer.channels_per_group
    for c in range(layer.C):
        avals, apos = block_entries(tiles, pe * layer.C + c)
        wvals, wpos = block_entries(w_blocks, gi * layer.C + c)
        xs = x0 + apos // ht
        ys = y0 + apos % ht
        # the block starts at the group's first filter in c's convolution group
        wk = max(group.start, c // cpg * kpg) - group.start + wpos // rs
        wr = (wpos % rs) // layer.S
        ws = wpos % layer.S
        xo_num = xs[None, :] - wr[:, None] + layer.pad
        yo_num = ys[None, :] - ws[:, None] + layer.pad
        prods = wvals[:, None] * avals[None, :]
        valid = (xo_num % layer.stride == 0) & (yo_num % layer.stride == 0)
        skipped += int(valid.size - np.count_nonzero(valid))
        sel = valid.reshape(-1)
        xa = (xo_num // layer.stride - xb).reshape(-1)[sel]
        ya = (yo_num // layer.stride - yb).reshape(-1)[sel]
        kf = np.broadcast_to(wk[:, None], prods.shape).reshape(-1)[sel]
        np.add.at(acc, (kf, xa, ya), prods.reshape(-1)[sel])
        lin = (kf * ex + xa) * ey + ya
        if arch.bank_map == "xor":
            lin = (lin >> 5) ^ lin
        bank_totals += np.bincount(lin % banks, minlength=banks)
    return acc, bank_totals, skipped


def extents(plan, pe):
    """(ex, ey) of PE pe's accumulator, from its column and its row."""
    r, c = divmod(pe, plan.pe_cols)
    return plan.x.acc_extent(c), plan.y.acc_extent(r)


def group_scatters(arch, layer, w_blocks, tiles):
    """(pe, gi, acc, bank_totals, skipped) of every live PE in every group,
    from one scatter per batch of groups (`_batches`), skipped being every
    stored pair of a channel, counted from the block sets' offsets, less
    the products landed. The pairs whose stride phases meet, counted per
    phase as the simulator counts them, must all land. The cells of a slot
    outside its PE's [kc, ex, ey] view of a group must stay empty, and
    each batch's weight mask holds, per channel, exactly the batch's
    stored weights."""
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    gplan = choose_kc(layer, arch)
    groups = gplan.groups
    w_stored = np.diff(w_blocks.offsets).reshape(gplan.n_groups, layer.C)
    a_stored = np.diff(tiles.offsets).reshape(plan.n_pes, layer.C)
    slots = _slots(plan, max(map(len, groups)), arch.accum_banks, arch.bank_map)
    assert slots.pes == [
        r * plan.pe_cols + c
        for r, ht in enumerate(plan.y.widths)
        for c, wt in enumerate(plan.x.widths)
        if wt and ht
    ]
    acts, a_phases = _activation_operand(plan, slots, tiles)
    w_phases = _weight_phases(layer, w_blocks)
    # the stored entries of each (block, phase) add up to the block's
    assert a_phases.reshape(*a_stored.shape, -1).sum(axis=2).tolist() == a_stored.tolist()
    assert w_phases.reshape(*w_stored.shape, -1).sum(axis=2).tolist() == w_stored.tolist()
    kpg, cpg = layer.filters_per_group, layer.channels_per_group
    for batch in _batches(len(groups), slots):
        w = _weight_operand(layer, gplan, w_blocks, batch)
        # the weight columns are the batch's filters, and each channel
        # stores weights only in its own convolution group's columns
        k0, k1 = groups[batch.start].start, groups[batch.stop - 1].stop
        stored = w_stored[batch.start : batch.stop]
        if w is None:
            assert not stored.any()
        else:
            vals, mask = w
            assert vals.shape == mask.shape == (layer.C, layer.R, layer.S, k1 - k0)
            assert mask.reshape(layer.C, -1).sum(axis=1).tolist() == stored.sum(axis=0).tolist()
            for c in range(layer.C):
                own = range(c // cpg * kpg - k0, (c // cpg + 1) * kpg - k0)
                outside = [j for j in range(k1 - k0) if j not in own]
                assert not mask[c, :, :, outside].any()
        acc, bank_totals = _scatter(groups[batch.start : batch.stop], w, acts, slots)
        formed = stored @ a_stored[slots.pes].T
        # the pairs whose phases meet, counted apart from the scatter
        matched = w_phases[batch.start : batch.stop] @ a_phases[slots.pes].T
        # exact integers in the [k, EX, EY, slot] float64 layout the PPU merges
        assert acc.dtype == np.float64 and acc.flags.c_contiguous
        assert acc.shape == (k1 - k0, *slots.bank.shape[1:])
        assert (acc == np.round(acc)).all()
        for j, gi in enumerate(batch):
            k0 = groups[gi].start - groups[batch.start].start
            for i, pe in enumerate(slots.pes):
                kc, (ex, ey) = len(groups[gi]), extents(plan, pe)
                view = acc[k0 : k0 + kc, :ex, :ey, i]
                assert np.abs(acc[k0 : k0 + kc, :, :, i]).sum() == np.abs(view).sum()
                skipped = int(formed[j, i] - bank_totals[j, i].sum())
                assert matched[j, i] == bank_totals[j, i].sum()
                yield pe, gi, view.astype(np.int64), bank_totals[j, i], skipped


def assert_matches_loop_reference(arch, layer, w_blocks, tiles):
    """Compare every live PE in every group; return their skipped counts."""
    skips = []
    for pe, gi, acc, bank_totals, skipped in group_scatters(arch, layer, w_blocks, tiles):
        ref_acc, ref_banks, ref_skipped = loop_scatter(arch, layer, w_blocks, tiles, gi, pe)
        assert np.array_equal(acc, ref_acc)
        assert np.array_equal(bank_totals, ref_banks)
        assert skipped == ref_skipped
        skips.append(skipped)
    return skips


def _operand(rng, shape, density, lo):
    """16-bit operands at the given density, extremes included."""
    vals = rng.integers(lo, 1 << 15, size=shape)
    extremes = rng.random(shape) < 0.2
    vals[extremes] = np.where(rng.random(shape) < 0.5, lo, (1 << 15) - 1)[extremes]
    return vals * (rng.random(shape) < density)


@st.composite
def scatter_cases(draw, max_groups=2):
    stride = draw(st.integers(1, 4))
    pad = draw(st.integers(0, 2))
    R, S = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    groups = draw(st.integers(1, max_groups))
    C = groups * draw(st.integers(1, 3))
    K = groups * draw(st.integers(1, 4))
    # W = R - 2*pad + stride*n keeps the output size integral; the smallest
    # such n with W >= 1 may leave every output seeing only padding
    W = R - 2 * pad + stride * draw(st.integers(0, 5))
    H = S - 2 * pad + stride * draw(st.integers(0, 5))
    W += stride * max(0, -(-(1 - W) // stride))
    H += stride * max(0, -(-(1 - H) // stride))
    layer = LayerShape("p", C=C, K=K, W=W, H=H, R=R, S=S, stride=stride, pad=pad, groups=groups)
    # grids up to 3x3 over planes as small as 1 leave some PEs empty
    grid = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    banks = draw(st.sampled_from([4, 8, 16, 32]))
    cells = partition_tiles(layer, grid).max_acc_cells()
    # room for 1..K output channels per group, so some layers take several
    per_group = draw(st.integers(1, K))
    arch = ArchConfig(
        pe_rows=grid[0], pe_cols=grid[1], weights_per_fetch=1, acts_per_fetch=1,
        accum_banks=banks, bank_entries=max(1, -(-2 * cells * per_group // banks)),
        index_bits=draw(st.integers(1, 2)), bank_map=draw(st.sampled_from(["mod", "xor"])),
    )
    wd = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    ad = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = DenseTensor(_operand(rng, layer.weight_shape(), wd, -(1 << 15)))
    a = DenseTensor(_operand(rng, layer.input_shape(), ad, 0))
    return arch, layer, w, a


@settings(max_examples=150, deadline=None)
@given(scatter_cases())
def test_scatter_equals_loop_reference(case):
    arch, layer, w, a = case
    w_blocks, tiles = prepare_scnn_inputs(arch, layer, w, a)
    assert_matches_loop_reference(arch, layer, w_blocks, tiles)


@settings(max_examples=100, deadline=None)
@given(scatter_cases(max_groups=3), st.sampled_from(["one", "two", "all"]))
def test_batched_scatter_equals_loop_reference(case, per):
    # a budget for batches of one group, two groups or every group of the
    # layer: each group's accumulators, bank totals and skipped products
    # are those of the per-(PE, channel) loop, however the groups share
    # the passes
    arch, layer, w, a = case
    w_blocks, tiles = prepare_scnn_inputs(arch, layer, w, a)
    groups = choose_kc(layer, arch).groups
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    slots = _slots(plan, max(map(len, groups)), arch.accum_banks, arch.bank_map)
    n = {"one": 1, "two": 2, "all": len(groups)}[per]
    # the budget the batches of n groups just fit, and a byte short of n + 1
    one = 12 * max(map(len, groups)) * (slots.bank[0].size + layer.R * layer.S * layer.C)
    with mock.patch.object(simulator, "_BATCH", n * one + one - 1):
        sizes = [len(b) for b in _batches(len(groups), slots)]
        assert sizes == [min(n, len(groups) - g) for g in range(0, len(groups), n)]
        assert_matches_loop_reference(arch, layer, w_blocks, tiles)


@settings(max_examples=150, deadline=None)
@given(scatter_cases(), st.integers(0, 2**32 - 1), st.sampled_from([1, simulator._MERGE]))
def test_merge_equals_loop_reference(case, seed, budget):
    # the per-axis merge against a per-PE int64 sum, on the scatter's own
    # float64 accumulators and on random ones filling every slot's extent,
    # large enough that a sum rounded anywhere would differ; the most column
    # windows over one x times the most row windows over one y stays below
    # 2**5, so fewer than 2**5 cells land on one coordinate and every
    # partial sum stays below 2**53. A budget of one cell merges the
    # channels one at a time.
    arch, layer, w, a = case
    w_blocks, tiles = prepare_scnn_inputs(arch, layer, w, a)
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    gplan = choose_kc(layer, arch)
    groups = gplan.groups
    slots = _slots(plan, max(map(len, groups)), arch.accum_banks, arch.bank_map)
    acts, _ = _activation_operand(plan, slots, tiles)

    def most_windows(windows, out):
        return max(sum(base + lo <= o < base + hi for lo, hi, base in windows) for o in range(out))

    assert most_windows(slots.x, layer.Wo) * most_windows(slots.y, layer.Ho) < 1 << 5
    rng = np.random.default_rng(seed)
    for batch in _batches(len(groups), slots):
        batch_groups = groups[batch.start : batch.stop]
        kc = sum(map(len, batch_groups))
        noise = np.zeros((kc, *slots.bank.shape[1:]))
        for i, pe in enumerate(slots.pes):
            ex, ey = extents(plan, pe)
            noise[:, :ex, :ey, i] = rng.integers(-(1 << 47), 1 << 47, size=(kc, ex, ey))
        w = _weight_operand(layer, gplan, w_blocks, batch)
        scattered = _scatter(batch_groups, w, acts, slots)[0]
        for acc in (scattered, noise):
            views = [None] * plan.n_pes
            for i, pe in enumerate(slots.pes):
                ex, ey = extents(plan, pe)
                views[pe] = acc[:, :ex, :ey, i].astype(np.int64)
            with mock.patch.object(simulator, "_MERGE", budget):
                plane, halo = _merge_group_plane(acc, slots)
            ref_plane, ref_halo = loop_merge_group_plane(views, plan, kc)
            assert plane.dtype == np.float64
            assert np.array_equal(plane.astype(np.int64), ref_plane)
            assert halo == ref_halo


def test_weight_cells_past_2_31_are_int64():
    # four groups of 2**20 filters over one channel of 32x32 taps: each
    # block's extent is 2**30, so its positions are int32, yet the last tap
    # of the last filter lands in cell 2**32 - 1 of the [C, R, S, nk]
    # operand, which int32 arithmetic (int32 * int stays int32) would wrap;
    # the operand itself is never built
    kc, rs = 1 << 20, 32 * 32
    layer = LayerShape("wide", C=1, K=4 * kc, W=32, H=32, R=32, S=32)
    gplan = GroupPlan(kc, tuple(range(g * kc, (g + 1) * kc) for g in range(4)))
    # built as `encode_blocks` would hold it, without the 2**32 dense values
    blocks = BlockSet(
        values=np.array([5, 7], dtype=np.int32),
        run_lengths=np.array([0, kc * rs - 1], dtype=np.uint32),
        positions=np.array([0, kc * rs - 1], dtype=np.int32),
        offsets=np.array([0, 1, 1, 1, 2]),
        extents=np.full(4, kc * rs),
    )
    at, shape = _weight_cells(layer, gplan, blocks, range(4))
    assert shape == (1, 32, 32, 4 * kc)
    assert at.dtype == np.int64
    assert at.tolist() == [0, (1 << 32) - 1]


def _dense_case(layer, arch, density, seed):
    rng = np.random.default_rng(seed)
    w = DenseTensor(_operand(rng, layer.weight_shape(), density, -(1 << 15)))
    a = DenseTensor(_operand(rng, layer.input_shape(), density, 0))
    return prepare_scnn_inputs(arch, layer, w, a)


def test_scatter_spans_several_chunks():
    # one group whose GEMM output (taps x filters x grid cells) fills
    # three bands, each of whole grid rows
    layer = LayerShape("big", C=4, K=16, W=64, H=64, R=3, S=3, pad=1)
    arch = ArchConfig(pe_rows=1, pe_cols=1, accum_banks=32, bank_entries=4400)
    w_blocks, tiles = _dense_case(layer, arch, 1.0, 3)
    kc = len(choose_kc(layer, arch).groups[0])
    assert kc == layer.K
    assert layer.R * layer.S * kc * layer.W * layer.H > 2 * _BAND
    assert layer.R * layer.S * kc * layer.H <= _BAND
    assert assert_matches_loop_reference(arch, layer, w_blocks, tiles) == [0]


def test_slots_pad_pes_with_smaller_accumulators():
    # ragged tiles: the last column and row are narrower, and the stride-2
    # phases give neighbouring tiles different accumulator extents
    layer = LayerShape("ragged", C=3, K=5, W=11, H=7, R=3, S=3, stride=2, pad=1)
    arch = ArchConfig(pe_rows=2, pe_cols=3, accum_banks=16, bank_entries=3, bank_map="xor")
    w_blocks, tiles = _dense_case(layer, arch, 0.8, 5)
    plan = partition_tiles(layer, (2, 3))
    for ax in (plan.x, plan.y):
        assert len({ax.acc_extent(p) for p in range(len(ax.starts))}) > 1
    # groups of 2, 2 and 1 channels: the last leaves a slot's k padding empty
    assert [len(g) for g in choose_kc(layer, arch).groups] == [2, 2, 1]
    assert len(assert_matches_loop_reference(arch, layer, w_blocks, tiles)) == 6 * 3


def test_group_with_more_cells_than_one_pass():
    # 64 slots x 64 filters x 9 taps x 8 cells in one grid row outgrow a
    # band, which then holds that one row
    layer = LayerShape("wide", C=2, K=64, W=64, H=64, R=3, S=3, pad=1)
    arch = ArchConfig(pe_rows=8, pe_cols=8, accum_banks=32, bank_entries=512)
    w_blocks, tiles = _dense_case(layer, arch, 0.5, 7)
    assert choose_kc(layer, arch).n_groups == 1
    assert layer.R * layer.S * layer.K * (layer.H // 8) * 64 > _BAND
    assert len(assert_matches_loop_reference(arch, layer, w_blocks, tiles)) == 64


def test_channel_sums_past_the_blas_block():
    # a 1x1 layer contracting 2048 channels of 16-bit extremes: BLAS sums
    # the channels in blocks of a few hundred, and every partial sum, up to
    # 2048 * 2**30, must stay exact; one filter's products cancel to 0
    layer = LayerShape("deep", C=2048, K=3, W=4, H=4, R=1, S=1)
    arch = ArchConfig(pe_rows=2, pe_cols=2, accum_banks=16, bank_entries=64)
    rng = np.random.default_rng(11)
    w = rng.choice([-(1 << 15), (1 << 15) - 1, 0], size=layer.weight_shape())
    w[0] = (1 << 15) - 1
    w[2, 0::2], w[2, 1::2] = (1 << 15) - 1, -((1 << 15) - 1)
    a = rng.choice([(1 << 15) - 1, 0], size=layer.input_shape(), p=[0.9, 0.1])
    a[1::2] = a[0::2]
    w_blocks, tiles = prepare_scnn_inputs(arch, layer, DenseTensor(w), DenseTensor(a))
    assert choose_kc(layer, arch).n_groups == 1
    accs = [acc for _, _, acc, _, _ in group_scatters(arch, layer, w_blocks, tiles)]
    assert max(int(np.abs(acc).max()) for acc in accs) > 1 << 40
    assert not any(acc[2].any() for acc in accs)
    assert len(assert_matches_loop_reference(arch, layer, w_blocks, tiles)) == 4


# channels_per_group * R * S * 2**30 must stay below 2**53, i.e. fewer than
# 2**23 = 8388608 products per accumulator cell; 932068 * 9 = 8388612
@pytest.mark.parametrize(
    "cpg,groups,rejected",
    [(932_068, 1, True), (932_067, 1, False), (932_068, 2, True), (932_067, 2, False)],
)
def test_float64_exactness_bound(cpg, groups, rejected):
    layer = LayerShape(
        "huge", C=cpg * groups, K=groups, W=1, H=1, R=3, S=3, pad=1, groups=groups
    )
    arch = ArchConfig(pe_rows=1, pe_cols=1)

    class Encoded(Exception):
        """`prepare_scnn_inputs` was reached."""

    # the bound reads only the layer, so the operands are never looked at:
    # a refused layer encodes nothing, an accepted one goes on to encode
    outcome = (
        pytest.raises(ConfigurationError, match="exact float64") if rejected
        else pytest.raises(Encoded)
    )
    with mock.patch.object(simulator, "prepare_scnn_inputs", side_effect=Encoded) as prepare, \
            mock.patch.object(codec, "encode_blocks") as enc, outcome:
        simulate_scnn_layer(arch, layer, mock.sentinel.weights, mock.sentinel.acts, 0)
    assert prepare.call_count == (0 if rejected else 1)
    assert enc.call_count == 0
    if rejected:
        return
    # empty operands build no [C, R, S, nk] weight operand: with its float32
    # mask it alone would take 12 bytes per (tap, filter, channel)
    gplan = choose_kc(layer, arch)
    empty = np.zeros(0, dtype=np.int32)
    w_blocks = encode_blocks(empty, [0] * layer.C * gplan.n_groups, 4)
    tiles = encode_blocks(np.zeros(layer.C, dtype=np.int32), [1] * layer.C, 4)
    plan = partition_tiles(layer, (1, 1))
    slots = _slots(plan, gplan.kc, arch.accum_banks, arch.bank_map)
    tracemalloc.start()
    try:
        acts, _ = _activation_operand(plan, slots, tiles)
        w = _weight_operand(layer, gplan, w_blocks, range(gplan.n_groups))
        acc, bank_totals = _scatter(gplan.groups, w, acts, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is None
    assert not acc.any() and not bank_totals.any()
    assert peak < layer.R * layer.S * layer.C * 12
