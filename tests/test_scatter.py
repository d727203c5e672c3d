"""The vectorised (PE, group) scatter against a per-channel loop reference.

`loop_scatter` is the straightforward form of the Cartesian-product scatter:
for each input channel, form every weight x activation product, drop those
the stride skips, and add the rest into the accumulator with `np.add.at` in
int64. The simulator's phase-matched, chunked, float64 `bincount` scatter
must reproduce it exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scnnsim.codec import decode_entries
from scnnsim.dataflow import ConfigurationError, choose_kc, partition_tiles
from scnnsim.simulator import (
    _SCATTER_CHUNK,
    ArchConfig,
    WeightStream,
    _activation_entries,
    _scatter_group,
    _weight_entries,
    prepare_scnn_inputs,
    simulate_scnn_layer,
)
from scnnsim.tensors import ACT_ROLES, WEIGHT_ROLES, DenseTensor, LayerShape


def loop_scatter(arch, layer, stream, tiles, gi, pe):
    """(acc, bank_totals, stride_skipped) of one PE and group, one
    `np.add.at` per input channel."""
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    t = plan.tile(pe)
    kc = len(stream.gplan.groups[gi])
    xb, yb = plan.acc_base(pe)
    ex, ey = plan.acc_extent(pe)
    banks = arch.accum_banks
    acc = np.zeros((kc, ex, ey), dtype=np.int64)
    bank_totals = np.zeros(banks, dtype=np.int64)
    skipped = 0
    rs = layer.R * layer.S
    for c, block in tiles[pe].items():
        wblock = stream.block(gi, c)
        if wblock is None:
            continue
        avals, apos = decode_entries(block)
        wvals, wpos = decode_entries(wblock)
        xs = t.x0 + apos // t.ht
        ys = t.y0 + apos % t.ht
        wk = stream.k_offset[(gi, c)] + wpos // rs
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


def _operand(rng, shape, density, lo):
    """16-bit operands at the given density, extremes included."""
    vals = rng.integers(lo, 1 << 15, size=shape)
    extremes = rng.random(shape) < 0.2
    vals[extremes] = np.where(rng.random(shape) < 0.5, lo, (1 << 15) - 1)[extremes]
    return vals * (rng.random(shape) < density)


@st.composite
def scatter_cases(draw):
    stride = draw(st.integers(1, 4))
    pad = draw(st.integers(0, 2))
    R, S = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    groups = draw(st.integers(1, 2))
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
    w = DenseTensor(_operand(rng, layer.weight_shape(), wd, -(1 << 15)), WEIGHT_ROLES)
    a = DenseTensor(_operand(rng, layer.input_shape(), ad, 0), ACT_ROLES)
    return arch, layer, w, a


@settings(max_examples=150, deadline=None)
@given(scatter_cases())
def test_scatter_equals_loop_reference(case):
    arch, layer, w, a = case
    stream, tiles = prepare_scnn_inputs(arch, layer, w, a)
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    w_groups = _weight_entries(layer, stream)
    for pe in range(arch.n_pes):
        if plan.tile(pe).empty:
            continue
        acts = _activation_entries(plan, pe, tiles[pe])
        for gi, group in enumerate(stream.gplan.groups):
            acc, bank_totals, skipped = _scatter_group(
                w_groups[gi], acts, len(group), plan.acc_base(pe),
                plan.acc_extent(pe), arch.accum_banks, arch.bank_map,
            )
            ref_acc, ref_banks, ref_skipped = loop_scatter(arch, layer, stream, tiles, gi, pe)
            assert acc.dtype == np.int64
            assert np.array_equal(acc, ref_acc)
            assert np.array_equal(bank_totals, ref_banks)
            assert skipped == ref_skipped


def test_scatter_spans_several_chunks():
    # one (PE, group) with far more pairs than one bincount pass holds
    layer = LayerShape("big", C=4, K=8, W=24, H=24, R=3, S=3, pad=1)
    arch = ArchConfig(pe_rows=1, pe_cols=1, accum_banks=32, bank_entries=512)
    rng = np.random.default_rng(3)
    w = DenseTensor(_operand(rng, layer.weight_shape(), 1.0, -(1 << 15)), WEIGHT_ROLES)
    a = DenseTensor(_operand(rng, layer.input_shape(), 1.0, 0), ACT_ROLES)
    stream, tiles = prepare_scnn_inputs(arch, layer, w, a)
    plan = partition_tiles(layer, (1, 1))
    w_groups = _weight_entries(layer, stream)
    acts = _activation_entries(plan, 0, tiles[0])
    kc = len(stream.gplan.groups[0])
    assert kc * layer.C * layer.R * layer.S * layer.W * layer.H > 4 * _SCATTER_CHUNK
    got = _scatter_group(
        w_groups[0], acts, kc, plan.acc_base(0), plan.acc_extent(0), 32, "mod"
    )
    ref = loop_scatter(arch, layer, stream, tiles, 0, 0)
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    assert got[2] == ref[2] == 0


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
    stream = WeightStream(layer, choose_kc(layer, arch), {}, {})
    if rejected:
        with pytest.raises(ConfigurationError, match="exact float64"):
            simulate_scnn_layer(arch, layer, stream, [{}])
    else:
        _, report = simulate_scnn_layer(arch, layer, stream, [{}])
        assert report.useful_mults == 0
