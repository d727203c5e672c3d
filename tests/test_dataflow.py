import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    naive_conv,
    per_pe_tiles,
    strided_out_coord,
)
from scnnsim.dataflow import ConfigurationError, LayerShape, choose_kc, partition_tiles
from scnnsim.tensors import gen_synthetic


class Arch:
    def __init__(self, rows=8, cols=8, banks=32, entries=32, dbl=True):
        self.pe_rows = rows
        self.pe_cols = cols
        self.accum_banks = banks
        self.bank_entries = entries
        self.accum_double_buffered = dbl


def layer(**kw):
    base = dict(C=2, K=4, W=8, H=8, R=3, S=3, pad=1)
    base.update(kw)
    return LayerShape(kw.get("name", "l"), **{k: v for k, v in base.items() if k != "name"})


def reached(x0, width, taps, pad, stride):
    """Output coordinates, in the plane or not, that inputs [x0, x0 + width)
    reach through some tap."""
    out = set()
    for x in range(x0, x0 + width):
        for tap in range(taps):
            o, ok = strided_out_coord(x, tap, pad, stride)
            if ok:
                out.add(o)
    return out


class TestPartition:
    def test_even_2x2(self):
        plan = partition_tiles(layer(W=8, H=8), (2, 2))
        for ax in (plan.x, plan.y):
            assert ax.starts == [0, 4] and ax.widths == [4, 4]
            # part 0's accumulator spans outputs [-1, 5): one dead cell, its
            # own [0, 4), and a one-cell halo at 4 owned by the next part
            assert (ax.acc_base(0), ax.acc_extent(0)) == (-1, 6)
            assert ax.out_ranges == [(0, 4), (4, 8)]

    def test_monolithic_grid(self):
        plan = partition_tiles(layer(W=8, H=8), (1, 1))
        for ax in (plan.x, plan.y):
            # the accumulator spans outputs [-1, 9); the one PE owns the plane
            assert (ax.acc_base(0), ax.acc_extent(0)) == (-1, 10)
            assert ax.out_ranges == [(0, 8)]

    def test_tiles_partition_plane_exactly(self):
        lay = layer(W=13, H=11)
        plan = partition_tiles(lay, (4, 3))
        cover = np.zeros((lay.W, lay.H), dtype=int)
        for pe in range(plan.n_pes):
            r, c = divmod(pe, plan.pe_cols)
            x0, y0 = plan.x.starts[c], plan.y.starts[r]
            cover[x0 : x0 + plan.x.widths[c], y0 : y0 + plan.y.widths[r]] += 1
        assert (cover == 1).all()

    def test_ragged_with_empty_tiles(self):
        lay = layer(W=13, H=13)
        plan = partition_tiles(lay, (8, 8))
        # 13 inputs in parts 2 wide leave the last part of each axis empty
        assert plan.x.widths[-1] == plan.y.widths[-1] == 0

    @pytest.mark.parametrize(
        "w,h,grid,r,s,pad,stride",
        [
            (13, 13, (8, 8), 3, 3, 1, 1),
            (8, 8, (2, 2), 3, 3, 1, 1),
            (9, 7, (3, 2), 5, 3, 2, 1),
            (12, 12, (4, 4), 3, 3, 0, 1),
            (17, 17, (4, 4), 5, 5, 2, 2),
            (6, 6, (8, 8), 1, 1, 0, 1),
        ],
    )
    def test_output_ownership_covers_exactly_once(self, w, h, grid, r, s, pad, stride):
        lay = layer(W=w, H=h, R=r, S=s, pad=pad, stride=stride)
        plan = partition_tiles(lay, grid)
        seen = np.zeros((lay.Wo, lay.Ho), dtype=int)
        for pe in range(plan.n_pes):
            row, col = divmod(pe, plan.pe_cols)
            (xl, xh), (yl, yh) = plan.x.out_ranges[col], plan.y.out_ranges[row]
            seen[xl:xh, yl:yh] += 1
        assert (seen == 1).all()
        for ax, taps in ((plan.x, r), (plan.y, s)):
            for p in range(len(ax.starts)):
                lo, hi = ax.out_ranges[p]
                if ax.widths[p] == 0:
                    assert (lo, hi, ax.acc_extent(p)) == (0, 0, 0)
                    continue
                # the accumulator window is exactly the outputs the part's
                # inputs reach, so every in-plane cell of it has an owner
                base, extent = ax.acc_base(p), ax.acc_extent(p)
                reach = reached(ax.starts[p], ax.widths[p], taps, pad, stride)
                assert reach == set(range(base, base + extent))
                # and holds every output the part owns, which the halo merge
                # needs
                if lo < hi:
                    assert base <= lo and hi <= base + extent

    @settings(max_examples=300, deadline=None)
    @given(
        w=st.integers(1, 40), h=st.integers(1, 40), r=st.integers(1, 11),
        s=st.integers(1, 11), pad=st.integers(0, 6), stride=st.integers(1, 5),
        rows=st.integers(1, 9), cols=st.integers(1, 9),
    )
    def test_per_axis_classes_match_the_per_pe_walk(self, w, h, r, s, pad, stride, rows, cols):
        assume(all(
            (span + 2 * pad - tap) >= 0 and (span + 2 * pad - tap) % stride == 0
            for span, tap in ((w, r), (h, s))
        ))
        lay = LayerShape("axes", C=1, K=1, W=w, H=h, R=r, S=s, pad=pad, stride=stride)
        plan = partition_tiles(lay, (rows, cols))
        classes, max_cells, cells = per_pe_tiles(lay, rows, cols)
        # the order matters: count_events sums the classes in this order
        assert plan.tile_classes() == classes
        assert plan.max_acc_cells() == max_cells
        # every engine's accumulator drains per output channel
        assert plan.acc_cells() == cells
        # an input of padded phase q meets the taps of phase q, and the
        # analytic engine counts the plane's inputs per phase too
        for ax, span, taps in ((plan.x, w, r), (plan.y, h, s)):
            tap_phases = [t % stride for t in range(taps)]
            assert ax.phase_taps == tuple(map(tap_phases.count, range(stride)))
            phases = [(x + pad) % stride for x in range(span)]
            assert ax.phase_inputs(0, span) == tuple(map(phases.count, range(stride)))

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_tiles(layer(), (0, 2))


class TestChooseKc:
    def test_ample_capacity_single_group(self):
        plan = choose_kc(layer(K=8, W=8, H=8), Arch(2, 2))
        assert plan.kc == 8
        assert plan.n_groups == 1

    def test_k_equal_one(self):
        plan = choose_kc(layer(K=1), Arch())
        assert plan.kc == 1
        assert plan.n_groups == 1

    def test_capacity_forces_groups(self):
        # 2x2 grid on 12x12 plane: 6x6 tiles, 8x8 accumulator = 64 cells,
        # 512 double-buffered entries -> Kc = 8 -> 8 groups of 8
        lay = layer(K=64, W=12, H=12)
        plan = choose_kc(lay, Arch(2, 2))
        assert plan.kc == 8
        assert plan.n_groups == 8

    def test_ragged_last_group(self):
        lay = layer(K=20, W=12, H=12)
        plan = choose_kc(lay, Arch(2, 2))
        assert [len(g) for g in plan.groups] == [8, 8, 4]

    def test_single_buffer_fallback_for_huge_tiles(self):
        lay = layer(K=4, W=224, H=224, C=1)
        plan = choose_kc(lay, Arch(8, 8))
        assert plan.kc == 1
        assert not plan.double_buffered

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            choose_kc(layer(W=64, H=64), Arch(1, 1, banks=4, entries=4))

    @given(
        groups=st.integers(1, 4), kpg=st.integers(1, 4), lo=st.integers(0, 16),
        n=st.integers(0, 16),
    )
    def test_conv_spans_split_a_run_at_group_boundaries(self, groups, kpg, lo, n):
        lay = layer(C=groups, K=groups * kpg, groups=groups)
        ks = range(min(lo, lay.K), min(lo + n, lay.K))
        spans = lay.conv_spans(ks)
        assert len(spans) == groups
        # each is its group's filters in the run, an empty range if none
        for g, span in enumerate(spans):
            assert list(span) == [k for k in ks if k // kpg == g]


class TestOutputCoord:
    def test_strided_skip(self):
        xo, ok = strided_out_coord(5, 0, 0, 4)
        assert not ok
        xo, ok = strided_out_coord(8, 0, 0, 4)
        assert ok and xo == 2


def scatter_reference(lay, weights, acts, grid):
    """Scatter every non-zero product through the plan's coordinate math and
    merge halos by global coordinate; must equal the convolution exactly."""
    plan = partition_tiles(lay, grid)
    full = np.zeros((lay.K, lay.Wo, lay.Ho), dtype=np.int64)
    cpg, kpg = lay.channels_per_group, lay.filters_per_group
    for pe in range(plan.n_pes):
        row, col = divmod(pe, plan.pe_cols)
        x0, wt = plan.x.starts[col], plan.x.widths[col]
        y0, ht = plan.y.starts[row], plan.y.widths[row]
        for c in range(lay.C):
            g = c // cpg
            for k in range(g * kpg, (g + 1) * kpg):
                for r in range(lay.R):
                    for s in range(lay.S):
                        wv = int(weights.values[k, c % cpg, r, s])
                        if wv == 0:
                            continue
                        for x in range(wt):
                            for y in range(ht):
                                av = int(acts.values[c, x0 + x, y0 + y])
                                if av == 0:
                                    continue
                                xo, okx = strided_out_coord(x0 + x, r, lay.pad, lay.stride)
                                yo, oky = strided_out_coord(y0 + y, s, lay.pad, lay.stride)
                                if not (okx and oky):
                                    continue
                                if 0 <= xo < lay.Wo and 0 <= yo < lay.Ho:
                                    full[k, xo, yo] += wv * av
    return full


class TestScatterEquivalence:
    @pytest.mark.parametrize(
        "kw,grid",
        [
            (dict(C=2, K=3, W=6, H=6, R=3, S=3, pad=1), (2, 2)),
            (dict(C=2, K=2, W=7, H=5, R=3, S=3, pad=0), (3, 2)),
            (dict(C=3, K=4, W=8, H=8, R=5, S=5, pad=2), (2, 3)),
            (dict(C=2, K=2, W=9, H=9, R=3, S=3, pad=1, stride=2), (2, 2)),
            (dict(C=4, K=4, W=6, H=6, R=3, S=3, pad=1, groups=2), (2, 2)),
        ],
    )
    def test_scatter_matches_conv(self, kw, grid):
        lay = LayerShape("scatter", **kw)
        w = gen_synthetic(lay.weight_shape(), 0.6, seed=11)
        a = gen_synthetic(lay.input_shape(), 0.6, seed=12, signed=False)
        got = scatter_reference(lay, w, a, grid)
        expect = naive_conv(lay, w.values.tolist(), a.values.tolist())
        assert got.tolist() == expect
