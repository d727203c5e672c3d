"""Cycle-level functional simulation of the sparse PE array, plus the count
of useful multiplies, products of two non-zero operands that land on a
valid output, that every row of a layer reads (`_gated_mults`).

The sparse pipeline is simulated exactly: compressed operands are fetched in
vectors of F weights x I activations of one channel and stride phase
(below), every operand pair is multiplied, and each product is scattered to
a banked accumulator addressed by its output coordinate. Work is counted
per (PE, output-channel group): the base cost is the number of F x I
vector batches, and accumulator contention adds stalls when the hottest
bank's total demand exceeds the batch count (banks retire one product per
cycle; elastic queues absorb transient imbalance within a group).
`analytic.scnn_events`, the cost rule both engines share, turns the counts
into events and cycles: a barrier at each group boundary charges every PE
the time of the slowest one.

`simulate_scnn_layer` takes a layer's dense weights and activations and
compresses them itself (`prepare_scnn_inputs`), as the machine does: no
caller hands it an encoding, so it trusts the block counts and extents of
the sets it made. On the host, operands stay columnar (`codec.BlockSet`),
and every stage of a layer outside the scatter is a few array passes, never
a loop over PEs or channels. A layer makes three `codec.encode_blocks`
calls, whatever its group count: its weights (block g * C + c: group g's
filters of input channel c), the activation tiles of every PE (block
pe * C + c), dropped once their phase grids are built, and its outputs
(block pe * K + k). Nothing is encoded or decoded block by block:
the scatter reads each set's flat values and the dense positions derived
from its runs, and `LayerOutput.decoded` rebuilds the plane from them with
one scatter. Operands, output planes and block values are int32, and block
positions int32 below 2**31; index arithmetic that may pass 2**31 runs in
int64. The accumulators, whose sums may outgrow 24 bits before their check,
are float64 and exact (below); the PPU merges them in place and narrows the
checked plane to int32.

The hardware works through a layer one output-channel group at a time; the
host scatters batches of consecutive groups (`_batches`, sized by the
_BATCH byte budget), each over every live PE at once, as the weights are
broadcast to all of them, into accumulators laid out uniformly as
[k, EX, EY, slot] (`_Slots`). A PE's tile, accumulator window and owned
outputs are its column's along x times its row's along y, so the layout,
the activation grids and the merge read the PE grid only through the plan's
two axes (`TilePlan.x`, `TilePlan.y`), and the drains every engine counts
are the plan's (`TilePlan.acc_cells`). A product lands only when the
stride phases of its tap (r % stride) and its activation ((x + pad) %
stride) agree in both axes, so the array pairs each phase's weights only
with that phase's activations: a product the stride skips is neither
formed nor counted. All products of one (filter, tap, activation position)
land in one cell, whose sum and count are all that is read, so the scatter contracts
the input channels first, in a float64 GEMM of the values and a float32
GEMM of the 0/1 masks of stored entries (`_scatter`). Both are exact in any
order of addition. Products of 16-bit operands are integers below 2**30,
so every partial sum of a cell is an integer below
channels_per_group * R * S * 2**30, which `simulate_scnn_layer` keeps
below 2**53; every count is an integer below 2**23, which float32 holds.
Every product of an output lands in exactly one PE's cell, so the PPU's
merged sum is a sum of distinct products of that output and as exact as a
cell. The cycle model then works on every group at once from the
per-group counts, reading every stored count, of weights, activations and
outputs, off its block set's offsets.

Functional equivalence is the master contract: the decoded, halo-merged,
ReLU'd (and optionally pooled) outputs equal the exact reference convolution
bit for bit.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import codec
from .analytic import (
    VARIANT_DCNN,
    VARIANT_DCNN_OPT,
    VARIANT_SCNN,
    ArchConfig,
    PoolSpec,
    SimReport,
    dense_baseline,
    scnn_events,
)
from .codec import BlockSet
from .dataflow import (
    ConfigurationError,
    GroupPlan,
    LayerShape,
    ShapeError,
    TilePlan,
    choose_kc,
    partition_tiles,
    plane_partition,
)
from .record import Record
from .tensors import (
    ACCUM_BITS,
    EXACT_FLOAT_BITS,
    PRODUCT_BITS,
    DenseTensor,
    check_operand_range,
    check_range,
)


def compress_weights(
    layer: LayerShape, gplan: GroupPlan, weights: DenseTensor, index_bits: int
) -> BlockSet:
    """Encode pruned weights for broadcast to the PEs, every output-channel
    group in one block set: block g * C + c holds input channel c of group
    g, linearized k-major then r then s over the group's filters in c's
    convolution group (`LayerShape.conv_spans`; extent 0 when there are
    none)."""
    check_operand_range(weights, "weight")
    if weights.shape != layer.weight_shape():
        raise ConfigurationError(
            f"weights {weights.shape} do not match layer {layer.weight_shape()}"
        )
    parts, extents = [], []
    for grp in gplan.groups:
        for ks in layer.conv_spans(grp):
            # [k, c, r, s] -> one row per channel of this convolution group
            parts.append(weights.values[ks.start : ks.stop].transpose(1, 0, 2, 3).reshape(-1))
            extents += [len(ks) * layer.R * layer.S] * layer.channels_per_group
    return codec.encode_blocks(np.concatenate(parts), extents, index_bits)


def distribute_activations(plan: TilePlan, acts: DenseTensor, index_bits: int) -> BlockSet:
    """Every PE's compressed tile in one block set: block pe * C + c holds
    PE pe's channel c, x-major then y within the tile (extent 0 on an idle
    PE)."""
    check_operand_range(acts, "activation")
    if acts.shape != plan.layer.input_shape():
        raise ConfigurationError(
            f"activations {acts.shape} do not match layer {plan.layer.input_shape()}"
        )
    if acts.size and int(acts.values.min()) < 0:
        raise ConfigurationError("input activations must be non-negative (post ReLU)")
    return _encode_pe_major(acts.values, plan.pe_rows, plan.pe_cols, index_bits)


def _encode_pe_major(planes: np.ndarray, pe_rows: int, pe_cols: int, index_bits: int) -> BlockSet:
    """Every PE's rectangle (`_rects`) of the [k, W, H] planes in one block
    set, block pe * k + c its channel c x-major then y, from a PE-major
    stream in the planes' own dtype (int32 for the operands and outputs)
    that copies each value once, as the rectangles partition the plane."""
    k, at = planes.shape[0], 0
    rects = _rects(planes.shape[1], planes.shape[2], pe_rows, pe_cols)
    dense = np.empty(planes.size, dtype=planes.dtype)
    for x, dx, y, dy in rects:
        dense[at : at + k * dx * dy].reshape(k, dx, dy)[...] = planes[:, x : x + dx, y : y + dy]
        at += k * dx * dy
    extents = np.repeat([dx * dy for _, dx, _, dy in rects], k)
    return codec.encode_blocks(dense, extents, index_bits)


def prepare_scnn_inputs(
    arch: ArchConfig, layer: LayerShape, weights: DenseTensor, acts: DenseTensor
) -> tuple[BlockSet, BlockSet]:
    """Plan the layer and compress/distribute dense operands for the array:
    the weights of every group and every PE's activation tiles.
    `simulate_scnn_layer` calls it by its module-level name, so wrapping
    that name sees each layer's operands."""
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    weight_blocks = compress_weights(layer, choose_kc(layer, arch), weights, arch.index_bits)
    return weight_blocks, distribute_activations(plan, acts, arch.index_bits)


def _bank_ids(linear: np.ndarray, banks: int, bank_map: str) -> np.ndarray:
    if bank_map == "xor":
        return ((linear >> 5) ^ linear) % banks
    return linear % banks


# Elements of one GEMM output band, which with its float32 count twin
# bounds the scatter's temporaries; a band holds at least one grid row.
_BAND = 1 << 18

# Bytes of float64 values and float32 counts that one scatter pass holds,
# in its accumulators and its weight operand: the consecutive output-channel
# groups that fit share one pass over the activation grids, and a batch
# holds at least one group. Past a few MB a larger pass saves no grid reads
# worth its cache misses.
_BATCH = 1 << 23

# Accumulator cells the PPU merges in one pass, whose band then stays in cache.
_MERGE = 1 << 16


class _Slots(Record):
    """A layer's uniform accumulator layout [kc, EX, EY, slot], the memory
    order the scatter fills: kc is the largest group and (EX, EY) the
    largest extents (a slot fits the capacity `choose_kc` sized). The live
    PEs are the first nr row parts times the first nc column parts, as
    `plane_partition` leaves only trailing parts empty: slot i = r * nc + c
    is PE r * pe_cols + c, so the layout is also [kc, EX, EY, nr, nc]. The
    grid is held per axis only: the PE's own accumulator is [:kc, :ex, :ey,
    i], ex being its column's `acc_extent` and ey its row's. `bank` holds
    every cell's i * n_banks + bank, the bank taken from the PE's own
    address (k * ex + x) * ey + y.

    Per live column in `x` and live row in `y`: (lo, hi, base), its cells
    [lo, hi) being those in the plane, on outputs base + lo onward. `halo`
    holds the in-plane cells outside their PE's owned rectangle."""

    plan: TilePlan
    pes: list[int]
    bank: np.ndarray      # [kc, EX, EY, slot]
    n_banks: int
    x: list[tuple[int, int, int]]
    y: list[tuple[int, int, int]]
    halo: np.ndarray


def _windows(ax, out: int):
    """Each live part's (lo, hi, base) along one axis (`_Slots`), the parts'
    extents, and [most extent, parts] masks of each part's cells in the
    plane and of those on its own outputs."""
    parts = [(ax.acc_base(p), ax.acc_extent(p)) for p, width in enumerate(ax.widths) if width]
    windows = [(max(0, -b), min(e, out - b), b) for b, e in parts]
    (lo, hi, base), (o_lo, o_hi) = np.array(windows).T, np.array(ax.out_ranges[: len(parts)]).T
    extents = np.array([e for _, e in parts])
    e = np.arange(extents.max())[:, None]
    return windows, extents, (e >= lo) & (e < hi), (e + base >= o_lo) & (e + base < o_hi)


def _slots(plan: TilePlan, kc: int, banks: int, bank_map: str) -> _Slots:
    xs, ex, in_x, own_x = _windows(plan.x, plan.layer.Wo)
    ys, ey, in_y, own_y = _windows(plan.y, plan.layer.Ho)
    # each live column's ex and live row's ey, broadcast over [k, x, y, r, c]
    nr, nc = ey.size, ex.size
    k, x, y, r, c = np.ogrid[:kc, : ex.max(), : ey.max(), :nr, :nc]
    ids = _bank_ids((k * ex[c] + x) * ey[r] + y, banks, bank_map) + (r * nc + c) * banks
    bank = ids.reshape(*ids.shape[:3], nr * nc)
    # halo cells are in the plane along both axes, but not owned along both
    inside, owned = in_x[:, None, None] & in_y[:, :, None], own_x[:, None, None] & own_y[:, :, None]
    halo = np.flatnonzero(inside & ~owned)
    pes = [r * plan.pe_cols + c for r in range(nr) for c in range(nc)]
    return _Slots(plan, pes, bank, banks, xs, ys, halo)


def _batches(n_groups: int, slots: _Slots) -> list[range]:
    """Runs of consecutive output-channel groups whose accumulators and
    weights, 12 bytes a cell or a (tap, filter, channel), fit _BATCH bytes
    together."""
    layer = slots.plan.layer
    kc, EX, EY, n_slots = slots.bank.shape
    per_group = 12 * kc * (n_slots * EX * EY + layer.R * layer.S * layer.C)
    per = max(1, _BATCH // per_group)
    return [range(g, min(g + per, n_groups)) for g in range(0, n_groups, per)]


def _weight_cells(
    layer: LayerShape, gplan: GroupPlan, blocks: BlockSet, batch: range
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Each stored weight's flat int64 index into the weight operand of the
    output-channel groups `batch`, and the operand's shape [C, R, S, nk]:
    column j is the batch's j-th filter, nk being the batch's filters, and
    channel c holds weights only in the columns of c's convolution group."""
    C, rs = layer.C, layer.R * layer.S
    offsets = blocks.offsets[batch.start * C : batch.stop * C + 1]
    groups = gplan.groups[batch.start : batch.stop]
    k0, nk = groups[0].start, groups[-1].stop - groups[0].start
    # block (g, c) starts at g's first filter in c's convolution group
    starts = [[ks.start - k0 for ks in layer.conv_spans(grp)] for grp in groups]
    first = np.repeat(starts, layer.channels_per_group, axis=1)
    k, tap = np.divmod(blocks.positions[offsets[0] : offsets[-1]].astype(np.int64), rs)
    at = tap * nk + k + np.repeat((np.arange(C) * (rs * nk) + first).reshape(-1), np.diff(offsets))
    return at, (C, layer.R, layer.S, nk)


def _weight_operand(
    layer: LayerShape, gplan: GroupPlan, blocks: BlockSet, batch: range
) -> tuple[np.ndarray, np.ndarray] | None:
    """The weights of the output-channel groups `batch` (consecutive
    indices into the group plan), shared by every PE: float64 values and a
    float32 0/1 mask of the stored entries, placeholders included, both
    [C, R, S, nk] (`_weight_cells`); None when the batch stores nothing."""
    lo, hi = blocks.offsets[batch.start * layer.C], blocks.offsets[batch.stop * layer.C]
    if lo == hi:
        return None
    at, shape = _weight_cells(layer, gplan, blocks, batch)
    vals, mask = np.zeros(shape), np.zeros(shape, dtype=np.float32)
    vals.reshape(-1)[at] = blocks.values[lo:hi]
    mask.reshape(-1)[at] = 1
    return vals, mask


def _weight_phases(layer: LayerShape, blocks: BlockSet) -> np.ndarray:
    """Stored weights per (group, channel, tap phase (r % stride) * stride +
    s % stride), [group, C * stride**2], at stride 1 read off the offsets."""
    st = layer.stride
    if st == 1:
        return np.diff(blocks.offsets).reshape(-1, layer.C)
    r, s = np.divmod(blocks.positions % (layer.R * layer.S), layer.S)
    ids = np.repeat(np.arange(len(blocks)), np.diff(blocks.offsets))
    phase = (ids * st + r % st) * st + s % st
    return np.bincount(phase, minlength=len(blocks) * st * st).reshape(-1, layer.C * st * st)


def _activation_operand(
    plan: TilePlan, slots: _Slots, tiles: BlockSet
) -> tuple[tuple[dict, dict], np.ndarray]:
    """The activations of every live PE, built once per layer: float64
    values and float32 0/1 masks of the stored entries, placeholders
    included, keyed by stride phase (px, py), each a [C, GX * GY * slot]
    grid; no key holds an activation that meets no tap. Also the stored
    entries per (PE, channel, phase px * stride + py), [PE, C * stride**2],
    at stride 1 read off the offsets.

    Along x, an activation at padded x of phase px = x % stride meets the
    rq = plan.x.phase_taps[px] taps r = px + stride * i, and tap i sends it
    to accumulator row x // stride - xb - i. Every product lands in [0, ex),
    so the activation sits in row g = x // stride - xb - (rq - 1) of a grid
    GX = EX - rq + 1 rows deep, and tap i reaches row g + rq - 1 - i;
    likewise along y. The grid of phase (px, py) is [C, GX, GY, slot]. It
    is filled in passes of whole blocks (`codec._passes`), so per-entry
    temporaries stay small however many millions of entries a layer
    holds."""
    layer, ax, ay, rows, cols = plan.layer, plan.x, plan.y, plan.pe_rows, plan.pe_cols
    s, pad, C = layer.stride, layer.pad, layer.C
    _, EX, EY, n_slots = slots.bank.shape
    # per PE r * cols + c, only live ones holding entries: its column's
    # terms tiled over the rows, its row's repeated, its slot r * nc + c
    x0, xb = (np.tile(t, rows) for t in (ax.starts, [ax.acc_base(c) for c in range(cols)]))
    y0, ht, yb = (
        np.repeat(t, cols) for t in (ay.starts, ay.widths, [ay.acc_base(r) for r in range(rows)])
    )
    slot = np.repeat(np.arange(rows) * len(slots.x), cols) + np.tile(np.arange(cols), rows)
    taps = np.array([ax.phase_taps, ay.phase_taps])
    grid = np.array([[EX], [EY]]) - taps + 1
    live = np.outer((taps[0] > 0) & (grid[0] > 0), (taps[1] > 0) & (grid[1] > 0))
    live &= tiles.values.size > 0
    size = np.where(live, C * n_slots * np.outer(grid[0], grid[1]), 0)
    base = (np.cumsum(size) - size.reshape(-1)).reshape(s, s)
    vals, mask = np.zeros(size.sum()), np.zeros(size.sum(), dtype=np.float32)
    stored = np.diff(tiles.offsets) if s == 1 else np.zeros(len(tiles) * s * s, dtype=np.int64)
    for b0, b1 in codec._passes(tiles.offsets):
        lo, hi = tiles.offsets[b0], tiles.offsets[b1]
        ids = np.repeat(np.arange(b0, b1), np.diff(tiles.offsets[b0 : b1 + 1]))
        v = tiles.values[lo:hi]
        pe, c = np.divmod(ids, C)
        # ht is int64, so every coordinate and index below is int64
        x, y = np.divmod(tiles.positions[lo:hi], ht[pe])
        x, px = np.divmod(x + x0[pe] + pad, s)
        y, py = np.divmod(y + y0[pe] + pad, s)
        if s > 1:
            phase = ((ids - b0) * s + px) * s + py
            stored[b0 * s * s : b1 * s * s] += np.bincount(phase, minlength=(b1 - b0) * s * s)
        keep = live[px, py]
        if not keep.all():
            pe, c, x, y, px, py, v = (t[keep] for t in (pe, c, x, y, px, py, v))
        x -= xb[pe] + taps[0, px] - 1
        y -= yb[pe] + taps[1, py] - 1
        at = base[px, py] + ((c * grid[0, px] + x) * grid[1, py] + y) * n_slots + slot[pe]
        vals[at] = v
        mask[at] = 1
    spans = {
        (px, py): slice(base[px, py], base[px, py] + size[px, py])
        for px, py in zip(*np.nonzero(live))
    }
    return (
        {p: vals[span].reshape(C, -1) for p, span in spans.items()},
        {p: mask[span].reshape(C, -1) for p, span in spans.items()},
    ), stored.reshape(-1, C * s * s)


def _scatter(
    groups: tuple[range, ...], w: tuple | None, a: tuple[dict, dict], slots: _Slots
) -> tuple[np.ndarray, np.ndarray]:
    """Every phase-matched product of a batch of consecutive output-channel
    groups on every live PE: the float64 [k, EX, EY, slot] accumulators over
    the batch's filters, each an exact integer, and per group each slot's
    products per bank. `w` is the batch's `_weight_operand` and `a` the
    layer's `_activation_operand`.

    Per stride phase and convolution group, one GEMM contracts the input
    channels of the phase's taps (rows tap, k) with its activation grid
    (columns x, y, slot), and the same GEMM on the masks counts the
    products; the rows cover every filter of the batch, so the grid is read
    once per batch, not once per group. Each tap's rows then add into the
    accumulators as one slice, shifted by the tap (`_activation_operand`).
    Slots run innermost, so a slice's contiguous runs span every slot. The
    GEMM output is made in bands of whole grid rows, about _BAND values
    each. Each group's cells stay its own, so its bank totals are those of
    a pass of its own."""
    plan = slots.plan
    layer, s = plan.layer, plan.layer.stride
    _, EX, EY, n_slots = slots.bank.shape
    k0, k1 = groups[0].start, groups[-1].stop
    acc = np.zeros((k1 - k0, EX, EY, n_slots))
    landed = np.zeros((k1 - k0, EX, EY, n_slots), dtype=np.float32)
    if w is not None:
        (w_vals, w_mask), (a_vals, a_mask) = w, a
        cpg = layer.channels_per_group
        # the columns and channels of each convolution group storing weights
        conv_groups = [
            (slice(ks.start - k0, ks.stop - k0), slice(g * cpg, (g + 1) * cpg))
            for g, ks in enumerate(layer.conv_spans(range(k0, k1)))
            if ks and w_mask[g * cpg : (g + 1) * cpg].any()
        ]
        for (px, py), a_phase in a_vals.items():
            rq, sq = plan.x.phase_taps[px], plan.y.phase_taps[py]
            GX, GY = EX - rq + 1, EY - sq + 1
            shifts = [(rq - 1 - i, sq - 1 - j) for i in range(rq) for j in range(sq)]
            wv, wm = w_vals[:, px::s, py::s], w_mask[:, px::s, py::s]
            for ks, cs in conv_groups:
                kg = ks.stop - ks.start
                passes = [
                    (wv[cs, :, :, ks].reshape(cpg, -1).T, a_phase[cs], acc),
                    (wm[cs, :, :, ks].reshape(cpg, -1).T, a_mask[px, py][cs], landed),
                ]
                rows = max(1, _BAND // (len(shifts) * kg * GY * n_slots))
                for g0 in range(0, GX, rows):
                    g1 = min(GX, g0 + rows)
                    cols = slice(g0 * GY * n_slots, g1 * GY * n_slots)
                    for wmat, amat, out in passes:
                        m = (wmat @ amat[:, cols]).reshape(len(shifts), kg, g1 - g0, GY, n_slots)
                        for j, (dx, dy) in enumerate(shifts):
                            out[ks, g0 + dx : g1 + dx, dy : dy + GY] += m[j]
    # a group's bank of cell (k, x, y) is that of its own filter k - start
    bank_totals = np.stack([
        np.bincount(
            slots.bank[: len(g)].reshape(-1),
            landed[g.start - k0 : g.stop - k0].reshape(-1),
            n_slots * slots.n_banks,
        )
        for g in groups
    ]).astype(np.int64).reshape(len(groups), n_slots, -1)
    return acc, bank_totals


def _merge_group_plane(acc: np.ndarray, slots: _Slots) -> tuple[np.ndarray, int]:
    """Sum every slot's accumulator cells at their global coordinates, one
    axis at a time, in the accumulators' dtype and about _MERGE cells at a
    time: each live column adds its in-plane cells into a band [k, Wo, EY,
    nr], then each live row its in-plane cells of the band into [k, Wo, Ho].

    Cells whose output coordinate falls outside the plane are dropped; the
    non-zero cells outside a PE's owned rectangle are the halo traffic."""
    layer, kc = slots.plan.layer, len(acc)
    cells = acc.reshape(*acc.shape[:3], len(slots.y), len(slots.x))
    full = np.zeros((kc, layer.Wo, layer.Ho), dtype=acc.dtype)
    step = max(1, _MERGE // max(1, acc[0].size))
    for k in range(0, kc, step):
        band = np.zeros((min(step, kc - k), layer.Wo, *cells.shape[2:4]), dtype=acc.dtype)
        for c, (lo, hi, base) in enumerate(slots.x):
            band[:, base + lo : base + hi] += cells[k : k + step, lo:hi, :, :, c]
        for r, (lo, hi, base) in enumerate(slots.y):
            full[k : k + step, :, base + lo : base + hi] += band[:, :, lo:hi, r]
    return full, int(np.count_nonzero(acc.reshape(kc, -1)[:, slots.halo]))


def max_pool(plane: np.ndarray, pool: PoolSpec) -> np.ndarray:
    """Ceil-mode max pooling over the two trailing axes of [k, W, H], one axis
    at a time, one strided view of the window's offsets after another. Far
    edges that windows overhang are padded with the dtype's least value,
    which no window can return: each starts inside the plane."""
    k, w, h = plane.shape
    win, st = pool.window, pool.stride
    wo, ho = pool.out_extent(w), pool.out_extent(h)
    span = (max(w, (wo - 1) * st + win), max(h, (ho - 1) * st + win))
    if span != (w, h):
        padded = np.full((k, *span), np.iinfo(plane.dtype).min, plane.dtype)
        padded[:, :w, :h] = plane
        plane = padded
    cols = functools.reduce(np.maximum, [plane[:, d : d + st * wo : st] for d in range(win)])
    return functools.reduce(np.maximum, [cols[:, :, d : d + st * ho : st] for d in range(win)])


def _rects(w: int, h: int, pe_rows: int, pe_cols: int) -> list[tuple[int, int, int, int]]:
    """(x_lo, width, y_lo, height) of each PE's share of a w x h plane, in PE
    order: PE r * pe_cols + c takes column part c and row part r."""
    xs, ys = plane_partition(w, pe_cols), plane_partition(h, pe_rows)
    return [(x0, x1 - x0, y0, y1 - y0) for y0, y1 in ys for x0, x1 in xs]


def ppu_finalize(
    acc: np.ndarray, slots: _Slots, pool: PoolSpec | None = None
) -> tuple[np.ndarray, int]:
    """Group-boundary post-processing across the PE array: the merged
    post-ReLU/pool plane [k, Wp, Hp] and the non-zero halo values
    exchanged; the drains are counted from the plan (`TilePlan.acc_cells`).

    `acc` holds the accumulators of one or more consecutive output-channel
    groups, [k, EX, EY, slot] as `slots` describes, as the scatter's exact
    float64 sums (or any integer dtype). Halo cells are added into their
    owners' partial sums in that dtype, and the merged plane is
    range-checked, narrowed to int32, ReLU'd and max-pooled when requested;
    every step acts on each output channel alone, so a batch of groups
    gives each group's result. The layer compresses the planes of all its
    groups into the PEs' output RAMs at once (`simulate_scnn_layer`)."""
    merged, halo_values = _merge_group_plane(acc, slots)
    check_range(merged, ACCUM_BITS, f"{slots.plan.layer.name}: merged partial sums")
    plane = merged.astype(np.int32)
    np.maximum(plane, 0, out=plane)
    if pool is not None:
        plane = max_pool(plane, pool)
    return plane, halo_values


class LayerOutput(Record):
    """A layer's outputs (post ReLU and pooling) as the PEs' output RAMs
    hold them: `blocks` holds the whole layer in one set, block pe * K + k
    being PE pe's share of output channel k, x-major then y within its
    rectangle of the (K, W, H) plane `shape`. `decoded` rebuilds the plane,
    as int32, strictly from the compressed blocks."""

    blocks: BlockSet
    shape: tuple[int, int, int]
    pe_rows: int
    pe_cols: int

    def decoded(self) -> DenseTensor:
        """The blocks expanded into the PE-major stream `_encode_pe_major` encodes,
        one index per entry, then each PE's rectangle copied into place."""
        k, w, h = self.shape
        blocks = self.blocks
        starts = np.zeros(len(blocks), dtype=np.int64)
        np.cumsum(blocks.extents[:-1], out=starts[1:])
        # int64, whatever the positions' width
        where = np.repeat(starts, np.diff(blocks.offsets))
        where += blocks.positions
        dense = np.zeros(k * w * h, dtype=np.int32)
        dense[where] = blocks.values
        del where
        out = np.empty((k, w, h), dtype=np.int32)
        at = 0
        for x, dx, y, dy in _rects(w, h, self.pe_rows, self.pe_cols):
            out[:, x : x + dx, y : y + dy] = dense[at : at + k * dx * dy].reshape(k, dx, dy)
            at += k * dx * dy
        return DenseTensor(out)


def simulate_scnn_layer(
    arch: ArchConfig,
    layer: LayerShape,
    weights: DenseTensor,
    acts: DenseTensor,
    useful_mults: int,
    pool: PoolSpec | None = None,
    input_from_dram: bool = True,
) -> tuple[LayerOutput, SimReport]:
    """Run one layer's dense operands through the sparse PE array.

    The layer compresses its own operands (`prepare_scnn_inputs`), as the
    machine does: the weights offline, for broadcast to every PE, and the
    activations into each PE's tile. `useful_mults` is the layer's
    `_gated_mults`. Returns the compressed per-PE outputs and the
    cycle/energy report.

    The accounting is polyphase; it replaced the whole-channel Cartesian
    basis, with no knob and no variant: a PE forms (mult_ops), fetches,
    reads and streams only the stored pairs of a channel, placeholders
    included, whose stride phases meet, counted per (channel, phase) from
    the operands apart from the scatter. At stride 1 the one phase is the
    whole channel. Every formed pair lands, so stride_skipped, mult_ops
    less the scatter's landed products, is a check that reads 0.

    Output-channel groups are scattered in batches (`_batches`), each
    contracting only phase-matched taps and activations in float64 (see
    the module docstring). That is exact for 16-bit operands while
    channels_per_group * R * S * 2**30 < 2**53; a layer beyond that bound
    raises ConfigurationError before anything is encoded.
    """
    per_cell = layer.channels_per_group * layer.R * layer.S
    if per_cell << PRODUCT_BITS >= 1 << EXACT_FLOAT_BITS:
        raise ConfigurationError(
            f"{layer.name}: {per_cell} products per accumulator cell "
            f"(channels_per_group * R * S) could exceed 2**{EXACT_FLOAT_BITS}, "
            "past exact float64 accumulation"
        )
    w_blocks, tiles = prepare_scnn_inputs(arch, layer, weights, acts)
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    gplan = choose_kc(layer, arch)
    n_pes, n_groups = arch.n_pes, gplan.n_groups
    F, I = arch.weights_per_fetch, arch.acts_per_fetch
    # activations of every live PE read once per layer and reused across
    # batches of groups; weights built per batch (shared by all PEs)
    slots = _slots(plan, gplan.kc, arch.accum_banks, arch.bank_map)
    a_op, a_stored = _activation_operand(plan, slots, tiles)
    del tiles  # the phase grids are all the scatter reads
    # stored entries per (group, channel, phase) and per (PE, channel,
    # phase), an idle PE's blocks being empty: a pair is formed only within
    # a phase, so every count below is summed over (channel, phase)
    w_stored = _weight_phases(layer, w_blocks)
    # activation vectors per (PE, channel, phase)
    va = -((-a_stored) // I)

    # per (PE, group): the hottest bank's products
    peak = np.zeros((n_pes, n_groups), dtype=np.int64)
    planes: list[np.ndarray] = []
    landed = 0
    for batch in _batches(n_groups, slots):
        rows = slice(batch.start, batch.stop)
        w = _weight_operand(layer, gplan, w_blocks, batch)
        acc, bank_totals = _scatter(gplan.groups[rows], w, a_op, slots)
        peak[slots.pes, rows] = bank_totals.max(axis=2).T
        landed += int(bank_totals.sum())
        planes.append(ppu_finalize(acc, slots, pool)[0])
    mult_ops = int((a_stored @ w_stored.T).sum())
    # every activation vector of a phase re-reads that phase's weights
    weight_reads = int((w_stored * va.sum(axis=0)).sum())

    # the compute of each group, [PE, group] where it differs between PEs
    wv = -((-w_stored) // F)
    group_batches = va @ wv.T
    # banks retire one product per cycle; within a group the elastic queues
    # hide anything short of sustained single-bank overload
    stall = np.where(group_batches > 0, np.maximum(peak - group_batches, 0), 0)
    group_busy = group_batches + stall
    # weight FIFO refill: DRAM streams each group's broadcast weights in
    # parallel with compute; a channel's phase whose working set spills
    # the FIFO is re-streamed once per activation-vector pass
    passes = np.where(wv <= arch.weight_fifo_entries, 1, np.maximum(va.max(axis=0), 1))
    stream_values = (w_stored * passes).sum(axis=1)

    # the PEs' output RAMs: block pe * K + k of one set for the layer
    out = np.concatenate(planes, axis=0)
    del planes  # the concatenation is the one copy of the outputs kept
    out_blocks = _encode_pe_major(out, arch.pe_rows, arch.pe_cols, arch.index_bits)
    output = LayerOutput(out_blocks, out.shape, arch.pe_rows, arch.pe_cols)
    # stored output entries per PE
    out_stored = np.diff(out_blocks.offsets[:: layer.K])
    dram_tiled = bool(
        (a_stored.sum(axis=1) > arch.iaram_value_capacity).any()
        or (out_stored > arch.oaram_value_capacity).any()
    )

    iaram_stored = int(a_stored.sum())
    events, per_group, refill, drain_overhead = scnn_events(
        arch, layer, formed=mult_ops, landed=landed, useful=useful_mults,
        batches=int(group_batches.sum()), weight_reads=weight_reads,
        weights=w_blocks.values.size, ram_inputs=iaram_stored, dram_inputs=iaram_stored,
        outputs=int(out_stored.sum()), compute=group_busy.max(axis=0).tolist(),
        streamed=stream_values.tolist(), input_from_dram=input_from_dram, dram_tiled=dram_tiled,
    )
    report = SimReport.build(
        arch, layer, VARIANT_SCNN, events.pe_cycles, events,
        group_busy.sum(axis=1), (np.array(per_group) - group_busy).sum(axis=1),
        bank_conflict_stalls=int(stall.sum()),
        fifo_stalls=sum(refill),
        drain_overhead_cycles=sum(drain_overhead),
        stride_skipped=mult_ops - landed,
        dram_tiled=dram_tiled,
    )
    return output, report


def simulate_dcnn_layer(
    arch: ArchConfig,
    layer: LayerShape,
    acts: DenseTensor,
    useful_mults: int,
    variants: Sequence[str] = (VARIANT_DCNN, VARIANT_DCNN_OPT),
    pool: PoolSpec | None = None,
    input_from_dram: bool = True,
) -> dict[str, SimReport]:
    """The rows of the dense variants in `variants` for one layer: the
    cost `analytic.dense_baseline` gives at the activations' density, taking
    the busiest PE's cycles, with `useful_mults` the layer's `_gated_mults`."""
    pe_busy, tiled, events = dense_baseline(
        arch, layer, pool, acts.density(), useful_mults, input_from_dram
    )
    cycles = max(pe_busy)
    pe_wait = [cycles - b for b in pe_busy]
    return {
        v: SimReport.build(arch, layer, v, cycles, events[v], pe_busy, pe_wait, dram_tiled=tiled)
        for v in variants
        if v in events
    }


def _gated_mults(layer: LayerShape, weights: DenseTensor, acts: DenseTensor) -> int:
    """The layer's useful multiplies, which every row reports and dcnn-opt
    energizes: products of two non-zero operands (padding taps count as
    zero operands) that land on a valid output.

    Tap (r, s) meets padded inputs (r + stride * x, s + stride * y) over the
    outputs (x, y): a Wo x Ho window of phase (r % stride, s % stride) at
    phase row r // stride and column s // stride. A summed-area table per
    phase of the non-zero mask counts every (channel, tap) window with one
    gather, weighed by the non-zero weights of each (channel, tap) over the
    filters of the channel's convolution group."""
    if weights.shape != layer.weight_shape() or acts.shape != layer.input_shape():
        raise ShapeError("tensor shapes do not match the layer")
    st, pad, C, R, S = layer.stride, layer.pad, layer.C, layer.R, layer.S
    padded = np.zeros((C, layer.W + 2 * pad, layer.H + 2 * pad), dtype=bool)
    padded[:, pad : pad + layer.W, pad : pad + layer.H] = acts.values != 0
    dtype = np.int32 if padded[0].size < 1 << 31 else np.int64
    a_nnz = np.empty((C, R, S), dtype=np.int64)
    for px in range(min(st, R)):
        for py in range(min(st, S)):
            phase = padded[:, px::st, py::st]
            sat = np.zeros((C, phase.shape[1] + 1, phase.shape[2] + 1), dtype)
            np.cumsum(phase, axis=1, dtype=dtype, out=sat[:, 1:, 1:])
            np.cumsum(sat[:, 1:, 1:], axis=2, out=sat[:, 1:, 1:])
            x0, y0 = np.arange(px, R, st)[:, None] // st, np.arange(py, S, st) // st
            x1, y1 = x0 + layer.Wo, y0 + layer.Ho
            a_nnz[:, px::st, py::st] = sat[:, x1, y1] - sat[:, x0, y1] - sat[:, x1, y0] + sat[:, x0, y0]
    kpg, cpg = layer.filters_per_group, layer.channels_per_group
    w_nnz = (weights.values != 0).reshape(layer.groups, kpg, cpg, R, S).sum(axis=1)
    return int((w_nnz.reshape(C, R, S) * a_nnz).sum())
