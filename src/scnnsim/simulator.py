"""Cycle-level functional simulation of the sparse PE array plus the dense
baseline cycle models.

The sparse pipeline is simulated exactly: compressed operands are fetched in
vectors of F weights x I activations, every operand pair is multiplied, and
each product is scattered to a banked accumulator addressed by its output
coordinate. Cycle accounting is per (PE, output-channel group): the base cost
is the number of F x I vector batches, accumulator contention adds stalls
when the hottest bank's total demand exceeds the batch count (banks retire
one product per cycle; elastic queues absorb transient imbalance within a
group), and a global barrier at each group boundary charges every PE the
time of the slowest one.

On the host, operands stay columnar (`codec.BlockSet`), and every stage of a
layer outside the scatter is a few array passes, never a loop over PEs or
channels. A layer makes three `codec.encode_blocks` calls, whatever its
group count: its weights (block g * C + c: group g's filters of input
channel c), the activation tiles of every PE (block pe * C + c) and its
outputs (block pe * K + k). Nothing is encoded or decoded block by block:
the scatter reads each set's flat values and the dense positions derived
from its runs, and `LayerOutput.decoded` rebuilds the plane from them with
one scatter.

The hardware works through a layer one output-channel group at a time; the
host scatters batches of consecutive groups (`_batches`, sized by the
_BATCH byte budget), each over every live PE at once, as the weights are
broadcast to all of them, into accumulators laid out uniformly as
[slot, k, EX, EY] (`_Slots`). Each group keeps its own cells, so its bank
totals, stalls and skipped products are those of a pass of its own. A
product lands only when the stride phases of its tap (r % stride) and its
activation ((x + pad) % stride) agree in both axes, so products a stride
skips are counted, never formed. Activations are read once per layer into
one dense grid per phase (`_activation_operand`), and each batch's weights
into a dense [C, R, S, k] array. All products of one (filter, tap,
activation position) land in one cell, whose sum and count are all that is
read, so per phase and convolution group the scatter contracts the input
channels first: one float64 GEMM of the values and one float32 GEMM of the
0/1 masks of stored entries (placeholders included), whose tap rows then
add into the accumulators as shifted slices (`_scatter`). Both are exact in
any order of addition. Products of 16-bit operands are integers below
2**30, so every partial sum of a cell is an integer below
channels_per_group * R * S * 2**30, which `simulate_scnn_layer` keeps below
2**53; every count is an integer below 2**23, which float32 holds. The PPU
sums the slots into the output plane through a merge map `_Slots` builds
once per layer, batch by batch; the cycle model then works on every group
at once from the per-group counts.

Functional equivalence is the master contract: the decoded, halo-merged,
ReLU'd (and optionally pooled) outputs equal the exact reference convolution
bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import numpy as np

from . import codec
from .analytic import (
    VARIANT_DCNN,
    VARIANT_DCNN_OPT,
    VARIANT_SCNN,
    ArchConfig,
    EventCounts,
    Footprint,
    FootprintModel,
    PoolSpec,
    SimReport,
    count_events,
    dcnn_arch,
    dense_dram_tiled,
)
from .codec import BlockSet
from .dataflow import (
    ConfigurationError,
    GroupPlan,
    LayerShape,
    TilePlan,
    choose_kc,
    partition_tiles,
    plane_partition,
)
from .tensors import (
    ACCUM_BITS,
    EXACT_FLOAT_BITS,
    PRODUCT_BITS,
    DenseTensor,
    OUT_ROLES,
    check_operand_range,
    check_range,
)


@dataclass(frozen=True)
class WeightStream:
    """Broadcast weights of every output-channel group in one block set:
    block g * C + c holds input channel c of group g, linearized k-major
    then r then s over the group's filters in c's convolution group
    (extent 0 when there are none)."""

    layer: LayerShape
    gplan: GroupPlan
    blocks: BlockSet


def compress_weights(
    layer: LayerShape, gplan: GroupPlan, weights: DenseTensor, index_bits: int = 4
) -> WeightStream:
    """Encode pruned weights for broadcast to the PEs, every output-channel
    group in one block set."""
    check_operand_range(weights, "weight")
    kpg, rs = layer.filters_per_group, layer.R * layer.S
    parts, extents = [], []
    for grp in gplan.groups:
        for gg in range(layer.groups):
            k_lo = max(grp.start, gg * kpg)
            k_hi = max(k_lo, min(grp.stop, (gg + 1) * kpg))
            # [k, c, r, s] -> one row per channel of this convolution group
            parts.append(weights.values[k_lo:k_hi].transpose(1, 0, 2, 3).reshape(-1))
            extents += [(k_hi - k_lo) * rs] * layer.channels_per_group
    blocks = codec.encode_blocks(np.concatenate(parts), extents, index_bits)
    return WeightStream(layer, gplan, blocks)


def distribute_activations(
    plan: TilePlan, acts: DenseTensor, index_bits: int = 4
) -> BlockSet:
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
    x0, wt, y0, ht = _rects(plan.layer.W, plan.layer.H, plan.pe_rows, plan.pe_cols)
    dense = _pe_major(acts.values, x0, wt, y0, ht)
    return codec.encode_blocks(dense, np.repeat(wt * ht, plan.layer.C), index_bits)


def _pe_major(planes: np.ndarray, x0, wt, y0, ht) -> np.ndarray:
    """planes[:, x0:x0 + wt, y0:y0 + ht] of every PE, flattened in PE order;
    the rectangles partition the plane, so each value is copied once."""
    k, at = planes.shape[0], 0
    dense = np.empty(planes.size, dtype=np.int64)
    for x, dx, y, dy in zip(x0.tolist(), wt.tolist(), y0.tolist(), ht.tolist()):
        dense[at : at + k * dx * dy].reshape(k, dx, dy)[...] = planes[:, x : x + dx, y : y + dy]
        at += k * dx * dy
    return dense


def prepare_scnn_inputs(
    arch: ArchConfig, layer: LayerShape, weights: DenseTensor, acts: DenseTensor
) -> tuple[WeightStream, BlockSet]:
    """Plan the layer and compress/distribute dense operands for the array."""
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    gplan = choose_kc(layer, arch)
    stream = compress_weights(layer, gplan, weights, arch.index_bits)
    tiles = distribute_activations(plan, acts, arch.index_bits)
    return stream, tiles


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


@dataclass(frozen=True)
class _Slots:
    """A layer's uniform accumulator layout [slot, kc, EX, EY]: slot i is
    live PE pes[i], kc the largest group and (EX, EY) the largest extents
    (a slot fits the capacity `choose_kc` sized); the PE's own accumulator
    is [i, :kc, :ex, :ey]. `bank` holds every cell's i * n_banks + bank, the
    bank taken from the PE's own address (k * ex + x) * ey + y. It is a view
    of a [kc, EX, EY, slot] array, the memory order the scatter fills.

    Per PE: its input tile (`_rects`) and `origin`, its slot (-1 when
    idle) and the output coordinate (xb, yb) of its accumulator cell
    (0, 0). The merge map, over the cells of [slot, EX, EY] and the plane
    coordinates x * Ho + y: `src` holds the first cell that lands on each
    coordinate (0 where none does, the coordinates in `bare`), and each
    pair (cells, dest) of `adds` adds one more cell to each of a set of
    distinct coordinates. `halo` holds the in-plane cells outside their
    PE's owned rectangle."""

    plan: TilePlan
    pes: list[int]
    extent: np.ndarray    # (slots, 2): each live PE's (ex, ey)
    bank: np.ndarray      # [slot, kc, EX, EY]
    n_banks: int
    tile: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    origin: np.ndarray    # (n_pes, 3): slot, xb, yb
    src: np.ndarray
    bare: np.ndarray
    adds: tuple[tuple[np.ndarray, np.ndarray], ...]
    halo: np.ndarray


def _per_pe(rows: int, cols: int, per_col, per_row) -> np.ndarray:
    """Rows (per_col[c], per_row[r]) for PE r * cols + c, on axis 1."""
    xs, ys = np.asarray(per_col, dtype=np.int64), np.asarray(per_row, dtype=np.int64)
    xs = np.tile(xs, (rows,) + (1,) * (xs.ndim - 1))
    return np.stack([xs, np.repeat(ys, cols, axis=0)], axis=1)


def _slots(plan: TilePlan, kc: int, banks: int, bank_map: str) -> _Slots:
    layer, ax, ay, rows, cols = plan.layer, plan.x, plan.y, plan.pe_rows, plan.pe_cols
    tile = _rects(layer.W, layer.H, rows, cols)
    live = tile[1] * tile[3] > 0
    pes = np.flatnonzero(live)
    xb, yb = _per_pe(
        rows, cols, [ax.acc_base(c) for c in range(cols)], [ay.acc_base(r) for r in range(rows)]
    ).T
    ex, ey = _per_pe(
        rows, cols, [ax.acc_extent(c) for c in range(cols)], [ay.acc_extent(r) for r in range(rows)]
    ).T
    extent = np.stack([ex[pes], ey[pes]], axis=1)
    k, x, y = np.ogrid[:kc, : ex[pes].max(), : ey[pes].max()]
    ex, ey = ex[pes, None, None, None], ey[pes, None, None, None]
    bank = _bank_ids((k * ex + x) * ey + y, banks, bank_map)
    bank += np.arange(pes.size)[:, None, None, None] * banks
    bank = np.ascontiguousarray(bank.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    origin = np.stack([np.where(live, np.cumsum(live) - 1, -1), xb, yb], axis=1)
    # the merge map, from every slot cell's global output coordinate
    gx, gy = x[0] + xb[pes, None, None], y[0] + yb[pes, None, None]
    inside = (x[0] < ex[:, 0]) & (y[0] < ey[:, 0])
    inside &= (gx >= 0) & (gx < layer.Wo) & (gy >= 0) & (gy < layer.Ho)
    ranges = _per_pe(rows, cols, ax.out_ranges, ay.out_ranges)[pes, :, :, None, None]
    (oxl, oxh), (oyl, oyh) = ranges.transpose(1, 2, 0, 3, 4)
    owned = (gx >= oxl) & (gx < oxh) & (gy >= oyl) & (gy < oyh)
    cells = np.flatnonzero(inside)
    dest = (gx * layer.Ho + gy).reshape(-1)[cells]
    order = np.argsort(dest, kind="stable")
    cells, dest = cells[order], dest[order]
    # each cell's rank among the cells landing on its coordinate
    rank = np.arange(dest.size) - np.searchsorted(dest, dest)
    src = np.zeros(layer.Wo * layer.Ho, dtype=np.int64)
    src[dest[rank == 0]] = cells[rank == 0]
    bare = np.ones(src.size, dtype=bool)
    bare[dest] = False
    adds = tuple(
        (cells[rank == r], dest[rank == r]) for r in range(1, rank.max(initial=0) + 1)
    )
    return _Slots(
        plan, pes.tolist(), extent, bank, banks, tile, origin,
        src, np.flatnonzero(bare), adds, np.flatnonzero(inside & ~owned),
    )


@dataclass(frozen=True)
class _Operand:
    """A batch of groups' weights or every live PE's activations as float64
    values and float32 0/1 masks of the stored entries, placeholders
    included.

    Weights are [C, R, S, k] over the batch's filters k (None when the
    batch stores nothing). Activations are keyed by stride phase (px, py),
    each a [C, GX * GY * slot] grid (`_activation_operand`); no key holds
    an activation that meets no tap. `stored` and `nnz` count entries per
    (group, channel) for weights and per (slot, channel) for
    activations."""

    stored: np.ndarray
    nnz: np.ndarray
    vals: np.ndarray | dict[tuple[int, int], np.ndarray] | None
    mask: np.ndarray | dict[tuple[int, int], np.ndarray] | None


def _batches(n_groups: int, slots: _Slots) -> list[range]:
    """Runs of consecutive output-channel groups whose accumulators and
    weights, 12 bytes a cell or a (tap, filter, channel), fit _BATCH bytes
    together."""
    layer = slots.plan.layer
    n_slots, kc, EX, EY = slots.bank.shape
    per_group = 12 * kc * (n_slots * EX * EY + layer.R * layer.S * layer.C)
    per = max(1, _BATCH // per_group)
    return [range(g, min(g + per, n_groups)) for g in range(0, n_groups, per)]


def _weight_operand(stream: WeightStream, batch: range) -> _Operand:
    """The weights of the output-channel groups `batch` (consecutive
    indices into the group plan), shared by every PE."""
    layer, gplan, blocks = stream.layer, stream.gplan, stream.blocks
    C, rs = layer.C, layer.R * layer.S
    offsets = blocks.offsets[batch.start * C : batch.stop * C + 1]
    lo, hi = offsets[0], offsets[-1]
    v = blocks.values[lo:hi]
    stored = np.diff(offsets)
    nnz = np.diff(np.concatenate(([0], np.cumsum(v != 0)))[offsets - lo])
    vals = mask = None
    if hi > lo:
        k0 = gplan.groups[batch.start].start
        nk = gplan.groups[batch.stop - 1].stop - k0
        g, c = np.divmod(np.arange(batch.start * C, batch.stop * C), C)
        # block (g, c) starts at g's first filter in c's convolution group
        first = np.maximum(c // layer.channels_per_group * layer.filters_per_group, g * gplan.kc)
        k, tap = np.divmod(blocks.positions[lo:hi], rs)
        at = tap * nk + k + np.repeat(c * (rs * nk) + first - k0, stored)
        shape = (C, layer.R, layer.S, nk)
        vals, mask = np.zeros(shape), np.zeros(shape, dtype=np.float32)
        vals.reshape(-1)[at] = v
        mask.reshape(-1)[at] = 1
    return _Operand(stored.reshape(-1, C), nnz.reshape(-1, C), vals, mask)


def _phase_taps(layer: LayerShape) -> np.ndarray:
    """(2, stride): the taps of each phase p along x and y, r = p + stride * i
    for i < ceil((R - p) / stride)."""
    p = np.arange(layer.stride)
    return np.stack([-(-(layer.R - p) // layer.stride), -(-(layer.S - p) // layer.stride)])


def _activation_operand(plan: TilePlan, slots: _Slots, tiles: BlockSet) -> _Operand:
    """The activations of every live PE, built once per layer.

    Along x, an activation at padded x of phase px = x % stride meets the
    rq taps r = px + stride * i, and tap i sends it to accumulator row
    x // stride - xb - i. Every product lands in [0, ex), so the activation
    sits in row g = x // stride - xb - (rq - 1) of a grid GX = EX - rq + 1
    rows deep, and tap i reaches row g + rq - 1 - i; likewise along y. The
    grid of phase (px, py) is [C, GX, GY, slot]. It is filled in passes of
    whole blocks (`codec._passes`), so per-entry temporaries stay small
    however many millions of entries a layer holds."""
    layer = plan.layer
    s, pad, C = layer.stride, layer.pad, layer.C
    n_slots, _, EX, EY = slots.bank.shape
    if len(tiles) != plan.n_pes * C:
        raise ConfigurationError(
            f"{len(tiles)} activation blocks for {plan.n_pes} PEs of {C} channels"
        )
    x0, wt, y0, ht = slots.tile
    bad = np.flatnonzero(tiles.extents != np.repeat(wt * ht, C))
    if bad.size:
        pe, c = divmod(int(bad[0]), C)
        raise ConfigurationError(
            f"pe {pe} channel {c}: block extent {tiles.extents[bad[0]]} "
            f"does not match tile {wt[pe]}x{ht[pe]}"
        )
    taps = _phase_taps(layer)
    grid = np.array([[EX], [EY]]) - taps + 1
    live = np.outer((taps[0] > 0) & (grid[0] > 0), (taps[1] > 0) & (grid[1] > 0))
    live &= tiles.values.size > 0
    size = np.where(live, C * n_slots * np.outer(grid[0], grid[1]), 0)
    base = (np.cumsum(size) - size.reshape(-1)).reshape(s, s)
    vals, mask = np.zeros(size.sum()), np.zeros(size.sum(), dtype=np.float32)
    nnz = np.zeros(len(tiles), dtype=np.int64)
    slot, xb, yb = slots.origin.T
    for b0, b1 in codec._passes(tiles.offsets):
        lo, hi = tiles.offsets[b0], tiles.offsets[b1]
        ids = np.repeat(np.arange(b0, b1), np.diff(tiles.offsets[b0 : b1 + 1]))
        v = tiles.values[lo:hi]
        nnz[b0:b1] = np.bincount(ids[v != 0] - b0, minlength=b1 - b0)
        pe, c = np.divmod(ids, C)
        x, y = np.divmod(tiles.positions[lo:hi], ht[pe])
        x, px = np.divmod(x + x0[pe] + pad, s)
        y, py = np.divmod(y + y0[pe] + pad, s)
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
    return _Operand(
        np.diff(tiles.offsets).reshape(-1, C)[slots.pes],
        nnz.reshape(-1, C)[slots.pes],
        {p: vals[span].reshape(C, -1) for p, span in spans.items()},
        {p: mask[span].reshape(C, -1) for p, span in spans.items()},
    )


def _scatter(
    groups: tuple[range, ...], w: _Operand, a: _Operand, slots: _Slots
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every phase-matched product of a batch of consecutive output-channel
    groups on every live PE: the [slot, k, EX, EY] accumulators over the
    batch's filters, and per group each slot's products per bank and its
    products skipped by the stride.

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
    layer = slots.plan.layer
    s, taps = layer.stride, _phase_taps(layer)
    n_slots, _, EX, EY = slots.bank.shape
    k0, k1 = groups[0].start, groups[-1].stop
    acc = np.zeros((k1 - k0, EX, EY, n_slots))
    landed = np.zeros((k1 - k0, EX, EY, n_slots), dtype=np.float32)
    if w.vals is not None:
        kpg, cpg = layer.filters_per_group, layer.channels_per_group
        stored = w.stored.sum(axis=0)
        conv_groups = [
            (k_lo - k0, k_hi - k0, g * cpg, (g + 1) * cpg)
            for g in range(layer.groups)
            for k_lo, k_hi in [(max(k0, g * kpg), min(k1, (g + 1) * kpg))]
            if k_lo < k_hi and stored[g * cpg : (g + 1) * cpg].any()
        ]
        for (px, py), a_vals in a.vals.items():
            rq, sq = taps[0, px], taps[1, py]
            GX, GY = EX - rq + 1, EY - sq + 1
            shifts = [(rq - 1 - i, sq - 1 - j) for i in range(rq) for j in range(sq)]
            w_vals, w_mask = w.vals[:, px::s, py::s], w.mask[:, px::s, py::s]
            for k_lo, k_hi, c_lo, c_hi in conv_groups:
                kg, cs = k_hi - k_lo, slice(c_lo, c_hi)
                passes = [
                    (w_vals[cs, :, :, k_lo:k_hi].reshape(cpg, -1).T, a_vals[cs], acc),
                    (w_mask[cs, :, :, k_lo:k_hi].reshape(cpg, -1).T, a.mask[px, py][cs], landed),
                ]
                rows = max(1, _BAND // (len(shifts) * kg * GY * n_slots))
                for g0 in range(0, GX, rows):
                    g1 = min(GX, g0 + rows)
                    cols = slice(g0 * GY * n_slots, g1 * GY * n_slots)
                    for wmat, amat, out in passes:
                        m = (wmat @ amat[:, cols]).reshape(len(shifts), kg, g1 - g0, GY, n_slots)
                        for j, (dx, dy) in enumerate(shifts):
                            out[k_lo:k_hi, g0 + dx : g1 + dx, dy : dy + GY] += m[j]
    # a group's bank of cell (k, x, y) is that of its own filter k - start
    bank = slots.bank.transpose(1, 2, 3, 0)
    bank_totals = np.stack([
        np.bincount(
            bank[: len(g)].reshape(-1),
            landed[g.start - k0 : g.stop - k0].reshape(-1),
            n_slots * slots.n_banks,
        )
        for g in groups
    ]).astype(np.int64).reshape(len(groups), n_slots, -1)
    skipped = w.stored @ a.stored.T - bank_totals.sum(axis=2)
    # in the [k, slot, EX, EY] memory order the PPU reads
    acc = acc.transpose(0, 3, 1, 2).astype(np.int64, order="C").transpose(1, 0, 2, 3)
    return acc, bank_totals, skipped


@dataclass(frozen=True)
class PPUResult:
    plane: np.ndarray   # merged post-ReLU/pool [k, Wp, Hp]
    drained_cells: int
    halo_values: int


def _merge_group_plane(acc: np.ndarray, slots: _Slots) -> tuple[np.ndarray, int]:
    """Sum every slot's accumulator cells at their global coordinates, through
    the layer's merge map.

    Cells whose output coordinate falls outside the plane are dropped; the
    non-zero cells outside a PE's owned rectangle are the halo traffic."""
    layer = slots.plan.layer
    kc = acc.shape[1]
    flat = acc.transpose(1, 0, 2, 3).reshape(kc, -1)
    if flat.size:
        full = flat[:, slots.src]
        full[:, slots.bare] = 0
    else:
        full = np.zeros((kc, layer.Wo * layer.Ho), dtype=np.int64)
    for cells, dest in slots.adds:
        full[:, dest] += flat[:, cells]
    halo_values = int(np.count_nonzero(flat[:, slots.halo]))
    return full.reshape(kc, layer.Wo, layer.Ho), halo_values


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
        least = np.iinfo(plane.dtype).min if plane.dtype.kind in "iu" else -np.inf
        padded = np.full((k, *span), least, plane.dtype)
        padded[:, :w, :h] = plane
        plane = padded
    cols = functools.reduce(np.maximum, [plane[:, d : d + st * wo : st] for d in range(win)])
    return functools.reduce(np.maximum, [cols[:, :, d : d + st * ho : st] for d in range(win)])


def _rects(
    w: int, h: int, pe_rows: int, pe_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x_lo, width, y_lo, height) of each PE's share of a w x h plane."""
    parts = (plane_partition(w, pe_cols), plane_partition(h, pe_rows))
    (x_lo, y_lo), (x_hi, y_hi) = _per_pe(pe_rows, pe_cols, *parts).transpose(2, 1, 0)
    return x_lo, x_hi - x_lo, y_lo, y_hi - y_lo


def ppu_finalize(
    acc: np.ndarray, slots: _Slots, pool: PoolSpec | None = None
) -> PPUResult:
    """Group-boundary post-processing across the PE array.

    `acc` holds the accumulators of one or more consecutive output-channel
    groups, [slot, k, EX, EY] as `slots` describes. Halo cells are added
    into their owners' partial sums, and the merged plane is range-checked,
    ReLU'd and max-pooled when requested; every step acts on each output
    channel alone, so a batch of groups gives each group's result. The
    layer compresses the planes of all its groups into the PEs' output RAMs
    at once (`simulate_scnn_layer`)."""
    merged, halo_values = _merge_group_plane(acc, slots)
    check_range(merged, ACCUM_BITS, f"{slots.plan.layer.name}: merged partial sums")
    plane = np.maximum(merged, 0)
    if pool is not None:
        plane = max_pool(plane, pool)
    drained = acc.shape[1] * int(slots.extent.prod(axis=1).sum())
    return PPUResult(plane, drained, halo_values)


@dataclass(frozen=True)
class LayerOutput:
    """Compressed per-PE outputs plus the assembled dense plane (post ReLU
    and pooling). `blocks` holds the whole layer in one set: block
    pe * K + k is PE pe's share of output channel k, x-major then y within
    its rectangle of the plane. `dense` is what the simulator merged
    internally; `decoded` rebuilds the same plane strictly from the
    compressed blocks."""

    blocks: BlockSet
    dense: DenseTensor
    pe_rows: int
    pe_cols: int

    def decoded(self) -> DenseTensor:
        k_total, w, h = self.dense.shape
        x0, _, y0, ht = _rects(w, h, self.pe_rows, self.pe_cols)
        pe, k = np.divmod(self.blocks.block_ids(), k_total)
        pos = self.blocks.positions
        x = x0[pe] + pos // ht[pe]
        y = y0[pe] + pos % ht[pe]
        out = np.zeros(k_total * w * h, dtype=np.int64)
        out[(k * w + x) * h + y] = self.blocks.values
        return DenseTensor(out.reshape(k_total, w, h), OUT_ROLES)


def simulate_scnn_layer(
    arch: ArchConfig,
    layer: LayerShape,
    weights: WeightStream,
    act_tiles: BlockSet,
    pool: PoolSpec | None = None,
    input_from_dram: bool = True,
    output_to_dram: bool = False,
) -> tuple[LayerOutput, SimReport]:
    """Run one layer through the sparse PE array.

    Activations must already be distributed per the layer's tile plan (one
    set, block pe * C + c) and the weights broadcast (same stream for every
    PE). Returns the compressed per-PE outputs and the cycle/energy report.

    Output-channel groups are scattered in batches (`_batches`), each
    contracting only phase-matched taps and activations in float64 (see
    the module docstring). That is exact for 16-bit operands while
    channels_per_group * R * S * 2**30 < 2**53; a layer beyond that bound
    raises ConfigurationError.
    """
    per_cell = layer.channels_per_group * layer.R * layer.S
    if per_cell << PRODUCT_BITS >= 1 << EXACT_FLOAT_BITS:
        raise ConfigurationError(
            f"{layer.name}: {per_cell} products per accumulator cell "
            f"(channels_per_group * R * S) could exceed 2**{EXACT_FLOAT_BITS}, "
            "past exact float64 accumulation"
        )
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    gplan = weights.gplan
    n_pes, n_groups = arch.n_pes, gplan.n_groups
    if len(weights.blocks) != n_groups * layer.C:
        raise ConfigurationError(
            f"expected {n_groups * layer.C} weight blocks, "
            f"{layer.C} channels for each of {n_groups} groups"
        )
    F, I = arch.weights_per_fetch, arch.acts_per_fetch
    fm = FootprintModel()
    coded_bits = fm.value_bits + fm.index_overhead_bits

    ev = EventCounts()

    kc_max, cells = max(map(len, gplan.groups)), plan.max_acc_cells()
    if kc_max * cells > gplan.capacity_entries:
        raise ConfigurationError(
            f"group of {kc_max} channels overflows the accumulator "
            f"({kc_max * cells} > {gplan.capacity_entries} entries)"
        )
    # activations of every live PE read once per layer and reused across
    # batches of groups; weights built per batch (shared by all PEs)
    slots = _slots(plan, kc_max, arch.accum_banks, arch.bank_map)
    acts = _activation_operand(plan, slots, act_tiles)
    iaram_stored = int(acts.stored.sum())
    # activation vectors per (PE, channel)
    va = np.zeros((n_pes, layer.C), dtype=np.int64)
    va[slots.pes] = -((-acts.stored) // I)

    # per (group, channel): stored and non-zero weights; per (PE, group):
    # the hottest bank's products
    w_stored = np.zeros((n_groups, layer.C), dtype=np.int64)
    w_nnz = np.zeros((n_groups, layer.C), dtype=np.int64)
    peak = np.zeros((n_pes, n_groups), dtype=np.int64)
    stride_skipped = 0
    planes: list[np.ndarray] = []
    for batch in _batches(n_groups, slots):
        rows = slice(batch.start, batch.stop)
        w = _weight_operand(weights, batch)
        acc, bank_totals, skipped = _scatter(gplan.groups[rows], w, acts, slots)
        w_stored[rows], w_nnz[rows] = w.stored, w.nnz
        peak[slots.pes, rows] = bank_totals.max(axis=2).T
        stride_skipped += int(skipped.sum())
        ev.xbar_transfers += int(bank_totals.sum())
        ppu = ppu_finalize(acc, slots, pool)
        planes.append(ppu.plane)
        ev.acc_drains += ppu.drained_cells
    ev.acc_updates = ev.xbar_transfers
    ev.mult_ops = int((acts.stored @ w_stored.T).sum())
    useful = int((acts.nnz @ w_nnz.T).sum())
    # every activation vector of a channel re-reads that channel's weights
    weight_reads = int((w_stored * va.sum(axis=0)).sum())

    # the cycles of each group, [PE, group] where they differ between PEs
    wv = -((-w_stored) // F)
    group_batches = va @ wv.T
    # banks retire one product per cycle; within a group the elastic queues
    # hide anything short of sustained single-bank overload
    stall = np.where(group_batches > 0, np.maximum(peak - group_batches, 0), 0)
    group_busy = group_batches + stall
    compute_t = group_busy.max(axis=0)
    # weight FIFO refill: DRAM streams each group's broadcast weights in
    # parallel with compute; channels whose working set spills the FIFO are
    # re-streamed once per activation-vector pass
    passes = np.where(wv <= arch.weight_fifo_entries, 1, np.maximum(va.max(axis=0), 1))
    stream_values = (w_stored * passes).sum(axis=1)
    stream_cycles = np.ceil(stream_values * coded_bits / 16 / arch.dram_values_per_cycle)
    t_eff = np.maximum(compute_t, stream_cycles.astype(np.int64))
    kcs = np.array([len(g) for g in gplan.groups])
    drain_cycles = -(-(kcs * cells) // arch.ppu_values_per_cycle)
    if arch.accum_double_buffered and gplan.double_buffered:
        group_cycles = np.maximum(t_eff, drain_cycles)
        drain_overhead = np.maximum(drain_cycles - t_eff, 0)
    else:
        group_cycles = t_eff + drain_cycles
        drain_overhead = drain_cycles
    group_cycles += arch.halo_latency_cycles
    pe_busy = group_busy.sum(axis=1)
    pe_wait = (group_cycles - group_busy).sum(axis=1)
    batches_total = int(group_batches.sum())

    # the PEs' output RAMs: block pe * K + k of one set for the layer
    dense_out = DenseTensor(np.concatenate(planes, axis=0), OUT_ROLES)
    x0, wt, y0, ht = _rects(dense_out.shape[1], dense_out.shape[2], arch.pe_rows, arch.pe_cols)
    out_blocks = codec.encode_blocks(
        _pe_major(dense_out.values, x0, wt, y0, ht), np.repeat(wt * ht, layer.K), arch.index_bits
    )
    output = LayerOutput(out_blocks, dense_out, arch.pe_rows, arch.pe_cols)
    # stored output entries per PE
    out_stored = np.diff(out_blocks.offsets[:: layer.K])

    oaram_stored = int(out_stored.sum())
    iaram_fp = Footprint(
        iaram_stored * fm.value_bits, iaram_stored * fm.index_overhead_bits
    )
    oaram_fp = Footprint(
        oaram_stored * fm.value_bits, oaram_stored * fm.index_overhead_bits
    )
    dram_tiled = bool(
        (acts.stored.sum(axis=1) > arch.iaram_value_capacity).any()
        or (out_stored > arch.oaram_value_capacity).any()
    )

    ev.act_ram_bits += iaram_stored * coded_bits * n_groups
    ev.act_ram_bits += oaram_stored * coded_bits
    ev.weight_buf_bits += coded_bits * weight_reads
    ev.dram_bits += weights.blocks.values.size * coded_bits
    if input_from_dram or dram_tiled:
        ev.dram_bits += iaram_stored * coded_bits
    if output_to_dram or dram_tiled:
        ev.dram_bits += oaram_stored * coded_bits

    ev.useful_mults = useful
    ev.energized_mults = ev.mult_ops
    ev.mult_slots = batches_total * F * I
    ev.pe_max_batches = int(pe_busy.max())

    report = SimReport.build(
        arch, layer, VARIANT_SCNN, int(group_cycles.sum()), ev, batches_total, pe_busy, pe_wait,
        bank_conflict_stalls=int(stall.sum()),
        fifo_stalls=int((t_eff - compute_t).sum()),
        drain_overhead_cycles=int(drain_overhead.sum()),
        stride_skipped=stride_skipped,
        iaram_footprint=iaram_fp,
        oaram_footprint=oaram_fp,
        dram_tiled=dram_tiled,
        kc=gplan.kc,
        n_groups=n_groups,
    )
    return output, report


def simulate_dcnn_layer(
    arch: ArchConfig,
    layer: LayerShape,
    weights: DenseTensor,
    acts: DenseTensor,
    variant: str = VARIANT_DCNN,
    pool: PoolSpec | None = None,
    input_from_dram: bool = True,
    output_to_dram: bool = False,
) -> SimReport:
    """Dense baseline cycle/energy model (dot-product inner core).

    Cycles are the dense-multiply throughput bound, taken as the maximum over
    PEs of their ragged output shares. The -opt variant has identical cycles
    but gates multiply energy on zero operands and moves compressed
    activations across DRAM.
    """
    if variant not in (VARIANT_DCNN, VARIANT_DCNN_OPT):
        raise ConfigurationError(f"unknown dense variant {variant}")
    wd, ad = weights.density(), acts.density()
    counts = count_events(
        dcnn_arch(arch),
        layer,
        "dense" if variant == VARIANT_DCNN else "dense-opt",
        (wd, ad),
        weights=weights,
        acts=acts,
        input_from_dram=input_from_dram,
        output_to_dram=output_to_dram,
    )
    if variant == VARIANT_DCNN_OPT:
        counts.energized_mults = _gated_mults(layer, weights, acts)

    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    per_out = layer.K * layer.channels_per_group * layer.R * layer.S
    pe_busy = [
        math.ceil(per_out * plan.owned_out_cells(pe) / arch.mults_per_pe)
        for pe in range(plan.n_pes)
    ]
    cycles = max(pe_busy)

    out_w, out_h = layer.Wo, layer.Ho
    if pool is not None:
        out_w, out_h = pool.out_extent(out_w), pool.out_extent(out_h)
    in_values = layer.C * layer.W * layer.H
    out_values = layer.K * out_w * out_h

    return SimReport.build(
        arch, layer, variant, cycles, counts, sum(pe_busy), pe_busy,
        [cycles - b for b in pe_busy],
        iaram_footprint=Footprint(in_values * 16, 0),
        oaram_footprint=Footprint(out_values * 16, 0),
        dram_tiled=dense_dram_tiled(arch, layer, pool),
    )


def _gated_mults(layer: LayerShape, weights: DenseTensor, acts: DenseTensor) -> int:
    """Dense products whose operands are both non-zero (padding taps count
    as zero operands): the multiplies DCNN-opt leaves energized.

    Tap (r, s) meets padded inputs (r + stride * x, s + stride * y) over the
    outputs (x, y): a Wo x Ho window of phase (r % stride, s % stride) at
    phase row r // stride and column s // stride. A summed-area table per
    phase of the non-zero mask counts every (channel, tap) window with one
    gather, weighed by the non-zero weights of each (channel, tap) over the
    filters of the channel's convolution group."""
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
