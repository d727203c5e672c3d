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
channels. The weights of each output-channel group, the activation tiles of
every PE and the outputs of each group are encoded by one
`codec.encode_blocks` call apiece: one block per input channel, per (PE,
input channel) or per (PE, output channel). Nothing is encoded or decoded
block by block: the scatter reads each set's flat values and the dense
positions derived from its runs, and `LayerOutput.decoded` rebuilds the
plane from them with one scatter per group.

Each output-channel group is scattered once over every live PE, as its
weights are broadcast to all of them, into accumulators laid out uniformly
as [slot, kc, EX, EY] (`_Slots`). Operand entries are read once per layer
and sorted by class (input channel, stride phase): an activation at x has
phase (x + pad) % stride, a tap r has phase r % stride, and a product lands
only when the two phases agree in both axes, so products a stride skips are
counted, never formed. Within a class the address is a weight term plus an
activation term (`_Entries`), and the class's pairs are an outer sum of two
contiguous slices. Passes of pairs are summed with `np.bincount` in
float64, exact because operands are 16-bit (products < 2**30) and at most
channels_per_group * R * S products reach one cell; `simulate_scnn_layer`
rejects layers where that could reach 2**53. The PPU sums the slots into
the output plane through a merge map `_Slots` builds once per layer.

Functional equivalence is the master contract: the decoded, halo-merged,
ReLU'd (and optionally pooled) outputs equal the exact reference convolution
bit for bit.
"""

from __future__ import annotations

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
    """Broadcast weights: one block set per output-channel group, whose block
    c holds input channel c linearized k-major then r then s over the
    group's filters in c's convolution group (extent 0 when there are
    none)."""

    layer: LayerShape
    gplan: GroupPlan
    blocks: tuple[BlockSet, ...]


def compress_weights(
    layer: LayerShape, gplan: GroupPlan, weights: DenseTensor, index_bits: int = 4
) -> WeightStream:
    """Encode pruned weights per output-channel group for broadcast to the PEs."""
    check_operand_range(weights, "weight")
    kpg, rs = layer.filters_per_group, layer.R * layer.S
    blocks = []
    for grp in gplan.groups:
        parts, extents = [], []
        for gg in range(layer.groups):
            k_lo = max(grp.start, gg * kpg)
            k_hi = max(k_lo, min(grp.stop, (gg + 1) * kpg))
            # [k, c, r, s] -> one row per channel of this convolution group
            parts.append(weights.values[k_lo:k_hi].transpose(1, 0, 2, 3).reshape(-1))
            extents += [(k_hi - k_lo) * rs] * layer.channels_per_group
        blocks.append(codec.encode_blocks(np.concatenate(parts), extents, index_bits))
    return WeightStream(layer, gplan, tuple(blocks))


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


# Pairs per bincount pass, whose two 8-byte buffers bound the scatter's memory;
# a pass widens to the group's cells plus one class to amortize the minlength.
_SCATTER_CHUNK = 1 << 16


@dataclass(frozen=True)
class _Slots:
    """A layer's uniform accumulator layout [slot, kc, EX, EY]: slot i is
    live PE pes[i], kc the largest group and (EX, EY) the largest extents
    (a slot fits the capacity `choose_kc` sized); the PE's own accumulator
    is [i, :kc, :ex, :ey]. `bank` holds every cell's i * n_banks + bank, the
    bank taken from the PE's own address (k * ex + x) * ey + y.

    Per PE: its input tile (`_rects`) and `offset`, where its accumulator
    cell for output (x, y) sits at offset + x * EY + y. The merge map:
    `cells` of [slot, EX, EY] inside the output plane, sorted by plane
    coordinate x * Ho + y; run j of equal coordinates starts at first[j]
    and lands at dest[j]. `halo` holds the in-plane cells outside their
    PE's owned rectangle."""

    plan: TilePlan
    pes: list[int]
    extent: np.ndarray    # (slots, 2): each live PE's (ex, ey)
    bank: np.ndarray      # [slot, kc, EX, EY]
    n_banks: int
    tile: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    offset: np.ndarray
    cells: np.ndarray
    first: np.ndarray
    dest: np.ndarray
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
    offset = (np.cumsum(live) - 1) * bank[0].size - xb * y.size - yb
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
    first = np.flatnonzero(np.diff(dest, prepend=-1))
    return _Slots(
        plan, pes.tolist(), extent, bank, banks, tile, offset,
        cells, first, dest[first], np.flatnonzero(inside & ~owned),
    )


@dataclass(frozen=True)
class _Entries:
    """One group's weights or every live PE's activations, placeholders
    included, sorted by class channel * stride**2 + phase; class q owns
    entries start[q]:start[q + 1]. `stored` and `nnz` count entries per
    channel (per slot and channel for activations). A pair lands at the sum
    of its entries' `addr`: (k * EX - r // stride) * EY - s // stride for
    filter k's tap (r, s), i * kc * EX * EY + (x // stride - xb) * EY +
    y // stride - yb for slot i's activation at padded (x, y)."""

    vals: np.ndarray              # float64 operand values
    start: np.ndarray
    stored: np.ndarray
    nnz: np.ndarray
    addr: np.ndarray


def _entries(n_cls: int, cls, vals, addr, stored, nnz) -> _Entries:
    """Sort entries by class; a stable sort of 16-bit keys is a radix sort."""
    order = np.argsort(cls.astype(np.uint16) if n_cls <= 1 << 16 else cls, kind="stable")
    start = np.zeros(n_cls + 1, dtype=np.int64)
    np.cumsum(np.bincount(cls, minlength=n_cls), out=start[1:])
    return _Entries(vals[order].astype(np.float64), start, stored, nnz, addr[order])


def _weight_entries(layer: LayerShape, weights: WeightStream, slots: _Slots) -> list[_Entries]:
    """Weight entries of each output-channel group, shared by every PE."""
    s = layer.stride
    rs = layer.R * layer.S
    _, _, EX, EY = slots.bank.shape
    # first filter of each channel's convolution group
    first_k = np.arange(layer.C) // layer.channels_per_group * layer.filters_per_group
    out = []
    for grp, blocks in zip(weights.gplan.groups, weights.blocks):
        chan, pos = blocks.block_ids(), blocks.positions
        k = np.maximum(first_k, grp.start)[chan] - grp.start + pos // rs
        r, t = (pos % rs) // layer.S, pos % layer.S
        out.append(_entries(
            layer.C * s * s, (chan * s + r % s) * s + t % s, blocks.values,
            (k * EX - r // s) * EY - t // s, np.diff(blocks.offsets),
            np.bincount(chan[blocks.values != 0], minlength=layer.C),
        ))
    return out


def _activation_entries(plan: TilePlan, slots: _Slots, tiles: BlockSet) -> _Entries:
    """The activation entries of every live PE, built into one stream."""
    layer = plan.layer
    s, pad, C, EY = layer.stride, layer.pad, layer.C, slots.bank.shape[3]
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
    # built in place, as a layer's entries can run to millions; x ends as
    # the address offset + (x // s) * EY + y // s of padded (x, y)
    ids = tiles.block_ids()
    nnz = np.bincount(ids[tiles.values != 0], minlength=len(tiles)).reshape(-1, C)
    pe, cls = np.divmod(ids, C)
    del ids
    x, y = np.divmod(tiles.positions, ht[pe])
    x += x0[pe] + pad
    y += y0[pe] + pad
    cls *= s
    cls += x % s
    cls *= s
    cls += y % s
    x //= s
    x *= EY
    y //= s
    x += y
    del y
    x += slots.offset[pe]
    del pe
    stored = np.diff(tiles.offsets).reshape(-1, C)[slots.pes]
    return _entries(C * s * s, cls, tiles.values, x, stored, nnz[slots.pes])


def _scatter(
    w: _Entries, a: _Entries, slots: _Slots
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every phase-matched pair of one output-channel group on every live PE:
    the [slot, kc, EX, EY] accumulators, each slot's products per bank and
    its products skipped by the stride."""
    n_cells = slots.bank.size
    nw, na = np.diff(w.start), np.diff(a.start)
    size = max(_SCATTER_CHUNK, n_cells + int(na.max(initial=0)))
    lin, prods = np.empty(size, dtype=np.int64), np.empty(size)
    acc, landed = np.zeros(n_cells), np.zeros(n_cells)
    fill = 0
    w_start, a_start = w.start.tolist(), a.start.tolist()
    for q in np.flatnonzero(nw * na).tolist():
        a0, a1 = a_start[q], a_start[q + 1]
        n, al, av = a1 - a0, a.addr[a0:a1], a.vals[a0:a1]
        i0, i_end = w_start[q], w_start[q + 1]
        while i0 < i_end:
            rows = min(i_end - i0, (size - fill) // n)
            if not rows:
                acc += np.bincount(lin[:fill], prods[:fill], n_cells)
                landed += np.bincount(lin[:fill], minlength=n_cells)
                fill = 0
                continue
            i1, m = i0 + rows, rows * n
            # the longer side runs innermost
            (x, y), (u, v) = (w.addr[i0:i1], al), (w.vals[i0:i1], av)
            if rows >= n:
                (x, y), (u, v) = (y, x), (v, u)
            np.add(x[:, None], y, out=lin[fill : fill + m].reshape(x.size, y.size))
            np.multiply(u[:, None], v, out=prods[fill : fill + m].reshape(u.size, v.size))
            i0, fill = i1, fill + m
    acc += np.bincount(lin[:fill], prods[:fill], n_cells)
    landed += np.bincount(lin[:fill], minlength=n_cells)
    n_slots = len(slots.pes)
    bank_totals = np.bincount(slots.bank.reshape(-1), landed, n_slots * slots.n_banks)
    bank_totals = bank_totals.astype(np.int64).reshape(n_slots, -1)
    skipped = a.stored @ w.stored - bank_totals.sum(axis=1)
    return acc.astype(np.int64).reshape(slots.bank.shape), bank_totals, skipped


@dataclass(frozen=True)
class PPUResult:
    blocks: BlockSet    # block pe * kc + i: the group's output channel i on PE pe
    plane: np.ndarray   # merged post-ReLU/pool [kc, Wp, Hp]
    drained_cells: int
    halo_values: int


def _merge_group_plane(acc: np.ndarray, slots: _Slots, kc: int) -> tuple[np.ndarray, int]:
    """Sum every slot's accumulator cells at their global coordinates, through
    the layer's merge map.

    Cells whose output coordinate falls outside the plane are dropped; the
    non-zero cells outside a PE's owned rectangle are the halo traffic."""
    layer = slots.plan.layer
    flat = acc[:, :kc].transpose(1, 0, 2, 3).reshape(kc, -1)
    full = np.zeros((kc, layer.Wo * layer.Ho), dtype=np.int64)
    if slots.cells.size:
        full[:, slots.dest] = np.add.reduceat(flat[:, slots.cells], slots.first, axis=1)
    halo_values = int(np.count_nonzero(flat[:, slots.halo]))
    return full.reshape(kc, layer.Wo, layer.Ho), halo_values


def max_pool(plane: np.ndarray, pool: PoolSpec) -> np.ndarray:
    """Ceil-mode max pooling over the two trailing axes of [k, W, H], one axis
    at a time. Far edges are padded with the dtype's least value, which no
    window can return: each starts inside the plane."""
    k, w, h = plane.shape
    win, st = pool.window, pool.stride
    wo, ho = pool.out_extent(w), pool.out_extent(h)
    least = np.iinfo(plane.dtype).min if plane.dtype.kind in "iu" else -np.inf
    padded = np.full(
        (k, max(w, (wo - 1) * st + win), max(h, (ho - 1) * st + win)), least, plane.dtype
    )
    padded[:, :w, :h] = plane
    cols = np.maximum.reduce([padded[:, d : d + st * wo : st] for d in range(win)])
    return np.maximum.reduce([cols[:, :, d : d + st * ho : st] for d in range(win)])


def _rects(
    w: int, h: int, pe_rows: int, pe_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(x_lo, width, y_lo, height) of each PE's share of a w x h plane."""
    parts = (plane_partition(w, pe_cols), plane_partition(h, pe_rows))
    (x_lo, y_lo), (x_hi, y_hi) = _per_pe(pe_rows, pe_cols, *parts).transpose(2, 1, 0)
    return x_lo, x_hi - x_lo, y_lo, y_hi - y_lo


def ppu_finalize(
    acc: np.ndarray,
    slots: _Slots,
    group: range,
    pool: PoolSpec | None = None,
    index_bits: int = 4,
) -> PPUResult:
    """Group-boundary post-processing across the PE array.

    `acc` holds the group's accumulators laid out as `slots` describes.
    Halo cells are added into their owners' partial sums, the merged plane is
    ReLU'd (and max-pooled when requested), and each PE compresses its slice
    of the result for its output RAM: one block per (PE, output channel),
    all encoded in one pass.
    """
    tile_plan = slots.plan
    kc = len(group)
    merged, halo_values = _merge_group_plane(acc, slots, kc)
    check_range(merged, ACCUM_BITS, f"{tile_plan.layer.name}: merged partial sums")
    plane = np.maximum(merged, 0)
    if pool is not None:
        plane = max_pool(plane, pool)
    drained = kc * int(slots.extent.prod(axis=1).sum())
    x0, wt, y0, ht = _rects(
        plane.shape[1], plane.shape[2], tile_plan.pe_rows, tile_plan.pe_cols
    )
    dense = _pe_major(plane, x0, wt, y0, ht)
    blocks = codec.encode_blocks(dense, np.repeat(wt * ht, kc), index_bits)
    return PPUResult(blocks, plane, drained, halo_values)


@dataclass(frozen=True)
class LayerOutput:
    """Compressed per-PE outputs plus the assembled dense plane (post ReLU
    and pooling). `blocks` holds one set per output-channel group, laid out
    as `ppu_finalize` encodes it. `dense` is what the simulator merged
    internally; `decoded` rebuilds the same plane strictly from the
    compressed blocks."""

    blocks: tuple[BlockSet, ...]
    dense: DenseTensor
    pe_rows: int
    pe_cols: int

    def decoded(self) -> DenseTensor:
        k_total, w, h = self.dense.shape
        n_pes = self.pe_rows * self.pe_cols
        x0, _, y0, ht = _rects(w, h, self.pe_rows, self.pe_cols)
        out = np.zeros(k_total * w * h, dtype=np.int64)
        k_base = 0
        for blocks in self.blocks:
            kc = len(blocks) // n_pes
            ids = blocks.block_ids()
            pe, pos = ids // kc, blocks.positions
            x = x0[pe] + pos // ht[pe]
            y = y0[pe] + pos % ht[pe]
            out[((k_base + ids % kc) * w + x) * h + y] = blocks.values
            k_base += kc
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

    Each group's scatter multiplies only pairs whose stride phases match
    and accumulates them in float64 (see the module docstring). That is
    exact for 16-bit operands while channels_per_group * R * S * 2**30 <
    2**53; a layer beyond that bound raises ConfigurationError.
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
    n_pes = arch.n_pes
    if len(weights.blocks) != gplan.n_groups or any(
        len(b) != layer.C for b in weights.blocks
    ):
        raise ConfigurationError(
            f"expected {gplan.n_groups} weight block sets of {layer.C} channels"
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
    # operand entries read once per layer: activations of every live PE
    # (reused across groups), weights per group (shared by all PEs)
    slots = _slots(plan, kc_max, arch.accum_banks, arch.bank_map)
    acts = _activation_entries(plan, slots, act_tiles)
    w_groups = _weight_entries(layer, weights, slots)
    iaram_stored = int(acts.stored.sum())
    # activation vectors per (PE, channel)
    va = np.zeros((n_pes, layer.C), dtype=np.int64)
    va[slots.pes] = -((-acts.stored) // I)

    total_cycles = 0
    conflict_stalls_total = 0
    fifo_stalls_total = 0
    drain_overhead_total = 0
    stride_skipped = 0
    batches_total = 0
    useful = 0
    out_planes: list[np.ndarray] = []
    out_blocks: list[BlockSet] = []
    # stored output entries per PE, summed over groups
    out_stored = np.zeros(n_pes, dtype=np.int64)
    pe_busy = np.zeros(n_pes, dtype=np.int64)
    pe_wait = np.zeros(n_pes, dtype=np.int64)

    for group, w in zip(gplan.groups, w_groups):
        kc = len(group)
        wv = -((-w.stored) // F)
        acc, bank_totals, skipped = _scatter(w, acts, slots)
        stride_skipped += int(skipped.sum())
        ev.mult_ops += int((acts.stored @ w.stored).sum())
        useful += int((acts.nnz @ w.nnz).sum())
        routed = int(bank_totals.sum())
        ev.xbar_transfers += routed
        ev.acc_updates += routed
        group_batches = va @ wv
        peak = np.zeros(n_pes, dtype=np.int64)
        peak[slots.pes] = bank_totals.max(axis=1)
        # banks retire one product per cycle; within a group the elastic
        # queues hide anything short of sustained single-bank overload
        stall = np.where(group_batches > 0, np.maximum(peak - group_batches, 0), 0)
        conflict_stalls_total += int(stall.sum())
        group_busy = group_batches + stall
        batches_total += int(group_batches.sum())

        compute_t = int(group_busy.max())
        # weight FIFO refill: DRAM streams the group's broadcast weights in
        # parallel with compute; channels whose working set spills the FIFO
        # are re-streamed once per activation-vector pass
        passes = np.where(
            wv <= arch.weight_fifo_entries, 1, np.maximum(va.max(axis=0), 1)
        )
        stream_values = int((w.stored * passes).sum())
        stream_cycles = math.ceil(
            stream_values * coded_bits / 16 / arch.dram_values_per_cycle
        )
        t_eff = max(compute_t, stream_cycles)
        fifo_stalls_total += t_eff - compute_t

        ppu = ppu_finalize(acc, slots, group, pool, arch.index_bits)
        out_planes.append(ppu.plane)
        out_blocks.append(ppu.blocks)
        out_stored += np.diff(ppu.blocks.offsets[::kc])
        ev.acc_drains += ppu.drained_cells
        drain_cycles = math.ceil(kc * cells / arch.ppu_values_per_cycle)
        if arch.accum_double_buffered and gplan.double_buffered:
            group_cycles = max(t_eff, drain_cycles)
            drain_overhead_total += max(0, drain_cycles - t_eff)
        else:
            group_cycles = t_eff + drain_cycles
            drain_overhead_total += drain_cycles
        group_cycles += arch.halo_latency_cycles
        total_cycles += group_cycles
        pe_busy += group_busy
        pe_wait += group_cycles - group_busy

    dense_out = DenseTensor(np.concatenate(out_planes, axis=0), OUT_ROLES)
    output = LayerOutput(tuple(out_blocks), dense_out, arch.pe_rows, arch.pe_cols)

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

    ev.act_ram_bits += iaram_stored * coded_bits * gplan.n_groups
    ev.act_ram_bits += oaram_stored * coded_bits
    # every activation vector of a channel re-reads that channel's weights
    va_sum = va.sum(axis=0)
    ev.weight_buf_bits += coded_bits * sum(
        int((w.stored * va_sum).sum()) for w in w_groups
    )
    ev.dram_bits += sum(b.values.size for b in weights.blocks) * coded_bits
    if input_from_dram or dram_tiled:
        ev.dram_bits += iaram_stored * coded_bits
    if output_to_dram or dram_tiled:
        ev.dram_bits += oaram_stored * coded_bits

    ev.useful_mults = useful
    ev.energized_mults = ev.mult_ops
    ev.mult_slots = batches_total * F * I
    ev.pe_max_batches = int(pe_busy.max())

    report = SimReport.build(
        arch, layer, VARIANT_SCNN, total_cycles, ev, batches_total, pe_busy, pe_wait,
        bank_conflict_stalls=conflict_stalls_total,
        fifo_stalls=fifo_stalls_total,
        drain_overhead_cycles=drain_overhead_total,
        stride_skipped=stride_skipped,
        iaram_footprint=iaram_fp,
        oaram_footprint=oaram_fp,
        dram_tiled=dram_tiled,
        kc=gplan.kc,
        n_groups=gplan.n_groups,
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
    as zero operands): the multiplies DCNN-opt leaves energized."""
    pad, stride = layer.pad, layer.stride
    wo, ho = layer.Wo, layer.Ho
    padded = np.zeros((layer.C, layer.W + 2 * pad, layer.H + 2 * pad), dtype=bool)
    padded[:, pad : pad + layer.W, pad : pad + layer.H] = acts.values != 0
    kpg, cpg = layer.filters_per_group, layer.channels_per_group
    total = 0
    for r in range(layer.R):
        for s in range(layer.S):
            window = padded[:, r : r + stride * wo : stride, s : s + stride * ho : stride]
            a_nnz = window.reshape(layer.C, -1).sum(axis=1)
            for g in range(layer.groups):
                w_per_c = np.count_nonzero(
                    weights.values[g * kpg : (g + 1) * kpg, :, r, s], axis=0
                )
                total += int((w_per_c * a_nnz[g * cpg : (g + 1) * cpg]).sum())
    return total
