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

On the host, each (PE, group) scatter is one pass over phase-matched pairs.
Operand entries are decoded once per layer and sorted by class (input
channel, stride phase): an activation at x has phase (x + pad) % stride, a
tap r has phase r % stride, and a product lands on an output only when the
two phases agree in both axes. Pairs are expanded only inside a class, so
products a stride skips are counted, never formed. Within a class the
accumulator address separates into a weight term plus an activation term,
and pairs are expanded in fixed-size chunks and summed with `np.bincount`
in float64. Those sums are exact because operands are 16-bit (products
< 2**30) and at most channels_per_group * R * S products reach one cell;
`simulate_scnn_layer` rejects layers where that could reach 2**53.

Functional equivalence is the master contract: the decoded, halo-merged,
ReLU'd (and optionally pooled) outputs equal the exact reference convolution
bit for bit.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Sequence

import numpy as np

from . import codec
from .analytic import (
    DCNN_AREA,
    SCNN_AREA,
    AreaTable,
    EnergyModel,
    EventCounts,
    count_events,
)
from .codec import (
    ACTIVATION_TILE,
    WEIGHT_GROUP,
    CompressedBlock,
    Footprint,
    FootprintModel,
)
from .dataflow import (
    ConfigurationError,
    GroupPlan,
    TilePlan,
    choose_kc,
    partition_tiles,
)
from .tensors import (
    ACCUM_MAX,
    ACCUM_MIN,
    DenseTensor,
    FixedPointOverflow,
    LayerShape,
    OUT_ROLES,
    check_operand_range,
)

VARIANT_SCNN = "scnn"
VARIANT_DCNN = "dcnn"
VARIANT_DCNN_OPT = "dcnn-opt"


@dataclass(frozen=True)
class PoolSpec:
    """Max pooling applied by the post-processing unit after ReLU.

    Output sizing is ceil-mode: partial windows at the far edge produce an
    output, matching the pooling conventions of the shipped networks."""

    window: int
    stride: int

    def out_extent(self, span: int) -> int:
        if span < 1:
            return 0
        return max(1, -((-(span - self.window)) // self.stride) + 1)


@dataclass(frozen=True)
class ArchConfig:
    """Hardware knobs for the sparse accelerator and its dense baselines."""

    pe_rows: int = 8
    pe_cols: int = 8
    weights_per_fetch: int = 4   # weight vector width per cycle
    acts_per_fetch: int = 4      # activation vector width per cycle
    accum_banks: int = 32
    bank_entries: int = 32
    iaram_bytes: int = 10 * 1024
    oaram_bytes: int = 10 * 1024
    weight_fifo_entries: int = 50  # F-wide vectors resident per PE
    accum_double_buffered: bool = True
    dram_values_per_cycle: float = 16.0  # 16-bit value units per cycle
    ppu_values_per_cycle: int = 16
    halo_latency_cycles: int = 0
    act_ram_port_bits: int = 104  # per-PE activation RAM bits per cycle
    index_bits: int = 4
    bank_map: str = "mod"  # or "xor": fold the linear coordinate before mod
    energy: EnergyModel = field(default_factory=EnergyModel)
    scnn_area: AreaTable = SCNN_AREA
    dcnn_area: AreaTable = DCNN_AREA

    def __post_init__(self) -> None:
        for attr in (
            "pe_rows", "pe_cols", "weights_per_fetch", "acts_per_fetch",
            "accum_banks", "bank_entries", "iaram_bytes", "oaram_bytes",
            "weight_fifo_entries", "ppu_values_per_cycle", "act_ram_port_bits",
        ):
            if getattr(self, attr) < 1:
                raise ConfigurationError(f"{attr} must be >= 1")
        if self.halo_latency_cycles < 0 or self.dram_values_per_cycle <= 0:
            raise ConfigurationError("bandwidth/latency knobs must be positive")
        if self.bank_map not in ("mod", "xor"):
            raise ConfigurationError(f"unknown bank_map {self.bank_map}")
        if self.accum_banks < self.weights_per_fetch * self.acts_per_fetch:
            warnings.warn(
                "accumulator banks fewer than multiplier products per cycle; "
                "expect heavy contention",
                stacklevel=2,
            )

    @property
    def n_pes(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def mults_per_pe(self) -> int:
        return self.weights_per_fetch * self.acts_per_fetch

    @property
    def total_mults(self) -> int:
        return self.n_pes * self.mults_per_pe

    @property
    def iaram_value_capacity(self) -> int:
        return self.iaram_bytes * 8 // 16

    @property
    def oaram_value_capacity(self) -> int:
        return self.oaram_bytes * 8 // 16


def dcnn_arch(base: ArchConfig) -> ArchConfig:
    """Dense baseline provisioning: same multiplier budget, 2MB of plain
    activation SRAM instead of 1MB of compressed RAM."""
    per_ram = 2 * 1024 * 1024 // (2 * base.n_pes)
    return replace(base, iaram_bytes=per_ram, oaram_bytes=per_ram)


@dataclass
class PEState:
    """Mutable per-PE simulation state. The input and output activation RAMs
    hold compressed blocks; the accumulator is dense for the current group."""

    pe: int
    iaram: dict[int, CompressedBlock] = field(default_factory=dict)
    oaram: dict[int, CompressedBlock] = field(default_factory=dict)
    acc: np.ndarray | None = None


@dataclass(frozen=True)
class SimReport:
    """Per-layer outcome of one variant run.

    busy counts multiply batches plus bank-conflict stalls; every other
    PE-cycle (barrier skew, FIFO refill, unhidden drain) is wait, so
    busy + wait sums to n_pes * cycles exactly.
    """

    layer: str
    variant: str
    cycles: int
    useful_mults: int
    mult_utilization: float
    barrier_stall_fraction: float
    bank_conflict_stalls: int
    fifo_stalls: int
    drain_overhead_cycles: int
    stride_skipped: int
    batches: int
    events: EventCounts
    energy: float
    energy_breakdown: dict[str, float]
    iaram_footprint: Footprint
    oaram_footprint: Footprint
    dram_tiled: bool
    pe_busy: tuple[int, ...]
    pe_wait: tuple[int, ...]
    kc: int = 0
    n_groups: int = 1
    oracle_checked: bool = False
    tiling_energy_fraction: float = 0.0


@dataclass(frozen=True)
class WeightStream:
    """Broadcast weight blocks, one per (output-channel group, input channel),
    linearized k-major then r then s over the group's eligible filters."""

    layer: LayerShape
    gplan: GroupPlan
    blocks: dict[tuple[int, int], CompressedBlock]
    k_offset: dict[tuple[int, int], int]  # first eligible k within the group

    def block(self, group_index: int, channel: int) -> CompressedBlock | None:
        return self.blocks.get((group_index, channel))

    def stored_values(self, group_index: int | None = None) -> int:
        return sum(
            b.stored_count
            for (gi, _), b in self.blocks.items()
            if group_index is None or gi == group_index
        )


def compress_weights(
    layer: LayerShape, gplan: GroupPlan, weights: DenseTensor, index_bits: int = 4
) -> WeightStream:
    """Encode pruned weights per (group, channel) for broadcast to the PEs."""
    check_operand_range(weights, "weight")
    blocks: dict[tuple[int, int], CompressedBlock] = {}
    offsets: dict[tuple[int, int], int] = {}
    kpg = layer.filters_per_group
    cpg = layer.channels_per_group
    for gi, grp in enumerate(gplan.groups):
        for c in range(layer.C):
            gg = c // cpg
            k_lo = max(grp.start, gg * kpg)
            k_hi = min(grp.stop, (gg + 1) * kpg)
            if k_lo >= k_hi:
                continue
            dense = weights.values[k_lo:k_hi, c % cpg].reshape(-1)
            blocks[(gi, c)] = codec.encode_block(dense, index_bits, WEIGHT_GROUP)
            offsets[(gi, c)] = k_lo - grp.start
    return WeightStream(layer, gplan, blocks, offsets)


def distribute_activations(
    plan: TilePlan, acts: DenseTensor, index_bits: int = 4
) -> list[dict[int, CompressedBlock]]:
    """Per-PE compressed channel tiles (x-major then y within the tile)."""
    check_operand_range(acts, "activation")
    if acts.shape != plan.layer.input_shape():
        raise ConfigurationError(
            f"activations {acts.shape} do not match layer {plan.layer.input_shape()}"
        )
    if acts.size and int(acts.values.min()) < 0:
        raise ConfigurationError("input activations must be non-negative (post ReLU)")
    out = []
    for pe in range(plan.n_pes):
        t = plan.tile(pe)
        tiles: dict[int, CompressedBlock] = {}
        if not t.empty:
            for c in range(plan.layer.C):
                dense = acts.values[c, t.x0 : t.x0 + t.wt, t.y0 : t.y0 + t.ht]
                tiles[c] = codec.encode_block(
                    dense.reshape(-1), index_bits, ACTIVATION_TILE
                )
        out.append(tiles)
    return out


def prepare_scnn_inputs(
    arch: ArchConfig, layer: LayerShape, weights: DenseTensor, acts: DenseTensor
) -> tuple[WeightStream, list[dict[int, CompressedBlock]]]:
    """Plan the layer and compress/distribute dense operands for the array."""
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    gplan = choose_kc(layer, arch)
    stream = compress_weights(layer, gplan, weights, arch.index_bits)
    tiles = distribute_activations(plan, acts, arch.index_bits)
    return stream, tiles


def route_batch(products: Iterable[tuple[int, int]]) -> int:
    """Stall cycles one batch of (bank_id, value) products adds in isolation.

    The batch completes in max(1, max products on one bank) cycles since each
    bank accepts one product per cycle; the stall is that minus one.
    """
    counts = Counter(bank for bank, _ in products)
    worst = max(counts.values(), default=0)
    return max(1, worst) - 1


def _bank_ids(linear: np.ndarray, banks: int, bank_map: str) -> np.ndarray:
    if bank_map == "xor":
        return ((linear >> 5) ^ linear) % banks
    return linear % banks


# Pairs expanded per bincount pass. A pass holds a few 8-byte arrays of this
# length, so the chunk bounds the scatter's working memory whatever the layer
# size and keeps it cache-sized.
_SCATTER_CHUNK = 1 << 14

# A 16-bit x 16-bit product is below 2**30 in magnitude; float64 sums of
# integers stay exact below 2**53.
_PRODUCT_BITS = 30
_EXACT_FLOAT_BITS = 53


@dataclass(frozen=True)
class _Entries:
    """Decoded entries of one operand stream (one PE's activation tiles or
    one group's weights), placeholders included, sorted by class
    channel * stride**2 + phase. Class q owns entries start[q]:start[q + 1].

    `addr` holds the per-entry terms of the separable accumulator address:
    (k, r // stride, s // stride) for weights, the activation term for
    activations."""

    vals: np.ndarray              # float64 operand values
    cls: np.ndarray
    start: np.ndarray
    stored: np.ndarray            # entries per channel
    nnz: np.ndarray               # non-zero entries per channel
    addr: tuple[np.ndarray, ...]


def _decoded(
    blocks: Sequence[tuple[int, CompressedBlock]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(channel, value, dense position) of every stored entry of
    (channel, block) pairs, concatenated in order."""
    if not blocks:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    decoded = [codec.decode_entries(b) for _, b in blocks]
    chan = np.repeat(
        np.array([c for c, _ in blocks], dtype=np.int64),
        [v.size for v, _ in decoded],
    )
    vals = np.concatenate([v for v, _ in decoded])
    pos = np.concatenate([p for _, p in decoded])
    return chan, vals, pos


def _entries(
    n_channels: int,
    stride: int,
    chan: np.ndarray,
    vals: np.ndarray,
    phase: tuple[np.ndarray, np.ndarray],
    addr: tuple[np.ndarray, ...],
) -> _Entries:
    """Sort decoded entries by class and count them per class and channel."""
    n_cls = n_channels * stride * stride
    cls = (chan * stride + phase[0]) * stride + phase[1]
    order = np.argsort(cls, kind="stable")
    start = np.zeros(n_cls + 1, dtype=np.int64)
    np.cumsum(np.bincount(cls, minlength=n_cls), out=start[1:])
    return _Entries(
        vals=vals[order].astype(np.float64),
        cls=cls[order],
        start=start,
        stored=np.bincount(chan, minlength=n_channels),
        nnz=np.bincount(chan[vals != 0], minlength=n_channels),
        addr=tuple(a[order] for a in addr),
    )


def _weight_entries(layer: LayerShape, weights: WeightStream) -> list[_Entries]:
    """Weight entries of each output-channel group, shared by every PE."""
    s = layer.stride
    rs = layer.R * layer.S
    per_group: list[list[tuple[int, CompressedBlock]]] = [
        [] for _ in weights.gplan.groups
    ]
    for (gi, c), block in weights.blocks.items():
        per_group[gi].append((c, block))
    out = []
    for gi, blocks in enumerate(per_group):
        chan, vals, pos = _decoded(blocks)
        k_offset = np.array(
            [weights.k_offset[(gi, c)] for c, _ in blocks], dtype=np.int64
        )
        k = np.repeat(k_offset, [b.stored_count for _, b in blocks]) + pos // rs
        r, t = (pos % rs) // layer.S, pos % layer.S
        out.append(_entries(layer.C, s, chan, vals, (r % s, t % s), (k, r // s, t // s)))
    return out


def _activation_entries(
    plan: TilePlan, pe: int, tiles: dict[int, CompressedBlock]
) -> _Entries:
    """One PE's activation entries; the address term is
    ((x + pad) // stride) * ey + (y + pad) // stride."""
    layer = plan.layer
    s, pad = layer.stride, layer.pad
    t = plan.tile(pe)
    for c, block in tiles.items():
        if block.logical_extent != t.wt * t.ht:
            raise ConfigurationError(
                f"pe {pe} channel {c}: block extent {block.logical_extent} "
                f"does not match tile {t.wt}x{t.ht}"
            )
    chan, vals, pos = _decoded(list(tiles.items()))
    x = t.x0 + pos // t.ht + pad
    y = t.y0 + pos % t.ht + pad
    ey = plan.acc_extent(pe)[1]
    return _entries(layer.C, s, chan, vals, (x % s, y % s), ((x // s) * ey + y // s,))


def _scatter_group(
    w: _Entries,
    a: _Entries,
    kc: int,
    base: tuple[int, int],
    extent: tuple[int, int],
    banks: int,
    bank_map: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Multiply and accumulate every weight/activation pair of one PE and
    one output-channel group.

    Returns the [kc, ex, ey] accumulator, the products landed on each bank
    and the products skipped by the stride. Only phase-matched pairs are
    formed; a pair (i, j) lands at cell wl[i] + al[j].
    """
    (xb, yb), (ex, ey) = base, extent
    n_cells = kc * ex * ey
    k, rq, sq = w.addr
    wl = (k * ex - rq - xb) * ey - sq - yb
    (al,) = a.addr
    partners = np.diff(a.start)[w.cls]  # activations each weight meets
    first = a.start[w.cls]
    ends = np.cumsum(partners)
    acc = np.zeros(n_cells)
    landed = np.zeros(n_cells, dtype=np.int64)
    i0 = done = 0
    while i0 < partners.size:
        i1 = max(i0 + 1, int(np.searchsorted(ends, done + _SCATTER_CHUNK, "right")))
        n = partners[i0:i1]
        pairs = int(ends[i1 - 1]) - done
        if pairs:
            aidx = np.repeat(first[i0:i1] - (ends[i0:i1] - n - done), n)
            aidx += np.arange(pairs)
            lin = np.repeat(wl[i0:i1], n) + al[aidx]
            prods = np.repeat(w.vals[i0:i1], n) * a.vals[aidx]
            acc += np.bincount(lin, weights=prods, minlength=n_cells)
            landed += np.bincount(lin, minlength=n_cells)
        i0, done = i1, done + pairs
    bank_totals = np.bincount(
        _bank_ids(np.arange(n_cells), banks, bank_map),
        weights=landed,
        minlength=banks,
    ).astype(np.int64)
    skipped = int((w.stored * a.stored).sum()) - done
    return acc.astype(np.int64).reshape(kc, ex, ey), bank_totals, skipped


@dataclass(frozen=True)
class PPUResult:
    blocks: list[dict[int, CompressedBlock]]  # per PE: out channel -> block
    plane: np.ndarray                         # merged post-ReLU/pool [kc, Wp, Hp]
    drained_cells: int
    halo_values: int


def _merge_group_plane(
    accs: Sequence[np.ndarray | None], plan: TilePlan, kc: int
) -> tuple[np.ndarray, int]:
    """Sum every PE's live accumulator cells at their global coordinates.

    Cells whose output coordinate falls outside the plane are dropped; the
    non-zero cells outside a PE's owned rectangle are the halo traffic."""
    layer = plan.layer
    full = np.zeros((kc, layer.Wo, layer.Ho), dtype=np.int64)
    halo_values = 0
    for pe in range(plan.n_pes):
        acc = accs[pe]
        if acc is None:
            continue
        xb, yb = plan.acc_base(pe)
        ex, ey = plan.acc_extent(pe)
        xl, xh = max(0, -xb), min(ex, layer.Wo - xb)
        yl, yh = max(0, -yb), min(ey, layer.Ho - yb)
        if xl >= xh or yl >= yh:
            continue
        window = acc[:, xl:xh, yl:yh]
        full[:, xb + xl : xb + xh, yb + yl : yb + yh] += window
        (oxl, oxh), (oyl, oyh) = plan.owned_out_range(pe)
        own = window[
            :,
            max(oxl - xb - xl, 0) : max(oxh - xb - xl, 0),
            max(oyl - yb - yl, 0) : max(oyh - yb - yl, 0),
        ]
        halo_values += int(np.count_nonzero(window)) - int(np.count_nonzero(own))
    return full, halo_values


def _check_accum(plane: np.ndarray, layer_name: str) -> None:
    if plane.size == 0:
        return
    lo, hi = int(plane.min()), int(plane.max())
    if lo < ACCUM_MIN or hi > ACCUM_MAX:
        raise FixedPointOverflow(
            f"{layer_name}: merged partial sums [{lo}, {hi}] exceed 24-bit range"
        )


def max_pool(plane: np.ndarray, pool: PoolSpec) -> np.ndarray:
    """Ceil-mode max pooling over the two trailing axes of [k, W, H]."""
    k, w, h = plane.shape
    wo, ho = pool.out_extent(w), pool.out_extent(h)
    out = np.empty((k, wo, ho), dtype=plane.dtype)
    for i in range(wo):
        for j in range(ho):
            xs = slice(i * pool.stride, min(i * pool.stride + pool.window, w))
            ys = slice(j * pool.stride, min(j * pool.stride + pool.window, h))
            out[:, i, j] = plane[:, xs, ys].max(axis=(1, 2))
    return out


def plane_partition(span: int, parts: int) -> list[tuple[int, int]]:
    """Even split of an output plane axis, last parts ragged or empty."""
    width = -((-span) // parts)
    return [(min(p * width, span), min((p + 1) * width, span)) for p in range(parts)]


def ppu_finalize(
    pe_accumulators: Sequence[np.ndarray | None],
    tile_plan: TilePlan,
    group: range,
    pool: PoolSpec | None = None,
    index_bits: int = 4,
) -> PPUResult:
    """Group-boundary post-processing across the PE array.

    Halo cells are added into their owners' partial sums, the merged plane is
    ReLU'd (and max-pooled when requested), and each PE compresses its slice
    of the result for its output RAM.
    """
    layer = tile_plan.layer
    merged, halo_values = _merge_group_plane(pe_accumulators, tile_plan, len(group))
    _check_accum(merged, layer.name)
    plane = np.maximum(merged, 0)
    if pool is not None:
        plane = max_pool(plane, pool)
    xr = plane_partition(plane.shape[1], tile_plan.pe_cols)
    yr = plane_partition(plane.shape[2], tile_plan.pe_rows)
    drained = 0
    blocks: list[dict[int, CompressedBlock]] = []
    for pe in range(tile_plan.n_pes):
        acc = pe_accumulators[pe]
        if acc is not None:
            drained += acc.size
        xlo, xhi = xr[pe % tile_plan.pe_cols]
        ylo, yhi = yr[pe // tile_plan.pe_cols]
        mine: dict[int, CompressedBlock] = {}
        if xhi > xlo and yhi > ylo:
            for ki, k in enumerate(group):
                dense = plane[ki, xlo:xhi, ylo:yhi].reshape(-1)
                mine[k] = codec.encode_block(dense, index_bits, ACTIVATION_TILE)
        blocks.append(mine)
    return PPUResult(blocks, plane, drained, halo_values)


@dataclass(frozen=True)
class LayerOutput:
    """Compressed per-PE outputs plus the assembled dense plane (post ReLU
    and pooling). `dense` is what the simulator merged internally; `decoded`
    rebuilds the same plane strictly from the compressed blocks."""

    blocks: list[dict[int, CompressedBlock]]
    dense: DenseTensor
    pe_rows: int
    pe_cols: int

    def decoded(self) -> DenseTensor:
        k_total, w, h = self.dense.shape
        xr = plane_partition(w, self.pe_cols)
        yr = plane_partition(h, self.pe_rows)
        out = np.zeros((k_total, w, h), dtype=np.int64)
        for pe, per_k in enumerate(self.blocks):
            xlo, xhi = xr[pe % self.pe_cols]
            ylo, yhi = yr[pe // self.pe_cols]
            for k, block in per_k.items():
                tile = codec.decode_block(block).reshape(xhi - xlo, yhi - ylo)
                out[k, xlo:xhi, ylo:yhi] = tile
        return DenseTensor(out, OUT_ROLES)


def simulate_scnn_layer(
    arch: ArchConfig,
    layer: LayerShape,
    weights: WeightStream,
    act_tiles: list[dict[int, CompressedBlock]],
    pool: PoolSpec | None = None,
    input_from_dram: bool = True,
    output_to_dram: bool = False,
    trace: IO | None = None,
) -> tuple[LayerOutput, SimReport]:
    """Run one layer through the sparse PE array.

    Activations must already be distributed per the layer's tile plan and the
    weights broadcast (same stream for every PE). Returns the compressed
    per-PE outputs and the cycle/energy report.

    Each (PE, group) scatter multiplies only pairs whose stride phases match
    and accumulates them in float64 (see the module docstring). That is
    exact for 16-bit operands while channels_per_group * R * S * 2**30 <
    2**53; a layer beyond that bound raises ConfigurationError.
    """
    per_cell = layer.channels_per_group * layer.R * layer.S
    if per_cell << _PRODUCT_BITS >= 1 << _EXACT_FLOAT_BITS:
        raise ConfigurationError(
            f"{layer.name}: {per_cell} products per accumulator cell "
            f"(channels_per_group * R * S) could exceed 2**{_EXACT_FLOAT_BITS}, "
            "past exact float64 accumulation"
        )
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    gplan = weights.gplan
    n_pes = arch.n_pes
    if len(act_tiles) != n_pes:
        raise ConfigurationError(f"expected {n_pes} activation tile sets")
    F, I = arch.weights_per_fetch, arch.acts_per_fetch
    fm = FootprintModel()
    coded_bits = fm.value_bits + fm.index_overhead_bits

    states = [PEState(pe, iaram=dict(act_tiles[pe])) for pe in range(n_pes)]
    ev = EventCounts()

    # operand entries decoded once per layer: activations per PE (reused
    # across groups), weights per group (shared by all PEs)
    live = [pe for pe in range(n_pes) if not plan.tile(pe).empty]
    acts = {pe: _activation_entries(plan, pe, states[pe].iaram) for pe in live}
    w_groups = _weight_entries(layer, weights)
    iaram_stored = sum(int(e.stored.sum()) for e in acts.values())
    # activation vectors per (PE, channel)
    va = np.zeros((n_pes, layer.C), dtype=np.int64)
    for pe, e in acts.items():
        va[pe] = -((-e.stored) // I)

    total_cycles = 0
    conflict_stalls_total = 0
    fifo_stalls_total = 0
    drain_overhead_total = 0
    stride_skipped = 0
    batches_total = 0
    useful = 0
    out_planes: list[np.ndarray] = []
    out_blocks: list[dict[int, CompressedBlock]] = [dict() for _ in range(n_pes)]
    pe_busy = np.zeros(n_pes, dtype=np.int64)
    pe_wait = np.zeros(n_pes, dtype=np.int64)

    for gi, group in enumerate(gplan.groups):
        kc = len(group)
        w = w_groups[gi]
        wv = -((-w.stored) // F)
        group_busy = np.zeros(n_pes, dtype=np.int64)
        group_batches = np.zeros(n_pes, dtype=np.int64)
        for pe in live:
            ex, ey = plan.acc_extent(pe)
            if kc * ex * ey > gplan.capacity_entries:
                raise ConfigurationError(
                    f"group of {kc} channels overflows the accumulator "
                    f"({kc * ex * ey} > {gplan.capacity_entries} entries)"
                )
            a = acts[pe]
            states[pe].acc, bank_totals, skipped = _scatter_group(
                w, a, kc, plan.acc_base(pe), (ex, ey), arch.accum_banks, arch.bank_map
            )
            stride_skipped += skipped
            batches = int((wv * va[pe]).sum())
            ev.mult_ops += int((w.stored * a.stored).sum())
            useful += int((w.nnz * a.nnz).sum())
            routed = int(bank_totals.sum())
            ev.xbar_transfers += routed
            ev.acc_updates += routed
            # banks retire one product per cycle; within a group the elastic
            # queues hide anything short of sustained single-bank overload
            stall = max(0, int(bank_totals.max()) - batches) if batches else 0
            conflict_stalls_total += stall
            group_busy[pe] = batches + stall
            group_batches[pe] = batches
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

        ppu = ppu_finalize(
            [st.acc for st in states], plan, group, pool, arch.index_bits
        )
        out_planes.append(ppu.plane)
        for pe in range(n_pes):
            for k, block in ppu.blocks[pe].items():
                out_blocks[pe][k] = block
                states[pe].oaram[k] = block
        ev.acc_drains += ppu.drained_cells
        drain_cycles = math.ceil(
            max(st.acc.size if st.acc is not None else 0 for st in states)
            / arch.ppu_values_per_cycle
        )
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
        for st in states:
            st.acc = None  # drained and cleared
        if trace is not None:
            for pe in range(n_pes):
                trace.write(
                    f"layer={layer.name} group={gi} pe={pe} "
                    f"batches={int(group_batches[pe])} busy={int(group_busy[pe])} "
                    f"group_cycles={group_cycles}\n"
                )

    dense_out = (
        np.concatenate(out_planes, axis=0)
        if out_planes
        else np.zeros((0, layer.Wo, layer.Ho), dtype=np.int64)
    )
    output = LayerOutput(
        out_blocks, DenseTensor(dense_out, OUT_ROLES), arch.pe_rows, arch.pe_cols
    )

    oaram_stored = sum(
        b.stored_count for blocks in out_blocks for b in blocks.values()
    )
    iaram_fp = Footprint(
        iaram_stored * fm.value_bits, iaram_stored * fm.index_overhead_bits
    )
    oaram_fp = Footprint(
        oaram_stored * fm.value_bits, oaram_stored * fm.index_overhead_bits
    )
    dram_tiled = False
    for pe in range(n_pes):
        in_stored = sum(b.stored_count for b in states[pe].iaram.values())
        out_stored = sum(b.stored_count for b in states[pe].oaram.values())
        if in_stored > arch.iaram_value_capacity or out_stored > arch.oaram_value_capacity:
            dram_tiled = True

    ev.act_ram_bits += iaram_stored * coded_bits * gplan.n_groups
    ev.act_ram_bits += oaram_stored * coded_bits
    # every activation vector of a channel re-reads that channel's weights
    va_sum = va.sum(axis=0)
    ev.weight_buf_bits += coded_bits * sum(
        int((w.stored * va_sum).sum()) for w in w_groups
    )
    ev.dram_bits += weights.stored_values() * coded_bits
    if input_from_dram or dram_tiled:
        ev.dram_bits += iaram_stored * coded_bits
    if output_to_dram or dram_tiled:
        ev.dram_bits += oaram_stored * coded_bits

    ev.useful_mults = useful
    ev.energized_mults = ev.mult_ops
    ev.mult_slots = batches_total * F * I
    ev.pe_max_batches = int(pe_busy.max())

    energy, breakdown = arch.energy.rollup(ev)
    util = useful / (arch.total_mults * total_cycles) if total_cycles else 0.0
    wait_total = int(pe_wait.sum())
    report = SimReport(
        layer=layer.name,
        variant=VARIANT_SCNN,
        cycles=total_cycles,
        useful_mults=useful,
        mult_utilization=util,
        barrier_stall_fraction=(
            wait_total / (n_pes * total_cycles) if total_cycles else 0.0
        ),
        bank_conflict_stalls=conflict_stalls_total,
        fifo_stalls=fifo_stalls_total,
        drain_overhead_cycles=drain_overhead_total,
        stride_skipped=stride_skipped,
        batches=batches_total,
        events=ev,
        energy=energy,
        energy_breakdown=breakdown,
        iaram_footprint=iaram_fp,
        oaram_footprint=oaram_fp,
        dram_tiled=dram_tiled,
        pe_busy=tuple(int(b) for b in pe_busy),
        pe_wait=tuple(int(w) for w in pe_wait),
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
    dense_arch = dcnn_arch(arch)
    counts = count_events(
        dense_arch,
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
    dram_tiled = in_values > dense_arch.n_pes * dense_arch.iaram_value_capacity or (
        out_values > dense_arch.n_pes * dense_arch.oaram_value_capacity
    )

    energy, breakdown = arch.energy.rollup(counts)
    useful = counts.useful_mults
    util = useful / (arch.total_mults * cycles) if cycles else 0.0
    wait = [cycles - b for b in pe_busy]
    return SimReport(
        layer=layer.name,
        variant=variant,
        cycles=cycles,
        useful_mults=useful,
        mult_utilization=util,
        barrier_stall_fraction=(
            sum(wait) / (arch.n_pes * cycles) if cycles else 0.0
        ),
        bank_conflict_stalls=0,
        fifo_stalls=0,
        drain_overhead_cycles=0,
        stride_skipped=0,
        batches=sum(pe_busy),
        events=counts,
        energy=energy,
        energy_breakdown=breakdown,
        iaram_footprint=Footprint(in_values * 16, 0),
        oaram_footprint=Footprint(out_values * 16, 0),
        dram_tiled=dram_tiled,
        pe_busy=tuple(pe_busy),
        pe_wait=tuple(wait),
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
