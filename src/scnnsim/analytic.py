"""Analytical cost model: event counting, bottleneck cycles and energy, plus
the architecture, report and footprint types and the dense baseline's DRAM
tiling rule that both engines share.

Energy coefficients are relative estimates shipped in the config (ordered
DRAM >> RAM > FIFO > multiply); absolute joules are never asserted.

This module imports no numpy: an analytic run reads only layer shapes and
densities, so it loads neither numpy nor the cycle-level engine (see the
package docstring).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .dataflow import (
    ConfigurationError,
    LayerShape,
    cartesian_work,
    choose_kc,
    partition_tiles,
)

if TYPE_CHECKING:
    from .tensors import DenseTensor

VARIANT_SCNN = "scnn"
VARIANT_DCNN = "dcnn"
VARIANT_DCNN_OPT = "dcnn-opt"

# compressed runs are held as int64, so an index field is at most 62 bits wide
MAX_INDEX_BITS = 62


@dataclass(frozen=True)
class FootprintModel:
    """Bits charged per stored value: the value itself plus the per-value
    coordinate overhead the buffers carry."""

    value_bits: int = 16
    index_overhead_bits: int = 10


@dataclass(frozen=True)
class Footprint:
    data_bits: int
    index_bits: int

    @property
    def total_bits(self) -> int:
        return self.data_bits + self.index_bits


@dataclass
class EventCounts:
    """Operation and traffic totals for one layer run (one variant).

    Bit counts for memories include the per-value index overhead when the
    structure holds compressed data. pe_max_batches is the multiplier-array
    occupancy of the busiest PE and drives the compute bottleneck term.
    """

    mult_ops: int = 0         # products with operands loaded
    useful_mults: int = 0     # products with both operands non-zero
    energized_mults: int = 0  # products charged multiply energy (gating off => mult_ops)
    mult_slots: int = 0       # multiplier slots occupied or idled by fragmentation
    pe_max_batches: int = 0
    acc_updates: int = 0
    acc_drains: int = 0
    xbar_transfers: int = 0
    act_ram_bits: int = 0
    weight_buf_bits: int = 0
    dram_bits: int = 0


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy coefficients in abstract units.

    The values are estimates (the reference breakdowns behind them are not
    published); experiments assert orderings and crossovers, never joules.
    """

    mult_op: float = 1.0
    acc_op: float = 0.65
    xbar_op: float = 0.25
    sram_bit: float = 0.03
    fifo_bit: float = 0.025
    dram_bit: float = 4.0

    def __post_init__(self) -> None:
        for f in fields(EnergyModel):
            if not getattr(self, f.name) >= 0:  # NaN fails too
                raise ConfigurationError(f"energy coefficient {f.name} must be >= 0")
        on_chip_bit = max(self.sram_bit, self.fifo_bit)
        if self.dram_bit <= on_chip_bit:
            raise ConfigurationError("DRAM energy per bit must exceed on-chip access")

    def rollup(self, counts: EventCounts) -> tuple[float, dict[str, float]]:
        breakdown = {
            "multiply": counts.energized_mults * self.mult_op,
            "accumulate": (counts.acc_updates + counts.acc_drains) * self.acc_op,
            "crossbar": counts.xbar_transfers * self.xbar_op,
            "act_ram": counts.act_ram_bits * self.sram_bit,
            "weight_buf": counts.weight_buf_bits * self.fifo_bit,
            "dram": counts.dram_bits * self.dram_bit,
        }
        return sum(breakdown.values()), breakdown


@dataclass(frozen=True)
class PoolSpec:
    """Max pooling applied by the post-processing unit after ReLU.

    Output sizing is ceil-mode: partial windows at the far edge produce an
    output, matching the pooling conventions of the shipped networks, but a
    window must start inside the plane (with window < stride the last ceil-
    mode window could start past it and cover nothing)."""

    window: int
    stride: int

    def out_extent(self, span: int) -> int:
        if span < 1:
            return 0
        ceil_mode = max(1, -((-(span - self.window)) // self.stride) + 1)
        return min(ceil_mode, -(-span // self.stride))


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

    def __post_init__(self) -> None:
        # every other knob is an integer; bools pass only where one is due
        kinds = {
            "accum_double_buffered": bool, "dram_values_per_cycle": numbers.Real,
            "bank_map": str, "energy": EnergyModel,
        }
        for f in fields(self):
            value, kind = getattr(self, f.name), kinds.get(f.name, numbers.Integral)
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise ConfigurationError(f"{f.name} must be {kind.__name__}, got {value!r}")
        for attr in (
            "pe_rows", "pe_cols", "weights_per_fetch", "acts_per_fetch",
            "accum_banks", "bank_entries", "iaram_bytes", "oaram_bytes",
            "weight_fifo_entries", "ppu_values_per_cycle", "act_ram_port_bits",
        ):
            if getattr(self, attr) < 1:
                raise ConfigurationError(f"{attr} must be >= 1")
        if self.halo_latency_cycles < 0 or not self.dram_values_per_cycle > 0:
            raise ConfigurationError("bandwidth/latency knobs must be positive")
        if not 1 <= self.index_bits <= MAX_INDEX_BITS:
            raise ConfigurationError(
                f"index_bits {self.index_bits} outside [1, {MAX_INDEX_BITS}]"
            )
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


@lru_cache(maxsize=64)
def dcnn_arch(base: ArchConfig) -> ArchConfig:
    """Dense baseline provisioning: same multiplier budget, 2MB of plain
    activation SRAM instead of 1MB of compressed RAM."""
    per_ram = 2 * 1024 * 1024 // (2 * base.n_pes)
    return replace(base, iaram_bytes=per_ram, oaram_bytes=per_ram)


def dense_dram_tiled(arch: ArchConfig, layer: LayerShape, pool: PoolSpec | None) -> bool:
    """Whether the dense baselines tile a layer through DRAM: its raw input
    plus its post-pool output overflow the 2MB of activation SRAM, which
    holds any split of the two."""
    d = dcnn_arch(arch)
    out_w, out_h = layer.Wo, layer.Ho
    if pool is not None:
        out_w, out_h = pool.out_extent(out_w), pool.out_extent(out_h)
    total = layer.C * layer.W * layer.H + layer.K * out_w * out_h
    return total > d.n_pes * (d.iaram_value_capacity + d.oaram_value_capacity)


@dataclass(frozen=True)
class SimReport:
    """Per-layer outcome of one variant run, made by `SimReport.build`.

    The builder derives energy and its breakdown from the event counts,
    utilization from events.useful_mults, and the barrier fraction from
    pe_wait; stall, footprint and per-PE fields default to zero or empty.
    On the cycle-level engine busy counts multiply batches plus
    bank-conflict stalls; every other PE-cycle (barrier skew, FIFO refill,
    unhidden drain) is wait, so busy + wait sums to n_pes * cycles exactly.
    """

    layer: str
    variant: str
    cycles: int
    mult_utilization: float
    barrier_stall_fraction: float
    batches: int
    events: EventCounts
    energy: float
    energy_breakdown: dict[str, float]
    bank_conflict_stalls: int = 0
    fifo_stalls: int = 0
    drain_overhead_cycles: int = 0
    stride_skipped: int = 0
    iaram_footprint: Footprint = Footprint(0, 0)
    oaram_footprint: Footprint = Footprint(0, 0)
    dram_tiled: bool = False
    pe_busy: tuple[int, ...] = ()
    pe_wait: tuple[int, ...] = ()
    kc: int = 0
    n_groups: int = 1
    tiling_energy_fraction: float = 0.0

    @property
    def useful_mults(self) -> int:
        return self.events.useful_mults

    @staticmethod
    def build(
        arch: ArchConfig, layer: LayerShape, variant: str, cycles: int,
        events: EventCounts, batches: int,
        pe_busy: Sequence[int] = (), pe_wait: Sequence[int] = (), **extra,
    ) -> SimReport:
        energy, breakdown = arch.energy.rollup(events)
        pe_wait = tuple(int(w) for w in pe_wait)
        return SimReport(
            layer=layer.name, variant=variant, cycles=cycles,
            mult_utilization=(
                events.useful_mults / (arch.total_mults * cycles) if cycles else 0.0
            ),
            barrier_stall_fraction=sum(pe_wait) / (arch.n_pes * cycles) if cycles else 0.0,
            batches=batches, events=events, energy=energy, energy_breakdown=breakdown,
            pe_busy=tuple(int(b) for b in pe_busy), pe_wait=pe_wait, **extra,
        )


@lru_cache(maxsize=4096)
def _ceil_vec_moments(n: int, p: float, v: int) -> tuple[float, float]:
    """First two moments of ceil(X / v) for X ~ Binomial(n, p): the expected
    vector count (and its square) when a block of n cells at density p is
    fetched v non-zeros at a time."""
    if n == 0 or p <= 0.0:
        return 0.0, 0.0
    if p >= 1.0:
        c = math.ceil(n / v)
        return float(c), float(c * c)
    log_n, log_p, log_q = math.lgamma(n + 1), math.log(p), math.log1p(-p)
    terms1, terms2 = [], []
    for k in range(n + 1):
        log_comb = log_n - (math.lgamma(k + 1) + math.lgamma(n - k + 1))
        pmf = math.exp(log_comb + k * log_p + (n - k) * log_q)
        ceil_k = -(-k // v)
        terms1.append(pmf * ceil_k)
        terms2.append(pmf * ceil_k * ceil_k)
    return math.fsum(terms1), math.fsum(terms2)


def _max_of(n: int, mean: float, var: float) -> float:
    """Estimate of the largest of n independent draws with the given mean
    and variance (barrier skew: a group waits for its slowest PE)."""
    if n <= 1 or var <= 0.0:
        return mean
    # imported here, its only use: the import costs a few ms per process,
    # and a run that never estimates a barrier skew should not pay them
    from statistics import NormalDist

    z = NormalDist().inv_cdf(1.0 - 1.0 / (2.0 * n))
    return mean + z * math.sqrt(var)


def count_events(
    arch,
    layer: LayerShape,
    dataflow: str,
    densities: tuple[float, float],
    weights: DenseTensor | None = None,
    acts: DenseTensor | None = None,
    input_from_dram: bool = True,
    output_to_dram: bool = False,
    dram_tiled: bool = False,
) -> EventCounts:
    """Closed-form event totals for one layer under the given dataflow.

    `dataflow` is "sparse" (compressed operands, Cartesian-product PEs),
    "dense" or "dense-opt" (dot-product PEs; -opt gates zero-operand
    multiplies and compresses DRAM activation traffic). When the actual
    tensors are supplied the useful-multiply count uses the exact shared
    formula instead of the density product.
    """
    if dataflow not in ("sparse", "dense", "dense-opt"):
        raise ConfigurationError(f"unknown dataflow {dataflow}")
    wd, ad = densities
    if not (0.0 <= wd <= 1.0 and 0.0 <= ad <= 1.0):
        raise ConfigurationError(f"densities {densities} outside [0, 1]")
    sparse = dataflow == "sparse"
    fm = FootprintModel()
    val_bits = fm.value_bits
    coded_bits = fm.value_bits + fm.index_overhead_bits

    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    gplan = choose_kc(layer, arch)
    F = arch.weights_per_fetch
    I = arch.acts_per_fetch

    dense_cart = layer.filters_per_group * layer.C * layer.R * layer.S * layer.W * layer.H
    if weights is not None and acts is not None:
        useful = cartesian_work(layer, weights, acts)
    else:
        useful = round(dense_cart * wd * ad)

    c = EventCounts()
    c.useful_mults = useful

    # weight working set per output-channel group, split at convolution-group
    # boundaries: only the filters of a channel's group are eligible
    kpg = layer.filters_per_group
    group_segments: list[list[tuple[int, int]]] = []  # per group: (channels, cells)
    for grp in gplan.groups:
        segs = []
        for gg in range(layer.groups):
            elig = max(0, min(grp.stop, (gg + 1) * kpg) - max(grp.start, gg * kpg))
            if elig:
                segs.append((layer.channels_per_group, elig * layer.R * layer.S))
        group_segments.append(segs)

    classes = plan.tile_classes()
    op_bits = coded_bits if sparse else val_bits

    if sparse:
        # expected vector counts per fetch stream; the weight stream is shared
        # by every PE, so only activation variation skews the barrier
        total_batches = 0.0
        pe_max_total = 0.0
        for gi, segs in enumerate(group_segments):
            kc = len(gplan.groups[gi])
            group_w_stored = sum(nch * wd * cells for nch, cells in segs)
            best_est = 0.0
            drain_floor = 0.0
            for n, wt, ht, ex, ey, _ in classes:
                ea, ea2 = _ceil_vec_moments(wt * ht, ad, I)
                var_a = max(ea2 - ea * ea, 0.0)
                mean_pe = 0.0
                var_pe = 0.0
                for nch, cells in segs:
                    ew, ew2 = _ceil_vec_moments(cells, wd, F)
                    mean_pe += nch * ew * ea
                    var_pe += nch * ew2 * var_a
                total_batches += n * mean_pe
                best_est = max(best_est, _max_of(n, mean_pe, var_pe))
                drain_floor = max(drain_floor, kc * ex * ey / arch.ppu_values_per_cycle)
                c.acc_drains += n * kc * ex * ey
                c.weight_buf_bits += round(n * ea * group_w_stored * coded_bits)
            stream = group_w_stored * coded_bits / 16 / arch.dram_values_per_cycle
            pe_max_total += (
                max(best_est, drain_floor, stream) + arch.halo_latency_cycles
            )
        c.mult_slots = round(total_batches * F * I)
        c.pe_max_batches = math.ceil(pe_max_total)
    else:
        # dense dot-product core: straight throughput bound over the ragged
        # per-PE output shares; no data-dependent skew
        for n, wt, ht, ex, ey, out_cells in classes:
            pe_mults = layer.K * layer.channels_per_group * layer.R * layer.S * out_cells
            pe_batches = math.ceil(pe_mults / (F * I))
            c.mult_slots += n * pe_batches * F * I
            c.pe_max_batches = max(c.pe_max_batches, pe_batches)
            va = math.ceil(wt * ht / I)
            for gi, segs in enumerate(group_segments):
                kc = len(gplan.groups[gi])
                c.acc_drains += n * kc * ex * ey
                c.weight_buf_bits += n * va * sum(
                    nch * cells * val_bits for nch, cells in segs
                )

    for n, wt, ht, *_ in classes:
        a_stored = wt * ht if not sparse else round(ad * wt * ht)
        c.act_ram_bits += n * layer.C * a_stored * op_bits * gplan.n_groups
    w_cells_total = layer.K * layer.channels_per_group * layer.R * layer.S
    total_w_values = w_cells_total if not sparse else round(wd * w_cells_total)

    if sparse:
        c.mult_ops = useful  # placeholder slots are negligible in closed form
        c.energized_mults = c.mult_ops
        c.xbar_transfers = useful
        c.acc_updates = useful
    else:
        c.mult_ops = layer.dense_multiplies()
        c.energized_mults = c.mult_ops if dataflow == "dense" else useful
        c.acc_updates = math.ceil(c.mult_ops / (F * I))

    out_values = layer.K * layer.Wo * layer.Ho
    out_stored = round(out_values * ad) if sparse else out_values
    c.act_ram_bits += out_stored * coded_bits if sparse else out_values * val_bits

    # DRAM: weights stream once per layer (broadcast); activations cross the
    # boundary when requested or when the layer is tiled through DRAM.
    in_values = layer.C * layer.W * layer.H
    compressed_acts = sparse or dataflow == "dense-opt"
    act_bits_in = round(in_values * ad) * coded_bits if compressed_acts else in_values * val_bits
    act_bits_out = round(out_values * ad) * coded_bits if compressed_acts else out_values * val_bits
    c.dram_bits += total_w_values * (coded_bits if sparse else val_bits)
    if input_from_dram or dram_tiled:
        c.dram_bits += act_bits_in
    if output_to_dram or dram_tiled:
        c.dram_bits += act_bits_out
    return c


def analytic_time_energy(
    counts: EventCounts, arch, model: EnergyModel
) -> tuple[int, float]:
    """Bottleneck cycle estimate plus the energy roll-up.

    Cycles are the maximum over resources of demand / capacity: the busiest
    PE's multiplier occupancy, accumulator bank write ports, activation RAM
    ports, and DRAM bandwidth.
    """
    n_pes = arch.pe_rows * arch.pe_cols
    banks = n_pes * arch.accum_banks
    ram_port_bits = n_pes * arch.act_ram_port_bits
    dram_bits_per_cycle = arch.dram_values_per_cycle * 16
    for name, cap in (
        ("multipliers", n_pes),
        ("accumulator banks", banks),
        ("activation RAM ports", ram_port_bits),
        ("DRAM bandwidth", dram_bits_per_cycle),
    ):
        if cap <= 0:
            raise ConfigurationError(f"resource {name} has zero capacity")
    cycles = max(
        counts.pe_max_batches,
        math.ceil(counts.acc_updates / banks),
        math.ceil(counts.act_ram_bits / ram_port_bits),
        math.ceil(counts.dram_bits / dram_bits_per_cycle),
    )
    total, _ = model.rollup(counts)
    return cycles, total
