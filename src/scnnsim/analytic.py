"""Analytical cost model: event counting, cycles and energy, plus the
architecture and report types and the rules both engines share: the
costs of the sparse PE array and of the dense baselines.

Each machine is costed by one function. The sparse PE array's work is
counted by the cycle-level engine exactly per PE and by `count_events` in
expectation per tile class, both per stride phase, and one function,
`scnn_events`, turns either engine's counts into the row's events and
each output-channel group's cycles. The dense baselines' work depends on
shapes alone, so one function, `dense_baseline`, counts both of their
rows for both engines.

Energy coefficients are relative estimates shipped in the config (ordered
DRAM >> RAM > FIFO > multiply); absolute joules are never asserted.

This module imports neither numpy nor statistics: an analytic run reads
only layer shapes and densities, so it loads neither numpy nor the
cycle-level engine (see the package docstring), and its one normal
quantile is solved on math.erfc rather than paying for statistics and the
fractions and decimal it imports.
"""

from __future__ import annotations

import math
import numbers
import warnings
from functools import lru_cache
from itertools import accumulate, count, product
from operator import mul
from typing import Sequence

from .dataflow import (
    ConfigurationError,
    LayerShape,
    choose_kc,
    partition_tiles,
)
from .record import Record, fields

VARIANT_SCNN = "scnn"
VARIANT_DCNN = "dcnn"
VARIANT_DCNN_OPT = "dcnn-opt"

# compressed runs are summed into positions as int64, so an index field is
# at most 62 bits wide
MAX_INDEX_BITS = 62

# The most PEs a grid may have. Both engines keep per-PE lists and arrays
# (every row's `pe_busy` and `pe_wait`), which a grid of 10**12 PEs would
# never finish building; the shipped configs and sweeps use at most 64.
MAX_PES = 1 << 16


# Bits charged per stored value in RAM and DRAM traffic: the value itself
# plus the per-value coordinate overhead the compressed buffers carry; a
# compressed value costs CODED_VALUE_BITS, a dense one STORED_VALUE_BITS.
STORED_VALUE_BITS = 16
INDEX_OVERHEAD_BITS = 10
CODED_VALUE_BITS = STORED_VALUE_BITS + INDEX_OVERHEAD_BITS


class EventCounts(Record):
    """Operation and traffic totals for one layer run (one variant).

    Each row is built whole by the function that models its machine:
    `scnn_events` (scnn, from either engine's counts) or `dense_baseline`
    (dcnn and dcnn-opt, from shapes, for both engines). Bit counts for
    memories include the per-value index overhead when the structure
    holds compressed data. mult_slots is F x I times the vector batches summed
    over every PE. tiling_dram_bits is the part of dram_bits charged only
    because the layer is tiled through DRAM: the output's round trip, plus
    the input when it would not cross DRAM anyway. pe_cycles is the busiest
    PE's cycles before the whole-layer DRAM bound (`analytic_cycles`): its
    time through every group on the scnn rows, its multiply cycles on the
    dense rows.
    """

    mult_ops: int = 0         # products with operands loaded
    useful_mults: int = 0     # products of two non-zero operands landing on a valid output
    energized_mults: int = 0  # products charged multiply energy (gating off => mult_ops)
    mult_slots: int = 0       # multiplier slots occupied or idled by fragmentation
    pe_cycles: int = 0
    acc_updates: int = 0
    acc_drains: int = 0
    xbar_transfers: int = 0
    act_ram_bits: int = 0
    weight_buf_bits: int = 0
    dram_bits: int = 0
    tiling_dram_bits: int = 0


class EnergyModel(Record):
    """Per-event energy coefficients in units of one 16-bit multiply.

    Every default is this repo's estimate relative to that multiply; none
    has a published source here, so experiments assert orderings and
    crossovers, never joules:
    - mult_op 1.0: the 16-bit multiply itself, the unit;
    - acc_op 0.65: an accumulator update or drain, estimated;
    - xbar_op 0.25: a product routed through the scatter crossbar, estimated;
    - sram_bit 0.03: an activation-RAM bit, estimated;
    - fifo_bit 0.025: a weight-FIFO bit, estimated;
    - dram_bit 4.0: a DRAM bit, estimated.
    `tests/test_claims.py` asserts SCNN's energy win over the box of every
    coefficient halved or doubled (64 vertices).
    """

    mult_op: float = 1.0
    acc_op: float = 0.65
    xbar_op: float = 0.25
    sram_bit: float = 0.03
    fifo_bit: float = 0.025
    dram_bit: float = 4.0

    def __post_init__(self) -> None:
        for name in fields(EnergyModel):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigurationError(f"energy coefficient {name} must be Real, got {value!r}")
            if not 0 <= value < math.inf:  # NaN fails too
                raise ConfigurationError(f"energy coefficient {name} must be >= 0 and finite")
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
        total = sum(breakdown.values())
        if total == math.inf:  # named by the largest term, in the fields' order
            _, name = max(zip(breakdown.values(), fields(self)))
            raise ConfigurationError(f"energy coefficient {name}: a layer's energy overflows")
        return total, breakdown


class PoolSpec(Record):
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


class ArchConfig(Record):
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
    index_bits: int = 4
    bank_map: str = "mod"  # or "xor": fold the linear coordinate before mod
    energy: EnergyModel = EnergyModel()

    def __post_init__(self) -> None:
        # every other knob is an integer; bools pass only where one is due
        kinds = {
            "accum_double_buffered": bool, "dram_values_per_cycle": numbers.Real,
            "bank_map": str, "energy": EnergyModel,
        }
        for name in fields(self):
            value, kind = getattr(self, name), kinds.get(name, numbers.Integral)
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise ConfigurationError(f"{name} must be {kind.__name__}, got {value!r}")
        for attr in (
            "pe_rows", "pe_cols", "weights_per_fetch", "acts_per_fetch",
            "accum_banks", "bank_entries", "iaram_bytes", "oaram_bytes",
            "weight_fifo_entries", "ppu_values_per_cycle",
        ):
            if getattr(self, attr) < 1:
                raise ConfigurationError(f"{attr} must be >= 1")
        if self.n_pes > MAX_PES:
            raise ConfigurationError(
                f"pe_rows * pe_cols = {self.n_pes} PEs exceeds the limit of {MAX_PES}"
            )
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
                stacklevel=3,  # the constructor's caller
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

    def dram_cycles(self, bits) -> int:
        """DRAM's cycles to move `bits` as 16-bit values; refused past float64."""
        t = bits / 16 / self.dram_values_per_cycle
        if t == math.inf:
            raise ConfigurationError("dram_values_per_cycle: a layer's DRAM time overflows")
        return math.ceil(t)


def dense_dram_tiled(arch: ArchConfig, layer: LayerShape, pool: PoolSpec | None) -> bool:
    """Whether the dense baselines tile a layer through DRAM: its raw input
    plus its post-pool output overflow their activation SRAM, which holds
    any split of the two. The baselines keep the sparse array's multipliers
    but hold 2MB of plain 16-bit values, split evenly over each PE's input
    and output RAM, in place of 1MB of compressed RAM."""
    ram_values = 2 * 1024 * 1024 // (2 * arch.n_pes) * 8 // 16
    out_w, out_h = layer.Wo, layer.Ho
    if pool is not None:
        out_w, out_h = pool.out_extent(out_w), pool.out_extent(out_h)
    total = layer.C * layer.W * layer.H + layer.K * out_w * out_h
    return total > arch.n_pes * 2 * ram_values


class SimReport(Record):
    """Per-layer outcome of one variant run, made by `SimReport.build`.

    The event counts come whole from the function that models the row's
    machine (see `EventCounts`), and the builder derives the rest from
    them, so that a row means the same in both engines:
    - energy and its breakdown (`EnergyModel.rollup`);
    - mult_utilization, events.useful_mults over total_mults * cycles;
    - batches, the F x I vector batches summed over every PE,
      events.mult_slots / mults_per_pe;
    - tiling_energy_fraction, the energy DRAM tiling adds over the layer's
      energy without it: penalty / (energy - penalty), where penalty is
      events.tiling_dram_bits * dram_bit.
    The barrier fraction comes from pe_wait; stall and per-PE fields
    default to zero or empty. Every row with per-PE lists has busy + wait
    = n_pes * cycles exactly. The sim's scnn rows count as busy the
    multiply batches plus bank-conflict stalls, and every other PE-cycle
    (barrier skew, FIFO refill, unhidden drain) as wait. The dense rows of
    both engines count as busy each PE's multiply cycles
    (`dense_baseline`), and as wait the rest of the layer's cycles, which
    on a DRAM-bound analytic row (`analytic_cycles`) includes the DRAM
    time beyond the busiest PE. The analytic scnn rows have no lists.
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
    stride_skipped: int = 0  # pairs formed less those landed: a check, 0 on every row
    dram_tiled: bool = False
    pe_busy: tuple[int, ...] = ()
    pe_wait: tuple[int, ...] = ()
    tiling_energy_fraction: float = 0.0

    @property
    def useful_mults(self) -> int:
        return self.events.useful_mults

    @staticmethod
    def build(
        arch: ArchConfig, layer: LayerShape, variant: str, cycles: int, events: EventCounts,
        pe_busy: Sequence[int] = (), pe_wait: Sequence[int] = (), **extra,
    ) -> SimReport:
        energy, breakdown = arch.energy.rollup(events)
        penalty = events.tiling_dram_bits * arch.energy.dram_bit
        untiled = energy - penalty
        pe_wait = tuple(int(w) for w in pe_wait)
        return SimReport(
            layer=layer.name, variant=variant, cycles=cycles,
            mult_utilization=(
                events.useful_mults / (arch.total_mults * cycles) if cycles else 0.0
            ),
            barrier_stall_fraction=sum(pe_wait) / (arch.n_pes * cycles) if cycles else 0.0,
            batches=events.mult_slots // arch.mults_per_pe,
            events=events, energy=energy, energy_breakdown=breakdown,
            tiling_energy_fraction=penalty / untiled if untiled > 0 else 0.0,
            pe_busy=tuple(int(b) for b in pe_busy), pe_wait=pe_wait, **extra,
        )


@lru_cache(maxsize=4096)
def _ceil_vec_moments(n: int, p: float, v: int) -> tuple[float, float]:
    """First two moments of ceil(X / v) for X ~ Binomial(n, p): the expected
    vector count (and its square) when a block of n cells at density p is
    fetched v non-zeros at a time.

    The pmf is taken relative to its term at m = max(1, floor((n+1)p)),
    the likeliest k with a non-zero vector count, set to 1. The walk goes
    outward from m by the ratio of neighbouring terms and stops each side
    at the first term below 1e-20 of m's; the kept terms' own total stands
    in for the pmf's normalisation, so no binomial coefficient is
    evaluated. With ceil(k / v) = #{j >= 0 : k > jv}, the moments are
    E = sum_j P(X > jv) and E2 = sum_j (2j + 1) P(X > jv), read off the
    tail sums at every v-th term. The tests hold both within rel 1e-12 of
    exact rational sums, at n up to 2000 and with the mode at either edge."""
    if n == 0 or p <= 0.0:
        return 0.0, 0.0
    if p >= 1.0:
        c = math.ceil(n / v)
        return float(c), float(c * c)
    odds = p / (1.0 - p)
    m = min(max(int((n + 1) * p), 1), n)
    # term k+1 over term k is (n - k) / (k + 1) * odds
    up, k, pmf = [1.0], m, 1.0
    while k < n:
        pmf *= (n - k) / (k + 1) * odds
        if pmf < 1e-20:
            break
        up.append(pmf)
        k += 1
    down, k, pmf = [], m, 1.0
    while k > 0:
        pmf *= k / (n - k + 1) / odds
        if pmf < 1e-20:
            break
        down.append(pmf)
        k -= 1
    lo = m - len(down)
    # tails[i] is the kept mass at k >= lo + i, summed from the small end
    tails = list(accumulate(up[::-1] + down))[::-1]
    total = tails[0]
    # every kept k exceeds jv below j0; from j0 on, P(X > jv) is tails[jv + 1 - lo]
    j0 = max(0, -(-(lo - 1) // v))
    above = tails[j0 * v + 1 - lo :: v]
    e1 = j0 + math.fsum(above) / total
    e2 = j0 * j0 + math.fsum(map(mul, count(2 * j0 + 1, 2), above)) / total
    return e1, e2


@lru_cache(maxsize=256)
def _max_quantile(n: int) -> float:
    """z with P(Z > z) = 1/(2n) for a standard normal Z, n >= 2: Newton's
    method on erfc(x) = 1/n, and z = sqrt(2) x. Started at x = 0, left of
    the root, the iterates rise to it without overshoot (erfc is convex
    for x > 0); n = 4096 takes 13 steps."""
    target, x = 1.0 / n, 0.0
    for _ in range(100):
        step = (math.erfc(x) - target) * math.exp(x * x) * math.sqrt(math.pi) / 2.0
        x += step
        if step <= 1e-15 * x:
            break
    return math.sqrt(2.0) * x


def _max_of(n: int, mean: float, var: float) -> float:
    """Estimate of the largest of n independent draws with the given mean
    and variance (barrier skew: a group waits for its slowest PE)."""
    if n <= 1 or var <= 0.0:
        return mean
    return mean + _max_quantile(n) * math.sqrt(var)


def scnn_events(
    arch, layer: LayerShape, *, formed: int, landed: int, useful: int, batches: float,
    weight_reads: float, weights: int, ram_inputs: int, dram_inputs: int, outputs: int,
    compute: Sequence, streamed: Sequence, input_from_dram: bool, dram_tiled: bool,
) -> tuple[EventCounts, list, list, list]:
    """The sparse PE array's cost rule, shared by both engines: a layer's
    counts, measured by the cycle-level engine or expected by
    `count_events`, made into the scnn row's events and each
    output-channel group's cycles, FIFO refill (stream beyond compute) and
    unhidden drain. The counts are the layer's, summed over the PEs, but
    compute[g] (the busiest PE's multiply and bank-stall cycles) and
    streamed[g] (its broadcast weight values) are group g's. The group
    takes compute[g] or DRAM's time to stream its weights, whichever is
    longer, then the PPU's drain of kc * cells accumulator entries, hidden
    only when double-buffered, then halo_latency_cycles; a barrier ends
    it. Each PE reads its inputs once per group."""
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    gplan = choose_kc(layer, arch)
    cells = plan.max_acc_cells()
    cycles, refill, unhidden = [], [], []
    for grp, busy, values in zip(gplan.groups, compute, streamed):
        t = max(busy, arch.dram_cycles(values * CODED_VALUE_BITS))
        drain = -(-len(grp) * cells // arch.ppu_values_per_cycle)
        end = max(t, drain) if gplan.double_buffered else t + drain
        cycles.append(end + arch.halo_latency_cycles)
        refill.append(t - busy)
        unhidden.append(end - t)
    act_dram, tiling = activation_dram_bits(
        dram_inputs * CODED_VALUE_BITS, outputs * CODED_VALUE_BITS, input_from_dram, dram_tiled
    )
    events = EventCounts(
        mult_ops=formed, useful_mults=useful, energized_mults=formed,
        mult_slots=round(batches * arch.weights_per_fetch * arch.acts_per_fetch),
        pe_cycles=math.ceil(sum(cycles)), acc_updates=landed, xbar_transfers=landed,
        # each PE drains its accumulator window once per output channel
        acc_drains=layer.K * plan.acc_cells(),
        act_ram_bits=(ram_inputs * gplan.n_groups + outputs) * CODED_VALUE_BITS,
        weight_buf_bits=round(weight_reads * CODED_VALUE_BITS),
        dram_bits=weights * CODED_VALUE_BITS + act_dram, tiling_dram_bits=tiling,
    )
    return events, cycles, refill, unhidden


def activation_dram_bits(
    in_bits: int, out_bits: int, input_from_dram: bool, dram_tiled: bool
) -> tuple[int, int]:
    """A layer's activation DRAM bits, by the rule both engines share, and
    the part of them charged only because the layer is tiled. The input
    crosses DRAM when requested. A tiled layer's output makes a round trip,
    and so does its input when it would not cross anyway."""
    tiling = out_bits + (0 if input_from_dram else in_bits) if dram_tiled else 0
    return (in_bits if input_from_dram else 0) + tiling, tiling


def useful_products(layer: LayerShape, wd: float, ad: float) -> int:
    """Useful multiplies at densities (wd, ad): products of two non-zero
    operands that land on a valid output. Along each axis, tap t reaches the
    outputs o with 0 <= o * stride + t - pad < span; those (output, tap)
    pairs are counted exactly, so the count is exact at densities (1, 1)."""
    st, pad, pairs = layer.stride, layer.pad, 1
    for span, taps, out in ((layer.W, layer.R, layer.Wo), (layer.H, layer.S, layer.Ho)):
        pairs *= sum(
            max(0, min(out, (span - 1 + pad - t) // st + 1) - max(0, (pad - t + st - 1) // st))
            for t in range(taps)
        )
    return round(layer.filters_per_group * layer.C * pairs * wd * ad)


def count_events(
    arch,
    layer: LayerShape,
    dataflow: str,
    densities: tuple[float, float],
    input_from_dram: bool = True,
    dram_tiled: bool = False,
) -> EventCounts:
    """Closed-form event totals of one layer on the sparse PE array:
    compressed operands, Cartesian-product PEs. The counts are expected
    per tile class and stride phase pair, and `scnn_events`, the rule both
    engines share, makes them into events.

    Counted as the cycle-level engine counts them, per (channel, phase):
    an input of padded phase (px, py) meets only the taps of its phase
    (`_Axis.phase_taps`), so the array forms the non-zero pairs of each
    phase, landing or not: its mult_ops, energized_mults, xbar_transfers
    and acc_updates. At stride 1 the one phase is the whole channel.
    useful_mults are those that land on a valid output
    (`useful_products`). The dense baselines are costed by
    `dense_baseline`; `dataflow` must be "sparse".
    """
    if dataflow != "sparse":
        raise ConfigurationError(f"count_events counts the sparse dataflow, not {dataflow!r}")
    wd, ad = densities
    if not (0.0 <= wd <= 1.0 and 0.0 <= ad <= 1.0):
        raise ConfigurationError(f"densities {densities} outside [0, 1]")

    gplan = choose_kc(layer, arch)
    F, I = arch.weights_per_fetch, arch.acts_per_fetch
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    classes = plan.tile_classes()
    tx, ty = plan.x.phase_taps, plan.y.phase_taps
    cpg = layer.channels_per_group

    def group_cost(kws: tuple[int, ...]) -> tuple[float, float, list]:
        """The busiest PE's compute, the weights and, per tile class, the
        batches and weight reads of a group holding kws filters in the
        convolution groups it meets: only a channel's own group's filters
        count. A phase pair's nx * ny inputs meet its rq * sq taps, and the
        weight stream is shared by every PE, so only activation variation
        skews the barrier."""
        # per phase pair, px-major: its weights and weight-vector moments
        phases = [
            (
                sum(cpg * wd * (kw * t) for kw in kws),
                [_ceil_vec_moments(kw * t, wd, F) for kw in kws],
            )
            for t in [rq * sq for rq in tx for sq in ty]
        ]
        best, terms = 0.0, []
        for n, *_, xq, yq in classes:
            mean_pe = var_pe = products = reads = 0.0
            for (nx, ny), (w, ews) in zip(product(xq, yq), phases):
                ea, ea2 = _ceil_vec_moments(nx * ny, ad, I)
                var_a = max(ea2 - ea * ea, 0.0)
                for ew, ew2 in ews:
                    mean_pe += cpg * ew * ea
                    var_pe += cpg * ew2 * var_a
                products += w * ad * nx * ny
                reads += n * ea * w
            terms.append((n * mean_pe, reads))
            # a bank retires one product per cycle, so a PE spends at
            # least its products over its banks (binds below F x I banks)
            best = max(best, _max_of(n, mean_pe, var_pe), products / arch.accum_banks)
        return best, sum(w for w, _ in phases), terms

    # groups alike cost alike: each is costed once, and its terms are
    # summed in group order
    alike: dict[tuple[int, ...], tuple[float, float, list]] = {}
    total_batches = weight_reads = 0.0
    compute, streamed = [], []
    for grp in gplan.groups:
        kws = tuple(len(ks) for ks in layer.conv_spans(grp) if ks)
        if kws not in alike:
            alike[kws] = group_cost(kws)
        best, weights, terms = alike[kws]
        for batches, reads in terms:
            total_batches += batches
            weight_reads += reads
        compute.append(best)
        streamed.append(weights)
    # the plane's phase-matched (tap, input) pairs are the product of the
    # axes'; placeholder slots are negligible in closed form
    pairs = sum(map(mul, tx, plan.x.phase_inputs(0, layer.W))) * sum(
        map(mul, ty, plan.y.phase_inputs(0, layer.H))
    )
    formed = round(layer.K * cpg * pairs * wd * ad)
    # inputs are rounded per tile for the PEs' RAM, per layer for DRAM
    return scnn_events(
        arch, layer, formed=formed, landed=formed, useful=useful_products(layer, wd, ad),
        batches=total_batches, weight_reads=weight_reads,
        weights=round(wd * layer.K * layer.channels_per_group * layer.R * layer.S),
        ram_inputs=sum(n * layer.C * round(ad * wt * ht) for n, wt, ht, *_ in classes),
        dram_inputs=round(layer.C * layer.W * layer.H * ad),
        outputs=round(layer.K * layer.Wo * layer.Ho * ad),
        compute=compute, streamed=streamed,
        input_from_dram=input_from_dram, dram_tiled=dram_tiled,
    )[0]


def dense_baseline(
    arch: ArchConfig,
    layer: LayerShape,
    pool: PoolSpec | None,
    act_density: float,
    useful: int,
    input_from_dram: bool = True,
) -> tuple[list[int], bool, dict[str, EventCounts]]:
    """The dense baselines' cost of one layer, from shapes for both engines:
    each PE's busy cycles in PE order, a straight throughput bound over the
    outputs it owns (plan.y.out_ranges x plan.x.out_ranges); whether the
    layer is tiled through DRAM (`dense_dram_tiled`); and the events of the
    dcnn and dcnn-opt rows, with `useful`, the engine's count of useful
    multiplies, as useful_mults. Both rows run every multiply on
    dot-product PEs holding plain 16-bit values; dcnn-opt energizes only
    the useful ones and moves DRAM activations compressed, at `act_density`.
    Each engine picks its cycles and its rows from them."""
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    classes = plan.tile_classes()
    w_values = layer.K * layer.channels_per_group * layer.R * layer.S
    pe_busy = [
        -(-w_values * (xh - xl) * (yh - yl) // arch.mults_per_pe)
        for yl, yh in plan.y.out_ranges
        for xl, xh in plan.x.out_ranges
    ]
    tiled = dense_dram_tiled(arch, layer, pool)
    val_bits = STORED_VALUE_BITS
    mult_ops = layer.dense_multiplies()
    in_values, out_values = layer.C * layer.W * layer.H, layer.K * layer.Wo * layer.Ho
    # each PE reads its input tile once per output-channel group and
    # streams every weight once per I-wide activation vector of its tile
    tile_cells = sum(n * wt * ht for n, wt, ht, *_ in classes)
    act_vectors = sum(n * -(-wt * ht // arch.acts_per_fetch) for n, wt, ht, *_ in classes)
    n_groups = choose_kc(layer, arch).n_groups

    def row(energized: int, in_bits: int, out_bits: int) -> EventCounts:
        act_dram, tiling = activation_dram_bits(in_bits, out_bits, input_from_dram, tiled)
        return EventCounts(
            mult_ops=mult_ops, useful_mults=useful, energized_mults=energized,
            mult_slots=sum(pe_busy) * arch.mults_per_pe, pe_cycles=max(pe_busy),
            acc_updates=-(-mult_ops // arch.mults_per_pe),
            acc_drains=layer.K * plan.acc_cells(),
            act_ram_bits=(layer.C * tile_cells * n_groups + out_values) * val_bits,
            weight_buf_bits=act_vectors * w_values * val_bits,
            dram_bits=w_values * val_bits + act_dram, tiling_dram_bits=tiling,
        )

    return pe_busy, tiled, {
        VARIANT_DCNN: row(mult_ops, in_values * val_bits, out_values * val_bits),
        VARIANT_DCNN_OPT: row(
            useful,
            round(in_values * act_density) * CODED_VALUE_BITS,
            round(out_values * act_density) * CODED_VALUE_BITS,
        ),
    }


def analytic_cycles(counts: EventCounts, arch) -> int:
    """The analytic engine's cycles: the busiest PE's (`counts.pe_cycles`)
    or, when longer, DRAM's for the layer's traffic (`ArchConfig.dram_cycles`)."""
    return max(counts.pe_cycles, arch.dram_cycles(counts.dram_bits))


def analytic_time_energy(
    counts: EventCounts, arch, model: EnergyModel
) -> tuple[int, float]:
    """`analytic_cycles` plus the energy roll-up."""
    total, _ = model.rollup(counts)
    return analytic_cycles(counts, arch), total
