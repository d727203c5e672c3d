"""Every report row obeys its own definitions, in both engines, on random
single layers and random architectures; `check_layer_reports` is the one
checker of layer rows and `check_network_row` of network totals, both
shared with the network runs and sweeps of test_workloads."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from scnnsim.analytic import VARIANT_DCNN, VARIANT_DCNN_OPT, VARIANT_SCNN, ArchConfig, EventCounts
from scnnsim.dataflow import LayerShape, partition_tiles
from scnnsim.record import fields
from scnnsim.workloads import (
    ALL_VARIANTS,
    VARIANT_ORACLE,
    LayerSpec,
    NetworkDescriptor,
    network_row,
    run_network,
)


def check_layer_reports(
    arch: ArchConfig, engine: str, layer: LayerShape, reports: dict
) -> None:
    """One layer's rows: each obeys `SimReport`'s definitions, all read the
    layer's one count of useful multiplies, the bound row bounds the
    others' cycles, and the two dense rows count one machine."""
    assert set(reports) == set(ALL_VARIANTS)
    useful = reports[VARIANT_ORACLE].useful_mults
    for variant, rep in reports.items():
        assert rep.useful_mults == rep.events.useful_mults == useful
        assert rep.energy == sum(rep.energy_breakdown.values())
        if variant == VARIANT_ORACLE:
            assert rep.mult_utilization == (1.0 if useful else 0.0)
        else:
            assert rep.mult_utilization == (
                useful / (arch.total_mults * rep.cycles) if rep.cycles else 0.0
            )
        assert 0.0 <= rep.mult_utilization <= 1.0
        assert rep.batches <= arch.n_pes * rep.cycles
        # every row but the bound row and the analytic scnn estimate
        # carries its per-PE split
        if variant in (VARIANT_DCNN, VARIANT_DCNN_OPT) or (
            engine == "sim" and variant == VARIANT_SCNN
        ):
            assert len(rep.pe_busy) == len(rep.pe_wait) == arch.n_pes
            assert sum(rep.pe_busy) + sum(rep.pe_wait) == arch.n_pes * rep.cycles
            assert min(rep.pe_wait) >= 0
    scnn, dcnn = reports[VARIANT_SCNN], reports[VARIANT_DCNN]
    assert reports[VARIANT_ORACLE].cycles <= min(scnn.cycles, dcnn.cycles)
    opt = reports[VARIANT_DCNN_OPT]
    for rep in (dcnn, opt):
        # every multiply runs, in each PE's busy cycles, and each F x I
        # batch of them, a partial one too, updates the accumulators once
        assert rep.events.mult_ops == layer.dense_multiplies()
        assert rep.events.mult_slots == sum(rep.pe_busy) * arch.mults_per_pe
        assert rep.events.pe_cycles == max(rep.pe_busy)
        assert rep.events.acc_updates == -(-rep.events.mult_ops // arch.mults_per_pe)
    # without gating every multiply is energized; gating leaves energized
    # exactly the useful ones
    assert dcnn.events.energized_mults == dcnn.events.mult_ops
    assert opt.events.energized_mults == useful
    # the rows differ only in gating and in DRAM activation coding
    for name in set(fields(EventCounts)) - {"energized_mults", "dram_bits", "tiling_dram_bits"}:
        assert getattr(dcnn.events, name) == getattr(opt.events, name), name
    # in both engines only pairs whose stride phases meet are formed (the
    # sim counts them per phase apart from the scatter), and every one
    # crosses to the accumulators
    assert scnn.events.mult_ops == scnn.events.xbar_transfers == scnn.events.acc_updates
    assert scnn.stride_skipped == 0
    if engine == "sim":
        # with no whole-layer DRAM bound, the busiest PE sets the cycles
        assert scnn.events.pe_cycles == scnn.cycles


def check_network_row(arch: ArchConfig, run, rows: dict) -> None:
    """One point's network rows, keyed by variant: each field is its
    variant's layer reports summed, or a ratio taken over those sums by
    the layer rows' own definition, and every variant reads the same
    count of useful multiplies."""
    assert set(rows) == set(run.variants)
    assert len({row.useful_mults for row in rows.values()}) == 1
    dcnn = rows.get(VARIANT_DCNN)
    for variant, row in rows.items():
        reps = [lr.reports[variant] for lr in run.layers]
        assert (row.layer, row.variant) == ("(network)", variant)
        for name in ("cycles", "batches", "useful_mults", "bank_conflict_stalls", "fifo_stalls"):
            assert getattr(row, name) == sum(getattr(r, name) for r in reps), name
        assert row.energy == pytest.approx(sum(r.energy for r in reps), rel=1e-12)
        assert row.dram_tiled == any(r.dram_tiled for r in reps)
        assert row.batches <= arch.n_pes * row.cycles
        cycles = row.cycles or math.inf
        assert row.mult_utilization == row.useful_mults / (arch.total_mults * cycles)
        assert 0.0 <= row.mult_utilization <= 1.0
        wait = sum(sum(r.pe_wait) for r in reps)
        assert row.barrier_stall_fraction == wait / (arch.n_pes * cycles)
        penalty = sum(r.events.tiling_dram_bits for r in reps) * arch.energy.dram_bit
        assert row.tiling_energy_fraction == pytest.approx(
            penalty / (row.energy - penalty) if row.energy > penalty else 0.0, rel=1e-12
        )
        # each ratio is taken over its own denominator: a row with no
        # cycles has no speedup, and one with no energy no energy ratio
        if dcnn is None or not row.cycles:
            assert row.speedup_vs_dcnn is None
        else:
            assert row.speedup_vs_dcnn == dcnn.cycles / row.cycles
        if dcnn is None or not row.energy:
            assert row.energy_vs_dcnn is None
        else:
            assert row.energy_vs_dcnn == pytest.approx(dcnn.energy / row.energy, rel=1e-12)


@st.composite
def cases(draw):
    """A random layer (stride 1-4, pad 0-2, groups 1-3, taps 1-5, planes up
    to about 12 x 12) and a random architecture that fits it."""
    stride, pad, groups = draw(st.integers(1, 4)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    R, S = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # span = tap - 2 * pad + stride * n keeps the output size integral
    spans = []
    for tap in (R, S):
        span = tap - 2 * pad + stride * draw(st.integers(0, 12 // stride))
        spans.append(span + stride * max(0, -(-(1 - span) // stride)))
    cpg, kpg = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    layer = LayerShape(
        "p", C=groups * cpg, K=groups * kpg, W=spans[0], H=spans[1], R=R, S=S,
        stride=stride, pad=pad, groups=groups,
    )
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    F, I = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    banks = F * I * draw(st.integers(1, 2))
    # room for at least one output channel, double-buffered, with a few more
    # channels per group at random
    cells = partition_tiles(layer, (rows, cols)).max_acc_cells()
    entries = max(1, math.ceil(2 * cells / banks)) * draw(st.integers(1, 4))
    arch = ArchConfig(
        pe_rows=rows, pe_cols=cols, weights_per_fetch=F, acts_per_fetch=I,
        accum_banks=banks, bank_entries=entries,
    )
    return layer, arch


@settings(max_examples=150, deadline=None)
@given(case=cases(), densities=st.sampled_from([(1.0, 1.0), (0.5, 0.6), (0.3, 0.2)]))
# a stride-4 1x1 layer: 15 of every 16 non-zero pairs fall between outputs
@example(
    case=(
        LayerShape("s4", C=2, K=2, W=13, H=13, R=1, S=1, stride=4),
        ArchConfig(pe_rows=2, pe_cols=2, bank_entries=64),
    ),
    densities=(1.0, 1.0),
)
# a grouped stride-4 7x7 layer, as alexnet's conv1 in small
@example(
    case=(
        LayerShape("s4g", C=2, K=4, W=23, H=19, R=7, S=7, stride=4, pad=0, groups=2),
        ArchConfig(pe_rows=2, pe_cols=2, bank_entries=64),
    ),
    densities=(0.5, 0.6),
)
# a 1x1 stride-2 layer: activations at odd coordinates are of a phase that
# meets no tap
@example(
    case=(
        LayerShape("s2", C=2, K=3, W=9, H=7, R=1, S=1, stride=2),
        ArchConfig(pe_rows=2, pe_cols=2, bank_entries=64),
    ),
    densities=(1.0, 1.0),
)
# 9 dense multiplies, a partial F x I batch
@example(case=(LayerShape("odd", C=1, K=1, W=3, H=3, R=1, S=1), ArchConfig()), densities=(1.0, 1.0))
def test_every_row_obeys_its_definitions_on_random_layers(case, densities):
    layer, arch = case
    net = NetworkDescriptor("p", (LayerSpec(layer, *densities, densities[1]),))
    for engine in ("sim", "analytic"):
        run = run_network(net, arch, ALL_VARIANTS, seed=5, engine=engine)
        check_layer_reports(arch, engine, layer, run.layers[0].reports)
        check_network_row(arch, run, {v: network_row(run, arch, v) for v in ALL_VARIANTS})
