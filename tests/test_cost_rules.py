"""Cost rules stated on layers small enough to count by hand: the FIFO
re-stream boundary, bank stalls, the analytic bank floor, the activation
RAMs' capacities, and the halo latency. Each test states one rule rather
than report bytes, and fails with the one-line mutant of that rule that
`tests/mutation_survey.py` applies."""

import numpy as np
import pytest

from scnnsim.analytic import (
    VARIANT_SCNN,
    ArchConfig,
    CODED_VALUE_BITS,
    analytic_cycles,
    count_events,
)
from scnnsim.dataflow import LayerShape, choose_kc
from scnnsim.simulator import _gated_mults, simulate_scnn_layer
from scnnsim.tensors import DenseTensor
from scnnsim.workloads import LayerSpec, NetworkDescriptor, run_network


def dense_scnn(arch: ArchConfig, layer: LayerShape):
    """The sim's scnn row of `layer` with every weight and activation 1."""
    w = DenseTensor(np.ones(layer.weight_shape(), dtype=np.int32))
    a = DenseTensor(np.ones(layer.input_shape(), dtype=np.int32))
    return simulate_scnn_layer(arch, layer, w, a, _gated_mults(layer, w, a))[1]


def one_pe(**kw) -> ArchConfig:
    return ArchConfig(pe_rows=1, pe_cols=1, **kw)


@pytest.mark.parametrize("fifo,streamed", [(4, 16), (3, 16 * 16)])
def test_a_channel_that_fills_the_fifo_streams_once(fifo, streamed):
    # a 2x2 filter bank of 4 filters stores 16 weights, 4 vectors of F = 4;
    # the 8x8 input is 16 vectors of I = 4; a FIFO of 4 vectors holds the
    # channel, which then streams once, and one of 3 re-streams it on each
    # of the 16 activation-vector passes
    layer = LayerShape("fifo", C=1, K=4, W=8, H=8, R=2, S=2)
    arch = one_pe(weight_fifo_entries=fifo, dram_values_per_cycle=0.25)
    rep = dense_scnn(arch, layer)
    # each value is CODED_VALUE_BITS / 16 DRAM units, 4 cycles a unit
    stream = streamed * CODED_VALUE_BITS // 16 * 4
    assert rep.cycles == stream  # DRAM-bound: drain and batches both shorter
    assert rep.pe_busy == (16 * 4,) and rep.bank_conflict_stalls == 0
    assert rep.fifo_stalls == stream - 16 * 4


# one PE of F = I = 2 multipliers and one bank; a 1x1 filter over a 2x2
# input forms its 4 products in 2 batches, all into the one bank
BANKED = LayerShape("banked", C=1, K=1, W=2, H=2, R=1, S=1)


def one_bank() -> ArchConfig:
    with pytest.warns(UserWarning, match="accumulator banks fewer"):
        return one_pe(weights_per_fetch=2, acts_per_fetch=2, accum_banks=1)


def test_one_bank_stalls_for_every_product_past_the_batches():
    rep = dense_scnn(one_bank(), BANKED)
    # the bank retires one product a cycle: 4 cycles for 2 batches
    assert rep.bank_conflict_stalls == 4 - 2
    assert rep.pe_busy == (4,) and rep.cycles == 4


def test_analytic_bank_floor_sets_the_cycles_where_it_binds():
    arch = one_bank()
    counts = count_events(arch, BANKED, "sparse", (1.0, 1.0))
    # 4 products over 1 bank, above the 2 batches
    assert counts.pe_cycles == analytic_cycles(counts, arch) == 4


@pytest.mark.parametrize("ram", ["iaram_bytes", "oaram_bytes"])
def test_a_pe_that_stores_its_ram_capacity_is_not_tiled(ram):
    # one PE holds all 16 input and all 16 (positive) output values of a
    # 1x1 convolution of a 4x4 plane; 2 bytes a value
    layer = LayerShape("ram", C=1, K=1, W=4, H=4, R=1, S=1)
    assert not dense_scnn(one_pe(**{ram: 2 * 16}), layer).dram_tiled
    assert dense_scnn(one_pe(**{ram: 2 * 15}), layer).dram_tiled


@pytest.mark.parametrize("engine", ["sim", "analytic"])
def test_halo_latency_adds_its_cycles_once_per_group(engine):
    layer = LayerShape("halo", C=8, K=8, W=8, H=8, R=3, S=3, pad=1)
    net = NetworkDescriptor("halo", (LayerSpec(layer, 1.0, 1.0, 1.0),))

    def cycles(latency: int) -> int:
        arch = ArchConfig(pe_rows=2, pe_cols=2, bank_entries=5, halo_latency_cycles=latency)
        run = run_network(net, arch, (VARIANT_SCNN,), engine=engine)
        return run.layers[0].reports[VARIANT_SCNN].cycles

    n_groups = choose_kc(layer, ArchConfig(pe_rows=2, pe_cols=2, bank_entries=5)).n_groups
    assert n_groups == 4
    assert cycles(7) - cycles(0) == n_groups * 7
