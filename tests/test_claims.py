"""The paper's claims that the reproduction makes at seed 1, one test per
claim. Each test names the paper's statement and asserts only its
direction or ordering, never the paper's factors; a failure gives the
measured value. Ratios are DCNN over SCNN network totals, so a value
above 1 means SCNN wins.

Claims the reproduction does not make yet have no test here: analytic
vggnet's `dcnn-opt` cycles, which differ from `dcnn`'s (ROADMAP items 8,
14); and sim alexnet's energy win over the coefficient box, which reads
below 1 at 2 of its 64 vertices, down to 0.966 with multiply,
weight-buffer and DRAM energy halved and accumulate, crossbar and act-RAM
energy doubled (item 19).

Nor does analytic alexnet lose to DCNN in cycles with dense operands: at
density 1 it reads 1.014x, because the stride-4 `conv1`, costed per
stride phase, takes 126,636 cycles against DCNN's 139,392, whose busiest
PE owns 64 outputs against a mean of 47.3; `conv2`-`conv5` tie exactly.
That is the model being right, so only that one case is left out of the
dense-loses assertion (DENSE_TIES_OR_WINS); its energy loses, and both
of its series grow as density falls.

`PYTHONPATH=src python tests/test_claims.py` prints the measured figures,
from which ROADMAP's reproduction table is refreshed.
"""

import functools
import itertools

import pytest

from scnnsim.analytic import VARIANT_DCNN, VARIANT_DCNN_OPT, VARIANT_SCNN
from scnnsim.record import fields
from scnnsim.workloads import (
    ALL_VARIANTS,
    ExperimentConfig,
    density_sweep,
    load_network,
    network_row,
    run_network,
)

CONFIG = ExperimentConfig(seed=1)
ARCH = CONFIG.arch

# each `energy_breakdown` term and the `EnergyModel` coefficient it is priced at
TERMS = {
    "multiply": "mult_op",
    "accumulate": "acc_op",
    "crossbar": "xbar_op",
    "act_ram": "sram_bit",
    "weight_buf": "fifo_bit",
    "dram": "dram_bit",
}
# every coefficient halved or doubled: the 64 vertices of the box
BOX = [dict(zip(TERMS, scales)) for scales in itertools.product((0.5, 2.0), repeat=len(TERMS))]

# SCNN wins at the default coefficients, and over the whole box
BOX_WINS = [
    ("alexnet", "analytic"), ("googlenet", "analytic"), ("vggnet", "analytic"),
    ("inception_mini", "analytic"), ("inception_mini", "sim"),
]
SCNN_WINS = BOX_WINS + [("alexnet", "sim")]
DCNN_OPT_HOLDS = [
    ("alexnet", "analytic"), ("googlenet", "analytic"), ("inception_mini", "analytic"),
    ("inception_mini", "sim"), ("alexnet", "sim"),
]
NETWORKS = ("alexnet", "googlenet", "vggnet", "inception_mini")
# (network, ratio) that does not fall below 1 at density 1 (see above)
DENSE_TIES_OR_WINS = {("alexnet", "speedup_vs_dcnn")}
SIM_NETWORKS = ("alexnet", "inception_mini")

PAPER_WIN = (
    "SCNN improves both performance and energy over a comparably provisioned "
    "dense accelerator (2.7x and 2.3x on average)"
)
PAPER_DENSITY = (
    "SCNN's advantage grows as weights and activations get sparser, while with "
    "dense operands its overheads make it slower and costlier than DCNN"
)
PAPER_DCNN_OPT = (
    "DCNN-opt, DCNN with zero-gated multipliers and compressed activations in "
    "DRAM, keeps DCNN's performance and spends less energy"
)


@functools.lru_cache(maxsize=None)
def _run(net: str, engine: str):
    return run_network(load_network(net), ARCH, ALL_VARIANTS, seed=CONFIG.seed, engine=engine)


@functools.lru_cache(maxsize=None)
def _sweep(net: str):
    """Analytic `density_sweep` scnn rows over the default points, from
    density 1.0 down to 0.1."""
    rows = density_sweep(
        load_network(net), ARCH, CONFIG.densities, seed=CONFIG.seed, engine="analytic"
    )
    return [r for r in rows if r.variant == VARIANT_SCNN]


def _ratios(net: str, engine: str) -> tuple[float, float]:
    """DCNN over SCNN network cycles and energy."""
    row = network_row(_run(net, engine), ARCH, VARIANT_SCNN)
    return row.speedup_vs_dcnn, row.energy_vs_dcnn


def _repriced_energy(net: str, engine: str, variant: str, scale: dict[str, float]) -> float:
    """A variant's network energy with each breakdown term scaled, with no
    re-run."""
    return sum(
        lr.reports[variant].energy_breakdown[term] * scale[term]
        for lr in _run(net, engine).layers
        for term in TERMS
    )


def _box_ratios(net: str, engine: str) -> list[float]:
    """DCNN over SCNN network energy at every vertex of the box."""
    dcnn, scnn = (
        [_repriced_energy(net, engine, v, s) for s in BOX] for v in (VARIANT_DCNN, VARIANT_SCNN)
    )
    return [d / s for d, s in zip(dcnn, scnn)]


def test_box_terms_are_the_energy_models_coefficients():
    assert sorted(TERMS.values()) == sorted(fields(type(ARCH.energy)))
    breakdown = _run("inception_mini", "analytic").layers[0].reports[VARIANT_SCNN].energy_breakdown
    assert set(breakdown) == set(TERMS)
    assert len(BOX) == 64


@pytest.mark.parametrize("net,engine", SCNN_WINS)
def test_scnn_beats_dcnn_in_cycles_and_energy(net, engine):
    cycles, energy = _ratios(net, engine)
    assert cycles > 1 and energy > 1, (
        f"paper: {PAPER_WIN}; {net} ({engine}) measures DCNN/SCNN "
        f"{cycles:.3f}x in cycles and {energy:.3f}x in energy"
    )


@pytest.mark.parametrize("net,engine", BOX_WINS)
def test_energy_win_holds_over_the_coefficient_box(net, engine):
    # every EnergyModel coefficient scaled by 1/2 or 2, each run re-priced
    worst = min(_box_ratios(net, engine))
    assert worst > 1, (
        f"paper: {PAPER_WIN}; {net} ({engine}) measures DCNN/SCNN energy "
        f"down to {worst:.3f}x over the coefficient box"
    )


@pytest.mark.parametrize("net", NETWORKS)
def test_advantage_grows_as_density_falls_and_scnn_loses_when_dense(net):
    rows = _sweep(net)
    assert [r.sweep_wd for r in rows] == sorted(CONFIG.densities, reverse=True)
    assert rows[0].sweep_wd == 1.0
    for what in ("speedup_vs_dcnn", "energy_vs_dcnn"):
        series = [getattr(r, what) for r in rows]
        measured = ", ".join(f"{r.sweep_wd}: {v:.3f}" for r, v in zip(rows, series))
        assert all(b > a for a, b in zip(series, series[1:])), (
            f"paper: {PAPER_DENSITY}; {net} {what} by density is {measured}"
        )
        assert series[0] < 1 or (net, what) in DENSE_TIES_OR_WINS, (
            f"paper: {PAPER_DENSITY}; {net} {what} at density 1.0 is {series[0]:.3f}"
        )


@pytest.mark.parametrize("net,engine", DCNN_OPT_HOLDS)
def test_dcnn_opt_keeps_dcnn_cycles_and_spends_less_energy(net, engine):
    run = _run(net, engine)
    dcnn, opt = (network_row(run, ARCH, v) for v in (VARIANT_DCNN, VARIANT_DCNN_OPT))
    assert opt.cycles == dcnn.cycles and opt.energy < dcnn.energy, (
        f"paper: {PAPER_DCNN_OPT}; {net} ({engine}) measures dcnn-opt "
        f"{opt.cycles} cycles and {opt.energy:.6g} energy against dcnn's "
        f"{dcnn.cycles} and {dcnn.energy:.6g}"
    )


def main() -> None:
    """Print the measured figures every claim above reads."""
    print("DCNN/SCNN network totals at seed 1 (energy box: every coefficient x1/2 or x2)")
    print(f"{'network':<15} {'engine':<9} {'cycles':>7} {'energy':>7} {'box':>12} {'opt/dcnn':>9}")
    for net, engine in [(n, "analytic") for n in NETWORKS] + [(n, "sim") for n in SIM_NETWORKS]:
        cycles, energy = _ratios(net, engine)
        box = _box_ratios(net, engine)
        box_range = f"{min(box):.2f}-{max(box):.2f}x"
        run = _run(net, engine)
        dcnn, opt = (network_row(run, ARCH, v) for v in (VARIANT_DCNN, VARIANT_DCNN_OPT))
        opt_energy = opt.energy / dcnn.energy
        same = "" if opt.cycles == dcnn.cycles else " (cycles differ)"
        print(
            f"{net:<15} {engine:<9} {cycles:>6.2f}x {energy:>6.2f}x "
            f"{box_range:>12} {opt_energy:>8.2f}x{same}"
        )
    print("\nanalytic density sweep, DCNN/SCNN cycles / energy")
    print(f"{'density':<15}" + "".join(f"{d:>12}" for d in CONFIG.densities))
    for net in NETWORKS:
        rows = _sweep(net)
        cells = (f"{r.speedup_vs_dcnn:.2f}/{r.energy_vs_dcnn:.2f}" for r in rows)
        print(f"{net:<15}" + "".join(f"{c:>12}" for c in cells))


if __name__ == "__main__":
    main()
