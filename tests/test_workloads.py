"""Network descriptors, experiment configs, and what each engine of
run_network builds."""

import json
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from scnnsim import tensors, workloads
from scnnsim.analytic import VARIANT_DCNN, VARIANT_DCNN_OPT, ArchConfig, EnergyModel
from scnnsim.dataflow import ConfigurationError
from scnnsim.record import fields, replace
from scnnsim.workloads import (
    ALL_VARIANTS,
    VARIANT_ORACLE,
    VARIANT_SCNN,
    DescriptorError,
    ExperimentConfig,
    density_sweep,
    load_experiment_config,
    load_network,
    network_row,
    pe_granularity_arch,
    pe_granularity_sweep,
    rows_from_run,
    run_network,
)
from test_definitions import check_layer_reports, check_network_row
from test_golden import GOLDEN

SHIPPED = ("alexnet", "googlenet", "inception_mini", "vggnet")
NETWORKS = Path(workloads.__file__).parent / "networks"
# rewrites every shipped network's JSON from its YAML; run from the repository root
REGENERATE_JSON = (
    "PYTHONPATH=src python3 -c 'import json; from pathlib import Path; "
    "from scnnsim.workloads import _load_yaml, shipped_networks; "
    "d = Path(\"src/scnnsim/networks\"); "
    "[(d / f\"{n}.json\").write_text(json.dumps(_load_yaml((d / f\"{n}.yaml\").read_text(), n), "
    "indent=1) + \"\\n\") for n in shipped_networks()]'"
)

TINY_CHAIN = """\
schema_version: 1
name: tiny-chain
topology: chain
input: {channels: 3, width: 15, height: 15}
layers:
  - {name: c1, K: 8, R: 3, S: 3, stride: 2, pad: 1,
     weight_density: 0.8, act_density: 1.0, pool: {window: 2, stride: 2}}
  - {name: c2, K: 8, R: 3, S: 3, pad: 1, groups: 2,
     weight_density: 0.5, act_density: 0.6}
  - {name: c3, K: 4, R: 1, S: 1, weight_density: 0.6, act_density: 0.5}
"""


@pytest.mark.parametrize(
    "name,billions", [("alexnet", 0.69), ("googlenet", 1.1), ("vggnet", 15.3)]
)
def test_dense_multiply_total_matches_validation_target(name, billions):
    assert load_network(name).total_multiplies() == pytest.approx(billions * 1e9, rel=0.05)


def test_analytic_engine_makes_no_tensor(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the analytic engine made a tensor")

    monkeypatch.setattr(tensors, "gen_synthetic", forbidden)
    monkeypatch.setattr(tensors, "prune_magnitude", forbidden)
    arch = ArchConfig()
    for name in SHIPPED:
        net = load_network(name)
        assert len(run_network(net, arch, engine="analytic").layers) == len(net.layers)
    rows = density_sweep(load_network("inception_mini"), arch, (1.0, 0.5), engine="analytic")
    assert {row.sweep_wd for row in rows} == {1.0, 0.5}


def test_shipped_json_is_the_parsed_yaml():
    # a shipped name loads networks/<name>.json, so each must hold what its
    # YAML parses to. The serialized forms are compared, not the dicts:
    # 1 == 1.0 passes a dict compare, but the loader refuses a float count
    fix = f"regenerate the JSON (and delete any without a YAML):\n{REGENERATE_JSON}"
    assert sorted(p.stem for p in NETWORKS.glob("*.json")) == workloads.shipped_networks(), fix
    for name in workloads.shipped_networks():
        parsed = workloads._load_yaml((NETWORKS / f"{name}.yaml").read_text(), name)
        shipped = json.loads((NETWORKS / f"{name}.json").read_text())
        assert json.dumps(shipped, sort_keys=True) == json.dumps(parsed, sort_keys=True), (
            f"{name}.json is not the parsed {name}.yaml; {fix}"
        )


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "path",
    [
        *SHIPPED,
        *(str(p.relative_to(REPO)) for p in sorted((REPO / "tests/golden").glob("*.yaml"))),
        *(str(p.relative_to(REPO)) for p in sorted((REPO / "perfbench").glob("*.yaml"))),
    ],
)
def test_every_descriptor_the_repo_runs_loads(path):
    # every shipped name, golden and benchmark descriptor passes the loader's
    # key checks; perfbench's carry a top-level `topology`, which is left alone
    assert set(SHIPPED) == set(workloads.shipped_networks())
    net = load_network(path if path in SHIPPED else REPO / path)
    assert net.layers


def test_analytic_rows_roll_up_energy_once(monkeypatch):
    rolled = []
    rollup = EnergyModel.rollup

    def counted(self, counts):
        rolled.append(counts)
        return rollup(self, counts)

    monkeypatch.setattr(EnergyModel, "rollup", counted)
    run = run_network(load_network("inception_mini"), ArchConfig(), engine="analytic")
    assert len(rolled) == sum(len(lr.reports) for lr in run.layers)


def test_sim_engine_makes_weights_one_layer_ahead(monkeypatch, tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CHAIN)
    net = load_network(path)
    made, seeds, most_alive = [], [], [0]
    synth = workloads.synth_weights

    def tracked(spec, seed):
        w = synth(spec, seed)
        made.append(weakref.ref(w))
        seeds.append(seed)
        most_alive[0] = max(most_alive[0], sum(r() is not None for r in made))
        return w

    monkeypatch.setattr(workloads, "synth_weights", tracked)
    run = run_network(net, ArchConfig(), (VARIANT_SCNN, VARIANT_ORACLE), seed=5)
    assert seeds == [5, 106, 207]
    assert most_alive[0] == 2
    assert all(lr.oracle_checked for lr in run.layers)


@pytest.mark.parametrize("variants", [ALL_VARIANTS, (VARIANT_DCNN,)])
def test_sim_engine_frees_each_decoded_output_before_the_next_layer(
    monkeypatch, tmp_path, variants
):
    # the decoded output (or, with no sparse variant, the reference output)
    # is dead once requantized: only the requantized copy reaches a consumer
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CHAIN)
    decoded, alive_at_start = [], []
    sim_layer, requantize = workloads._sim_layer, workloads.requantize

    def tracked_layer(*args, **kwargs):
        alive_at_start.append(sum(r() is not None for r in decoded))
        return sim_layer(*args, **kwargs)

    def tracked_requantize(t, consumer_weights=()):
        decoded.append(weakref.ref(t))
        return requantize(t, consumer_weights)

    monkeypatch.setattr(workloads, "_sim_layer", tracked_layer)
    monkeypatch.setattr(workloads, "requantize", tracked_requantize)
    run_network(load_network(path), ArchConfig(), variants, seed=1)
    assert len(decoded) == 2
    assert alive_at_start == [0, 0, 0]


# a reads the input and feeds c and d; b reads the input and feeds c; c
# concatenates a, b and the input; d concatenates c and a
GRAPH = """\
schema_version: 1
name: graph
input: {channels: 4, width: 9, height: 9}
layers:
  - {name: a, K: 4, R: 3, S: 3, pad: 1, weight_density: 0.7, act_density: 0.8}
  - {name: b, K: 5, R: 1, S: 1, weight_density: 0.6, act_density: 0.8, takes: input}
  - {name: c, K: 16, R: 3, S: 3, pad: 1, weight_density: 0.3, act_density: 0.5,
     takes: [a, b, input]}
  - {name: d, K: 4, R: 3, S: 3, pad: 1, weight_density: 1.0, act_density: 0.5,
     takes: [c, a]}
"""


def test_sim_engine_feeds_each_layer_its_producers_requantized_outputs(
    monkeypatch, tmp_path
):
    path = tmp_path / "graph.yaml"
    path.write_text(GRAPH)
    net = load_network(path)
    seed = 4
    inputs, decoded, alive = {}, {}, {}
    quantized = []
    sim_layer, requantize = workloads._sim_layer, workloads.requantize

    def tracked_layer(arch, spec, weights, acts, variants, first):
        inputs[spec.name] = acts.values.copy()
        alive[spec.name] = sorted(n for n, r in quantized if r() is not None)
        reports, out, checked = sim_layer(arch, spec, weights, acts, variants, first)
        decoded[spec.name] = out
        return reports, out, checked

    def tracked_requantize(t, consumer_weights=()):
        out = requantize(t, consumer_weights)
        quantized.append(("abc"[len(quantized)], weakref.ref(out)))
        return out

    monkeypatch.setattr(workloads, "_sim_layer", tracked_layer)
    monkeypatch.setattr(workloads, "requantize", tracked_requantize)
    run = run_network(net, ArchConfig(), (VARIANT_SCNN, VARIANT_ORACLE), seed=seed)
    assert all(lr.oracle_checked for lr in run.layers)

    index = {spec.name: i for i, spec in enumerate(net.layers)}

    def weights(name):
        return workloads.synth_weights(net.layers[index[name]], seed + 101 * index[name])

    def requantized(name, *consumers):
        return requantize(decoded[name], [weights(c) for c in consumers]).values

    x = workloads.synth_acts(net.layers[0], seed + 50).values
    a, b, c = requantized("a", "c", "d"), requantized("b", "c"), requantized("c", "d")
    # d's weights, not c's, set the shift of a's output
    assert not np.array_equal(a, requantized("a", "c"))
    assert np.array_equal(inputs["a"], x) and np.array_equal(inputs["b"], x)
    assert np.array_equal(inputs["c"], np.concatenate([a, b, x]))
    assert np.array_equal(inputs["d"], np.concatenate([c, a]))
    # b's output is freed once c, its one consumer, has run
    assert alive == {"a": [], "b": ["a"], "c": ["a", "b"], "d": ["a", "c"]}


def test_sim_tiling_fraction_is_the_energy_tiling_adds():
    # 64-byte activation RAMs tile every layer, the first one included,
    # whose input comes from DRAM whether or not it is tiled
    net = load_network("inception_mini")
    small = ArchConfig(iaram_bytes=64, oaram_bytes=64)
    tiled, held = (
        run_network(net, arch, (VARIANT_SCNN,), seed=1).layers
        for arch in (small, ArchConfig())
    )
    for t, h in zip(tiled, held):
        t, h = t.reports[VARIANT_SCNN], h.reports[VARIANT_SCNN]
        assert t.dram_tiled and not h.dram_tiled
        assert t.tiling_energy_fraction == pytest.approx(t.energy / h.energy - 1, rel=1e-9)


def test_dense_rows_do_not_depend_on_the_other_variants():
    # without scnn or oracle no layer is simulated, yet each consumer must
    # take the output a full run passes it, not fresh synthetic inputs
    net = load_network("inception_mini")
    dense = (VARIANT_DCNN, VARIANT_DCNN_OPT)
    full, alone = (
        rows_from_run(run_network(net, ArchConfig(), variants, seed=1))
        for variants in (ALL_VARIANTS, dense)
    )
    assert len(net.layers) > 2
    assert alone == [row for row in full if row.variant in dense]


# 589,824 input values overflow half the dense baseline's 2MB of SRAM
# (524,288 16-bit values): with K = 16 the 147,456 outputs still fit the
# whole of it, with K = 64 the 589,824 outputs do not
WIDE_INPUT = """\
schema_version: 1
name: wide-input
topology: chain
input: {{channels: 64, width: 96, height: 96}}
layers:
  - {{name: wide, K: {k}, R: 1, S: 1, weight_density: 1.0, act_density: 1.0}}
"""


@pytest.mark.parametrize("k,tiled", [(16, False), (64, True)])
def test_engines_share_the_dense_tiling_rule(k, tiled, tmp_path):
    # and its cost: a first layer's tiling adds only its output's round trip
    path = tmp_path / "wide.yaml"
    path.write_text(WIDE_INPUT.format(k=k))
    net = load_network(path)
    dense = (VARIANT_DCNN, VARIANT_DCNN_OPT)
    sim, analytic = (
        run_network(net, ArchConfig(), dense, engine=engine).layers[0].reports
        for engine in ("sim", "analytic")
    )
    for variant in dense:
        s, a = sim[variant], analytic[variant]
        assert s.dram_tiled == a.dram_tiled == tiled
        assert s.tiling_energy_fraction == a.tiling_energy_fraction
        assert (s.tiling_energy_fraction > 0) == tiled


@pytest.mark.parametrize(
    "network",
    ["inception_mini", GOLDEN / "strided_chain.yaml"],
    ids=["inception_mini", "strided_chain"],
)
def test_engines_agree_on_dense_batches(network):
    # dense work depends only on the shapes, so both engines count the same
    # F x I batches over every PE, and, where no layer is bound by DRAM,
    # time them the same, PE by PE
    net = load_network(network)
    dense = (VARIANT_DCNN, VARIANT_DCNN_OPT)
    sim, analytic = (
        run_network(net, ArchConfig(), dense, seed=1, engine=engine).layers
        for engine in ("sim", "analytic")
    )
    for s, a in zip(sim, analytic):
        for variant in dense:
            s_rep, a_rep = s.reports[variant], a.reports[variant]
            assert s_rep.batches == a_rep.batches
            assert s_rep.cycles == a_rep.cycles
            assert s_rep.pe_busy == a_rep.pe_busy
            assert s_rep.pe_wait == a_rep.pe_wait
            assert s_rep.barrier_stall_fraction == a_rep.barrier_stall_fraction


@pytest.mark.parametrize("grid", [(2, 2), (4, 4), (8, 8), (16, 16), (32, 32)])
def test_pe_grids_share_the_chip_ram_budget(grid):
    base = ArchConfig()
    garch = pe_granularity_arch(base, grid)
    assert garch.n_pes * garch.iaram_bytes == base.n_pes * base.iaram_bytes
    assert garch.n_pes * garch.oaram_bytes == base.n_pes * base.oaram_bytes
    assert garch.total_mults == 1024


def test_pe_sweep_barrier_is_the_network_wait_over_pe_cycles(tmp_path):
    # the row is the network total of its run, so its barrier fraction is
    # the wait over n_pes * cycles, summed over the layers: not a mean of
    # the layers' fractions, which weighs a short layer like a long one
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CHAIN)
    net = load_network(path)
    (row,) = pe_granularity_sweep(net, ArchConfig(), ((2, 2),), seed=3)
    garch = pe_granularity_arch(ArchConfig(), (2, 2))
    run = run_network(net, garch, (VARIANT_SCNN,), seed=3)
    reps = [lr.reports[VARIANT_SCNN] for lr in run.layers]
    assert row == replace(network_row(run, garch, VARIANT_SCNN), grid="2x2")
    check_network_row(garch, run, {VARIANT_SCNN: row})
    wait = sum(sum(r.pe_wait) for r in reps)
    assert row.barrier_stall_fraction == wait / (garch.n_pes * row.cycles)
    # the chain tells the two apart: its layers' fractions and cycles differ
    mean = sum(r.barrier_stall_fraction for r in reps) / len(reps)
    assert row.barrier_stall_fraction != pytest.approx(mean, rel=1e-3)


def test_pe_grid_larger_than_the_base_array_runs():
    (row,) = pe_granularity_sweep(load_network("inception_mini"), ArchConfig(), ((16, 16),))
    assert row.grid == "16x16" and row.cycles > 0
    assert pe_granularity_arch(ArchConfig(), (16, 16)).mults_per_pe == 4


@pytest.mark.parametrize("grid,side", [((2, 2), 8), ((4, 4), 4), ((16, 16), 1)])
def test_pe_grids_take_the_multiplier_budget_from_the_arch(grid, side):
    # 8x8 PEs of 2x2 multipliers: a chip of 256, not the default 1024
    base = ArchConfig(weights_per_fetch=2, acts_per_fetch=2)
    garch = pe_granularity_arch(base, grid)
    assert garch.total_mults == base.total_mults == 256
    assert (garch.weights_per_fetch, garch.acts_per_fetch) == (side, side)
    # 1024 PEs cannot share 256 multipliers
    with pytest.raises(ConfigurationError, match="cannot hold 256 multipliers"):
        pe_granularity_arch(base, (32, 32))


@pytest.mark.parametrize("engine", ["analytical", "Sim", ""])
def test_unknown_engine_rejected(engine):
    net = load_network("inception_mini")
    with pytest.raises(ConfigurationError, match="unknown engine"):
        density_sweep(net, ArchConfig(), (0.5,), engine=engine)
    with pytest.raises(ConfigurationError, match="unknown engine"):
        run_network(net, ArchConfig(), engine=engine)


@pytest.mark.parametrize("engine", ["sim", "analytic"])
def test_every_report_obeys_its_definitions(engine, tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CHAIN)
    arch = ArchConfig()
    run = run_network(load_network(path), arch, ALL_VARIANTS, seed=3, engine=engine)
    for lr in run.layers:
        check_layer_reports(arch, engine, lr.spec.shape, lr.reports)
    check_network_row(arch, run, {v: network_row(run, arch, v) for v in ALL_VARIANTS})


def at_density(net, d):
    """The network with every layer declared at density d."""
    return replace(net, layers=tuple(
        replace(s, weight_density=d, act_density=d, out_density=d) for s in net.layers
    ))


@pytest.mark.parametrize(
    "network",
    ["inception_mini", GOLDEN / "strided_chain.yaml"],
    ids=["inception_mini", "strided_chain"],
)
def test_analytic_density_point_is_the_run_it_stands_for(network):
    # each row is the network total of run_network on the network declared
    # at the point density, so only layer 0's input is read from DRAM
    net, arch = load_network(network), ArchConfig()
    points = ExperimentConfig().densities
    rows = density_sweep(net, arch, points, engine="analytic")
    runs = [run_network(at_density(net, d), arch, engine="analytic") for d in points]
    assert rows == [
        replace(network_row(run, arch, v), sweep_wd=d, sweep_ad=d)
        for d, run in zip(points, runs)
        for v in ALL_VARIANTS
    ]


@pytest.mark.parametrize("engine", ["sim", "analytic"])
def test_density_sweep_rows_obey_their_definitions(engine, tmp_path, monkeypatch):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CHAIN)
    arch, points = ArchConfig(), (0.9, 0.4)
    made = []

    def spy(run, *args):
        made.append((run, network_row(run, *args)))
        return made[-1][1]

    monkeypatch.setattr(workloads, "network_row", spy)
    rows = density_sweep(load_network(path), arch, points, seed=3, engine=engine)
    assert len(rows) == len(made) == len(points) * len(ALL_VARIANTS)
    for i, d in enumerate(points):
        point = made[i * len(ALL_VARIANTS):(i + 1) * len(ALL_VARIANTS)]
        run = point[0][0]
        assert all(r is run for r, _ in point)
        assert [lr.spec.act_density for lr in run.layers] == [d] * len(run.layers)
        for lr in run.layers:
            check_layer_reports(arch, engine, lr.spec.shape, lr.reports)
        check_network_row(arch, run, {row.variant: row for _, row in point})
        assert rows[i * len(ALL_VARIANTS):(i + 1) * len(ALL_VARIANTS)] == [
            replace(row, sweep_wd=d, sweep_ad=d) for _, row in point
        ]


YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def settings_of(names):
    """Mappings keyed mostly by real setting names, valued by any YAML."""
    keys = st.sampled_from(names) | st.text(max_size=8)
    return st.dictionaries(keys, YAML_VALUES, max_size=4) | YAML_VALUES


# every top-level key the loader reads, each optional and of any YAML type;
# a wrong schema_version or an unknown key is refused before any of them
CONFIG_DOCS = st.fixed_dictionaries(
    {"schema_version": st.just(1)},
    optional={
        "arch": settings_of(list(fields(ArchConfig))),
        "energy": settings_of(list(fields(EnergyModel))),
        "seed": st.integers() | YAML_VALUES,
        "sweep": settings_of(["densities"]),
        "out_dir": st.text(max_size=8) | YAML_VALUES,
    },
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.yaml"


@settings(max_examples=200, deadline=None)
@given(doc=CONFIG_DOCS)
def test_config_loader_returns_or_raises_a_path_qualified_error(doc, config_path):
    config_path.write_text(yaml.safe_dump(doc))
    try:
        cfg = load_experiment_config(config_path)
    except (DescriptorError, ConfigurationError) as e:
        assert str(e).startswith(str(config_path))
        assert "\n" not in str(e)
    else:
        assert isinstance(cfg, ExperimentConfig)


NAMES = st.sampled_from(["a", "b", "c", "input"])
SCALARS = st.integers(-1, 12) | st.floats(-0.5, 1.5) | NAMES | st.booleans() | st.none()
DENSITIES = st.sampled_from([0.25, 0.5, 1.0])


@st.composite
def network_docs(draw):
    """A well-formed layer graph with small shapes, names drawn from a few
    (so some repeat) and edges to earlier names, the input or lists of
    them (so planes and channel sums may disagree), then up to three of its
    nodes, mostly deep ones, replaced by any YAML value or deleted."""
    small = st.integers(1, 6)
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        raw = {
            "name": draw(NAMES), "K": draw(small), "R": draw(st.integers(1, 3)),
            "S": draw(st.integers(1, 3)), "pad": draw(st.integers(0, 1)),
            "weight_density": draw(DENSITIES), "act_density": draw(DENSITIES),
        }
        earlier = st.sampled_from(["input", *[l["name"] for l in layers]])
        if draw(st.booleans()):
            raw["takes"] = draw(earlier | st.lists(earlier, max_size=3))
        if draw(st.booleans()):
            raw["C"] = draw(small)
        if draw(st.booleans()):
            raw["pool"] = {"window": draw(small), "stride": draw(small)}
        layers.append(raw)
    doc = {
        "input": {"channels": draw(small), "width": draw(small), "height": draw(small)},
        "layers": layers,
    }
    doc = {"schema_version": 1, "name": "net", **doc}
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            inner = [k for k in keys if isinstance(node[k], (dict, list))]
            if inner and (draw(st.booleans()) or draw(st.booleans())):
                node = node[draw(st.sampled_from(inner))]
                continue
            key = draw(st.sampled_from(keys))
            if draw(st.booleans()):
                node[key] = draw(SCALARS | YAML_VALUES)
            else:
                del node[key]
            break
    return doc


@pytest.fixture(scope="module")
def network_path(tmp_path_factory):
    return tmp_path_factory.mktemp("network") / "net.yaml"


@settings(max_examples=300, deadline=None)
@given(doc=network_docs())
def test_network_loader_returns_or_raises_a_descriptor_error(doc, network_path):
    network_path.write_text(yaml.safe_dump(doc))
    try:
        net = load_network(network_path)
    except DescriptorError as e:
        # qualified by the file name, or by the network name within it
        name = doc.get("name")
        prefixes = (network_path.name, name) if isinstance(name, str) else network_path.name
        assert str(e).startswith(prefixes)
        assert "\n" not in str(e)
    else:
        assert net.layers
        for i, spec in enumerate(net.layers):
            assert set(spec.takes) <= {"input", *(s.name for s in net.layers[:i])}
