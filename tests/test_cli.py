import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from scnnsim import simulator, tensors
from scnnsim.analytic import PoolSpec
from scnnsim.cli import main
from scnnsim.workloads import load_network
from test_golden import CASES, GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["sweep-density", "--points", "abc"], "--points"),
        (["sweep-density", "--points", "0.5,"], "--points"),
        (["sweep-pe", "--grids", "3x"], "--grids"),
        (["sweep-pe", "--grids", "2x2x2"], "--grids"),
        (["sweep-pe", "--grids", "0x2"], "grid (0, 2)"),
        (["sweep-density", "--points", ""], "--points"),
    ],
)
def test_bad_list_argument_is_a_one_line_error(argv, flag, tmp_path, capsys):
    rc = main([*argv, "--network", "inception_mini", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {flag}")
    assert err.count("\n") == 1


def test_validate_shipped_network(tmp_path, capsys):
    rc = main(["validate", "--network", "inception_mini", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    checked, total = re.search(r"(\d+)/(\d+) layers match the oracle", out).groups()
    assert checked == total != "0"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--config", "/nonexistent.yaml"], "/nonexistent.yaml: cannot read"),
        (["--variants", "bogus"], "unknown variant 'bogus'"),
        (["--variants", ""], "at least one variant"),
        (["--variants", "scnn,bogus", "--engine", "sim"], "unknown variant 'bogus'"),
        (["--variants", "scnn,scnn"], "variant 'scnn' is given more than once"),
        (
            ["--variants", "scnn,dcnn,oracle,dcnn", "--engine", "sim"],
            "variant 'dcnn' is given more than once",
        ),
    ],
)
def test_bad_run_input_is_a_one_line_error(argv, message, tmp_path, capsys):
    rc = main(["run", "--network", "inception_mini", *argv, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "option,text,message",
    [
        ("--config", "schema_version: 1\nenergy: {bogus: 1.0}\n", ": bad energy field"),
        ("--config", "schema_version: 1\nseed: [1\n", ": not valid YAML at line 3"),
        ("--network", "name: [x\n", ": not valid YAML at line 2"),
        ("--config", "schema_version: 1\narch: 3\n", ".arch: expected dict, got 3"),
        ("--config", "schema_version: 1\nseed: null\n", ".seed: expected int, got None"),
        ("--config", "schema_version: 1\nsweep: 3\n", ".sweep: expected dict, got 3"),
        (
            "--config", "schema_version: 1\nsweep: {densities: [abc]}\n",
            ".sweep.densities[0]: 'abc' is not a density in (0, 1]",
        ),
        (
            "--config", "schema_version: 1\narch: {index_bits: 0}\n",
            ": bad arch field: index_bits 0 outside [1, 62]",
        ),
        (
            "--config", "schema_version: 1\narch: {index_bits: 63}\n",
            ": bad arch field: index_bits 63 outside [1, 62]",
        ),
        (
            "--config", "schema_version: 1\narch: {pe_rows: 2.5}\n",
            ": bad arch field: pe_rows must be Integral, got 2.5",
        ),
        (
            # refused as the config loads, so no engine sees the grid
            "--config", "schema_version: 1\narch: {pe_rows: 1000000, pe_cols: 1000000}\n",
            ": bad arch field: pe_rows * pe_cols = 1000000000000 PEs exceeds the limit of 65536",
        ),
        (
            "--config", "schema_version: 1\narch: {act_ram_port_bits: 104}\n",
            ": bad arch field: unknown key 'act_ram_port_bits'",
        ),
        ("--config", "schema_version: 1\nseed: -1\n", ": seed -1 is not an integer >= 0"),
        (
            "--config", "schema_version: 1\nvariants: [scnn]\n",
            ": unknown key 'variants' (expected schema_version, arch, energy, seed, "
            "sweep, out_dir)",
        ),
        ("--config", "schema_version: 1\ngrids: [[2, 2]]\n", ": unknown key 'grids'"),
        (
            "--config", "schema_version: 1\nenergy: {mult_op: .nan}\n",
            ": bad energy field: energy coefficient mult_op must be >= 0",
        ),
        (
            # an infinite coefficient would write inf energies and nan ratios
            "--config", "schema_version: 1\nenergy: {mult_op: .inf}\n",
            ": bad energy field: energy coefficient mult_op must be >= 0 and finite",
        ),
        (
            # YAML 1.1 reads 3e-2, with no dot, as a string
            "--config", "schema_version: 1\nenergy: {sram_bit: 3e-2}\n",
            ": bad energy field: energy coefficient sram_bit must be Real, got '3e-2'",
        ),
        (
            "--config", "schema_version: 1\nenergy: {mult_op: true}\n",
            ": bad energy field: energy coefficient mult_op must be Real, got True",
        ),
        (
            "--config", "schema_version: 1\nsweep: {densities: []}\n",
            ": at least one sweep density is required",
        ),
        (
            "--config", "schema_version: 1\nsweep: {grids: [[2, 2]]}\n",
            ".sweep: unknown key 'grids'",
        ),
        # valid knobs whose costs pass float64's range, refused as they
        # are costed rather than crashing or writing inf and nan
        (
            "--config", "schema_version: 1\narch: {dram_values_per_cycle: 1.0e-310}\n",
            "error: dram_values_per_cycle: a layer's DRAM time overflows",
        ),
        (
            "--config", "schema_version: 1\nenergy: {dram_bit: 1.0e+308}\n",
            "error: energy coefficient dram_bit: a layer's energy overflows",
        ),
        (
            # every layer's energy is finite, their sum is not
            "--config", "schema_version: 1\nenergy: {dram_bit: 3.0e+301}\n",
            "error: inception-mini (network) scnn: energy=inf",
        ),
    ],
)
def test_bad_input_file_is_a_one_line_error(option, text, message, tmp_path, capsys):
    path = tmp_path / "input.yaml"
    path.write_text(text)
    rc = main([
        "run", "--network", "inception_mini", option, str(path),
        "--out-dir", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "knob,message",
    [
        ("arch: {dram_values_per_cycle: 1.0e-310}", "dram_values_per_cycle: "),
        ("energy: {dram_bit: 1.0e+308}", "energy coefficient dram_bit: "),
    ],
    ids=["dram-time", "energy"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--engine", "sim"],
        ["sweep-density", "--engine", "analytic"],
        ["sweep-density", "--engine", "sim", "--points", "0.5"],
        ["sweep-pe", "--grids", "2x2"],
        ["validate"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[::2]),
)
def test_costs_past_float64_are_a_one_line_error_in_every_command(
    argv, knob, message, tmp_path, capsys
):
    config = tmp_path / "config.yaml"
    config.write_text(f"schema_version: 1\n{knob}\n")
    rc = main([
        *argv, "--network", str(GOLDEN / "strided_chain.yaml"), "--config", str(config),
        "--out-dir", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


CHAIN_HEAD = (
    "schema_version: 1\nname: bad\ntopology: chain\n"
    "input: {channels: 2, width: 8, height: 8}\n"
)
LAYER = "{name: c1, K: 4, R: 3, S: 3, weight_density: 0.5, act_density: 0.5"


@pytest.mark.parametrize(
    "text,message",
    [
        (CHAIN_HEAD + "layers: [3]\n", "bad.layers[0]: expected a mapping, got 3"),
        (
            CHAIN_HEAD + "layers:\n  - name1\n",
            "bad.layers[0]: expected a mapping, got 'name1'",
        ),
        (
            CHAIN_HEAD + f"layers: [{LAYER}, pool: 3}}]\n",
            "bad.layers[0].pool: expected a mapping, got 3",
        ),
        (
            CHAIN_HEAD + f"layers: [{LAYER}, pool: {{window: 2, stride: 0}}}}]\n",
            "bad.layers[0].pool: window 2 and stride 0 must be >= 1",
        ),
    ],
    ids=["int-layer", "str-layer", "int-pool", "zero-pool-stride"],
)
def test_non_mapping_descriptor_entry_is_a_one_line_error(text, message, tmp_path, capsys):
    path = tmp_path / "net.yaml"
    path.write_text(text)
    rc = main(["run", "--network", str(path), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {message}\n"


def test_duplicate_chain_layer_name_is_a_one_line_error(tmp_path, capsys):
    # two rows named c1 in the report could not be told apart
    path = tmp_path / "net.yaml"
    path.write_text(
        CHAIN_HEAD + f"layers:\n  - {LAYER}}}\n  - {LAYER.replace('c1', 'c2')}}}\n"
        f"  - {LAYER}}}\n"
    )
    rc = main(["run", "--network", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: bad.layers[2]: layer name 'c1' is already used by bad.layers[0]\n"
    )


GRAPH_HEAD = (
    "schema_version: 1\nname: bad\ninput: {channels: 2, width: 8, height: 8}\nlayers:\n"
    "  - {name: a, K: 4, R: 1, S: 1, weight_density: 0.5, act_density: 0.5,\n"
    "     pool: {window: 2, stride: 2}}\n"
    "  - {name: b, K: 3, R: 1, S: 1, weight_density: 0.5, act_density: 0.5, takes: input}\n"
)


def graph_layer(fields: str) -> str:
    return f"  - {{name: c, K: 4, R: 1, S: 1, weight_density: 0.5, act_density: 0.5, {fields}}}\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (
            GRAPH_HEAD.replace("takes: input", "takes: c") + graph_layer("takes: b"),
            "bad.layers[1].takes: 'c' names neither 'input' nor an earlier layer",
        ),
        (
            GRAPH_HEAD + graph_layer("takes: [b, bb]"),
            "bad.layers[2].takes: 'bb' names neither 'input' nor an earlier layer",
        ),
        (
            GRAPH_HEAD + graph_layer("takes: [b, 3]"),
            "bad.layers[2].takes: 3 names neither 'input' nor an earlier layer",
        ),
        (GRAPH_HEAD + graph_layer("takes: []"), "bad.layers[2].takes: empty list"),
        (
            GRAPH_HEAD + graph_layer("takes: [b, a]"),
            "bad.layers[2].takes: a's 4x4 plane does not match b's 8x8",
        ),
        (
            GRAPH_HEAD + graph_layer("takes: [input, b], C: 6"),
            "bad.layers[2] (input + b -> c): declared C=6 but input + b produces 5 channels",
        ),
        (GRAPH_HEAD + graph_layer("takes: [b, b]"), "bad.layers[2].takes: 'b' is named twice"),
        (
            GRAPH_HEAD.replace("{name: b,", "{name: input,"),
            "bad.layers[1]: layer name 'input' is already used by bad.input",
        ),
        (
            GRAPH_HEAD + graph_layer("stride: true"),
            "bad.layers[2].stride: expected int, got True",
        ),
        (GRAPH_HEAD.replace("K: 3", "K: true"), "bad.layers[1].K: expected int, got True"),
        (
            GRAPH_HEAD + graph_layer("pool: {window: 2, stride: false}"),
            "bad.layers[2].pool.stride: expected int, got False",
        ),
        (
            GRAPH_HEAD.replace("act_density: 0.5, takes", "act_density: true, takes"),
            "bad.layers[1].act_density: expected int or float, got True",
        ),
        # unrefused, a misspelt optional key falls back to its default: this
        # layer would run at stride 1 and pad 0
        (
            GRAPH_HEAD + graph_layer("strde: 2, pading: 1"),
            "bad.layers[2]: unknown key 'strde' (expected name, takes, C, K, R, S, stride, "
            "pad, groups, weight_density, act_density, pool)",
        ),
        (
            GRAPH_HEAD + graph_layer("pool: {window: 2, stide: 2}"),
            "bad.layers[2].pool: unknown key 'stide' (expected window, stride)",
        ),
        (
            GRAPH_HEAD.replace("height: 8}", "height: 8, chanels: 3}"),
            "bad.input: unknown key 'chanels' (expected channels, width, height)",
        ),
    ],
    ids=[
        "later-layer", "unknown-layer", "non-name", "empty-list", "planes-disagree",
        "concat-channels", "repeated-producer", "input-as-layer-name", "bool-stride",
        "bool-K", "bool-pool-stride", "bool-density", "misspelt-layer-key",
        "misspelt-pool-key", "misspelt-input-key",
    ],
)
def test_bad_layer_graph_is_a_one_line_error(text, message, tmp_path, capsys):
    path = tmp_path / "net.yaml"
    path.write_text(text)
    rc = main(["run", "--network", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_output_density_is_the_first_consumers_input_density(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text(
        "schema_version: 1\nname: net\ninput: {channels: 2, width: 6, height: 6}\nlayers:\n"
        + "".join(
            f"  - {{name: {name}, K: 2, R: 1, S: 1, weight_density: 0.5, "
            f"act_density: {density}, takes: {takes}}}\n"
            for name, density, takes in [
                ("a", 0.6, "input"), ("b", 0.3, "a"), ("c", 0.7, "a"),
                ("d", 0.9, "[b, c]"), ("e", 0.4, "b"),
            ]
        )
    )
    out = {s.name: s.out_density for s in load_network(path).layers}
    # d and e take nothing further and keep their own input density
    assert out == {"a": 0.3, "b": 0.9, "c": 0.9, "d": 0.9, "e": 0.4}


def test_explicit_takes_chain_writes_the_implicit_chains_report(tmp_path):
    doc = yaml.safe_load((GOLDEN / "strided_chain.yaml").read_text())
    for layer, takes in zip(doc["layers"], ["input", "conv1", ["conv2"]]):
        layer["takes"] = takes
    path = tmp_path / "explicit.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main([
        "run", "--network", str(path), "--engine", "sim", "--seed", "1", "--out-dir", str(out),
    ]) == 0
    report = out / "strided-chain_run.csv"
    assert report.read_bytes() == (GOLDEN / "strided_chain_run_sim.csv").read_bytes()


@pytest.mark.parametrize(
    "option,kind,message",
    [
        ("--network", "directory", "cannot read network descriptor: Is a directory"),
        ("--network", "latin-1", "network descriptor is not UTF-8 text (offset 9)"),
        ("--config", "latin-1", "experiment config is not UTF-8 text (offset 9)"),
    ],
)
def test_unreadable_input_file_is_a_one_line_error(option, kind, message, tmp_path, capsys):
    path = tmp_path / "input.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes("name: caf\xe9\n".encode("latin-1"))
    network = str(path) if option == "--network" else "inception_mini"
    config = ["--config", str(path)] if option == "--config" else []
    rc = main(["run", "--network", network, *config, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["run"], ["sweep-density", "--points", "0.5"], ["sweep-pe", "--grids", "1x1"]],
    ids=["run", "sweep-density", "sweep-pe"],
)
def test_out_dir_naming_a_file_fails_before_the_run(argv, tmp_path, capsys, monkeypatch):
    import scnnsim.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("run_network", "density_sweep", "pe_granularity_sweep"):
        monkeypatch.setattr(cli, name, never)
    target = tmp_path / "report"
    target.write_text("")
    rc = main([*argv, "--network", "inception_mini", "--out-dir", str(target)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --out-dir {target}: cannot make directory: File exists\n"
    )


@pytest.mark.parametrize(
    "argv,report",
    [
        (["run"], "run"),
        (["sweep-density", "--engine", "analytic", "--points", "0.5"], "density"),
        (["sweep-pe", "--grids", "1x1"], "grids"),
    ],
    ids=["run", "sweep-density", "sweep-pe"],
)
def test_unwritable_report_fails_with_one_line(argv, report, tmp_path, capsys):
    # the run completes, but its report's path is a directory: a one-line
    # error naming the path and exit 2, as exit 1 means an oracle mismatch
    path = tmp_path / f"inception-mini_{report}.csv"
    path.mkdir()
    rc = main([*argv, "--network", "inception_mini", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: cannot write report: Is a directory\n"


def test_pool_window_shorter_than_stride_matches_the_oracle(tmp_path, capsys):
    # a 5-wide plane pooled by window 1, stride 3 keeps columns 0 and 3; a
    # third ceil-mode window would start at 6, past the plane
    path = tmp_path / "net.yaml"
    path.write_text(
        "schema_version: 1\nname: gap\ntopology: chain\n"
        "input: {channels: 2, width: 5, height: 5}\n"
        "layers:\n  - {name: c, K: 2, R: 1, S: 1, weight_density: 1.0, act_density: 1.0,\n"
        "     pool: {window: 1, stride: 3}}\n"
    )
    assert PoolSpec(1, 3).out_extent(5) == 2
    rc = main(["validate", "--network", str(path), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "1/1 layers match the oracle" in capsys.readouterr().out


def test_seed_option_is_checked_like_the_config_seed(tmp_path, capsys):
    rc = main([
        "run", "--network", "inception_mini", "--seed", "-1", "--engine", "sim",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed -1 is not an integer >= 0\n"


def test_tiled_layers_line_does_not_depend_on_the_variant_order(tmp_path, capsys):
    # a layer is listed when any of its rows is tiled, whichever row is first
    lines = []
    for variants in ("oracle,dcnn", "dcnn,oracle"):
        argv = ["run", "--network", "vggnet", "--engine", "analytic", "--variants", variants]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        lines.append([line for line in out if line.startswith("DRAM-tiled layers:")])
    tiled = "DRAM-tiled layers: conv1_1, conv1_2, conv2_1, conv2_2, conv3_1, conv3_2"
    assert lines[0] == lines[1] == [tiled]


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_yaml_syntax_error_names_line_and_column(libyaml, tmp_path, capsys, monkeypatch):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "net.yaml"
    path.write_text("schema_version: 1\nname: [x\n")
    rc = main(["run", "--network", str(path), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert re.fullmatch(r"error: net\.yaml: not valid YAML at line 3, column 1: [^\n]+\n", err)


NO_NUMPY_RUN = """
import json, sys
import scnnsim.cli
out = sys.argv[1]
rcs = [
    scnnsim.cli.main(["run", "--network", "googlenet", "--engine", "analytic", "--out-dir", out]),
    scnnsim.cli.main([
        "sweep-density", "--network", "alexnet", "--engine", "analytic",
        "--points", "1.0,0.5", "--out-dir", out,
    ]),
]
print(json.dumps({"rcs": rcs, "modules": sorted(sys.modules)}))
"""


def test_analytic_commands_import_neither_numpy_nor_the_sim_engine(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RUN, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rcs"] == [0, 0]
    assert (tmp_path / "googlenet_run.csv").is_file()
    assert (tmp_path / "alexnet_density.csv").is_file()
    # dataclasses execs generated code and imports inspect: see scnnsim.record;
    # statistics brings fractions and decimal, some 5 ms a process; a shipped
    # name reads its JSON, so PyYAML's 20 ms import is paid only to parse a file
    loaded = {
        "numpy", "scnnsim.simulator", "scnnsim.codec", "scnnsim.tensors", "dataclasses",
        "statistics", "fractions", "decimal", "yaml",
    }
    assert loaded.isdisjoint(result["modules"])


ONE_LAYER = (
    "schema_version: 1\nname: one\ntopology: chain\n"
    "input: {channels: 2, width: 5, height: 5}\n"
    "layers:\n  - {name: c, K: 2, R: 1, S: 1, weight_density: 1.0, act_density: 1.0}\n"
)


def off_by_one_reference(reference_conv):
    """reference_conv with out[0, 0, 0] one above its rectified value, so the
    oracle check fails there whatever the sign of the true value."""

    def wrong(*args):
        values = reference_conv(*args).values.copy()
        values[0, 0, 0] = max(values[0, 0, 0], 0) + 1
        return tensors.DenseTensor(values)

    return wrong


def test_oracle_value_mismatch_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tensors, "reference_conv", off_by_one_reference(tensors.reference_conv))
    path = tmp_path / "net.yaml"
    path.write_text(ONE_LAYER)
    rc = main(["validate", "--network", str(path), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    got, want = re.fullmatch(
        r"ORACLE MISMATCH: c: first mismatch at \(k,x,y\)=\(0, 0, 0\): "
        r"got (\d+), expected (\d+)\n", err,
    ).groups()
    assert int(want) == int(got) + 1


def test_oracle_shape_mismatch_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    decoded = simulator.LayerOutput.decoded

    def cropped(self):
        return tensors.DenseTensor(decoded(self).values[:, :-1, :])

    monkeypatch.setattr(simulator.LayerOutput, "decoded", cropped)
    path = tmp_path / "net.yaml"
    path.write_text(ONE_LAYER)
    rc = main(["validate", "--network", str(path), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "ORACLE MISMATCH: c: output shape (2, 4, 5), expected (2, 5, 5)\n"
    )


def test_text_report_has_the_csv_cells_and_no_trailing_whitespace(tmp_path):
    golden = "alexnet_run_analytic.csv"
    argv = [*CASES[golden], "--seed", "1", "--format", "text", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "alexnet_run.text").read_text().splitlines()
    assert not [line for line in lines if line != line.rstrip()]
    # each column starts where its header name does; empty cells stay empty
    starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
    bounds = list(zip(starts, [*starts[1:], None]))
    cells = [[line[a:b].strip() for a, b in bounds] for line in lines]
    with open(GOLDEN / golden, newline="") as f:
        assert cells == list(csv.reader(f))


def cli_process(*args: str) -> subprocess.CompletedProcess:
    """`python -m scnnsim.cli ARGS`, or `python -c SCRIPT ...` when ARGS
    starts with -c, in a fresh interpreter that imports the source tree and
    can import these test modules."""
    tests = str(Path(__file__).parent)
    path = os.pathsep.join(filter(None, [str(SRC), tests, os.environ.get("PYTHONPATH")]))
    # buffered pipes, so what the process prints reaches them only by the
    # flushes at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    cmd = [sys.executable, *([] if args[0] == "-c" else ["-m", "scnnsim.cli"]), *args]
    return subprocess.run(
        cmd, env={**env, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("golden", ["alexnet_run_analytic.csv", "strided_chain_run_sim.csv"])
def test_process_exit_keeps_report_and_summary(golden, tmp_path, capsys):
    argv = [*CASES[golden], "--seed", "1", "--format", "csv", "--out-dir", str(tmp_path)]
    proc = cli_process(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    (report,) = tmp_path.iterdir()
    assert report.read_bytes() == (GOLDEN / golden).read_bytes()
    # the same command in this process rewrites the same file and prints the
    # summary that the exiting process must have flushed in full
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.count("\n") >= 5  # the report line and one per variant


def test_process_exit_code_2_for_a_bad_network(tmp_path):
    proc = cli_process("run", "--network", str(tmp_path / "none.yaml"), "--out-dir", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


MISMATCH_RUN = """
import sys
from scnnsim import tensors
from scnnsim.cli import main
from test_cli import off_by_one_reference
tensors.reference_conv = off_by_one_reference(tensors.reference_conv)
sys.exit(main(["validate", "--network", sys.argv[1], "--out-dir", sys.argv[2]]))
"""


def test_process_exit_code_1_for_an_oracle_mismatch(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text(ONE_LAYER)
    proc = cli_process("-c", MISMATCH_RUN, str(path), str(tmp_path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("ORACLE MISMATCH: c: ") and proc.stderr.count("\n") == 1
