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
            "--config", "schema_version: 1\nsweep: {densities: []}\n",
            ": at least one sweep density is required",
        ),
        (
            "--config", "schema_version: 1\nsweep: {grids: [[2, 2]]}\n",
            ".sweep: unknown key 'grids'",
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
            "schema_version: 1\nname: bad\ntopology: modules\nmodules: [7]\n",
            "bad.modules[0]: expected a mapping, got 7",
        ),
        (
            "schema_version: 1\nname: bad\ntopology: modules\ninter_module_pool: 2\n"
            "modules: [{name: m}]\n",
            "bad.inter_module_pool: expected dict, got 2",
        ),
        (
            "schema_version: 1\nname: bad\ntopology: modules\ninter_module_pool:\n"
            "modules: [{name: m}]\n",
            "bad.inter_module_pool: expected dict, got None",
        ),
        (
            CHAIN_HEAD + f"layers: [{LAYER}, pool: {{window: 2, stride: 0}}}}]\n",
            "bad.layers[0].pool: window 2 and stride 0 must be >= 1",
        ),
        (
            "schema_version: 1\nname: bad\ntopology: modules\n"
            "inter_module_pool: {window: 0, stride: 2}\nmodules: [{name: m}]\n",
            "bad.inter_module_pool: window 0 and stride 2 must be >= 1",
        ),
    ],
    ids=[
        "int-layer", "str-layer", "int-pool", "int-module", "int-inter-module-pool",
        "null-inter-module-pool", "zero-pool-stride", "zero-inter-module-pool-window",
    ],
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


MODULE = (
    "  - name: {module}\n    input_channels: 8\n    width: 6\n    height: 6\n"
    "    act_density: {density}\n    layers:\n"
    "      - {{name: a, takes: input, K: 4, R: 1, S: 1, weight_density: 0.5}}\n"
    "      - {{name: {second}, takes: a, K: 8, R: 3, S: 3, pad: 1, weight_density: 0.5,\n"
    "         act_density: 0.4, concat: true}}\n"
)


def modules_net(*modules: tuple[str, float, str]) -> str:
    return "schema_version: 1\nname: net\ntopology: modules\nmodules:\n" + "".join(
        MODULE.format(module=m, density=d, second=second) for m, d, second in modules
    )


@pytest.mark.parametrize(
    "modules,message",
    [
        (
            [("m", 0.5, "b"), ("m", 0.2, "b"), ("m3", 0.9, "b")],
            "net.modules[1]: module name 'm' is already used by net.modules[0]",
        ),
        (
            [("m", 0.5, "b"), ("m2", 0.2, "a")],
            "net.modules[1].layers[1]: layer name 'a' is already used in module m2",
        ),
    ],
    ids=["module", "layer"],
)
def test_duplicate_descriptor_name_is_a_one_line_error(modules, message, tmp_path, capsys):
    path = tmp_path / "net.yaml"
    path.write_text(modules_net(*modules))
    rc = main(["run", "--network", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_branch_terminals_take_their_successor_module_density(tmp_path):
    path = tmp_path / "net.yaml"
    path.write_text(modules_net(("m/1", 0.5, "b"), ("m2", 0.2, "b"), ("m3", 0.9, "b")))
    out = {s.name: s.out_density for s in load_network(path).layers}
    # a reduce's output density is its consumer's input density, even when
    # the module name has a slash; terminals get the next module's
    assert out == {
        "m/1/a": 0.4, "m/1/b": 0.2, "m2/a": 0.4, "m2/b": 0.9, "m3/a": 0.4, "m3/b": 0.9,
    }


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
    # dataclasses execs generated code and imports inspect: see scnnsim.record
    loaded = {"numpy", "scnnsim.simulator", "scnnsim.codec", "scnnsim.tensors", "dataclasses"}
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
        return tensors.DenseTensor(values, tensors.OUT_ROLES)

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
        return tensors.DenseTensor(decoded(self).values[:, :-1, :], tensors.OUT_ROLES)

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
