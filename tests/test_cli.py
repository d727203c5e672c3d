import re

import pytest

from scnnsim.cli import main


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["sweep-density", "--points", "abc"], "--points"),
        (["sweep-density", "--points", "0.5,"], "--points"),
        (["sweep-pe", "--grids", "3x"], "--grids"),
        (["sweep-pe", "--grids", "2x2x2"], "--grids"),
        (["sweep-pe", "--grids", "0x2"], "grid (0, 2)"),
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
