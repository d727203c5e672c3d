"""Golden-output gate: seed-1 reports of the shipped networks must stay
byte-identical. A deliberate change to a modelled number regenerates the
files with `PYTHONPATH=src python tests/test_golden.py` and commits the diff.
A mismatch, and the regeneration, list the changed cells of each file by
column, each row keyed by its layer, variant, sweep point and grid."""

import csv
import io
from pathlib import Path

import pytest

from scnnsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

# golden file -> CLI arguments
CASES = {
    **{
        f"{net}_run_analytic.csv": ["run", "--network", net, "--engine", "analytic"]
        for net in ("alexnet", "googlenet", "inception_mini", "vggnet")
    },
    "inception_mini_run_sim.csv": ["run", "--network", "inception_mini", "--engine", "sim"],
    "inception_mini_density_analytic.csv": [
        "sweep-density", "--network", "inception_mini", "--engine", "analytic"
    ],
    # 224x224 planes over 8x8 PEs: the closed-form vector counts of
    # 784-cell tiles at all ten densities
    "vggnet_density_analytic.csv": [
        "sweep-density", "--network", "vggnet", "--engine", "analytic"
    ],
    # two grids keep the sweep to a few seconds
    "inception_mini_grids_sim.csv": [
        "sweep-pe", "--network", "inception_mini", "--grids", "2x2,8x8"
    ],
    # non-square grids: more column parts than row parts and the reverse,
    # so the accumulators' rows and columns are merged unequally
    "inception_mini_grids_nonsquare_sim.csv": [
        "sweep-pe", "--network", "inception_mini", "--grids", "2x8,8x2"
    ],
    # strides 2 and 4, grouped layers, pooling and placeholder runs
    "strided_chain_run_sim.csv": [
        "run", "--network", str(GOLDEN / "strided_chain.yaml"), "--engine", "sim"
    ],
    # the cycle-level density sweep; two points keep it under a second
    "strided_chain_density_sim.csv": [
        "sweep-density", "--network", str(GOLDEN / "strided_chain.yaml"),
        "--engine", "sim", "--points", "0.9,0.4",
    ],
}


def _generate(golden: str, out_dir: Path) -> Path:
    """Run one case into an empty directory; return the one report written."""
    argv = [*CASES[golden], "--seed", "1", "--format", "csv", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    (report,) = out_dir.iterdir()
    return report


def changed_cells(old: bytes, new: bytes) -> list[str]:
    """One line per column whose cells differ between two reports, naming
    each changed cell's row and its old and new text; rows only one report
    has, a changed header or row order, each get a line too."""
    def table(data: bytes):
        reader = csv.DictReader(io.StringIO(data.decode()))
        keys = ("layer", "variant", "sweep_wd", "grid")
        return reader.fieldnames, {
            "/".join(filter(None, map(row.get, keys))): row for row in reader
        }

    (old_cols, old_rows), (new_cols, new_rows) = table(old), table(new)
    if old_cols != new_cols:
        return [f"header {old_cols} -> {new_cols}"]
    lines = [f"row {key} removed" for key in old_rows if key not in new_rows]
    lines += [f"row {key} added" for key in new_rows if key not in old_rows]
    kept = [key for key in old_rows if key in new_rows]
    if kept != [key for key in new_rows if key in old_rows]:
        lines.append("row order changed")
    for col in new_cols or ():
        cells = [
            f"{key} {old_rows[key][col]} -> {new_rows[key][col]}"
            for key in kept
            if old_rows[key][col] != new_rows[key][col]
        ]
        if cells:
            lines.append(f"{col} ({len(cells)} of {len(kept)}): " + "; ".join(cells))
    return lines or ["the bytes differ, but no cell does"]


def test_changed_cells_name_the_row_and_column():
    old = b"layer,variant,sweep_wd,grid,cycles,energy\nc1,scnn,0.5,,10,2\nc2,scnn,0.5,,7,3\n"
    new = b"layer,variant,sweep_wd,grid,cycles,energy\nc1,scnn,0.5,,10,4\nc3,scnn,,2x2,7,3\n"
    assert changed_cells(old, new) == [
        "row c2/scnn/0.5 removed",
        "row c3/scnn/2x2 added",
        "energy (1 of 1): c1/scnn/0.5 2 -> 4",
    ]
    assert changed_cells(old, old.replace(b"\n", b"\r\n")) == [
        "the bytes differ, but no cell does"
    ]


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_matches_golden(golden, tmp_path):
    got = _generate(golden, tmp_path).read_bytes()
    want = (GOLDEN / golden).read_bytes()
    if got != want:
        pytest.fail("\n".join([f"{golden} changed:", *changed_cells(want, got)]), pytrace=False)


if __name__ == "__main__":
    import tempfile
    from contextlib import redirect_stdout

    for name in sorted(CASES):
        path = GOLDEN / name
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
            got = _generate(name, Path(tmp)).read_bytes()
        want = path.read_bytes() if path.exists() else b""
        if got != want:
            print("\n  ".join([f"{name}:", *(changed_cells(want, got) if want else ["new file"])]))
        path.write_bytes(got)
