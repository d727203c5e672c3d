"""Golden-output gate: seed-1 reports of the shipped networks must stay
byte-identical. A deliberate change to a modelled number regenerates the
files with `PYTHONPATH=src python tests/test_golden.py` and commits the diff."""

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


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_matches_golden(golden, tmp_path):
    got = _generate(golden, tmp_path).read_bytes()
    assert got == (GOLDEN / golden).read_bytes()


if __name__ == "__main__":
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(_generate(name, Path(tmp)).read_bytes())
            print(f"wrote {GOLDEN / name}")
