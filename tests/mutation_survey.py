"""Mutation survey of the cost rules and of the PPU's pooling: does tier-1
catch a one-line fault in each?

    python tests/mutation_survey.py          # every mutant, about 4 min
    python tests/mutation_survey.py --check  # only that each still applies

Each mutant is a (file under src/scnnsim, old text, new text) triple. The
survey applies it to a temporary copy of the repository's src and tests,
runs `python -m pytest -x -q` there, and prints "caught" when that run
fails and "survived" when it passes; it first checks that the copy with no
mutant passes. A mutant whose old text does not
occur exactly once in its file is "stale", reported rather than skipped:
the rule it mutates has moved, and the triple must follow it. `--check`
looks only for stale mutants and runs no test. The exit status is 1 when
any mutant is stale or survived.

A PR that adds or changes a cost rule adds its mutant here. pytest does
not collect this file (it is not named test_*.py).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = {
    # the sim's accounting
    "sim: weight reads by the largest vector count, not the sum": (
        "simulator.py",
        "weight_reads = int((w_stored * va.sum(axis=0)).sum())",
        "weight_reads = int((w_stored * va.max(axis=0)).sum())",
    ),
    "sim: an activation's stride phase taken as px + 1": (
        "simulator.py",
        "phase = ((ids - b0) * s + px) * s + py",
        "phase = ((ids - b0) * s + (px + 1) % s) * s + py",
    ),
    "sim: FIFO re-stream boundary <= -> <": (
        "simulator.py",
        "passes = np.where(wv <= arch.weight_fifo_entries,",
        "passes = np.where(wv < arch.weight_fifo_entries,",
    ),
    "sim: bank stall one short": (
        "simulator.py",
        "np.maximum(peak - group_batches, 0)",
        "np.maximum(peak - group_batches - 1, 0)",
    ),
    "sim: IARAM capacity > -> >=": (
        "simulator.py",
        "(a_stored.sum(axis=1) > arch.iaram_value_capacity)",
        "(a_stored.sum(axis=1) >= arch.iaram_value_capacity)",
    ),
    "sim: OARAM capacity > -> >=": (
        "simulator.py",
        "(out_stored > arch.oaram_value_capacity)",
        "(out_stored >= arch.oaram_value_capacity)",
    ),
    "sim: xor bank map shift 5 -> 4": (
        "simulator.py",
        "return ((linear >> 5) ^ linear) % banks",
        "return ((linear >> 4) ^ linear) % banks",
    ),
    # the analytic engine and the rules both engines share
    "analytic: bank floor over twice the banks": (
        "analytic.py",
        "_max_of(n, mean_pe, var_pe), products / arch.accum_banks)",
        "_max_of(n, mean_pe, var_pe), products / (2 * arch.accum_banks))",
    ),
    "analytic: a part's inputs per phase counted without the padding": (
        "dataflow.py",
        "_ceil_div(hi - lo - (q - lo - self.pad) % s, s)",
        "_ceil_div(hi - lo - (q - lo) % s, s)",
    ),
    "analytic: barrier-skew quantile halved": (
        "analytic.py",
        "return mean + _max_quantile(n) * math.sqrt(var)",
        "return mean + _max_quantile(n) / 2 * math.sqrt(var)",
    ),
    "dense: acc_updates rounded down": (
        "analytic.py",
        "acc_updates=-(-mult_ops // arch.mults_per_pe),",
        "acc_updates=mult_ops // arch.mults_per_pe,",
    ),
    "shared: act-RAM read once, not per group": (
        "analytic.py",
        "act_ram_bits=(ram_inputs * gplan.n_groups + outputs)",
        "act_ram_bits=(ram_inputs + outputs)",
    ),
    "shared: drain rounded down": (
        "analytic.py",
        "drain = -(-len(grp) * cells // arch.ppu_values_per_cycle)",
        "drain = len(grp) * cells // arch.ppu_values_per_cycle",
    ),
    "shared: drain always hidden": (
        "analytic.py",
        "end = max(t, drain) if gplan.double_buffered else t + drain",
        "end = max(t, drain)",
    ),
    "shared: weight stream's DRAM time halved": (
        "analytic.py",
        "t = max(busy, arch.dram_cycles(values * CODED_VALUE_BITS))",
        "t = max(busy, arch.dram_cycles(values * CODED_VALUE_BITS / 2))",
    ),
    "shared: halo latency charged twice": (
        "analytic.py",
        "cycles.append(end + arch.halo_latency_cycles)",
        "cycles.append(end + 2 * arch.halo_latency_cycles)",
    ),
    "shared: tiled input round trip dropped": (
        "analytic.py",
        "tiling = out_bits + (0 if input_from_dram else in_bits) if dram_tiled else 0",
        "tiling = out_bits if dram_tiled else 0",
    ),
    # the PPU, which the oracle must not share
    "ppu: max_pool skips each window's last column": (
        "simulator.py",
        "[plane[:, d : d + st * wo : st] for d in range(win)]",
        "[plane[:, d : d + st * wo : st] for d in range(win - 1)]",
    ),
}


def stale(name: str) -> bool:
    """Whether a mutant's old text no longer occurs exactly once."""
    path, old, _ = MUTANTS[name]
    return (ROOT / "src" / "scnnsim" / path).read_text().count(old) != 1


def fails(mutant: tuple[str, str, str] | None) -> bool:
    """Whether tier-1 fails on a copy of the repository with the mutant
    applied, or with none."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            path, old, new = mutant
            target = copy / "src" / "scnnsim" / path
            target.write_text(target.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    return proc.returncode != 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="only look for stale mutants")
    args = parser.parse_args(argv)
    if not args.check and fails(None):
        print("tier-1 fails with no mutant, so the survey would read every mutant as caught")
        return 1
    counts = {"caught": 0, "survived": 0, "stale": 0}
    for name in MUTANTS:
        if stale(name):
            outcome = "stale"
        elif args.check:
            outcome = "applies"
        else:
            t0 = time.perf_counter()
            outcome = "caught" if fails(MUTANTS[name]) else "survived"
            name = f"{name} ({time.perf_counter() - t0:.0f} s)"
        counts[outcome] = counts.get(outcome, 0) + 1
        print(f"{outcome:9} {name}", flush=True)
    if not args.check:
        print(f"caught {counts['caught']}/{len(MUTANTS)}")
    return 1 if counts["stale"] or counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
