"""Host-performance benchmark for scnnsim.

    python3 perfbench/run.py --workload sim-dense --seed 1 --seconds 40 --trace 0

A workload is one or more `scnnsim` CLI commands. Each command runs through
`scnnsim.cli.main` in a fresh interpreter (perfbench/child.py), one process
at a time, so every measurement is cold: the import and every lazily filled
cache are paid on each call, as they are for a user. The run first starts a
few set-up-only processes, then repeats the workload until --seconds have
passed (at least once). Times sum each command's median run, each run first
scaled to a reference host's speed by a pass of perfbench/calib.py's kernel
timed just before it (see main).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics, where each span comes
from perfbench/tracer.py wrapping the package's public functions from
outside; trace.overhead_frac compares the two kinds of repetition.

Correctness: every command must exit 0 (the sim workloads check every layer
against reference_conv and exit 1 on a mismatch), every report CSV must have
its expected rows, and the sha256 of the reports must be the same in every
repetition, traced or not, and in every run of the same source tree in this
checkout (kept in .perfbench_work/digests.json). The run prints a table and
the modelled-output fingerprint, then, as its last line, one JSON object with
`correct`, `attempted` and `failed` layer evaluations and `metrics`. It exits
1 when a check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calib import NOMINAL_S, Reference
from tracer import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
STRIDED = BENCH / "strided_mini.yaml"
DENSE = BENCH / "dense_mini.yaml"

DEFAULT_SEED = 1
SETUP_PROBES = 3      # set-up-only processes per run, on top of one per repetition
RUN_LIMIT_S = 170     # a run must end within 180 s; a child still running then is killed
VARIANTS = {"scnn", "dcnn", "dcnn-opt", "oracle"}
STALL_COUNTS = ("bank_conflict_stalls", "fifo_stalls", "drain_overhead_cycles", "stride_skipped")


# Each workload's commands; BENCHMARK.json lists the gated ones with the reason
# for each, and README.md says why sim-chain is not among them.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "sim-chain": (("run", "--network", "inception_mini", "--engine", "sim"),),
    "sim-dense": (
        ("sweep-density", "--network", str(DENSE), "--engine", "sim", "--points", "0.9"),
    ),
    "sim-strided": (("run", "--network", str(STRIDED), "--engine", "sim"),),
    "analytic-zoo": tuple(
        ("run", "--network", net, "--engine", "analytic")
        for net in ("alexnet", "googlenet", "inception_mini", "vggnet")
    ),
}

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "dense_macs_per_s": "MAC/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulator.scnn_self_s": "s",
    "simulator.products_formed": "count",
    "simulator.useful_frac": "ratio",
    "simulator.landed_frac": "ratio",
    "simulator.ns_per_product": "ns",
    "simulator.prepare_self_s": "s",
    "simulator.ppu_self_s": "s",
    "simulator.decoded_s": "s",
    "simulator.dcnn_s": "s",
    "codec.encode_s": "s",
    "codec.encode_calls": "count",
    "codec.decode_s": "s",
    "codec.values_stored": "count",
    "codec.placeholder_frac": "ratio",
    "tensors.synth_s": "s",
    "tensors.reference_conv_s": "s",
    "analytic.count_events_s": "s",
    "analytic.count_events_calls": "count",
    "dataflow.partition_tiles_s": "s",
    "dataflow.choose_kc_s": "s",
    "workloads.requantize_s": "s",
    "workloads.emit_report_s": "s",
    "cli.main_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    layer_evals: int     # layer evaluations the command attempts
    dense_macs: int      # sum of LayerShape.dense_multiplies() over them
    expected_rows: int   # rows of its report CSV


@dataclass
class Repetition:
    mode: str
    walls: list[float] = field(default_factory=list)    # per command
    setups: list[float] = field(default_factory=list)   # per command
    rss_mb: list[float] = field(default_factory=list)   # per command
    failed_layers: int = 0
    errors: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    agreement: list[dict] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)     # kernel pass before each command

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def setup_s(self) -> float:
        return sum(self.setups)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def plan_commands(workload: tuple[tuple[str, ...], ...], seed: int) -> list[Command]:
    from scnnsim.workloads import load_network

    out = []
    for argv in workload:
        net = load_network(argv[argv.index("--network") + 1])
        points = len(argv[argv.index("--points") + 1].split(",")) if "--points" in argv else 1
        rows = len(VARIANTS) * (points if argv[0] == "sweep-density" else len(net.layers))
        out.append(Command(
            (*argv, "--seed", str(seed)),
            len(net.layers) * points,
            net.total_multiplies() * points,
            rows,
        ))
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one worker: the benchmark measures the single-threaded program
    return env


def spawn(
    mode: str, argv: tuple[str, ...], work: Path, env: dict, deadline: float
) -> tuple[int | None, float, dict, str]:
    """Run one child; returns (exit status or None on timeout, wall seconds,
    the child's result, the tail of its output)."""
    result_path, log_path = work / "result.json", work / "child.log"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), mode, "--", *argv]
    with open(log_path, "wb") as log:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            status = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            status = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t1 = time.monotonic_ns()
    try:
        result = json.loads(result_path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        result = {}
    if "ready_ns" in result:
        result["setup_s"] = (result["ready_ns"] - t0) / 1e9
    tail = log_path.read_text(errors="replace")[-2000:]
    return status, (t1 - t0) / 1e9, result, tail


def run_setup_probe(
    commands: list[Command], work: Path, env: dict, deadline: float, ref: Reference
) -> Repetition | None:
    """Set-up seconds of each command, or None if one failed."""
    probe = Repetition("setup")
    for cmd in commands:
        probe.refs.append(ref.run())
        status, _, result, _ = spawn("setup", cmd.argv, work, env, deadline)
        if status != 0 or "setup_s" not in result:
            return None
        probe.setups.append(result["setup_s"])
    return probe


def run_repetition(
    mode: str, commands: list[Command], work: Path, env: dict, n: int, deadline: float,
    ref: Reference,
) -> Repetition:
    rep = Repetition(mode)
    for i, cmd in enumerate(commands):
        rep.refs.append(ref.run())
        out_dir = work / f"out-{n}-{i}"
        status, wall, result, tail = spawn(
            mode, (*cmd.argv, "--out-dir", str(out_dir)), work, env, deadline
        )
        rep.walls.append(wall)
        rep.setups.append(result.get("setup_s", 0.0))
        rep.rss_mb.append(result.get("maxrss_kb", 0) / 1024)
        csvs = sorted(out_dir.glob("*.csv"))
        if status != 0 or result.get("rc") != 0 or len(csvs) != 1:
            rep.failed_layers += cmd.layer_evals
            rep.errors.append(f"{' '.join(cmd.argv)}: exit {status}\n{tail}")
            continue
        data = csvs[0].read_bytes()
        rows = list(csv.DictReader(data.decode().splitlines()))
        if len(rows) != cmd.expected_rows or {r["variant"] for r in rows} != VARIANTS:
            rep.failed_layers += cmd.layer_evals
            rep.errors.append(
                f"{' '.join(cmd.argv)}: report has {len(rows)} rows, expected "
                f"{cmd.expected_rows} covering {sorted(VARIANTS)}"
            )
            continue
        rep.digests.append(hashlib.sha256(data).hexdigest())
        rep.rows.extend(rows)
        if "trace" in result:
            rep.traces.append(result["trace"])
            rep.agreement.extend(result["agreement"])
        shutil.rmtree(out_dir)
    return rep


def fingerprint(rep: Repetition) -> dict:
    """Modelled outputs of one repetition; a change that only speeds up the
    simulator must leave every value identical."""
    cycles = {v: 0 for v in VARIANTS}
    energy = {v: 0.0 for v in VARIANTS}
    for r in rep.rows:
        cycles[r["variant"]] += int(r["cycles"])
        energy[r["variant"]] += float(r["energy"])
    fp = {
        "model.scnn_cycles": cycles["scnn"],
        "model.dcnn_cycles": cycles["dcnn"],
        "model.dcnn_opt_cycles": cycles["dcnn-opt"],
        "model.ideal_cycles": cycles["oracle"],
        "model.scnn_speedup": cycles["dcnn"] / cycles["scnn"],
        "model.scnn_energy_ratio": energy["dcnn"] / energy["scnn"],
        "model.report_sha256": rep.digest,
    }
    if rep.mode == "trace":
        for key in STALL_COUNTS:
            fp[f"model.{key}"] = sum(t["counts"][key] for t in rep.traces)
        fp.update(agreement_ratios(rep.agreement))
    return fp


def agreement_ratios(rows: list[dict]) -> dict:
    """Sim over analytic cycles and energy: in total and per-layer extremes."""
    if not rows:
        return {}
    out = {}
    for kind in ("cycles", "energy"):
        ratios = [r[f"sim_{kind}"] / r[f"analytic_{kind}"] for r in rows]
        total = sum(r[f"sim_{kind}"] for r in rows) / sum(r[f"analytic_{kind}"] for r in rows)
        name = "cycle" if kind == "cycles" else "energy"
        out[f"model.sim_analytic_{name}_ratio"] = total
        out[f"model.sim_analytic_{name}_ratio_min"] = min(ratios)
        out[f"model.sim_analytic_{name}_ratio_max"] = max(ratios)
    return out


def layer_metrics(rep: Repetition) -> dict[str, float]:
    """Per-layer metrics of one traced repetition. A `*_self_s` metric is
    self time (span minus wrapped child spans); any other `*_s` metric is the
    whole span of the named function."""
    span_total: dict[str, int] = {}
    span_self: dict[str, int] = {}
    calls: dict[str, int] = {}
    ppu_children = 0
    for t in rep.traces:
        for caller, name, n, total, self_ns in t["spans"]:
            calls[name] = calls.get(name, 0) + n
            span_total[name] = span_total.get(name, 0) + total
            span_self[name] = span_self.get(name, 0) + self_ns
            if caller == "simulator.ppu_finalize" and name.startswith("simulator."):
                ppu_children += self_ns
    counts = {k: sum(t["counts"][k] for t in rep.traces) for k in rep.traces[0]["counts"]}
    observe_ns = sum(t["observe_ns"] for t in rep.traces)

    def total(*names):
        return sum(span_total.get(n, 0) for n in names) / 1e9

    def own(*names):
        return sum(span_self.get(n, 0) for n in names) / 1e9

    products = counts["products_formed"]
    scnn_self = own("simulator.simulate_scnn_layer")
    m = {
        "simulator.scnn_self_s": scnn_self,
        "simulator.products_formed": products,
        "simulator.useful_frac": counts["useful_products"] / products if products else 0.0,
        "simulator.landed_frac": (
            (products - counts["stride_skipped"]) / products if products else 0.0
        ),
        "simulator.ns_per_product": scnn_self * 1e9 / products if products else 0.0,
        "simulator.prepare_self_s": own(
            "simulator.prepare_scnn_inputs", "simulator.compress_weights",
            "simulator.distribute_activations",
        ),
        "simulator.ppu_self_s": own("simulator.ppu_finalize") + ppu_children / 1e9,
        "simulator.decoded_s": total("simulator.LayerOutput.decoded"),
        "simulator.dcnn_s": total("simulator.simulate_dcnn_layer"),
        "codec.encode_s": total("codec.encode_block"),
        "codec.encode_calls": calls.get("codec.encode_block", 0),
        "codec.decode_s": total("codec.decode_block", "codec.decode_entries"),
        "codec.values_stored": counts["values_stored"],
        "codec.placeholder_frac": (
            counts["placeholders"] / counts["values_stored"] if counts["values_stored"] else 0.0
        ),
        "tensors.synth_s": total("tensors.gen_synthetic", "tensors.prune_magnitude"),
        "tensors.reference_conv_s": total("tensors.reference_conv"),
        "analytic.count_events_s": total("analytic.count_events"),
        "analytic.count_events_calls": calls.get("analytic.count_events", 0),
        "dataflow.partition_tiles_s": total("dataflow.partition_tiles"),
        "dataflow.choose_kc_s": total("dataflow.choose_kc"),
        "workloads.requantize_s": total("workloads.requantize"),
        "workloads.emit_report_s": total("workloads.emit_report"),
        "cli.main_s": total("cli.main"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(v for n, v in span_self.items() if n.startswith(mod + ".")) / 1e9
    accounted = rep.setup_s + sum(span_self.values()) / 1e9 + observe_ns / 1e9
    m["trace.unaccounted_frac"] = 1.0 - accounted / rep.wall_s
    return m


def source_digest() -> str:
    """Identifies the program and benchmark inputs under test."""
    h = hashlib.sha256()
    files = [p for p in sorted(SRC.rglob("*")) if p.is_file() and "__pycache__" not in p.parts]
    for p in [*files, STRIDED, DENSE]:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def check_against_earlier_runs(key: str, digest: str) -> str | None:
    """Record the report digest for (source tree, workload, seed); return an
    error if an earlier run in this checkout recorded a different one."""
    path = WORK / "digests.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if seen.setdefault(key, digest) != digest:
        return f"report digest {digest} differs from {seen[key]} recorded by an earlier run"
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return None


def scaled(values: list[float], refs: list[float]) -> list[float]:
    """Each command's time at the reference host's speed, judged by the
    kernel pass timed just before that command."""
    return [v * NOMINAL_S / r for v, r in zip(values, refs)]


def median_total(runs: list[list[float]]) -> float:
    """Sum over commands of each command's median value across runs."""
    return sum(statistics.median(column) for column in zip(*runs))


def summary(values: list[float]) -> str:
    return (f"n={len(values)}, min {min(values):.6g}, median {statistics.median(values):.6g}, "
            f"max {max(values):.6g}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED})"
    )
    ap.add_argument("--seconds", type=float, default=40.0, help="measurement time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so the finally clauses stop the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "scnnsim" / "__init__.py").is_file():
        print(f"error: no scnnsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    commands = plan_commands(workload, args.seed)
    env = child_env()
    ref = Reference()
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        probes = [
            run_setup_probe(commands, work, env, deadline, ref) for _ in range(SETUP_PROBES)
        ]
        modes = ["plain", "trace"] if args.trace else ["plain"]
        reps: list[Repetition] = []
        last = 0.0
        while True:
            mode = modes[len(reps) % len(modes)]
            began = time.monotonic()
            if len(reps) >= len(modes) and began - start + last > args.seconds:
                break
            reps.append(run_repetition(mode, commands, work, env, len(reps), deadline, ref))
            last = time.monotonic() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)

    name = args.workload
    errors = [f"{name}: {e}" for r in reps for e in r.errors]
    good = [r for r in reps if not r.errors]
    prints = {r.digest for r in good}
    if len(prints) > 1:
        errors.append(
            f"{name}: report sha256 differs between repetitions of seed {args.seed}: "
            f"{sorted(prints)}"
        )
    elif prints:
        err = check_against_earlier_runs(f"{source_digest()}/{name}/{args.seed}", prints.pop())
        if err:
            errors.append(f"{name}: {err}")
    traced = [r for r in good if r.mode == "trace"]
    if len({json.dumps(fingerprint(r), sort_keys=True) for r in traced}) > 1:
        errors.append(f"{name}: modelled outputs differ between traced repetitions")

    attempted = len(reps) * sum(c.layer_evals for c in commands)
    failed = sum(r.failed_layers for r in reps)
    plain = [r for r in good if r.mode == "plain"]
    print(f"workload {name}  seed {args.seed}  repetitions {len(reps)} "
          f"({len(plain)} untraced, {len(traced)} traced), one cold process per command")
    metrics: dict[str, float] = {}
    if plain:
        # Times are the sum over the workload's commands of each command's
        # median run, each run first scaled to the reference host's speed by
        # the kernel pass just before it. On a shared host other tenants
        # slow the CPU in phases lasting seconds to minutes (up to 1.7x on a
        # 2-core KVM guest); the scaling cancels them, the median steadies
        # what is left.
        setup_reps = [p for p in probes if p] + plain
        factors = [NOMINAL_S / x for r in setup_reps for x in r.refs]
        macs = sum(c.dense_macs for c in commands)
        raw_wall = median_total([r.walls for r in plain])
        raw_setup = median_total([r.setups for r in setup_reps])
        wall = median_total([scaled(r.walls, r.refs) for r in plain])
        metrics = {
            "wall_s": wall,
            "setup_s": median_total([scaled(r.setups, r.refs) for r in setup_reps]),
            "dense_macs_per_s": macs / wall,
            "peak_rss_mb": max(
                statistics.median(r.rss_mb[i] for r in plain) for i in range(len(commands))
            ),
        }
        print(f"  host speed        factor {NOMINAL_S} s / kernel pass: {summary(factors)}")
        print(f"  wall_s            {metrics['wall_s']:.4f} s      measured {raw_wall:.4f} s, "
              f"repetitions: {summary([r.wall_s for r in plain])}")
        print(f"  setup_s           {metrics['setup_s']:.4f} s      measured {raw_setup:.4f} s, "
              f"set-ups: {summary([sum(r.setups) for r in setup_reps])}")
        print(f"  dense_macs_per_s  {metrics['dense_macs_per_s']:.4g} MAC/s  "
              f"{macs} dense MACs / wall_s")
        print(f"  peak_rss_mb       {metrics['peak_rss_mb']:.1f} MB     "
              f"median of the largest command, {summary([max(r.rss_mb) for r in plain])}")
    print(f"  error_rate        {failed / attempted:.4g}        "
          f"{failed}/{attempted} layer evaluations failed")
    if good:
        fp = fingerprint(traced[0] if traced else good[0])
        print("fingerprint " + json.dumps(fp, sort_keys=True))

    if args.trace:
        metrics = {}
        if traced and plain:
            middle = sorted(traced, key=lambda r: r.wall_s)[len(traced) // 2]
            metrics = layer_metrics(middle)
            metrics["trace.overhead_frac"] = (
                median_total([scaled(r.walls, r.refs) for r in traced]) / wall - 1.0
            )
            for k in PER_LAYER:
                print(f"  {k:30s} {metrics[k]:.6g} {PER_LAYER[k]}")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    correct = not errors and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
