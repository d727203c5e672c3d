"""Command-line front end: network runs, sweeps, and oracle validation.

Importing this module registers `gc.freeze` to run at interpreter exit. It
moves every object still alive into the collector's permanent generation,
so CPython's shutdown skips its final full collections and the cyclic
teardown of each module's objects. That work bought nothing once the report
was written, and took 20-50 ms of each cold command on a 2-core host.
Everything a caller can observe still happens: the other atexit handlers
run, stdout and stderr are flushed, and the exit code is kept; the reports
are closed before `main` returns. An in-process caller such as pytest keeps
a working collector until its own exit, which `gc.freeze` at the end of
`main` would not give it.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from pathlib import Path

from .dataflow import ConfigurationError
from .record import replace
from .workloads import (
    ALL_VARIANTS,
    DescriptorError,
    OracleMismatch,
    VARIANT_ORACLE,
    VARIANT_SCNN,
    density_sweep,
    emit_report,
    load_experiment_config,
    load_network,
    network_row,
    pe_granularity_sweep,
    rows_from_run,
    run_network,
    shipped_networks,
)

atexit.register(gc.freeze)


def _add_common(p: argparse.ArgumentParser, network_help: str) -> None:
    p.add_argument("--network", required=True, help=network_help)
    p.add_argument("--config", default=None, help="experiment config YAML")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-dir", default=None, help="report output directory")
    p.add_argument("--format", choices=("csv", "text"), default="csv")


def _parse_points(text: str) -> tuple[float, ...]:
    """Comma-separated densities; range checks belong to the sweep."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"--points {text!r}: expected comma-separated numbers"
        ) from None


def _parse_grids(text: str) -> tuple[tuple[int, int], ...]:
    """Comma-separated ROWSxCOLS PE grids."""
    grids = []
    for g in text.split(","):
        dims = g.split("x")
        if len(dims) != 2 or not all(d.isdigit() for d in dims):
            raise ConfigurationError(
                f"--grids {text!r}: {g!r} is not of the form ROWSxCOLS"
            )
        grids.append((int(dims[0]), int(dims[1])))
    return tuple(grids)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scnnsim",
        description="Sparse CNN accelerator simulator and analytical model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    network_help = f"descriptor path or shipped name ({', '.join(shipped_networks())})"

    run_p = sub.add_parser("run", help="run a network across variants")
    _add_common(run_p, network_help)
    run_p.add_argument(
        "--variants", default=",".join(ALL_VARIANTS),
        help="comma-separated subset of: " + ",".join(ALL_VARIANTS),
    )
    run_p.add_argument(
        "--engine", choices=("sim", "analytic"), default="analytic",
        help="cycle-level simulation or the closed-form model",
    )

    sd = sub.add_parser("sweep-density", help="sweep weight/activation density")
    _add_common(sd, network_help)
    sd.add_argument("--points", default=None, help="comma-separated densities")
    sd.add_argument("--engine", choices=("sim", "analytic"), default="sim")

    sp = sub.add_parser("sweep-pe", help="trade PE count against PE width")
    _add_common(sp, network_help)
    sp.add_argument("--grids", default="2x2,4x4,8x8")

    val = sub.add_parser("validate", help="oracle-only functional check")
    _add_common(val, network_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        seed = cfg.seed
        out_dir = Path(args.out_dir if args.out_dir is not None else cfg.out_dir)
        net = load_network(args.network)
        if args.command != "validate":
            # before the run, which may take minutes, not after it
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as e:
                raise ConfigurationError(
                    f"--out-dir {out_dir}: cannot make directory: {e.strerror}"
                ) from e

        if args.command == "run":
            variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
            run = run_network(net, cfg.arch, variants, seed=seed, engine=args.engine)
            # the totals too are checked before anything is written
            totals = [network_row(run, cfg.arch, v) for v in run.variants]
            path = emit_report(
                rows_from_run(run), args.format, out_dir / f"{net.name}_run.{args.format}"
            )
            tiled = run.tiled_layers()
            print(f"{net.name}: {len(run.layers)} layers via {args.engine} -> {path}")
            if tiled:
                print(f"DRAM-tiled layers: {', '.join(tiled)}")
            for total in totals:
                print(f"  {total.variant}: {total.cycles} cycles, energy {total.energy:.4g}")
            return 0

        if args.command == "sweep-density":
            points = _parse_points(args.points) if args.points is not None else cfg.densities
            rows = density_sweep(net, cfg.arch, points, seed=seed, engine=args.engine)
            path = emit_report(rows, args.format, out_dir / f"{net.name}_density.{args.format}")
            print(f"{net.name}: {len(points)} density points -> {path}")
            return 0

        if args.command == "sweep-pe":
            grids = _parse_grids(args.grids)
            rows = pe_granularity_sweep(net, cfg.arch, grids, seed=seed)
            path = emit_report(rows, args.format, out_dir / f"{net.name}_grids.{args.format}")
            for (pe_rows, pe_cols), row in zip(grids, rows):
                print(
                    f"  {row.grid} PEs ({cfg.arch.total_mults // (pe_rows * pe_cols)}/PE): "
                    f"{row.cycles} cycles, util {row.mult_utilization:.3f}, "
                    f"barrier {row.barrier_stall_fraction:.3f}"
                )
            print(f"-> {path}")
            return 0

        if args.command == "validate":
            run = run_network(
                net, cfg.arch, (VARIANT_SCNN, VARIANT_ORACLE), seed=seed, engine="sim"
            )
            checked = sum(1 for lr in run.layers if lr.oracle_checked)
            print(f"{net.name}: {checked}/{len(run.layers)} layers match the oracle")
            return 0
    except OracleMismatch as e:
        print(f"ORACLE MISMATCH: {e}", file=sys.stderr)
        return 1
    except (DescriptorError, ConfigurationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
