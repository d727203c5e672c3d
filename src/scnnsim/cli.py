"""Command-line front end: network runs, sweeps, and oracle validation."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataflow import ConfigurationError
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
    pe_granularity_sweep,
    rows_from_granularity,
    rows_from_run,
    rows_from_sweep,
    run_network,
    shipped_networks,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--network", required=True,
        help=f"descriptor path or shipped name ({', '.join(shipped_networks())})",
    )
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

    run_p = sub.add_parser("run", help="run a network across variants")
    _add_common(run_p)
    run_p.add_argument(
        "--variants", default=",".join(ALL_VARIANTS),
        help="comma-separated subset of: " + ",".join(ALL_VARIANTS),
    )
    run_p.add_argument(
        "--engine", choices=("sim", "analytic"), default="analytic",
        help="cycle-level simulation or the closed-form model",
    )

    sd = sub.add_parser("sweep-density", help="sweep weight/activation density")
    _add_common(sd)
    sd.add_argument("--points", default=None, help="comma-separated densities")
    sd.add_argument("--engine", choices=("sim", "analytic"), default="sim")

    sp = sub.add_parser("sweep-pe", help="trade PE count against PE width")
    _add_common(sp)
    sp.add_argument("--grids", default="2x2,4x4,8x8")
    sp.add_argument("--total-mults", type=int, default=1024)

    val = sub.add_parser("validate", help="oracle-only functional check")
    _add_common(val)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        out_dir = Path(args.out_dir if args.out_dir is not None else cfg.out_dir)
        net = load_network(args.network)

        if args.command == "run":
            variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
            run = run_network(net, cfg.arch, variants, seed=seed, engine=args.engine)
            path = emit_report(
                rows_from_run(run), args.format, out_dir / f"{net.name}_run.{args.format}"
            )
            tiled = run.tiled_layers()
            print(f"{net.name}: {len(run.layers)} layers via {args.engine} -> {path}")
            if tiled:
                print(f"DRAM-tiled layers: {', '.join(tiled)}")
            for v in variants:
                if v in run.layers[0].reports:
                    print(f"  {v}: {run.total(v)} cycles, energy {run.total(v, 'energy'):.4g}")
            return 0

        if args.command == "sweep-density":
            points = _parse_points(args.points) if args.points else cfg.densities
            rows = density_sweep(
                net, cfg.arch, points, seed=seed, engine=args.engine
            )
            path = emit_report(
                rows_from_sweep(net.name, rows), args.format,
                out_dir / f"{net.name}_density.{args.format}",
            )
            print(f"{net.name}: {len(points)} density points -> {path}")
            return 0

        if args.command == "sweep-pe":
            grids = _parse_grids(args.grids)
            rows = pe_granularity_sweep(
                net, cfg.arch, grids, seed=seed, total_mults=args.total_mults
            )
            path = emit_report(
                rows_from_granularity(net.name, rows), args.format,
                out_dir / f"{net.name}_grids.{args.format}",
            )
            for p in rows:
                print(
                    f"  {p.grid[0]}x{p.grid[1]} PEs ({p.mults_per_pe}/PE): "
                    f"{p.cycles} cycles, util {p.mult_utilization:.3f}, "
                    f"barrier {p.barrier_stall_fraction:.3f}"
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
