"""One cold scnnsim command, run in its own interpreter by perfbench/run.py.

    python3 perfbench/child.py RESULT.json MODE -- <scnnsim CLI arguments>

MODE is `setup` (import, load the descriptor and build the config, then
stop), `plain` (also run `scnnsim.cli.main`) or `trace` (run it under the
span tracer). The result file gets the CLOCK_MONOTONIC instant set-up ended
and, unless MODE is `setup`, the instant the command returned, its exit code
and the process's peak RSS. A traced run adds span totals, counts and the
engine-agreement rows.
"""

from __future__ import annotations

import json
import sys
import time


def engine_agreement(sim_layers: list[dict]) -> list[dict]:
    """Analytic cycles and energy for each simulated layer, evaluated at the
    densities the simulator actually saw, with the simulator's own DRAM
    tiling decision, so the ratio measures model error, not density drift."""
    from scnnsim.analytic import analytic_time_energy, count_events

    rows = []
    for s in sim_layers:
        arch = s["arch"]
        counts = count_events(
            arch, s["layer"], "sparse", s["densities"],
            input_from_dram=s["input_from_dram"], dram_tiled=s["dram_tiled"],
        )
        cycles, energy = analytic_time_energy(counts, arch, arch.energy)
        rows.append({
            "layer": s["layer"].name,
            "sim_cycles": s["cycles"],
            "analytic_cycles": cycles,
            "sim_energy": s["energy"],
            "analytic_energy": energy,
        })
    return rows


def main(argv: list[str]) -> int:
    result_path, mode, sep, *cli_argv = argv
    if sep != "--" or mode not in ("setup", "plain", "trace"):
        raise SystemExit("usage: child.py RESULT.json {setup|plain|trace} -- ARGS...")

    import scnnsim.cli
    from scnnsim.workloads import load_experiment_config, load_network

    load_experiment_config(None)
    load_network(cli_argv[cli_argv.index("--network") + 1])
    result: dict = {"ready_ns": time.monotonic_ns()}

    rc = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            rc = scnnsim.cli.main(cli_argv)
        finally:
            if tracer is not None:
                tracer.restore()
        result["end_ns"] = time.monotonic_ns()
        import resource

        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["rc"] = rc
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["agreement"] = engine_agreement(tracer.sim_layers)
    with open(result_path, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
