"""Span tracer for scnnsim, installed from outside the package.

`Tracer.install()` replaces every public module-level function of the
package's modules (plus `LayerOutput.decoded`) with a wrapper that records a
span: its name, its duration and the span that called it. Spans are folded in
memory into (caller, callee) totals, so a run of any length costs a fixed
amount of memory. Every module attribute that refers to a wrapped function is
patched, including names a module imported from another one. `restore()` puts
every original function back.

Self time is a span's duration minus the durations of the wrapped spans it
called. Observers read call arguments and results to count work (products
formed, values stored, ...); their time is charged to a separate account, not
to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

MODULES = ("cli", "workloads", "tensors", "codec", "dataflow", "simulator", "analytic")


class Tracer:
    def __init__(self) -> None:
        # (caller, name) -> [calls, total_ns, self_ns]
        self.spans: dict[tuple[str, str], list[int]] = {}
        self.counts = {
            "products_formed": 0,
            "useful_products": 0,
            "values_stored": 0,
            "placeholders": 0,
            "bank_conflict_stalls": 0,
            "fifo_stalls": 0,
            "drain_overhead_cycles": 0,
            "stride_skipped": 0,
        }
        self.observe_ns = 0
        self.sim_layers: list[dict] = []  # one per simulated layer, for engine agreement
        self._pending_inputs: list[tuple] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- observers -------------------------------------------------------

    def _on_encode(self, args, kwargs, block) -> None:
        self.counts["values_stored"] += len(block.values)
        self.counts["placeholders"] += block.values.count(0)

    def _on_prepare(self, args, kwargs, result) -> None:
        arch, layer, weights, acts = args[:4]
        self._pending_inputs.append((arch, layer, weights.density(), acts.density()))

    def _on_scnn(self, args, kwargs, result) -> None:
        report = result[1]
        c = self.counts
        c["products_formed"] += report.events.mult_ops
        c["useful_products"] += report.events.useful_mults
        c["bank_conflict_stalls"] += report.bank_conflict_stalls
        c["fifo_stalls"] += report.fifo_stalls
        c["drain_overhead_cycles"] += report.drain_overhead_cycles
        c["stride_skipped"] += report.stride_skipped
        arch, layer, wd, ad = self._pending_inputs.pop(0)
        self.sim_layers.append({
            "arch": arch,
            "layer": layer,
            "densities": (wd, ad),
            "input_from_dram": kwargs.get("input_from_dram", True),
            "dram_tiled": report.dram_tiled,
            "cycles": report.cycles,
            "energy": report.energy,
        })

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                key = (caller[0] if caller else "", name)
                s = spans.get(key)
                if s is None:
                    s = spans[key] = [0, 0, 0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[1]
                if caller is not None:
                    caller[1] += dur
            if observe is not None:
                t1 = perf_counter_ns()
                observe(args, kwargs, result)
                spent = perf_counter_ns() - t1
                self.observe_ns += spent
                if caller is not None:
                    caller[1] += spent
            return result

        return traced

    def install(self) -> None:
        observers = {
            "codec.encode_block": self._on_encode,
            "simulator.prepare_scnn_inputs": self._on_prepare,
            "simulator.simulate_scnn_layer": self._on_scnn,
        }
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"scnnsim.{short}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, observers.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "scnnsim" and not mod_name.startswith("scnnsim."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        from scnnsim.simulator import LayerOutput

        decoded = LayerOutput.decoded
        self._patch(LayerOutput, "decoded", self._wrap("simulator.LayerOutput.decoded", decoded))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Span totals and counts in a JSON-ready form."""
        return {
            "spans": [[caller, name, *s] for (caller, name), s in sorted(self.spans.items())],
            "counts": self.counts,
            "observe_ns": self.observe_ns,
        }
