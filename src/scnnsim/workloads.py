"""Network descriptors, end-to-end runs, the sweep experiments, and reports.

A descriptor is a YAML layer graph: layer shapes, approximate per-layer
density targets, and for each layer the earlier layers (or the network
input) whose outputs, concatenated, it `takes`; by default the layer
before it. Runs execute each layer in order: the cycle-level engine feeds
every layer its producers' real outputs through the PE array and can
cross-check every layer against the exact convolution; the analytical
engine covers the full-size networks in closed form.

numpy, `tensors` and `simulator` are imported inside the sim-engine
functions only, so loading descriptors and running the analytical engine
never loads them. PyYAML, likewise, loads only when a file is parsed: a
shipped network is read from the JSON built from its YAML.
"""

from __future__ import annotations

import csv
import io
import json
import math
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .analytic import (
    VARIANT_DCNN,
    VARIANT_DCNN_OPT,
    VARIANT_SCNN,
    ArchConfig,
    EnergyModel,
    EventCounts,
    PoolSpec,
    SimReport,
    analytic_cycles,
    count_events,
    dense_baseline,
    useful_products,
)
from .dataflow import ConfigurationError, LayerShape, partition_tiles
from .record import Record, fields, replace

if TYPE_CHECKING:
    from .tensors import DenseTensor

SCHEMA_VERSION = 1
VARIANT_ORACLE = "oracle"
ALL_VARIANTS = (VARIANT_SCNN, VARIANT_DCNN, VARIANT_DCNN_OPT, VARIANT_ORACLE)


class DescriptorError(ValueError):
    """Invalid network descriptor file."""


class OracleMismatch(AssertionError):
    """Simulated output diverged from the exact convolution."""

    def __init__(self, layer: str, detail: str):
        self.layer = layer
        super().__init__(f"{layer}: {detail}")


class LayerSpec(Record):
    shape: LayerShape
    weight_density: float
    act_density: float      # input activation density (approximate)
    out_density: float      # density of this layer's stored output
    pool: PoolSpec | None = None
    # the producers whose outputs, concatenated in this order, are the input
    takes: tuple[str, ...] = ("input",)

    @property
    def name(self) -> str:
        return self.shape.name


class NetworkDescriptor(Record):
    name: str
    layers: tuple[LayerSpec, ...]

    def total_multiplies(self) -> int:
        return sum(s.shape.dense_multiplies() for s in self.layers)


def _field(mapping: dict, key: str, path: str, kind=None, default=None, required=True):
    if not isinstance(mapping, dict):
        raise DescriptorError(f"{path}: expected a mapping, got {mapping!r}")
    if key not in mapping:
        if not required:
            return default
        raise DescriptorError(f"{path}: missing required field '{key}'")
    value = mapping[key]
    # bool is an int subclass, but `true` is no count or density
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise DescriptorError(f"{path}.{key}: expected {names}, got {value!r}")
    return value


def _known_keys(mapping: dict, keys: Sequence[str], path: str) -> None:
    if not isinstance(mapping, dict):
        raise DescriptorError(f"{path}: expected a mapping, got {mapping!r}")
    for key in mapping:
        if key not in keys:
            expected = ", ".join(keys)
            raise DescriptorError(f"{path}: unknown key {key!r} (expected {expected})")


def _density(mapping: dict, key: str, path: str, default=None, required=True) -> float:
    v = _field(mapping, key, path, (int, float), default, required)
    if v is None:
        return v
    if not 0.0 < v <= 1.0:
        raise DescriptorError(f"{path}.{key}: density {v} outside (0, 1]")
    return float(v)


# the keys a descriptor's input, layer and pool mappings may hold; a
# misspelt optional key would otherwise fall back to its default unseen
INPUT_KEYS = ("channels", "width", "height")
LAYER_KEYS = (
    "name", "takes", "C", "K", "R", "S", "stride", "pad", "groups",
    "weight_density", "act_density", "pool",
)
POOL_KEYS = ("window", "stride")


def _pool(raw, path: str) -> PoolSpec | None:
    if raw is None:
        return None
    _known_keys(raw, POOL_KEYS, path)
    window, stride = _field(raw, "window", path, int), _field(raw, "stride", path, int)
    if window < 1 or stride < 1:
        raise DescriptorError(f"{path}: window {window} and stride {stride} must be >= 1")
    return PoolSpec(window, stride)


def _takes(raw: dict, path: str, prev: str, made: dict) -> tuple[str, ...]:
    """The producers a layer names: one, or a list concatenated in order;
    the previous layer when it names none."""
    takes = _field(raw, "takes", path, (str, list), prev, required=False)
    takes = (takes,) if isinstance(takes, str) else tuple(takes)
    if not takes:
        raise DescriptorError(f"{path}.takes: empty list")
    for i, t in enumerate(takes):
        if not isinstance(t, str) or t not in made:
            raise DescriptorError(
                f"{path}.takes: {t!r} names neither 'input' nor an earlier layer"
            )
        if t in takes[:i]:
            raise DescriptorError(f"{path}.takes: '{t}' is named twice")
        if made[t][1] != made[takes[0]][1]:
            (w, h), (w0, h0) = made[t][1], made[takes[0]][1]
            raise DescriptorError(
                f"{path}.takes: {t}'s {w}x{h} plane does not match {takes[0]}'s {w0}x{h0}"
            )
    return takes


def _load_layers(doc: dict, name: str) -> tuple[LayerSpec, ...]:
    inp = _field(doc, "input", name, dict)
    _known_keys(inp, INPUT_KEYS, f"{name}.input")
    # what each layer a later one may take hands over: channels, post-pool
    # plane, and where it is declared
    made = {"input": (
        _field(inp, "channels", f"{name}.input", int),
        (_field(inp, "width", f"{name}.input", int), _field(inp, "height", f"{name}.input", int)),
        f"{name}.input",
    )}
    raw_layers = _field(doc, "layers", name, list)
    if not raw_layers:
        raise DescriptorError(f"{name}: empty layer list")
    specs: list[LayerSpec] = []
    prev = "input"
    for i, raw in enumerate(raw_layers):
        path = f"{name}.layers[{i}]"
        _known_keys(raw, LAYER_KEYS, path)
        lname = _field(raw, "name", path, str)
        if lname in made:
            raise DescriptorError(
                f"{path}: layer name '{lname}' is already used by {made[lname][2]}"
            )
        takes = _takes(raw, path, prev, made)
        c, (w, h) = sum(made[t][0] for t in takes), made[takes[0]][1]
        declared_c = _field(raw, "C", path, int, required=False)
        if declared_c is not None and declared_c != c:
            src = " + ".join(takes)
            raise DescriptorError(
                f"{path} ({src} -> {lname}): declared C={declared_c} but "
                f"{src} produces {c} channels"
            )
        # read before the shape is built, whose errors get the path prefixed
        ints = {k: _field(raw, k, path, int) for k in ("K", "R", "S")}
        for k, default in (("stride", 1), ("pad", 0), ("groups", 1)):
            ints[k] = _field(raw, k, path, int, default, required=False)
        try:
            shape = LayerShape(lname, C=c, W=w, H=h, **ints)
        except ValueError as e:
            raise DescriptorError(f"{path}: {e}") from e
        pool = _pool(raw.get("pool"), f"{path}.pool")
        specs.append(
            LayerSpec(
                shape,
                _density(raw, "weight_density", path),
                _density(raw, "act_density", path),
                out_density=0.0,  # resolved after the walk
                pool=pool,
                takes=takes,
            )
        )
        w, h = shape.Wo, shape.Ho
        if pool is not None:
            w, h = pool.out_extent(w), pool.out_extent(h)
        made[lname] = (shape.K, (w, h), path)
        prev = lname
    # a layer's stored output density is its first consumer's input
    # density; a layer nothing takes keeps its own as a proxy
    first_use: dict[str, float] = {}
    for spec in specs:
        for t in spec.takes:
            first_use.setdefault(t, spec.act_density)
    return tuple(
        replace(spec, out_density=first_use.get(spec.name, spec.act_density))
        for spec in specs
    )


def _read_text(path: str | Path, what: str) -> str:
    """A file's UTF-8 text; a file that cannot be read is a one-line
    DescriptorError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DescriptorError(f"{path}: cannot read {what}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DescriptorError(f"{path}: {what} is not UTF-8 text (offset {e.start})") from e


def load_network(path: str | Path) -> NetworkDescriptor:
    """Load and validate a network descriptor: a YAML file's path, or a
    shipped name, which reads `networks/<name>.json`, the parsed form of
    `networks/<name>.yaml` committed beside it."""
    p = Path(path)
    if not p.exists():
        shipped = resources.files("scnnsim") / "networks" / f"{path}.json"
        if shipped.is_file():
            return _check_network(json.loads(shipped.read_text(encoding="utf-8")), str(path))
        raise DescriptorError(f"network descriptor not found: {path}")
    return _check_network(_load_yaml(_read_text(p, "network descriptor"), p.name), p.name)


def shipped_networks() -> list[str]:
    # networks/ has no __init__.py, so it is reached through the scnnsim
    # package: a namespace-package lookup fails in zipped installs
    files = resources.files("scnnsim") / "networks"
    return sorted(
        f.name[: -len(".yaml")] for f in files.iterdir() if f.name.endswith(".yaml")
    )


def _load_yaml(text: str, where: str):
    """Parse YAML; a syntax error becomes a one-line DescriptorError."""
    import yaml  # some 20 ms a process: only a file parse pays for it

    try:
        # libyaml's parser, several times faster, when PyYAML was built with it
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(e, "problem", None) or str(e).splitlines()[0]
        raise DescriptorError(f"{where}: not valid YAML{at}: {problem}") from e


def _check_network(doc, where: str) -> NetworkDescriptor:
    """The descriptor a parsed document declares; errors name `where`."""
    if not isinstance(doc, dict):
        raise DescriptorError(f"{where}: expected a mapping at top level")
    version = _field(doc, "schema_version", where, int)
    if version != SCHEMA_VERSION:
        raise DescriptorError(f"{where}: schema_version {version} != {SCHEMA_VERSION}")
    name = _field(doc, "name", where, str)
    return NetworkDescriptor(name, _load_layers(doc, name))


def _check_variants(variants: Sequence[str]) -> None:
    if not variants:
        raise ConfigurationError("at least one variant is required")
    for i, v in enumerate(variants):
        if v not in ALL_VARIANTS:
            raise ConfigurationError(
                f"unknown variant {v!r} (choose from {', '.join(ALL_VARIANTS)})"
            )
        if v in variants[:i]:
            raise ConfigurationError(f"variant {v!r} is given more than once")


class ExperimentConfig(Record):
    """Everything an experiment run needs beyond the descriptor."""

    arch: ArchConfig = ArchConfig()
    seed: int = 1
    densities: tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.densities:
            raise ConfigurationError("at least one sweep density is required")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigurationError(f"seed {self.seed!r} is not an integer >= 0")
        for d in self.densities:
            if not 0.0 < d <= 1.0:
                raise ConfigurationError(f"sweep density {d} outside (0, 1]")


CONFIG_KEYS = ("schema_version", "arch", "energy", "seed", "sweep", "out_dir")


def _build(cls, kw: dict, path: str):
    """cls(**kw) with every failure a one-line DescriptorError. Unknown names
    are refused first: the constructor's TypeError prints them unescaped."""
    _known_keys(kw, fields(cls), path)
    try:
        return cls(**kw)
    except (TypeError, ValueError) as e:
        raise DescriptorError(f"{path}: {e}") from e


def load_experiment_config(path: str | Path | None) -> ExperimentConfig:
    """Build an ExperimentConfig from a YAML file of overrides (or defaults).

    Every problem with the file is a DescriptorError or ConfigurationError
    whose message starts with the path."""
    if path is None:
        return ExperimentConfig()
    text = _read_text(path, "experiment config")
    where = str(path)
    doc = _load_yaml(text, where)
    if not isinstance(doc, dict):
        raise DescriptorError(f"{where}: expected a mapping at top level")
    _known_keys(doc, CONFIG_KEYS, where)
    version = _field(doc, "schema_version", where, int)
    if version != SCHEMA_VERSION:
        raise DescriptorError(f"{where}: schema_version {version} != {SCHEMA_VERSION}")
    arch_kw = dict(_field(doc, "arch", where, dict, {}, required=False))
    if "energy" in doc:
        energy = _field(doc, "energy", where, dict)
        arch_kw["energy"] = _build(EnergyModel, energy, f"{where}: bad energy field")
    kw = {"arch": _build(ArchConfig, arch_kw, f"{where}: bad arch field")}
    if "seed" in doc:
        kw["seed"] = _field(doc, "seed", where, int)
    sweep = _field(doc, "sweep", where, dict, {}, required=False)
    _known_keys(sweep, ("densities",), f"{where}.sweep")
    if "densities" in sweep:
        points = _field(sweep, "densities", f"{where}.sweep", list)
        for i, d in enumerate(points):
            if isinstance(d, bool) or not isinstance(d, (int, float)) or not 0 < d <= 1:
                raise DescriptorError(
                    f"{where}.sweep.densities[{i}]: {d!r} is not a density in (0, 1]"
                )
        kw["densities"] = tuple(float(d) for d in points)
    if "out_dir" in doc:
        kw["out_dir"] = _field(doc, "out_dir", where, str)
    return _build(ExperimentConfig, kw, where)


def synth_weights(spec: LayerSpec, seed: int) -> DenseTensor:
    from .tensors import gen_synthetic, prune_magnitude

    dense = gen_synthetic(spec.shape.weight_shape(), 1.0, seed=seed, lo=1, hi=31)
    return prune_magnitude(dense, spec.weight_density)


def synth_acts(spec: LayerSpec, seed: int) -> DenseTensor:
    from .tensors import gen_synthetic

    return gen_synthetic(
        spec.shape.input_shape(), spec.act_density, seed=seed, lo=1, hi=31, signed=False
    )


def max_l1_per_output(weights: DenseTensor) -> int:
    """Largest sum of |w| feeding any single output channel; with inputs
    bounded by B, no accumulator value can exceed B times this."""
    flat = abs(weights.values).reshape(weights.shape[0], -1).sum(axis=1)
    return int(flat.max()) if flat.size else 0


def requantize(t: DenseTensor, consumer_weights: Sequence[DenseTensor] = ()) -> DenseTensor:
    """Dynamic fixed-point rescale of non-negative outputs into the operand
    range of the layers that take them (arithmetic right shift by the
    smallest amount that provably keeps each of their accumulations inside
    24 bits, whatever else they concatenate). Applied identically wherever
    activations chain, oracle path included."""
    from .tensors import ACCUM_MAX, VALUE_MAX, DenseTensor

    l1 = max(map(max_l1_per_output, consumer_weights), default=0)
    bound = min(VALUE_MAX, ACCUM_MAX // l1) if l1 > 0 else VALUE_MAX
    m = int(t.values.max()) if t.size else 0
    shift = 0
    while (m >> shift) > bound:
        shift += 1
    return DenseTensor(t.values >> shift)


class LayerRun(Record):
    spec: LayerSpec
    reports: dict[str, SimReport]
    oracle_checked: bool = False


class NetworkRun(Record):
    network: str
    layers: list[LayerRun]
    variants: tuple[str, ...]

    def tiled_layers(self) -> list[str]:
        return [
            lr.spec.name for lr in self.layers if any(r.dram_tiled for r in lr.reports.values())
        ]


def _oracle_report(layer: LayerShape, useful: int, arch: ArchConfig) -> SimReport:
    """Upper-bound row: every useful multiply (a product of two non-zero
    operands that lands on a valid output) on a busy multiplier, so its
    utilization is 1 by definition and every PE is busy every cycle."""
    cycles = math.ceil(useful / arch.total_mults) if useful else 0
    ev = EventCounts(
        useful_mults=useful, energized_mults=useful, mult_ops=useful,
        mult_slots=cycles * arch.total_mults,
    )
    report = SimReport.build(arch, layer, VARIANT_ORACLE, cycles, ev)
    return replace(report, mult_utilization=1.0 if useful else 0.0)


def _reference_output(spec: LayerSpec, weights: DenseTensor, acts: DenseTensor):
    """The layer's exact output, [K, W, H] after ReLU and the pool."""
    from .tensors import apply_relu, reference_conv, reference_pool

    out = apply_relu(reference_conv(spec.shape, weights, acts))
    return (out if spec.pool is None else reference_pool(out, spec.pool)).values


def _sim_layer(
    arch: ArchConfig,
    spec: LayerSpec,
    weights: DenseTensor,
    acts: DenseTensor,
    variants: Sequence[str],
    first: bool,
) -> tuple[dict[str, SimReport], DenseTensor | None, bool]:
    """One layer through every requested engine; returns reports, the decoded
    pooled output (when the sparse pipeline or the oracle needs it), and
    whether the oracle comparison ran. Every row reads one count of useful
    multiplies, made from the tensors."""
    from . import simulator

    reports: dict[str, SimReport] = {}
    decoded: DenseTensor | None = None
    checked = False
    useful = simulator._gated_mults(spec.shape, weights, acts)
    if VARIANT_SCNN in variants or VARIANT_ORACLE in variants:
        out, rep = simulator.simulate_scnn_layer(
            arch, spec.shape, weights, acts, useful, pool=spec.pool, input_from_dram=first
        )
        decoded = out.decoded()
        if VARIANT_ORACLE in variants:
            expect = _reference_output(spec, weights, acts)
            got = decoded.values
            if got.shape != expect.shape:
                raise OracleMismatch(
                    spec.name, f"output shape {got.shape}, expected {expect.shape}"
                )
            if not (got == expect).all():
                k, x, y = (int(v[0]) for v in (got != expect).nonzero())
                raise OracleMismatch(
                    spec.name,
                    f"first mismatch at (k,x,y)={(k, x, y)}: "
                    f"got {int(got[k, x, y])}, expected {int(expect[k, x, y])}",
                )
            checked = True
            reports[VARIANT_ORACLE] = _oracle_report(spec.shape, useful, arch)
        if VARIANT_SCNN in variants:
            reports[VARIANT_SCNN] = rep
    if VARIANT_DCNN in variants or VARIANT_DCNN_OPT in variants:
        reports.update(simulator.simulate_dcnn_layer(
            arch, spec.shape, acts, useful, variants,
            pool=spec.pool, input_from_dram=first,
        ))
    return reports, decoded, checked


def _analytic_layer(
    arch: ArchConfig, spec: LayerSpec, variants: Sequence[str], first: bool
) -> dict[str, SimReport]:
    reports: dict[str, SimReport] = {}
    shape = spec.shape
    wd, ad = spec.weight_density, spec.act_density
    useful = useful_products(shape, wd, ad)
    pe_busy, dense_tiled, dense = dense_baseline(
        arch, shape, spec.pool, ad, useful, input_from_dram=first
    )
    for variant in variants:
        if variant == VARIANT_ORACLE:
            reports[variant] = _oracle_report(shape, useful, arch)
            continue
        if variant == VARIANT_SCNN:
            busy, tiled = (), _analytic_tiled(arch, spec)
            counts = count_events(arch, shape, "sparse", (wd, ad), first, tiled)
        else:
            busy, tiled, counts = pe_busy, dense_tiled, dense[variant]
        cycles = analytic_cycles(counts, arch)
        reports[variant] = SimReport.build(
            arch, shape, variant, cycles, counts, busy, [cycles - b for b in busy],
            dram_tiled=tiled,
        )
    return reports


def _analytic_tiled(arch: ArchConfig, spec: LayerSpec) -> bool:
    """Capacity rule, computed: do the compressed activations of the layer
    (inputs and post-pool outputs) fit the per-PE activation RAMs?"""
    shape = spec.shape
    plan = partition_tiles(shape, (arch.pe_rows, arch.pe_cols))
    in_pe = round(spec.act_density * shape.C * max(plan.x.widths) * max(plan.y.widths))
    out_w, out_h = shape.Wo, shape.Ho
    if spec.pool is not None:
        out_w, out_h = spec.pool.out_extent(out_w), spec.pool.out_extent(out_h)
    pw = -((-out_w) // arch.pe_cols)
    ph = -((-out_h) // arch.pe_rows)
    out_pe = round(spec.out_density * shape.K * pw * ph)
    return in_pe > arch.iaram_value_capacity or out_pe > arch.oaram_value_capacity


def run_network(
    net: NetworkDescriptor,
    arch: ArchConfig,
    variants: Sequence[str] = ALL_VARIANTS,
    seed: int = 1,
    engine: str = "sim",
) -> NetworkRun:
    """Execute every layer in order.

    engine="sim" runs real activations through the cycle-level pipeline:
    a layer's input is its producers' outputs concatenated in `takes`
    order, where the network input is synthesized once and each layer's
    decoded output is requantized once, against the largest L1 over the
    weights of the layers that take it, and freed after the last of them.
    Without the scnn and oracle variants no layer is simulated, so the
    output passed on is the ReLU'd, pooled reference convolution, the
    tensor the oracle check compares against. The oracle variant
    cross-checks every simulated layer and aborts on any mismatch.
    Layer i's weights are seeded from seed + 101*i and made once: when the
    layer runs, or earlier if requantizing a producer's output needs them.
    engine="analytic" uses the closed-form model, which reads only layer
    shapes and declared densities and makes no tensor at all (the practical
    choice for the full-size networks).
    """
    if engine not in ("sim", "analytic"):
        raise ConfigurationError(f"unknown engine {engine}")
    _check_variants(variants)
    if engine == "analytic":
        runs = [
            LayerRun(spec, _analytic_layer(arch, spec, variants, first=i == 0))
            for i, spec in enumerate(net.layers)
        ]
        return NetworkRun(net.name, runs, tuple(variants))
    import numpy as np

    from .tensors import DenseTensor

    consumers: dict[str, list[int]] = {}
    for i, spec in enumerate(net.layers):
        for t in spec.takes:
            consumers.setdefault(t, []).append(i)
    made: dict[int, DenseTensor] = {}

    def weights_of(i: int) -> DenseTensor:
        if i not in made:
            made[i] = synth_weights(net.layers[i], seed + 101 * i)
        return made[i]

    outputs = {"input": synth_acts(net.layers[0], seed + 50)}
    runs = []
    for i, spec in enumerate(net.layers):
        weights = weights_of(i)
        del made[i]
        if len(spec.takes) == 1:
            acts = outputs[spec.takes[0]]
        else:
            acts = DenseTensor(np.concatenate([outputs[t].values for t in spec.takes]))
        reports, decoded, checked = _sim_layer(
            arch, spec, weights, acts, variants, first=i == 0
        )
        for t in spec.takes:
            if consumers[t][-1] == i:
                del outputs[t]
        if spec.name in consumers:
            if decoded is None:
                decoded = DenseTensor(_reference_output(spec, weights, acts))
            outputs[spec.name] = requantize(decoded, list(map(weights_of, consumers[spec.name])))
        # the requantized copy is all a consumer reads
        del decoded
        runs.append(LayerRun(spec, reports, oracle_checked=checked))
    return NetworkRun(net.name, runs, tuple(variants))


def density_sweep(
    net: NetworkDescriptor,
    arch: ArchConfig,
    points: Sequence[float],
    seed: int = 1,
    engine: str = "sim",
) -> list[ReportRow]:
    """Sweep weight and activation density together across the network:
    one `network_row` per (point, variant), for every variant.

    A point is the network re-declared with every layer's weight, input
    and output density at the point density. engine="analytic" runs it
    with `run_network`, so each row is the run's own network total.
    engine="sim" does not chain the layers: it regenerates every layer's
    operands at the point density from one seeded permutation per tensor,
    so lower densities are position subsets of higher ones and the speedup
    series is monotone by construction; the dense weights are made once
    and pruned per point. A chained run would not hold the point density
    past the first layer, since each output's density is what its layer
    makes of its inputs. Only layer 0's input is read from DRAM, as in a run.
    """
    if engine not in ("sim", "analytic"):
        raise ConfigurationError(f"unknown engine {engine}")
    for d in points:
        if not 0.0 < d <= 1.0:
            raise ConfigurationError(f"sweep density {d} outside (0, 1]")
    if engine == "sim":
        from .tensors import gen_synthetic, prune_magnitude

        dense_weights = [
            gen_synthetic(s.shape.weight_shape(), 1.0, seed=seed + 101 * i, lo=1, hi=31)
            for i, s in enumerate(net.layers)
        ]
    rows: list[ReportRow] = []
    for d in points:
        swept = replace(net, layers=tuple(
            replace(s, weight_density=d, act_density=d, out_density=d) for s in net.layers
        ))
        if engine == "analytic":
            run = run_network(swept, arch, ALL_VARIANTS, seed=seed, engine=engine)
        else:
            layers = []
            for i, spec in enumerate(swept.layers):
                w = prune_magnitude(dense_weights[i], d)
                a = synth_acts(spec, seed + 101 * i + 50)
                reports, _, checked = _sim_layer(arch, spec, w, a, ALL_VARIANTS, first=i == 0)
                layers.append(LayerRun(spec, reports, oracle_checked=checked))
            run = NetworkRun(net.name, layers, ALL_VARIANTS)
        rows += (
            replace(network_row(run, arch, v), sweep_wd=d, sweep_ad=d) for v in ALL_VARIANTS
        )
    return rows


def pe_granularity_arch(arch: ArchConfig, grid: tuple[int, int]) -> ArchConfig:
    """`arch`'s chip-wide multiplier and RAM budget redistributed over the
    grid."""
    rows, cols = grid
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"grid {grid} must have at least one PE per axis")
    per_pe = arch.total_mults // (rows * cols)
    side = math.isqrt(per_pe)
    if rows * cols * per_pe != arch.total_mults or side * side != per_pe:
        raise ConfigurationError(
            f"grid {grid} cannot hold {arch.total_mults} multipliers as square F x I arrays"
        )
    base_pes = arch.pe_rows * arch.pe_cols
    return replace(
        arch,
        pe_rows=rows,
        pe_cols=cols,
        weights_per_fetch=side,
        acts_per_fetch=side,
        accum_banks=2 * per_pe,
        iaram_bytes=arch.iaram_bytes * base_pes // (rows * cols),
        oaram_bytes=arch.oaram_bytes * base_pes // (rows * cols),
    )


def pe_granularity_sweep(
    net: NetworkDescriptor,
    arch: ArchConfig,
    grids: Sequence[tuple[int, int]] = ((2, 2), (4, 4), (8, 8)),
    seed: int = 1,
) -> list[ReportRow]:
    """Hold chip math throughput constant and trade PE count against per-PE
    multiplier array size: per grid, the `network_row` of a sim scnn run
    on `pe_granularity_arch`, tagged with the grid."""
    rows = []
    for grid in grids:
        garch = pe_granularity_arch(arch, grid)
        run = run_network(net, garch, (VARIANT_SCNN,), seed=seed, engine="sim")
        rows.append(replace(network_row(run, garch, VARIANT_SCNN), grid=f"{grid[0]}x{grid[1]}"))
    return rows


class ReportRow(Record):
    network: str
    layer: str
    variant: str
    sweep_wd: float | None = None
    sweep_ad: float | None = None
    grid: str = ""
    cycles: int = 0
    batches: int = 0
    useful_mults: int = 0
    mult_utilization: float = 0.0
    barrier_stall_fraction: float = 0.0
    bank_conflict_stalls: int = 0
    fifo_stalls: int = 0
    dram_tiled: bool = False
    tiling_energy_fraction: float = 0.0
    energy: float = 0.0
    speedup_vs_dcnn: float | None = None
    energy_vs_dcnn: float | None = None

    def __post_init__(self) -> None:
        # a layer's energy is finite (`EnergyModel.rollup`), not so sums and ratios
        for name in ("energy", "tiling_energy_fraction", "energy_vs_dcnn"):
            if isinstance(v := getattr(self, name), float) and not math.isfinite(v):
                raise ConfigurationError(f"{self.network} {self.layer} {self.variant}: {name}={v}")


REPORT_COLUMNS = fields(ReportRow)


def rows_from_run(run: NetworkRun) -> list[ReportRow]:
    """One row per (layer, variant): every column its `SimReport` has, and
    the ratios to the layer's dcnn row when the run has one."""
    rows = []
    for lr in run.layers:
        base = lr.reports.get(VARIANT_DCNN)
        for variant in run.variants:
            rep = lr.reports[variant]
            rows.append(ReportRow(
                network=run.network,
                **{c: getattr(rep, c) for c in REPORT_COLUMNS if hasattr(rep, c)},
                speedup_vs_dcnn=base.cycles / rep.cycles if base and rep.cycles else None,
                energy_vs_dcnn=base.energy / rep.energy if base and rep.energy else None,
            ))
    return rows


def network_row(run: NetworkRun, arch: ArchConfig, variant: str) -> ReportRow:
    """One variant's network total: each field of the layer reports summed,
    or, for a ratio, taken by `SimReport`'s definition over the sums.
    mult_utilization is Σuseful / (total_mults * Σcycles), the barrier
    fraction Σpe_wait / (n_pes * Σcycles), tiling_energy_fraction
    Σpenalty / (Σenergy - Σpenalty), and dram_tiled is whether any layer
    is; the dcnn ratios are over the dcnn totals, when the run has dcnn.
    The bound (oracle) row's utilization can read just below 1, though
    each of its layers reads 1, as each layer rounds its cycles up.
    `arch` is the one the run ran on."""
    reps = [lr.reports[variant] for lr in run.layers]
    cycles = sum(r.cycles for r in reps)
    energy = sum(r.energy for r in reps)
    useful = sum(r.useful_mults for r in reps)
    penalty = sum(r.events.tiling_dram_bits for r in reps) * arch.energy.dram_bit
    base = [lr.reports[VARIANT_DCNN] for lr in run.layers if VARIANT_DCNN in run.variants]
    return ReportRow(
        network=run.network,
        layer="(network)",
        variant=variant,
        cycles=cycles,
        batches=sum(r.batches for r in reps),
        useful_mults=useful,
        mult_utilization=useful / (arch.total_mults * cycles) if cycles else 0.0,
        barrier_stall_fraction=(
            sum(sum(r.pe_wait) for r in reps) / (arch.n_pes * cycles) if cycles else 0.0
        ),
        bank_conflict_stalls=sum(r.bank_conflict_stalls for r in reps),
        fifo_stalls=sum(r.fifo_stalls for r in reps),
        dram_tiled=any(r.dram_tiled for r in reps),
        tiling_energy_fraction=penalty / (energy - penalty) if energy > penalty else 0.0,
        energy=energy,
        speedup_vs_dcnn=sum(r.cycles for r in base) / cycles if base and cycles else None,
        energy_vs_dcnn=sum(r.energy for r in base) / energy if base and energy else None,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def emit_report(rows: Sequence[ReportRow], fmt: str, path: str | Path) -> Path:
    """Write rows as CSV or a readable text table; deterministic bytes for
    identical inputs. Returns the written path."""
    path = Path(path)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in REPORT_COLUMNS])
        text = buf.getvalue()
    elif fmt == "text":
        widths = {c: len(c) for c in REPORT_COLUMNS}
        table = []
        for row in rows:
            cells = {c: _fmt(getattr(row, c)) for c in REPORT_COLUMNS}
            for c, cell in cells.items():
                widths[c] = max(widths[c], len(cell))
            table.append(cells)

        def line(cells: dict[str, str]) -> str:
            # no padding after the last cell, even an empty one
            return "  ".join(cells[c].ljust(widths[c]) for c in REPORT_COLUMNS).rstrip()

        lines = [line({c: c for c in REPORT_COLUMNS}), *map(line, table)]
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigurationError(f"unknown report format {fmt}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise ConfigurationError(f"{path}: cannot write report: {e.strerror}") from e
    return path
