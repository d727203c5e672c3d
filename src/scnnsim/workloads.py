"""Network descriptors, end-to-end runs, the sweep experiments, and reports.

Descriptors are YAML files (chain or module topologies) carrying layer
shapes plus approximate per-layer density targets. Runs execute each layer
in order: the cycle-level engine chains real activations through the PE
array and can cross-check every layer against the exact convolution; the
analytical engine covers the full-size networks in closed form.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .analytic import EnergyModel, EventCounts, analytic_time_energy, count_events
from .dataflow import ConfigurationError, partition_tiles
from .simulator import (
    ArchConfig,
    PoolSpec,
    SimReport,
    VARIANT_DCNN,
    VARIANT_DCNN_OPT,
    VARIANT_SCNN,
    dcnn_arch,
    prepare_scnn_inputs,
    simulate_dcnn_layer,
    simulate_scnn_layer,
)
from .tensors import (
    ACT_ROLES,
    DenseTensor,
    LayerShape,
    apply_relu,
    gen_synthetic,
    prune_magnitude,
    reference_conv,
)

SCHEMA_VERSION = 1
VARIANT_ORACLE = "oracle"
ALL_VARIANTS = (VARIANT_SCNN, VARIANT_DCNN, VARIANT_DCNN_OPT, VARIANT_ORACLE)


class DescriptorError(ValueError):
    """Invalid network descriptor file."""


class OracleMismatch(AssertionError):
    """Simulated output diverged from the exact convolution."""

    def __init__(self, layer: str, coord: tuple[int, int, int], got: int, want: int):
        self.layer = layer
        self.coord = coord
        super().__init__(
            f"{layer}: first mismatch at (k,x,y)={coord}: got {got}, expected {want}"
        )


@dataclass(frozen=True)
class LayerSpec:
    shape: LayerShape
    weight_density: float
    act_density: float      # input activation density (approximate)
    out_density: float      # density of this layer's stored output
    pool: PoolSpec | None = None
    module: str | None = None
    takes: str | None = None
    concat: bool = False

    @property
    def name(self) -> str:
        return self.shape.name


@dataclass(frozen=True)
class NetworkDescriptor:
    name: str
    topology: str  # "chain" | "modules"
    layers: tuple[LayerSpec, ...]
    source: str = ""

    def total_multiplies(self) -> int:
        return sum(s.shape.dense_multiplies() for s in self.layers)

    def max_weight_bytes(self) -> int:
        return max(
            s.shape.K * s.shape.channels_per_group * s.shape.R * s.shape.S * 2
            for s in self.layers
        )

    @property
    def chained(self) -> bool:
        return self.topology == "chain"


def _field(mapping: dict, key: str, path: str, kind=None, default=None, required=True):
    if key not in mapping:
        if not required:
            return default
        raise DescriptorError(f"{path}: missing required field '{key}'")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise DescriptorError(
            f"{path}.{key}: expected {getattr(kind, '__name__', kind)}, got {value!r}"
        )
    return value


def _density(mapping: dict, key: str, path: str, default=None, required=True) -> float:
    v = _field(mapping, key, path, (int, float), default, required)
    if v is None:
        return v
    if not 0.0 < float(v) <= 1.0:
        raise DescriptorError(f"{path}.{key}: density {v} outside (0, 1]")
    return float(v)


def _pool(mapping: dict, path: str) -> PoolSpec | None:
    raw = mapping.get("pool")
    if raw is None:
        return None
    return PoolSpec(
        _field(raw, "window", f"{path}.pool", int),
        _field(raw, "stride", f"{path}.pool", int),
    )


def _load_chain(doc: dict, name: str) -> tuple[LayerSpec, ...]:
    inp = _field(doc, "input", name, dict)
    c = _field(inp, "channels", f"{name}.input", int)
    w = _field(inp, "width", f"{name}.input", int)
    h = _field(inp, "height", f"{name}.input", int)
    raw_layers = _field(doc, "layers", name, list)
    if not raw_layers:
        raise DescriptorError(f"{name}: empty layer list")
    specs: list[LayerSpec] = []
    prev = "input"
    for i, raw in enumerate(raw_layers):
        path = f"{name}.layers[{i}]"
        lname = _field(raw, "name", path, str)
        declared_c = _field(raw, "C", path, int, required=False)
        if declared_c is not None and declared_c != c:
            raise DescriptorError(
                f"{path} ({prev} -> {lname}): declared C={declared_c} but "
                f"{prev} produces {c} channels"
            )
        try:
            shape = LayerShape(
                lname,
                C=c,
                K=_field(raw, "K", path, int),
                W=w,
                H=h,
                R=_field(raw, "R", path, int),
                S=_field(raw, "S", path, int),
                stride=_field(raw, "stride", path, int, 1, required=False),
                pad=_field(raw, "pad", path, int, 0, required=False),
                groups=_field(raw, "groups", path, int, 1, required=False),
            )
        except ValueError as e:
            raise DescriptorError(f"{path}: {e}") from e
        pool = _pool(raw, path)
        specs.append(
            LayerSpec(
                shape,
                _density(raw, "weight_density", path),
                _density(raw, "act_density", path),
                out_density=0.0,  # resolved after the walk
                pool=pool,
            )
        )
        c, w, h = shape.K, shape.Wo, shape.Ho
        if pool is not None:
            w, h = pool.out_extent(w), pool.out_extent(h)
        prev = lname
    # a layer's stored output density is the next layer's input density;
    # the last layer keeps its own as a proxy
    out: list[LayerSpec] = []
    for i, spec in enumerate(specs):
        nxt = specs[i + 1].act_density if i + 1 < len(specs) else spec.act_density
        out.append(replace(spec, out_density=nxt))
    return tuple(out)


def _load_modules(doc: dict, name: str) -> tuple[LayerSpec, ...]:
    raw_modules = _field(doc, "modules", name, list)
    if not raw_modules:
        raise DescriptorError(f"{name}: empty module list")
    pool_raw = doc.get("inter_module_pool", {"window": 3, "stride": 2})
    inter_pool = PoolSpec(pool_raw["window"], pool_raw["stride"])
    specs: list[LayerSpec] = []
    prev_concat: int | None = None
    prev_plane: tuple[int, int] | None = None
    prev_name = ""
    for mi, m in enumerate(raw_modules):
        mpath = f"{name}.modules[{mi}]"
        mname = _field(m, "name", mpath, str)
        c_in = _field(m, "input_channels", mpath, int)
        w = _field(m, "width", mpath, int)
        h = _field(m, "height", mpath, int)
        m_act = _density(m, "act_density", mpath)
        if prev_concat is not None and prev_concat != c_in:
            raise DescriptorError(
                f"{mpath} ({prev_name} -> {mname}): input_channels={c_in} but "
                f"{prev_name} concatenates {prev_concat} channels"
            )
        if prev_plane is not None and (w, h) != prev_plane:
            raise DescriptorError(
                f"{mpath} ({prev_name} -> {mname}): plane {w}x{h} does not "
                f"match the {prev_plane[0]}x{prev_plane[1]} handed over"
            )
        pool_after = bool(m.get("pool_after", False))
        raw_layers = _field(m, "layers", mpath, list)
        by_name: dict[str, dict] = {}
        concat_sum = 0
        module_specs: list[LayerSpec] = []
        for li, raw in enumerate(raw_layers):
            path = f"{mpath}.layers[{li}]"
            lname = _field(raw, "name", path, str)
            takes = _field(raw, "takes", path, str)
            if takes == "input":
                c_src, a_density = c_in, m_act
            elif takes in by_name:
                c_src = by_name[takes]["K"]
                a_density = _density(raw, "act_density", path)
            else:
                raise DescriptorError(
                    f"{path}: takes='{takes}' does not name 'input' or an "
                    f"earlier layer of module {mname}"
                )
            try:
                shape = LayerShape(
                    f"{mname}/{lname}",
                    C=c_src,
                    K=_field(raw, "K", path, int),
                    W=w,
                    H=h,
                    R=_field(raw, "R", path, int),
                    S=_field(raw, "S", path, int),
                    pad=_field(raw, "pad", path, int, 0, required=False),
                )
            except ValueError as e:
                raise DescriptorError(f"{path}: {e}") from e
            concat = bool(raw.get("concat", False))
            if concat:
                concat_sum += shape.K
            module_specs.append(
                LayerSpec(
                    shape,
                    _density(raw, "weight_density", path),
                    a_density,
                    out_density=0.0,
                    pool=inter_pool if (pool_after and concat) else None,
                    module=mname,
                    takes=takes,
                    concat=concat,
                )
            )
            by_name[lname] = {"K": shape.K}
        if concat_sum == 0:
            raise DescriptorError(f"{mpath}: no layer marked concat")
        # a reduce's output density is its consumer's declared input density;
        # branch terminals get the next module's input density (patched below)
        consumer_density = {
            s.takes: s.act_density for s in module_specs if s.takes != "input"
        }
        for s in module_specs:
            od = consumer_density.get(s.shape.name.split("/")[1])
            specs.append(s if od is None else replace(s, out_density=od))
        prev_concat = concat_sum
        prev_plane = (
            (inter_pool.out_extent(w), inter_pool.out_extent(h)) if pool_after else (w, h)
        )
        prev_name = mname
    next_density: dict[str, float] = {}
    for mi, m in enumerate(raw_modules):
        successor = raw_modules[min(mi + 1, len(raw_modules) - 1)]
        next_density[m["name"]] = _density(successor, "act_density", "modules")
    return tuple(
        replace(s, out_density=next_density[s.module]) if s.out_density == 0.0 else s
        for s in specs
    )


def load_network(path: str | Path) -> NetworkDescriptor:
    """Load and validate a network descriptor (a path or a shipped name)."""
    p = Path(path)
    if not p.exists():
        builtin = resources.files("scnnsim.networks").joinpath(f"{path}.yaml")
        if builtin.is_file():
            return _parse_network(builtin.read_text(), str(path))
        raise DescriptorError(f"network descriptor not found: {path}")
    return _parse_network(p.read_text(), p.name)


def shipped_networks() -> list[str]:
    files = resources.files("scnnsim.networks")
    return sorted(
        f.name[: -len(".yaml")] for f in files.iterdir() if f.name.endswith(".yaml")
    )


def _parse_network(text: str, where: str) -> NetworkDescriptor:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise DescriptorError(f"{where}: not valid YAML: {e}") from e
    if not isinstance(doc, dict):
        raise DescriptorError(f"{where}: expected a mapping at top level")
    version = _field(doc, "schema_version", where, int)
    if version != SCHEMA_VERSION:
        raise DescriptorError(f"{where}: schema_version {version} != {SCHEMA_VERSION}")
    name = _field(doc, "name", where, str)
    topology = _field(doc, "topology", where, str)
    if topology == "chain":
        layers = _load_chain(doc, name)
    elif topology == "modules":
        layers = _load_modules(doc, name)
    else:
        raise DescriptorError(f"{where}: unknown topology '{topology}'")
    return NetworkDescriptor(name, topology, layers, doc.get("source", ""))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs beyond the descriptor."""

    arch: ArchConfig = field(default_factory=ArchConfig)
    variants: tuple[str, ...] = ALL_VARIANTS
    seed: int = 1
    densities: tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
    grids: tuple[tuple[int, int], ...] = ((2, 2), (4, 4), (8, 8))
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigurationError("at least one variant is required")
        for v in self.variants:
            if v not in ALL_VARIANTS:
                raise ConfigurationError(f"unknown variant {v}")
        if self.seed is None:
            raise ConfigurationError("a seed is mandatory (determinism contract)")
        for d in self.densities:
            if not 0.0 < d <= 1.0:
                raise ConfigurationError(f"sweep density {d} outside (0, 1]")


def load_experiment_config(path: str | Path | None) -> ExperimentConfig:
    """Build an ExperimentConfig from a YAML file of overrides (or defaults)."""
    if path is None:
        return ExperimentConfig()
    doc = yaml.safe_load(Path(path).read_text())
    if not isinstance(doc, dict):
        raise DescriptorError(f"{path}: expected a mapping at top level")
    version = _field(doc, "schema_version", str(path), int)
    if version != SCHEMA_VERSION:
        raise DescriptorError(f"{path}: schema_version {version} != {SCHEMA_VERSION}")
    arch_kw = dict(doc.get("arch", {}))
    if "energy" in doc:
        arch_kw["energy"] = EnergyModel(**doc["energy"])
    try:
        arch = ArchConfig(**arch_kw)
    except TypeError as e:
        raise DescriptorError(f"{path}: bad arch field: {e}") from e
    kw = {}
    if "variants" in doc:
        kw["variants"] = tuple(doc["variants"])
    if "seed" in doc:
        kw["seed"] = int(doc["seed"])
    if "sweep" in doc and "densities" in doc["sweep"]:
        kw["densities"] = tuple(float(d) for d in doc["sweep"]["densities"])
    if "out_dir" in doc:
        kw["out_dir"] = str(doc["out_dir"])
    return ExperimentConfig(arch=arch, **kw)


def synth_weights(spec: LayerSpec, seed: int) -> DenseTensor:
    dense = gen_synthetic(spec.shape.weight_shape(), 1.0, seed=seed, lo=1, hi=31)
    return prune_magnitude(dense, spec.weight_density)


def synth_acts(spec: LayerSpec, seed: int) -> DenseTensor:
    return gen_synthetic(
        spec.shape.input_shape(), spec.act_density, seed=seed, lo=1, hi=31, signed=False
    )


def max_l1_per_output(weights: DenseTensor) -> int:
    """Largest sum of |w| feeding any single output channel; with inputs
    bounded by B, no accumulator value can exceed B times this."""
    flat = np.abs(weights.values).reshape(weights.shape[0], -1).sum(axis=1)
    return int(flat.max()) if flat.size else 0


def requantize(t: DenseTensor, next_weights: DenseTensor | None = None) -> DenseTensor:
    """Dynamic fixed-point rescale of non-negative outputs into the operand
    range of the next layer (arithmetic right shift by the smallest amount
    that provably keeps the next accumulation inside 24 bits). Applied
    identically wherever activations chain, oracle path included."""
    from .tensors import ACCUM_MAX, VALUE_MAX

    bound = VALUE_MAX
    if next_weights is not None:
        l1 = max_l1_per_output(next_weights)
        if l1 > 0:
            bound = min(bound, ACCUM_MAX // l1)
    m = int(t.values.max()) if t.size else 0
    shift = 0
    while (m >> shift) > bound:
        shift += 1
    return DenseTensor(t.values >> shift, ACT_ROLES)


@dataclass
class LayerRun:
    spec: LayerSpec
    reports: dict[str, SimReport]
    oracle_checked: bool = False
    ram_swapped: bool = False  # odd layers read from the other activation RAM


@dataclass
class NetworkRun:
    network: str
    engine: str
    seed: int
    layers: list[LayerRun]
    variants: tuple[str, ...]

    def total(self, variant: str, attr: str = "cycles"):
        return sum(getattr(run.reports[variant], attr) for run in self.layers)

    def tiled_layers(self) -> list[str]:
        out = []
        for run in self.layers:
            rep = run.reports.get(VARIANT_SCNN) or next(iter(run.reports.values()))
            if rep.dram_tiled:
                out.append(run.spec.name)
        return out


def _oracle_report(layer: LayerShape, useful: int, arch: ArchConfig) -> SimReport:
    """Upper-bound row: every useful multiply lands on a busy multiplier."""
    cycles = math.ceil(useful / arch.total_mults) if useful else 0
    ev = EventCounts(useful_mults=useful, energized_mults=useful, mult_ops=useful)
    energy = useful * arch.energy.mult_op
    return SimReport(
        layer=layer.name,
        variant=VARIANT_ORACLE,
        cycles=cycles,
        useful_mults=useful,
        mult_utilization=1.0 if useful else 0.0,
        barrier_stall_fraction=0.0,
        bank_conflict_stalls=0,
        fifo_stalls=0,
        drain_overhead_cycles=0,
        stride_skipped=0,
        batches=cycles,
        events=ev,
        energy=energy,
        energy_breakdown={"multiply": energy},
        iaram_footprint=None,
        oaram_footprint=None,
        dram_tiled=False,
        pe_busy=(),
        pe_wait=(),
    )


def _tiling_fraction(report: SimReport, arch: ArchConfig) -> float:
    """Energy overhead of shuttling this layer's activations through DRAM,
    relative to the same layer held on chip."""
    if not report.dram_tiled:
        return 0.0
    round_trip_bits = (
        report.iaram_footprint.total_bits + report.oaram_footprint.total_bits
        if report.iaram_footprint is not None
        else 0
    )
    penalty = round_trip_bits * arch.energy.dram_bit
    base = report.energy - penalty
    return penalty / base if base > 0 else 0.0


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
    whether the oracle comparison ran."""
    reports: dict[str, SimReport] = {}
    decoded: DenseTensor | None = None
    checked = False
    need_scnn = VARIANT_SCNN in variants or VARIANT_ORACLE in variants
    if need_scnn:
        stream, tiles = prepare_scnn_inputs(arch, spec.shape, weights, acts)
        out, rep = simulate_scnn_layer(
            arch, spec.shape, stream, tiles, pool=spec.pool, input_from_dram=first
        )
        decoded = out.decoded()
        if VARIANT_ORACLE in variants:
            ref = apply_relu(reference_conv(spec.shape, weights, acts))
            expect = ref.values
            if spec.pool is not None:
                from .simulator import max_pool

                expect = max_pool(expect, spec.pool)
            if decoded.values.shape != expect.shape or not (
                decoded.values == expect
            ).all():
                diff = np.argwhere(decoded.values != expect)
                k, x, y = (int(v) for v in diff[0])
                raise OracleMismatch(
                    spec.name, (k, x, y), int(decoded.values[k, x, y]), int(expect[k, x, y])
                )
            checked = True
            reports[VARIANT_ORACLE] = _oracle_report(spec.shape, rep.useful_mults, arch)
        if VARIANT_SCNN in variants:
            rep = replace(
                rep,
                oracle_checked=checked,
                tiling_energy_fraction=_tiling_fraction(rep, arch),
            )
            reports[VARIANT_SCNN] = rep
    for variant in (VARIANT_DCNN, VARIANT_DCNN_OPT):
        if variant in variants:
            reports[variant] = simulate_dcnn_layer(
                arch, spec.shape, weights, acts, variant, pool=spec.pool,
                input_from_dram=first,
            )
    return reports, decoded, checked


def _analytic_layer(
    arch: ArchConfig, spec: LayerSpec, variants: Sequence[str], first: bool
) -> dict[str, SimReport]:
    reports: dict[str, SimReport] = {}
    shape = spec.shape
    wd, ad = spec.weight_density, spec.act_density
    dram_tiled = _analytic_tiled(arch, spec)
    for variant in variants:
        if variant == VARIANT_ORACLE:
            useful = round(
                shape.filters_per_group * shape.C * shape.R * shape.S
                * shape.W * shape.H * wd * ad
            )
            reports[variant] = _oracle_report(shape, useful, arch)
            continue
        dflow = {
            VARIANT_SCNN: "sparse",
            VARIANT_DCNN: "dense",
            VARIANT_DCNN_OPT: "dense-opt",
        }[variant]
        eff_arch = arch if variant == VARIANT_SCNN else dcnn_arch(arch)
        tiled = dram_tiled if variant != VARIANT_DCNN else _analytic_tiled_dense(arch, spec)
        counts = count_events(
            eff_arch, shape, dflow, (wd, ad),
            input_from_dram=first, dram_tiled=tiled,
        )
        cycles, energy = analytic_time_energy(counts, eff_arch, arch.energy)
        base_counts = count_events(
            eff_arch, shape, dflow, (wd, ad), input_from_dram=first, dram_tiled=False
        )
        _, base_energy = analytic_time_energy(base_counts, eff_arch, arch.energy)
        frac = (energy - base_energy) / base_energy if tiled and base_energy > 0 else 0.0
        util = (
            counts.useful_mults / (arch.total_mults * cycles) if cycles else 0.0
        )
        reports[variant] = SimReport(
            layer=shape.name,
            variant=variant,
            cycles=cycles,
            useful_mults=counts.useful_mults,
            mult_utilization=util,
            barrier_stall_fraction=0.0,
            bank_conflict_stalls=0,
            fifo_stalls=0,
            drain_overhead_cycles=0,
            stride_skipped=0,
            batches=counts.pe_max_batches,
            events=counts,
            energy=energy,
            energy_breakdown=arch.energy.rollup(counts)[1],
            iaram_footprint=None,
            oaram_footprint=None,
            dram_tiled=tiled,
            pe_busy=(),
            pe_wait=(),
            tiling_energy_fraction=frac,
        )
    return reports


def _analytic_tiled(arch: ArchConfig, spec: LayerSpec) -> bool:
    """Capacity rule, computed: do the compressed activations of the layer
    (inputs and post-pool outputs) fit the per-PE activation RAMs?"""
    shape = spec.shape
    plan = partition_tiles(shape, (arch.pe_rows, arch.pe_cols))
    wt = max(t.wt for t in plan.tiles)
    ht = max(t.ht for t in plan.tiles)
    in_pe = round(spec.act_density * shape.C * wt * ht)
    out_w, out_h = shape.Wo, shape.Ho
    if spec.pool is not None:
        out_w, out_h = spec.pool.out_extent(out_w), spec.pool.out_extent(out_h)
    pw = -((-out_w) // arch.pe_cols)
    ph = -((-out_h) // arch.pe_rows)
    out_pe = round(spec.out_density * shape.K * pw * ph)
    return in_pe > arch.iaram_value_capacity or out_pe > arch.oaram_value_capacity


def _analytic_tiled_dense(arch: ArchConfig, spec: LayerSpec) -> bool:
    """Dense baseline holds raw activations in its 2MB SRAM."""
    shape = spec.shape
    d = dcnn_arch(arch)
    out_w, out_h = shape.Wo, shape.Ho
    if spec.pool is not None:
        out_w, out_h = spec.pool.out_extent(out_w), spec.pool.out_extent(out_h)
    total = shape.C * shape.W * shape.H + shape.K * out_w * out_h
    return total > d.n_pes * (d.iaram_value_capacity + d.oaram_value_capacity)


def run_network(
    net: NetworkDescriptor,
    arch: ArchConfig,
    variants: Sequence[str] = ALL_VARIANTS,
    seed: int = 1,
    engine: str = "sim",
) -> NetworkRun:
    """Execute every layer in order.

    engine="sim" chains real synthetic activations through the cycle-level
    pipeline (module-topology nets run each layer on fresh synthetic inputs
    at its declared density, since branches are not a chain). The oracle
    variant cross-checks every simulated layer and aborts on any mismatch.
    engine="analytic" uses the closed-form model (the practical choice for
    the full-size networks).
    """
    if engine not in ("sim", "analytic"):
        raise ConfigurationError(f"unknown engine {engine}")
    runs: list[LayerRun] = []
    acts: DenseTensor | None = None
    all_weights = [synth_weights(s, seed + 101 * i) for i, s in enumerate(net.layers)]
    for i, spec in enumerate(net.layers):
        first = i == 0
        if engine == "analytic":
            reports = _analytic_layer(arch, spec, variants, first)
            runs.append(LayerRun(spec, reports, ram_swapped=bool(i % 2)))
            continue
        weights = all_weights[i]
        if net.chained and acts is not None:
            layer_acts = acts
        else:
            layer_acts = synth_acts(spec, seed + 101 * i + 50)
        reports, decoded, checked = _sim_layer(
            arch, spec, weights, layer_acts, variants, first
        )
        if net.chained and decoded is not None:
            nxt = all_weights[i + 1] if i + 1 < len(net.layers) else None
            acts = requantize(decoded, nxt)
        runs.append(
            LayerRun(spec, reports, oracle_checked=checked, ram_swapped=bool(i % 2))
        )
    return NetworkRun(net.name, engine, seed, runs, tuple(variants))


@dataclass(frozen=True)
class SweepPoint:
    density: float
    variant: str
    cycles: int
    energy: float
    speedup: float        # dense-baseline cycles / this variant's cycles
    energy_ratio: float   # dense-baseline energy / this variant's energy


def density_sweep(
    net: NetworkDescriptor,
    arch: ArchConfig,
    points: Sequence[float],
    seed: int = 1,
    variants: Sequence[str] = (VARIANT_SCNN, VARIANT_DCNN, VARIANT_DCNN_OPT),
    engine: str = "sim",
) -> list[SweepPoint]:
    """Sweep weight and activation density together across the network.

    Every layer's operands are regenerated at the point density from one
    seeded permutation per tensor, so lower densities are position subsets
    of higher ones and the speedup series is monotone by construction.
    """
    for d in points:
        if not 0.0 < d <= 1.0:
            raise ConfigurationError(f"sweep density {d} outside (0, 1]")
    rows: list[SweepPoint] = []
    wanted = list(dict.fromkeys([*variants, VARIANT_DCNN, VARIANT_ORACLE]))
    dense_weights = [
        gen_synthetic(s.shape.weight_shape(), 1.0, seed=seed + 101 * i, lo=1, hi=31)
        for i, s in enumerate(net.layers)
    ]
    for d in points:
        totals: dict[str, list[float]] = {v: [0, 0.0] for v in wanted}
        for i, spec in enumerate(net.layers):
            swept = replace(spec, weight_density=d, act_density=d, out_density=d)
            if engine == "sim":
                w = prune_magnitude(dense_weights[i], d)
                a = gen_synthetic(
                    spec.shape.input_shape(), d, seed=seed + 101 * i + 50,
                    lo=1, hi=31, signed=False,
                )
                reports, _, _ = _sim_layer(arch, swept, w, a, wanted, first=True)
            else:
                reports = _analytic_layer(arch, swept, wanted, first=True)
            for v, rep in reports.items():
                totals[v][0] += rep.cycles
                totals[v][1] += rep.energy
        base_cycles, base_energy = totals[VARIANT_DCNN]
        for v in list(dict.fromkeys([*variants, VARIANT_ORACLE])):
            cycles, energy = totals[v]
            rows.append(
                SweepPoint(
                    d,
                    v,
                    int(cycles),
                    energy,
                    base_cycles / cycles if cycles else math.inf,
                    base_energy / energy if energy else math.inf,
                )
            )
    return rows


@dataclass(frozen=True)
class GranularityPoint:
    grid: tuple[int, int]
    mults_per_pe: int
    cycles: int
    mult_utilization: float
    barrier_stall_fraction: float


def pe_granularity_arch(arch: ArchConfig, grid: tuple[int, int], total_mults: int) -> ArchConfig:
    """Same chip-wide multiplier and RAM budget redistributed over the grid."""
    rows, cols = grid
    if rows < 1 or cols < 1 or total_mults < 1:
        raise ConfigurationError(
            f"grid {grid} and {total_mults} multipliers must all be positive"
        )
    per_pe = total_mults // (rows * cols)
    side = math.isqrt(per_pe)
    if rows * cols * per_pe != total_mults or side * side != per_pe:
        raise ConfigurationError(
            f"grid {grid} cannot hold {total_mults} multipliers as square F x I arrays"
        )
    scale = (arch.pe_rows * arch.pe_cols) // (rows * cols)
    return replace(
        arch,
        pe_rows=rows,
        pe_cols=cols,
        weights_per_fetch=side,
        acts_per_fetch=side,
        accum_banks=2 * per_pe,
        iaram_bytes=arch.iaram_bytes * scale,
        oaram_bytes=arch.oaram_bytes * scale,
        act_ram_port_bits=26 * side,
    )


def pe_granularity_sweep(
    net: NetworkDescriptor,
    arch: ArchConfig,
    grids: Sequence[tuple[int, int]] = ((2, 2), (4, 4), (8, 8)),
    seed: int = 1,
    total_mults: int = 1024,
) -> list[GranularityPoint]:
    """Hold chip math throughput constant and trade PE count against per-PE
    multiplier array size."""
    rows = []
    for grid in grids:
        garch = pe_granularity_arch(arch, grid, total_mults)
        run = run_network(net, garch, (VARIANT_SCNN,), seed=seed, engine="sim")
        cycles = run.total(VARIANT_SCNN)
        useful = run.total(VARIANT_SCNN, "useful_mults")
        util = useful / (total_mults * cycles) if cycles else 0.0
        waits = [r.reports[VARIANT_SCNN].barrier_stall_fraction for r in run.layers]
        rows.append(
            GranularityPoint(
                grid,
                total_mults // (grid[0] * grid[1]),
                cycles,
                util,
                sum(waits) / len(waits) if waits else 0.0,
            )
        )
    return rows


REPORT_COLUMNS = (
    "network", "layer", "variant", "sweep_wd", "sweep_ad", "grid",
    "cycles", "batches", "useful_mults", "mult_utilization",
    "barrier_stall_fraction", "bank_conflict_stalls", "fifo_stalls",
    "dram_tiled", "tiling_energy_fraction", "energy", "speedup_vs_dcnn",
    "energy_vs_dcnn",
)


@dataclass(frozen=True)
class ReportRow:
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


def rows_from_run(run: NetworkRun) -> list[ReportRow]:
    rows = []
    for lr in run.layers:
        base = lr.reports.get(VARIANT_DCNN)
        for variant in run.variants:
            rep = lr.reports.get(variant)
            if rep is None:
                continue
            rows.append(
                ReportRow(
                    network=run.network,
                    layer=lr.spec.name,
                    variant=variant,
                    cycles=rep.cycles,
                    batches=rep.batches,
                    useful_mults=rep.useful_mults,
                    mult_utilization=rep.mult_utilization,
                    barrier_stall_fraction=rep.barrier_stall_fraction,
                    bank_conflict_stalls=rep.bank_conflict_stalls,
                    fifo_stalls=rep.fifo_stalls,
                    dram_tiled=rep.dram_tiled,
                    tiling_energy_fraction=rep.tiling_energy_fraction,
                    energy=rep.energy,
                    speedup_vs_dcnn=(
                        base.cycles / rep.cycles if base and rep.cycles else None
                    ),
                    energy_vs_dcnn=(
                        base.energy / rep.energy if base and rep.energy else None
                    ),
                )
            )
    return rows


def rows_from_sweep(net: str, points: list[SweepPoint]) -> list[ReportRow]:
    return [
        ReportRow(
            network=net,
            layer="(network)",
            variant=p.variant,
            sweep_wd=p.density,
            sweep_ad=p.density,
            cycles=p.cycles,
            energy=p.energy,
            speedup_vs_dcnn=p.speedup,
            energy_vs_dcnn=p.energy_ratio,
        )
        for p in points
    ]


def rows_from_granularity(net: str, points: list[GranularityPoint]) -> list[ReportRow]:
    return [
        ReportRow(
            network=net,
            layer="(network)",
            variant=VARIANT_SCNN,
            grid=f"{p.grid[0]}x{p.grid[1]}",
            cycles=p.cycles,
            mult_utilization=p.mult_utilization,
            barrier_stall_fraction=p.barrier_stall_fraction,
        )
        for p in points
    ]


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
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in REPORT_COLUMNS])
        path.write_text(buf.getvalue())
    elif fmt == "text":
        widths = {c: len(c) for c in REPORT_COLUMNS}
        table = []
        for row in rows:
            cells = {c: _fmt(getattr(row, c)) for c in REPORT_COLUMNS}
            for c, cell in cells.items():
                widths[c] = max(widths[c], len(cell))
            table.append(cells)
        lines = ["  ".join(c.ljust(widths[c]) for c in REPORT_COLUMNS)]
        for cells in table:
            lines.append("  ".join(cells[c].ljust(widths[c]) for c in REPORT_COLUMNS))
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ConfigurationError(f"unknown report format {fmt}")
    return path
