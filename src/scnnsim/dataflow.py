"""Layer geometry and the work decomposition shared by the dense and sparse
pipelines.

The activation plane is split into per-PE input tiles that partition W x H
exactly (no input replication); partial sums that belong to a neighbouring
tile land in accumulator halo cells and are exchanged at output-channel-group
boundaries. Output channels are processed in groups of Kc chosen so one
group's accumulator state fits the banked buffer.

A tile's shape is an x-axis split times a y-axis split, so the tile
classes and the accumulator footprint the analytic engine needs are
derived per axis, never per PE. This module imports no numpy: the
analytic engine runs on it (see the package docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .tensors import DenseTensor


class ShapeError(ValueError):
    """Tensor dimensions do not match the layer description."""


class ConfigurationError(ValueError):
    """Hardware configuration cannot run the requested layer."""


@dataclass(frozen=True)
class LayerShape:
    """Convolution geometry: C input channels of W x H activations convolved
    with K filters of R x S taps, plus stride / zero padding / grouping."""

    name: str
    C: int
    K: int
    W: int
    H: int
    R: int
    S: int
    stride: int = 1
    pad: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        for attr in ("C", "K", "W", "H", "R", "S", "stride", "groups"):
            if getattr(self, attr) < 1:
                raise ShapeError(f"{self.name}: {attr} must be >= 1")
        if self.pad < 0:
            raise ShapeError(f"{self.name}: pad must be >= 0")
        if self.C % self.groups or self.K % self.groups:
            raise ShapeError(
                f"{self.name}: groups={self.groups} must divide C={self.C} and K={self.K}"
            )
        for span, tap, out_name in ((self.W, self.R, "Wo"), (self.H, self.S, "Ho")):
            num = span + 2 * self.pad - tap
            if num < 0 or num % self.stride:
                raise ShapeError(
                    f"{self.name}: {out_name} = ({span} + 2*{self.pad} - {tap})"
                    f"/{self.stride} + 1 is not a positive integer"
                )

    @property
    def Wo(self) -> int:
        return (self.W + 2 * self.pad - self.R) // self.stride + 1

    @property
    def Ho(self) -> int:
        return (self.H + 2 * self.pad - self.S) // self.stride + 1

    @property
    def channels_per_group(self) -> int:
        return self.C // self.groups

    @property
    def filters_per_group(self) -> int:
        return self.K // self.groups

    def dense_multiplies(self) -> int:
        """Multiply count of the plain output-centric loop nest (padding taps
        included), the convention used for whole-network totals."""
        return self.K * self.channels_per_group * self.R * self.S * self.Wo * self.Ho

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.K, self.channels_per_group, self.R, self.S)

    def input_shape(self) -> tuple[int, int, int]:
        return (self.C, self.W, self.H)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def plane_partition(span: int, parts: int) -> list[tuple[int, int]]:
    """Even split of a plane axis into [lo, hi) ranges ceil(span / parts)
    wide, the last parts ragged or empty."""
    width = _ceil_div(span, parts)
    return [(min(p * width, span), min((p + 1) * width, span)) for p in range(parts)]


@dataclass(frozen=True)
class Tile:
    """One PE's input rectangle. Zero extents mark an idle PE."""

    pe: int
    row: int
    col: int
    x0: int
    y0: int
    wt: int
    ht: int

    @property
    def empty(self) -> bool:
        return self.wt == 0 or self.ht == 0


class _Axis:
    """Tiling arithmetic along one spatial dimension: part p covers inputs
    [starts[p], starts[p] + widths[p]) and owns outputs out_ranges[p].

    `classes` maps each distinct (width, accumulator extent, owned outputs)
    of the parts with inputs to its number of parts, in part order of first
    appearance."""

    def __init__(self, span: int, parts: int, tap: int, pad: int, stride: int, out: int):
        self.tap, self.pad, self.stride = tap, pad, stride
        ranges = plane_partition(span, parts)
        self.starts = [lo for lo, _ in ranges]
        self.widths = [hi - lo for lo, hi in ranges]
        # owner of each output coordinate: the part holding the centre input
        # of its receptive window, clamped to the plane. The centre grows
        # with the output, so a part owns the outputs from the first whose
        # centre reaches its first input up to the first that reaches the
        # next part's.
        centre = (tap - 1) // 2 - pad

        def first_reaching(x: int) -> int:  # for 0 < x < span
            return min(out, max(0, _ceil_div(x - centre, stride)))

        self.out_ranges = []
        self.classes: dict[tuple[int, int, int], int] = {}
        for p, (lo, hi) in enumerate(ranges):
            o_lo = first_reaching(lo) if lo > 0 else 0
            o_hi = first_reaching(hi) if hi < span else out
            owned = (o_lo, o_hi) if lo < hi and o_lo < o_hi else (0, 0)
            self.out_ranges.append(owned)
            if lo < hi:
                key = (hi - lo, self.acc_extent(p), owned[1] - owned[0])
                self.classes[key] = self.classes.get(key, 0) + 1

    def acc_base(self, p: int) -> int:
        """Smallest output coordinate reachable from this part's inputs
        (may be negative for edge tiles; those cells are dead)."""
        return _ceil_div(self.starts[p] - (self.tap - 1) + self.pad, self.stride)

    def acc_extent(self, p: int) -> int:
        if self.widths[p] == 0:
            return 0
        top = (self.starts[p] + self.widths[p] - 1 + self.pad) // self.stride
        return top - self.acc_base(p) + 1


@dataclass(frozen=True)
class TilePlan:
    """Per-PE input tiles: PE r * pe_cols + c holds column part c of the x
    axis (W) and row part r of the y axis (H)."""

    layer: LayerShape
    pe_rows: int
    pe_cols: int
    x: _Axis
    y: _Axis

    @property
    def n_pes(self) -> int:
        return self.pe_rows * self.pe_cols

    @cached_property
    def tiles(self) -> tuple[Tile, ...]:
        x, y = self.x, self.y
        return tuple(
            Tile(r * self.pe_cols + c, r, c, x.starts[c], y.starts[r], x.widths[c], y.widths[r])
            for r in range(self.pe_rows)
            for c in range(self.pe_cols)
        )

    def tile(self, pe: int) -> Tile:
        return self.tiles[pe]

    def acc_base(self, pe: int) -> tuple[int, int]:
        t = self.tiles[pe]
        return self.x.acc_base(t.col), self.y.acc_base(t.row)

    def acc_extent(self, pe: int) -> tuple[int, int]:
        t = self.tiles[pe]
        if t.empty:
            return 0, 0
        return self.x.acc_extent(t.col), self.y.acc_extent(t.row)

    def tile_classes(self) -> list[tuple[int, int, int, int, int, int]]:
        """Distinct shapes of the tiles that hold inputs, with multiplicity:
        (count, wt, ht, ex, ey, owned output cells), in the order the PEs
        first show them. Each is a y-axis class times an x-axis class;
        products with equal shapes are one class."""
        seen: dict[tuple[int, int, int, int, int], int] = {}
        for (ht, ey, oy), ny in self.y.classes.items():
            for (wt, ex, ox), nx in self.x.classes.items():
                key = (wt, ht, ex, ey, ox * oy)
                seen[key] = seen.get(key, 0) + nx * ny
        return [(n, *k) for k, n in seen.items()]

    def max_acc_cells(self) -> int:
        """Largest per-group spatial accumulator footprint over the PEs."""
        return max(e for _, e, _ in self.x.classes) * max(e for _, e, _ in self.y.classes)

    def owned_out_range(self, pe: int) -> tuple[tuple[int, int], tuple[int, int]]:
        t = self.tiles[pe]
        return self.x.out_ranges[t.col], self.y.out_ranges[t.row]

    def owned_out_cells(self, pe: int) -> int:
        (xl, xh), (yl, yh) = self.owned_out_range(pe)
        return max(0, xh - xl) * max(0, yh - yl)


def partition_tiles(layer: LayerShape, pe_grid: tuple[int, int]) -> TilePlan:
    """Split the input plane into per-PE tiles (columns cut W, rows cut H).

    Tiles are ceil(W/cols) wide with the last column ragged or empty; empty
    tiles are legal and contribute no work.
    """
    rows, cols = pe_grid
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"pe grid {pe_grid} must be at least 1x1")
    return _tile_plan(layer, rows, cols)


# The plans are pure functions of frozen inputs, so each (layer, grid) and
# (layer, accumulator) is planned once per process however often the
# engines, the dense baselines and the reports ask for it. The public
# planners stay plain functions, which perfbench's tracer wraps by name.
@lru_cache(maxsize=1024)
def _tile_plan(layer: LayerShape, rows: int, cols: int) -> TilePlan:
    return TilePlan(
        layer,
        rows,
        cols,
        _Axis(layer.W, cols, layer.R, layer.pad, layer.stride, layer.Wo),
        _Axis(layer.H, rows, layer.S, layer.pad, layer.stride, layer.Ho),
    )


@dataclass(frozen=True)
class GroupPlan:
    """K split into output-channel groups of at most kc channels."""

    kc: int
    groups: tuple[range, ...]
    capacity_entries: int
    double_buffered: bool = True

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def choose_kc(layer: LayerShape, arch) -> GroupPlan:
    """Largest Kc whose per-group accumulator state fits the banked buffer.

    Capacity is banks x entries, halved when the accumulator is
    double-buffered. Layers whose single-channel accumulator state exceeds
    even the halved capacity fall back to single-buffered operation (drains
    are no longer hidden) before being rejected outright. `arch` needs
    pe_rows, pe_cols, accum_banks, bank_entries and accum_double_buffered
    attributes.
    """
    return _group_plan(
        layer, arch.pe_rows, arch.pe_cols, arch.accum_banks, arch.bank_entries,
        bool(getattr(arch, "accum_double_buffered", True)),
    )


@lru_cache(maxsize=1024)
def _group_plan(
    layer: LayerShape, rows: int, cols: int, banks: int, entries: int, double_buffered: bool
) -> GroupPlan:
    cells = partition_tiles(layer, (rows, cols)).max_acc_cells()
    physical = banks * entries
    capacity = physical // 2 if double_buffered else physical
    if cells == 0:
        # every output sees only padding: no product lands anywhere
        return GroupPlan(layer.K, (range(layer.K),), capacity, double_buffered)
    kc = min(layer.K, capacity // cells)
    if kc < 1 and double_buffered and physical // cells >= 1:
        double_buffered = False
        capacity = physical
        kc = min(layer.K, capacity // cells)
    if kc < 1:
        raise ConfigurationError(
            f"accumulator capacity {capacity} entries cannot hold one output "
            f"channel of {cells} cells for layer {layer.name}"
        )
    groups = tuple(
        range(k0, min(k0 + kc, layer.K)) for k0 in range(0, layer.K, kc)
    )
    return GroupPlan(kc, groups, capacity, double_buffered)


def cartesian_work(layer: LayerShape, weights: DenseTensor, acts: DenseTensor) -> int:
    """Total useful multiplies: per input channel, every non-zero weight
    meets every non-zero activation exactly once. Independent of the PE
    grid, vector widths and bank count."""
    if weights.shape != layer.weight_shape() or acts.shape != layer.input_shape():
        raise ShapeError("tensor shapes do not match the layer")
    g, kpg, cpg = layer.groups, layer.filters_per_group, layer.channels_per_group
    # non-zero weights of channel g * cpg + c, over group g's filters and taps
    w_nnz = (weights.values != 0).reshape(g, kpg, cpg, -1).sum(axis=(1, 3))
    a_nnz = (acts.values != 0).reshape(layer.C, -1).sum(axis=1)
    return int(w_nnz.reshape(-1) @ a_nnz)
