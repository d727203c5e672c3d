"""Layer geometry and the work decomposition shared by the dense and sparse
pipelines.

The activation plane is split into per-PE input tiles that partition W x H
exactly (no input replication); partial sums that belong to a neighbouring
tile land in accumulator halo cells and are exchanged at output-channel-group
boundaries. Output channels are processed in groups of Kc chosen so one
group's accumulator state fits the banked buffer.

A tile is an x-axis part times a y-axis part, so the plan is held per axis
only: each axis's input ranges, accumulator windows and owned outputs,
from which every per-PE quantity is a product of a column's and a row's.
This module reads shapes only, never a tensor, and imports no numpy: the
analytic engine runs on it (see the package docstring).
"""

from __future__ import annotations

from functools import lru_cache

from .record import Record


class ShapeError(ValueError):
    """Tensor dimensions do not match the layer description."""


class ConfigurationError(ValueError):
    """Hardware configuration cannot run the requested layer."""


class LayerShape(Record):
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

    def conv_spans(self, ks: range) -> list[range]:
        """The filters of `ks` in each convolution group, in group order, an
        empty range where a group has none: where a run of output channels
        splits at convolution-group boundaries."""
        kpg = self.filters_per_group
        los = [max(ks.start, g * kpg) for g in range(self.groups)]
        return [range(lo, max(lo, min(ks.stop, (g + 1) * kpg))) for g, lo in enumerate(los)]

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


class _Axis:
    """Tiling arithmetic along one spatial dimension: part p covers inputs
    [starts[p], starts[p] + widths[p]) and owns outputs out_ranges[p].

    `classes` maps each distinct (width, accumulator extent, owned outputs,
    inputs per phase) of the parts with inputs to its number of parts, in
    part order of first appearance. An input x is of padded phase
    q = (x + pad) % stride, and it meets the phase_taps[q] taps
    t = q + stride * i."""

    def __init__(self, span: int, parts: int, tap: int, pad: int, stride: int, out: int):
        self.tap, self.pad, self.stride = tap, pad, stride
        self.phase_taps = tuple(_ceil_div(tap - q, stride) for q in range(stride))
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
        self.classes: dict[tuple[int, int, int, tuple[int, ...]], int] = {}
        for p, (lo, hi) in enumerate(ranges):
            o_lo = first_reaching(lo) if lo > 0 else 0
            o_hi = first_reaching(hi) if hi < span else out
            owned = (o_lo, o_hi) if lo < hi and o_lo < o_hi else (0, 0)
            self.out_ranges.append(owned)
            if lo < hi:
                key = (hi - lo, self.acc_extent(p), owned[1] - owned[0], self.phase_inputs(lo, hi))
                self.classes[key] = self.classes.get(key, 0) + 1

    def phase_inputs(self, lo: int, hi: int) -> tuple[int, ...]:
        """The inputs x in [lo, hi) of each padded phase q: the first is
        lo + (q - lo - pad) % stride. At stride 1 it is (hi - lo,)."""
        s = self.stride
        return tuple([_ceil_div(hi - lo - (q - lo - self.pad) % s, s) for q in range(s)])

    def acc_base(self, p: int) -> int:
        """Smallest output coordinate reachable from this part's inputs
        (may be negative for edge tiles; those cells are dead)."""
        return _ceil_div(self.starts[p] - (self.tap - 1) + self.pad, self.stride)

    def acc_extent(self, p: int) -> int:
        if self.widths[p] == 0:
            return 0
        top = (self.starts[p] + self.widths[p] - 1 + self.pad) // self.stride
        return top - self.acc_base(p) + 1


class TilePlan(Record):
    """Per-PE input tiles, held per axis: PE r * pe_cols + c holds column
    part c of the x axis (W) and row part r of the y axis (H), so its input
    starts at (x.starts[c], y.starts[r]), its accumulator at
    (x.acc_base(c), y.acc_base(r)), and it owns the outputs
    x.out_ranges[c] times y.out_ranges[r]. A part with no inputs leaves its
    PEs idle."""

    layer: LayerShape
    pe_rows: int
    pe_cols: int
    x: _Axis
    y: _Axis

    @property
    def n_pes(self) -> int:
        return self.pe_rows * self.pe_cols

    def tile_classes(self) -> list[tuple]:
        """Distinct shapes of the tiles that hold inputs, with multiplicity:
        (count, wt, ht, ex, ey, owned output cells, inputs per x phase,
        inputs per y phase), in the order the PEs first show them. Each is a
        y-axis class times an x-axis class; products with equal shapes are
        one class."""
        seen: dict[tuple, int] = {}
        for (ht, ey, oy, yq), ny in self.y.classes.items():
            for (wt, ex, ox, xq), nx in self.x.classes.items():
                key = (wt, ht, ex, ey, ox * oy, xq, yq)
                seen[key] = seen.get(key, 0) + nx * ny
        return [(n, *k) for k, n in seen.items()]

    def max_acc_cells(self) -> int:
        """Largest per-group spatial accumulator window over the PEs, in cells."""
        return max(e for _, e, *_ in self.x.classes) * max(e for _, e, *_ in self.y.classes)

    def acc_cells(self) -> int:
        """Accumulator cells over the PEs that hold inputs, the sum of ex * ey:
        each drains its window once per output channel. The sum of products
        over a column class times a row class is the product of the axes'
        sums."""
        return sum(n * e for (_, e, *_), n in self.x.classes.items()) * sum(
            n * e for (_, e, *_), n in self.y.classes.items()
        )


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


class GroupPlan(Record):
    """K split into output-channel groups of at most kc channels."""

    kc: int
    groups: tuple[range, ...]
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
        arch.accum_double_buffered,
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
        return GroupPlan(layer.K, (range(layer.K),), double_buffered)
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
    return GroupPlan(kc, groups, double_buffered)
