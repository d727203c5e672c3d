"""Work decomposition shared by the dense and sparse pipelines.

The activation plane is split into per-PE input tiles that partition W x H
exactly (no input replication); partial sums that belong to a neighbouring
tile land in accumulator halo cells and are exchanged at output-channel-group
boundaries. Output channels are processed in groups of Kc chosen so one
group's accumulator state fits the banked buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import DenseTensor, LayerShape, ShapeError


class ConfigurationError(ValueError):
    """Hardware configuration cannot run the requested layer."""


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
    """Tiling arithmetic along one spatial dimension."""

    def __init__(self, span: int, parts: int, tap: int, pad: int, stride: int, out: int):
        self.tap, self.pad, self.stride = tap, pad, stride
        ranges = plane_partition(span, parts)
        self.starts = [lo for lo, _ in ranges]
        self.widths = [hi - lo for lo, hi in ranges]
        # owner of each output coordinate: the part holding the centre input
        # of its receptive window, clamped to the plane
        anchor = np.clip(np.arange(out) * stride - pad + (tap - 1) // 2, 0, span - 1)
        owner = anchor // _ceil_div(span, parts)
        self.out_ranges = []
        for p in range(parts):
            hits = np.flatnonzero(owner == p)
            self.out_ranges.append(
                (int(hits[0]), int(hits[-1]) + 1) if hits.size else (0, 0)
            )

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
    layer: LayerShape
    pe_rows: int
    pe_cols: int
    tiles: tuple[Tile, ...]
    _x: _Axis
    _y: _Axis

    @property
    def n_pes(self) -> int:
        return self.pe_rows * self.pe_cols

    def tile(self, pe: int) -> Tile:
        return self.tiles[pe]

    def acc_base(self, pe: int) -> tuple[int, int]:
        t = self.tiles[pe]
        return self._x.acc_base(t.col), self._y.acc_base(t.row)

    def acc_extent(self, pe: int) -> tuple[int, int]:
        t = self.tiles[pe]
        if t.empty:
            return 0, 0
        return self._x.acc_extent(t.col), self._y.acc_extent(t.row)

    def max_acc_cells(self) -> int:
        """Largest per-group spatial accumulator footprint over the PEs."""
        best = 0
        for pe in range(self.n_pes):
            ex, ey = self.acc_extent(pe)
            best = max(best, ex * ey)
        return best

    def owned_out_range(self, pe: int) -> tuple[tuple[int, int], tuple[int, int]]:
        t = self.tiles[pe]
        return self._x.out_ranges[t.col], self._y.out_ranges[t.row]

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
    ax = _Axis(layer.W, cols, layer.R, layer.pad, layer.stride, layer.Wo)
    ay = _Axis(layer.H, rows, layer.S, layer.pad, layer.stride, layer.Ho)
    tiles = []
    for r in range(rows):
        for c in range(cols):
            tiles.append(
                Tile(
                    pe=r * cols + c,
                    row=r,
                    col=c,
                    x0=ax.starts[c],
                    y0=ay.starts[r],
                    wt=ax.widths[c],
                    ht=ay.widths[r],
                )
            )
    return TilePlan(layer, rows, cols, tuple(tiles), ax, ay)


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
    plan = partition_tiles(layer, (arch.pe_rows, arch.pe_cols))
    cells = plan.max_acc_cells()
    physical = arch.accum_banks * arch.bank_entries
    double_buffered = bool(getattr(arch, "accum_double_buffered", True))
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


def strided_out_coord(global_in: int, tap: int, pad: int, stride: int) -> tuple[int, bool]:
    """Output coordinate for a strided pair, or valid=False when the pair
    falls between output positions and is skipped (and counted) instead."""
    num = global_in - tap + pad
    if num % stride:
        return 0, False
    return num // stride, True


def cartesian_work(layer: LayerShape, weights: DenseTensor, acts: DenseTensor) -> int:
    """Total useful multiplies: per input channel, every non-zero weight
    meets every non-zero activation exactly once. Independent of the PE
    grid, vector widths and bank count."""
    if weights.shape != layer.weight_shape() or acts.shape != layer.input_shape():
        raise ShapeError("tensor shapes do not match the layer")
    kpg = layer.filters_per_group
    total = 0
    for c in range(layer.C):
        g = c // layer.channels_per_group
        w_slice = weights.values[g * kpg : (g + 1) * kpg, c % layer.channels_per_group]
        total += int(np.count_nonzero(w_slice)) * int(
            np.count_nonzero(acts.values[c])
        )
    return total
