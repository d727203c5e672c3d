"""Independent references for the library code.

Most are brute force, written before the code they check and kept free of
it: plain Python loops over plain Python ints. The NumPy ones at the end are
the straightforward forms that vectorized library code replaced, kept as
references for it."""

from __future__ import annotations

import math

import numpy as np


def naive_conv(
    layer, weights: list, input_: list
) -> list:
    """Triple-loop convolution per output element.

    weights[k][c][r][s], input_[c][x][y], both nested Python lists. Returns
    out[k][x][y] with zero padding and the layer's stride/groups conventions.
    """
    wo = (layer.W + 2 * layer.pad - layer.R) // layer.stride + 1
    ho = (layer.H + 2 * layer.pad - layer.S) // layer.stride + 1
    cpg = layer.C // layer.groups
    kpg = layer.K // layer.groups
    out = [[[0] * ho for _ in range(wo)] for _ in range(layer.K)]
    for k in range(layer.K):
        group = k // kpg
        for xo in range(wo):
            for yo in range(ho):
                acc = 0
                for cl in range(cpg):
                    c = group * cpg + cl
                    for r in range(layer.R):
                        xi = xo * layer.stride + r - layer.pad
                        if xi < 0 or xi >= layer.W:
                            continue
                        for s in range(layer.S):
                            yi = yo * layer.stride + s - layer.pad
                            if yi < 0 or yi >= layer.H:
                                continue
                            acc += input_[c][xi][yi] * weights[k][cl][r][s]
                out[k][xo][yo] = acc
    return out


def loop_rle_encode(dense, index_bits):
    """(values, run_lengths) of one slice, one value at a time: a zero run
    longer than 2**index_bits - 1 is split by zero placeholders, each
    absorbing one of the zeros; trailing zeros are dropped."""
    max_run = (1 << index_bits) - 1
    values, runs = [], []
    zeros = 0
    for v in dense:
        if v == 0:
            zeros += 1
            continue
        while zeros > max_run:
            values.append(0)
            runs.append(max_run)
            zeros -= max_run + 1
        values.append(v)
        runs.append(zeros)
        zeros = 0
    return values, runs


def naive_rle_decode(values, run_lengths, extent):
    """Expand (zeros-before-value, value) pairs; trailing zeros implicit."""
    out = []
    for v, run in zip(values, run_lengths):
        out.extend([0] * run)
        out.append(v)
    out.extend([0] * (extent - len(out)))
    return out


def strided_out_coord(global_in: int, tap: int, pad: int, stride: int) -> tuple[int, bool]:
    """Output coordinate an input at global_in reaches through a tap, or
    valid=False when the pair falls between output positions."""
    num = global_in - tap + pad
    if num % stride:
        return 0, False
    return num // stride, True


def _axis_parts(span, parts, tap, pad, stride):
    """Per part of one plane axis: (width, accumulator extent, owned outputs,
    inputs per padded phase).

    The extent counts the output coordinates, in the plane or not, that some
    input of the part reaches through some tap; an output is owned by the
    part holding the centre input of its window, clamped to the plane. An
    input x is of phase (x + pad) % stride."""
    out = (span + 2 * pad - tap) // stride + 1
    width = -(-span // parts)
    owner = [min(max(o * stride - pad + (tap - 1) // 2, 0), span - 1) // width for o in range(out)]
    result = []
    for p in range(parts):
        lo, hi = min(p * width, span), min((p + 1) * width, span)
        reached = {
            (x + pad - t) // stride
            for x in range(lo, hi)
            for t in range(tap)
            if (x + pad - t) % stride == 0
        }
        extent = max(reached) - min(reached) + 1 if reached else 0
        phases = [(x + pad) % stride for x in range(lo, hi)]
        inputs = tuple(phases.count(q) for q in range(stride))
        result.append((hi - lo, extent, owner.count(p), inputs))
    return result


def per_pe_tiles(layer, rows, cols):
    """The tiles with inputs, one PE at a time in row-major order: their
    (count, wt, ht, ex, ey, owned output cells, inputs per x phase, inputs
    per y phase) classes, merged in order of first sight, the largest
    ex * ey among them and the sum of ex * ey."""
    xs = _axis_parts(layer.W, cols, layer.R, layer.pad, layer.stride)
    ys = _axis_parts(layer.H, rows, layer.S, layer.pad, layer.stride)
    seen = {}
    max_cells = cells = 0
    for r in range(rows):
        for c in range(cols):
            (wt, ex, ox, xq), (ht, ey, oy, yq) = xs[c], ys[r]
            if wt and ht:
                key = (wt, ht, ex, ey, ox * oy, xq, yq)
                seen[key] = seen.get(key, 0) + 1
                max_cells = max(max_cells, ex * ey)
                cells += ex * ey
    return [(n, *key) for key, n in seen.items()], max_cells, cells


def naive_max_pool(plane: list, window: int, stride: int) -> list:
    """Ceil-mode max pooling of plane[k][x][y] (nested lists): windows start
    at 0, stride, 2 * stride, ... while the start lies inside the plane, each
    clipped at the far edge, and none follows the first that reaches it."""

    def windows(span):
        out, lo = [], 0
        while lo < span:
            out.append(range(lo, min(lo + window, span)))
            if lo + window >= span:
                break
            lo += stride
        return out

    result = []
    for chan in plane:
        xs, ys = windows(len(chan)), windows(len(chan[0]) if chan else 0)
        result.append([[max(chan[x][y] for x in wx for y in wy) for wy in ys] for wx in xs])
    return result


def einsum_conv(layer, weights: np.ndarray, input_: np.ndarray) -> np.ndarray:
    """The convolution as one int64 `einsum` per (tap, convolution group),
    exact for any int64 partial sums; weights [k, c, r, s], input [c, x, y]."""
    c, w, h = layer.C, layer.W, layer.H
    pad, stride = layer.pad, layer.stride
    wo = (w + 2 * pad - layer.R) // stride + 1
    ho = (h + 2 * pad - layer.S) // stride + 1
    padded = np.zeros((c, w + 2 * pad, h + 2 * pad), dtype=np.int64)
    padded[:, pad : pad + w, pad : pad + h] = input_
    out = np.zeros((layer.K, wo, ho), dtype=np.int64)
    cpg, kpg = layer.C // layer.groups, layer.K // layer.groups
    for r in range(layer.R):
        for s in range(layer.S):
            window = padded[:, r : r + stride * wo : stride, s : s + stride * ho : stride]
            for g in range(layer.groups):
                cs = slice(g * cpg, (g + 1) * cpg)
                ks = slice(g * kpg, (g + 1) * kpg)
                out[ks] += np.einsum("kc,cxy->kxy", weights[ks, :, r, s], window[cs])
    return out


def argsort_prune(values: np.ndarray, target_density: float) -> np.ndarray:
    """Keep the ceil(d * n) largest magnitudes by a full stable sort on
    descending magnitude, equal magnitudes in index order; zero the rest."""
    n = values.size
    keep = math.ceil(target_density * n)
    order = np.argsort(-np.abs(values.reshape(-1)), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[:keep]] = True
    return np.where(mask.reshape(values.shape), values, 0)


def pass_encode_blocks(dense, extents, index_bits: int) -> dict:
    """`codec.encode_blocks` as it was first vectorized, as a dict of its
    columns in int64: per pass, a block id for every dense value
    (`np.repeat`), and each non-zero's gap taken from the previous non-zero
    when the neighbouring block ids agree. A non-zero's position is its
    index in its block, and its j-th placeholder's is 2**index_bits * j past
    the previous non-zero (or the block's start, at -1)."""
    from scnnsim.codec import _passes

    flat = np.asarray(dense, dtype=np.int64).reshape(-1)
    extents = np.asarray(extents, dtype=np.int64).reshape(-1)
    starts = np.zeros(extents.size + 1, dtype=np.int64)
    np.cumsum(extents, out=starts[1:])
    bound = np.count_nonzero(flat) + int((extents >> index_bits).sum())
    values = np.zeros(bound, dtype=np.int64)
    runs = np.full(bound, (1 << index_bits) - 1, dtype=np.int64)
    positions = np.zeros(bound, dtype=np.int64)
    offsets = np.zeros(extents.size + 1, dtype=np.int64)
    for b0, b1 in _passes(starts):
        part, at = flat[starts[b0] : starts[b1]], offsets[b0]
        nz = np.flatnonzero(part)
        blk = np.repeat(np.arange(b1 - b0), extents[b0:b1])[nz]
        local = nz - (starts[b0:b1] - starts[b0])[blk]
        prev = np.empty_like(local)
        prev[:1] = -1
        prev[1:] = np.where(blk[1:] == blk[:-1], local[:-1], -1)
        gap = local - prev - 1
        held = gap >> index_bits
        ends = at + np.cumsum(held + 1)
        values[ends - 1] = part[nz]
        runs[ends - 1] = gap & ((1 << index_bits) - 1)
        positions[ends - 1] = local
        j = np.arange(held.sum()) - np.repeat(np.cumsum(held) - held, held)
        at_held = np.repeat(ends - 1 - held, held) + j
        positions[at_held] = np.repeat(prev, held) + ((j + 1) << index_bits)
        block_ends = np.cumsum(np.bincount(blk, minlength=b1 - b0))
        offsets[b0 + 1 : b1 + 1] = np.concatenate(([at], ends))[block_ends]
    n = offsets[-1]
    return dict(
        values=values[:n], run_lengths=runs[:n], positions=positions[:n],
        offsets=offsets, extents=extents,
    )


def per_pe_tiles_encoded(plan, acts: np.ndarray, index_bits: int):
    """One `encode_blocks` call per PE over its [C, wt, ht] tile: block c of
    PE pe's set holds channel c, x-major then y."""
    from scnnsim.codec import encode_blocks

    out = []
    for pe in range(plan.n_pes):
        r, c = divmod(pe, plan.pe_cols)
        x0, wt, y0, ht = plan.x.starts[c], plan.x.widths[c], plan.y.starts[r], plan.y.widths[r]
        dense = acts[:, x0 : x0 + wt, y0 : y0 + ht]
        out.append(encode_blocks(dense, [wt * ht] * plan.layer.C, index_bits))
    return out


def loop_merge_group_plane(accs, plan, kc: int):
    """Sum every PE's [kc, ex, ey] accumulator (None for an idle PE) into the
    [kc, Wo, Ho] plane at its global coordinates, one PE at a time; return
    the plane and the count of non-zero in-plane cells outside each PE's
    owned rectangle."""
    layer = plan.layer
    full = np.zeros((kc, layer.Wo, layer.Ho), dtype=np.int64)
    halo_values = 0
    for pe in range(plan.n_pes):
        acc = accs[pe]
        if acc is None:
            continue
        r, c = divmod(pe, plan.pe_cols)
        xb, yb = plan.x.acc_base(c), plan.y.acc_base(r)
        ex, ey = plan.x.acc_extent(c), plan.y.acc_extent(r)
        xl, xh = max(0, -xb), min(ex, layer.Wo - xb)
        yl, yh = max(0, -yb), min(ey, layer.Ho - yb)
        if xl >= xh or yl >= yh:
            continue
        window = acc[:, xl:xh, yl:yh]
        full[:, xb + xl : xb + xh, yb + yl : yb + yh] += window
        (oxl, oxh), (oyl, oyh) = plan.x.out_ranges[c], plan.y.out_ranges[r]
        own = window[
            :,
            max(oxl - xb - xl, 0) : max(oxh - xb - xl, 0),
            max(oyl - yb - yl, 0) : max(oyh - yb - yl, 0),
        ]
        halo_values += int(np.count_nonzero(window)) - int(np.count_nonzero(own))
    return full, halo_values


def loop_gated_mults(layer, weights: np.ndarray, acts: np.ndarray) -> int:
    """Dense products whose operands are both non-zero, padding taps counted
    as zero operands: one window sum per tap and one `count_nonzero` per
    (tap, convolution group); weights [k, c, r, s], acts [c, x, y]."""
    pad, stride = layer.pad, layer.stride
    wo = (layer.W + 2 * pad - layer.R) // stride + 1
    ho = (layer.H + 2 * pad - layer.S) // stride + 1
    padded = np.zeros((layer.C, layer.W + 2 * pad, layer.H + 2 * pad), dtype=bool)
    padded[:, pad : pad + layer.W, pad : pad + layer.H] = acts != 0
    kpg, cpg = layer.K // layer.groups, layer.C // layer.groups
    total = 0
    for r in range(layer.R):
        for s in range(layer.S):
            window = padded[:, r : r + stride * wo : stride, s : s + stride * ho : stride]
            a_nnz = window.reshape(layer.C, -1).sum(axis=1)
            for g in range(layer.groups):
                w_per_c = np.count_nonzero(weights[g * kpg : (g + 1) * kpg, :, r, s], axis=0)
                total += int((w_per_c * a_nnz[g * cpg : (g + 1) * cpg]).sum())
    return total
