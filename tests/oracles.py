"""Independent brute-force references, written before the library code they
check and kept free of it: plain Python loops over plain Python ints."""

from __future__ import annotations


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


def count_cartesian_products(layer, weights: list, input_: list) -> int:
    """Per input channel, non-zero weights times non-zero activations."""
    cpg = layer.C // layer.groups
    kpg = layer.K // layer.groups
    total = 0
    for c in range(layer.C):
        group = c // cpg
        nnz_w = 0
        for k in range(group * kpg, (group + 1) * kpg):
            for r in range(layer.R):
                for s in range(layer.S):
                    if weights[k][c % cpg][r][s] != 0:
                        nnz_w += 1
        nnz_a = 0
        for x in range(layer.W):
            for y in range(layer.H):
                if input_[c][x][y] != 0:
                    nnz_a += 1
        total += nnz_w * nnz_a
    return total
