"""Closed-form pieces of the analytic engine against exact references."""

import itertools
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import loop_gated_mults
from scnnsim.analytic import (
    ArchConfig,
    _ceil_vec_moments,
    _max_of,
    _max_quantile,
    count_events,
    useful_products,
)
from scnnsim.dataflow import ConfigurationError, LayerShape
from scnnsim.simulator import _gated_mults
from scnnsim.tensors import DenseTensor
from scnnsim.workloads import load_network, shipped_networks


def exact_ceil_vec_moments(n, p, v):
    """E[ceil(X / v)] and E[ceil(X / v)**2] for X ~ Binomial(n, p), summed
    exactly: with p = a / d, each term is comb(n, k) a**k (d - a)**(n - k)
    over d**n. Horner's rule in d - a keeps every step a multiply by a
    machine-sized integer, so n in the thousands takes a fraction of a
    second."""
    a, d = Fraction(p).as_integer_ratio()
    s1 = s2 = 0
    head = 1  # comb(n, k) * a**k
    for k in range(n + 1):
        c = -(-k // v)
        s1 = s1 * (d - a) + head * c
        s2 = s2 * (d - a) + head * c * c
        head = head * a * (n - k) // (k + 1)
    return float(Fraction(s1, d**n)), float(Fraction(s2, d**n))


def assert_match_exact_sums(n, p, v):
    e1, e2 = _ceil_vec_moments.__wrapped__(n, p, v)
    want1, want2 = exact_ceil_vec_moments(n, p, v)
    assert e1 == pytest.approx(want1, rel=1e-12, abs=0)
    assert e2 == pytest.approx(want2, rel=1e-12, abs=0)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.floats(1e-6, 1 - 1e-6),
    v=st.integers(1, 16),
)
def test_ceil_vec_moments_match_exact_sums(n, p, v):
    assert_match_exact_sums(n, p, v)


@pytest.mark.parametrize(
    "n,p,v",
    [
        # blocks as large as the engine's: 784 cells is vggnet's 28x28 tile;
        # p at the edges puts the mode at k = 0 or k = n
        *itertools.product([784, 2000], [1e-9, 0.35, 0.65, 1 - 1e-9], [1, 4, 16]),
        # the mode is k = 0, whose vector count is 0, and k = 1's term is
        # 1e-10 of it: a cut-off at 1e-20 of the mode's term would drop
        # k = 2, which carries 5e-11 of the mean
        (100, 1e-12, 1),
    ],
)
def test_ceil_vec_moments_match_exact_sums_at_the_edges(n, p, v):
    assert_match_exact_sums(n, p, v)


def test_max_quantile_matches_the_normal_inverse_cdf():
    normal = statistics.NormalDist()
    for n in range(2, 4097):
        want = normal.inv_cdf(1.0 - 1.0 / (2.0 * n))
        assert _max_quantile(n) == pytest.approx(want, rel=1e-12, abs=0), n


@pytest.mark.parametrize("n,var", [(1, 4.0), (0, 4.0), (64, 0.0)])
def test_max_of_without_skew_is_the_mean(n, var):
    assert _max_of(n, 12.5, var) == 12.5


@pytest.mark.parametrize("n,p,v", [(0, 0.5, 4), (7, 0.0, 4), (7, 1.0, 4), (9, 1.0, 2)])
def test_ceil_vec_moments_edges(n, p, v):
    c = math.ceil(n / v) if p >= 1.0 else 0
    assert _ceil_vec_moments(n, p, v) == (float(c), float(c * c))


def assert_useful_products_exact(layer):
    """At densities (1, 1) the closed form counts every useful product of
    all-non-zero tensors: the sim's count and the loop reference's."""
    w = np.ones(layer.weight_shape(), dtype=np.int32)
    a = np.ones(layer.input_shape(), dtype=np.int32)
    want = loop_gated_mults(layer, w, a)
    assert _gated_mults(layer, DenseTensor(w), DenseTensor(a)) == want
    assert useful_products(layer, 1.0, 1.0) == want


@settings(max_examples=200, deadline=None)
@given(
    stride=st.integers(1, 4),
    pad=st.integers(0, 3),
    groups=st.integers(1, 3),
    taps=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    per_group=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    steps=st.tuples(st.integers(0, 5), st.integers(0, 5)),
)
def test_useful_products_count_the_valid_output_tap_pairs(
    stride, pad, groups, taps, per_group, steps
):
    (R, S), (cpg, kpg) = taps, per_group
    # W = R - 2*pad + stride*n keeps the output size integral
    W, H = R - 2 * pad + stride * steps[0], S - 2 * pad + stride * steps[1]
    W += stride * max(0, -(-(1 - W) // stride))
    H += stride * max(0, -(-(1 - H) // stride))
    assert_useful_products_exact(LayerShape(
        "u", C=groups * cpg, K=groups * kpg, W=W, H=H, R=R, S=S,
        stride=stride, pad=pad, groups=groups,
    ))


@pytest.mark.parametrize("network", shipped_networks())
def test_useful_products_are_exact_on_every_shipped_layer(network):
    for spec in load_network(network).layers:
        assert_useful_products_exact(spec.shape)


@pytest.mark.parametrize("dataflow", ["dense", "dense-opt"])
def test_count_events_counts_only_the_sparse_array(dataflow):
    # the dense baselines are costed by dense_baseline
    layer = LayerShape("d", C=2, K=2, W=4, H=4, R=3, S=3, pad=1)
    with pytest.raises(ConfigurationError, match="sparse"):
        count_events(ArchConfig(), layer, dataflow, (0.5, 0.5))
