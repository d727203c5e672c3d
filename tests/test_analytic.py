"""Closed-form pieces of the analytic engine against exact references."""

import itertools
import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scnnsim.analytic import _ceil_vec_moments, _max_of, _max_quantile


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
