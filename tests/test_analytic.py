"""Closed-form pieces of the analytic engine against exact references."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scnnsim.analytic import _ceil_vec_moments


def exact_ceil_vec_moments(n, p, v):
    """E[ceil(X / v)] and E[ceil(X / v)**2] for X ~ Binomial(n, p), summed
    exactly: with p = a / d, each term is comb(n, k) a**k (d - a)**(n - k)
    over d**n."""
    a, d = Fraction(p).as_integer_ratio()
    s1 = s2 = 0
    for k in range(n + 1):
        weight = math.comb(n, k) * a**k * (d - a) ** (n - k)
        c = -(-k // v)
        s1 += weight * c
        s2 += weight * c * c
    return float(Fraction(s1, d**n)), float(Fraction(s2, d**n))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 300),
    p=st.floats(1e-6, 1 - 1e-6),
    v=st.integers(1, 16),
)
def test_ceil_vec_moments_match_exact_sums(n, p, v):
    e1, e2 = _ceil_vec_moments.__wrapped__(n, p, v)
    want1, want2 = exact_ceil_vec_moments(n, p, v)
    assert e1 == pytest.approx(want1, rel=1e-12)
    assert e2 == pytest.approx(want2, rel=1e-12)


@pytest.mark.parametrize("n,p,v", [(0, 0.5, 4), (7, 0.0, 4), (7, 1.0, 4), (9, 1.0, 2)])
def test_ceil_vec_moments_edges(n, p, v):
    c = math.ceil(n / v) if p >= 1.0 else 0
    assert _ceil_vec_moments(n, p, v) == (float(c), float(c * c))
