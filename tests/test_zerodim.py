"""Univariate root finding: 0 as a multiple root keeps every other root."""

from fractions import Fraction

import pytest

from koszulkit import GF, QQ
from koszulkit.zerodim import univariate_roots


def times_linear(K, coeffs, r):
    """coeffs (index = degree) times (x - r)."""
    out = [K.zero()] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] = K.add(out[i + 1], c)
        out[i] = K.sub(out[i], K.mul(r, c))
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "K,roots",
    [
        (QQ, [Fraction(1), Fraction(-2), Fraction(1, 3)]),
        (QQ, [Fraction(-3, 4), Fraction(5)]),
        (QQ, [Fraction(1)]),
        (GF(7), [1, 5]),
        (GF(32003), [1, 31000, 17]),
    ],
)
def test_zero_of_any_multiplicity_keeps_the_other_roots(K, roots, k):
    coeffs = [K.zero()] * k + [K.one()]  # x^k
    for r in roots:
        coeffs = times_linear(K, coeffs, K.coerce(r))
    assert sorted(univariate_roots(K, coeffs)) == sorted([K.zero()] + [K.coerce(r) for r in roots])

