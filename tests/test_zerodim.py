"""Univariate root finding: 0 as a multiple root keeps every other root, and
the roots over F_p agree with a brute-force evaluation at every residue."""

import random
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



def brute_force_roots(K, coeffs):
    """Every residue at which sum(coeffs[i] * x^i) vanishes, by evaluation."""
    def value(x):
        acc = K.zero()
        for c in reversed(coeffs):
            acc = K.add(K.mul(acc, x), c)
        return acc

    return [x for x in range(K.p) if K.is_zero(value(x))]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101, 1999])
def test_prime_field_roots_match_brute_force(p):
    K = GF(p)
    rng = random.Random(f"roots:{p}")
    for _ in range(60):
        # random polynomials, and products of random linear factors (with
        # repeats) times a random cofactor, so that most have several roots
        coeffs = [K.random(rng) for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 6)):
                coeffs = times_linear(K, coeffs, K.random(rng))
        if not any(coeffs):
            continue
        assert univariate_roots(K, coeffs) == brute_force_roots(K, coeffs)
