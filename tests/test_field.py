"""Field arithmetic: exactness, inverses, axioms on random triples."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from koszulkit.field import GF, QQ, FieldError, field_by_name


def test_inverse_in_f7_by_exhaustion():
    F7 = GF(7)
    # 3 * 5 = 15 = 2*7 + 1
    assert F7.inv(3) == 5
    for a in range(1, 7):
        inverses = [b for b in range(7) if a * b % 7 == 1]
        assert inverses == [F7.inv(a)]


def test_rational_sum_exact():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_char2_addition():
    F2 = GF(2)
    assert F2.add(1, 1) == 0


def test_division_by_zero_raises():
    with pytest.raises(FieldError):
        GF(7).inv(0)
    with pytest.raises(FieldError):
        QQ.inv(Fraction(0))


def test_field_by_name():
    assert field_by_name("QQ") is QQ
    assert field_by_name("F2").p == 2
    assert field_by_name("F32003").p == 32003
    assert field_by_name("Fp:101").p == 101
    for name in ["F15", "R", "Fp:abc", "Fp:-7", "F" + "9" * 5000]:
        with pytest.raises(FieldError):
            field_by_name(name)


def test_primality_is_proven_below_its_bound():
    """Strong pseudoprimes to the first 4, 8 and 11 prime bases are refused
    as composite, psi_12 (the least to the first 12) and anything larger as
    past the bound; a prime just below psi_12 is accepted."""
    for n in (3215031751, 341550071728321, 3825123056546413051):
        with pytest.raises(FieldError, match="is not prime"):
            GF(n)
    for n in (318665857834031151167461, 2**89 - 1):
        with pytest.raises(FieldError, match="bound of the primality test"):
            GF(n)
    assert GF(2**61 - 1).p == 2**61 - 1


@pytest.mark.parametrize("p", [2, 7, 32003])
def test_field_axioms_random_triples(p):
    K = GF(p)
    rng = random.Random(p)
    for _ in range(60):
        a, b, c = (K.random(rng) for _ in range(3))
        assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        assert K.add(a, K.neg(a)) == K.zero()
        if not K.is_zero(a):
            assert K.mul(a, K.inv(a)) == K.one()


def test_field_axioms_rationals_random():
    rng = random.Random(11)
    K = QQ
    for _ in range(60):
        a, b, c = (K.random(rng) for _ in range(3))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        if not K.is_zero(a):
            assert K.mul(a, K.inv(a)) == K.one()


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_distributivity_hypothesis(a, b, c):
    K = QQ
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))


@given(st.integers(min_value=1, max_value=32002))
def test_prime_inverse_hypothesis(n):
    K = GF(32003)
    assert K.mul(n, K.inv(n)) == 1
