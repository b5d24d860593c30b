"""Exact coefficient arithmetic: prime fields F_p and arbitrary-precision rationals.

Field objects operate on raw values (ints for F_p residues, Fraction for
rationals) so that polynomial inner loops stay cheap.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ArithmeticError):
    """Division by zero, or a value that does not coerce into the field."""


# psi_12, the least strong pseudoprime to the twelve prime bases 2 .. 37
# (Sorenson and Webster, Math. Comp. 86, 2017): below it, Miller-Rabin on
# those bases proves primality
_PRIME_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _PRIME_BOUND."""
    if n >= _PRIME_BOUND:
        raise FieldError(f"{n} is not below {_PRIME_BOUND}, the bound of the primality test")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Base class: exact field arithmetic on raw values."""

    name: str
    char: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def coerce(self, v):
        """The raw value of an int or a Fraction; FieldError when it has none."""
        raise NotImplementedError

    def random(self, rng):
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class PrimeField(Field):
    """F_p for a machine-word prime p; residues stored in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        c = a + b
        return c - self.p if c >= self.p else c

    def sub(self, a, b):
        c = a - b
        return c + self.p if c < 0 else c

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return self.p - a if a else 0

    def inv(self, a):
        if a == 0:
            raise FieldError(f"inverse of zero in {self.name}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator vanishes in {self.name}")
            return v.numerator % self.p * pow(den, self.p - 2, self.p) % self.p
        raise FieldError(f"cannot coerce {v!r} into {self.name}")

    def random(self, rng):
        return rng.randrange(self.p)

    def fmt(self, a) -> str:
        # symmetric representative keeps small-prime output readable
        return str(a - self.p if a > self.p // 2 and self.p > 5 else a)


class RationalField(Field):
    """The rationals, raw values are Fraction (always normalized)."""

    def __init__(self):
        self.char = 0
        self.name = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise FieldError("inverse of zero in QQ")
        return 1 / a

    def is_zero(self, a) -> bool:
        return not a

    def coerce(self, v):
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise FieldError(f"cannot coerce {v!r} into QQ")

    def random(self, rng):
        return Fraction(rng.randint(-10, 10), rng.randint(1, 10))

    def fmt(self, a) -> str:
        return str(a)


QQ = RationalField()

_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]


def field_by_name(name: str) -> Field:
    """Resolve a field selection string: QQ, F2, F32003, Fp:<prime>."""
    s = name.strip()
    if s in ("QQ", "Q"):
        return QQ
    digits = s[3:] if s.startswith("Fp:") else s[1:] if s.startswith("F") else ""
    if digits.isdecimal():
        try:
            return GF(int(digits))
        except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
            pass
    raise FieldError(f"unknown field {name!r}; expected QQ, F<p>, or Fp:<p>")
