"""Hilbert series, Krull dimension, multiplicity, and regular-sequence tests.

The numerator of H_{S/I}(t) over (1-t)^{dim S} is computed from the initial
monomial ideal by pivot recursion; dimension comes combinatorially from
independent variable sets of the initial ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import GroebnerError, Ideal
from .ring import DEGREVLEX, Mon, MonomialOrder, Polynomial, RingContext

ZPoly = tuple  # integer polynomial in t as a coefficient tuple, index = degree


def zp_trim(c) -> ZPoly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def zp_add(a: ZPoly, b: ZPoly) -> ZPoly:
    n = max(len(a), len(b))
    return zp_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def zp_mul(a: ZPoly, b: ZPoly) -> ZPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return zp_trim(out)


def zp_shift(a: ZPoly, k: int) -> ZPoly:
    return zp_trim([0] * k + list(a))


def zp_eval1(a: ZPoly) -> int:
    return sum(a)


ONE_MINUS_T: ZPoly = (1, -1)


def zp_div_1mt(a: ZPoly) -> ZPoly | None:
    """a / (1-t) when exact, else None."""
    if not a:
        return ()
    q = [0] * (len(a) - 1) if len(a) > 1 else []
    rem = list(a)
    for i in range(len(rem) - 1, 0, -1):
        c = rem[i]
        if c:
            q[i - 1] = -c
            rem[i] = 0
            rem[i - 1] += c
    if rem[0] != 0:
        return None
    return zp_trim(q)


def zp_series(num: ZPoly, dim_ambient: int, bound: int) -> list[int]:
    """Coefficients of num/(1-t)^dim_ambient up to degree `bound`."""
    out = [num[i] if i < len(num) else 0 for i in range(bound + 1)]
    for _ in range(dim_ambient):
        for i in range(1, bound + 1):
            out[i] += out[i - 1]
    return out


def _minimalize(mons: list[Mon]) -> tuple[Mon, ...]:
    mons = sorted(set(mons), key=lambda m: (sum(m), m))
    out: list[Mon] = []
    for m in mons:
        if not any(all(x >= y for x, y in zip(m, g)) for g in out):
            out.append(m)
    return tuple(out)


_kpoly_cache: dict[tuple, ZPoly] = {}


def kpoly(mons: tuple[Mon, ...]) -> ZPoly:
    """Numerator of H_{S/M}(t) over (1-t)^n for the monomial ideal M."""
    mons = _minimalize(list(mons))
    if not mons:
        return (1,)
    if any(sum(m) == 0 for m in mons):
        return ()  # unit ideal
    cached = _kpoly_cache.get(mons)
    if cached is not None:
        return cached
    pairwise_coprime = all(
        all(x == 0 or y == 0 for x, y in zip(mons[i], mons[j]))
        for i in range(len(mons))
        for j in range(i + 1, len(mons))
    )
    if pairwise_coprime:
        out: ZPoly = (1,)
        for m in mons:
            out = zp_mul(out, zp_trim([1] + [0] * (sum(m) - 1) + [-1]))
    else:
        n = len(mons[0])
        counts = [sum(1 for m in mons if m[i] > 0 and sum(m) > m[i]) for i in range(n)]
        piv = max(range(n), key=lambda i: counts[i])
        pm = tuple(1 if i == piv else 0 for i in range(n))
        plus = kpoly(mons + (pm,))
        quot = kpoly(tuple(
            tuple(e - 1 if i == piv and e > 0 else e for i, e in enumerate(m))
            for m in mons
        ))
        out = zp_add(plus, zp_shift(quot, 1))
    _kpoly_cache[mons] = out
    return out


def _min_cover(supports: list[frozenset[int]], memo: dict) -> int:
    """Minimum number of variables meeting every support set."""
    supports = [s for s in supports if s]
    if not supports:
        return 0
    key = frozenset(supports)
    if key in memo:
        return memo[key]
    s0 = min(supports, key=len)
    best = None
    for v in sorted(s0):
        rest = [s for s in supports if v not in s]
        sub = 1 + _min_cover(rest, memo)
        if best is None or sub < best:
            best = sub
    memo[key] = best
    return best


@dataclass
class HilbertData:
    """Hilbert series data of a graded quotient S/I."""

    numerator: ZPoly          # over (1-t)^{dim S}
    dim_ambient: int
    dim: int                  # Krull dimension of S/I
    codim: int                # height of I
    multiplicity: int
    reduced_numerator: ZPoly  # over (1-t)^{dim}

    def series(self, bound: int) -> list[int]:
        return zp_series(self.numerator, self.dim_ambient, bound)

    def to_json(self) -> dict:
        return {
            "numerator": list(self.numerator),
            "reduced_numerator": list(self.reduced_numerator),
            "dim_ambient": self.dim_ambient,
            "dim": self.dim,
            "codim": self.codim,
            "multiplicity": self.multiplicity,
        }


def hilbert_from_monomials(ring: RingContext, mons) -> HilbertData:
    """Exact Hilbert data of S/M for a monomial ideal M."""
    mons = _minimalize([tuple(m) for m in mons])
    num = kpoly(mons)
    if not num:
        raise GroebnerError("unit ideal has no Hilbert data")
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in mons]
    codim = _min_cover(supports, {})
    dim = ring.n - codim
    reduced = num
    for _ in range(codim):
        nxt = zp_div_1mt(reduced)
        if nxt is None:
            raise AssertionError("numerator not divisible by (1-t)^codim")
        reduced = nxt
    if zp_div_1mt(reduced) is not None and dim == 0 and zp_eval1(reduced) == 0:
        raise AssertionError("inconsistent codimension data")
    e = zp_eval1(reduced)
    if e < 1:
        raise GroebnerError("multiplicity must be positive")
    return HilbertData(num, ring.n, dim, codim, e, reduced)


def hilbert_of_quotient(I: Ideal, order: MonomialOrder = DEGREVLEX) -> HilbertData:
    """Hilbert data of S/I via the initial ideal of a Groebner basis."""
    if I.is_zero():
        return HilbertData((1,), I.ring.n, I.ring.n, 0, 1, (1,))
    gb = I.gb(order)
    return hilbert_from_monomials(I.ring, gb.initial_monomials())


def height(I: Ideal) -> int:
    return hilbert_of_quotient(I).codim


def multiplicity(I: Ideal) -> int:
    return hilbert_of_quotient(I).multiplicity


def is_regular_sequence_mod(I: Ideal, L: list[Polynomial]) -> bool:
    """True iff H_{S/(I,L)}(t) = (1-t)^{|L|} H_{S/I}(t) exactly.

    Equality holds precisely when L is a regular sequence mod I; I may be
    zero (then the test is plain regularity of L in S).
    """
    if not L:
        return True
    ring = I.ring
    for f in L:
        if not f.ring.same(ring):
            raise GroebnerError("regular-sequence test in mixed rings")
    big = Ideal(list(I.gens) + list(L), ring)
    lhs = hilbert_of_quotient(big).numerator
    rhs = hilbert_of_quotient(I).numerator
    for _ in range(len(L)):
        rhs = zp_mul(rhs, ONE_MINUS_T)
    return lhs == rhs


def regularity(table) -> int:
    """Max row index j-i over nonzero graded Betti numbers beta_{i,j}."""
    entries = table.entries if hasattr(table, "entries") else table
    if not entries:
        raise GroebnerError("regularity of an empty Betti table")
    return max(j - i for (i, j), v in entries.items() if v)
