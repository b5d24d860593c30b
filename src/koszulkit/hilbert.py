"""Hilbert series, Krull dimension, multiplicity, and regular-sequence tests.

The numerator of H_{S/I}(t) over (1-t)^{dim S} is computed from the initial
monomial ideal by pivot recursion.  The codimension is the number of times
1-t divides it exactly, and the multiplicity is the value at t = 1 of what
remains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import GroebnerError, Ideal
from .ring import Mon, Polynomial, RingContext

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


def _one_minus_t_to(d: int) -> ZPoly:
    """1 - t^d."""
    return zp_trim([1] + [0] * (d - 1) + [-1])


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
            out = zp_mul(out, _one_minus_t_to(sum(m)))
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
    # num = (1-t)^codim * h(t) with h(1) = e > 0: codim is the number of
    # exact divisions by 1-t, and h is the reduced numerator
    codim, reduced = 0, num
    while (nxt := zp_div_1mt(reduced)) is not None:
        codim, reduced = codim + 1, nxt
    e = zp_eval1(reduced)
    if e < 1:
        raise GroebnerError("multiplicity must be positive")
    return HilbertData(num, ring.n, ring.n - codim, codim, e, reduced)


def hilbert_of_quotient(I: Ideal) -> HilbertData:
    """Hilbert data of S/I, I homogeneous, via the initial ideal of its degrevlex Groebner basis."""
    if any(len({sum(m) for m in g.terms}) > 1 for g in I.gens):
        raise GroebnerError("Hilbert series need homogeneous input")
    if I.is_zero():
        return HilbertData((1,), I.ring.n, I.ring.n, 0, 1, (1,))
    gb = I.gb()
    return hilbert_from_monomials(I.ring, gb.initial_monomials())


def is_regular_sequence_mod(I: Ideal, L: list[Polynomial]) -> bool:
    """True iff H_{S/(I,L)}(t) = H_{S/I}(t) * prod_f (1 - t^deg f) exactly.

    By Stanley's criterion equality holds precisely when the homogeneous
    forms L, of any positive degrees, are a regular sequence mod I; I may be
    zero (then the test is plain regularity of L in S).
    """
    if not L:
        return True
    ring = I.ring
    rhs = hilbert_of_quotient(I).numerator
    for f in L:
        if not f.ring.same(ring):
            raise GroebnerError("regular-sequence test in mixed rings")
        degs = {sum(m) for m in f.terms}
        if len(degs) != 1 or 0 in degs:
            raise GroebnerError(f"regular-sequence test needs homogeneous forms of positive degree, got {f}")
        rhs = zp_mul(rhs, _one_minus_t_to(degs.pop()))
    big = Ideal(list(I.gens) + list(L), ring)
    return hilbert_of_quotient(big).numerator == rhs


def regularity(table) -> int:
    """Max row index j-i over nonzero graded Betti numbers beta_{i,j}."""
    entries = table.entries if hasattr(table, "entries") else table
    if not entries:
        raise GroebnerError("regularity of an empty Betti table")
    return max(j - i for (i, j), v in entries.items() if v)
