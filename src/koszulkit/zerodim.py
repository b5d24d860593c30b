"""Root finding for small polynomial systems over the exact fields.

Used by witness extraction: generalized-zero searches and factor-variety
slicing reduce to finding rational points of small systems.  Over F_p roots
always split off when they exist; over QQ only rational roots are found, and
callers must treat an empty answer as 'none over this field'.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .field import Field, PrimeField, QQ
from .groebner import Ideal, eliminate
from .ring import Polynomial, RingContext

# -- univariate helpers (coefficient lists, index = degree) -----------------


def _u_trim(K, a):
    while a and K.is_zero(a[-1]):
        a.pop()
    return a


def _u_mul(K, a, b):
    if not a or not b:
        return []
    out = [K.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not K.is_zero(x):
            for j, y in enumerate(b):
                out[i + j] = K.add(out[i + j], K.mul(x, y))
    return _u_trim(K, out)


def _u_divmod(K, a, b):
    """(quotient, remainder) of a by b."""
    r = list(a)
    q = [K.zero()] * max(len(r) - len(b) + 1, 0)
    db, inv = len(b) - 1, K.inv(b[-1])
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        f = K.mul(r[-1], inv)
        q[dr - db] = f
        for i in range(db + 1):
            r[dr - db + i] = K.sub(r[dr - db + i], K.mul(f, b[i]))
        _u_trim(K, r)
    return _u_trim(K, q), r


def _u_gcd(K, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _u_divmod(K, a, b)[1]
    if a:
        inv = K.inv(a[-1])
        a = [K.mul(x, inv) for x in a]
    return a


def _u_pow_mod(K, base, e, mod):
    result = [K.one()]
    base = _u_divmod(K, base, mod)[1]
    while e:
        if e & 1:
            result = _u_divmod(K, _u_mul(K, result, base), mod)[1]
        base = _u_divmod(K, _u_mul(K, base, base), mod)[1]
        e >>= 1
    return result


def univariate_roots(K: Field, coeffs: list) -> list:
    """All roots in K of sum(coeffs[i] * x^i); multiplicities dropped."""
    a = _u_trim(K, [K.coerce(c) for c in coeffs])
    if not a:
        raise ValueError("root finding on the zero polynomial")
    if len(a) == 1:
        return []
    if isinstance(K, PrimeField):
        return sorted(_roots_prime(K, a))
    if K == QQ:
        return _roots_rational(a)
    raise ValueError(f"no root finder for {K}")


def _u_eval(K, a, x):
    acc = K.zero()
    for c in reversed(a):
        acc = K.add(K.mul(acc, x), c)
    return acc


def _roots_prime(K: PrimeField, f: list) -> list:
    p = K.p
    # keep only the part splitting over F_p: gcd(f, x^p - x)
    xp = _u_pow_mod(K, [0, 1], p, f)
    xp_minus_x = _u_trim(K, [K.sub(x, y) for x, y in zip(xp + [0] * 2, [0, 1] + [0] * len(xp))])
    g = _u_gcd(K, f, xp_minus_x)
    rng = random.Random(0xC0FFEE ^ p)
    out: list[int] = []

    def split(h):
        if len(h) - 1 == 0:
            return
        if len(h) - 1 == 1:
            out.append(K.mul(K.neg(h[0]), K.inv(h[1])))
            return
        if K.is_zero(h[0]):
            out.append(0)
            h = _u_trim(K, h[1:])
            split(h)
            return
        while True:
            c = rng.randrange(p)
            probe = _u_pow_mod(K, [c, 1], (p - 1) // 2, h)
            probe = _u_trim(K, [K.sub(x, y) for x, y in zip(probe + [0] * 2, [1] + [0] * (len(probe) + 1))])
            if not probe:
                continue
            g1 = _u_gcd(K, h, probe)
            if 0 < len(g1) - 1 < len(h) - 1:
                g2 = _u_divmod(K, h, g1)[0]
                split(g1)
                split(g2)
                return

    if len(g) - 1 >= 1:
        split(g)
    return out


def _roots_rational(a: list) -> list:
    den = 1
    for c in a:
        den = den * c.denominator // math.gcd(den, c.denominator)
    zz = [int(c * den) for c in a]
    # 0 is a root exactly when the constant term vanishes; dividing out every
    # power of x leaves the other roots with a nonzero constant term
    out = [Fraction(0)] if zz[0] == 0 else []
    while zz[0] == 0:
        zz = zz[1:]
    if len(zz) == 1:
        return out
    a0, an = abs(zz[0]), abs(zz[-1])
    for p in _bounded_divisors(a0):
        for q in _bounded_divisors(an):
            for s in (1, -1):
                r = Fraction(s * p, q)
                if _u_eval(QQ, [Fraction(c) for c in zz], r) == 0 and r not in out:
                    out.append(r)
    return out


# the rational-root search tries divisors up to this cap only, so it misses
# a root whose numerator or denominator needs a larger one
_DIVISOR_LIMIT = 4000


def _bounded_divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n and d <= _DIVISOR_LIMIT:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(x for x in out if x <= max(n, 1))


# -- small multivariate systems ---------------------------------------------


def solve_system_points(
    gens: list[Polynomial],
    max_points: int = 8,
    _depth: int = 0,
) -> list[tuple]:
    """Some K-rational points of V(gens) in affine space, by elimination and
    back-substitution.  Positive-dimensional loci are sliced with random
    hyperplanes.  Returns [] when no rational point is found."""
    if not gens:
        return []
    ring = gens[0].ring
    K = ring.field
    gens = [g for g in gens if g]
    if not gens:
        # the whole space: return the origin
        return [tuple(K.zero() for _ in range(ring.n))]
    I = Ideal(gens, ring)
    gb = I.gb()
    if any(g.is_constant() for g in gb.elements):
        return []
    if ring.n == 1:
        uni = _to_univariate(gb.elements[0], 0)
        return [(r,) for r in univariate_roots(K, uni)[:max_points]]
    # eliminate all but the last variable
    elim = eliminate(I, list(range(ring.n - 1)))
    last_var_polys = [g for g in elim.gens if g]
    rng = random.Random(f"solve:0:{_depth}")
    if not last_var_polys:
        if _depth > ring.n + 2:
            return []
        # positive-dimensional in the last variable: slice it
        for attempt in range(6):
            c = K.random(rng) if attempt else K.zero()
            pts = _substitute_last_and_solve(I, c, max_points, _depth)
            if pts:
                return pts
        return []
    uni = _to_univariate(last_var_polys[0], ring.n - 1)
    roots = univariate_roots(K, uni)
    out: list[tuple] = []
    for r in roots:
        pts = _substitute_last_and_solve(I, r, max_points - len(out), _depth)
        out.extend(pts)
        if len(out) >= max_points:
            break
    return out


def _to_univariate(g: Polynomial, var: int) -> list:
    """Coefficients of g in increasing powers of the variable; RingError when
    g involves another variable."""
    x = g.ring.linear_monomials[var]
    deg = max((m[var] for m in g.terms), default=0)
    return g.ring.coefficients([g], [tuple(k * e for e in x) for k in range(deg + 1)])[0]


def _substitute_last_and_solve(I: Ideal, value, max_points: int, depth: int) -> list[tuple]:
    ring = I.ring
    K = ring.field
    small = RingContext(K, ring.names[:-1])
    images = [small.var(i) for i in range(small.n)] + [small.const(value)]
    new_gens = [g.substitute(images) for g in I.gens]
    new_gens = [g for g in new_gens if g]
    if not new_gens:
        zero_pt = tuple(K.zero() for _ in range(small.n))
        return [zero_pt + (value,)]
    sub = solve_system_points(new_gens, max_points, depth + 1)
    return [pt + (value,) for pt in sub]
