"""Monomials, monomial orders, sparse polynomials, and linear changes of coordinates.

Monomials are exponent tuples; inside the Groebner engines they are packed
into ints (PackedLayout).  A Polynomial is an immutable sparse map
monomial -> raw field coefficient inside a fixed RingContext.  Degrees are
tuples throughout (length 1 for the standard grading, length 2 for bigraded
rings) so that graded bookkeeping is uniform; variables always have total
degree one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from . import linalg
from .field import Field, QQ

Mon = tuple  # exponent tuple, one entry per variable
Deg = tuple  # grading-value tuple


class RingError(ValueError):
    pass


def add_deg(a: Deg, b: Deg) -> Deg:
    return tuple(x + y for x, y in zip(a, b))


def sub_deg(a: Deg, b: Deg) -> Deg:
    return tuple(x - y for x, y in zip(a, b))


def total(d: Deg) -> int:
    return sum(d)


class RingContext:
    """A polynomial ring: named variables over a field, standard or bigraded."""

    def __init__(self, field: Field, names: list[str], weights: list[Deg] | None = None):
        if len(set(names)) != len(names):
            raise RingError(f"duplicate variable names in {names}")
        self.field = field
        self.names = list(names)
        self.n = len(names)
        if weights is None:
            weights = [(1,) for _ in names]
        weights = [tuple(w) for w in weights]
        if len(weights) != self.n:
            raise RingError("one weight per variable required")
        self.gdim = len(weights[0]) if weights else 1
        for w in weights:
            if len(w) != self.gdim or any(x < 0 for x in w) or sum(w) != 1:
                raise RingError(f"variable weight {w} must be non-negative with total degree 1")
        self.weights = weights
        self.zero_deg: Deg = (0,) * self.gdim
        self._index = {nm: i for i, nm in enumerate(names)}
        self._one_mon: Mon = (0,) * self.n

    @property
    def bigraded(self) -> bool:
        return self.gdim > 1

    def mon_degree(self, m: Mon) -> Deg:
        if self.gdim == 1:
            return (sum(m),)
        d = [0] * self.gdim
        for e, w in zip(m, self.weights):
            if e:
                for i, wi in enumerate(w):
                    d[i] += e * wi
        return tuple(d)

    def monomials(self, d: Deg) -> tuple[Mon, ...]:
        """All monomials of (multi)degree d."""
        return _monomials_of_degree(tuple(self.weights), tuple(d))

    def var_index(self, name: str) -> int:
        if name not in self._index:
            raise RingError(f"unknown variable {name!r} in ring {self.names}")
        return self._index[name]

    def var(self, i) -> "Polynomial":
        if isinstance(i, str):
            i = self.var_index(i)
        m = [0] * self.n
        m[i] = 1
        return Polynomial(self, {tuple(m): self.field.one()})

    def gens(self) -> list["Polynomial"]:
        return [self.var(i) for i in range(self.n)]

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self._one_mon: self.field.one()})

    def const(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        return Polynomial(self, {self._one_mon: c} if not self.field.is_zero(c) else {})

    # -- the coefficient map between forms and vectors ------------------
    @cached_property
    def linear_monomials(self) -> tuple[Mon, ...]:
        """The variables, in index order."""
        return tuple(tuple(int(i == j) for j in range(self.n)) for i in range(self.n))

    @cached_property
    def quadratic_monomials(self) -> tuple[Mon, ...]:
        """The degree-two monomials x_i*x_j, pairs i <= j in lexicographic order."""
        v = self.linear_monomials
        return tuple(mon_mul(v[i], v[j]) for i in range(self.n) for j in range(i, self.n))

    def coefficients(self, forms, mons) -> list[list]:
        """One row per form: its raw coefficients on the monomials `mons`, in
        that order; a term on any other monomial raises RingError."""
        pos = {m: i for i, m in enumerate(mons)}
        zero = self.field.zero()
        rows = []
        for f in forms:
            row = [zero] * len(mons)
            for m, c in f.terms.items():
                if m not in pos:
                    raise RingError(f"{poly_str(f)} has a term outside the given monomials")
                row[pos[m]] = c
            rows.append(row)
        return rows

    def form(self, row, mons) -> "Polynomial":
        """sum(row[i] * mons[i]), the inverse of coefficients."""
        K = self.field
        terms = {}
        for m, c in zip(mons, row, strict=True):
            c = K.coerce(c)
            if not K.is_zero(c):
                terms[m] = c
        return Polynomial(self, terms)

    def linear_form(self, coeffs) -> "Polynomial":
        """Build sum(c_i * x_i) from a raw coefficient vector."""
        return self.form(coeffs, self.linear_monomials)

    def same(self, other: "RingContext") -> bool:
        return (
            self is other
            or (self.field == other.field and self.names == other.names and self.weights == other.weights)
        )

    def decl(self) -> str:
        if not self.bigraded:
            return f"ring {self.field.name} [{','.join(self.names)}]"
        vs = ",".join(f"{nm}:({','.join(map(str, w))})" for nm, w in zip(self.names, self.weights))
        return f"ring {self.field.name} [{vs}]"

    def __repr__(self):
        return self.decl()


@lru_cache(maxsize=1024)
def _monomials_of_degree(weights: tuple, d: Deg) -> tuple[Mon, ...]:
    """Exponent tuples m with sum(m_i * weights[i]) == d.

    Cached on the weight tuple, which fixes the number of variables, so
    rings with equal gradings share entries and no other ring does.
    """
    n = len(weights)
    out: list[Mon] = []
    exps = [0] * n

    def rec(i: int, remaining: Deg):
        if i == n:
            if all(r == 0 for r in remaining):
                out.append(tuple(exps))
            return
        w = weights[i]
        cap = min((remaining[k] for k in range(len(w)) if w[k]), default=0)
        for e in range(cap + 1):
            exps[i] = e
            rec(i + 1, tuple(r - e * wk for r, wk in zip(remaining, w)))
        exps[i] = 0

    rec(0, d)
    return tuple(out)


def mon_mul(a: Mon, b: Mon) -> Mon:
    return tuple(x + y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# packed monomials

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1  # also the component field of a packed term
LIMIT = 1 << (FIELD_BITS - 1)  # packed values stay below; the top bit of a field is its guard


class MonomialOverflow(RingError):
    """An exponent, degree or component does not fit a packed field."""


class PackedLayout:
    """Encoding of the monomials of one order on n variables as Python ints.

    A packed term is a sum of 16-bit fields; from low to high they hold a
    module component, the exponents in increasing significance for the
    order, the degree (for block orders, each block's exponents followed by
    its degree, back block first), and a flag that the engines set on the
    terms of the free part.  Values stay below 2^15, so the top bit of each
    field is a guard bit that no valid term sets.

    A product of two terms is their sum, since no field carries.  A term b
    divides a term a exactly when (a - b) & divmask == 0: a field of a below
    the one of b borrows and sets a guard bit, a different component or
    flag leaves nonzero bits in those fields; the quotient is a - b.  The
    order key P - 2*(P & neg) negates the component and the reverse-lex
    exponent fields.  It is linear in P, and comparing keys as ints compares
    their fields lexicographically from the top, so it sorts terms by the
    order (free terms above tag terms, then the monomial, then decreasing
    component).  That also holds for fields up to 2^16 - 1, so a term that
    sets a guard bit is still sorted correctly until it is detected.  The
    int P ^ neg, which the engine's inner loops order terms by, is the key
    plus the constant neg (each negated field v becomes 2^16 - 1 - v
    instead of -v), so it sorts like the key.
    """

    def __init__(self, kind: str, perm, front: int, n: int):
        p = list(perm) if perm is not None else list(range(n))
        # fields above the component: an exponent (variable index, negated
        # in the key) or a degree (None, the variables it sums)
        if kind == "degrevlex":
            fields = [(i, True) for i in p] + [(None, p)]
        elif kind == "deglex":
            fields = [(i, False) for i in reversed(p)] + [(None, p)]
        else:
            f, b = p[:front], p[front:]
            fields = [(i, True) for i in b] + [(None, b)] + [(i, True) for i in f] + [(None, f)]
        weights = [0] * n
        shifts = [0] * n
        deg_shifts = []
        neg = FIELD_MASK  # field 0 is the component
        for pos, (var, spec) in enumerate(fields, start=1):
            shift = FIELD_BITS * pos
            if var is None:
                deg_shifts.append(shift)
                for v in spec:
                    weights[v] += 1 << shift
                continue
            weights[var] += 1 << shift
            shifts[var] = shift
            if spec:
                neg |= FIELD_MASK << shift
        top = FIELD_BITS * (len(fields) + 1)
        self.n = n
        self.weights = tuple(weights)
        self.shifts = tuple(shifts)
        self.deg_shifts = tuple(deg_shifts)
        self.key_weights = tuple(w - 2 * (w & neg) for w in weights)
        self.neg = neg
        self.flag = 1 << top
        self.frame = FIELD_MASK | self.flag  # component and flag fields
        self.guard = sum(LIMIT << s for s in range(0, top + 1, FIELD_BITS))
        self.divmask = self.guard | self.frame | (FIELD_MASK << top)

    def pack(self, m: Mon) -> int:
        """The packed monomial m (component 0, flag clear)."""
        if sum(m) >= LIMIT:
            raise MonomialOverflow(f"monomial of degree {sum(m)} does not fit the packed fields")
        return sum(map(mul, m, self.weights))

    def unpack(self, P: int) -> Mon:
        """The exponent tuple of a packed term, ignoring component and flag."""
        return tuple([(P >> s) & FIELD_MASK for s in self.shifts])

    def key(self, P: int) -> int:
        return P - ((P & self.neg) << 1)

    def key_of(self, m: Mon) -> int:
        """key(pack(m)), computed directly from the exponents."""
        if sum(m) >= LIMIT:
            raise MonomialOverflow(f"monomial of degree {sum(m)} does not fit the packed fields")
        return sum(map(mul, m, self.key_weights))

    def degree(self, P: int) -> int:
        """Total degree of a packed term."""
        return sum([(P >> s) & FIELD_MASK for s in self.deg_shifts])

    def divides(self, b: int, a: int) -> bool:
        """b divides a (same component and flag)."""
        return not (a - b) & self.divmask

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of the monomials of two packed terms."""
        return sum(map(mul, map(max, self.unpack(a), self.unpack(b)), self.weights))

    def check(self, P: int) -> int:
        """P itself, or MonomialOverflow when some field reached its guard bit."""
        if P & self.guard:
            raise MonomialOverflow("an exponent, degree or component reached 2^15 in a packed term")
        return P

    def pack_terms(self, terms: dict, frame: int = 0) -> dict:
        """{monomial: c} as {packed monomial + frame: c}, in the same order."""
        pack = self.pack
        return {pack(m) + frame: c for m, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        unpack = self.unpack
        return {unpack(P): c for P, c in terms.items()}


@lru_cache(maxsize=256)
def _layout(kind: str, perm: tuple | None, front: int, n: int) -> PackedLayout:
    return PackedLayout(kind, perm, front, n)


class MonomialOrder:
    """Total degree-compatible monomial order with an optional variable permutation.

    kind 'degrevlex' or 'deglex' compare after permuting exponents so the
    permutation's first variable is largest.  kind 'block' is an elimination
    order: the first `front` permuted variables dominate (degrevlex within
    each block), so it eliminates those variables.  Keys are the ints of the
    order's PackedLayout, so a monomial of degree 2^15 or more raises
    MonomialOverflow; an order made without n finds the layout from the
    length of the monomial.
    """

    def __init__(self, kind: str = "degrevlex", perm: list[int] | None = None, front: int = 0, n: int | None = None):
        if kind not in ("degrevlex", "deglex", "block"):
            raise RingError(f"unknown order kind {kind!r}")
        if kind == "block" and front <= 0:
            raise RingError("block order needs a positive front-block size")
        self.kind = kind
        self.perm = list(perm) if perm is not None else None
        self.front = front
        self.n = n if n is not None else (len(self.perm) if self.perm else None)
        self._perm = tuple(self.perm) if self.perm is not None else None
        self.layout = _layout(kind, self._perm, front, self.n) if self.n is not None else None

    def for_ring(self, ring: RingContext) -> "MonomialOrder":
        if self.perm is not None and len(self.perm) != ring.n:
            raise RingError("order permutation length does not match ring")
        if self.n == ring.n:
            return self
        return _order(self.kind, self._perm, self.front, ring.n)

    def key(self, m: Mon) -> int:
        lay = self.layout or _layout(self.kind, self._perm, self.front, len(m))
        return lay.key_of(m)

    def sorted_desc(self, mons) -> list[Mon]:
        return sorted(mons, key=self.key, reverse=True)

    def spec(self) -> dict:
        return {"kind": self.kind, "perm": self.perm, "front": self.front}

    def __repr__(self):
        s = self.kind
        if self.perm is not None:
            s += f"(perm={self.perm})"
        if self.kind == "block":
            s += f"[front={self.front}]"
        return s


@lru_cache(maxsize=256)
def _order(kind: str, perm: tuple | None, front: int, n: int) -> MonomialOrder:
    return MonomialOrder(kind, None if perm is None else list(perm), front, n)


DEGREVLEX = MonomialOrder("degrevlex")
DEGLEX = MonomialOrder("deglex")


def elimination_order(ring: RingContext, front_vars) -> MonomialOrder:
    """Block order eliminating the given variables (names or indices)."""
    idx = [ring.var_index(v) if isinstance(v, str) else v for v in front_vars]
    rest = [i for i in range(ring.n) if i not in set(idx)]
    return MonomialOrder("block", perm=idx + rest, front=len(idx), n=ring.n)


class Polynomial:
    """Sparse multivariate polynomial with exact coefficients."""

    __slots__ = ("ring", "terms", "_deg")

    def __init__(self, ring: RingContext, terms: dict):
        self.ring = ring
        self.terms = terms
        self._deg = None

    # -- basic queries ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def degree(self) -> Deg | None:
        """Common degree of all terms, or None if inhomogeneous or zero."""
        if self._deg is None:
            if not self.terms:
                return None
            it = iter(self.terms)
            d = self.ring.mon_degree(next(it))
            for m in it:
                if self.ring.mon_degree(m) != d:
                    return None
            self._deg = d
        return self._deg

    def is_homogeneous(self) -> bool:
        return self.is_zero() or self.degree() is not None

    def constant_term(self):
        return self.terms.get(self.ring._one_mon, self.ring.field.zero())

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def lt(self, order: MonomialOrder):
        """(monomial, coefficient) of the leading term under order."""
        if not self.terms:
            raise RingError("leading term of zero")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def lm(self, order: MonomialOrder) -> Mon:
        return max(self.terms, key=order.key)

    def sorted_terms(self, order: MonomialOrder):
        return [(m, self.terms[m]) for m in order.sorted_desc(self.terms)]

    # -- arithmetic ------------------------------------------------------
    def _coerce_other(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.ring.same(other.ring):
                raise RingError("mixed ring contexts")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce_other(other)
        K = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = K.add(out.get(m, K.zero()), c)
            if K.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        K = self.ring.field
        return Polynomial(self.ring, {m: K.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        if not self.ring.same(other.ring):
            raise RingError("mixed ring contexts")
        K = self.ring.field
        out: dict = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = mon_mul(m1, m2)
                s = K.add(out.get(m, K.zero()), K.mul(c1, c2))
                if K.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        K = self.ring.field
        c = K.coerce(c)
        if K.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: K.mul(v, c) for m, v in self.terms.items()})

    def mul_term(self, m: Mon, c) -> "Polynomial":
        K = self.ring.field
        if K.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {mon_mul(m, t): K.mul(v, c) for t, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise RingError("negative power")
        if len(self.terms) > 1 and k * self.total_degree() >= LIMIT:
            # no engine packs such a power, and expanding it may take forever;
            # a power of one term is cheap, and packing it raises
            raise MonomialOverflow(f"a power of degree {k * self.total_degree()} does not fit the packed fields")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring.same(other.ring) and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- normalization ---------------------------------------------------
    def monic(self, order: MonomialOrder) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.lt(order)
        K = self.ring.field
        if c == K.one():
            return self
        return self.scale(K.inv(c))

    def primitive(self, order: MonomialOrder) -> "Polynomial":
        """Content-normalized form: over QQ, integer coefficients with content 1
        and positive leading coefficient; over F_p, monic."""
        if not self.terms:
            return self
        K = self.ring.field
        factor = primitive_scale(K, self.terms.values(), self.lt(order)[1])
        return self if factor == K.one() else self.scale(factor)

    # -- substitution ----------------------------------------------------
    def substitute(self, images: list["Polynomial"]) -> "Polynomial":
        """Replace variable i by images[i] (all in a common ring)."""
        tgt = images[0].ring
        out = tgt.zero()
        for m, c in self.terms.items():
            t = tgt.const(c)
            for i, e in enumerate(m):
                if e:
                    t = t * images[i] ** e
            out = out + t
        return out

    def __repr__(self):
        return poly_str(self)


def primitive_scale(K: Field, coeffs, lc):
    """The constant that makes coefficients primitive: over QQ, integers with
    content 1 and a positive leading coefficient lc; over F_p, lc becomes 1.
    coeffs is iterated twice."""
    if K != QQ:
        return K.inv(lc)
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in coeffs:
        num = gcd(num, c.numerator * den // c.denominator)
    scale = Fraction(den, num)
    return -scale if lc < 0 else scale


def poly_str(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    K = f.ring.field
    parts = []
    for m, c in f.sorted_terms(DEGREVLEX.for_ring(f.ring)):
        factors = [
            f"{f.ring.names[i]}^{e}" if e > 1 else f.ring.names[i]
            for i, e in enumerate(m)
            if e
        ]
        cs = K.fmt(c)
        if factors:
            body = "*".join(factors)
            if cs == "1":
                term = body
            elif cs == "-1":
                term = f"-{body}"
            else:
                term = f"{cs}*{body}"
        else:
            term = cs
        parts.append(term)
    s = parts[0]
    for t in parts[1:]:
        s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return s


class LinearChange:
    """Invertible linear change of coordinates x_i -> sum_j M[i][j] x_j."""

    def __init__(self, ring: RingContext, matrix):
        self.ring = ring
        K = ring.field
        n = ring.n
        self.matrix = [[K.coerce(matrix[i][j]) for j in range(n)] for i in range(n)]
        self._images = None
        if linalg.rank(K, self.matrix) < n:
            raise RingError("singular matrix for a linear change of coordinates")

    def images(self) -> list[Polynomial]:
        if self._images is None:
            self._images = [self.ring.linear_form(row) for row in self.matrix]
        return self._images

    def apply(self, f: Polynomial) -> Polynomial:
        if not f.ring.same(self.ring):
            raise RingError("linear change applied in the wrong ring")
        return f.substitute(self.images())

    def inverse(self) -> "LinearChange":
        """The inverse change: the right half of rref([M | I])."""
        K = self.ring.field
        n = self.ring.n
        aug = [row + [K.one() if i == j else K.zero() for j in range(n)] for i, row in enumerate(self.matrix)]
        reduced, _ = linalg.rref(K, aug)
        return LinearChange(self.ring, [row[n:] for row in reduced])

    @staticmethod
    def identity(ring: RingContext) -> "LinearChange":
        K = ring.field
        return LinearChange(ring, [[K.one() if i == j else K.zero() for j in range(ring.n)] for i in range(ring.n)])

    @staticmethod
    def random(ring: RingContext, rng) -> "LinearChange":
        K = ring.field
        while True:
            m = [[K.random(rng) for _ in range(ring.n)] for _ in range(ring.n)]
            try:
                return LinearChange(ring, m)
            except RingError:
                continue

    def to_lists(self):
        K = self.ring.field
        return [[K.fmt(c) for c in row] for row in self.matrix]
