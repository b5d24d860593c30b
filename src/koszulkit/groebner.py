"""Buchberger's algorithm, normal forms, and the ideal-arithmetic layer.

The reduction engine works on packed term dicts (see ring.PackedLayout) and
is shared with the module engine in modules.py: reduce_terms and s_element
are its one reduction loop and one S-element builder, and a polynomial is
the one-component, tagless case of a module element.  Pair management uses
the normal selection strategy (smallest lcm degree first) with the product
and chain criteria.
"""

from __future__ import annotations

import heapq
import random

from . import linalg
from .ring import (
    DEGREVLEX,
    FIELD_MASK,
    LinearChange,
    Mon,
    MonomialOrder,
    PackedLayout,
    Polynomial,
    RingContext,
    RingError,
    elimination_order,
    primitive_scale,
)


class GroebnerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the engine: elements are dicts {packed term: coefficient}, and a reducer is
# a triple (packed lead, lead coefficient, element).  Every stored term has
# its fields below 2^15, so the product of a stored term and a quotient
# never carries out of a field; a term that reaches a guard bit is caught
# when it is popped or returned.


def reduce_terms(terms: dict, reducers: list, lay: PackedLayout, K) -> dict:
    """Normal form of the free part of a packed element.

    reducers[c] lists the reducers with lead in free component c, in basis
    order; the first whose lead divides a term reduces it.  Terms are
    processed largest-first through a lazy-deletion heap; newly created
    terms are always smaller than the one being reduced.  Free coefficients
    are summed unreduced (raw values of both fields are Python numbers) and
    reduced when their term is popped.  Tag terms (flag clear) sort below
    every free term, so once one is popped the rest of the element is tag
    terms, which are returned untouched: they only carry representation
    bookkeeping and never need reducing.  They are kept reduced, and leave
    when they cancel, so the tag block keeps the order in which its terms
    arose.
    """
    work = dict(terms)
    rem: dict = {}
    neg, guard, divmask, flag = lay.neg, lay.guard, lay.divmask, lay.flag
    heap = [(((P & neg) << 1) - P, P) for P in work]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    is_zero, coerce, sub, mul = K.is_zero, K.coerce, K.sub, K.mul
    zero, one = K.zero(), K.one()
    while heap:
        P = heappop(heap)[1]
        c = work.pop(P, None)
        if c is None:
            continue
        c = coerce(c)
        if is_zero(c):
            continue
        if P & guard:
            lay.check(P)
        if P < flag:
            rem[P] = c
            rem.update(work)
            for T in work:
                lay.check(T)
            break
        for lead, lc, g in reducers[P & FIELD_MASK]:
            q = P - lead
            if q & divmask:
                continue
            f = c if lc == one else K.div(c, lc)  # module reducers are monic
            for T, tc in g.items():
                mm = q + T
                if mm == P:
                    continue  # cancels against the popped lead
                old = work.get(mm)
                if mm >= flag:
                    if old is None:
                        heappush(heap, (((mm & neg) << 1) - mm, mm))
                        work[mm] = -f * tc
                    else:
                        work[mm] = old - f * tc
                    continue
                s = sub(old if old is not None else zero, mul(f, tc))
                if is_zero(s):
                    work.pop(mm, None)
                else:
                    if old is None:
                        heappush(heap, (((mm & neg) << 1) - mm, mm))
                    work[mm] = s
            break
        else:
            rem[P] = c
    return rem


def s_element(a: tuple, b: tuple, lcm: int, K) -> dict:
    """S-element of two reducers whose leads divide the packed term lcm."""
    (la, lca, ta), (lb, lcb, tb) = a, b
    qa, qb = lcm - la, lcm - lb
    one = K.one()  # module reducers are monic: no inversion, no scaling
    ta = ta if lca == one else scaled(ta, K.inv(lca), K)
    tb = tb if lcb == one else scaled(tb, K.inv(lcb), K)
    out = {qa + T: c for T, c in ta.items()}
    for T, c in tb.items():
        mm = qb + T
        s = K.sub(out.get(mm, K.zero()), c)
        if K.is_zero(s):
            out.pop(mm, None)
        else:
            out[mm] = s
    return out


def lead_term(el: dict, lay: PackedLayout) -> int:
    return max(el, key=lay.key)


def scaled(el: dict, factor, K) -> dict:
    """el times a nonzero constant (el itself when the factor is one)."""
    if factor == K.one():
        return el
    return {P: K.mul(c, factor) for P, c in el.items()}


class GroebnerBasis:
    """A reduced Groebner basis together with its monomial order."""

    def __init__(self, ring: RingContext, order: MonomialOrder, elements: list[Polynomial]):
        self.ring = ring
        self.order = order
        self.elements = elements
        self.lead_mons = [g.lm(order) for g in elements]
        self.is_reduced = True
        self._packed = None

    def reducers(self) -> list[tuple]:
        """The elements packed as reducers, made on the first normal form."""
        if self._packed is None:
            lay = self.order.for_ring(self.ring).layout
            self._packed = [
                (lay.pack(m) + lay.flag, g.terms[m], lay.pack_terms(g.terms, lay.flag))
                for g, m in zip(self.elements, self.lead_mons)
            ]
        return self._packed

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def initial_monomials(self) -> list[Mon]:
        return list(self.lead_mons)

    def __repr__(self):
        return f"GroebnerBasis({self.order}, {self.elements})"


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    if not f.ring.same(gb.ring):
        raise RingError("normal form in the wrong ring")
    lay = gb.order.for_ring(gb.ring).layout
    rem = reduce_terms(lay.pack_terms(f.terms, lay.flag), [gb.reducers()], lay, f.ring.field)
    return Polynomial(f.ring, lay.unpack_terms(rem))


def buchberger(gens: list[Polynomial], order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    gens = [g for g in gens if g]
    if not gens:
        raise GroebnerError("Groebner basis of the zero ideal")
    ring = gens[0].ring
    order = order.for_ring(ring)
    lay = order.layout
    K = ring.field
    flag = lay.flag

    basis: list[tuple] = []  # reducers (lead, lc, terms), all in component 0
    pairs: set[tuple[int, int]] = set()
    pair_lcm: dict[tuple[int, int], int] = {}  # monomial lcm of the leads
    pair_key: dict[tuple[int, int], tuple] = {}

    def add_element(h: dict):
        lead = lead_term(h, lay)
        h = scaled(h, primitive_scale(K, h.values(), h[lead]), K)
        k = len(basis)
        mono = lead - flag
        lcms = [lay.lcm(basis[i][0], lead) for i in range(k)]
        # chain criterion on existing pairs
        drop = set()
        for (i, j) in pairs:
            l = pair_lcm[(i, j)]
            if lay.divides(mono, l) and lcms[i] != l and lcms[j] != l:
                drop.add((i, j))
        pairs.difference_update(drop)
        # new pairs, pruned among themselves
        cand = {}
        for i in range(k):
            cand.setdefault(lcms[i], []).append(i)
        kept = []
        for l in cand:
            if any(l2 != l and lay.divides(l2, l) for l2 in cand):
                continue
            kept.append(cand[l][0])
        # product criterion: no pair for coprime leads
        new = [i for i in kept if lay.degree(lcms[i]) != lay.degree(basis[i][0]) + lay.degree(lead)]
        for i in new:
            l = lcms[i]
            pairs.add((i, k))
            pair_lcm[(i, k)] = l
            pair_key[(i, k)] = (lay.degree(l), lay.key(l))
        basis.append((lead, h[lead], h))

    reducers = [basis]  # indexed by component: one
    packed = [lay.pack_terms(g.terms, flag) for g in gens]
    for g in sorted(packed, key=lambda el: lay.key(lead_term(el, lay))):
        rem = reduce_terms(g, reducers, lay, K)
        if rem:
            add_element(rem)

    while pairs:
        p = min(pairs, key=pair_key.__getitem__)
        pairs.discard(p)
        i, j = p
        s = s_element(basis[i], basis[j], pair_lcm[p] + flag, K)
        rem = reduce_terms(s, reducers, lay, K)
        if rem:
            add_element(rem)

    return _reduce_final(ring, order, basis)


def _reduce_final(ring, order, basis: list[tuple]) -> GroebnerBasis:
    """Minimalize leads, tail-reduce, normalize to the canonical reduced basis."""
    K = ring.field
    lay = order.layout
    items = sorted(basis, key=lambda r: lay.key(r[0]))
    kept: list[tuple] = []
    for r in items:
        if any(lay.divides(k[0], r[0]) for k in kept):
            continue
        kept.append(r)
    final = []
    for idx, r in enumerate(kept):
        rem = reduce_terms(r[2], [kept[:idx] + kept[idx + 1:]], lay, K)
        if rem:
            lead = lead_term(rem, lay)
            final.append((lay.key(lead), scaled(rem, K.inv(rem[lead]), K)))
    final.sort(key=lambda t: t[0], reverse=True)
    return GroebnerBasis(ring, order, [Polynomial(ring, lay.unpack_terms(el)) for _, el in final])


def verify_basis(gb: GroebnerBasis) -> bool:
    """Buchberger's criterion: every S-pair reduces to zero."""
    K = gb.ring.field
    lay = gb.order.for_ring(gb.ring).layout
    tr = gb.reducers()
    for i in range(len(tr)):
        for j in range(i + 1, len(tr)):
            s = s_element(tr[i], tr[j], lay.lcm(tr[i][0], tr[j][0]) + lay.flag, K)
            if reduce_terms(s, [tr], lay, K):
                return False
    return True


class Ideal:
    """An ideal given by a finite generating set."""

    def __init__(self, gens: list[Polynomial], ring: RingContext | None = None):
        gens = [g for g in gens if g is not None and g]
        if ring is None:
            if not gens:
                raise GroebnerError("zero ideal needs an explicit ring")
            ring = gens[0].ring
        for g in gens:
            if not g.ring.same(ring):
                raise RingError("ideal generators from mixed rings")
        self.ring = ring
        self.gens = gens
        self._gb_cache: dict = {}

    def is_zero(self) -> bool:
        return not self.gens

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.gens)

    def gb(self, order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
        if self.is_zero():
            raise GroebnerError("Groebner basis of the zero ideal")
        key = _gb_key(order)
        if key not in self._gb_cache:
            self._gb_cache[key] = buchberger(self.gens, order)
        return self._gb_cache[key]

    def contains(self, f: Polynomial) -> bool:
        if not f:
            return True
        if self.is_zero():
            return False
        return not normal_form(f, self.gb())

    def __repr__(self):
        return f"Ideal({self.gens})"


def _gb_key(order: MonomialOrder) -> tuple:
    return (order.kind, tuple(order.perm) if order.perm else None, order.front)


def cut_last_variable(I: Ideal, small: RingContext) -> Ideal | None:
    """The image of I under x = 0, x the last variable, as an ideal of
    `small` (the ring of the other variables) that carries its reduced
    degrevlex basis, when x is regular on S/I; None when x is a
    zero-divisor.  I must be homogeneous and nonzero.

    Bayer and Stillman (Invent. Math. 87, 1987, Lemma 2.2): for degrevlex,
    in(I : x) = in(I) : x, so x is regular on S/I exactly when no lead
    monomial of the reduced basis G of I involves it.  Then G and x form a
    Groebner basis of I + (x), since every new S-pair has coprime leads, and
    setting x = 0 in G keeps each lead, each monic coefficient and each tail
    term that no lead divides: it is the reduced basis of the image, in the
    same order, and no Buchberger runs.
    """
    gb = I.gb()
    if any(m[-1] for m in gb.lead_mons):
        return None

    def cut(f: Polynomial) -> Polynomial:
        return Polynomial(small, {m[:-1]: c for m, c in f.terms.items() if not m[-1]})

    J = Ideal([cut(g) for g in I.gens], small)
    J._gb_cache[_gb_key(DEGREVLEX)] = GroebnerBasis(small, DEGREVLEX.for_ring(small), [cut(g) for g in gb])
    return J


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    if I.is_zero() or J.is_zero():
        return I.is_zero() and J.is_zero()
    a = I.gb().elements
    b = J.gb().elements
    return len(a) == len(b) and all(x.terms == y.terms for x, y in zip(a, b))


def is_subideal(I: Ideal, J: Ideal) -> bool:
    """I contained in J."""
    return all(J.contains(g) for g in I.gens)


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises otherwise."""
    if not g:
        raise GroebnerError("division by the zero polynomial")
    if not f:
        return f.ring.zero()
    lay = DEGREVLEX.for_ring(f.ring).layout
    K = f.ring.field
    divisor = lay.pack_terms(g.terms)
    lead = lead_term(divisor, lay)
    lcg = divisor[lead]
    work = lay.pack_terms(f.terms)
    quot: dict = {}
    while work:
        P = lead_term(work, lay)
        c = work.pop(P)
        if not lay.divides(lead, P):
            raise GroebnerError("inexact polynomial division")
        q = P - lead
        coef = K.div(c, lcg)
        quot[q] = coef
        for T, tc in divisor.items():
            mm = q + T
            if mm == P:
                continue
            s = K.sub(work.get(mm, K.zero()), K.mul(coef, tc))
            if K.is_zero(s):
                work.pop(mm, None)
            else:
                work[mm] = s
    return Polynomial(f.ring, lay.unpack_terms(quot))


def _fresh_name(ring: RingContext, stem: str) -> str:
    name = stem
    i = 0
    while name in ring.names:
        name = f"{stem}{i}"
        i += 1
    return name


def _to_extended(ring_ext: RingContext, f: Polynomial) -> Polynomial:
    """f in the ring with one auxiliary variable appended."""
    return Polynomial(ring_ext, {m + (0,): c for m, c in f.terms.items()})


def _from_extended(ring: RingContext, f: Polynomial) -> Polynomial:
    out = {}
    for m, c in f.terms.items():
        if any(m[ring.n:]):
            raise GroebnerError("auxiliary variable left in an eliminated polynomial")
        out[m[: ring.n]] = c
    return Polynomial(ring, out)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via the auxiliary-variable elimination construction."""
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal([], ring)
    t_name = _fresh_name(ring, "t_")
    ext = ring.extend([t_name], [ring.weights[0]]) if ring.bigraded else ring.extend([t_name])
    t = ext.var(ext.n - 1)
    gens = [t * _to_extended(ext, f) for f in I.gens]
    one_minus_t = ext.one() - t
    gens += [one_minus_t * _to_extended(ext, g) for g in J.gens]
    order = elimination_order(ext, [ext.n - 1])
    gb = buchberger(gens, order)
    out = [
        _from_extended(ring, g)
        for g in gb.elements
        if all(m[ext.n - 1] == 0 for m in g.terms)
    ]
    return Ideal(out, ring)


def eliminate(I: Ideal, front_vars) -> Ideal:
    """I cap k[remaining variables], returned inside the same ring context."""
    ring = I.ring
    if I.is_zero():
        return Ideal([], ring)
    idx = {ring.var_index(v) if isinstance(v, str) else v for v in front_vars}
    order = elimination_order(ring, sorted(idx))
    gb = buchberger(I.gens, order)
    out = [g for g in gb.elements if all(all(m[i] == 0 for i in idx) for m in g.terms)]
    return Ideal(out, ring)


def colon_poly(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f) for a single nonzero polynomial f."""
    if not f:
        raise GroebnerError("colon by zero")
    meet = intersect(I, Ideal([f], I.ring))
    return Ideal([exact_div(g, f) for g in meet.gens], I.ring)


def colon(I: Ideal, J: Ideal | Polynomial) -> Ideal:
    """(I : J) = {f : f*J in I}."""
    if isinstance(J, Polynomial):
        return colon_poly(I, J)
    if J.is_zero():
        raise GroebnerError("colon by the zero ideal")
    out = None
    for g in J.gens:
        part = colon_poly(I, g)
        out = part if out is None else intersect(out, part)
    return out


def saturate(I: Ideal, J: Ideal) -> Ideal:
    """Stable limit of I : J^k."""
    if J.is_zero():
        raise GroebnerError("saturation by the zero ideal")
    if any(g.is_constant() and g for g in J.gens):
        return I
    cur = I
    while True:
        nxt = colon(cur, J)
        if ideal_equal(nxt, cur):
            return cur
        cur = nxt


def minimal_quadric_generators(I: Ideal) -> list[Polynomial]:
    """Reduced-echelon basis of the degree-2 piece of an ideal generated by quadrics."""
    ring = I.ring
    for g in I.gens:
        if g.total_degree() != 2 or not g.is_homogeneous():
            raise GroebnerError("expected homogeneous quadric generators")
    mons = sorted({m for g in I.gens for m in g.terms}, key=DEGREVLEX.for_ring(ring).key, reverse=True)
    basis = linalg.row_space_basis(ring.field, ring.coefficients(I.gens, mons))
    return [ring.form(row, mons) for row in basis]


def is_quadratic_gb(gb: GroebnerBasis) -> bool:
    """True iff every basis element is a homogeneous quadric."""
    return all(g.is_homogeneous() and g.total_degree() == 2 for g in gb.elements)


def random_permutation(n: int, rng) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def g_quadratic_search(
    I: Ideal,
    trials: int = 20,
    seed: int = 0,
    perms_per_trial: int = 50,
) -> dict:
    """Search for a linear change of coordinates making the ideal's reduced
    basis quadratic under some catalog order.

    Returns a report dict; `witness` is None when no trial succeeded, which
    is *not* a proof that none exists.
    """
    ring = I.ring
    checked = 0
    for trial in range(trials):
        rng = random.Random(f"gq:{seed}:{trial}")
        change = LinearChange.identity(ring) if trial == 0 else LinearChange.random(ring, rng)
        moved = [change.apply(g) for g in I.gens]
        perms: list[list[int] | None] = [None]
        perms += [random_permutation(ring.n, rng) for _ in range(max(0, perms_per_trial - 1))]
        for perm in perms:
            for kind in ("degrevlex", "deglex"):
                order = MonomialOrder(kind, perm=perm, n=ring.n)
                gb = buchberger(moved, order)
                checked += 1
                if is_quadratic_gb(gb):
                    return {
                        "witness": {
                            "change": change,
                            "order": order,
                            "basis": gb.elements,
                        },
                        "trials_run": trial + 1,
                        "bases_checked": checked,
                        "field": ring.field.name,
                        "conclusive": True,
                    }
    return {
        "witness": None,
        "trials_run": trials,
        "bases_checked": checked,
        "field": ring.field.name,
        "conclusive": False,
        "note": f"no witness found in {trials} trials; absence is not a proof",
    }
