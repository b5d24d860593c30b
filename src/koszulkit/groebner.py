"""Buchberger's algorithm, normal forms, and the ideal-arithmetic layer.

The reduction engine works on raw term dicts for speed.  Pair management
uses the normal selection strategy (smallest lcm degree first) with the
product and chain criteria; criteria can be disabled by callers that need
every S-pair processed (the syzygy machinery does).
"""

from __future__ import annotations

import heapq
import random

from .field import QQ
from .ring import (
    DEGREVLEX,
    LinearChange,
    Mon,
    MonomialOrder,
    Polynomial,
    RingContext,
    RingError,
    elimination_order,
    mon_coprime,
    mon_div,
    mon_divides,
    mon_lcm,
    mon_mul,
)


class GroebnerError(ValueError):
    pass


def _reduce_terms(terms: dict, reducers, order: MonomialOrder, K) -> dict:
    """Full normal form of a term dict against reducers [(lm, lc, terms)].

    Terms are processed largest-first through a lazy-deletion heap; newly
    created terms are always smaller than the one being reduced.
    """
    work = dict(terms)
    rem: dict = {}
    nkey = order.nkey
    heap = [(nkey(m), m) for m in work]
    heapq.heapify(heap)
    zero = K.zero()
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None or K.is_zero(c):
            continue
        for lm, lc, g in reducers:
            q = mon_div(m, lm)
            if q is not None:
                f = K.div(c, lc)
                for tm, tc in g.items():
                    mm = mon_mul(q, tm)
                    if mm == m:
                        continue  # cancels against the popped lead
                    old = work.get(mm)
                    s = K.sub(old if old is not None else zero, K.mul(f, tc))
                    if K.is_zero(s):
                        work.pop(mm, None)
                    else:
                        if old is None:
                            heapq.heappush(heap, (nkey(mm), mm))
                        work[mm] = s
                break
        else:
            rem[m] = c
    return rem


def _spoly_terms(fi, fj, order: MonomialOrder, K) -> dict:
    """S-polynomial of two (lm, lc, terms) triples, as a term dict."""
    lmi, lci, ti = fi
    lmj, lcj, tj = fj
    lcm = mon_lcm(lmi, lmj)
    qi, qj = mon_div(lcm, lmi), mon_div(lcm, lmj)
    out: dict = {}
    ci = K.inv(lci)
    for m, c in ti.items():
        out[mon_mul(qi, m)] = K.mul(c, ci)
    cj = K.inv(lcj)
    for m, c in tj.items():
        mm = mon_mul(qj, m)
        s = K.sub(out.get(mm, K.zero()), K.mul(c, cj))
        if K.is_zero(s):
            out.pop(mm, None)
        else:
            out[mm] = s
    return out


class GroebnerBasis:
    """A reduced Groebner basis together with its monomial order."""

    def __init__(self, ring: RingContext, order: MonomialOrder, elements: list[Polynomial]):
        self.ring = ring
        self.order = order
        self.elements = elements
        self.lead_mons = [g.lm(order) for g in elements]
        self._reducers = [(g.lm(order), g.lt(order)[1], g.terms) for g in elements]
        self.is_reduced = True

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
    rem = _reduce_terms(f.terms, gb._reducers, gb.order, f.ring.field)
    return Polynomial(f.ring, rem)


def buchberger(
    gens: list[Polynomial],
    order: MonomialOrder = DEGREVLEX,
    *,
    use_criteria: bool = True,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    gens = [g for g in gens if g]
    if not gens:
        raise GroebnerError("Groebner basis of the zero ideal")
    ring = gens[0].ring
    order = order.for_ring(ring)
    K = ring.field

    basis: list[Polynomial] = []
    triples: list[tuple] = []  # (lm, lc, terms)
    pairs: set[tuple[int, int]] = set()

    def lcm_of(i, j):
        return mon_lcm(triples[i][0], triples[j][0])

    def add_element(h: Polynomial):
        h = h.primitive(order)
        k = len(basis)
        lm_h = h.lm(order)
        if use_criteria:
            # chain criterion on existing pairs
            drop = set()
            for (i, j) in pairs:
                l = lcm_of(i, j)
                if (
                    mon_divides(lm_h, l)
                    and mon_lcm(triples[i][0], lm_h) != l
                    and mon_lcm(triples[j][0], lm_h) != l
                ):
                    drop.add((i, j))
            pairs.difference_update(drop)
            # new pairs, pruned among themselves
            cand = {}
            for i in range(k):
                l = mon_lcm(triples[i][0], lm_h)
                cand.setdefault(l, []).append(i)
            kept = []
            lcms = list(cand)
            for l in lcms:
                if any(l2 != l and mon_divides(l2, l) for l2 in lcms):
                    continue
                kept.append(cand[l][0])
            for i in kept:
                if not mon_coprime(triples[i][0], lm_h):
                    pairs.add((i, k))
        else:
            for i in range(k):
                pairs.add((i, k))
        basis.append(h)
        triples.append((lm_h, h.lt(order)[1], h.terms))

    for g in sorted(gens, key=lambda f: order.key(f.lm(order))):
        rem = _reduce_terms(g.terms, triples, order, K)
        if rem:
            add_element(Polynomial(ring, rem))

    while pairs:
        i, j = min(pairs, key=lambda p: (sum(lcm_of(*p)), order.key(lcm_of(*p))))
        pairs.discard((i, j))
        s = _spoly_terms(triples[i], triples[j], order, K)
        rem = _reduce_terms(s, triples, order, K)
        if rem:
            add_element(Polynomial(ring, rem))

    return _reduce_final(ring, order, basis)


def _reduce_final(ring, order, basis: list[Polynomial]) -> GroebnerBasis:
    """Minimalize leads, tail-reduce, normalize to the canonical reduced basis."""
    K = ring.field
    items = sorted(basis, key=lambda g: order.key(g.lm(order)))
    kept: list[Polynomial] = []
    kept_lms: list[Mon] = []
    for g in items:
        lm = g.lm(order)
        if any(mon_divides(l, lm) for l in kept_lms):
            continue
        kept.append(g)
        kept_lms.append(lm)
    final = []
    for idx, g in enumerate(kept):
        others = [
            (kept_lms[i], kept[i].lt(order)[1], kept[i].terms)
            for i in range(len(kept))
            if i != idx
        ]
        rem = _reduce_terms(g.terms, others, order, K)
        if rem:
            final.append(Polynomial(ring, rem).monic(order))
    final.sort(key=lambda g: order.key(g.lm(order)), reverse=True)
    return GroebnerBasis(ring, order, final)


def verify_basis(gb: GroebnerBasis) -> bool:
    """Buchberger's criterion: every S-pair reduces to zero."""
    K = gb.ring.field
    tr = gb._reducers
    for i in range(len(tr)):
        for j in range(i + 1, len(tr)):
            s = _spoly_terms(tr[i], tr[j], gb.order, K)
            if _reduce_terms(s, tr, gb.order, K):
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
        key = (order.kind, tuple(order.perm) if order.perm else None, order.front)
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
    order = DEGREVLEX.for_ring(f.ring)
    K = f.ring.field
    lmg, lcg = g.lt(order)
    work = dict(f.terms)
    quot: dict = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        q = mon_div(m, lmg)
        if q is None:
            raise GroebnerError("inexact polynomial division")
        coef = K.div(c, lcg)
        quot[q] = coef
        for tm, tc in g.terms.items():
            mm = mon_mul(q, tm)
            if mm == m:
                continue
            s = K.sub(work.get(mm, K.zero()), K.mul(coef, tc))
            if K.is_zero(s):
                work.pop(mm, None)
            else:
                work[mm] = s
    return Polynomial(f.ring, quot)


def _fresh_name(ring: RingContext, stem: str) -> str:
    name = stem
    i = 0
    while name in ring.names:
        name = f"{stem}{i}"
        i += 1
    return name


def _to_extended(ring_ext: RingContext, f: Polynomial, extra: int) -> Polynomial:
    return Polynomial(ring_ext, {m + (0,) * extra: c for m, c in f.terms.items()})


def _from_extended(ring: RingContext, f: Polynomial, extra: int) -> Polynomial:
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
    gens = [t * _to_extended(ext, f, 1) for f in I.gens]
    one_minus_t = ext.one() - t
    gens += [one_minus_t * _to_extended(ext, g, 1) for g in J.gens]
    order = elimination_order(ext, [ext.n - 1])
    gb = buchberger(gens, order)
    out = [
        _from_extended(ring, g, 1)
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
    from . import linalg

    ring = I.ring
    K = ring.field
    for g in I.gens:
        if g.degree() != ring.mon_degree(tuple([2] + [0] * (ring.n - 1))):
            if g.total_degree() != 2 or not g.is_homogeneous():
                raise GroebnerError("expected homogeneous quadric generators")
    mons = sorted({m for g in I.gens for m in g.terms}, key=DEGREVLEX.for_ring(ring).key, reverse=True)
    pos = {m: i for i, m in enumerate(mons)}
    rows = []
    for g in I.gens:
        row = [K.zero()] * len(mons)
        for m, c in g.terms.items():
            row[pos[m]] = c
        rows.append(row)
    basis = linalg.row_space_basis(K, rows)
    out = []
    for row in basis:
        terms = {mons[i]: c for i, c in enumerate(row) if not K.is_zero(c)}
        out.append(Polynomial(ring, terms))
    return out


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
                    if not is_quadratic_gb(buchberger(moved, order)):
                        raise GroebnerError("quadratic basis not reproduced by a second Buchberger run")
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
