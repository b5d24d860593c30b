"""Buchberger's algorithm, normal forms, and the ideal-arithmetic layer.

The Groebner engine works on packed term dicts (see ring.PackedLayout) and
serves ideals and modules alike: reduce_terms is its one reduction loop,
s_element its one S-element builder and ModuleGB its one S-pair manager,
which applies the criteria of Gebauer and Moeller in their order: the chain
criterion on the pending pairs, then, on the new pairs, equal lcm, strict
lcm divisibility and last the coprime test (with a Koszul tag when the
basis is tagged).  A polynomial is the one-component, tagless case of a
module element, so buchberger is a ModuleGB over one free component
followed by the reduction to the canonical basis (_reduce_final);
modules.py builds its tagged constructions on the same ModuleGB.

Ideal arithmetic on homogeneous ideals runs on them too: intersect reads
I cap J off syzygies, and colon is one module colon (modules.submodule_colon).
"""

from __future__ import annotations

import heapq
import random

from . import linalg
from .ring import (
    DEGREVLEX,
    FIELD_MASK,
    LIMIT,
    LinearChange,
    Mon,
    MonomialOrder,
    MonomialOverflow,
    PackedLayout,
    Polynomial,
    RingContext,
    RingError,
    elimination_order,
    sub_deg,
)


class GroebnerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the engine: elements are dicts {packed term: coefficient}, and a reducer is
# a triple (packed lead, lead coefficient, element).  Every stored term has
# its fields below 2^15, so the product of a stored term and a quotient
# never carries out of a field; a term that reaches a guard bit is caught
# when it is popped or returned.  A stored element (basis entry, reducer,
# result of reduce_terms) is always canonical: coerced, with no zero terms.
# Inside reduce_terms and s_element a coefficient is a raw Python number
# (int or Fraction) summed unreduced and coerced once, by reduce_terms; terms
# are ordered by the int P ^ lay.neg, which sorts like lay.key(P).


def reduce_terms(terms: dict, reducers: list, lay: PackedLayout, K) -> dict:
    """Normal form of the free part of a packed element, canonical.

    terms may hold raw unreduced coefficients and zeros (as s_element gives
    them).  reducers[c] lists the reducers with lead in free component c, in
    basis order; the first whose lead divides a term reduces it.  Free terms
    pass largest-first through a min-heap of the ints P ^ ~neg = ~(P ^ neg),
    each pushed once, since new terms are always smaller than the one being
    reduced; their coefficients are summed unreduced and coerced when
    popped.  Tag terms (flag clear) only carry representation bookkeeping:
    they never enter the heap or get reduced, and their sums stay unreduced
    until the heap is empty, when each is coerced, then dropped if zero or
    guard-checked.  Compare results as dicts: the order of the tag block is
    not part of the contract.
    """
    flag = lay.flag
    work = {P: c for P, c in terms.items() if P >= flag}  # free terms
    tags = {P: c for P, c in terms.items() if P < flag}
    nneg, guard, divmask = ~lay.neg, lay.guard, lay.divmask
    heap = [P ^ nneg for P in work]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    is_zero, coerce, one = K.is_zero, K.coerce, K.one()
    tag, get = tags.get, work.get
    rem: dict = {}
    while heap:
        P = heappop(heap) ^ nneg
        c = coerce(work.pop(P))
        if is_zero(c):
            continue
        if P & guard:
            lay.check(P)
        for lead, lc, g in reducers[P & FIELD_MASK]:
            q = P - lead
            if q & divmask:
                continue
            f = c if lc == one else K.div(c, lc)  # module reducers are monic
            for T, tc in g.items():
                mm = q + T
                old = get(mm)
                if old is not None:
                    work[mm] = old - f * tc
                elif mm < flag:
                    tags[mm] = tag(mm, 0) - f * tc
                elif mm != P:  # P itself cancels against the popped lead
                    heappush(heap, mm ^ nneg)
                    work[mm] = -f * tc
            break
        else:
            rem[P] = c
    for T, v in tags.items():
        v = coerce(v)
        if not is_zero(v):
            if T & guard:
                lay.check(T)
            rem[T] = v
    return rem


def s_element(a: tuple, b: tuple, lcm: int, K) -> dict:
    """S-element of two reducers whose leads divide the packed term lcm,
    with unreduced raw coefficients and the cancelled lcm term kept as a
    zero: input for reduce_terms, which coerces it."""
    (la, lca, ta), (lb, lcb, tb) = a, b
    qa, qb = lcm - la, lcm - lb
    one = K.one()  # module reducers are monic: no inversion, no scaling
    ta = ta if lca == one else scaled(ta, K.inv(lca), K)
    tb = tb if lcb == one else scaled(tb, K.inv(lcb), K)
    out = {qa + T: c for T, c in ta.items()}
    for T, c in tb.items():
        out[qb + T] = out.get(qb + T, 0) - c
    return out


def lead_term(el: dict, lay: PackedLayout) -> int:
    neg = lay.neg
    return max(map(neg.__xor__, el)) ^ neg


def scaled(el: dict, factor, K) -> dict:
    """el times a nonzero constant (el itself when the factor is one)."""
    if factor == K.one():
        return el
    return {P: K.mul(c, factor) for P, c in el.items()}


class ModuleOrder:
    """Order on F (+) tag block, through the packing of its terms.

    Terms pack into the base order's layout: a free term (c, m) as
    m + c + flag, a tag term (c, m) as m*lead + c, where lead is the packed
    lead monomial of the c-th tagged generator.  The layout's key then orders
    free terms above tag terms, then by the base key of m (of m*lead for
    tags: the Schreyer key induced from the tagged generators), then by
    decreasing component.
    """

    def __init__(self, base: MonomialOrder, n_free: int, packed_leads: list[int] = ()):
        self.base = base
        self.lay = base.layout
        self.n_free = n_free
        self.packed_leads = list(packed_leads)
        if n_free + len(self.packed_leads) >= LIMIT:
            raise MonomialOverflow("too many module components for the packed component field")


class ModuleGB:
    """Incremental Groebner basis of the free-block part of a module, with
    tag parts carried along: the package's one S-pair manager, which
    buchberger runs with one free component and no tags.

    Elements are packed dicts (see ModuleOrder); basis entries are monic
    reducers (lead, lc, element), and self.reducers[c] lists the ones with
    lead in free component c, in basis order.  S-pairs are only formed
    within one free component: pairs of pure-tag elements would compute
    syzygies among syzygies, which no caller needs.  complete() takes the
    pair of least lcm degree first (the normal strategy), and pairs are
    pruned by the criteria of Gebauer and Moeller (J. Symbolic Comput. 6,
    1988) as each element is added, in this order:

    - chain: a pending pair whose lcm the new lead divides is dropped,
      unless that lcm is also the lcm of the new lead with one of its two
      elements;
    - equal lcm: the new pairs, coprime ones included, are grouped by lcm
      and only the first pair of each group is kept.  In a tagged basis the
      pairs kept decide which syzygies its zero reductions give, and with
      them which minimal syzygy generators modules.syzygy_matrix picks;
      Betti numbers do not depend on that choice, nor does the witness of
      quotient.first_syzygy_criterion;
    - strict lcm divisibility: a kept pair is dropped when the lcm of
      another group strictly divides its own;
    - coprime, with a Koszul tag: only the pairs still kept are tested.
      When the free block has one component (the ideal case), a pair with
      coprime leads is dropped and its syzygy, the Koszul tag element, is
      inserted instead when the basis has tags.  Testing it last means no
      tag is built for a coprime pair whose syzygy the other pairs already
      generate.

    The syzygy of each dropped pair is a combination of those of the pairs
    kept and the Koszul tags, so by Schreyer's theorem (Eisenbud,
    Commutative Algebra, Thm 15.10) the tag parts of the zero reductions
    still generate the syzygy module.
    """

    def __init__(self, order: ModuleOrder, K, twists=()):
        self.order = order
        self.lay = order.lay
        self.K = K
        self.n_free = order.n_free
        self.shifts = [sum(t) for t in twists] or [0] * order.n_free
        self.use_coprime = order.n_free == 1
        self.tagged = bool(order.packed_leads)
        self.basis: list[tuple] = []
        self.reducers: list[list] = [[] for _ in range(order.n_free)]
        self.pairs: set[tuple[int, int]] = set()
        self._pair_lcm: dict[tuple[int, int], int] = {}  # monomial lcm of the leads
        self._pair_key: dict[tuple[int, int], tuple] = {}

    def _koszul_tag(self, i: int, j: int) -> dict:
        """g_j * w_i - g_i * w_j for single-component free parts: pure tag.

        Only tag terms times free terms are formed; the free-by-free products
        cancel in the Koszul syzygy and are never needed."""
        K, flag = self.K, self.lay.flag
        ei, ej = self.basis[i][2], self.basis[j][2]
        out: dict = {}
        for el, other, sign in ((ei, ej, K.add), (ej, ei, K.sub)):
            free = [(P - flag, c) for P, c in other.items() if P & flag]
            for T, v in el.items():
                if T & flag:
                    continue
                for m, c in free:
                    key = self.lay.check(T + m)
                    s = sign(out.get(key, K.zero()), K.mul(v, c))
                    if K.is_zero(s):
                        out.pop(key, None)
                    else:
                        out[key] = s
        return out

    def _insert(self, el: dict) -> int:
        """Append el, made monic, to the basis; returns its lead."""
        lead = lead_term(el, self.lay)
        el = scaled(el, self.K.inv(el[lead]), self.K)
        self.basis.append((lead, el[lead], el))
        return lead

    def _add_reduced(self, el: dict):
        lay = self.lay
        k = len(self.basis)
        lead = self._insert(el)
        if not lead & lay.flag:
            return
        comp = lead & FIELD_MASK
        self.reducers[comp].append(self.basis[k])
        mono = lead - (lead & lay.frame)
        same = [i for i in range(k) if self.basis[i][0] & lay.frame == lead & lay.frame]
        lcms = {i: lay.lcm(self.basis[i][0], lead) for i in same}
        # strict chain criterion on pending pairs
        drop = set()
        for p in self.pairs:
            i, j = p
            if i not in lcms:
                continue
            l = self._pair_lcm[p]
            if lay.divides(mono, l) and lcms[i] != l and lcms[j] != l:
                drop.add(p)
        self.pairs.difference_update(drop)
        new: dict[int, int] = {}  # keyed by lcm: the first pair with each lcm stays
        for i in same:
            new.setdefault(lcms[i], i)
        for l, i in new.items():
            if any(l2 != l and lay.divides(l2, l) for l2 in new):
                continue
            if self.use_coprime and lay.degree(l) == lay.degree(self.basis[i][0]) + lay.degree(lead):
                tau = self._koszul_tag(i, k) if self.tagged else None
                if tau:
                    self._insert(tau)
                continue
            self.pairs.add((i, k))
            self._pair_lcm[(i, k)] = l
            self._pair_key[(i, k)] = (lay.degree(l), lay.key(l))

    def add(self, el: dict) -> bool:
        """Reduce and, if nonzero, insert a packed element; True when inserted."""
        rem = reduce_terms(el, self.reducers, self.lay, self.K)
        if not rem:
            return False
        self._add_reduced(rem)
        return True

    def complete(self, through: int | None = None):
        """Process the pending pairs, least _pair_key first; with a bound,
        only those of total degree (twist, as given to __init__, plus lcm
        degree) at most through, after which every element of the module of
        degree at most through reduces to zero.  The rest stay pending."""
        basis, lay, K, key = self.basis, self.lay, self.K, self._pair_key.__getitem__
        while self.pairs:
            due = self.pairs if through is None else [
                p for p in self.pairs if self.shifts[basis[p[0]][0] & FIELD_MASK] + key(p)[0] <= through]
            if not due:
                return
            p = min(due, key=key)
            self.pairs.discard(p)
            i, j = p
            lcm = self._pair_lcm[p] + (basis[i][0] & lay.frame)
            rem = reduce_terms(s_element(basis[i], basis[j], lcm, K), self.reducers, lay, K)
            if rem:
                self._add_reduced(rem)


class GroebnerBasis:
    """A reduced Groebner basis together with its monomial order."""

    def __init__(self, ring: RingContext, order: MonomialOrder, elements: list[Polynomial]):
        self.ring = ring
        self.order = order
        self.elements = elements
        self.lead_mons = [g.lm(order) for g in elements]
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
    """Reduced Groebner basis of the ideal generated by `gens`: a ModuleGB
    over one free component, fed in increasing lead order and completed."""
    gens = [g for g in gens if g]
    if not gens:
        raise GroebnerError("Groebner basis of the zero ideal")
    ring = gens[0].ring
    order = order.for_ring(ring)
    lay = order.layout
    gb = ModuleGB(ModuleOrder(order, 1), ring.field)
    for g in sorted((lay.pack_terms(g.terms, lay.flag) for g in gens), key=lambda el: lay.key(lead_term(el, lay))):
        gb.add(g)
    gb.complete()
    return _reduce_final(ring, order, gb.basis)


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
        self._gb: GroebnerBasis | None = None

    def is_zero(self) -> bool:
        return not self.gens

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.gens)

    def gb(self) -> GroebnerBasis:
        """The reduced degrevlex basis, computed once."""
        if self.is_zero():
            raise GroebnerError("Groebner basis of the zero ideal")
        if self._gb is None:
            self._gb = buchberger(self.gens)
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        if not f:
            return True
        if self.is_zero():
            return False
        return not normal_form(f, self.gb())

    def __repr__(self):
        return f"Ideal({self.gens})"


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
    J._gb = GroebnerBasis(small, DEGREVLEX.for_ring(small), [cut(g) for g in gb])
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
    """Quotient f/g when g divides f exactly; raises otherwise.

    f is reduced by the one reducer g, tagged with the term lead - flag + 1
    (its lead monomial in the tag component 1), so each multiple q*g taken
    off leaves -q*lead in the tag part: the tag part of the normal form is
    minus the quotient times the lead, and the free part is the remainder."""
    if not g:
        raise GroebnerError("division by the zero polynomial")
    if not f:
        return f.ring.zero()
    lay = DEGREVLEX.for_ring(f.ring).layout
    K = f.ring.field
    divisor = lay.pack_terms(g.terms, lay.flag)
    lead = lead_term(divisor, lay)
    tag = lead - lay.flag + 1
    reducer = (lead, divisor[lead], {**divisor, tag: K.one()})
    rem = reduce_terms(lay.pack_terms(f.terms, lay.flag), [[reducer]], lay, K)
    if any(P & lay.flag for P in rem):
        raise GroebnerError("inexact polynomial division")
    return Polynomial(f.ring, {lay.unpack(P - tag): K.neg(c) for P, c in rem.items()})


def _need_homogeneous(*ideals: Ideal):
    if not all(I.is_homogeneous() for I in ideals):
        raise GroebnerError("ideal arithmetic needs homogeneous input")


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J: the sums a_1*f_1 + ... + a_s*f_s over the minimal syzygies
    (a, b) of the row [f_1 .. f_s | g_1 .. g_t] of the generators of I and J."""
    from . import modules  # modules imports the engine from this module

    _need_homogeneous(I, J)
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal([], ring)
    gens = I.gens + J.gens
    row = modules.PolyMatrix(
        modules.FreeModule(ring, [ring.zero_deg]), modules.FreeModule(ring, [g.degree() for g in gens]), [gens])
    S = modules.syzygy_matrix(row)
    meet = [sum((a[c] * f for a, f in zip(S.entries, I.gens)), ring.zero()) for c in range(S.ncols)]
    return Ideal(meet, ring)


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


def colon(I: Ideal, J: Ideal | Polynomial) -> Ideal:
    """(I : J) = {a : a*J in I}, one module colon (modules.submodule_colon):
    the a with a*k in the span of the other columns of W = [k | B], where k
    is the column of the generators g_1 .. g_m of J and row r of B holds the
    generators of I in the r-th of m blocks of columns, so that a*g_r lies
    in I for every r."""
    from . import modules  # modules imports the engine from this module

    if isinstance(J, Polynomial):
        if not J:
            raise GroebnerError("colon by zero")
        J = Ideal([J], I.ring)
    if J.is_zero():
        raise GroebnerError("colon by the zero ideal")
    _need_homogeneous(I, J)
    ring, zero = I.ring, I.ring.zero()
    s = len(I.gens)
    rows = [[g] + [zero] * (r * s) + I.gens + [zero] * ((len(J.gens) - r - 1) * s) for r, g in enumerate(J.gens)]
    target = modules.FreeModule(ring, [sub_deg(ring.zero_deg, g.degree()) for g in J.gens])
    source = modules.FreeModule(
        ring, [ring.zero_deg] + [sub_deg(f.degree(), g.degree()) for g in J.gens for f in I.gens])
    return modules.submodule_colon(modules.PolyMatrix(target, source, rows))


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


def g_quadratic_search(I: Ideal, trials: int, seed: int, perms_per_trial: int) -> dict:
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
