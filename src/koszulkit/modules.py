"""Graded free modules, polynomial matrices, and module Groebner machinery.

Module elements are dicts {(component, monomial): coefficient}.  Syzygies and
membership-with-representation both go through one augmented construction:
generators g_i of a submodule of F are tagged as (g_i, e_i) in F (+) S^s with
a block order in which F dominates, so Groebner elements with vanishing
F-part carry syzygies in their tags, and normal forms of (v, 0) carry
representations.  Syzygy runs process every S-pair (no pair criteria), which
keeps the generated syzygy module complete.  Inside the engine elements are
packed dicts {int: coefficient} (see ModuleOrder), reduced by the loop that
groebner.py shares with Buchberger's algorithm; elements are packed and
unpacked only at this module's functions.
"""

from __future__ import annotations

from itertools import groupby
from operator import add

from .groebner import lead_term, reduce_terms, s_element, scaled
from .linalg import complement_indices
from .ring import (
    DEGREVLEX,
    FIELD_MASK,
    LIMIT,
    Deg,
    Mon,
    MonomialOrder,
    MonomialOverflow,
    Polynomial,
    RingContext,
    RingError,
    add_deg,
    sub_deg,
)


class FreeModule:
    """Graded free module given by its generator twists (degree tuples)."""

    def __init__(self, ring: RingContext, twists):
        self.ring = ring
        self.twists = tuple(tuple(t) for t in twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def dual(self) -> "FreeModule":
        return FreeModule(self.ring, [tuple(-x for x in t) for t in self.twists])

    def shifted(self, d: Deg) -> "FreeModule":
        return FreeModule(self.ring, [add_deg(t, d) for t in self.twists])

    def concat(self, other: "FreeModule") -> "FreeModule":
        return FreeModule(self.ring, self.twists + other.twists)

    def __eq__(self, other):
        return isinstance(other, FreeModule) and self.ring.same(other.ring) and self.twists == other.twists

    def __repr__(self):
        return f"Free{list(self.twists)}"


class PolyMatrix:
    """Matrix of polynomials between free modules; entry (r, c) is zero or
    homogeneous of degree source.twists[c] - target.twists[r]."""

    def __init__(self, target: FreeModule, source: FreeModule, entries, check: bool = True):
        self.ring = target.ring
        self.target = target
        self.source = source
        self.entries = [list(row) for row in entries]
        if len(self.entries) != target.rank or any(len(r) != source.rank for r in self.entries):
            raise RingError("matrix shape does not match its free modules")
        if check:
            self.validate()

    def validate(self):
        for r in range(self.target.rank):
            for c in range(self.source.rank):
                f = self.entries[r][c]
                if f and f.degree() != sub_deg(self.source.twists[c], self.target.twists[r]):
                    raise RingError(
                        f"entry ({r},{c}) has degree {f.degree()}, expected "
                        f"{sub_deg(self.source.twists[c], self.target.twists[r])}"
                    )

    @property
    def nrows(self) -> int:
        return self.target.rank

    @property
    def ncols(self) -> int:
        return self.source.rank

    def entry(self, r: int, c: int) -> Polynomial:
        return self.entries[r][c]

    def column(self, c: int) -> dict:
        out = {}
        for r in range(self.nrows):
            f = self.entries[r][c]
            for m, v in f.terms.items():
                out[(r, m)] = v
        return out

    def columns(self) -> list[dict]:
        return [self.column(c) for c in range(self.ncols)]

    def is_zero(self) -> bool:
        return all(not self.entries[r][c] for r in range(self.nrows) for c in range(self.ncols))

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """self composed after other: self * other.

        Entries are packed once.  Each output entry sums its products in one
        dict, unreduced (raw values of both fields are Python numbers), and
        is reduced once; only the terms that survive are unpacked."""
        if other.target != self.source:
            if other.target.twists != self.source.twists:
                raise RingError("composition with mismatched modules")
        ring = self.ring
        K = ring.field
        lay = DEGREVLEX.for_ring(ring).layout
        A = [[lay.pack_terms(f.terms) for f in row] for row in self.entries]
        B = [[lay.pack_terms(f.terms) for f in row] for row in other.entries]
        prod = []
        for a_row in A:
            row = []
            for c in range(other.ncols):
                acc: dict = {}
                get = acc.get
                for a, b_row in zip(a_row, B):
                    b = b_row[c]
                    if a and b:
                        for P, x in a.items():
                            for Q, y in b.items():
                                acc[P + Q] = get(P + Q, 0) + x * y
                terms = {}
                for P, v in acc.items():
                    v = K.coerce(v)
                    if not K.is_zero(v):
                        terms[lay.unpack(P)] = v
                row.append(Polynomial(ring, terms))
            prod.append(row)
        return PolyMatrix(self.target, other.source, prod, check=False)

    def transpose(self) -> "PolyMatrix":
        ent = [[self.entries[r][c] for r in range(self.nrows)] for c in range(self.ncols)]
        return PolyMatrix(self.source.dual(), self.target.dual(), ent)

    @staticmethod
    def from_columns(target: FreeModule, cols: list[dict], col_degrees: list[Deg]) -> "PolyMatrix":
        ring = target.ring
        entries = [[ring.zero() for _ in cols] for _ in range(target.rank)]
        for c, col in enumerate(cols):
            per_row: dict[int, dict] = {}
            for (r, m), v in col.items():
                per_row.setdefault(r, {})[m] = v
            for r, terms in per_row.items():
                entries[r][c] = Polynomial(ring, terms)
        return PolyMatrix(target, FreeModule(ring, col_degrees), entries)

    @staticmethod
    def zero(target: FreeModule, source: FreeModule) -> "PolyMatrix":
        z = target.ring.zero()
        return PolyMatrix(target, source, [[z] * source.rank for _ in range(target.rank)], check=False)

    @staticmethod
    def identity(module: FreeModule) -> "PolyMatrix":
        one, zero = module.ring.one(), module.ring.zero()
        ent = [[one if i == j else zero for j in range(module.rank)] for i in range(module.rank)]
        return PolyMatrix(module, module, ent, check=False)

    def __repr__(self):
        rows = ["[" + ", ".join(str(self.entries[r][c]) for c in range(self.ncols)) + "]" for r in range(self.nrows)]
        return "PolyMatrix(\n  " + "\n  ".join(rows) + "\n)"


# ---------------------------------------------------------------------------
# module elements and orders


def mel_degree(ring: RingContext, twists, el: dict) -> Deg | None:
    """Common degree of a homogeneous module element, None if mixed."""
    deg = None
    for (c, m), _ in el.items():
        d = add_deg(twists[c], ring.mon_degree(m))
        if deg is None:
            deg = d
        elif deg != d:
            return None
    return deg


class ModuleOrder:
    """Order on F (+) tag block, and the packing of its terms.

    Terms pack into the base order's layout: a free term (c, m) as
    m + c + flag, a tag term (c, m) as m*lead + c, where lead is the lead
    monomial of the c-th tagged generator.  The layout's key then orders
    free terms above tag terms, then by the base key of m (of m*lead for
    tags: the Schreyer key induced from the tagged generators), then by
    decreasing component.
    """

    def __init__(self, base: MonomialOrder, n_free: int, tag_leads: list[Mon] | None = None):
        self.base = base
        self.lay = base.layout
        self.n_free = n_free
        self.packed_leads = [self.lay.pack(m) for m in tag_leads or []]
        if n_free + len(self.packed_leads) >= LIMIT:
            raise MonomialOverflow("too many module components for the packed component field")

    def pack(self, cm) -> int:
        c, m = cm
        if c < self.n_free:
            return self.lay.pack(m) + c + self.lay.flag
        return self.lay.check(self.lay.pack(m) + self.packed_leads[c - self.n_free]) + c

    def unpack(self, P: int):
        c = P & FIELD_MASK
        if P & self.lay.flag:
            return c, self.lay.unpack(P)
        return c, self.lay.unpack(P - self.packed_leads[c - self.n_free])

    def pack_element(self, el: dict) -> dict:
        pack = self.pack
        return {pack(cm): v for cm, v in el.items()}


class ModuleGB:
    """Incremental Groebner basis of the free-block part of a module, with
    tag parts carried along.

    Elements are packed dicts (see ModuleOrder); basis entries are reducers
    (lead, lc, element), and self.reducers[c] lists the ones with lead in
    free component c, in basis order.  S-pairs are only formed inside the
    free block: pairs of pure-tag elements would compute syzygies among
    syzygies, which no caller needs.  The strict chain criterion is always
    safe; the coprime criterion applies only when the free block has one
    component (the ideal case), where the dropped pair's syzygy is the
    directly injected Koszul tag element.
    """

    def __init__(self, order: ModuleOrder, K):
        self.order = order
        self.lay = order.lay
        self.K = K
        self.n_free = order.n_free
        self.use_coprime = order.n_free == 1
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
        new_pairs = []
        for i in same:
            if self.use_coprime and lay.degree(lcms[i]) == lay.degree(self.basis[i][0]) + lay.degree(lead):
                tau = self._koszul_tag(i, k)
                if tau:
                    self._insert(tau)
                continue
            new_pairs.append(i)
        # strict mutual-divisibility pruning among the new pairs
        for i in new_pairs:
            l = lcms[i]
            if any(lcms[j] != l and lay.divides(lcms[j], l) for j in new_pairs if j != i):
                continue
            self.pairs.add((i, k))
            self._pair_lcm[(i, k)] = l
            self._pair_key[(i, k)] = (lay.degree(l), lay.key(l))

    def add(self, el: dict) -> bool:
        """Reduce and, if nonzero, insert a {(component, monomial): c} dict;
        returns True when inserted."""
        return self.add_packed(self.order.pack_element(el))

    def add_packed(self, el: dict) -> bool:
        if not el:
            return False
        rem = reduce_terms(el, self.reducers, self.lay, self.K)
        if not rem:
            return False
        self._add_reduced(rem)
        return True

    def complete(self):
        basis, lay, K = self.basis, self.lay, self.K
        while self.pairs:
            p = min(self.pairs, key=self._pair_key.__getitem__)
            self.pairs.discard(p)
            i, j = p
            lcm = self._pair_lcm[p] + (basis[i][0] & lay.frame)
            rem = reduce_terms(s_element(basis[i], basis[j], lcm, K), self.reducers, lay, K)
            if rem:
                self._add_reduced(rem)


# ---------------------------------------------------------------------------
# the augmented (tagged) construction


class TaggedModule:
    """Generators g_1..g_s of a submodule of F, tagged in F (+) S^s."""

    def __init__(self, F: FreeModule, gens: list[dict], order: MonomialOrder = DEGREVLEX):
        self.F = F
        self.ring = F.ring
        self.K = F.ring.field
        self.gens = gens
        self.n_free = F.rank
        base = order.for_ring(F.ring)
        lay = base.layout
        plain = ModuleOrder(base, F.rank)  # packs free terms, as every order of F does
        self._packed = []
        tag_leads = []
        for g in gens:
            if g and mel_degree(self.ring, F.twists, g) is None:
                raise RingError("inhomogeneous module generator")
            el = plain.pack_element(g)
            self._packed.append(el)
            tag_leads.append(lay.unpack(lead_term(el, lay)) if el else (0,) * F.ring.n)
        self.order = ModuleOrder(base, F.rank, tag_leads)
        self._gb: ModuleGB | None = None

    def gb(self) -> ModuleGB:
        """The completed Groebner basis of the augmented generators (g_i, e_i)."""
        if self._gb is None:
            gb = ModuleGB(self.order, self.K)
            one, unit = self.K.one(), (0,) * self.ring.n
            for i, el in enumerate(self._packed):
                gb.add_packed({**el, self.order.pack((self.n_free + i, unit)): one})
            gb.complete()
            self._gb = gb
        return self._gb

    def _split(self, el: dict) -> tuple[dict, dict]:
        free, tag = {}, {}
        unpack, flag = self.order.unpack, self.order.lay.flag
        for P, v in el.items():
            c, m = unpack(P)
            if P & flag:
                free[(c, m)] = v
            else:
                tag[(c - self.n_free, m)] = v
        return free, tag

    def syzygies(self) -> list[dict]:
        """Generators of the syzygy module of the g_i, as elements of S^s."""
        flag = self.order.lay.flag
        # an element whose lead is a tag term has no free part
        return [self._split(el)[1] for lead, _, el in self.gb().basis if not lead & flag]

    def reduce(self, v: dict) -> tuple[dict, list[Polynomial]]:
        """(normal form of v, representation): v = nf + sum(rep_i * g_i)."""
        gb = self.gb()
        rem = reduce_terms(self.order.pack_element(v), gb.reducers, gb.lay, self.K)
        free, tag = self._split(rem)
        per: dict[int, dict] = {}
        for (c, m), val in tag.items():
            per.setdefault(c, {})[m] = self.K.neg(val)
        rep = [Polynomial(self.ring, per.get(i, {})) for i in range(len(self.gens))]
        return free, rep

    def contains(self, v: dict) -> bool:
        free, _ = self.reduce(v)
        return not free


def minimal_module_generators(F: FreeModule, cols: list[dict]) -> list[int]:
    """Indices of a minimal generating subset of the graded submodule of F
    spanned by the homogeneous elements cols.

    The nonzero columns are scanned by increasing total degree, then degree,
    then sorted terms, and a column is kept unless the columns kept before it
    generate it.  By graded Nakayama a column of degree d is generated
    exactly when its coefficient vector lies in the k-span of the products
    m*h, where h runs over the kept columns and m over the monomials of
    degree d - deg(h), m = 1 included.  So each degree takes one
    linalg.complement_indices call: the products of the kept columns of
    lower degree span, and the columns of degree d are the candidates in
    scan order, of which the greedy complement is kept.
    """
    ring = F.ring
    K = ring.field
    degs = []
    for c in cols:
        d = mel_degree(ring, F.twists, c)
        if d is None and c:
            raise RingError("inhomogeneous module generator")
        degs.append(d)
    idx = sorted(
        (i for i in range(len(cols)) if cols[i]),
        key=lambda i: (sum(degs[i]), degs[i], sorted(cols[i].keys())),
    )
    kept: list[int] = []
    for d, group in groupby(idx, key=degs.__getitem__):
        group = list(group)
        # each vector as (coordinate, value) pairs; coordinates number the
        # terms (component, monomial) in order of first appearance
        index: dict = {}
        sparse = []
        for h in kept:
            terms = cols[h].items()
            for m in ring.monomials(sub_deg(d, degs[h])):
                sparse.append([
                    (index.setdefault((r, tuple(map(add, m, hm))), len(index)), v)
                    for (r, hm), v in terms
                ])
        n_products = len(sparse)
        for i in group:
            sparse.append([(index.setdefault(key, len(index)), v) for key, v in cols[i].items()])
        zero = K.zero()
        rows = []
        for pairs in sparse:
            row = [zero] * len(index)
            for j, v in pairs:
                row[j] = v
            rows.append(row)
        chosen = complement_indices(K, rows[:n_products], rows[n_products:])
        kept.extend(group[j] for j in chosen)
    return kept


def syzygy_matrix(
    M: PolyMatrix, order: MonomialOrder = DEGREVLEX, *, minimalize: bool = True
) -> PolyMatrix:
    """Matrix whose columns generate ker(M); target module is M.source.

    By default the columns are a minimal generating set of the kernel, so
    iterating syzygy_matrix yields minimal resolutions directly.
    """
    tm = TaggedModule(M.target, M.columns(), order)
    syz = tm.syzygies()
    ring = M.ring
    if minimalize and syz:
        kept = minimal_module_generators(M.source, syz)
        syz = [syz[i] for i in kept]
    degs = []
    for s in syz:
        d = mel_degree(ring, M.source.twists, s)
        if d is None:
            raise RingError("inhomogeneous syzygy from a homogeneous matrix")
        degs.append(d)
    # deterministic column order: by degree, then by printed form
    packed = sorted(zip(syz, degs), key=lambda p: (sum(p[1]), p[1], sorted(p[0].keys())))
    cols = [p[0] for p in packed]
    degs = [p[1] for p in packed]
    return PolyMatrix.from_columns(M.source, cols, degs)
