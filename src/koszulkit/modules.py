"""Graded free modules, polynomial matrices, and module Groebner machinery.

Module elements are dicts {(component, monomial): coefficient}.  Syzygies and
membership-with-representation both go through one augmented construction:
generators g_i of a submodule of F are tagged as (g_i, e_i) in F (+) S^s with
a block order in which F dominates, so Groebner elements with vanishing
F-part carry syzygies in their tags, and normal forms of (v, 0) carry
representations.  Syzygy runs process every S-pair (no pair criteria), which
keeps the generated syzygy module complete.
"""

from __future__ import annotations

import heapq
from itertools import groupby
from operator import add

from .linalg import complement_indices
from .ring import (
    DEGREVLEX,
    Deg,
    Mon,
    MonomialOrder,
    Polynomial,
    RingContext,
    RingError,
    add_deg,
    mon_coprime,
    mon_div,
    mon_lcm,
    mon_mul,
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
        """self composed after other: self * other."""
        if other.target != self.source:
            if other.target.twists != self.source.twists:
                raise RingError("composition with mismatched modules")
        zero = self.ring.zero()
        prod = [
            [
                sum((self.entries[r][k] * other.entries[k][c] for k in range(self.ncols)), zero)
                for c in range(other.ncols)
            ]
            for r in range(self.nrows)
        ]
        return PolyMatrix(self.target, other.source, prod, check=False)

    def transpose(self) -> "PolyMatrix":
        ent = [[self.entries[r][c] for r in range(self.nrows)] for c in range(self.ncols)]
        return PolyMatrix(self.source.dual(), self.target.dual(), ent)

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix(
            self.target,
            self.source,
            [[fn(self.entries[r][c]) for c in range(self.ncols)] for r in range(self.nrows)],
            check=False,
        )

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
    """Order on F (+) tag-block: F components dominate; tags compare by the
    Schreyer key induced from the tagged generators' lead monomials."""

    def __init__(self, base: MonomialOrder, n_free: int, tag_leads: list[Mon] | None = None):
        self.base = base
        self.n_free = n_free
        self.tag_leads = tag_leads or []
        self._cache: dict = {}
        self._ncache: dict = {}

    def key(self, cm):
        k = self._cache.get(cm)
        if k is None:
            c, m = cm
            if c < self.n_free:
                k = (1, self.base.key(m), -c)
            else:
                lead = self.tag_leads[c - self.n_free]
                k = (0, self.base.key(mon_mul(m, lead)), -c)
            self._cache[cm] = k
        return k

    def nkey(self, cm):
        k = self._ncache.get(cm)
        if k is None:
            c, m = cm
            if c < self.n_free:
                k = (-1, self.base.nkey(m), c)
            else:
                lead = self.tag_leads[c - self.n_free]
                k = (0, self.base.nkey(mon_mul(m, lead)), c)
            self._ncache[cm] = k
        return k


def _mel_reduce(work: dict, reducers, order: ModuleOrder, K, *, collect_remainder=True):
    """Module normal form of the free-block part; reducers are (lead_cm, lc, terms).

    Once the leading term falls into the tag block every remaining term does
    too (block order), so the tail is returned untouched: tag parts only carry
    representation bookkeeping and never need reducing.
    """
    work = dict(work)
    rem: dict = {}
    nkey = order.nkey
    n_free = order.n_free
    heap = [(nkey(cm), cm) for cm in work]
    heapq.heapify(heap)
    zero = K.zero()
    while heap:
        _, cm = heapq.heappop(heap)
        c0 = work.pop(cm, None)
        if c0 is None or K.is_zero(c0):
            continue
        if cm[0] >= n_free:
            # block order: everything left lives in the tag block
            if collect_remainder:
                rem[cm] = c0
                rem.update(work)
            break
        comp, m = cm
        for (rc, rm), lc, terms in reducers:
            if rc != comp:
                continue
            q = mon_div(m, rm)
            if q is not None:
                f = K.div(c0, lc)
                for (tc, tm), tv in terms.items():
                    mm = (tc, mon_mul(q, tm))
                    if mm == cm:
                        continue
                    old = work.get(mm)
                    s = K.sub(old if old is not None else zero, K.mul(f, tv))
                    if K.is_zero(s):
                        work.pop(mm, None)
                    else:
                        if old is None:
                            heapq.heappush(heap, (nkey(mm), mm))
                        work[mm] = s
                break
        else:
            if collect_remainder:
                rem[cm] = c0
    return rem


def _mel_monic(el: dict, order: ModuleOrder, K) -> dict:
    cm = max(el, key=order.key)
    lc = el[cm]
    if lc == K.one():
        return el
    inv = K.inv(lc)
    return {k: K.mul(v, inv) for k, v in el.items()}


def _mel_spoly(a, b, order: ModuleOrder, K):
    """S-element of two triples with equal lead component."""
    (ca, ma), lca, ta = a
    (cb, mb), lcb, tb = b
    lcm = mon_lcm(ma, mb)
    qa, qb = mon_div(lcm, ma), mon_div(lcm, mb)
    out: dict = {}
    ia = K.inv(lca)
    for (tc, tm), tv in ta.items():
        out[(tc, mon_mul(qa, tm))] = K.mul(tv, ia)
    ib = K.inv(lcb)
    for (tc, tm), tv in tb.items():
        mm = (tc, mon_mul(qb, tm))
        s = K.sub(out.get(mm, K.zero()), K.mul(tv, ib))
        if K.is_zero(s):
            out.pop(mm, None)
        else:
            out[mm] = s
    return out


class ModuleGB:
    """Incremental Groebner basis of the free-block part of a module, with
    tag parts carried along.

    S-pairs are only formed inside the free block: pairs of pure-tag elements
    would compute syzygies among syzygies, which no caller needs.  The strict
    chain criterion is always safe; the coprime criterion applies only when
    the free block has one component (the ideal case), where the dropped
    pair's syzygy is the directly injected Koszul tag element.
    """

    def __init__(self, order: ModuleOrder, K):
        self.order = order
        self.K = K
        self.n_free = order.n_free
        self.use_coprime = order.n_free == 1
        self.basis: list[tuple] = []
        self.pairs: set[tuple[int, int]] = set()

    def _fpoly(self, el: dict) -> dict:
        return {m: c for (c0, m), c in el.items() if c0 < self.n_free}

    def _koszul_tag(self, i: int, j: int) -> dict:
        """g_j * w_i - g_i * w_j for single-component free parts: pure tag."""
        K = self.K
        gi = self._fpoly(self.basis[i][2])
        gj = self._fpoly(self.basis[j][2])
        out: dict = {}
        for (c0, m), v in self.basis[i][2].items():
            for mm, cc in gj.items():
                key = (c0, mon_mul(m, mm))
                s = K.add(out.get(key, K.zero()), K.mul(v, cc))
                if K.is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
        for (c0, m), v in self.basis[j][2].items():
            for mm, cc in gi.items():
                key = (c0, mon_mul(m, mm))
                s = K.sub(out.get(key, K.zero()), K.mul(v, cc))
                if K.is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
        return {k: v for k, v in out.items() if k[0] >= self.n_free}

    def _add_reduced(self, el: dict):
        K = self.K
        el = _mel_monic(el, self.order, K)
        k = len(self.basis)
        cm = max(el, key=self.order.key)
        self.basis.append((cm, el[cm], el))
        if cm[0] >= self.n_free:
            return
        # strict chain criterion on pending pairs
        drop = set()
        for (i, j) in self.pairs:
            (ci, mi), _, _ = self.basis[i]
            (cj, mj), _, _ = self.basis[j]
            if ci != cm[0]:
                continue
            l = mon_lcm(mi, mj)
            if (
                mon_div(l, cm[1]) is not None
                and mon_lcm(mi, cm[1]) != l
                and mon_lcm(mj, cm[1]) != l
            ):
                drop.add((i, j))
        self.pairs.difference_update(drop)
        new_pairs = []
        for i in range(k):
            (ci, mi), _, _ = self.basis[i]
            if ci != cm[0] or ci >= self.n_free:
                continue
            if self.use_coprime and mon_coprime(mi, cm[1]):
                tau = self._koszul_tag(i, k)
                if tau:
                    tau = _mel_monic(tau, self.order, K)
                    tcm = max(tau, key=self.order.key)
                    self.basis.append((tcm, tau[tcm], tau))
                continue
            new_pairs.append((i, k))
        # strict mutual-divisibility pruning among the new pairs
        lcms = {p: mon_lcm(self.basis[p[0]][0][1], cm[1]) for p in new_pairs}
        for p in new_pairs:
            l = lcms[p]
            if any(
                q != p and lcms[q] != l and mon_div(l, lcms[q]) is not None
                for q in new_pairs
            ):
                continue
            self.pairs.add(p)

    def add(self, el: dict) -> bool:
        """Reduce and, if nonzero, insert; returns True when inserted."""
        if not el:
            return False
        rem = _mel_reduce(el, self.basis, self.order, self.K)
        if not rem:
            return False
        self._add_reduced(rem)
        return True

    def reduce(self, el: dict) -> dict:
        return _mel_reduce(el, self.basis, self.order, self.K)

    def complete(self):
        def pair_key(p):
            i, j = p
            l = mon_lcm(self.basis[i][0][1], self.basis[j][0][1])
            return (sum(l), self.order.base.key(l))

        while self.pairs:
            i, j = min(self.pairs, key=pair_key)
            self.pairs.discard((i, j))
            s = _mel_spoly(self.basis[i], self.basis[j], self.order, self.K)
            rem = _mel_reduce(s, self.basis, self.order, self.K)
            if rem:
                self._add_reduced(rem)


def module_buchberger(elements: list[dict], order: ModuleOrder, K) -> list[tuple]:
    gb = ModuleGB(order, K)
    for el in elements:
        gb.add(el)
    gb.complete()
    return gb.basis


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
        self.gen_degrees = []
        tag_leads = []
        mod_order_plain = ModuleOrder(base, F.rank + len(gens), [(0,) * F.ring.n] * len(gens))
        for g in gens:
            d = mel_degree(self.ring, F.twists, g)
            if d is None and g:
                raise RingError("inhomogeneous module generator")
            self.gen_degrees.append(d)
            tag_leads.append(max(g, key=mod_order_plain.key)[1] if g else (0,) * F.ring.n)
        self.order = ModuleOrder(base, F.rank, tag_leads)
        self._gb: list[tuple] | None = None

    def _augmented(self) -> list[dict]:
        out = []
        for i, g in enumerate(self.gens):
            el = dict(g)
            el[(self.n_free + i, (0,) * self.ring.n)] = self.K.one()
            out.append(el)
        return out

    def gb(self) -> list[tuple]:
        if self._gb is None:
            self._gb = module_buchberger(self._augmented(), self.order, self.K)
        return self._gb

    def _split(self, el: dict) -> tuple[dict, dict]:
        free, tag = {}, {}
        for (c, m), v in el.items():
            if c < self.n_free:
                free[(c, m)] = v
            else:
                tag[(c - self.n_free, m)] = v
        return free, tag

    def syzygies(self) -> list[dict]:
        """Generators of the syzygy module of the g_i, as elements of S^s."""
        out = []
        for _, _, el in self.gb():
            free, tag = self._split(el)
            if not free:
                out.append(tag)
        return out

    def reduce(self, v: dict) -> tuple[dict, list[Polynomial]]:
        """(normal form of v, representation): v = nf + sum(rep_i * g_i)."""
        el = dict(v)
        rem = _mel_reduce(el, self.gb(), self.order, self.K)
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
