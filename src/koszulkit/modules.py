"""Graded free modules, polynomial matrices, and module Groebner machinery.

Module elements enter and leave this module as the columns of a PolyMatrix.
Syzygies and membership-with-representation both go through one augmented
construction: the columns g_i of a matrix M, generators of a submodule of
F = M.target, are tagged as (g_i, e_i) in F (+) S^s with a block order in
which F dominates, so Groebner elements with vanishing F-part carry
syzygies in their tags, and normal forms of (v, 0) carry representations
(TaggedModule.reduce: N = R + M*X).  The Groebner bases are
groebner.ModuleGB, the one S-pair manager, which Buchberger's algorithm for
ideals runs on too; its docstring lists the pair criteria.  Minimal
generators are picked by normal forms too (minimal_module_generators).
The module orders are all built on degrevlex, whose layout packs the
elements inside as dicts {int: coeff} (see groebner.ModuleOrder):
PolyMatrix.packed_columns packs a matrix once, and groebner's one reduction
loop reduces them.  syzygy_matrix keeps its columns packed from one call to
the next and unpacks them once, into the matrix it returns.  That matrix
also keeps the packed leads of the columns one level down, and TaggedModule
offsets each component of its free block by them: a free term m*e_r packs
as m + lead_r + r + flag, so the tagged basis of each level from the second
on runs in the Schreyer order induced by the level below, the order its
tags ran in (Schreyer's theorem: Eisenbud, Commutative Algebra, Thm 15.10;
La Scala and Stillman, J. Symbolic Comput. 26, 1998).  The offsets live
only inside TaggedModule: syzygies leave it as plain packed columns, and
generator selection and products run the plain order.
submodule_colon, the first entries of the syzygies of [k | B], is the one
colon: groebner.colon and resolution.ann_ext both call it.
"""

from __future__ import annotations

from itertools import chain
from operator import is_

from .groebner import Ideal, ModuleGB, ModuleOrder, lead_term, reduce_terms
from .ring import (
    DEGREVLEX,
    FIELD_BITS,
    FIELD_MASK,
    Deg,
    PackedLayout,
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
        # set by syzygy_matrix: (entries, the packed columns they were
        # unpacked from), and the Schreyer leads of the target's components
        self._packed = None
        self._leads = None
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

    def packed_columns(self) -> list[dict]:
        """The columns as packed elements {pack(m) + row + flag: c} of the
        degrevlex layout, checked homogeneous.  A matrix made by
        syzygy_matrix keeps the packed columns it was unpacked from, and
        returns those as long as every entry is the one unpacked from them:
        an entry replaced since is packed again with all the others."""
        if self._packed is not None:
            unpacked, cols = self._packed
            if all(map(is_, chain.from_iterable(self.entries), unpacked)):
                return cols
        lay = DEGREVLEX.for_ring(self.ring).layout
        cols: list[dict] = [{} for _ in range(self.ncols)]
        for r, row in enumerate(self.entries):
            for col, f in zip(cols, row):
                col.update(lay.pack_terms(f.terms, r + lay.flag))
        column_degrees(self.target, lay, cols)
        return cols

    def is_zero(self) -> bool:
        return all(not self.entries[r][c] for r in range(self.nrows) for c in range(self.ncols))

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """self composed after other: self * other.

        Works on packed columns, so a matrix from syzygy_matrix is not
        packed again: a term m*e_k of a column of other adds m times column
        k of self.  Each output column sums its products in one dict,
        unreduced (raw values of both fields are Python numbers), and is
        reduced once; only the terms that survive are unpacked."""
        if other.target != self.source:
            if other.target.twists != self.source.twists:
                raise RingError("composition with mismatched modules")
        ring = self.ring
        K = ring.field
        lay = DEGREVLEX.for_ring(ring).layout
        A = self.packed_columns()
        unpack, frame = lay.unpack, lay.frame
        coerce, is_zero = K.coerce, K.is_zero
        entries = [[ring.zero() for _ in range(other.ncols)] for _ in range(self.nrows)]
        for c, col in enumerate(other.packed_columns()):
            acc: dict = {}
            get = acc.get
            for P, y in col.items():
                m = P & ~frame
                for Q, x in A[P & FIELD_MASK].items():
                    R = Q + m
                    acc[R] = get(R, 0) + x * y
            for R, v in acc.items():
                v = coerce(v)
                if not is_zero(v):
                    entries[R & FIELD_MASK][c].terms[unpack(R)] = v
        return PolyMatrix(self.target, other.source, entries, check=False)

    def transpose(self) -> "PolyMatrix":
        ent = [[self.entries[r][c] for r in range(self.nrows)] for c in range(self.ncols)]
        return PolyMatrix(self.source.dual(), self.target.dual(), ent)

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


def column_degrees(F: FreeModule, lay: PackedLayout, cols: list[dict]) -> list[Deg | None]:
    """The degree of each packed column of F, None for a zero column; raises
    RingError when a column is inhomogeneous.  A term's degree is its
    component's twist plus the degree of its monomial, which over a
    standard graded ring is the sum of the layout's degree fields."""
    ring, twists = F.ring, F.twists
    degs = []
    for col in cols:
        if ring.gdim == 1:
            ds = [twists[P & FIELD_MASK][0] for P in col]
            for s in lay.deg_shifts:
                ds = [d + ((P >> s) & FIELD_MASK) for d, P in zip(ds, col)]
            ds = {(d,) for d in set(ds)}
        else:
            ds = {add_deg(twists[P & FIELD_MASK], ring.mon_degree(lay.unpack(P))) for P in col}
        if len(ds) > 1:
            raise RingError("inhomogeneous module element")
        degs.append(ds.pop() if ds else None)
    return degs


def lex_terms(lay: PackedLayout, col: dict) -> list[int]:
    """The terms of a packed column as ints that sort like their keys
    (component, exponent tuple): one field each, in that order."""
    keys = [P & FIELD_MASK for P in col]
    for s in lay.shifts:
        keys = [(k << FIELD_BITS) | ((P >> s) & FIELD_MASK) for k, P in zip(keys, col)]
    return keys


# ---------------------------------------------------------------------------
# the augmented (tagged) construction


class TaggedModule:
    """The columns g_1..g_s of M, generators of a submodule of M.target,
    tagged in M.target (+) S^s.

    A free term m*e_r packs as m + lead_r + r + flag.  When M was made by
    syzygy_matrix, lead_r is the packed lead of generator r one level down
    (M._leads), so the free block runs in the Schreyer order those leads
    induce, the order in which the tags one level down ran; for a matrix
    built from entries every lead_r is 0, the plain order of the layout.
    The offsets cancel within one component, so divisibility, lcms and the
    pair criteria are those of the plain packing (the coprime test, which
    runs on one free component only, sees offset 0 there: a matrix from
    syzygy_matrix has one row only when the one column below it is zero);
    _schreyer applies the offsets and reduce removes them."""

    def __init__(self, M: PolyMatrix):
        base = DEGREVLEX.for_ring(M.ring)
        lay = base.layout
        self.M, self.K, self.n_free = M, M.ring.field, M.nrows
        self.offsets = M._leads or [0] * M.nrows
        self._packed = self._schreyer(M.packed_columns())
        # tags carry the lead monomials, without component and flag
        self.order = ModuleOrder(base, M.nrows, [lead_term(el, lay) & ~lay.frame if el else 0 for el in self._packed])
        self._gb: ModuleGB | None = None

    def _schreyer(self, cols: list[dict]) -> list[dict]:
        """Packed columns of M.target (as packed_columns gives them) in
        this module's packing: each term of component r moved by lead_r."""
        off = self.offsets
        return [{P + off[P & FIELD_MASK]: v for P, v in col.items()} for col in cols]

    def gb(self) -> ModuleGB:
        """The completed Groebner basis of the augmented generators (g_i, e_i);
        the tag term of e_i is lead_i + n_free + i."""
        if self._gb is None:
            gb = ModuleGB(self.order, self.K)
            one, n = self.K.one(), self.n_free
            for i, (el, lead) in enumerate(zip(self._packed, self.order.packed_leads)):
                gb.add({**el, lead + n + i: one})
            gb.complete()
            self._gb = gb
        return self._gb

    def syzygies(self) -> list[dict]:
        """Generators of the syzygy module of the g_i, packed as elements of
        S^s in the same layout: the tag term m*lead_i + n_free + i becomes
        the free term m + i + flag, which is what packed_columns gives."""
        lay, n = self.order.lay, self.n_free
        shift = [lead + n - lay.flag for lead in self.order.packed_leads]
        # an element whose lead is a tag term has no free part
        return [{P - shift[(P & FIELD_MASK) - n]: v for P, v in el.items()}
                for lead, _, el in self.gb().basis if not lead & lay.flag]

    def reduce(self, N: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
        """(R, X) with N = R + M*X column by column: the columns of R are the
        normal forms of those of N, zero exactly for the columns of N in the
        span of the g_i."""
        M = self.M
        if N.target != M.target:
            raise RingError("reduced matrix does not share the module's target")
        gb = self.gb()
        lay, n, K, leads = gb.lay, self.n_free, self.K, self.order.packed_leads
        zero = M.ring.zero
        R = [[zero() for _ in range(N.ncols)] for _ in range(n)]
        X = [[zero() for _ in range(N.ncols)] for _ in leads]
        off = self.offsets
        for c, col in enumerate(self._schreyer(N.packed_columns())):
            for P, v in reduce_terms(col, gb.reducers, lay, K).items():
                i = P & FIELD_MASK
                if P & lay.flag:
                    R[i][c].terms[lay.unpack(P - off[i])] = v
                else:
                    X[i - n][c].terms[lay.unpack(P - leads[i - n])] = K.neg(v)
        return PolyMatrix(M.target, N.source, R, check=False), PolyMatrix(M.source, N.source, X)

    def contains(self, N: PolyMatrix) -> bool:
        """Every column of N lies in the span of the g_i."""
        return self.reduce(N)[0].is_zero()


def minimal_module_generators(F: FreeModule, cols: list[dict], degs: list) -> list[int]:
    """Indices of a minimal generating subset of the graded submodule of F
    spanned by homogeneous packed columns (as PolyMatrix.packed_columns
    gives them) of degrees degs (from column_degrees).

    The nonzero columns are scanned by increasing total degree, then degree,
    then sorted (component, exponent) terms, and a column is kept unless it
    reduces to zero modulo an untagged Groebner basis of the columns kept
    before it, which generate it exactly then.  The basis is completed only
    when a column of total degree d leaves a remainder, through d and once
    per degree; a remainder left after that proves the column is not
    generated, and inserting it keeps the basis complete through d, since
    its lead is irreducible and so every new pair has a higher degree.
    """
    base = DEGREVLEX.for_ring(F.ring)
    K, lay = F.ring.field, base.layout
    idx = sorted(
        (i for i in range(len(cols)) if cols[i]),
        key=lambda i: (sum(degs[i]), degs[i], sorted(lex_terms(lay, cols[i]))),
    )
    gb = ModuleGB(ModuleOrder(base, F.rank), K, F.twists)
    kept: list[int] = []
    done = None  # the total degree the basis is complete through; unset, as degrees may be negative
    for i in idx:
        rem = reduce_terms(cols[i], gb.reducers, lay, K)
        if rem and sum(degs[i]) != done:
            done = sum(degs[i])
            gb.complete(done)
            rem = reduce_terms(rem, gb.reducers, lay, K)
        if rem:
            kept.append(i)
            gb._add_reduced(rem)
    return kept


def syzygy_matrix(M: PolyMatrix) -> PolyMatrix:
    """Matrix whose columns minimally generate ker(M); target module is M.source.

    Iterating it yields minimal resolutions directly.  The syzygies stay
    packed from the Groebner basis through generator selection and are
    unpacked once, into the result, which keeps them for the next call,
    with the packed leads of M's columns: the next call's TaggedModule runs
    the Schreyer order they induce on M.source.  Which minimal generators it
    finds depends on that order; their degrees do not.
    """
    lay = DEGREVLEX.for_ring(M.ring).layout
    tagged = TaggedModule(M)
    syz = tagged.syzygies()
    degs = column_degrees(M.source, lay, syz)
    kept = minimal_module_generators(M.source, syz, degs) if syz else []
    ring, unpack = M.ring, lay.unpack
    entries = [[ring.zero() for _ in kept] for _ in range(M.source.rank)]
    for c, i in enumerate(kept):
        for P, v in syz[i].items():
            entries[P & FIELD_MASK][c].terms[unpack(P)] = v
    S = PolyMatrix(M.source, FreeModule(ring, [degs[i] for i in kept]), entries, check=False)
    S._packed = (tuple(chain.from_iterable(S.entries)), [syz[i] for i in kept])
    S._leads = tagged.order.packed_leads
    return S


def submodule_colon(W: PolyMatrix) -> Ideal:
    """The ideal of a with a*k in the span of the other columns of
    W = [k | B]: the first entries of the syzygies of W (Greuel and Pfister,
    A Singular Introduction to Commutative Algebra, 2.8).  The unit ideal
    when k is zero."""
    ring = W.ring
    if not any(row[0] for row in W.entries):
        return Ideal([ring.one()], ring)
    S = syzygy_matrix(W)
    return Ideal(S.entries[0], ring)
