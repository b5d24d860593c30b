"""Graded free modules, polynomial matrices, and module Groebner machinery.

Module elements enter and leave this module as the columns of a PolyMatrix.
Syzygies and membership-with-representation both go through one augmented
construction: the columns g_i of a matrix M, generators of a submodule of
F = M.target, are tagged as (g_i, e_i) in F (+) S^s with a block order in
which F dominates, so Groebner elements with vanishing F-part carry
syzygies in their tags, and normal forms of (v, 0) carry representations
(TaggedModule.reduce: N = R + M*X).  The bases are groebner.ModuleGB, the
one S-pair manager, which also runs Buchberger's algorithm for ideals.
Each resolution level has one tagged basis: minimal generators are picked
by normal forms inside the tagged module of the next level, as La Scala
and Stillman (J. Symbolic Comput. 26, 1998) minimalize inside the one
basis they compute.  Elements are packed dicts {int: coeff} of the
degrevlex layout (groebner.ModuleOrder); syzygy_matrix unpacks each level
once, into the matrix it returns, which keeps the packed columns, the
tagged module and the packed leads of the columns one level down.
TaggedModule offsets each free component by those leads, so the basis of
each level from the second on runs in the Schreyer order induced by the
level below (Schreyer's theorem: Eisenbud, Commutative Algebra, Thm
15.10); syzygies leave it as plain packed columns, and products and the
selection scan run the plain order.  submodule_colon (the first entries
of the syzygies of [k | B]) is the colon of groebner.colon and ann_ext.
"""

from __future__ import annotations

from itertools import chain
from operator import is_, itemgetter
from struct import Struct

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
    homogeneous of degree source.twists[c] - target.twists[r].  Entries are
    values: what syzygy_matrix keeps with a matrix serves while each entry
    is the object it unpacked, so an entry edited in place goes unnoticed."""

    def __init__(self, target: FreeModule, source: FreeModule, entries, check: bool = True):
        self.ring = target.ring
        self.target = target
        self.source = source
        self.entries = [list(row) for row in entries]
        # set by syzygy_matrix: (entries, the packed columns they were unpacked
        # from), the Schreyer leads of the target's components, the columns' TaggedModule
        self._packed = None
        self._leads = None
        self._module = None
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

    def _intact(self) -> bool:  # every entry is the one syzygy_matrix unpacked
        return self._packed is not None and all(map(is_, chain.from_iterable(self.entries), self._packed[0]))

    def packed_columns(self) -> list[dict]:
        """The columns as packed elements {pack(m) + row + flag: c} of the
        degrevlex layout, checked homogeneous: for a matrix made by
        syzygy_matrix, those it was unpacked from, until an entry is
        replaced; then every entry is packed again."""
        if self._intact():
            return self._packed[1]
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
        """self composed after other: self * other, on packed columns (a
        matrix from syzygy_matrix is not packed again): a term m*e_k of a
        column of other adds m times column k of self.  Each output column
        sums its products in one dict, unreduced (raw values of both fields
        are Python numbers), and is reduced once; only the terms that
        survive are unpacked."""
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


def lex_terms(lay: PackedLayout, col: dict) -> list[tuple]:
    """The terms of a packed column as tuples that sort like their keys
    (component, exponent tuple), picked from the 16-bit fields of each."""
    n = (lay.flag.bit_length() - 1) // FIELD_BITS + 1  # fields, through the flag's
    fields, pick = Struct(f"<{n}H").unpack, itemgetter(0, *(s // FIELD_BITS for s in lay.shifts))
    return [pick(fields(P.to_bytes(2 * n, "little"))) for P in col]


# ---------------------------------------------------------------------------
# the augmented (tagged) construction


class TaggedModule:
    """Generators g_1..g_s of a submodule of F = M.target, tagged in
    F (+) S^s, and the Groebner basis of the (g_i, e_i), completed on use.
    TaggedModule(M) feeds it the columns of M; minimal_module_generators
    grows one that starts with none.  A free term m*e_r packs as
    m + lead_r + r + flag: lead_r is the packed lead of generator r one
    level down (M._leads) when M was made by syzygy_matrix, so the free
    block runs in the Schreyer order those leads induce, the order in which
    the tags one level down ran, and 0 for a matrix built from entries, the
    plain order.  The offsets cancel within one component, so divisibility,
    lcms and the pair criteria are those of the plain packing (the coprime
    test, which runs on one free component only, sees offset 0 there: a
    matrix from syzygy_matrix has one row only when the one column below it
    is zero).  Component r is shifted by its twist less deg lead_r."""

    def __init__(self, M: PolyMatrix):
        base = DEGREVLEX.for_ring(M.ring)
        self.F, self.K, self.n_free = M.target, M.ring.field, M.nrows
        self.offsets = M._leads or [0] * M.nrows
        self.twists = list(M.source.twists)  # of the generators
        self.order = ModuleOrder(base, M.nrows)
        shifts = [sum(t) - base.layout.degree(off) for t, off in zip(M.target.twists, self.offsets)]
        self.gb = ModuleGB(self.order, self.K, shifts)  # completed on use
        for col in M.packed_columns():
            el, lead = self._tagged(col)
            self.order.add_tag(lead)
            self.gb.add(el)

    def _tagged(self, col: dict) -> tuple[dict, int]:
        """A packed column of F in this module's packing, each term of
        component r moved by lead_r, tagged as the next generator; and its
        lead monomial lead, without component and flag: the tag's offset."""
        lay, off = self.order.lay, self.offsets
        el = {P + off[P & FIELD_MASK]: v for P, v in col.items()}
        lead = lead_term(el, lay) & ~lay.frame if el else 0
        el[lead + self.n_free + len(self.order.packed_leads)] = self.K.one()
        return el, lead

    def syzygies(self) -> list[dict]:
        """Generators of the syzygy module of the g_i, packed as elements of
        S^s in the same layout: the tag term m*lead_i + n_free + i becomes
        the free term m + i + flag, which is what packed_columns gives."""
        lay, n = self.order.lay, self.n_free
        shift = [lead + n - lay.flag for lead in self.order.packed_leads]
        self.gb.complete()
        # an element whose lead is a tag term has no free part
        return [{P - shift[(P & FIELD_MASK) - n]: v for P, v in el.items()}
                for lead, _, el in self.gb.basis if not lead & lay.flag]

    def reduce(self, N: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
        """(R, X) with N = R + M*X column by column, M the matrix of the g_i:
        the columns of R are the normal forms of those of N, zero exactly
        for the columns of N in the span of the g_i."""
        F, ring, gb = self.F, self.F.ring, self.gb
        if N.target != F:
            raise RingError("reduced matrix does not share the module's target")
        gb.complete()
        lay, n, K, leads, off = gb.lay, self.n_free, self.K, self.order.packed_leads, self.offsets
        R = [[ring.zero() for _ in range(N.ncols)] for _ in range(n)]
        X = [[ring.zero() for _ in range(N.ncols)] for _ in leads]
        for c, col in enumerate(N.packed_columns()):
            col = {P + off[P & FIELD_MASK]: v for P, v in col.items()}
            for P, v in reduce_terms(col, gb.reducers, lay, K).items():
                i = P & FIELD_MASK
                if P & lay.flag:
                    R[i][c].terms[lay.unpack(P - off[i])] = v
                else:
                    X[i - n][c].terms[lay.unpack(P - leads[i - n])] = K.neg(v)
        return PolyMatrix(F, N.source, R, check=False), PolyMatrix(FreeModule(ring, self.twists), N.source, X)

    def contains(self, N: PolyMatrix) -> bool:
        """Every column of N lies in the span of the g_i."""
        return self.reduce(N)[0].is_zero()


def minimal_module_generators(module: TaggedModule, cols: list[dict], degs: list) -> list[int]:
    """Indices of a minimal generating subset of the graded submodule of
    module.F spanned by homogeneous packed columns (as packed_columns gives
    them) of degrees degs (from column_degrees); module, which starts with
    none, gets them as generators, in the order of the scan.

    The nonzero columns are scanned by increasing total degree, then degree,
    then sorted (component, exponent) terms.  Each is tagged as the next
    generator and kept unless its free part reduces to zero, exactly when
    the columns kept before it generate it.  The basis is completed only
    when a column of total degree d leaves a free remainder, through d and
    once per degree; inserting a free remainder left after that keeps it
    complete through d, as its lead is irreducible and so every new pair
    has a higher degree.
    """
    lay, K, gb = module.order.lay, module.K, module.gb
    idx = sorted(
        (i for i in range(len(cols)) if cols[i]),
        key=lambda i: (sum(degs[i]), degs[i], sorted(lex_terms(lay, cols[i]))),
    )
    kept: list[int] = []
    done = None  # the total degree the basis is complete through; unset, as degrees may be negative
    for i in idx:
        el, lead = module._tagged(cols[i])
        rem = reduce_terms(el, gb.reducers, lay, K)
        if max(rem) >= lay.flag and sum(degs[i]) != done:
            done = sum(degs[i])
            gb.complete(done)
            rem = reduce_terms(rem, gb.reducers, lay, K)
        if max(rem) >= lay.flag:  # a free term is left
            kept.append(i)
            module.order.add_tag(lead)
            module.twists.append(degs[i])
            gb._add_reduced(rem)
    return kept


def syzygy_matrix(M: PolyMatrix) -> PolyMatrix:
    """Matrix whose columns minimally generate ker(M); target module is M.source.

    Iterating it yields minimal resolutions directly.  The syzygies stay
    packed through generator selection and are unpacked once, into the
    result, which keeps them, the packed leads of M's columns (whose
    Schreyer order the next level runs) and the TaggedModule they were
    picked in, for the next call on it to complete and drop.  Any other
    call builds the module of M's columns.  Which minimal generators are
    found depends on how their module was built; their degrees do not.
    """
    lay = DEGREVLEX.for_ring(M.ring).layout
    ring, unpack = M.ring, lay.unpack
    tagged = (M._module if M._intact() else None) or TaggedModule(M)
    syz, leads = tagged.syzygies(), tagged.order.packed_leads
    M._module = tagged = None  # this level's basis is not needed past its syzygies
    degs = column_degrees(M.source, lay, syz)
    start = PolyMatrix.zero(M.source, FreeModule(ring, []))
    start._leads = leads
    module = TaggedModule(start)
    kept = minimal_module_generators(module, syz, degs) if syz else []
    entries = [[ring.zero() for _ in kept] for _ in range(M.source.rank)]
    for c, i in enumerate(kept):
        for P, v in syz[i].items():
            entries[P & FIELD_MASK][c].terms[unpack(P)] = v
    S = PolyMatrix(M.source, FreeModule(ring, [degs[i] for i in kept]), entries, check=False)
    S._packed = (tuple(chain.from_iterable(S.entries)), [syz[i] for i in kept])
    S._leads, S._module = leads, module
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
