"""The packed syzygy pipeline against the tuple pipeline it replaced.

The reference below is the former tuple boundary of modules.py, kept here:
syzygies unpacked to {(component, monomial): c} dicts, every term's degree
recomputed, the Nakayama products built on exponent tuples, the kept
columns sorted by (total degree, degree, sorted terms) and the matrix built
by from_columns from columns(M) at every level; columns, from_columns,
pack and unpack were PolyMatrix and ModuleOrder methods.  It runs on the same Groebner engine, so a difference can only come from
the boundary.  Differentials are compared as ordered term lists, entry by
entry.

From the second level on, the library packs the free terms of a level in
the Schreyer order induced by the level below.  The reference does the
same with its own tuple code: each level returns the lead exponents of its
generators, and pack multiplies the free terms of the next level by them.
The library also picks each level's generators inside the tagged basis of
the next level, which that level then completes; the reference grows that
basis the same way (ref_tagged_basis), while graded Nakayama still decides
which columns are kept.  With no leads it runs the plain order, with every
tagged basis built from its generators, which still gives minimal
resolutions and serves as an oracle for the Betti tables.
"""

from itertools import groupby
from operator import add

import pytest

from koszulkit import GF, QQ, FreeModule, PolyMatrix, parse_poly, parse_ring
from koszulkit.forms import FORMS, generate_ideal
from koszulkit.groebner import lead_term, reduce_terms
from koszulkit.linalg import complement_indices
from koszulkit.modules import ModuleGB, ModuleOrder, column_degrees, syzygy_matrix
from koszulkit.resolution import FreeComplex, minimal_resolution, minimalize_complex
from koszulkit.ring import (
    DEGLEX,
    DEGREVLEX,
    FIELD_MASK,
    MonomialOrder,
    Polynomial,
    RingError,
    add_deg,
    elimination_order,
    sub_deg,
)

# -- the tuple pipeline, kept as the reference --------------------------------


def columns(M):
    """The columns of M as {(component, monomial): c} dicts."""
    return [
        {(r, m): v for r in range(M.nrows) for m, v in M.entries[r][c].terms.items()}
        for c in range(M.ncols)
    ]


def from_columns(target, cols, col_degrees):
    ring = target.ring
    entries = [[ring.zero() for _ in cols] for _ in range(target.rank)]
    for c, col in enumerate(cols):
        per_row = {}
        for (r, m), v in col.items():
            per_row.setdefault(r, {})[m] = v
        for r, terms in per_row.items():
            entries[r][c] = Polynomial(ring, terms)
    return PolyMatrix(target, FreeModule(ring, col_degrees), entries)


def pack(order, cm, leads=None):
    """A term (c, m) of the module order: a free term as m*lead_c + c + flag,
    lead_c the c-th of the exponent tuples leads (none: the plain order), a
    tag term as m*lead + c."""
    c, m = cm
    lay = order.lay
    if c < order.n_free:
        if leads is not None:
            m = tuple(map(add, m, leads[c]))
        return lay.pack(m) + c + lay.flag
    return lay.check(lay.pack(m) + order.packed_leads[c - order.n_free]) + c


def unpack(order, P):
    c, lay = P & FIELD_MASK, order.lay
    if P & lay.flag:
        return c, lay.unpack(P)
    return c, lay.unpack(P - order.packed_leads[c - order.n_free])


def ref_degree(ring, twists, el):
    deg = None
    for (c, m), _ in el.items():
        d = add_deg(twists[c], ring.mon_degree(m))
        if deg is None:
            deg = d
        elif deg != d:
            return None
    return deg


def ref_syzygies(F, gens, order, leads=None, gb=None):
    """The syzygies of gens, with the free terms packed by the lead
    exponents of F's components, and the lead exponents of the gens.  gb,
    when given, is the tagged basis of the gens that ref_tagged_basis grew
    while they were picked; it is completed instead of built."""
    ring, K = F.ring, F.ring.field
    base = order.for_ring(ring)
    lay = base.layout
    if gb is None:
        free = ModuleOrder(base, F.rank)
        packed, gen_leads = [], []
        for g in gens:
            if g and ref_degree(ring, F.twists, g) is None:
                raise RingError("inhomogeneous module generator")
            el = {pack(free, cm, leads): v for cm, v in g.items()}
            packed.append(el)
            gen_leads.append(lay.unpack(lead_term(el, lay)) if el else (0,) * ring.n)
        gb = ModuleGB(ModuleOrder(base, F.rank), K)
        for m in gen_leads:
            gb.order.add_tag(lay.pack(m))
        for i, el in enumerate(packed):
            gb.add({**el, pack(gb.order, (F.rank + i, (0,) * ring.n)): K.one()})
    gb.complete()
    out = []
    for lead, _, el in gb.basis:
        if lead & lay.flag:
            continue
        tag = {}
        for P, v in el.items():
            c, m = unpack(gb.order, P)
            tag[(c - F.rank, m)] = v
        out.append(tag)
    return out, [lay.unpack(m) for m in gb.order.packed_leads]


def ref_tagged_basis(F, cols, kept, order, leads):
    """The tagged basis of the next level, grown as syzygy_matrix grows it
    while it picks the minimal generators among cols: each nonzero column,
    in the order of the scan, packed by the lead exponents leads and tagged
    as the next generator, is reduced; the basis is completed through a new
    total degree when a column of that degree leaves a free remainder, and
    a column still leaving one is inserted.  Those are the columns kept
    (by graded Nakayama)."""
    ring, K = F.ring, F.ring.field
    base = order.for_ring(ring)
    lay = base.layout
    tagged = ModuleOrder(base, F.rank)
    # a packed free term of component c has degree deg m + deg lead_c
    gb = ModuleGB(tagged, K, [sum(t) - sum(m) for t, m in zip(F.twists, leads)])
    degs = [ref_degree(ring, F.twists, c) for c in cols]
    free_left = lambda el: any(P & lay.flag for P in el)
    done, inserted = None, []
    for i in sorted((i for i in range(len(cols)) if cols[i]), key=lambda i: (sum(degs[i]), degs[i], sorted(cols[i]))):
        el = {pack(tagged, cm, leads): v for cm, v in cols[i].items()}
        lead = lay.unpack(lead_term(el, lay))
        el[lay.pack(lead) + F.rank + len(inserted)] = K.one()
        rem = reduce_terms(el, gb.reducers, lay, K)
        if free_left(rem) and sum(degs[i]) != done:
            done = sum(degs[i])
            gb.complete(done)
            rem = reduce_terms(rem, gb.reducers, lay, K)
        if free_left(rem):
            inserted.append(i)
            tagged.add_tag(lay.pack(lead))
            gb._add_reduced(rem)
    assert inserted == kept
    return gb


def ref_minimal_generators(F, cols):
    ring = F.ring
    K = ring.field
    degs = [ref_degree(ring, F.twists, c) for c in cols]
    idx = sorted(
        (i for i in range(len(cols)) if cols[i]),
        key=lambda i: (sum(degs[i]), degs[i], sorted(cols[i].keys())),
    )
    kept = []
    for d, group in groupby(idx, key=degs.__getitem__):
        group = list(group)
        index = {}
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
        rows = []
        for pairs in sparse:
            row = [K.zero()] * len(index)
            for j, v in pairs:
                row[j] = v
            rows.append(row)
        chosen = complement_indices(K, rows[:n_products], rows[n_products:])
        kept.extend(group[j] for j in chosen)
    return kept


def ref_syzygy_matrix(M, order=DEGREVLEX, leads=None, gb=None):
    """The minimal syzygies of M, with M.target packed by the lead
    exponents leads (and gb, when given, the tagged basis of M's columns);
    the lead exponents of M's columns, which pack M.source at the next
    level; and the tagged basis of the next level."""
    syz, col_leads = ref_syzygies(M.target, columns(M), order, leads, gb)
    kept = ref_minimal_generators(M.source, syz) if syz else []
    nxt = ref_tagged_basis(M.source, syz, kept, order, col_leads)
    syz = [syz[i] for i in kept]
    degs = []
    for s in syz:
        d = ref_degree(M.ring, M.source.twists, s)
        if d is None:
            raise RingError("inhomogeneous syzygy from a homogeneous matrix")
        degs.append(d)
    cols = sorted(zip(syz, degs), key=lambda p: (sum(p[1]), p[1], sorted(p[0].keys())))
    return from_columns(M.source, [c for c, _ in cols], [d for _, d in cols]), col_leads, nxt


def ref_minimal_resolution(I, max_steps=None, order=DEGREVLEX, schreyer=True):
    """The reference resolution, each level in the Schreyer order of the
    one below, from the tagged basis grown while its generators were
    picked; or with schreyer=False every level in the plain order, from a
    tagged basis built from the generators."""
    ring = I.ring
    F0 = FreeModule(ring, [ring.zero_deg])
    maps = [PolyMatrix(F0, FreeModule(ring, [g.degree() for g in I.gens]), [list(I.gens)])]
    leads = gb = None
    for _ in range(ring.n + 1 if max_steps is None else max_steps):
        S, col_leads, nxt = ref_syzygy_matrix(maps[-1], order, leads, gb)
        if schreyer:
            leads, gb = col_leads, nxt
        if S.ncols == 0:
            break
        maps.append(S)
    modules = [maps[0].target] + [d.source for d in maps]
    return minimalize_complex(FreeComplex(modules, maps, check=False))


# -- comparisons ---------------------------------------------------------------


def as_terms(M):
    """A matrix as its twists and the ordered term list of every entry."""
    return (
        M.target.twists,
        M.source.twists,
        [[list(f.terms.items()) for f in row] for row in M.entries],
    )


def check_resolution(I, max_steps=None):
    cx, betti = minimal_resolution(I, max_steps)
    ref = ref_minimal_resolution(I, max_steps)
    assert [as_terms(d) for d in cx.maps] == [as_terms(d) for d in ref.maps]
    assert betti == ref.betti()
    return cx


def check_levels(M, levels):
    """syzygy_matrix iterated from M against the reference; each level
    starts from the packed columns the previous call kept.  Returns None
    once a level is zero."""
    ref, leads, gb = M, None, None
    for _ in range(levels):
        M, (ref, leads, gb) = syzygy_matrix(M), ref_syzygy_matrix(ref, leads=leads, gb=gb)
        assert as_terms(M) == as_terms(ref)
        if not M.ncols:
            return None
    return M


CASES = sorted(FORMS)


@pytest.mark.parametrize("K", [GF(2), GF(7), GF(32003)], ids=lambda K: K.name)
def test_resolutions_of_every_form_match_the_tuple_pipeline(K):
    for case in CASES:
        cx = check_resolution(generate_ideal(case, K, 0)["ideal"])
        assert cx.length >= 2, case


def test_betti_tables_do_not_depend_on_the_order():
    """Minimal resolutions are unique up to isomorphism, so the library's
    degrevlex table is the reference's under deglex, a permuted degrevlex
    and a block order, whose layout has two degree fields."""
    K = GF(32003)
    for case in ("2iii", "2iv-d"):
        I = generate_ideal(case, K, 2)["ideal"]
        n = I.ring.n
        _, betti = minimal_resolution(I)
        for order in (DEGLEX, MonomialOrder("degrevlex", perm=list(range(n))[::-1]),
                      elimination_order(I.ring, I.ring.names[:2])):
            assert ref_minimal_resolution(I, order=order).betti() == betti, (case, order)


@pytest.mark.parametrize("case", CASES)
def test_resolutions_over_the_rationals_match_the_tuple_pipeline(case):
    check_resolution(generate_ideal(case, QQ, 0)["ideal"])


@pytest.mark.parametrize("K", [GF(2), GF(7), GF(32003)], ids=lambda K: K.name)
def test_schreyer_and_plain_orders_give_the_same_betti_tables(K):
    """The reference with every level in the plain order is an oracle for
    the tables of the library, whose levels from the second on run in the
    Schreyer order."""
    for case in CASES:
        I = generate_ideal(case, K, 0)["ideal"]
        assert minimal_resolution(I)[1] == ref_minimal_resolution(I, schreyer=False).betti(), case


def test_syzygy_matrix_levels_on_a_bigraded_module():
    R = parse_ring("ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]")
    P = lambda s: parse_poly(R, s)
    F = FreeModule(R, [(0, 0), (1, 0)])
    entries = [
        [P("x*a"), P("y*b"), P("x^2+y^2"), P("a^2"), P("x*y*a")],
        [P("a"), R.zero(), P("x+y"), R.zero(), P("y*a+x*b")],
    ]
    M = PolyMatrix(F, FreeModule(R, [(1, 1), (1, 1), (2, 0), (0, 2), (2, 1)]), entries)
    assert check_levels(M, 5) is None  # the kernel ends within five levels
    S = syzygy_matrix(M)
    assert S.ncols == 6 and syzygy_matrix(S).ncols == 3
    # a level rebuilt from its entries has no Schreyer leads: it packs the
    # entries again and runs the plain order
    flat = PolyMatrix(S.target, S.source, S.entries)
    assert as_terms(syzygy_matrix(flat)) == as_terms(ref_syzygy_matrix(flat)[0])
    # the generator degrees of each level do not depend on the order: the
    # plain order at every level, and deglex and a permuted degrevlex with
    # Schreyer levels
    for order, schreyer in ((DEGREVLEX, False), (DEGLEX, True), (MonomialOrder("degrevlex", perm=[2, 0, 3, 1]), True)):
        N, ref, leads, gb = M, M, None, None
        while N.ncols:
            N, (ref, col_leads, nxt) = syzygy_matrix(N), ref_syzygy_matrix(ref, order, leads, gb)
            if schreyer:
                leads, gb = col_leads, nxt
            assert sorted(N.source.twists) == sorted(ref.source.twists), (order, schreyer)


def test_bigraded_column_of_one_total_degree_is_inhomogeneous():
    R = parse_ring("ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]")
    F = FreeModule(R, [(0, 0)])
    lay = DEGREVLEX.for_ring(R).layout
    col = {lay.pack((1, 0, 0, 0)) + lay.flag: 1, lay.pack((0, 0, 1, 0)) + lay.flag: 1}  # x + a
    with pytest.raises(RingError):
        column_degrees(F, lay, [col])
    assert column_degrees(F, lay, [{}, {lay.pack((1, 0, 0, 0)) + lay.flag: 1}]) == [None, (1, 0)]


def test_inhomogeneous_packed_column_raises():
    R = parse_ring("ring F32003 [x,y]")
    P = lambda s: parse_poly(R, s)
    F = FreeModule(R, [(0,)])
    lay = DEGREVLEX.for_ring(R).layout
    # an unchecked matrix with the inhomogeneous column x^2 + y
    M = PolyMatrix(F, FreeModule(R, [(2,), (1,)]), [[P("x^2+y"), P("x")]], check=False)
    with pytest.raises(RingError):
        M.packed_columns()
    with pytest.raises(RingError):
        syzygy_matrix(M)
    # a twist makes a column inhomogeneous across components
    G = FreeModule(R, [(0,), (1,)])
    col = {lay.pack((1, 0)) + lay.flag: 1, lay.pack((1, 0)) + 1 + lay.flag: 1}  # (x, x)
    with pytest.raises(RingError):
        column_degrees(G, lay, [col])
