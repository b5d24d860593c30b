"""Module machinery on PolyMatrix columns: the minimal-generator scan, which
decides membership by normal forms against a Groebner basis completed
lazily by degree, against two references (the same scan with the basis
completed in full after every kept column, and the dense graded-Nakayama
scan it replaced), the degree bound of ModuleGB.complete, the generation
property, the order of the pair criteria against the coprime-first rule it
replaced, and TaggedModule.reduce against degreewise linear algebra."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import GF, QQ, FreeModule, PolyMatrix, groebner, modules, parse_poly, parse_ring
from koszulkit.forms import FORMS, generate_ideal
from koszulkit.groebner import reduce_terms
from koszulkit.linalg import in_row_space
from koszulkit.modules import ModuleGB, ModuleOrder, TaggedModule, column_degrees, minimal_module_generators
from koszulkit.ring import (
    DEGLEX,
    DEGREVLEX,
    FIELD_MASK,
    MonomialOrder,
    Polynomial,
    RingContext,
    add_deg,
    elimination_order,
    mon_mul,
    sub_deg,
)
from test_syzygy_pipeline import columns, ref_minimal_generators

# A column is a list of polynomials, one entry per component of F.


def col_degree(F, col):
    """Common degree of a homogeneous column, None if zero or mixed."""
    ring = F.ring
    degs = {add_deg(F.twists[r], ring.mon_degree(m)) for r, f in enumerate(col) for m in f.terms}
    return degs.pop() if len(degs) == 1 else None


def matrix(F, cols):
    """The PolyMatrix with the given columns; a zero column gets twist 0."""
    twists = [col_degree(F, c) or F.ring.zero_deg for c in cols]
    return PolyMatrix(F, FreeModule(F.ring, twists), [[c[r] for c in cols] for r in range(F.rank)])


def column_terms(col):
    """The sorted (component, exponent) terms of a column: the scan key."""
    return sorted((r, m) for r, f in enumerate(col) for m in f.terms)


def mingens(F, cols):
    """minimal_module_generators on the columns, packed as
    PolyMatrix.packed_columns packs them."""
    packed = matrix(F, cols).packed_columns()
    return minimal_module_generators(F, packed, column_degrees(F, DEGREVLEX.for_ring(F.ring).layout, packed))


def gb_greedy(F, cols, order=DEGREVLEX):
    """The first reference scan: same scan order, and a column is kept when
    it does not reduce to zero modulo a Groebner basis of the kept ones,
    under the given monomial order, completed in full after every kept
    column.  Membership does not depend on that order."""
    ring = F.ring
    degs = [col_degree(F, c) for c in cols]
    base = order.for_ring(ring)
    packed = [{base.layout.pack(m) + r + base.layout.flag: v for r, f in enumerate(c) for m, v in f.terms.items()}
              for c in cols]
    gb = ModuleGB(ModuleOrder(base, F.rank), ring.field)
    idx = sorted(
        (i for i in range(len(cols)) if any(cols[i])),
        key=lambda i: (sum(degs[i]), degs[i], column_terms(cols[i])),
    )
    kept = []
    for i in idx:
        if gb.add(packed[i]):
            kept.append(i)
            gb.complete()
    return kept


def random_column(F, d, rng, density=0.5):
    """A random homogeneous element of F of degree d (possibly zero)."""
    R, K = F.ring, F.ring.field
    col = []
    for t in F.twists:
        terms = {}
        for m in R.monomials(sub_deg(d, t)):
            c = K.random(rng)
            if rng.random() < density and not K.is_zero(c):
                terms[m] = c
        col.append(Polynomial(R, terms))
    return col


def random_columns(F, base_degrees, steps, rng):
    """Random columns of F: fresh ones in the base degrees, then combinations
    m*h of earlier columns in degrees `step` above a base degree (partly
    redundant, partly with a fresh summand), a zero column and duplicates,
    all shuffled."""
    R, K = F.ring, F.ring.field
    cols = [random_column(F, rng.choice(base_degrees), rng) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(2, 7)):
        d = add_deg(rng.choice(base_degrees), rng.choice(steps))
        combo = [R.zero()] * F.rank
        for h in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
            e = sub_deg(d, col_degree(F, h)) if any(h) else None
            mons = R.monomials(e) if e is not None else ()
            if mons:
                m = rng.choice(mons)
                c = K.random(rng)
                combo = [a + f.mul_term(m, c) for a, f in zip(combo, h)]
        if rng.random() < 0.4:
            combo = [a + f for a, f in zip(combo, random_column(F, d, rng, 0.3))]
        cols.append(combo)
    cols.append([R.zero()] * F.rank)
    cols.extend(list(rng.choice(cols)) for _ in range(rng.randint(1, 2)))
    rng.shuffle(cols)
    return cols


STANDARD_STEPS = [(0,), (1,), (2,), (3,)]


def standard_case(K, n, rng):
    R = parse_ring(f"ring {K.name} [{','.join(f'x{i}' for i in range(n))}]")
    F = FreeModule(R, [(0,), (1,), (1,)][: rng.randint(1, 3)])
    return F, random_columns(F, [(1,), (2,)], STANDARD_STEPS, rng)


def nakayama_greedy(F, cols):
    """The second reference scan: same order, and a column of degree d is
    kept when its coefficient vector is not in the k-span of the products
    m*h of the kept columns h with deg m = d - deg h (graded Nakayama)."""
    return ref_minimal_generators(F, columns(matrix(F, cols)))


class TestAgainstGroebnerScan:
    def check(self, F, cols, order=DEGREVLEX):
        kept = mingens(F, cols)
        assert kept == gb_greedy(F, cols, order) == nakayama_greedy(F, cols)
        return kept

    def test_prime_fields_and_rationals(self):
        for K, seeds in ((GF(2), 12), (GF(32003), 12), (QQ, 6)):
            rng = random.Random(f"mingens:{K.name}")
            for _ in range(seeds):
                self.check(*standard_case(K, rng.randint(2, 4), rng))

    def test_bigraded_ring(self):
        R = parse_ring("ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]")
        steps = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]
        rng = random.Random(7)
        for _ in range(10):
            F = FreeModule(R, [(0, 0), (1, 0), (0, 1)][: rng.randint(1, 3)])
            self.check(F, random_columns(F, [(1, 0), (0, 1), (1, 1)], steps, rng))

    def test_degree_gaps_of_two_or_more(self):
        rng = random.Random(11)
        seen_gap = False
        for _ in range(10):
            R = parse_ring("ring F32003 [x,y,z]")
            F = FreeModule(R, [(0,)])
            cols = random_columns(F, [(1,)], [(2,), (3,)], rng)
            kept = self.check(F, cols)
            low = min(sum(col_degree(F, cols[i])) for i in kept)
            seen_gap |= any(sum(col_degree(F, c)) - low >= 2 for c in cols if any(c))
        assert seen_gap

    def test_zero_and_duplicate_columns(self):
        R = parse_ring("ring F32003 [x,y]")
        F = FreeModule(R, [(0,), (0,)])
        cols = [["0", "0"], ["x^2", "0"], ["x^2", "0"], ["0", "0"], ["3*x^2", "x*y"], ["0", "5*x*y"]]
        cols = [[parse_poly(R, e) for e in c] for c in cols]
        assert self.check(F, cols) == [1, 4]
        assert self.check(F, [cols[0], cols[3]]) == []

    def test_rings_of_different_sizes_in_one_process(self):
        # fresh rings of alternating size, each dropped before the next is
        # made: CPython reuses the freed addresses, so a monomial cache keyed
        # on object identity would hand one ring the monomials of another
        K = GF(32003)
        for k in range(40):
            n = 2 + k % 3
            R = RingContext(K, [f"x{i}" for i in range(n)])
            assert all(len(m) == n and sum(m) == 2 for m in R.monomials((2,)))
            F = FreeModule(R, [(0,)])
            first, last = (tuple(2 * (i == j) for j in range(n)) for i in (0, n - 1))
            x_last = tuple(int(j == n - 1) for j in range(n))
            cols = [
                [Polynomial(R, {m: 1})]
                for m in (first, mon_mul(first, x_last), last, mon_mul(first, last))
            ]
            kept = self.check(F, cols)
            assert sorted(kept) == [0, 2]
            del R, F

    def test_negative_twists(self):
        # dual modules, as ann_ext resolves them, have negative twists; the
        # scan then starts below degree -1, where the basis must still be
        # completed before the first column of each degree is kept
        rng = random.Random(13)
        kept_below = 0
        for K in (GF(32003), GF(2), QQ):
            for _ in range(8):
                R = parse_ring(f"ring {K.name} [x,y,z]")
                F = FreeModule(R, [(-4,), (-3,), (-3,)][: rng.randint(1, 3)])
                cols = random_columns(F, [(-3,), (-2,)], STANDARD_STEPS, rng)
                kept_below += sum(sum(col_degree(F, cols[i])) < -1 for i in self.check(F, cols))
        assert kept_below

    def test_other_orders(self):
        # the degrevlex selection keeps the columns the reference scan keeps
        # under deglex, a permuted degrevlex, and a block order with two
        # degree fields
        rng = random.Random(17)
        for _ in range(12):
            F, cols = standard_case(GF(32003), rng.randint(3, 4), rng)
            n = F.ring.n
            for order in (DEGLEX, MonomialOrder("degrevlex", perm=list(range(n))[::-1]),
                          elimination_order(F.ring, F.ring.names[:2])):
                self.check(F, cols, order)

    def test_bigraded_ring_under_other_orders(self):
        R = parse_ring("ring F7 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]")
        steps = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
        rng = random.Random(19)
        for _ in range(8):
            F = FreeModule(R, [(0, 0), (-1, 0), (0, -1)][: rng.randint(1, 3)])
            cols = random_columns(F, [(1, 0), (0, 1), (1, 1)], steps, rng)
            for order in (DEGLEX, elimination_order(R, ["a", "b"])):
                self.check(F, cols, order)


def test_complete_through_a_degree_leaves_only_higher_pairs():
    """complete(d) processes the pairs of total degree (twist plus lcm
    degree) at most d and leaves the others pending; afterwards every
    element of the module of degree at most d reduces to zero, and a later
    complete() reaches the lead module a full completion gives."""
    rng = random.Random(23)
    pending = 0
    for _ in range(10):
        R = parse_ring("ring F32003 [x,y,z]")
        F = FreeModule(R, [(-1,), (0,), (0,)][: rng.randint(2, 3)])
        cols = [c for c in random_columns(F, [(1,), (2,)], STANDARD_STEPS, rng) if any(c)]
        base = DEGREVLEX.for_ring(R)
        lay = base.layout
        packed = matrix(F, cols).packed_columns()
        degs = column_degrees(F, lay, packed)
        lazy, full = (ModuleGB(ModuleOrder(base, F.rank), R.field, F.twists) for _ in range(2))
        for el in packed:
            lazy.add(el)
            full.add(el)
        d = min(sum(e) for e in degs) + 1
        lazy.complete(d)
        shifts = [sum(t) for t in F.twists]
        for i, j in lazy.pairs:
            assert shifts[lazy.basis[i][0] & FIELD_MASK] + lay.degree(lazy._pair_lcm[(i, j)]) > d
        pending += len(lazy.pairs)
        for el, e in zip(packed, degs):
            for m in map(lay.pack, R.monomials((d - sum(e),)) if d >= sum(e) else ()):
                assert not reduce_terms({P + m: v for P, v in el.items()}, lazy.reducers, lay, R.field)
        lazy.complete()
        full.complete()
        assert not lazy.pairs
        assert minimal_leads(lazy) == minimal_leads(full)
    assert pending


def minimal_leads(gb: ModuleGB) -> set[int]:
    """The leads of a basis that no other lead divides: the minimal
    generators of its lead module, the same for every Groebner basis."""
    leads, lay = {lead for lead, _, _ in gb.basis}, gb.lay
    return {L for L in leads if not any(M != L and lay.divides(M, L) for M in leads)}


@settings(max_examples=25, deadline=None)
@given(
    K=st.sampled_from([GF(2), GF(7), GF(32003), QQ]),
    n=st.integers(2, 3),
    seed=st.integers(0, 10**6),
)
def test_kept_columns_generate_every_column(K, n, seed):
    F, cols = standard_case(K, n, random.Random(seed))
    kept = mingens(F, cols)
    assert TaggedModule(matrix(F, [cols[i] for i in kept])).contains(matrix(F, cols))
    # and no kept column is generated by the others
    for i in kept:
        others = TaggedModule(matrix(F, [cols[j] for j in kept if j != i]))
        assert not others.contains(matrix(F, [cols[i]]))


def unpack(order: ModuleOrder, P: int):
    """A packed term of the module order as (component, monomial): a free
    term is m + c + flag, a tag term m*lead + c."""
    c, lay = P & FIELD_MASK, order.lay
    if P & lay.flag:
        return c, lay.unpack(P)
    return c, lay.unpack(P - order.packed_leads[c - order.n_free])


def full_product_koszul_tag(gb: ModuleGB, i: int, j: int) -> dict:
    """The former _koszul_tag: every term of element i times the free part
    of j, minus every term of j times the free part of i, with the free
    block thrown away afterwards; on unpacked {(component, monomial): c}."""
    K, order = gb.K, gb.order
    ei = dict((unpack(order, P), v) for P, v in gb.basis[i][2].items())
    ej = dict((unpack(order, P), v) for P, v in gb.basis[j][2].items())
    gi = {m: c for (c0, m), c in ei.items() if c0 < gb.n_free}
    gj = {m: c for (c0, m), c in ej.items() if c0 < gb.n_free}
    out: dict = {}
    for (c0, m), v in ei.items():
        for mm, cc in gj.items():
            key = (c0, mon_mul(m, mm))
            s = K.add(out.get(key, K.zero()), K.mul(v, cc))
            if K.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
    for (c0, m), v in ej.items():
        for mm, cc in gi.items():
            key = (c0, mon_mul(m, mm))
            s = K.sub(out.get(key, K.zero()), K.mul(v, cc))
            if K.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
    return {k: v for k, v in out.items() if k[0] >= gb.n_free}


def test_koszul_tag_is_the_tag_part_of_the_full_product(monkeypatch):
    original = ModuleGB._koszul_tag
    seen = []

    def checked(self, i, j):
        tau = original(self, i, j)
        unpacked = [(unpack(self.order, P), v) for P, v in tau.items()]
        assert unpacked == list(full_product_koszul_tag(self, i, j).items())
        seen.append(len(tau))
        return tau

    monkeypatch.setattr(ModuleGB, "_koszul_tag", checked)
    # inputs with coprime pairs that the strict-lcm criterion keeps
    for case, seed in (("2iv-d", 3), ("ht3-ii", 1), ("ht3-ii", 2), ("ht4-CI", 1)):
        TaggedModule(generator_row(generate_ideal(case, GF(7), seed)["ideal"])).syzygies()
    # the injections happened, and had tag terms of more than one generator
    assert len(seen) >= 3 and max(seen) > 2


def generator_row(I) -> PolyMatrix:
    """The 1 x s matrix of the generators of I."""
    F = FreeModule(I.ring, [I.ring.zero_deg])
    return PolyMatrix(F, FreeModule(I.ring, [g.degree() for g in I.gens]), [list(I.gens)])


class CoprimeFirstGB(ModuleGB):
    """The coprime-first rule, the reference for ModuleGB's order of the
    criteria: the coprime test runs first, on every new pair, and builds a
    Koszul tag even for a pair that the strict-lcm criterion would drop."""

    def _add_reduced(self, el: dict):
        lay = self.lay
        k = len(self.basis)
        lead = self._insert(el)
        if not lead & lay.flag:
            return
        self.reducers[lead & FIELD_MASK].append(self.basis[k])
        mono = lead - (lead & lay.frame)
        same = [i for i in range(k) if self.basis[i][0] & lay.frame == lead & lay.frame]
        lcms = {i: lay.lcm(self.basis[i][0], lead) for i in same}
        drop = set()
        for p in self.pairs:
            i, j = p
            if i not in lcms:
                continue
            l = self._pair_lcm[p]
            if lay.divides(mono, l) and lcms[i] != l and lcms[j] != l:
                drop.add(p)
        self.pairs.difference_update(drop)
        new: dict[int, int] = {}
        for i in same:
            if self.use_coprime and lay.degree(lcms[i]) == lay.degree(self.basis[i][0]) + lay.degree(lead):
                tau = self._koszul_tag(i, k) if self.tagged else None
                if tau:
                    self._insert(tau)
                continue
            new.setdefault(lcms[i], i)
        for i in new.values():
            l = lcms[i]
            if any(lcms[j] != l and lay.divides(lcms[j], l) for j in new.values()):
                continue
            self.pairs.add((i, k))
            self._pair_lcm[(i, k)] = l
            self._pair_key[(i, k)] = (lay.degree(l), lay.key(l))


def counted_syzygies(monkeypatch, rule, M: PolyMatrix):
    """modules.syzygy_matrix(M) with rule as the pair manager, and the
    number of Koszul tags built and of S-pairs reduced in tagged bases."""
    counts = {"tags": 0, "tagged_pairs": 0}
    complete, koszul_tag, s_element = ModuleGB.complete, ModuleGB._koszul_tag, groebner.s_element
    tagged = []

    def counting_complete(self, through=None):
        tagged.append(self.tagged)
        try:
            complete(self, through)
        finally:
            tagged.pop()

    def counting_tag(self, i, j):
        counts["tags"] += 1
        return koszul_tag(self, i, j)

    def counting_s_element(*args):
        counts["tagged_pairs"] += bool(tagged and tagged[-1])
        return s_element(*args)

    with monkeypatch.context() as m:
        m.setattr(modules, "ModuleGB", rule)
        m.setattr(ModuleGB, "complete", counting_complete)
        m.setattr(ModuleGB, "_koszul_tag", counting_tag)
        m.setattr(groebner, "s_element", counting_s_element)
        S = modules.syzygy_matrix(M)
    return S, counts


def test_gebauer_moeller_order_keeps_the_syzygies_with_less_work(monkeypatch):
    """The coprime test runs after the equal-lcm and strict-lcm criteria:
    on the generator row of every form, the minimal syzygies have the same
    degrees as under the coprime-first rule and span the same module, and
    the new rule builds no more Koszul tags and reduces no more tagged
    S-pairs."""
    inputs = [(case, field, seed) for case in FORMS for field in (GF(7), GF(32003)) for seed in (0, 1)]
    inputs += [(case, QQ, 0) for case in FORMS]
    for case, field, seed in inputs:
        M = generator_row(generate_ideal(case, field, seed)["ideal"])
        got, work = counted_syzygies(monkeypatch, ModuleGB, M)
        want, ref_work = counted_syzygies(monkeypatch, CoprimeFirstGB, M)
        where = (case, field.name, seed)
        assert sorted(got.source.twists) == sorted(want.source.twists), where
        assert TaggedModule(got).contains(want) and TaggedModule(want).contains(got), where
        assert work["tags"] <= ref_work["tags"], (where, work, ref_work)
        assert work["tagged_pairs"] <= ref_work["tagged_pairs"], (where, work, ref_work)
    # the coprime pairs of these inputs all fall to the strict-lcm criterion
    for case, field in (("2iii", GF(32003)), ("2iv-d", GF(32003)), ("2ii", GF(7))):
        M = generator_row(generate_ideal(case, field, 3)["ideal"])
        assert counted_syzygies(monkeypatch, ModuleGB, M)[1]["tags"] == 0, case
        assert counted_syzygies(monkeypatch, CoprimeFirstGB, M)[1]["tags"] > 0, case


def in_span(F, gens, col):
    """Degreewise linear algebra: a homogeneous column of degree d lies in
    the span of the columns gens exactly when its coefficient vector lies
    in the k-span of the products m*g, with deg m = d - deg g."""
    R, K = F.ring, F.ring.field
    d = col_degree(F, col)
    if d is None:
        return not any(col)
    products = []
    for g in gens:
        e = col_degree(F, g)
        for m in R.monomials(sub_deg(d, e)) if e is not None else ():
            products.append({(r, mon_mul(m, t)): c for r, f in enumerate(g) for t, c in f.terms.items()})
    target = {(r, t): c for r, f in enumerate(col) for t, c in f.terms.items()}
    coords = sorted(set(target).union(*products))
    vector = lambda v: [v.get(k, K.zero()) for k in coords]
    return in_row_space(K, [vector(p) for p in products], vector(target))


BIGRADED = parse_ring("ring F7 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]")


@settings(max_examples=40, deadline=None)
@given(
    K=st.sampled_from([GF(2), GF(7), GF(32003), QQ, None]),
    seed=st.integers(0, 10**6),
)
def test_reduce_writes_each_column_as_normal_form_plus_combination(K, seed):
    """N = R + M*X entry for entry, and a column of R is zero exactly when
    that column of N lies in the span of the columns of M.  N holds random
    columns and combinations of them; M takes some of those columns."""
    rng = random.Random(seed)
    if K is None:
        steps = [(0, 0), (1, 0), (0, 1), (1, 1)]
        F = FreeModule(BIGRADED, [(0, 0), (1, 0), (0, 1)][: rng.randint(1, 2)])
        cols = random_columns(F, [(1, 0), (0, 1)], steps, rng)
    else:
        F, cols = standard_case(K, rng.randint(2, 3), rng)
    gens = rng.sample(cols, rng.randint(0, min(4, len(cols))))
    M, N = matrix(F, gens), matrix(F, cols)
    R, X = TaggedModule(M).reduce(N)
    assert (R.target, R.source, X.target, X.source) == (F, N.source, M.source, N.source)
    MX = M.compose(X)
    assert all(
        N.entries[r][c] == R.entries[r][c] + MX.entries[r][c] for r in range(F.rank) for c in range(N.ncols)
    )
    members = [in_span(F, gens, col) for col in cols]
    assert [not any(row[c] for row in R.entries) for c in range(N.ncols)] == members
    assert TaggedModule(M).contains(N) == all(members)
