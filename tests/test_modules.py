"""Minimal module generators: the degreewise linear-algebra scan against the
Groebner-basis greedy scan it replaced, and the generation property."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import GF, QQ, FreeModule, parse_ring
from koszulkit.forms import generate_ideal
from koszulkit.modules import ModuleGB, ModuleOrder, TaggedModule, column_degrees, minimal_module_generators
from koszulkit.ring import DEGREVLEX, RingContext, add_deg, mon_mul, sub_deg


def mel_degree(ring, twists, el):
    """Common degree of a homogeneous {(component, monomial): c} element,
    None if mixed."""
    degs = {add_deg(twists[c], ring.mon_degree(m)) for c, m in el}
    return degs.pop() if len(degs) == 1 else None


def mingens(F, cols):
    """minimal_module_generators on {(component, monomial): c} columns,
    packed as PolyMatrix.packed_columns packs them."""
    base = DEGREVLEX.for_ring(F.ring)
    packed = [ModuleOrder(base, F.rank).pack_element(c) for c in cols]
    return minimal_module_generators(F, packed, column_degrees(F, base.layout, packed), base.layout)


def gb_greedy(F, cols):
    """The reference scan: same order, and a column is kept when it does not
    reduce to zero modulo a completed Groebner basis of the kept ones."""
    ring = F.ring
    degs = [mel_degree(ring, F.twists, c) for c in cols]
    gb = ModuleGB(ModuleOrder(DEGREVLEX.for_ring(ring), F.rank), ring.field)
    idx = sorted(
        (i for i in range(len(cols)) if cols[i]),
        key=lambda i: (sum(degs[i]), degs[i], sorted(cols[i].keys())),
    )
    kept = []
    for i in idx:
        if gb.add(gb.order.pack_element(cols[i])):
            kept.append(i)
            gb.complete()
    return kept


def add_into(K, acc, col):
    for k, v in col.items():
        s = K.add(acc.get(k, K.zero()), v)
        if K.is_zero(s):
            acc.pop(k, None)
        else:
            acc[k] = s


def random_column(F, d, rng, density=0.5):
    """A random homogeneous element of F of degree d (possibly zero)."""
    R, K = F.ring, F.ring.field
    col = {}
    for r, t in enumerate(F.twists):
        for m in R.monomials(sub_deg(d, t)):
            c = K.random(rng)
            if rng.random() < density and not K.is_zero(c):
                col[(r, m)] = c
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
        combo = {}
        for h in rng.sample(cols, min(len(cols), rng.randint(1, 3))):
            e = sub_deg(d, mel_degree(R, F.twists, h)) if h else None
            mons = R.monomials(e) if e is not None else ()
            if mons:
                m = rng.choice(mons)
                c = K.random(rng)
                add_into(K, combo, {(r, mon_mul(m, hm)): K.mul(c, v) for (r, hm), v in h.items()})
        if rng.random() < 0.4:
            add_into(K, combo, random_column(F, d, rng, 0.3))
        cols.append(combo)
    cols.append({})
    cols.extend(dict(rng.choice(cols)) for _ in range(rng.randint(1, 2)))
    rng.shuffle(cols)
    return cols


STANDARD_STEPS = [(0,), (1,), (2,), (3,)]


def standard_case(K, n, rng):
    R = parse_ring(f"ring {K.name} [{','.join(f'x{i}' for i in range(n))}]")
    F = FreeModule(R, [(0,), (1,), (1,)][: rng.randint(1, 3)])
    return F, random_columns(F, [(1,), (2,)], STANDARD_STEPS, rng)


class TestAgainstGroebnerScan:
    def check(self, F, cols):
        assert mingens(F, cols) == gb_greedy(F, cols)

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
            kept = mingens(F, cols)
            assert kept == gb_greedy(F, cols)
            low = min(sum(mel_degree(R, F.twists, cols[i])) for i in kept)
            seen_gap |= any(sum(mel_degree(R, F.twists, c)) - low >= 2 for c in cols if c)
        assert seen_gap

    def test_zero_and_duplicate_columns(self):
        R = parse_ring("ring F32003 [x,y]")
        F = FreeModule(R, [(0,), (0,)])
        x2, xy = (2, 0), (1, 1)
        cols = [{}, {(0, x2): 1}, {(0, x2): 1}, {}, {(0, x2): 3, (1, xy): 1}, {(1, xy): 5}]
        assert mingens(F, cols) == gb_greedy(F, cols) == [1, 4]
        assert mingens(F, [{}, {}]) == []

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
                {(0, first): 1},
                {(0, mon_mul(first, x_last)): 1},
                {(0, last): 1},
                {(0, mon_mul(first, last)): 1},
            ]
            kept = mingens(F, cols)
            assert kept == gb_greedy(F, cols) and sorted(kept) == [0, 2]
            del R, F


@settings(max_examples=25, deadline=None)
@given(
    K=st.sampled_from([GF(2), GF(7), GF(32003), QQ]),
    n=st.integers(2, 3),
    seed=st.integers(0, 10**6),
)
def test_kept_columns_generate_every_column(K, n, seed):
    F, cols = standard_case(K, n, random.Random(seed))
    kept = mingens(F, cols)
    span = TaggedModule(F, [cols[i] for i in kept])
    assert all(span.contains(c) for c in cols)
    # and no kept column is generated by the others
    for i in kept:
        others = TaggedModule(F, [cols[j] for j in kept if j != i])
        assert not others.contains(cols[i])


def full_product_koszul_tag(gb: ModuleGB, i: int, j: int) -> dict:
    """The former _koszul_tag: every term of element i times the free part
    of j, minus every term of j times the free part of i, with the free
    block thrown away afterwards; on unpacked {(component, monomial): c}."""
    K, order = gb.K, gb.order
    ei = dict((order.unpack(P), v) for P, v in gb.basis[i][2].items())
    ej = dict((order.unpack(P), v) for P, v in gb.basis[j][2].items())
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
        unpacked = [(self.order.unpack(P), v) for P, v in tau.items()]
        assert unpacked == list(full_product_koszul_tag(self, i, j).items())
        seen.append(len(tau))
        return tau

    monkeypatch.setattr(ModuleGB, "_koszul_tag", checked)
    for case, field in (("2iii", GF(32003)), ("2iv-d", GF(32003)), ("2ii", GF(7))):
        I = generate_ideal(case, field, 3)["ideal"]
        F = FreeModule(I.ring, [I.ring.zero_deg])
        TaggedModule(F, [{(0, m): c for m, c in g.terms.items()} for g in I.gens]).syzygies()
    # the injections happened, and had tag terms of more than one generator
    assert len(seen) >= 3 and max(seen) > 2
