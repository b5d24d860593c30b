"""The packed-int engines: order keys against the tuple keys they replaced,
and typed errors for terms that outgrow the packed fields."""

import random

import pytest

from koszulkit import FreeModule, PolyMatrix, parse_poly, parse_ring
from koszulkit.groebner import buchberger, normal_form, reduce_terms
from koszulkit.modules import ModuleOrder, TaggedModule
from koszulkit.ring import (
    DEGREVLEX,
    FIELD_MASK,
    MonomialOrder,
    MonomialOverflow,
    RingError,
    elimination_order,
    mon_mul,
)


# -- the tuple keys of the former engines, kept as the reference -------------


def tuple_key(order: MonomialOrder, m):
    e = m if order.perm is None else tuple(m[i] for i in order.perm)
    if order.kind == "degrevlex":
        return (sum(e), tuple(-x for x in reversed(e)))
    if order.kind == "deglex":
        return (sum(e), e)
    f, b = e[: order.front], e[order.front:]
    return (
        (sum(f), tuple(-x for x in reversed(f))),
        (sum(b), tuple(-x for x in reversed(b))),
    )


def tuple_module_key(order: ModuleOrder, tag_leads, cm):
    c, m = cm
    if c < order.n_free:
        return (1, tuple_key(order.base, m), -c)
    return (0, tuple_key(order.base, mon_mul(m, tag_leads[c - order.n_free])), -c)


STANDARD = "ring F32003 [x,y,z,w,v]"
BIGRADED = "ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1),c:(0,1)]"


def orders_of(ring, rng):
    n = ring.n
    perm = rng.sample(range(n), n)
    out = []
    for kind in ("degrevlex", "deglex"):
        out.append(MonomialOrder(kind).for_ring(ring))
        out.append(MonomialOrder(kind, perm=perm, n=n))
    for front in (1, 2, n - 1):
        out.append(MonomialOrder("block", perm=list(range(n)), front=front, n=n))
        out.append(MonomialOrder("block", perm=perm, front=front, n=n))
    return out


def monomials_of(ring, rng, k=300, top=6):
    """Random monomials, plus whole degree slices, where only the fields
    below the degree decide."""
    mons = {tuple(rng.randrange(top) for _ in range(ring.n)) for _ in range(k)}
    for d in [(2, 1), (1, 2)] if ring.bigraded else [(1,), (2,), (3,)]:
        mons.update(ring.monomials(d))
    return sorted(mons)


class TestOrderKeys:
    @pytest.mark.parametrize("decl", [STANDARD, BIGRADED])
    def test_sorting_matches_tuple_keys(self, decl):
        ring = parse_ring(decl)
        rng = random.Random(decl)
        mons = monomials_of(ring, rng)
        for order in orders_of(ring, rng):
            assert sorted(mons, key=order.key) == sorted(mons, key=lambda m: tuple_key(order, m)), order

    def test_packed_key_is_linear_and_unpacks(self):
        ring = parse_ring(STANDARD)
        rng = random.Random(3)
        for order in orders_of(ring, rng):
            lay = order.layout
            for _ in range(50):
                a = tuple(rng.randrange(9) for _ in range(ring.n))
                b = tuple(rng.randrange(9) for _ in range(ring.n))
                pa, pb = lay.pack(a), lay.pack(b)
                assert lay.unpack(pa) == a
                assert lay.pack(mon_mul(a, b)) == pa + pb
                assert lay.key(pa + pb) == lay.key(pa) + lay.key(pb) == order.key(mon_mul(a, b))
                divides = all(x <= y for x, y in zip(a, b))
                assert lay.divides(pa, pb) == divides
                assert lay.unpack(lay.lcm(pa, pb)) == tuple(map(max, a, b))

    @pytest.mark.parametrize("decl", [STANDARD, BIGRADED])
    def test_module_order_with_free_and_tag_components(self, decl):
        ring = parse_ring(decl)
        rng = random.Random(11)
        mons = monomials_of(ring, rng, k=60, top=4)
        leads = [rng.choice(mons) for _ in range(3)]
        for base in orders_of(ring, rng):
            lay = base.layout
            order = ModuleOrder(base, 2, [lay.pack(m) for m in leads])

            def pack(cm):
                # a free term as m + c + flag, a tag term as m*lead + c
                c, m = cm
                if c < order.n_free:
                    return lay.pack(m) + c + lay.flag
                return lay.pack(m) + order.packed_leads[c - order.n_free] + c

            terms = [(c, m) for c in range(5) for m in rng.sample(mons, 25)]
            assert sorted(terms, key=lambda cm: lay.key(pack(cm))) == sorted(
                terms, key=lambda cm: tuple_module_key(order, leads, cm)
            ), base
            for c, m in terms:  # the component field and the monomial decode
                P = pack((c, m))
                tag_lead = 0 if P & lay.flag else order.packed_leads[c - order.n_free]
                assert (P & FIELD_MASK, lay.unpack(P - tag_lead)) == (c, m)
            # the engines order terms by the int P ^ neg, which differs from
            # the key by one constant over free and tag terms of every component
            assert {lay.key(pack(cm)) - (pack(cm) ^ lay.neg) for cm in terms} == {-lay.neg}, base

    def test_for_ring_returns_one_order_per_ring_size(self):
        a, b = parse_ring("ring F7 [x,y,z]"), parse_ring("ring QQ [p,q,r]")
        assert DEGREVLEX.for_ring(a) is DEGREVLEX.for_ring(b)
        assert DEGREVLEX.for_ring(a).layout is MonomialOrder("degrevlex", n=3).layout
        assert DEGREVLEX.for_ring(parse_ring("ring F7 [x,y]")).layout.n == 2


class TestOverflow:
    def test_exponent_beyond_the_field_width(self):
        ring = parse_ring("ring F32003 [x,y,z]")
        lay = DEGREVLEX.for_ring(ring).layout
        assert lay.unpack(lay.pack((2 ** 15 - 1, 0, 0))) == (2 ** 15 - 1, 0, 0)
        with pytest.raises(MonomialOverflow):
            lay.pack((2 ** 15, 0, 0))
        with pytest.raises(MonomialOverflow):
            lay.pack((2 ** 14, 2 ** 14, 0))  # each exponent fits, the degree does not
        big = ring.var("x") ** (2 ** 15) + ring.var("y") ** (2 ** 15)
        with pytest.raises(MonomialOverflow):
            buchberger([big])
        assert issubclass(MonomialOverflow, RingError)

    def test_s_pair_degree_beyond_the_field_width(self):
        # both generators fit (degree 20001), but their S-pair has degree
        # 40000, past the 2^15 a field can hold
        ring = parse_ring("ring F32003 [x,y,z]")
        f = parse_poly(ring, "x^20000*y + z^20001")
        g = parse_poly(ring, "x*y^20000 + z^20001")
        with pytest.raises(MonomialOverflow):
            buchberger([f, g])

    def test_block_order_growth_is_caught(self):
        # under an elimination order the tails outgrow the leads, so
        # reduction raises the degree of the back block on every step
        ring = parse_ring("ring F32003 [t,x]")
        order = elimination_order(ring, ["t"])
        gb = buchberger([parse_poly(ring, "t - x^16000")], order)
        assert gb.elements[0].terms == {(1, 0): 1, (0, 16000): ring.field.from_int(-1)}
        with pytest.raises(MonomialOverflow):
            normal_form(parse_poly(ring, "t^3"), gb)
        assert normal_form(parse_poly(ring, "t^2"), gb) == parse_poly(ring, "x^32000")

    def test_module_twist_spread_is_caught(self):
        # F = S (+) S(-20000): h = g2 - g1 has its lead in the second
        # component but carries the tags of g1 and g2, which sit 20000 higher;
        # the S-pair of h and g3 has lcm degree 13001, and its tags 33001
        ring = parse_ring("ring F32003 [x,y]")
        F = FreeModule(ring, [(0,), (20000,)])
        P = lambda s: parse_poly(ring, s)
        M = PolyMatrix(
            F,
            FreeModule(ring, [(20001,), (20001,), (33000,)]),
            [[P("x^20001"), P("x^20001"), ring.zero()], [P("x"), P("y"), P("y^13000")]],
        )
        with pytest.raises(MonomialOverflow):
            TaggedModule(M).syzygies()

    def test_tag_terms_are_checked_past_the_first(self):
        # under an elimination order a tag term of lower front degree sorts
        # after one of higher front degree, whatever its total degree; the
        # tail of tag terms returned untouched is checked as well
        ring = parse_ring("ring F32003 [t,x]")
        lay = elimination_order(ring, ["t"]).layout
        first = lay.pack((1, 0)) + 1
        grown = lay.pack((0, 20000)) + lay.pack((0, 13000)) + 1  # x^33000, past the guard
        assert lay.key(first) > lay.key(grown)
        with pytest.raises(MonomialOverflow):
            reduce_terms({first: 1, grown: 1}, [[]], lay, ring.field)
        assert reduce_terms({first: 1, lay.pack((0, 9)) + 1: 1}, [[]], lay, ring.field)
