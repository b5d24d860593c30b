"""Buchberger's algorithm, normal forms, and ideal arithmetic."""

import random
from fractions import Fraction

import pytest

from koszulkit import (
    DEGLEX,
    DEGREVLEX,
    GF,
    Ideal,
    MonomialOrder,
    buchberger,
    colon,
    eliminate,
    exact_div,
    g_quadratic_search,
    ideal_equal,
    intersect,
    is_quadratic_gb,
    is_subideal,
    normal_form,
    Polynomial,
    parse_poly,
    parse_ring,
    saturate,
    verify_basis,
)
from koszulkit import groebner
from koszulkit.groebner import GroebnerError, lead_term, reduce_terms, scaled
from koszulkit.ring import FIELD_MASK, RingContext, elimination_order, primitive_scale


def P(R, s):
    return parse_poly(R, s)


def ideal(R, *texts):
    return Ideal([P(R, t) for t in texts], R)


class TestBuchberger:
    def test_hand_division_trace(self, qq_xy):
        # S(x^2 - y^2, x*y) = y*(x^2 - y^2) - x*(x*y) = -y^3; irreducible,
        # so the basis closes with y^3 (recorded by-hand trace)
        R = qq_xy
        gb = buchberger([P(R, "x^2-y^2"), P(R, "x*y")])
        assert sorted(str(g) for g in gb.elements) == ["x*y", "x^2 - y^2", "y^3"]
        assert verify_basis(gb)

    def test_monomial_ideal_minimal_generators(self):
        R = parse_ring("ring QQ [x,y,z]")
        gb = buchberger([P(R, "x*y"), P(R, "x*y*z"), P(R, "y*z")])
        assert sorted(str(g) for g in gb.elements) == ["x*y", "y*z"]

    def test_stated_permuted_deglex_basis(self, generic_one_syzygy):
        # the four generators are already a reduced basis under the stated
        # permuted degree-lexicographic order
        R = generic_one_syzygy["ring"]
        I = generic_one_syzygy["ideal"]
        order = MonomialOrder("deglex", n=R.n)  # ring declares a3,b3,b4,a4,x,y,z
        gb = buchberger(I.gens, order)
        assert len(gb) == 4
        assert is_quadratic_gb(gb)
        monic_gens = sorted(str(g.monic(order)) for g in I.gens)
        assert sorted(str(g) for g in gb.elements) == monic_gens

    def test_input_generators_have_zero_normal_form(self):
        R = parse_ring("ring F32003 [x,y,z,w]")
        rng = random.Random(2)
        from koszulkit.forms import random_quadric

        gens = [random_quadric(R, rng) for _ in range(3)]
        gb = buchberger(gens)
        for g in gens:
            assert not normal_form(g, gb)
        assert verify_basis(gb)

    def test_spair_postcondition_random_battery(self):
        rng = random.Random(77)
        from koszulkit.forms import random_quadric

        for trial in range(10):
            n = rng.randint(2, 4)
            R = parse_ring(f"ring F32003 [{','.join('uvwxyz'[:n])}]")
            gens = [random_quadric(R, rng) for _ in range(rng.randint(2, 4))]
            gb = buchberger(gens)
            assert verify_basis(gb)


class TestNormalForm:
    def test_membership_gives_zero(self, qq_xy):
        R = qq_xy
        gb = buchberger([P(R, "x^2-y^2"), P(R, "x*y")])
        assert not normal_form(P(R, "x^3 - x*y^2"), gb)

    def test_unit_survives_proper_ideal(self, qq_xy):
        R = qq_xy
        gb = buchberger([P(R, "x^2-y^2"), P(R, "x*y")])
        assert normal_form(R.one(), gb) == R.one()

    def test_single_reduction_step(self, qq_xy):
        R = qq_xy
        gb = buchberger([P(R, "x^2-y^2"), P(R, "x*y")])
        nf = normal_form(P(R, "x^2"), gb)
        assert nf == P(R, "y^2")
        # re-adding the reducer recovers membership
        assert not normal_form(P(R, "x^2") - nf, gb)

    def test_idempotent(self, qq_xy):
        R = qq_xy
        gb = buchberger([P(R, "x^2-y^2"), P(R, "x*y")])
        nf = normal_form(P(R, "x^3 + y^3 + x"), gb)
        assert normal_form(nf, gb) == nf

    def test_order_independent_membership(self):
        R = parse_ring("ring F32003 [x,y,z]")
        rng = random.Random(4)
        from koszulkit.forms import random_quadric

        I = Ideal([random_quadric(R, rng) for _ in range(2)], R)
        for _ in range(10):
            f = random_quadric(R, rng) * random_quadric(R, rng)
            in1 = not normal_form(f, I.gb())
            in2 = not normal_form(f, buchberger(I.gens, DEGLEX))
            assert in1 == in2


def reference_reduce(terms, reducers, lay, K):
    """Division with every coefficient reduced at every step, the reference
    for groebner.reduce_terms: the largest free term is reduced by the first
    reducer in its component whose lead divides it, or else moved to the
    remainder, until no free term is left; tag terms are never reduced, and
    one whose sum reaches zero leaves.  Returns the remainder with the tag
    terms, and how many times a tag term arose again after cancelling."""
    work = {T: K.coerce(c) for T, c in terms.items() if not K.is_zero(K.coerce(c))}
    rem, gone, revived = {}, set(), 0
    while any(T & lay.flag for T in work):
        P = max((T for T in work if T & lay.flag), key=lay.key)
        for lead, lc, g in reducers[P & FIELD_MASK]:
            if lay.divides(lead, P):
                f, q = K.div(work[P], lc), P - lead
                for T, tc in g.items():
                    s = K.sub(work.get(q + T, K.zero()), K.mul(f, tc))
                    if K.is_zero(s):
                        work.pop(q + T, None)
                        gone.add(q + T)
                    else:
                        revived += q + T in gone and q + T not in work and not (q + T) & lay.flag
                        work[q + T] = s
                assert P not in work
                break
        else:
            rem[P] = work.pop(P)
    return {**rem, **work}, revived


class TestReductionLoop:
    """reduce_terms sums its coefficients unreduced and coerces each once; on
    random packed elements with free and tag parts it agrees with the
    reference division, which reduces every coefficient at every step."""

    @staticmethod
    def random_case(R, lay, rng):
        """Reducers in two free components, an element to reduce and the
        S-elements of same-component reducer pairs.  Most cases take
        their coefficients from +-1, so that tag sums cancel in every field;
        reducer lead coefficients are not always one."""
        K, n_free = R.field, 2
        pool = [1, -1] if rng.random() < 0.7 else list(range(-9, 10))
        tag_leads = [lay.pack(m) for m in R.monomials((1,))][:2]

        def coeff():
            while True:
                c = K.coerce(rng.choice(pool))
                if not K.is_zero(c):
                    return c

        def mono(d):
            m = [0] * R.n
            for _ in range(d):
                m[rng.randrange(R.n)] += 1
            return lay.pack(tuple(m))

        def element(comps, degs, n_terms, n_tags):
            el = {mono(rng.choice(degs)) + rng.choice(comps) + lay.flag: coeff() for _ in range(n_terms)}
            for _ in range(n_tags):
                k = rng.randrange(len(tag_leads))
                el[mono(rng.random() < 0.2) + tag_leads[k] + n_free + k] = coeff()
            return el

        reducers = [[] for _ in range(n_free)]
        for _ in range(rng.randint(2, 6)):
            c = rng.randrange(n_free)
            g = element([c], (1, 2), rng.randint(1, 3), rng.randint(0, 3))
            lead = lead_term(g, lay)
            if not rng.randrange(3):  # a non-monic reducer
                g = scaled(g, coeff(), K)
            reducers[c].append((lead, g[lead], g))
        el = element(range(n_free), (2, 3), rng.randint(1, 8), rng.randint(0, 4))
        s_elements = [
            groebner.s_element(a, b, lay.lcm(a[0], b[0]) + (a[0] & lay.frame), K)
            for rs in reducers for i, a in enumerate(rs) for b in rs[i + 1:]
        ]
        return reducers, [el] + s_elements

    @pytest.mark.parametrize("field", ["F2", "F7", "F32003", "QQ"])
    def test_matches_the_reference_division(self, field):
        R = parse_ring(f"ring {field} [x,y,z]")
        rng = random.Random(f"reduce:{field}")
        revived = unreduced = 0
        for order in (DEGREVLEX.for_ring(R), DEGLEX.for_ring(R), elimination_order(R, [0])):
            lay = order.layout
            for _ in range(100):
                reducers, inputs = self.random_case(R, lay, rng)
                for el in inputs:
                    want, k = reference_reduce(el, reducers, lay, R.field)
                    revived += k
                    unreduced += any(R.field.coerce(c) != c or R.field.is_zero(c) for c in el.values())
                    got = reduce_terms(el, reducers, lay, R.field)
                    assert got == want, (order, el, reducers)
                    assert all(not R.field.is_zero(c) and R.field.coerce(c) == c for c in got.values())
        assert revived > 0 and unreduced > 0

    def test_colon_principal(self, qq_xy):
        R = qq_xy
        assert ideal_equal(colon(ideal(R, "x^2"), P(R, "x")), ideal(R, "x"))

    def test_colon_case_a(self):
        R = parse_ring("ring F32003 [x,y,a3,b3,a4,b4]")
        J = ideal(R, "x^2", "b3*x", "a3*x+b3*y")
        got = colon(J, P(R, "a4*x+b4*y"))
        want = ideal(R, "x^2", "x*b3", "b3^2", "a3*x+b3*y")
        assert ideal_equal(got, want)

    def test_colon_case_b(self):
        R = parse_ring("ring F32003 [x,y,a2,b3,a4,b4]")
        J = ideal(R, "x*y", "a2*x", "b3*y")
        got = colon(J, P(R, "a4*x+b4*y"))
        want = intersect(ideal(R, "x", "b3"), ideal(R, "y", "a2"))
        assert ideal_equal(got, want)

    def test_colon_by_zero_ideal_raises(self, qq_xy):
        with pytest.raises(GroebnerError):
            colon(ideal(qq_xy, "x"), Ideal([], qq_xy))

    def test_intersect_coprime_principal(self, qq_xy):
        R = qq_xy
        assert ideal_equal(intersect(ideal(R, "x"), ideal(R, "y")), ideal(R, "x*y"))

    def test_intersect_two_planes_double_inclusion(self):
        R = parse_ring("ring QQ [x,y,z,w]")
        got = intersect(ideal(R, "x", "y"), ideal(R, "z", "w"))
        want = ideal(R, "x*z", "x*w", "y*z", "y*w")
        assert is_subideal(got, want) and is_subideal(want, got)

    def test_transversality_of_independent_pairs(self):
        R = parse_ring("ring QQ [a1,a2,b3,b4,x,y]")
        I1 = ideal(R, "a1*x", "a2*x")
        I2 = ideal(R, "b3*y", "b4*y")
        prod = Ideal([f * g for f in I1.gens for g in I2.gens], R)
        assert ideal_equal(intersect(I1, I2), prod)

    def test_colon_generators_multiply_in(self):
        R = parse_ring("ring F32003 [x,y,z]")
        I = ideal(R, "x^2*z", "y*z^2")
        J = ideal(R, "z", "x*y")
        Q = colon(I, J)
        for f in Q.gens:
            for g in J.gens:
                assert I.contains(f * g)

    def test_eliminate_consistent_with_intersect(self, qq_xy):
        R = qq_xy
        got = intersect(ideal(R, "x"), ideal(R, "y"))
        assert [str(g) for g in got.gens] == ["x*y"]

    def test_eliminate_simple(self):
        R = parse_ring("ring QQ [x,y]")
        out = eliminate(ideal(R, "x*y", "x*y^2"), ["x"])
        assert out.is_zero()
        out2 = eliminate(ideal(R, "x - y^2"), ["x"])
        assert out2.is_zero()

    def test_eliminate_keeps_back_variables(self):
        R = parse_ring("ring QQ [t,x,y]")
        # t*x and (1-t)*y generate: eliminating t leaves x*y
        I = ideal(R, "t*x", "x*y - t*x*y", "y - t*y - y + t*y")  # filler zero gen dropped
        I = Ideal([P(R, "t*x"), P(R, "y - t*y")], R)
        out = eliminate(I, ["t"])
        assert [str(g) for g in out.gens] == ["x*y"]

    def test_saturate_examples(self, qq_xy):
        R = qq_xy
        assert ideal_equal(saturate(ideal(R, "x^2", "x*y"), ideal(R, "x", "y")), ideal(R, "x"))
        I = ideal(R, "x^2", "x*y")
        assert ideal_equal(saturate(I, Ideal([R.one()], R)), I)

    def test_saturate_two_planes(self):
        R = parse_ring("ring QQ [x,y,z,w]")
        got = saturate(ideal(R, "x*z", "x*w", "y*z", "y*w"), ideal(R, "x", "y"))
        want = ideal(R, "z", "w")
        assert is_subideal(got, want) and is_subideal(want, got)

    def test_exact_div(self, qq_xy):
        R = qq_xy
        assert exact_div(P(R, "x^2*y - x*y^2"), P(R, "x*y")) == P(R, "x - y")
        with pytest.raises(GroebnerError):
            exact_div(P(R, "x^2 + y"), P(R, "x"))


# ---------------------------------------------------------------------------
# intersect and colon on the syzygy engine against the elimination
# constructions they replaced, kept here as references


def reference_intersect(I, J):
    """I cap J as (t*I + (1 - t)*J) cap k[x], eliminating an auxiliary
    variable t appended to the ring (weighted as the first variable)."""
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal([], ring)
    ext = RingContext(ring.field, ring.names + ["t_"], ring.weights + [ring.weights[0]])
    t = ext.var(ring.n)

    def lift(f):
        return Polynomial(ext, {m + (0,): c for m, c in f.terms.items()})

    gens = [t * lift(f) for f in I.gens] + [(ext.one() - t) * lift(g) for g in J.gens]
    gb = buchberger(gens, elimination_order(ext, [ring.n]))
    return Ideal([Polynomial(ring, {m[:-1]: c for m, c in g.terms.items()})
                  for g in gb if not any(m[-1] for m in g.terms)], ring)


def reference_colon(I, J):
    """(I : J) as the intersection, over the generators g of J, of the
    quotients by g of the generators of I cap (g)."""
    out = None
    for g in J.gens:
        part = Ideal([exact_div(h, g) for h in reference_intersect(I, Ideal([g], I.ring)).gens], I.ring)
        out = part if out is None else reference_intersect(out, part)
    return out


def random_form(R, d, rng):
    """A form of degree d with up to three terms and small coefficients."""
    K = R.field
    mons = rng.sample(R.monomials(d), min(3, len(R.monomials(d))))
    return Polynomial(R, {m: K.coerce(rng.choice([-3, -2, -1, 1, 2, 3])) for m in mons})


ARITHMETIC_RINGS = {
    "F7": ("ring F7 [x,y,z,w]", [(1,), (2,)]),
    "F32003": ("ring F32003 [x,y,z,w]", [(1,), (2,)]),
    "QQ": ("ring QQ [x,y,z,w]", [(1,), (2,)]),
    "appendix-F32003": ("ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]", [(1, 0), (0, 1), (1, 1), (2, 0)]),
}


class TestArithmeticAgainstElimination:
    @pytest.fixture(params=sorted(ARITHMETIC_RINGS))
    def draws(self, request):
        """Twelve pairs (I, J) of random homogeneous ideals: I = (p1*q1, p2*q2)
        and J = (p1, p2), so that I : J contains q1*q2."""
        decl, degrees = ARITHMETIC_RINGS[request.param]
        R = parse_ring(decl)
        rng = random.Random(f"arith:{request.param}")
        out = []
        for _ in range(12):
            p1, q1, p2, q2 = (random_form(R, rng.choice(degrees), rng) for _ in range(4))
            out.append((Ideal([p1 * q1, p2 * q2], R), Ideal([p1, p2], R)))
        return out

    def test_intersect(self, draws):
        for I, J in draws:
            assert ideal_equal(intersect(I, J), reference_intersect(I, J))

    def test_principal_colon(self, draws):
        for I, J in draws:
            assert ideal_equal(colon(I, J.gens[0]), reference_colon(I, Ideal(J.gens[:1], I.ring)))

    def test_colon_by_an_ideal(self, draws):
        """A colon by several generators is one module colon, equal to the
        intersection of the principal colons."""
        for I, J in draws:
            got = colon(I, J)
            assert ideal_equal(got, reference_colon(I, J))
            assert ideal_equal(got, intersect(colon(I, J.gens[0]), colon(I, J.gens[1])))

    def test_no_buchberger_of_their_own(self, draws, monkeypatch):
        """intersect and colon run on the module engine alone: no ideal
        Groebner basis and no auxiliary-variable ring."""
        calls = []
        monkeypatch.setattr(groebner, "buchberger", lambda *args: calls.append(args))
        I, J = draws[0]
        intersect(I, J), colon(I, J), colon(I, J.gens[0])
        assert not calls

    def test_inhomogeneous_input_raises(self, qq_xy):
        I, J = ideal(qq_xy, "x^2 + y"), ideal(qq_xy, "x")
        for fn in (intersect, colon, saturate):
            for args in ((I, J), (J, I)):
                with pytest.raises(GroebnerError, match="homogeneous"):
                    fn(*args)


class TestQuadraticSearch:
    def test_monomial_products_found_with_identity(self):
        R = parse_ring("ring F32003 [x,y,z,w]")
        I = ideal(R, "x*z", "x*w", "y*z", "y*w")
        r = g_quadratic_search(I, trials=1, seed=0, perms_per_trial=1)
        assert r["witness"] is not None
        assert is_quadratic_gb(buchberger(
            [r["witness"]["change"].apply(g) for g in I.gens], r["witness"]["order"]
        ))

    def test_squared_plane_plus_mixed_found(self):
        R = parse_ring("ring F32003 [x,y,z,w]")
        I = ideal(R, "x^2", "x*y", "y^2", "x*z+y*w")
        r = g_quadratic_search(I, trials=2, seed=0, perms_per_trial=4)
        assert r["witness"] is not None

    def test_five_quadric_example_inconclusive(self, conca_ideal):
        r = g_quadratic_search(conca_ideal, trials=2, seed=3, perms_per_trial=3)
        assert r["witness"] is None
        assert not r["conclusive"]
        assert "not a proof" in r["note"]

    def test_is_quadratic_gb_examples(self, qq_xy):
        R = qq_xy
        gb = buchberger([P(R, "x^2-y^2"), P(R, "x*y")])
        assert not is_quadratic_gb(gb)  # cubic element appears
        R4 = parse_ring("ring QQ [x,y,z,w]")
        gb2 = buchberger([P(R4, s) for s in ("x*z", "x*w", "y*z", "y*w")])
        assert is_quadratic_gb(gb2)


class TestAgainstSympy:
    """Reduced degrevlex bases, made monic, against sympy.groebner on random
    quadric ideals; sympy is an independent implementation, not a dependency."""

    @staticmethod
    def random_quadrics(R, rng, k, density):
        K = R.field
        out = []
        while len(out) < k:
            terms = {}
            for m in R.monomials((2,)):
                if rng.random() < density:
                    c = K.coerce(rng.randint(-9, 9))
                    if not K.is_zero(c):
                        terms[m] = c
            if terms:
                out.append(Polynomial(R, terms))
        return out

    @staticmethod
    def sympy_basis(R, gens):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(R.names)
        exprs = [
            sum(
                (int(c) if R.field.char else sympy.Rational(c.numerator, c.denominator))
                * sympy.prod(x**e for x, e in zip(xs, m))
                for m, c in g.terms.items()
            )
            for g in gens
        ]
        opts = {"modulus": R.field.char} if R.field.char else {}
        G = sympy.groebner(exprs, *xs, order="grevlex", **opts)
        order = DEGREVLEX.for_ring(R)
        out = []
        for p in G.polys:
            terms = {m: R.field.coerce(int(c) if R.field.char else Fraction(int(c.p), int(c.q))) for m, c in p.terms()}
            out.append(Polynomial(R, terms).monic(order))
        return sorted(out, key=lambda f: order.key(f.lm(order)), reverse=True)

    @pytest.mark.parametrize("field,n_max,cases", [("F32003", 5, 8), ("QQ", 4, 5)])
    def test_reduced_bases_agree(self, field, n_max, cases):
        pytest.importorskip("sympy")
        rng = random.Random(f"sympy:{field}")
        for _ in range(cases):
            n = rng.randint(3, n_max)
            R = parse_ring(f"ring {field} [{','.join(f'x{i}' for i in range(n))}]")
            gens = self.random_quadrics(R, rng, rng.randint(2, 4), 0.6 if field == "QQ" else 0.8)
            ours = buchberger(gens).elements
            theirs = self.sympy_basis(R, gens)
            assert [g.terms for g in ours] == [g.terms for g in theirs]


def reference_buchberger(gens, order=DEGREVLEX):
    """Buchberger's algorithm with a pair loop of its own, as buchberger ran
    before it moved onto ModuleGB: a reference for the shared manager.

    Elements are kept primitive, not monic.  New pairs are grouped by lcm
    with the coprime ones among them; the first pair of each group is kept
    unless another group's lcm strictly divides its own, and the product
    criterion then drops the kept pairs with coprime leads.  The chain
    criterion prunes the pending pairs.  ModuleGB applies the criteria in
    the same order, and in a tagged basis its coprime test, the last one,
    inserts a Koszul tag.  S-elements are formed through groebner.s_element,
    so a test can count them."""
    ring = gens[0].ring
    order = order.for_ring(ring)
    lay = order.layout
    K = ring.field
    flag = lay.flag
    basis, pairs, pair_lcm, pair_key = [], set(), {}, {}

    def add_element(h):
        lead = lead_term(h, lay)
        h = scaled(h, primitive_scale(K, h.values(), h[lead]), K)
        k = len(basis)
        mono = lead - flag
        lcms = [lay.lcm(basis[i][0], lead) for i in range(k)]
        drop = set()
        for (i, j) in pairs:
            l = pair_lcm[(i, j)]
            if lay.divides(mono, l) and lcms[i] != l and lcms[j] != l:
                drop.add((i, j))
        pairs.difference_update(drop)
        cand = {}
        for i in range(k):
            cand.setdefault(lcms[i], []).append(i)
        kept = [cand[l][0] for l in cand if not any(l2 != l and lay.divides(l2, l) for l2 in cand)]
        for i in kept:
            l = lcms[i]
            if lay.degree(l) != lay.degree(basis[i][0]) + lay.degree(lead):
                pairs.add((i, k))
                pair_lcm[(i, k)] = l
                pair_key[(i, k)] = (lay.degree(l), lay.key(l))
        basis.append((lead, h[lead], h))

    packed = [lay.pack_terms(g.terms, flag) for g in gens]
    for g in sorted(packed, key=lambda el: lay.key(lead_term(el, lay))):
        rem = reduce_terms(g, [basis], lay, K)
        if rem:
            add_element(rem)
    while pairs:
        p = min(pairs, key=pair_key.__getitem__)
        pairs.discard(p)
        i, j = p
        s = groebner.s_element(basis[i], basis[j], pair_lcm[p] + flag, K)
        rem = reduce_terms(s, [basis], lay, K)
        if rem:
            add_element(rem)
    return groebner._reduce_final(ring, order, basis)


class TestSharedPairManager:
    """buchberger runs on ModuleGB, the one S-pair manager; on random ideals
    its reduced bases equal the reference pair loop's term for term, and it
    forms no more S-pairs, under several orders and gradings."""

    @staticmethod
    def rings_and_orders(field, rng):
        R = parse_ring(f"ring {field} [x0,x1,x2,x3]")
        perm = list(range(R.n))
        rng.shuffle(perm)
        B = parse_ring(f"ring {field} [x:(1,0),y:(1,0),z:(1,0),a:(0,1),b:(0,1)]")
        return [
            (R, DEGREVLEX),
            (R, DEGLEX),
            (R, MonomialOrder("degrevlex", perm=perm, n=R.n)),
            (R, elimination_order(R, [0])),
            (B, DEGREVLEX),
        ]

    @staticmethod
    def random_gens(R, rng):
        """Two to four polynomials of total degree 2 or 3, a few random
        terms each, some with a lower-degree tail."""
        K = R.field
        out = []
        while len(out) < rng.randint(2, 4):
            terms = {}
            for _ in range(rng.randint(2, 5)):
                d = rng.choice((2, 2, 3)) - (rng.random() < 0.15)
                m = [0] * R.n
                for _ in range(d):
                    m[rng.randrange(R.n)] += 1
                c = K.coerce(rng.choice([x for x in range(-5, 6) if x]))
                if not K.is_zero(c):
                    terms[tuple(m)] = c
            if terms:
                out.append(Polynomial(R, terms))
        return out

    @pytest.mark.parametrize("field", ["F2", "F3", "F7", "F32003", "QQ"])
    def test_bases_and_pair_counts_match_the_reference(self, field, monkeypatch):
        made = [0]
        s_element = groebner.s_element

        def counting(*args):
            made[0] += 1
            return s_element(*args)

        monkeypatch.setattr(groebner, "s_element", counting)
        rng = random.Random(f"pairs:{field}")
        for R, order in self.rings_and_orders(field, rng):
            for _ in range(4):
                gens = self.random_gens(R, rng)
                made[0] = 0
                want = reference_buchberger(gens, order)
                ref_pairs, made[0] = made[0], 0
                got = buchberger(gens, order)
                assert [g.terms for g in got] == [g.terms for g in want], (R, order, gens)
                assert made[0] <= ref_pairs, (R, order, gens)
