"""Monomial orders, polynomial arithmetic, the coefficient map, linear
changes, parsing."""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import (
    DEGLEX,
    DEGREVLEX,
    GF,
    QQ,
    LinearChange,
    MonomialOrder,
    RingContext,
    parse_ideal_file,
    parse_poly,
    parse_ring,
)
from koszulkit.parse import ParseError
from koszulkit.ring import RingError


def P(R, s):
    return parse_poly(R, s)


class TestOrders:
    def test_degrevlex_tiebreak(self):
        R = parse_ring("ring QQ [x,y,z]")
        o = DEGREVLEX.for_ring(R)
        y2 = (0, 2, 0)
        xz = (1, 0, 1)
        assert o.key(y2) > o.key(xz)  # y^2 > x*z

    def test_degrevlex_matches_exhaustive_degree2_sort(self):
        # oracle: the standard listing of degree-2 monomials in k[x,y,z]
        R = parse_ring("ring QQ [x,y,z]")
        o = DEGREVLEX.for_ring(R)
        mons = []
        for combo in combinations_with_replacement(range(3), 2):
            m = [0, 0, 0]
            for i in combo:
                m[i] += 1
            mons.append(tuple(m))
        got = o.sorted_desc(mons)
        expected = [
            (2, 0, 0),  # x^2
            (1, 1, 0),  # xy
            (0, 2, 0),  # y^2
            (1, 0, 1),  # xz
            (0, 1, 1),  # yz
            (0, 0, 2),  # z^2
        ]
        assert got == expected

    def test_deglex_with_permutation(self):
        # a3 > b3 > b4 > a4 > x > y > z
        R = parse_ring("ring QQ [a3,b3,b4,a4,x,y,z]")
        o = MonomialOrder("deglex", perm=[0, 1, 2, 3, 4, 5, 6], n=7)
        a3x = (1, 0, 0, 0, 1, 0, 0)
        b3y = (0, 1, 0, 0, 0, 1, 0)
        assert o.key(a3x) > o.key(b3y)

    def test_equal_monomials(self):
        o = DEGREVLEX.for_ring(parse_ring("ring QQ [x,y]"))
        assert o.key((1, 2)) == o.key((1, 2))

    @pytest.mark.parametrize("kind", ["degrevlex", "deglex"])
    def test_order_axioms_random(self, kind):
        rng = random.Random(hash(kind) & 0xFFFF)
        n = 4
        o = MonomialOrder(kind, n=n)
        one = (0,) * n
        for _ in range(120):
            m, mm, q = (tuple(rng.randrange(4) for _ in range(n)) for _ in range(3))
            # totality: distinct monomials have distinct keys
            assert (o.key(m) == o.key(mm)) == (m == mm)
            # multiplicativity
            if o.key(m) > o.key(mm):
                prod_m = tuple(a + b for a, b in zip(m, q))
                prod_mm = tuple(a + b for a, b in zip(mm, q))
                assert o.key(prod_m) > o.key(prod_mm)
            # well ordering via 1 <= m
            if m != one:
                assert o.key(m) > o.key(one)
            # divisibility refinement
            div = tuple(a + b for a, b in zip(m, q))
            if div != m:
                assert o.key(div) > o.key(m)

    def test_block_order_eliminates(self):
        o = MonomialOrder("block", perm=[0, 1, 2], front=1, n=3)
        # any monomial containing the front variable beats any that does not
        assert o.key((1, 0, 0)) > o.key((0, 5, 5))


class TestArithmetic:
    def test_difference_of_squares(self, qq_xy):
        R = qq_xy
        assert P(R, "(x+y)*(x-y)") == P(R, "x^2-y^2")

    def test_frobenius_char2(self):
        R = parse_ring("ring F2 [x,y]")
        assert P(R, "(x+y)^2") == P(R, "x^2+y^2")

    def test_two_by_two_determinant_identity(self):
        R = parse_ring("ring QQ [a3,b3,a4,b4,x,y]")
        lhs = P(R, "(a3*x+b3*y)*b4 - (a4*x+b4*y)*b3")
        delta = P(R, "a3*b4-a4*b3")
        assert lhs == delta * P(R, "x")

    def test_homogeneous_product_degree(self, qq_xy):
        R = qq_xy
        f = P(R, "x^2+x*y")
        g = P(R, "x-y")
        assert (f * g).degree() == (3,)

    def test_mixed_ring_error(self):
        R1 = parse_ring("ring QQ [x,y]")
        R2 = parse_ring("ring QQ [x,z]")
        with pytest.raises(RingError):
            P(R1, "x") + P(R2, "x")

    def test_zero_and_scalar(self, qq_xy):
        R = qq_xy
        assert (P(R, "x") - P(R, "x")).is_zero()
        assert P(R, "x").scale(0).is_zero()
        assert P(R, "2*x").monic(DEGREVLEX.for_ring(R)) == P(R, "x")

    def test_primitive_normalization(self, qq_xy):
        R = qq_xy
        f = P(R, "x/2 + y/3")
        prim = f.primitive(DEGREVLEX.for_ring(R))
        assert prim == P(R, "3*x + 2*y")

    def test_bidegree_additivity_random(self):
        R = parse_ring("ring F7 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]")
        rng = random.Random(3)
        from koszulkit.forms import random_linear

        for _ in range(30):
            f = R.var(rng.randrange(2)) * R.var(2 + rng.randrange(2))
            g = R.var(rng.randrange(4))
            fg = f * g
            if fg:
                assert fg.degree() == tuple(
                    a + b for a, b in zip(f.degree(), g.degree())
                )


class TestCoefficientMap:
    RINGS = {
        "standard": (["x", "y", "z", "w"], None),
        "bigraded": (["a", "b", "u", "v"], [(1, 0), (1, 0), (0, 1), (0, 1)]),
    }

    @pytest.mark.parametrize("K", [GF(2), GF(7), QQ], ids=str)
    @pytest.mark.parametrize("grading", sorted(RINGS))
    def test_form_inverts_coefficients(self, K, grading):
        names, weights = self.RINGS[grading]
        R = RingContext(K, names, weights)
        rng = random.Random(f"coefficients:{K}:{grading}")
        degrees = [R.zero_deg] + [R.mon_degree(m) for m in R.linear_monomials + R.quadratic_monomials]
        for _ in range(40):
            mons = [m for d in rng.sample(sorted(set(degrees)), 2) for m in R.monomials(d)]
            forms = [R.form([K.random(rng) for _ in mons], mons) for _ in range(3)]
            rows = R.coefficients(forms, mons)
            assert [R.form(row, mons) for row in rows] == forms
            assert all(f.terms.get(m, K.zero()) == c for f, row in zip(forms, rows) for m, c in zip(mons, row))

    def test_named_monomial_lists(self):
        R = parse_ring("ring F7 [x,y,z]")
        assert R.linear_monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        pairs = combinations_with_replacement(range(3), 2)
        assert R.quadratic_monomials == tuple(
            tuple(sum(k == i for k in pair) for i in range(3)) for pair in pairs
        )

    def test_a_stray_monomial_raises(self):
        R = parse_ring("ring QQ [x,y,z]")
        with pytest.raises(RingError):
            R.coefficients([P(R, "x"), P(R, "x + y*z")], R.linear_monomials)
        with pytest.raises(RingError):
            R.coefficients([P(R, "x^2 + 1")], R.quadratic_monomials)

    def test_linear_form_of_int_coefficients(self):
        from fractions import Fraction

        R = parse_ring("ring QQ [x,y,z]")
        f = R.linear_form([1, 0, -2])
        assert f == P(R, "x - 2*z")
        assert f.terms == {(1, 0, 0): Fraction(1), (0, 0, 1): Fraction(-2)}
        S = parse_ring("ring F7 [x,y,z]")
        g = S.linear_form([8, 7, -1])
        assert g == P(S, "x - z")
        assert g.terms == {(1, 0, 0): 1, (0, 0, 1): 6}


class TestLinearChange:
    def test_identity(self, qq_xy):
        R = qq_xy
        f = P(R, "x*y + y^2")
        assert LinearChange.identity(R).apply(f) == f

    def test_shear(self, qq_xy):
        R = qq_xy
        phi = LinearChange(R, [[1, 1], [0, 1]])  # x -> x + y
        assert phi.apply(P(R, "x*y")) == P(R, "x*y + y^2")

    def test_roundtrip_through_inverse(self):
        R = parse_ring("ring F32003 [x,y,z]")
        rng = random.Random(7)
        phi = LinearChange.random(R, rng)
        f = P(R, "x^2")
        assert phi.inverse().apply(phi.apply(f)) == f

    def test_singular_matrix_rejected(self, qq_xy):
        with pytest.raises(RingError):
            LinearChange(qq_xy, [[1, 1], [2, 2]])

    def test_singularity_depends_on_the_field(self):
        # det [[1, 1], [1, -1]] = -2: singular over F2, invertible over QQ
        f2 = parse_ring("ring F2 [x,y,z]")
        qq = parse_ring("ring QQ [x,y,z]")
        M = [[1, 1, 0], [1, -1, 0], [0, 1, 1]]
        with pytest.raises(RingError):
            LinearChange(f2, M)
        with pytest.raises(RingError):
            LinearChange(qq, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        phi = LinearChange(qq, M)
        inv = phi.inverse()
        f = P(qq, "x^2 + 1/3*y*z - z")
        assert inv.apply(phi.apply(f)) == f
        assert phi.apply(inv.apply(f)) == f

    def test_ring_homomorphism_random(self):
        R = parse_ring("ring F32003 [x,y,z]")
        rng = random.Random(19)
        from koszulkit.forms import random_linear, random_quadric

        phi = LinearChange.random(R, rng)
        for _ in range(10):
            f = random_quadric(R, rng)
            g = random_linear(R, rng)
            assert phi.apply(f + g) == phi.apply(f) + phi.apply(g)
            assert phi.apply(f * g) == phi.apply(f) * phi.apply(g)

    def test_degree_preserved(self):
        R = parse_ring("ring F7 [x,y,z]")
        phi = LinearChange(R, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
        f = P(R, "x*z + y^2")
        assert phi.apply(f).degree() == (2,)


VALID_IDEAL_FILES = [
    "ring F32003 [x,y,a3,b3]\nideal: x^2, b3*x, a3*x+b3*y\n",
    "ring QQ [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]\n# bigraded\nideal: b*x, x*y,\n a*x-b*y, 3/2*x^2-y^2\n",
    "ring Fp:7 [x,y,z]\nideal: 2x y - z^2, -(x+y)*z\n",
]
# characters and tokens of the grammar, spliced into valid files
GRAMMAR_PIECES = [*"0123456789xyzab+-*/^()[],:# \n", "ring", "ideal:", "QQ", "F", "Fp:", "F4", "a3"]


class TestParsing:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_ideal_files_parse_or_raise_parse_error(self, data):
        text = data.draw(st.sampled_from(VALID_IDEAL_FILES))
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 2))
            text = text[:i] + data.draw(st.sampled_from(["", *GRAMMAR_PIECES])) + text[i + cut:]
        try:
            ring, gens = parse_ideal_file(text)
        except ParseError:
            return
        assert gens and all(g.ring is ring for g in gens)

    def test_ring_declarations(self):
        R = parse_ring("ring F32003 [x,y,a3,a4,b3,b4,z]")
        assert R.n == 7 and R.field.name == "F32003"
        Rb = parse_ring("ring F2 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]")
        assert Rb.bigraded and Rb.weights[2] == (0, 1)

    def test_poly_syntax(self):
        R = parse_ring("ring QQ [x,z,w]")
        f = P(R, "x^2 + z*w")
        assert len(f.terms) == 2
        g = P(R, "1/2*x^2 - 3*z*w")
        from fractions import Fraction

        assert g.terms[(2, 0, 0)] == Fraction(1, 2)

    def test_parse_errors(self):
        R = parse_ring("ring QQ [x,y]")
        with pytest.raises(ParseError):
            parse_poly(R, "x + q")
        with pytest.raises(ParseError):
            parse_poly(R, "x +* y")
        with pytest.raises(ParseError):
            parse_ring("ring QQ []")

    def test_ideal_file_roundtrip(self, tmp_path):
        from koszulkit import parse_ideal_file

        text = "ring F7 [x,y,z]\nideal: x*y, y*z - x^2\n"
        ring, gens = parse_ideal_file(text)
        assert ring.n == 3 and len(gens) == 2
