"""Hilbert series, dimension, multiplicity, regular-sequence tests."""

import importlib
import random

import pytest

from koszulkit import (
    GF,
    Ideal,
    LinearChange,
    hilbert_from_monomials,
    groebner,
    hilbert_of_quotient,
    is_regular_sequence_mod,
    lg_quadratic_certificate,
    parse_poly,
    parse_ring,
    regularity,
)
from koszulkit.forms import FORMS, KNOWN_HEIGHT2_TABLES, generate_ideal, random_linear, random_quadric
from koszulkit.groebner import GroebnerError
from koszulkit.hilbert import zp_div_1mt, zp_mul, zp_trim
from koszulkit.ring import Polynomial

classify_module = importlib.import_module("koszulkit.classify")


def _min_cover(supports: list[frozenset[int]], memo: dict) -> int:
    """Reference: the minimum number of variables meeting every support set,
    the height of a monomial ideal with these generator supports."""
    supports = [s for s in supports if s]
    if not supports:
        return 0
    key = frozenset(supports)
    if key in memo:
        return memo[key]
    s0 = min(supports, key=len)
    best = None
    for v in sorted(s0):
        rest = [s for s in supports if v not in s]
        sub = 1 + _min_cover(rest, memo)
        if best is None or sub < best:
            best = sub
    memo[key] = best
    return best


def P(R, s):
    return parse_poly(R, s)


def ideal(R, *texts):
    return Ideal([P(R, t) for t in texts], R)


class TestMonomialRecursion:
    def test_zero_ideal(self):
        R = parse_ring("ring QQ [x,y,z]")
        h = hilbert_from_monomials(R, [])
        assert list(h.numerator) == [1] and h.dim == 3 and h.multiplicity == 1

    def test_single_edge(self, qq_xy):
        # standard monomials of (x*y): 1; x, y; x^2, y^2; ... so 1, 2, 2, 2, ...
        h = hilbert_from_monomials(qq_xy, [(1, 1)])
        assert list(h.numerator) == [1, 0, -1]
        assert h.dim == 1 and h.multiplicity == 2
        assert h.series(5) == [1, 2, 2, 2, 2, 2]

    def test_series_counts_standard_monomials(self):
        # independent oracle: enumerate standard monomials by brute force
        R = parse_ring("ring QQ [x,y,z]")
        mons = [(2, 0, 0), (1, 1, 0), (0, 0, 3)]
        h = hilbert_from_monomials(R, mons)
        from itertools import product

        for d in range(7):
            count = 0
            for e in product(range(d + 1), repeat=3):
                if sum(e) != d:
                    continue
                if any(all(x >= y for x, y in zip(e, m)) for m in mons):
                    continue
                count += 1
            assert h.series(7)[d] == count

    @pytest.mark.parametrize("n", range(1, 8))
    def test_codim_is_the_minimum_vertex_cover(self, n):
        """codim, read off the numerator, is the least number of variables
        meeting the support of every generator, and the reduced numerator
        is the numerator divided by (1-t)^codim."""
        R = parse_ring(f"ring QQ [{','.join(f'x{i}' for i in range(n))}]")
        rng = random.Random(f"cover:{n}")
        for _ in range(425):
            mons = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in range(rng.randint(1, 6))]
            mons = [m for m in mons if any(m)]
            h = hilbert_from_monomials(R, mons)
            codim = _min_cover([frozenset(i for i, e in enumerate(m) if e) for m in mons], {})
            reduced = h.numerator
            for _ in range(codim):
                reduced = zp_div_1mt(reduced)
            assert (h.codim, h.dim, h.reduced_numerator) == (codim, n - codim, reduced)

    def test_five_quadric_example_series(self, conca_ideal):
        h = hilbert_of_quotient(conca_ideal)
        assert list(h.reduced_numerator) == [1, 2, -2, -2, 2]
        assert h.dim == 2 and h.codim == 2 and h.multiplicity == 1


class TestQuotientSeries:
    def test_complete_intersection_of_quadrics(self):
        R = parse_ring("ring F32003 [a,b,c,d]")
        rng = random.Random(6)
        I = Ideal([random_quadric(R, rng) for _ in range(4)], R)
        h = hilbert_of_quotient(I)
        # (1 - t^2)^4
        assert list(h.numerator) == [1, 0, -4, 0, 6, 0, -4, 0, 1]

    def test_one_syzygy_form_height_and_multiplicity(self, generic_one_syzygy):
        h = hilbert_of_quotient(generic_one_syzygy["ideal"])
        assert h.multiplicity == 1 and h.codim == 2

    def test_product_form_matches_alternating_betti_sum(self):
        R = parse_ring("ring QQ [x,y,z,w]")
        I = ideal(R, "x*z", "x*w", "y*z", "y*w")
        from koszulkit import minimal_resolution

        _, B = minimal_resolution(I)
        assert B.alternating_sum() == hilbert_of_quotient(I).numerator

    def test_invariant_under_linear_change(self):
        R = parse_ring("ring F32003 [x,y,z,w]")
        rng = random.Random(9)
        I = Ideal([random_quadric(R, rng) for _ in range(3)], R)
        phi = LinearChange.random(R, rng)
        I2 = Ideal([phi.apply(g) for g in I.gens], R)
        assert hilbert_of_quotient(I).numerator == hilbert_of_quotient(I2).numerator


def _random_quadric_ideal(R, rng):
    """One to n+1 quadrics: dense ones, x_i times a linear form, and
    monomials x_i*x_j, so common factors and monomial pieces occur."""
    gens = []
    for _ in range(rng.randint(1, R.n + 1)):
        i, j = rng.randrange(R.n), rng.randrange(R.n)
        kind = rng.randrange(3)
        factor = random_linear(R, rng) if kind == 1 else R.var(j)
        gens.append(random_quadric(R, rng) if kind == 0 else R.var(i) * factor)
    return Ideal(gens, R)


@pytest.mark.parametrize("field,cases", [("F2", 12), ("F7", 12), ("F32003", 12), ("QQ", 8)])
def test_series_matches_degreewise_ranks_by_sympy(field, cases):
    """dim (S/I)_d = dim S_d - rank of the products m*f_i of degree d, the
    rank taken by sympy's DomainMatrix over GF(p) or QQ: an independent
    implementation, not a dependency, checks hilbert_of_quotient through
    degree 6 (degree 5 in five variables)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    dom = sympy.QQ if field == "QQ" else sympy.GF(int(field[1:]))
    to_dom = (lambda c: dom(c.numerator, c.denominator)) if field == "QQ" else (lambda c: dom(int(c)))
    rng = random.Random(f"hilbert-oracle:{field}")
    for _ in range(cases):
        R = parse_ring(f"ring {field} [{','.join(f'x{i}' for i in range(rng.randint(3, 5)))}]")
        I = _random_quadric_ideal(R, rng)
        top = 5 if R.n == 5 else 6
        ranks = []
        for d in range(top + 1):
            mons = R.monomials((d,))
            shifts = [Polynomial(R, {m: R.field.one()}) for m in R.monomials((d - 2,))] if d >= 2 else []
            products = [m * f for f in I.gens for m in shifts]
            rows = [[to_dom(c) for c in row] for row in R.coefficients(products, mons)]
            rank = DomainMatrix(rows, (len(rows), len(mons)), dom).rank() if rows else 0
            ranks.append(len(mons) - rank)
        assert hilbert_of_quotient(I).series(top) == ranks, [str(g) for g in I.gens]


class TestRegularSequences:
    def test_fresh_variable_is_regular(self):
        R = parse_ring("ring QQ [x,y,z]")
        assert is_regular_sequence_mod(ideal(R, "x*y"), [P(R, "z")])

    def test_zerodivisor_detected(self):
        R = parse_ring("ring QQ [x,y,z]")
        assert not is_regular_sequence_mod(ideal(R, "x*y", "x*z"), [P(R, "x")])

    def test_specialization_of_generic_form(self):
        # lift a valid concrete witness to the seven-variable generic form;
        # the specializing differences must be a regular sequence, which is
        # exactly the series equality this operation tests
        g = generate_ideal("2iii", GF(32003), seed=4)
        lift = FORMS["2iii"].lift(g["ideal"].ring, g["witnesses"])
        lifted = Ideal(lift.ideal_gens, lift.ring)
        assert len(lift.specializing) == 7
        assert is_regular_sequence_mod(lifted, lift.specializing)


def _sequentially_regular(I, qs):
    """Reference: each quadric is a nonzerodivisor modulo I and the quadrics
    before it, one Hilbert identity H_{S/(J,q)} = (1 - t^2) H_{S/J} a step."""
    cur = I
    for q in qs:
        big = Ideal(list(cur.gens) + [q], I.ring)
        if hilbert_of_quotient(big).numerator != zp_mul(hilbert_of_quotient(cur).numerator, (1, 0, -1)):
            return False
        cur = big
    return True


class TestRegularQuadricSequences:
    @pytest.mark.parametrize("field", ["F2", "F7", "F32003"])
    def test_agrees_with_the_sequential_test(self, field):
        # I = (x0*x1, ...); the second quadric is random or x0*ell, which
        # x1 kills modulo I, so both verdicts occur
        R = parse_ring(f"ring {field} [x0,x1,x2,x3]")
        rng = random.Random(f"regular:{field}")
        x0, x1 = R.var(0), R.var(1)
        verdicts = []
        for trial in range(120):
            I = Ideal([x0 * x1] + [random_quadric(R, rng) for _ in range(trial % 2)], R)
            q1 = random_quadric(R, rng)
            q2 = x0 * random_linear(R, rng) if trial % 3 == 0 else random_quadric(R, rng)
            want = _sequentially_regular(I, [q1, q2])
            assert is_regular_sequence_mod(I, [q1, q2]) == want
            verdicts.append(want)
        assert True in verdicts and False in verdicts

    def test_mixed_degrees(self):
        R = parse_ring("ring QQ [x,y,z]")
        assert is_regular_sequence_mod(ideal(R, "x*y"), [P(R, "z^2"), P(R, "x+y")])
        assert not is_regular_sequence_mod(ideal(R, "x*y"), [P(R, "z^3"), P(R, "x^2")])

    @pytest.mark.parametrize("form", ["1", "x^2+y", "0"])
    def test_rejects_constant_or_inhomogeneous_forms(self, form):
        R = parse_ring("ring QQ [x,y,z]")
        with pytest.raises(GroebnerError, match="homogeneous forms of positive degree"):
            is_regular_sequence_mod(ideal(R, "x*y"), [P(R, form)])


def _stanley_in_the_whole_ring(I, L):
    """Reference: Stanley's identity H_{S/(I,L)} = H_{S/I} prod (1 - t^deg f)
    checked in S itself, with the linear forms kept as generators."""
    rhs = hilbert_of_quotient(I).numerator
    for f in L:
        rhs = zp_mul(rhs, zp_trim([1] + [0] * (f.total_degree() - 1) + [-1]))
    return hilbert_of_quotient(Ideal(list(I.gens) + list(L), I.ring)).numerator == rhs


def _cut_draws(R, rng, count):
    """(I, L) pairs, one kind after another: independent linear forms, a
    repeated one, a multiple of one, a linear form then a quadric, a quadric
    then linear forms, quadrics only, and I = 0 under a mixed L."""
    lin, quad = (lambda: random_linear(R, rng)), (lambda: random_quadric(R, rng))
    for trial in range(count):
        kind = trial % 7
        I = Ideal([] if kind == 6 else [quad() for _ in range(rng.randint(1, 2))], R)
        l = lin()
        L = [
            [l] + [lin() for _ in range(rng.randint(0, 2))],
            [l, lin(), l],
            [lin(), l, l.scale(R.field.coerce(5))],
            [l, quad()],
            [quad(), l, lin()],
            [quad() for _ in range(rng.randint(1, 2))],
            [l, quad(), lin()],
        ][kind]
        yield I, L


class TestLinearCut:
    """The linear forms of L are cut by substitution before the Hilbert test;
    the verdict is the identity's in the whole ring."""

    @pytest.mark.parametrize("decl", [
        "ring F2 [x0,x1,x2,x3]",
        "ring F7 [x0,x1,x2,x3,x4]",
        "ring F32003 [x0,x1,x2,x3]",
        "ring QQ [x0,x1,x2]",
        "ring F7 [x:(1,0),y:(1,0),z:(1,0),a:(0,1),b:(0,1)]",
    ])
    def test_agrees_with_the_identity_in_the_whole_ring(self, decl):
        R = parse_ring(decl)
        rng = random.Random(f"linear-cut:{decl}")
        verdicts = []
        for I, L in _cut_draws(R, rng, 42):
            want = _stanley_in_the_whole_ring(I, L)
            assert is_regular_sequence_mod(I, L) == want, ([str(g) for g in I.gens], [str(f) for f in L])
            verdicts.append(want)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("case", sorted(c for c, spec in FORMS.items() if spec.koszul))
    def test_certificate_lifts(self, case):
        g = generate_ideal(case, GF(32003), seed=0)
        lift = FORMS[case].lift(g["ring"], g["witnesses"])
        lifted = Ideal(lift.ideal_gens, lift.ring)
        assert _stanley_in_the_whole_ring(lifted, lift.specializing)
        assert is_regular_sequence_mod(lifted, lift.specializing)

    def test_rank_deficit_is_not_regular(self):
        R = parse_ring("ring QQ [x,y,z]")
        assert not is_regular_sequence_mod(Ideal([], R), [P(R, "x+y"), P(R, "z"), P(R, "2*x+2*y")])
        assert is_regular_sequence_mod(Ideal([], R), [P(R, "x+y"), P(R, "z"), P(R, "x")])

    def test_certificate_bases_stay_small_in_the_lift_ring(self, monkeypatch):
        """The ht3-i lift at the manifest's seed has 28 variables; after the
        cut, every basis computed in it has at most the four lifted
        generators, and the rest of the test runs in the input's ring."""
        g = generate_ideal("ht3-i", GF(32003), seed=2)
        seen = []
        for mod in (groebner, classify_module):
            run = mod.buchberger

            def spy(gens, *args, run=run, **kwargs):
                seen.append((gens[0].ring.n, len(gens)))
                return run(gens, *args, **kwargs)

            monkeypatch.setattr(mod, "buchberger", spy)
        assert lg_quadratic_certificate(g["ideal"], "ht3-i", g["witnesses"]) is not None
        in_lift = [k for n, k in seen if n == 28]
        assert in_lift and max(in_lift) <= 4


class TestRegularity:
    def test_reference_tables(self):
        assert regularity(KNOWN_HEIGHT2_TABLES["i"]) == 1
        assert regularity(KNOWN_HEIGHT2_TABLES["iv"]) == 2

    def test_exterior_complex_regularity_zero(self):
        R = parse_ring("ring QQ [x,y,z]")
        from koszulkit import minimal_resolution

        _, B = minimal_resolution(ideal(R, "x", "y", "z"))
        assert regularity(B) == 0

    def test_empty_table_errors(self):
        with pytest.raises(Exception):
            regularity({})
