"""The four-quadric classifier: closed-loop generation, witness soundness,
sub-form dispatch, generalized zeros, and certificates."""

import importlib
import json
import random
from itertools import combinations, product
from pathlib import Path

import pytest

from koszulkit import (
    GF,
    QQ,
    FreeModule,
    Ideal,
    LinearChange,
    PolyMatrix,
    buchberger,
    classify,
    find_generalized_zero,
    hilbert_of_quotient,
    ideal_equal,
    is_quadratic_gb,
    is_regular_sequence_mod,
    linear_syzygy_matrix,
    match_form_2iv,
    minimal_resolution,
    parse_poly,
    parse_ring,
)
from koszulkit import groebner, linalg
from koszulkit.classify import (
    ClassificationError,
    _QuadricSpace,
    cofactor_space,
    common_factors,
    quadric_common_factor,
)
from koszulkit.field import field_by_name
from koszulkit.forms import FORMS, generate_ideal, ideal_cofactors
from koszulkit.groebner import intersect, minimal_quadric_generators
from koszulkit.resolution import _det
from koszulkit.ring import DEGREVLEX, Polynomial, RingContext
from koszulkit.zerodim import solve_system_points

classify_module = importlib.import_module("koszulkit.classify")


def P(R, s):
    return parse_poly(R, s)


def ideal(R, *texts):
    return Ideal([P(R, t) for t in texts], R)


ALL_FORMS = ["ht4-CI", "ht1", "2i-a", "2i-b", "2i-c", "2ii", "2iii",
             "2iv-a", "2iv-b", "2iv-c", "2iv-d", "ht3-i", "ht3-ii"]

EXPECTED_CASE = {
    "ht4-CI": "ht4-CI", "ht1": "ht1",
    "2i-a": "2i", "2i-b": "2i", "2i-c": "2i",
    "2ii": "2ii", "2iii": "2iii",
    "2iv-a": "2iv-(a)", "2iv-b": "2iv-(b)", "2iv-c": "2iv-(c)", "2iv-d": "2iv-(d)",
    "ht3-i": "ht3-i", "ht3-ii": "ht3-ii",
}

KOSZUL = {"ht4-CI", "ht1", "2i-a", "2i-b", "2i-c", "2ii", "2iii", "2iv-d", "ht3-i", "ht3-ii"}


class TestClosedLoop:
    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_generated_ideal_reclassifies(self, form):
        g = generate_ideal(form, GF(32003), seed=13)
        rep = classify(g["ideal"])
        assert rep.matched_case == EXPECTED_CASE[form]
        if form in KOSZUL:
            assert rep.verdict == "certified-Koszul"
            assert rep.certificate["type"] == "lg-quadratic"
        else:
            assert rep.verdict == "certified-non-Koszul"

    def test_witnesses_regenerate_input(self):
        for form in ("2iii", "2iv-a", "2iv-c", "2ii"):
            g = generate_ideal(form, GF(32003), seed=21)
            rep = classify(g["ideal"])
            spec = FORMS[{"2ii": "2ii"}.get(form, form)]
            if rep.subcase and rep.matched_case == "2i":
                spec = FORMS[f"2i-{rep.subcase}"]
            if form.startswith("2iv"):
                spec = FORMS[form]
            regen = Ideal(spec.build(rep.witnesses), g["ideal"].ring)
            assert ideal_equal(regen, g["ideal"])


class TestSpecificInputs:
    def test_two_plane_product_is_certified(self):
        R = parse_ring("ring F32003 [x,y,z,w]")
        rep = classify(ideal(R, "x*z", "x*w", "y*z", "y*w"))
        assert rep.matched_case == "2i" and rep.subcase == "a"
        assert rep.verdict == "certified-Koszul"
        # the witnesses span two transverse planes regenerating the input
        regen = Ideal(FORMS["2i-a"].build(rep.witnesses), R)
        assert ideal_equal(regen, ideal(R, "x*z", "x*w", "y*z", "y*w"))

    def test_bad_algebra_ideal_matches_two_factor_form(self, bad_algebra_ideal):
        rep = classify(bad_algebra_ideal)
        assert rep.matched_case == "2iv-(c)"
        assert rep.verdict == "certified-non-Koszul"
        assert rep.certificate["type"] == "specialization-chain-obstruction"
        pos = rep.certificate["bad_algebra"]["nonlinear_position"]
        assert pos["hom_degree"] == 5 and pos["total_degree"] == 7

    def test_five_generator_input_rejected(self, conca_ideal):
        with pytest.raises(ClassificationError, match="5"):
            classify(conca_ideal)

    def test_degenerate_input_rejected(self):
        R = parse_ring("ring QQ [x,y,z]")
        with pytest.raises(ClassificationError):
            classify(ideal(R, "x", "y*z"))

    def test_generic_two_factor_form_chain_certificate(self):
        """The bad algebra's obstruction sits at hom degree 4, total 6 in
        characteristic 2 and at hom degree 5, total 7 otherwise."""
        for p, seed in ((2, 0), (3, 0), (7, 0), (32003, 7)):
            rep = classify(generate_ideal("2iv-c", GF(p), seed=seed)["ideal"])
            assert rep.matched_case == "2iv-(c)", p
            assert rep.verdict == "certified-non-Koszul", p
            assert rep.certificate["type"] == "specialization-chain-obstruction", p
            pos = rep.certificate["bad_algebra"]["nonlinear_position"]
            expected = (4, 6) if p == 2 else (5, 7)
            assert (pos["hom_degree"], pos["total_degree"]) == expected, p

    def test_scaling_invariance(self):
        rng = random.Random(55)
        for form in ("2iii", "2iv-d", "2i-b"):
            g = generate_ideal(form, GF(32003), seed=17)
            I = g["ideal"]
            phi = LinearChange.random(I.ring, rng)
            I2 = Ideal([phi.apply(f) for f in I.gens], I.ring)
            r1, r2 = classify(I), classify(I2)
            assert r1.matched_case == r2.matched_case
            assert r1.verdict == r2.verdict


class TestLinearSyzygyMatrix:
    def test_one_syzygy_form_has_three_columns(self, generic_one_syzygy):
        M = linear_syzygy_matrix(generic_one_syzygy["ideal"])
        assert M.ncols == 3

    def test_transversal_form_has_two_columns(self):
        g = generate_ideal("2iv-d", GF(32003), seed=1)
        assert linear_syzygy_matrix(g["ideal"]).ncols == 2

    def test_complete_intersection_has_none(self):
        g = generate_ideal("ht4-CI", GF(32003), seed=1)
        assert linear_syzygy_matrix(g["ideal"]).ncols == 0

    def test_bigraded_twists_follow_the_generators(self):
        # quadrics of three bidegrees: the row twists are the generators'
        # degrees and each column's twist is its syzygy's degree
        R = parse_ring("ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]")
        I = ideal(R, "x*a", "y*b", "x^2", "a^2")
        M = linear_syzygy_matrix(I)
        assert list(M.target.twists) == [g.degree() for g in minimal_quadric_generators(I)]
        assert sorted(M.source.twists) == [(1, 2), (2, 1)]
        rep = classify(I)
        assert (rep.matched_case, rep.verdict) == ("ht3-ii", "certified-Koszul")

    def test_columns_are_syzygies(self):
        g = generate_ideal("2iv-a", GF(32003), seed=3)
        gens = minimal_quadric_generators(g["ideal"])
        M = linear_syzygy_matrix(g["ideal"])
        for c in range(M.ncols):
            acc = g["ideal"].ring.zero()
            for r in range(M.nrows):
                acc = acc + M.entries[r][c] * gens[r]
            assert not acc


class TestGeneralizedZero:
    def test_literal_zero_entry(self):
        R = parse_ring("ring F7 [x,y]")
        F2 = FreeModule(R, [(0,), (0,)])
        F1 = FreeModule(R, [(1,), (1,)])
        M = PolyMatrix(F2, F1, [[P(R, "x"), R.zero()], [-P(R, "y"), P(R, "x")]])
        out = find_generalized_zero(M)
        assert out is not None
        u, v = out
        K = R.field
        # u M v = 0
        acc = R.zero()
        for i in range(2):
            for j in range(2):
                acc = acc + M.entries[i][j].scale(K.mul(u[i], v[j]))
        assert not acc

    def test_scroll_matrix_is_one_generic(self):
        # brute-force oracle over F7 confirms no nonzero u, v kills u M v
        R = parse_ring("ring F7 [x,y,z,w]")
        F2 = FreeModule(R, [(0,), (0,)])
        F3 = FreeModule(R, [(1,)] * 3)
        M = PolyMatrix(
            F2, F3,
            [[P(R, "x"), P(R, "y"), P(R, "z")], [P(R, "y"), P(R, "z"), P(R, "w")]],
        )
        K = R.field
        found = None
        for u0 in range(7):
            for u1 in range(7):
                if u0 == u1 == 0:
                    continue
                for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 3)):
                    acc = R.zero()
                    for i, ui in enumerate((u0, u1)):
                        for j, vj in enumerate(v):
                            acc = acc + M.entries[i][j].scale(K.mul(ui, K.from_int(vj)))
                    if not acc and any(v):
                        found = (u0, u1, v)
        # spot grid had no hits; the solver must agree there is none at all
        assert found is None
        assert find_generalized_zero(M) is None

    def test_generalized_zero_from_row_operations(self):
        # rows (x, y) and (x, y) combine to a zero row
        R = parse_ring("ring F32003 [x,y]")
        F2 = FreeModule(R, [(0,), (0,)])
        F1 = FreeModule(R, [(1,), (1,)])
        M = PolyMatrix(F2, F1, [[P(R, "x"), P(R, "y")], [P(R, "x"), P(R, "y")]])
        out = find_generalized_zero(M)
        assert out is not None


class TestSubformDispatch:
    @pytest.mark.parametrize("form,sub", [("2iv-a", "a"), ("2iv-b", "b"), ("2iv-c", "c"), ("2iv-d", "d")])
    def test_match_form_2iv(self, form, sub):
        g = generate_ideal(form, GF(32003), seed=29)
        got, w = match_form_2iv(g["ideal"])
        assert got == sub
        regen = Ideal(FORMS[form].build(w), g["ideal"].ring)
        assert ideal_equal(regen, g["ideal"])

    def test_2iv_witness_heights_verified(self):
        g = generate_ideal("2iv-a", GF(32003), seed=29)
        _, w = match_form_2iv(g["ideal"])
        assert FORMS["2iv-a"].check(w, g["ideal"])


class TestCatalogue:
    def test_every_case_has_an_extractor_and_every_locus_a_note(self):
        """ht4-CI always matches a complete intersection, so ht4 alone has
        no unmatched note."""
        assert set(classify_module._EXTRACT) == set(FORMS)
        assert set(classify_module._UNMATCHED) == {spec.locus for spec in FORMS.values()} - {"ht4"}

    @pytest.mark.parametrize("name", ["F7", "F32003"])
    def test_each_witness_sits_at_its_case_locus(self, name):
        for case, spec in FORMS.items():
            I = generate_ideal(case, field_by_name(name), 0)["ideal"]
            locus = classify_module._locus(hilbert_of_quotient(I).codim, minimal_resolution(I)[1])
            assert locus == spec.locus, (case, locus)

    def test_the_context_computes_ann_ext_only_where_it_is_needed(self, monkeypatch):
        """The extractors share one lazy context: Ann Ext^2 is computed once
        on tables (iii) and (iv) and never elsewhere."""
        calls = []
        real = classify_module.ann_ext

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(classify_module, "ann_ext", spy)
        for case, spec in FORMS.items():
            calls.clear()
            rep = classify(generate_ideal(case, GF(32003), 0)["ideal"])
            assert rep.matched_case == spec.display, case
            assert len(calls) == (spec.locus in ("2iii", "2iv")), case


class TestCertificates:
    @pytest.mark.parametrize("form", sorted(KOSZUL))
    def test_lg_certificate_is_checkable(self, form):
        from koszulkit import lg_quadratic_certificate

        g = generate_ideal(form, GF(32003), seed=31)
        rep = classify(g["ideal"])
        cert = rep.certificate
        assert cert["type"] == "lg-quadratic"
        assert cert["regular_sequence_verified"]
        assert cert["specialization_matches_input"]
        # re-verify the quadratic basis claim independently
        from koszulkit import parse_polys
        from koszulkit.ring import MonomialOrder

        ext = parse_ring(cert["generic_ring"])
        gens = [parse_poly(ext, s) for s in cert["generic_ideal"]]
        spec = cert["order"]
        order = MonomialOrder(spec["kind"], perm=spec["perm"], n=ext.n)
        gb = buchberger(gens, order)
        assert is_quadratic_gb(gb)
        L = [parse_poly(ext, s) for s in cert["specializing_forms"]]
        assert is_regular_sequence_mod(Ideal(gens, ext), L)

    def test_lift_needs_one_specializing_form_per_fresh_variable(self):
        from koszulkit.classify import _verified_lift

        g = generate_ideal("2iii", GF(32003), seed=2)
        lift = FORMS["2iii"].lift(g["ring"], g["witnesses"])
        lift.specializing.pop()
        with pytest.raises(ClassificationError, match="one specializing form per fresh variable"):
            _verified_lift(g["ideal"], lift)

    def test_report_json_schema(self):
        g = generate_ideal("2iii", GF(32003), seed=2)
        rep = classify(g["ideal"])
        js = rep.to_json()
        assert js["schema"] == 1
        assert js["matched_case"] == "2iii"
        assert set(js) >= {"betti", "witnesses", "verdict", "certificate", "hgt", "g"}


# Koszul ideals with fewer than four minimal quadrics (quadratic monomial
# ideals and complete intersections).  The reference tables and the ht1 form
# describe four quadrics, so these were misreported as table mismatches or
# crashed in the height-one extraction; they are out of scope and rejected.
FEWER_THAN_FOUR = [
    ("x^2", "y^2"), ("x*y", "z*w"), ("x^2", "x*y", "y^2"), ("x*y", "x*z", "y*z"), ("x*y", "y*z", "z*w"),
    ("x^2", "x*y"), ("x*y", "x*z"), ("x*z", "y*z"), ("x^2", "x*y", "x*z"), ("x*y", "x*z", "x*w"),
    ("x*y", "z*w", "2*x*y"),
]


@pytest.mark.parametrize("gens", FEWER_THAN_FOUR, ids=",".join)
def test_fewer_than_four_minimal_quadrics_rejected(gens):
    R = parse_ring("ring F32003 [x,y,z,w]")
    with pytest.raises(ClassificationError, match="needs [23] generators"):
        classify(ideal(R, *gens))


PINNED_REPORTS = Path(__file__).parent / "data" / "classify_reports.jsonl"
PINNED_FIELDS = ("F2", "F3", "F7", "F32003")


def pinned_reports() -> list[tuple[str, str]]:
    """(label, report JSON) for every form in FORMS, sorted, over F2, F3, F7
    and F32003 at seeds 0 and 1; the pinned file holds the JSON, one line
    each, in this order."""
    out = []
    for case in sorted(FORMS):
        for name in PINNED_FIELDS:
            for seed in (0, 1):
                rep = classify(generate_ideal(case, field_by_name(name), seed)["ideal"])
                out.append((f"{case} {name} seed {seed}", json.dumps(rep.to_json(), sort_keys=True)))
    return out


def test_reports_match_the_pinned_file():
    """The reports (witnesses, verdicts and certificates) are byte-identical
    to the pinned ones.  A change that means to alter a report rewrites the
    file from pinned_reports() and says so in CHANGES.md."""
    want = PINNED_REPORTS.read_text().splitlines()
    got = pinned_reports()
    assert len(got) == len(want) == 104
    differ = [label for (label, line), pinned in zip(got, want) if line != pinned]
    assert not differ, "reports differ from the pinned file: " + ", ".join(differ)


# ---------------------------------------------------------------------------
# common factors: the linear-syzygy construction against the earlier
# elimination-based one, kept here as a reference


def reference_quadric_common_factor(f, g):
    """Linear common factor of two quadrics as f*g / lcm(f, g), with the lcm
    the least-degree generator of an elimination-order intersection."""
    if not f or not g:
        return None
    ring = f.ring
    meet = intersect(Ideal([f], ring), Ideal([g], ring))
    if not meet.gens:
        return None
    lcm = min(meet.gens, key=lambda h: h.total_degree())
    if lcm.total_degree() != 3:
        return None
    cof = ideal_cofactors(f * g, [lcm])
    if cof is None or cof[0].total_degree() != 1:
        return None
    return cof[0].monic(DEGREVLEX.for_ring(ring))


def reference_common_factors(I):
    """The pairwise search by reference_quadric_common_factor, then, when it
    finds nothing, a search of the rank variety rank(mu_f) <= n - 2 of the
    multiplication maps mu_f: S_1 -> S_2/I_2 by polynomial-system solving."""
    ring = I.ring
    K = ring.field
    gens = minimal_quadric_generators(I)
    qs = _QuadricSpace(ring, gens)
    found = {}

    def consider(f):
        if f is None or not f:
            return
        f = f.monic(DEGREVLEX.for_ring(ring))
        if str(f) not in found:
            cof = cofactor_space(qs, f)
            if len(cof) >= 2:
                found[str(f)] = (f, cof)

    pool = list(gens) + [g for g in I.gens if g.total_degree() == 2]
    for f, g in combinations(pool, 2):
        consider(reference_quadric_common_factor(f, g))
    if found:
        return list(found.values())
    aux = RingContext(K, [f"t{i}" for i in range(ring.n)])
    tvars = [aux.var(i) for i in range(ring.n)]
    rows, pivots = linalg.rref(K, qs.coords(gens))

    def reduce(v):
        """The representative of v + I_2 that is zero on the pivot columns."""
        for row, c in zip(rows, pivots):
            if not K.is_zero(v[c]):
                v = [K.sub(x, K.mul(v[c], y)) for x, y in zip(v, row)]
        return v

    red_cols = [[reduce(v) for v in qs.coords([x * xj for x in ring.gens()])] for xj in ring.gens()]
    mu = [
        [sum((tvars[i].scale(red_cols[j][i][c]) for i in range(ring.n)), aux.zero()) for j in range(ring.n)]
        for c in range(len(qs.mons))
    ]
    live_rows = [r for r in range(len(qs.mons)) if any(mu[r][j] for j in range(ring.n))]
    minors = []
    for rows in combinations(live_rows, ring.n - 1):
        for cols in combinations(range(ring.n), ring.n - 1):
            det = _det(aux, mu, list(rows), list(cols))
            if det:
                minors.append(det)
            if len(minors) > 120:
                break
        if len(minors) > 120:
            break
    for pt in solve_system_points(minors, max_points=10):
        if any(not K.is_zero(x) for x in pt):
            consider(ring.linear_form(list(pt)))
    return list(found.values())


COMMON_FACTOR_FIELDS = ["F2", "F3", "F7", "F32003", "QQ"]


@pytest.mark.parametrize("name", ["F2", "F3"])
def test_cofactor_space_spans_every_cofactor(name):
    """Over a small field every linear form can be tried: the span of
    cofactor_space(qs, f) is exactly {ell : f * ell in I}, by ideal
    membership, and its forms are independent."""
    K = field_by_name(name)
    p = K.p
    tried = 0
    for case in ("2i-a", "2i-b", "2ii", "2iv-d"):
        g = generate_ideal(case, K, 0)
        I, ring = g["ideal"], g["ideal"].ring
        qs = _QuadricSpace(ring, minimal_quadric_generators(I))
        linear = [w for w in g["witnesses"].values() if isinstance(w, Polynomial) and w.total_degree() == 1]
        for f in ring.gens() + linear:
            cof = ring.coefficients(cofactor_space(qs, f), ring.linear_monomials)
            span = {tuple(sum(c * v[j] for c, v in zip(cs, cof)) % p for j in range(ring.n))
                    for cs in product(range(p), repeat=len(cof))}
            assert len(span) == p ** len(cof), (case, str(f))
            want = {v for v in product(range(p), repeat=ring.n) if I.contains(f * ring.linear_form(list(v)))}
            assert span == want, (case, str(f))
            tried += len(cof) >= 2
    assert tried


def _random_linear(R, rng):
    return sum((x.scale(R.field.random(rng)) for x in R.gens()), R.zero())


def _random_quadric(R, rng):
    return sum((R.form([R.field.random(rng)], [m]) for m in R.quadratic_monomials), R.zero())


def common_factor_pairs(R, seed):
    """Quadric pairs with and without a linear common factor: (l*a, l*b),
    (l*a, c*l*a), (q, l*b), (l^2, l*b) and (a*b, a*b + l^2) for random
    linear l, a, b, quadric q and scalar c."""
    rng = random.Random(seed)
    out = []
    for _ in range(6):
        l, a, b = (_random_linear(R, rng) for _ in range(3))
        q, c = _random_quadric(R, rng), R.field.random(rng)
        out += [(l * a, l * b), (l * a, (l * a).scale(c)), (q, l * b), (l * l, l * b), (a * b, a * b + l * l)]
    return out


@pytest.mark.parametrize("name", COMMON_FACTOR_FIELDS)
def test_common_factor_matches_the_reference_on_pairs(name):
    K = field_by_name(name)
    R = parse_ring(f"ring {name} [x,y,z,w]")
    pairs = [p for p in common_factor_pairs(R, 5) if p[0] and p[1]]
    for case in sorted(FORMS):
        for seed in (0, 1):
            pairs += combinations(generate_ideal(case, K, seed)["ideal"].gens, 2)
    with_factor = 0
    for f, g in pairs:
        want = reference_quadric_common_factor(f, g)
        assert quadric_common_factor(f, g) == want, (str(f), str(g))
        with_factor += want is not None
    assert 0 < with_factor < len(pairs)


def _scrambled(I, rng):
    """Four random combinations of the generators: the same ideal, for
    generic coefficients, in a basis whose pairs share no factor."""
    K = I.ring.field
    return Ideal([sum((g.scale(K.random(rng)) for g in I.gens), I.ring.zero()) for _ in range(4)], I.ring)


@pytest.mark.parametrize("name", ["F7", "F32003", "QQ"])
def test_common_factors_match_the_reference_on_table_i(name):
    K = field_by_name(name)
    rng = random.Random(9)
    for case in ("2i-a", "2i-b", "2i-c"):
        for seed in (0, 1):
            I = generate_ideal(case, K, seed)["ideal"]
            for J in (I, _scrambled(I, rng)):
                qs = _QuadricSpace(J.ring, minimal_quadric_generators(J))
                got = [(str(f), [str(c) for c in cof]) for f, cof in common_factors(J, qs)]
                want = [(str(f), [str(c) for c in cof]) for f, cof in reference_common_factors(J)]
                assert got == want, (case, seed)


@pytest.mark.parametrize("form", ["2i-a", "2i-b", "2i-c", "2ii", "ht1"])
def test_common_factors_need_no_elimination(monkeypatch, form):
    """Extraction finds common factors by linear algebra: classify runs no
    Buchberger under a block (elimination) order."""
    I = generate_ideal(form, GF(32003), 0)["ideal"]
    kinds = []

    def spy(gens, order=DEGREVLEX):
        kinds.append(order.kind)
        return buchberger(gens, order)

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(classify_module, "buchberger", spy)
    rep = classify(I)
    assert rep.matched_case == EXPECTED_CASE[form] and rep.verdict == "certified-Koszul"
    assert kinds and "block" not in kinds
