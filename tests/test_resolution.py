"""Syzygies, minimal resolutions, Betti tables, chain maps, cones, the
acyclicity test, and Ext annihilators."""

import random

import pytest

from koszulkit import (
    FreeModule,
    GF,
    Ideal,
    PolyMatrix,
    ann_ext,
    buchsbaum_eisenbud_check,
    hilbert_of_quotient,
    ideal_equal,
    is_subideal,
    lift_chain_map,
    mapping_cone,
    minimal_resolution,
    minimalize_complex,
    parse_poly,
    parse_ring,
    shift_complex,
    syzygy_matrix,
)
from koszulkit.forms import KNOWN_HEIGHT2_TABLES, generate_ideal, random_quadric
from koszulkit.groebner import GroebnerError, colon
from koszulkit.modules import TaggedModule
from koszulkit.resolution import FreeComplex
from koszulkit.ring import DEGLEX, PackedLayout, RingError
from test_syzygy_pipeline import ref_minimal_resolution


def P(R, s):
    return parse_poly(R, s)


def ideal(R, *texts):
    return Ideal([P(R, t) for t in texts], R)


class TestSyzygies:
    def test_koszul_pair(self, qq_xy):
        R = qq_xy
        F = FreeModule(R, [(0,)])
        M = PolyMatrix(F, FreeModule(R, [(1,), (1,)]), [[P(R, "x"), P(R, "y")]])
        S = syzygy_matrix(M)
        assert S.ncols == 1 and M.compose(S).is_zero()
        col = [S.entries[0][0], S.entries[1][0]]
        # (-y, x) up to unit
        assert {str(col[0].monic(DEGLEX.for_ring(R))), str(col[1].monic(DEGLEX.for_ring(R)))} == {"x", "y"}

    def test_identity_has_no_syzygies(self, qq_xy):
        R = qq_xy
        F = FreeModule(R, [(0,), (0,)])
        M = PolyMatrix.identity(F)
        assert syzygy_matrix(M).ncols == 0

    def test_one_syzygy_form_column_span(self, generic_one_syzygy):
        # the first syzygies match the displayed matrix's column span
        R = generic_one_syzygy["ring"]
        I = generic_one_syzygy["ideal"]
        cx, B = minimal_resolution(I)
        d2 = cx.maps[1]
        assert d2.ncols == 4
        z0 = R.zero()
        q3, q4 = generic_one_syzygy["q3"], generic_one_syzygy["q4"]
        displayed = PolyMatrix(
            cx.modules[1],
            FreeModule(R, [(3,)] * 3 + [(4,)]),
            [
                [P(R, "y"), P(R, "a3"), P(R, "a4"), z0],
                [-P(R, "x"), P(R, "b3"), P(R, "b4"), z0],
                [z0, -P(R, "z"), z0, q4],
                [z0, z0, -P(R, "z"), -q3],
            ],
        )
        # same column span: each displayed column is a syzygy and the engine's
        # columns reduce to zero against them and vice versa
        from koszulkit.modules import TaggedModule

        assert cx.maps[0].compose(displayed).is_zero()
        assert TaggedModule(d2).contains(displayed)
        assert TaggedModule(displayed).contains(d2)


class TestMinimalResolutions:
    def test_five_quadric_example_table(self, conca_ideal):
        _, B = minimal_resolution(conca_ideal)
        assert B == {(0, 0): 1, (1, 2): 5, (2, 3): 4, (2, 4): 4, (3, 5): 6, (4, 6): 2}

    def test_one_syzygy_form_table(self, generic_one_syzygy):
        _, B = minimal_resolution(generic_one_syzygy["ideal"])
        assert B == KNOWN_HEIGHT2_TABLES["iii"]

    def test_height_one_scaled_exterior_powers(self):
        R = parse_ring("ring QQ [x0,x1,x2,x3,x4]")
        I = ideal(R, "x0*x1", "x0*x2", "x0*x3", "x0*x4")
        _, B = minimal_resolution(I)
        assert [B.beta(i, i + 1) for i in range(1, 5)] == [4, 6, 4, 1]

    def test_d_composed_d_zero_and_minimal(self):
        rng = random.Random(123)
        for trial in range(6):
            n = rng.randint(3, 5)
            R = parse_ring(f"ring F32003 [{','.join(f'x{i}' for i in range(n))}]")
            I = Ideal([random_quadric(R, rng) for _ in range(rng.randint(2, 4))], R)
            cx, B = minimal_resolution(I)
            cx.validate()  # asserts consecutive composition zero
            assert cx.is_minimal()
            assert B.alternating_sum() == hilbert_of_quotient(I).numerator

    def test_order_independence_of_betti_tables(self):
        rng = random.Random(321)
        for trial in range(8):
            n = rng.randint(2, 5)
            R = parse_ring(f"ring F32003 [{','.join(f'x{i}' for i in range(n))}]")
            I = Ideal([random_quadric(R, rng) for _ in range(rng.randint(2, 4))], R)
            # the library resolves under degrevlex; the reference pipeline
            # takes any order
            _, B = minimal_resolution(I)
            assert ref_minimal_resolution(I, order=DEGLEX).betti() == B

    def test_known_height_two_tables(self):
        for form, table in (("2i", "i"), ("2ii", "ii"), ("2iii", "iii"), ("2iv-d", "iv")):
            I = generate_ideal(form, GF(32003), 5)["ideal"]
            assert minimal_resolution(I)[1] == KNOWN_HEIGHT2_TABLES[table]

    def test_display_convention(self):
        R = parse_ring("ring QQ [x,y,z,w]")
        _, B = minimal_resolution(ideal(R, "x*z", "x*w", "y*z", "y*w"))
        out = B.display()
        lines = out.splitlines()
        assert lines[1].split() == ["0", "1", "--", "--", "--"]
        assert lines[2].split() == ["1", "--", "4", "4", "1"]


class TestChainMapsAndCones:
    def _setup_case_a(self):
        R = parse_ring("ring F32003 [x,y,a3,b3,a4,b4]")
        q4 = P(R, "a4*x+b4*y")
        J = ideal(R, "x^2", "b3*x", "a3*x+b3*y")
        cq = colon(J, q4)
        top, _ = minimal_resolution(cq)
        bottom, _ = minimal_resolution(J)
        top2 = shift_complex(top, (2,))
        L0 = PolyMatrix(bottom.modules[0], top2.modules[0], [[q4]])
        return R, J, cq, top2, bottom, L0

    def test_colon_matches_stated_ideal(self):
        R, J, cq, *_ = self._setup_case_a()
        want = ideal(R, "x^2", "x*b3", "b3^2", "a3*x+b3*y")
        assert ideal_equal(cq, want)

    def test_lift_is_chain_map(self):
        R, J, cq, top2, bottom, L0 = self._setup_case_a()
        L = lift_chain_map(L0, top2, bottom)
        for i in range(1, min(len(L), bottom.length + 1)):
            lhs = bottom.maps[i - 1].compose(L[i])
            rhs = L[i - 1].compose(top2.maps[i - 1])
            diff = [
                lhs.entries[r][c] - rhs.entries[r][c]
                for r in range(lhs.nrows)
                for c in range(lhs.ncols)
            ]
            assert all(not d for d in diff)

    def test_cone_case_a_gives_two_syzygy_table(self):
        R, J, cq, top2, bottom, L0 = self._setup_case_a()
        L = lift_chain_map(L0, top2, bottom)
        cone = minimalize_complex(mapping_cone(L, top2, bottom))
        assert cone.betti() == KNOWN_HEIGHT2_TABLES["iv"]

    def test_cone_case_b_gives_two_syzygy_table(self):
        R = parse_ring("ring F32003 [x,y,a2,b3,a4,b4]")
        q4 = P(R, "a4*x+b4*y")
        J = ideal(R, "x*y", "a2*x", "b3*y")
        cq = colon(J, q4)
        top, _ = minimal_resolution(cq)
        bottom, _ = minimal_resolution(J)
        top2 = shift_complex(top, (2,))
        L0 = PolyMatrix(bottom.modules[0], top2.modules[0], [[q4]])
        L = lift_chain_map(L0, top2, bottom)
        cone = minimalize_complex(mapping_cone(L, top2, bottom))
        assert cone.betti() == KNOWN_HEIGHT2_TABLES["iv"]

    def test_cone_over_zero_map_is_direct_sum(self):
        R = parse_ring("ring QQ [x,y]")
        top, _ = minimal_resolution(ideal(R, "x"))
        bottom, _ = minimal_resolution(ideal(R, "y^2"))
        L0 = PolyMatrix(bottom.modules[0], top.modules[0], [[R.zero()]], check=False)
        L = [L0, PolyMatrix.zero(bottom.modules[1], top.modules[1])]
        cone = mapping_cone(L, top, bottom)
        for i in range(cone.length):
            assert cone.ranks()[i + 1] == (
                (bottom.ranks()[i + 1] if i + 1 <= bottom.length else 0)
                + (top.ranks()[i] if i <= top.length else 0)
            )

    def test_identity_lift(self):
        R = parse_ring("ring QQ [x,y]")
        cx, _ = minimal_resolution(ideal(R, "x*y", "x^2"))
        L0 = PolyMatrix.identity(cx.modules[0])
        L = lift_chain_map(L0, cx, cx)
        # lifted maps are invertible over the base (identity up to basis);
        # composing with differentials commutes by construction
        for i, Li in enumerate(L):
            assert Li.nrows == Li.ncols == cx.ranks()[i]

    def test_unliftable_map_names_index_and_first_failing_column(self):
        R = parse_ring("ring F32003 [x,y,z]")
        # index 1: S/(x*y, y^2, x*z, z^2) -> S/(x) does not exist, and the
        # first column of d_1 outside (x) is the one reported
        top, _ = minimal_resolution(ideal(R, "x*y", "y^2", "x*z", "z^2"))
        bottom, _ = minimal_resolution(ideal(R, "x"))
        d1 = top.maps[0]
        first = next(c for c in range(d1.ncols) if any(m[0] == 0 for m in d1.entries[0][c].terms))
        assert first > 0
        L0 = PolyMatrix.identity(top.modules[0])
        with pytest.raises(GroebnerError, match=rf"at index 1, column {first}$"):
            lift_chain_map(L0, top, bottom)
        # index 2: a bottom complex that is not exact in homological degree 1
        # (its d_2 is x times the Koszul syzygy of x^2, x*y) lifts at index 1
        # and fails at 2
        top, _ = minimal_resolution(ideal(R, "x^2", "x*y"))
        assert top.ranks() == [1, 2, 1]
        F0, F1, F2 = top.modules[0], top.modules[1], FreeModule(R, [(4,)])
        d2 = PolyMatrix(F1, F2, [[P(R, "x") * row[0]] for row in top.maps[1].entries])
        bottom = FreeComplex([F0, F1, F2], [top.maps[0], d2])
        with pytest.raises(GroebnerError, match=r"at index 2, column 0$"):
            lift_chain_map(PolyMatrix.identity(F0), top, bottom)


class TestAcyclicityCheck:
    def _explicit(self, R, zf):
        q3, q4 = P(R, "a3*x+b3*y"), P(R, "a4*x+b4*y")
        delta = P(R, "a3*b4-a4*b3")
        z0 = R.zero()
        F0 = FreeModule(R, [(0,)])
        F1 = FreeModule(R, [(2,)] * 4)
        F2 = FreeModule(R, [(3,)] * 3 + [(4,)])
        F3 = FreeModule(R, [(5,)])
        x, y = P(R, "x"), P(R, "y")
        d1 = PolyMatrix(F0, F1, [[x * zf, y * zf, q3, q4]])
        d2 = PolyMatrix(
            F1,
            F2,
            [
                [y, P(R, "a3"), P(R, "a4"), z0],
                [-x, P(R, "b3"), P(R, "b4"), z0],
                [z0, -zf, z0, q4],
                [z0, z0, -zf, -q3],
            ],
        )
        d3 = PolyMatrix(F2, F3, [[delta], [-q4], [q3], [-zf]])
        return FreeComplex([F0, F1, F2, F3], [d1, d2, d3])

    def test_explicit_complex_passes(self, generic_one_syzygy):
        R = generic_one_syzygy["ring"]
        ok, report = buchsbaum_eisenbud_check(self._explicit(R, P(R, "z")))
        assert ok
        heights = {s["i"]: s["minor_height"] for s in report["steps"]}
        assert heights[3] == 3

    def test_degenerate_witness_fails_at_last_step(self, generic_one_syzygy):
        R = generic_one_syzygy["ring"]
        ok, report = buchsbaum_eisenbud_check(self._explicit(R, R.zero()))
        assert not ok
        assert [s["i"] for s in report["steps"] if not s["ok"]] == [3]

    def test_koszul_complex_passes(self, qq_xy):
        R = qq_xy
        cx, _ = minimal_resolution(ideal(R, "x", "y"))
        ok, _ = buchsbaum_eisenbud_check(cx)
        assert ok


class TestExtAnnihilators:
    def test_pipeline_on_one_syzygy_form(self, generic_one_syzygy):
        R = generic_one_syzygy["ring"]
        I = generic_one_syzygy["ideal"]
        a2 = ann_ext(I, 2)
        a3 = ann_ext(I, 3)
        assert ideal_equal(a2, ideal(R, "x", "y"))
        want = Ideal(
            [P(R, "z"), generic_one_syzygy["q3"], generic_one_syzygy["q4"], generic_one_syzygy["delta"]],
            R,
        )
        assert ideal_equal(a3, want)
        prod = Ideal([f * g for f in a2.gens for g in a3.gens], R)
        assert is_subideal(prod, I)

    def test_complete_intersection_top_annihilator(self, qq_xy):
        R = qq_xy
        I = ideal(R, "x^2", "y^2")
        assert ideal_equal(ann_ext(I, 2), I)

    def test_vanishing_ext_has_unit_annihilator(self, qq_xy):
        R = qq_xy
        I = ideal(R, "x^2", "y^2")
        a1 = ann_ext(I, 1)
        assert any(g.is_constant() for g in a1.gens)


class TestValidation:
    def test_minimal_resolution_validates_once(self, monkeypatch, conca_ideal):
        seen = []
        validate = FreeComplex.validate

        def counted(cx):
            seen.append(cx)
            return validate(cx)

        monkeypatch.setattr(FreeComplex, "validate", counted)
        cx, _ = minimal_resolution(conca_ideal)
        assert len(seen) == 1 and seen[0] is cx

    def test_validation_packs_only_the_first_map(self, monkeypatch):
        """minimal_resolution keeps the packed columns of syzygy_matrix on
        its maps, so validating it packs only the generators of I; the
        compositions equal those of copies that pack every entry."""
        I = generate_ideal("2iii", GF(32003), 1)["ideal"]
        cx, _ = minimal_resolution(I)
        packed = []
        pack_terms = PackedLayout.pack_terms

        def counted(lay, terms, frame=0):
            packed.append(terms)
            return pack_terms(lay, terms, frame)

        monkeypatch.setattr(PackedLayout, "pack_terms", counted)
        cx.validate()
        assert len(packed) == cx.maps[0].nrows * cx.maps[0].ncols == len(I.gens)
        monkeypatch.undo()
        fresh = [PolyMatrix(d.target, d.source, d.entries) for d in cx.maps]
        for i in range(1, len(cx.maps)):
            lhs = [row[:] for row in cx.maps[i - 1].compose(cx.maps[i]).entries]
            assert lhs == fresh[i - 1].compose(fresh[i]).entries

    def test_minimalize_complex_rejects_nonzero_composition(self, qq_xy):
        R = qq_xy
        F0, F1, F2 = (FreeModule(R, [(d,)]) for d in range(3))
        d1 = PolyMatrix(F0, F1, [[P(R, "x")]])
        d2 = PolyMatrix(F1, F2, [[P(R, "y")]])
        bad = FreeComplex([F0, F1, F2], [d1, d2], check=False)
        with pytest.raises(RingError, match="d_1 o d_2 != 0"):
            minimalize_complex(bad)


def rebuilt(d):
    """d rebuilt from its entries: no kept packed columns, no Schreyer leads."""
    return PolyMatrix(d.target, d.source, d.entries)


def grid(M):
    return [[f.terms for f in row] for row in M.entries]


class TestSchreyerPackedMaps:
    """From the second map on, a minimal resolution's maps carry the leads
    of the level below, and TaggedModule runs their Schreyer order; a copy
    rebuilt from entries runs the plain order.  Every answer on the one
    must be the answer on the other, so no operation mixes the packings."""

    @pytest.fixture(scope="class", params=["ht3-i", "2iv-d"])
    def resolved(self, request):
        I = generate_ideal(request.param, GF(32003), 0)["ideal"]
        return I, minimal_resolution(I)[0]

    @staticmethod
    def probes(d):
        """(members, others): x_0 times each column of d, and the same plus
        a power of x_1 in the first component, outside the span here."""
        ring = d.ring
        x0, x1 = ring.var(0), ring.var(1)
        twists = [(t[0] + 1,) for t in d.source.twists]
        C = PolyMatrix(d.source, FreeModule(ring, twists),
                       [[x0 if r == c else ring.zero() for c in range(d.ncols)] for r in range(d.ncols)])
        members = d.compose(C)
        entries = [row[:] for row in members.entries]
        for c, (t,) in enumerate(twists):
            entries[0][c] = entries[0][c] + x1 ** (t - d.target.twists[0][0])
        return members, PolyMatrix(d.target, members.source, entries)

    def test_maps_from_the_second_on_run_the_schreyer_order(self, resolved):
        _, cx = resolved
        for i, d in enumerate(cx.maps):
            schreyer = TaggedModule(d).order.packed_leads != TaggedModule(rebuilt(d)).order.packed_leads
            assert schreyer == (i > 0), i

    def test_reduce_and_contains_match_the_rebuilt_maps(self, resolved):
        _, cx = resolved
        for d in cx.maps:
            members, others = self.probes(d)
            schreyer, plain = TaggedModule(d), TaggedModule(rebuilt(d))
            assert all(T.contains(members) and not T.contains(others) for T in (schreyer, plain))
            remainders = []
            for T in (schreyer, plain):
                R, X = T.reduce(others)
                back = d.compose(X)
                assert all(others.entries[r][c] == R.entries[r][c] + back.entries[r][c]
                           for r in range(d.nrows) for c in range(others.ncols))
                assert all(any(row[c] for row in R.entries) for c in range(R.ncols))
                remainders.append(R)
            a, b = remainders
            diff = [[f - g for f, g in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]
            assert plain.contains(PolyMatrix(d.target, others.source, diff))

    def test_compose_matches_the_rebuilt_maps(self, resolved):
        _, cx = resolved
        for d, e in zip(cx.maps, cx.maps[1:]):
            assert d.compose(e).is_zero()
            assert grid(d.compose(e)) == grid(rebuilt(d).compose(rebuilt(e)))
        for d in cx.maps:
            members, _ = self.probes(d)
            assert grid(members) == grid(self.probes(rebuilt(d))[0])

    def test_lifts_and_cones_match_the_rebuilt_maps(self, resolved):
        """S/(three generators) -> S/I lifts to the same chain map either
        way: each lift is unique, as the twists of top's F_i lie below
        those of the bottom's F_(i+1), where the kernel of its d_i starts."""
        I, cx = resolved
        top, _ = minimal_resolution(Ideal(I.gens[:3], I.ring))
        flat = FreeComplex(cx.modules, [rebuilt(d) for d in cx.maps])
        L0 = PolyMatrix.identity(cx.modules[0])
        lifts = lift_chain_map(L0, top, cx)
        assert [grid(L) for L in lifts] == [grid(L) for L in lift_chain_map(L0, top, flat)]
        cone = minimalize_complex(mapping_cone(lifts, top, cx))
        assert cone.betti() == minimalize_complex(mapping_cone(lift_chain_map(L0, top, flat), top, flat)).betti()

    def test_a_corrupted_entry_fails_validation(self, resolved):
        _, cx = resolved
        maps = list(cx.maps)
        d = maps[2]
        r, c = next((r, c) for r in range(d.nrows) for c in range(d.ncols) if d.entries[r][c])
        f = d.entries[r][c]
        d.entries[r][c] = f + f
        try:
            with pytest.raises(RingError, match="d_2 o d_3 != 0"):
                FreeComplex(cx.modules, maps)
        finally:
            d.entries[r][c] = f
        FreeComplex(cx.modules, maps)
