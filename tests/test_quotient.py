"""Quotient-ring resolutions, Koszulness bounds, series pairing, and the
first-syzygy span criterion."""

import random

import pytest

from koszulkit import (
    GF,
    Ideal,
    QuotientRing,
    first_syzygy_criterion,
    froberg_consistency,
    hilbert_of_quotient,
    is_koszul_up_to,
    parse_poly,
    parse_ring,
    resolve_over_quotient,
)
from koszulkit import linalg, quotient
from koszulkit.forms import generate_ideal, random_quadric
from koszulkit.ring import DEGLEX, MonomialOrder


def P(R, s):
    return parse_poly(R, s)


def ideal(R, *texts):
    return Ideal([P(R, t) for t in texts], R)


class TestQuotientRing:
    def test_standard_monomials_match_series(self, conca_ideal):
        Q = QuotientRing(conca_ideal)
        h = hilbert_of_quotient(conca_ideal)
        assert Q.hilbert_coeffs(6) == h.series(6)

    def test_bigraded_piece_dimensions(self, bad_algebra_ideal):
        R = parse_ring("ring F32003 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]")
        I = ideal(R, "b*x", "x*y", "a*x-b*y", "x^2-y^2")
        Q = QuotientRing(I)
        assert Q.dim_piece((2, 0)) == 1
        assert Q.dim_piece((1, 3)) == 2
        assert Q.dim_piece((3, 0)) == 0
        assert Q.dim_piece((0, 4)) == 5


class TestResolveOverQuotient:
    def test_hypersurface_periodicity(self):
        R = parse_ring("ring QQ [x]")
        Q = QuotientRing(ideal(R, "x^2"))
        res = resolve_over_quotient(Q, ("quotient", [R.var(0)]), 6, 7)
        assert res.ranks() == [1] * 7
        assert res.first_nonlinear() is None

    def test_bad_algebra_module_ranks(self):
        R = parse_ring("ring F32003 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]")
        I = ideal(R, "b*x", "x*y", "a*x-b*y", "x^2-y^2")
        Q = QuotientRing(I)
        res = resolve_over_quotient(Q, ("module", [R.var(2), R.var(3)]), 4, 6)
        assert res.ranks() == [2, 3, 6, 11, 20]
        assert res.first_nonlinear(offset=1) is None

    def test_bad_algebra_char2_quadratic_fourth_syzygy(self):
        R = parse_ring("ring F2 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]")
        I = ideal(R, "b*x", "x*y", "a*x+b*y", "x^2+y^2")
        Q = QuotientRing(I)
        res = resolve_over_quotient(Q, ("module", [R.var(2), R.var(3)]), 4, 6)
        pos = res.first_nonlinear(offset=1)
        assert pos == (4, (4, 2))

    def test_single_vs_bigraded_totals_agree(self):
        Rb = parse_ring("ring F32003 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]")
        Ib = ideal(Rb, "b*x", "x*y", "a*x-b*y", "x^2-y^2")
        Rs = parse_ring("ring F32003 [x,y,a,b]")
        Is = ideal(Rs, "b*x", "x*y", "a*x-b*y", "x^2-y^2")
        rb = resolve_over_quotient(QuotientRing(Ib), ("module", [Rb.var(2), Rb.var(3)]), 4, 6)
        rs = resolve_over_quotient(QuotientRing(Is), ("module", [Rs.var(2), Rs.var(3)]), 4, 6)
        for i in range(5):
            tot_b = sorted(sum(d) for d in rb.gen_degrees[i])
            tot_s = sorted(sum(d) for d in rs.gen_degrees[i])
            assert tot_b == tot_s

    def test_order_independence_of_quotient_betti(self, conca_ideal):
        I = conca_ideal
        Q1 = QuotientRing(I)
        Q2 = QuotientRing(I, MonomialOrder("deglex"))
        gens1 = [Q1.ring.var(i) for i in range(4)]
        r1 = resolve_over_quotient(Q1, ("quotient", gens1), 4, 5)
        r2 = resolve_over_quotient(Q2, ("quotient", gens1), 4, 5)
        assert r1.ranks() == r2.ranks()
        assert r1.gen_degrees == r2.gen_degrees

    def test_euler_characteristic_bookkeeping(self, conca_ideal):
        # within the window, the alternating sum of resolution piece
        # dimensions matches the series of the residue field (i.e. 1, 0, 0...)
        Q = QuotientRing(conca_ideal)
        gens = [Q.ring.var(i) for i in range(4)]
        bound = 4
        res = resolve_over_quotient(Q, ("quotient", gens), bound, bound)
        h = Q.hilbert_coeffs(bound)
        for d in range(bound + 1):
            total = 0
            for i, degs in enumerate(res.gen_degrees):
                for gd in degs:
                    rem = d - sum(gd)
                    if rem >= 0:
                        total += (-1) ** i * h[rem]
            assert total == (1 if d == 0 else 0)


class TestResolverPaths:
    """The int64 path and the generic object-array path of linalg give the
    same resolution, down to the differential columns of every level."""

    def both_paths(self, monkeypatch, resolve):
        resolvers = []
        run = quotient._Resolver.run

        def spy(self, *args):
            resolvers.append(self)
            return run(self, *args)

        monkeypatch.setattr(quotient._Resolver, "run", spy)
        fast = resolve()
        with monkeypatch.context() as m:
            m.setattr(linalg, "_use_numpy", lambda K: False)
            generic = resolve()
        assert fast.to_json() == generic.to_json()
        levels = []
        for res, dtype in zip(resolvers, ("int64", "object")):
            cols = [lvl["cols"] for lvl in res.levels[1:]]
            assert all(M.dtype == dtype for c in cols for M in c.values())
            levels.append([{d: M.tolist() for d, M in c.items()} for c in cols])
        assert levels[0] == levels[1]
        return fast

    def test_bigraded_module(self, monkeypatch):
        R = parse_ring("ring F32003 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]")
        I = ideal(R, "b*x", "x*y", "a*x-b*y", "x^2-y^2")
        res = self.both_paths(monkeypatch, lambda: resolve_over_quotient(
            QuotientRing(I), ("module", [R.var(2), R.var(3)]), 4, 6))
        assert res.ranks() == [2, 3, 6, 11, 20]

    def test_2iv_d_witness(self, monkeypatch):
        I = generate_ideal("2iv-d", GF(32003), seed=8)["ideal"]
        res = self.both_paths(monkeypatch, lambda: is_koszul_up_to(I, 4)["resolution"])
        assert res.first_nonlinear() is None


class TestKoszulVerdicts:
    def test_bad_algebra_nonlinear(self, bad_algebra_ideal):
        r = is_koszul_up_to(bad_algebra_ideal, 6)
        assert r["verdict"] == "nonlinear-at"
        assert r["position"]["hom_degree"] <= 6

    def test_five_quadric_example_linear_so_far(self, conca_ideal):
        r = is_koszul_up_to(conca_ideal, 4)
        assert r["verdict"] == "linear-so-far"
        assert froberg_consistency(r, 4)["holds"]

    def test_quadratic_complete_intersection_linear(self):
        R = parse_ring("ring QQ [x,y]")
        r = is_koszul_up_to(ideal(R, "x^2", "y^2"), 5, reduce_first=False)
        assert r["verdict"] == "linear-so-far"
        assert r["betti_diagonal"] == [1, 2, 3, 4, 5, 6]

    def test_series_pairing_hypersurface(self):
        R = parse_ring("ring QQ [x]")
        Q = QuotientRing(ideal(R, "x^2"))
        res = resolve_over_quotient(Q, ("quotient", [R.var(0)]), 6, 7)
        out = froberg_consistency(res, 6)
        assert out["holds"] and out["pairing"][0] == 1

    def test_froberg_skipped_when_nonlinear(self, bad_algebra_ideal):
        r = is_koszul_up_to(bad_algebra_ideal, 6)
        out = froberg_consistency(r, 6)
        assert out["applicable"] is False

    def test_linear_reduction_preserves_verdict(self):
        g = generate_ideal("2iv-d", GF(32003), seed=8)
        r1 = is_koszul_up_to(g["ideal"], 4, reduce_first=True)
        r2 = is_koszul_up_to(g["ideal"], 4, reduce_first=False)
        assert r1["verdict"] == r2["verdict"] == "linear-so-far"
        assert r1["reduced_by_linear_forms"] > 0


class TestFirstSyzygyCriterion:
    def test_case_a_fails_with_quadratic_witness(self):
        R = parse_ring("ring F32003 [x,y,a3,b3,a4,b4]")
        I = ideal(R, "x^2", "b3*x", "a3*x+b3*y", "a4*x+b4*y")
        out = first_syzygy_criterion(I)
        assert not out["passes"]
        assert out["n_min_syzygies"] == 6 and out["n_linear"] == 2
        assert out["witness"]["degree"] == [4]

    def test_case_b_fails(self):
        R = parse_ring("ring F32003 [x,y,a2,b3,a4,b4]")
        I = ideal(R, "x*y", "a2*x", "b3*y", "a4*x+b4*y")
        out = first_syzygy_criterion(I)
        assert not out["passes"] and out["witness"]["degree"] == [4]

    def test_complete_intersection_passes(self):
        R = parse_ring("ring QQ [x,y]")
        out = first_syzygy_criterion(ideal(R, "x^2", "y^2"))
        assert out["passes"]

    @pytest.mark.parametrize("form", ["2i", "2ii", "2iii", "2iv-d"])
    def test_koszul_forms_pass(self, form):
        g = generate_ideal(form, GF(32003), seed=2)
        assert first_syzygy_criterion(g["ideal"])["passes"]

    def test_two_factor_pair_form_passes(self):
        # the remaining non-Koszul sub-form is invisible to this test
        R = parse_ring("ring F32003 [x,y,a3,b3,a4,b4]")
        I = ideal(R, "b3*x", "b4*x", "a3*x+b3*y", "a4*x+b4*y")
        assert first_syzygy_criterion(I)["passes"]
