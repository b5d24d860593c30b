"""Quotient-ring resolutions, Koszulness bounds, series pairing, and the
first-syzygy span criterion."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import (
    GF,
    QQ,
    Ideal,
    QuotientRing,
    first_syzygy_criterion,
    froberg_consistency,
    hilbert_of_quotient,
    is_koszul_up_to,
    is_regular_sequence_mod,
    parse_poly,
    parse_ring,
    resolve_over_quotient,
)
from koszulkit import groebner, hilbert, linalg, quotient
from koszulkit.forms import FORMS, generate_ideal, random_quadric
from koszulkit.groebner import GroebnerError, buchberger, cut_last_variable, normal_form
from koszulkit.modules import FreeModule, PolyMatrix, TaggedModule
from koszulkit.resolution import minimal_resolution
from koszulkit.ring import Polynomial, RingContext


def P(R, s):
    return parse_poly(R, s)


def ideal(R, *texts):
    return Ideal([P(R, t) for t in texts], R)


class TestQuotientRing:
    def test_standard_monomials_match_series(self, conca_ideal):
        Q = QuotientRing(conca_ideal)
        h = hilbert_of_quotient(conca_ideal)
        assert [Q.dim_piece((d,)) for d in range(7)] == h.series(6)

    def test_bigraded_piece_dimensions(self, bad_algebra_ideal):
        R = parse_ring("ring F32003 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]")
        I = ideal(R, "b*x", "x*y", "a*x-b*y", "x^2-y^2")
        Q = QuotientRing(I)
        assert Q.dim_piece((2, 0)) == 1
        assert Q.dim_piece((1, 3)) == 2
        assert Q.dim_piece((3, 0)) == 0
        assert Q.dim_piece((0, 4)) == 5
        # the bigraded pieces of each total degree add up to the series
        totals = [sum(Q.dim_piece((p, t - p)) for p in range(t + 1)) for t in range(7)]
        assert totals == hilbert_of_quotient(I).series(6)


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

    def test_betti_numbers_do_not_depend_on_the_variable_order(self, conca_ideal):
        # reversing the variables changes the standard monomials of the
        # degrevlex basis, not the resolution of the residue field
        I = conca_ideal
        R = I.ring
        rev = [R.var(R.n - 1 - i) for i in range(R.n)]
        J = Ideal([g.substitute(rev) for g in I.gens], R)
        r1 = resolve_over_quotient(QuotientRing(I), ("quotient", rev), 4, 5)
        r2 = resolve_over_quotient(QuotientRing(J), ("quotient", rev), 4, 5)
        assert r1.gen_degrees == r2.gen_degrees

    def test_euler_characteristic_bookkeeping(self, conca_ideal):
        # within the window, the alternating sum of resolution piece
        # dimensions matches the series of the residue field (i.e. 1, 0, 0...)
        Q = QuotientRing(conca_ideal)
        gens = [Q.ring.var(i) for i in range(4)]
        bound = 4
        res = resolve_over_quotient(Q, ("quotient", gens), bound, bound)
        h = hilbert_of_quotient(conca_ideal).series(bound)
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


def _coords_ideals():
    yield _bigraded_bad_algebra()[1]
    R = parse_ring("ring QQ [x,y,z]")
    yield ideal(R, "x^2-y*z", "x*y+1/2*z^2")
    R = parse_ring("ring F7 [x,y,z,w]")
    yield ideal(R, "x*y", "z^2+3*x*w", "y^2-w^2")


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, 2), top=st.integers(0, 4), seed=st.integers(0, 2 ** 32))
def test_coords_are_normal_form_coordinates(case, top, seed):
    """coords sums the cached normal forms of the monomials of f: the
    coordinates of NF(f), for random homogeneous f of every degree <= top."""
    I = list(_coords_ideals())[case]
    Q, K, rng = QuotientRing(I), I.ring.field, random.Random(seed)
    for d in quotient._degrees_upto(I.ring, top):
        mons = I.ring.monomials(d)
        f = I.ring.form([K.random(rng) if rng.random() < 0.7 else K.zero() for _ in mons], mons)
        want = [K.zero()] * Q.dim_piece(d)
        for m, c in normal_form(f, Q.gb).terms.items():
            want[Q.std_basis(d).index(m)] = c
        assert Q.coords(f, d) == want


class ReferenceResolver(quotient._Resolver):
    """Reference: the resolver that picks each level's generators after the
    level is resolved, as the greedy complement, in the basis of
    ker(d_lev)_d, of the products x_i * ker(d_lev)_{d - w_i}.  It takes a
    complement in every degree that has a kernel."""

    def run(self, f0_degrees, seeds, hom_bound):
        self._add_level(list(f0_degrees), None)
        bases, degrees, cols = {}, [], {}
        for d in self.degrees:
            if d in seeds:
                B, pivots = linalg.span_basis(self.K, seeds[d])
                self._add_generators(0, d, B, pivots, bases, degrees, cols)
                bases[d] = B
        self._add_level(degrees, cols)
        for lev in range(1, hom_bound):
            degrees, cols = self._kernel_step(lev)
            self._add_level(degrees, cols)
            if not degrees:
                break
        gen_degree_lists = [list(level["degrees"]) for level in self.levels]
        return gen_degree_lists, not gen_degree_lists[-1]

    def _kernel_step(self, lev):
        diffs, kernels, degrees, cols = {}, {}, [], {}
        for d in self.degrees:
            if not self._amb_dim(lev, d):
                continue
            A = diffs[d] = self._differential(lev, d, diffs)
            B, free = linalg.kernel_basis(self.K, A.copy())
            self._add_generators(lev, d, B, free, kernels, degrees, cols)
            kernels[d] = B
        return degrees, cols

    def _add_generators(self, lev, d, B, unit, bases, degrees, cols):
        if not unit:
            return
        products = [self._mul_var_level(lev, bases[dp], dp, var)
                    for var, w in enumerate(self.ring.weights)
                    for dp in [tuple(a - b for a, b in zip(d, w))]
                    if dp in bases and bases[dp].shape[1]]
        V = np.concatenate(products, axis=1) if products else B[:, :0]
        chosen = linalg.complement_in_basis(self.K, unit, V)
        if chosen:
            degrees.extend([d] * len(chosen))
            cols[d] = B[:, chosen]


def reference_run(monkeypatch, resolve):
    """resolve() with the resolver of this module and with ReferenceResolver;
    returns both results and the resolver instances each one made."""
    out = []
    for cls in (quotient._Resolver, ReferenceResolver):
        made = []

        class Spy(cls):
            def run(self, *args):
                made.append(self)
                return super().run(*args)

        with monkeypatch.context() as m:
            m.setattr(quotient, "_Resolver", Spy)
            out.append((resolve(), made))
    return out


def _bigraded_bad_algebra():
    R = parse_ring("ring F32003 [x:(1,0), y:(1,0), a:(0,1), b:(0,1)]")
    return R, ideal(R, "b*x", "x*y", "a*x-b*y", "x^2-y^2")


class TestExactnessCount:
    """Counting each level's new generators by exactness, and taking a
    complement only where some appear, picks the same generators as the
    reference: the same degrees, completeness and differential columns."""

    def same_as_reference(self, monkeypatch, resolve):
        (new, made), (ref, ref_made) = reference_run(monkeypatch, resolve)
        assert new.gen_degrees == ref.gen_degrees
        assert new.complete == ref.complete
        assert len(made) == len(ref_made) == 1
        levels, ref_levels = made[0].levels, ref_made[0].levels
        assert len(levels) == len(ref_levels)
        for level, ref_level in zip(levels[1:], ref_levels[1:]):
            assert level["degrees"] == ref_level["degrees"]
            assert list(level["cols"]) == list(ref_level["cols"])
            for d, M in level["cols"].items():
                assert M.dtype == ref_level["cols"][d].dtype
                assert M.tolist() == ref_level["cols"][d].tolist()
        return new

    @pytest.mark.parametrize("K", [GF(2), GF(3), GF(7), GF(32003), QQ], ids=str)
    def test_witnesses(self, monkeypatch, K):
        for case in FORMS:
            I = generate_ideal(case, K, seed=1)["ideal"]
            self.same_as_reference(monkeypatch, lambda: is_koszul_up_to(I, 4)["resolution"])

    def test_bigraded_module(self, monkeypatch):
        R, I = _bigraded_bad_algebra()
        res = self.same_as_reference(monkeypatch, lambda: resolve_over_quotient(
            QuotientRing(I), ("module", [R.var(2), R.var(3)]), 4, 6))
        assert res.ranks() == [2, 3, 6, 11, 20]

    def test_off_the_linear_strand(self, monkeypatch, bad_algebra_ideal, conca_ideal):
        # the nonlinear generator, at level 6 in degree 7, is at an inner level
        res = self.same_as_reference(monkeypatch, lambda: is_koszul_up_to(bad_algebra_ideal, 7)["resolution"])
        assert res.first_nonlinear() == (6, (7,))
        for I in (bad_algebra_ideal, conca_ideal):
            gens = [I.ring.var(i) for i in range(I.ring.n)]
            self.same_as_reference(monkeypatch, lambda: resolve_over_quotient(
                QuotientRing(I), ("quotient", gens), 5, 6))

    @pytest.mark.parametrize("hom_bound", [0, 1, 2])
    @pytest.mark.parametrize("degree_bound", [0, 1, 2, 3])
    def test_small_windows(self, monkeypatch, conca_ideal, hom_bound, degree_bound):
        gens = [conca_ideal.ring.var(i) for i in range(4)]
        self.same_as_reference(monkeypatch, lambda: resolve_over_quotient(
            QuotientRing(conca_ideal), ("quotient", gens), hom_bound, degree_bound))
        R, I = _bigraded_bad_algebra()
        self.same_as_reference(monkeypatch, lambda: resolve_over_quotient(
            QuotientRing(I), ("module", [R.var(2), R.var(3)]), hom_bound, degree_bound))


def complement_levels(monkeypatch, resolve):
    """(level, last) of every linalg.complement_in_basis call in resolve()."""
    calls, current = [], []
    resolve_level = quotient._Resolver._resolve_level
    complement = linalg.complement_in_basis

    def spy_level(self, lev, below, last):
        current.append((lev, last))
        return resolve_level(self, lev, below, last)

    def spy_complement(*args):
        calls.append(current[-1])
        return complement(*args)

    monkeypatch.setattr(quotient._Resolver, "_resolve_level", spy_level)
    monkeypatch.setattr(linalg, "complement_in_basis", spy_complement)
    resolve()
    return calls


class TestComplementOnlyWhereGeneratorsAppear:
    def test_koszul_witness_takes_none(self, monkeypatch):
        # a linear resolution counts its generators by exactness at every
        # level, the last one included
        I = generate_ideal("2iv-d", GF(32003), seed=8)["ideal"]
        assert complement_levels(monkeypatch, lambda: is_koszul_up_to(I, 6)) == []

    def test_generator_at_the_last_level_takes_a_complement(self, monkeypatch, bad_algebra_ideal):
        # at bound 6 the nonlinear generator, at level 6 in degree 7, is found
        # at the last level
        calls = complement_levels(monkeypatch, lambda: is_koszul_up_to(bad_algebra_ideal, 6))
        assert calls == [(6, True)]

    def test_nonlinear_generators_take_inner_complements(self, monkeypatch, bad_algebra_ideal):
        calls = complement_levels(monkeypatch, lambda: is_koszul_up_to(bad_algebra_ideal, 7))
        assert (6, False) in calls


class TestKoszulVerdicts:
    def test_bad_algebra_nonlinear(self, bad_algebra_ideal):
        r = is_koszul_up_to(bad_algebra_ideal, 6)
        assert r["verdict"] == "nonlinear-at"
        assert r["position"]["hom_degree"] <= 6

    def test_five_quadric_example_linear_so_far(self, conca_ideal):
        r = is_koszul_up_to(conca_ideal, 4)
        assert r["verdict"] == "linear-so-far"
        assert froberg_consistency(r["resolution"], 4)["holds"]

    def test_quadratic_complete_intersection_linear(self):
        R = parse_ring("ring QQ [x,y]")
        r = is_koszul_up_to(ideal(R, "x^2", "y^2"), 5)
        assert r["verdict"] == "linear-so-far"
        assert r["betti_diagonal"] == [1, 2, 3, 4, 5, 6]

    def test_series_pairing_hypersurface(self):
        R = parse_ring("ring QQ [x]")
        Q = QuotientRing(ideal(R, "x^2"))
        res = resolve_over_quotient(Q, ("quotient", [R.var(0)]), 6, 7)
        out = froberg_consistency(res, 6)
        assert out["holds"] and out["pairing"][0] == 1

    def test_series_pairing_fails_off_the_diagonal(self):
        # k[x]/(x^3): the second syzygy of k has degree 3, so the diagonal
        # is 1 + t and (1 + t)(1 - t + t^2) = 1 + t^3
        R = parse_ring("ring QQ [x]")
        res = resolve_over_quotient(QuotientRing(ideal(R, "x^3")), ("quotient", [R.var(0)]), 4, 5)
        out = froberg_consistency(res, 4)
        assert not out["holds"] and out["pairing"] == [1, 0, 0, 1, 0]

    def test_linear_reduction_preserves_verdict(self):
        I = generate_ideal("2iv-d", GF(32003), seed=8)["ideal"]
        r = is_koszul_up_to(I, 4)
        Q = QuotientRing(I)
        uncut = resolve_over_quotient(Q, ("quotient", Q.ring.gens()), 4, 5)
        assert r["verdict"] == "linear-so-far" and uncut.first_nonlinear() is None
        assert r["reduced_by_linear_forms"] > 0


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

    def test_generators_of_different_bidegrees(self):
        # bidegrees (1,1), (1,1), (2,0), (0,2): the two linear syzygies
        # (x e1 - a e3, a e1 - x e4) also give the Koszul syzygy of x^2, a^2,
        # and y*b is coprime to the rest, so all five are spanned
        R = parse_ring("ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]")
        out = first_syzygy_criterion(ideal(R, "x*a", "y*b", "x^2", "a^2"))
        assert out == {"passes": True, "witness": None, "n_min_syzygies": 5, "n_linear": 2, "n_koszul": 6}

    @staticmethod
    def same_as_whole_resolution(monkeypatch, ideals):
        got = [first_syzygy_criterion(I) for I in ideals]
        monkeypatch.setattr(quotient, "syzygy_matrix", _resolution_d2)
        assert [first_syzygy_criterion(I) for I in ideals] == got

    @pytest.mark.parametrize("K", [GF(2), GF(3), GF(7), GF(32003), QQ], ids=str)
    def test_one_level_matches_the_whole_resolution(self, monkeypatch, K):
        ideals = [generate_ideal(case, K, seed)["ideal"] for case in FORMS for seed in range(3)]
        self.same_as_whole_resolution(monkeypatch, ideals)

    def test_one_level_matches_the_whole_resolution_bigraded(self, monkeypatch):
        R = parse_ring("ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]")
        self.same_as_whole_resolution(monkeypatch, [ideal(R, "x*a", "y*b", "x^2", "a^2")])


WITNESS_INPUTS = [(case, K, seed) for case in ("2iv-a", "2iv-b") for K in (GF(2), GF(3), GF(7), GF(32003))
                  for seed in range(5)]


def _witness_setup(case, K, seed):
    """The ideal, its minimal quadric generators, their d2 and the criterion's report."""
    I = generate_ideal(case, K, seed)["ideal"]
    gens = groebner.minimal_quadric_generators(I)
    row = PolyMatrix(FreeModule(I.ring, [I.ring.zero_deg]), FreeModule(I.ring, [f.degree() for f in gens]), [gens])
    return I, gens, quotient.syzygy_matrix(row), first_syzygy_criterion(I)


def _other_minimal_generators(d2, rng):
    """d2 * T, another minimal generating set of the columns' module: within
    each degree T is a random invertible matrix, and it adds random
    polynomial multiples of every column of lower degree."""
    ring, K, twists = d2.ring, d2.ring.field, d2.source.twists
    zero = ring.zero()
    T = [[zero] * d2.ncols for _ in range(d2.ncols)]
    for e in set(twists):
        block = [c for c in range(d2.ncols) if twists[c] == e]
        while True:
            a = [[K.random(rng) for _ in block] for _ in block]
            if linalg.rank(K, a) == len(block):
                break
        for r, cr in enumerate(block):
            for c, cc in enumerate(block):
                T[cr][cc] = ring.const(a[r][c])
    for r in range(d2.ncols):
        for c in range(d2.ncols):
            gap = [x - y for x, y in zip(twists[c], twists[r])]
            if min(gap) >= 0 and any(gap):
                mons = ring.monomials(tuple(gap))
                T[r][c] = ring.form([K.random(rng) for _ in mons], mons)
    return d2.compose(PolyMatrix(d2.source, d2.source, T))


class TestCanonicalWitness:
    """The witness of a failed span criterion on the non-Koszul forms 2iv-a
    and 2iv-b: a syzygy outside L + K that does not depend on which minimal
    generators d2 holds."""

    @pytest.mark.parametrize("case,K,seed", WITNESS_INPUTS, ids=str)
    def test_another_minimal_generating_set_gives_the_same_witness(self, monkeypatch, case, K, seed):
        I, _, d2, want = _witness_setup(case, K, seed)
        other = _other_minimal_generators(d2, random.Random(f"{case} {K} {seed}"))
        assert other.source.twists == d2.source.twists and other.entries != d2.entries
        monkeypatch.setattr(quotient, "syzygy_matrix", lambda row: other)
        assert not want["passes"] and first_syzygy_criterion(I) == want

    @pytest.mark.parametrize("case,K,seed", WITNESS_INPUTS, ids=str)
    def test_the_witness_is_a_syzygy_in_normal_form_outside_the_span(self, case, K, seed):
        I, gens, d2, out = _witness_setup(case, K, seed)
        w = out["witness"]["vector"]
        ring = I.ring
        assert sum((g * v for g, v in zip(gens, w)), ring.zero()) == ring.zero()
        assert {v.degree() for v in w if v} == {(out["witness"]["degree"][0] - 2,)}
        W = PolyMatrix(d2.target, FreeModule(ring, [tuple(out["witness"]["degree"])]), [[v] for v in w])
        R, _ = TaggedModule(quotient._linear_and_koszul(gens, d2)).reduce(W)
        assert [row[0] for row in R.entries] == w and any(w)


def _resolution_d2(row):
    """Reference for the syzygies of a generator row: d2 of the whole
    minimal resolution of S/I."""
    cx, _ = minimal_resolution(Ideal(row.entries[0], row.ring))
    if cx.length < 2:
        return PolyMatrix(row.source, FreeModule(row.ring, []), [[] for _ in range(row.ncols)])
    return cx.maps[1]


def _tries_only_reduction(I, tries=25, seed=11):
    """Reference: the regular-form search that tests every candidate by
    Hilbert series, the last variable included, and runs one Buchberger per
    candidate plus one per cut ring."""
    rng = random.Random(seed)
    cur = I
    used = 0
    while cur.ring.n > 2:
        ring = cur.ring
        K = ring.field
        found = None
        for t in range(tries):
            if t < ring.n:
                coeffs = [K.one() if i == ring.n - 1 - t else K.zero() for i in range(ring.n)]
            else:
                coeffs = [K.random(rng) for _ in range(ring.n)]
            ell = ring.linear_form(coeffs)
            if not ell:
                continue
            if is_regular_sequence_mod(cur, [ell]):
                found = (ell, coeffs)
                break
        if found is None:
            break
        ell, coeffs = found
        piv = max(i for i, c in enumerate(coeffs) if not K.is_zero(c))
        small = RingContext(K, [nm for i, nm in enumerate(ring.names) if i != piv])
        inv = K.neg(K.inv(coeffs[piv]))
        image_terms = {}
        for i, c in enumerate(coeffs):
            if i != piv and not K.is_zero(c):
                m = [0] * small.n
                m[i if i < piv else i - 1] = 1
                image_terms[tuple(m)] = K.mul(c, inv)
        images = []
        for i in range(ring.n):
            if i == piv:
                images.append(Polynomial(small, dict(image_terms)))
            else:
                images.append(small.var(i if i < piv else i - 1))
        new_gens = [g.substitute(images) for g in cur.gens]
        new_gens = [g for g in new_gens if g]
        if not new_gens:
            break
        cur = Ideal(new_gens, small)
        used += 1
    return cur, used


def _bihomogeneous_quadric(R, rng, d):
    K = R.field
    return Polynomial(R, {m: c for m in R.monomials(d) for c in [K.random(rng)] if not K.is_zero(c)})


EXTRA_SEARCH_INPUTS = {
    # x is a socle element: depth 0 before any cut
    "depth-zero": ("ring F32003 [x,y,z]", "x^2, x*y, x*z"),
    # z is regular, then the search stops at two variables
    "one-cut": ("ring F32003 [x,y,z]", "x^2, x*y"),
    "complete-intersection": ("ring F7 [x,y,z,w,v]", "x^2+y*z, y^2-z*w+x*v"),
    # b kills y, and no socle element lives in bidegrees of total degree
    # at most 2; a random form is regular, and the cut ring has depth 0
    "bigraded": ("ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]", "x*a, y*b, x^2, a^2"),
    # w kills x and y, z is regular; on k[x,y,w]/(x*w, y*w) only a random
    # form is regular
    "last-variable-zero-divisor": ("ring F32003 [x,y,z,w]", "x*w, y*w"),
}


class TestRegularFormSearch:
    """The search answers as the tries-only reference does: the same number
    of forms, ring and generators, and the carried basis is the reduced
    basis of the cut ideal."""

    def same_as_reference(self, I):
        fresh = Ideal(list(I.gens), I.ring)
        want, used = _tries_only_reduction(fresh)
        got, got_used, Q = quotient._find_regular_linear_reduction(I)
        assert (got_used, got.ring.names, got.gens) == (used, want.ring.names, want.gens)
        assert got.ring.weights == want.ring.weights
        assert [g.terms for g in got.gb()] == [g.terms for g in buchberger(got.gens)]
        assert Q is None or Q.ideal is got
        return got_used, Q

    @pytest.mark.parametrize("K", [GF(2), GF(3), GF(7), GF(32003), QQ], ids=str)
    def test_forms_match_the_reference(self, K):
        for case in FORMS:
            for seed in range(3):
                self.same_as_reference(generate_ideal(case, K, seed)["ideal"])

    @pytest.mark.parametrize("name", sorted(EXTRA_SEARCH_INPUTS))
    def test_extra_inputs_match_the_reference(self, name):
        decl, gens = EXTRA_SEARCH_INPUTS[name]
        R = parse_ring(decl)
        used, Q = self.same_as_reference(ideal(R, *gens.split(", ")))
        assert used == {"depth-zero": 0, "one-cut": 1, "complete-intersection": 3,
                        "bigraded": 1, "last-variable-zero-divisor": 2}[name]

    def test_cutting_a_witness_runs_one_buchberger(self, monkeypatch):
        """A 2iii witness over F32003 is cut from 7 to 3 variables by the
        last-variable test alone; the socle exit then ends the search."""
        g = generate_ideal("2iii", GF(32003), seed=3)["ideal"]
        calls = []
        run = groebner.buchberger

        def counting(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", counting)
        cur, used, Q = quotient._find_regular_linear_reduction(Ideal(list(g.gens), g.ring))
        assert (g.ring.n, cur.ring.n, used) == (7, 3, 4)
        assert len(calls) == 1 and Q is not None
        r = is_koszul_up_to(Ideal(list(g.gens), g.ring), 4)
        assert len(calls) == 2 and r["verdict"] == "linear-so-far"

    def test_small_field_search_runs_no_hilbert_test(self, monkeypatch):
        """Over F2 a 2iii witness is cut from 7 to 3 variables: one
        Buchberger on I, and one for each candidate after a zero-divisor
        last variable, seven in all; no candidate goes through a Hilbert
        series."""
        g = generate_ideal("2iii", GF(2), 0)["ideal"]
        calls = {"buchberger": 0, "is_regular_sequence_mod": 0}
        for mod, name in ((groebner, "buchberger"), (hilbert, "is_regular_sequence_mod")):
            run = getattr(mod, name)

            def counting(*args, name=name, run=run, **kwargs):
                calls[name] += 1
                return run(*args, **kwargs)

            monkeypatch.setattr(mod, name, counting)
        cur, used, Q = quotient._find_regular_linear_reduction(Ideal(list(g.gens), g.ring))
        assert (cur.ring.n, used) == (3, 4) and Q is not None
        assert calls == {"buchberger": 8, "is_regular_sequence_mod": 0}

    def test_artinian_ring_stops_after_one_buchberger(self, monkeypatch):
        """z is a zero-divisor on S/(x^2, y^2, z^2), and x, y, z all have
        pure powers among the leads: depth 0 without a socle search, whose
        witness x*y*z lies above the top degree of the basis."""
        R = parse_ring("ring F32003 [x,y,z]")
        calls = []
        run = groebner.buchberger

        def counting(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", counting)
        cur, used, Q = quotient._find_regular_linear_reduction(ideal(R, "x^2", "y^2", "z^2"))
        assert len(calls) == 1 and used == 0 and Q is not None and Q.ideal is cur
        monkeypatch.undo()
        self.same_as_reference(ideal(R, "x^2", "y^2", "z^2"))

    def test_rejects_inhomogeneous_and_unit_ideals(self):
        R = parse_ring("ring F7 [x,y,z]")
        for gens in (["x^2+y"], ["x^2", "1"]):
            with pytest.raises(GroebnerError, match="proper homogeneous ideal"):
                is_koszul_up_to(ideal(R, *gens), 3)


def _solved_cut(I, coeffs):
    """Reference: I modulo the linear form with these coefficients, by
    substituting for its last variable with a nonzero coefficient."""
    ring = I.ring
    K = ring.field
    piv = max(i for i, c in enumerate(coeffs) if not K.is_zero(c))
    small = RingContext(K, [nm for i, nm in enumerate(ring.names) if i != piv])
    inv = K.neg(K.inv(coeffs[piv]))
    solved = small.linear_form([K.mul(c, inv) for i, c in enumerate(coeffs) if i != piv])
    images = [solved if i == piv else small.var(i - (i > piv)) for i in range(ring.n)]
    return Ideal([g.substitute(images) for g in I.gens], small)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 7, 32003]), bigraded=st.booleans(), ngens=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_last_variable_test_agrees_with_hilbert(p, bigraded, ngens, seed):
    """cut_last_variable finds the last variable regular exactly when the
    Hilbert test does, and then carries the reduced basis of the cut ideal;
    so does the cut by a random linear form after its change of
    coordinates, whose generators are those of solving the form for its
    last variable."""
    rng = random.Random(seed)
    if bigraded:
        R = parse_ring(f"ring F{p} [x:(1,0),y:(1,0),z:(1,0),a:(0,1),b:(0,1)]")
        gens = [_bihomogeneous_quadric(R, rng, rng.choice([(2, 0), (1, 1), (0, 2)])) for _ in range(ngens)]
    else:
        R = parse_ring(f"ring F{p} [x,y,z,w]")
        gens = [random_quadric(R, rng) for _ in range(ngens)]
    # a zero-divisor last variable now and then: one generator times it
    if rng.random() < 0.4:
        gens[0] = gens[0] * R.var(R.n - 1) * R.var(0)
    I = Ideal([g for g in gens if g] or [R.var(0) ** 2], R)
    small = RingContext(R.field, R.names[:-1])
    cut = cut_last_variable(I, small)
    assert (cut is not None) == is_regular_sequence_mod(I, [R.var(R.n - 1)])
    if cut is not None:
        assert [g.terms for g in cut.gb()] == [g.terms for g in buchberger(cut.gens)]
    # a sparse form now and then, so some pivots lie before the last variable
    K = R.field
    coeffs = [K.random(rng) if rng.random() < 0.6 else K.zero() for _ in range(R.n)]
    if all(K.is_zero(c) for c in coeffs):
        coeffs[rng.randrange(R.n)] = K.one()
    cut = quotient._cut_by_form(Ideal(list(I.gens), R), coeffs)
    assert (cut is not None) == is_regular_sequence_mod(I, [R.linear_form(coeffs)])
    if cut is not None:
        want = _solved_cut(I, coeffs)
        assert (cut.ring.names, cut.gens) == (want.ring.names, want.gens)
        assert [g.terms for g in cut.gb()] == [g.terms for g in buchberger(cut.gens)]


class TestSocleElement:
    CASES = [
        ("ring F32003 [x,y,z]", "x^2, x*y, x*z"),
        ("ring F7 [x,y,z]", "x^2, y^2, z^2"),
        ("ring F2 [x,y,z,w]", "x^2, y^2, z^2, w^2, x*y+z*w"),
        ("ring QQ [x,y,z]", "x^2-y*z, y^2, z^2, x*y"),
        ("ring F32003 [x:(1,0),y:(1,0),a:(0,1),b:(0,1)]", "x^2, x*y, y^2, a^2, a*b, b^2"),
    ]

    @pytest.mark.parametrize("decl,gens", CASES)
    def test_witness_is_killed_by_every_variable(self, decl, gens):
        R = parse_ring(decl)
        I = ideal(R, *gens.split(", "))
        f = quotient._socle_element(QuotientRing(I), 4)
        assert f is not None and f and not I.contains(f)
        assert all(I.contains(R.var(i) * f) for i in range(R.n))

    @pytest.mark.parametrize("decl,gens", [
        ("ring F32003 [x,y,z]", "x^2, y^2"),
        ("ring F7 [x,y,z,w]", "x*y, z*w"),
        ("ring QQ [x,y,z]", "x^2+y^2+z^2"),
    ])
    def test_none_on_a_regular_sequence(self, decl, gens):
        R = parse_ring(decl)
        assert quotient._socle_element(QuotientRing(ideal(R, *gens.split(", "))), 6) is None
