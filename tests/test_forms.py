"""Witness sampling: every emitted ideal satisfies its case conditions."""

import random

import pytest

from koszulkit import GF, QQ, Ideal, hilbert_of_quotient, minimal_resolution, parse_poly, parse_ring
from koszulkit.forms import (
    FORMS,
    KNOWN_HEIGHT2_TABLES,
    check_2iv_d,
    generate_ideal,
    pair_decomposition,
    random_linear,
    resolve_case_id,
)
from koszulkit.groebner import GroebnerError, ideal_equal, intersect, minimal_quadric_generators
from koszulkit.ring import RingContext


@pytest.mark.parametrize("form", sorted(FORMS))
def test_sampled_witnesses_validate(form):
    g = generate_ideal(form, GF(32003), seed=41)
    I = g["ideal"]
    assert len(minimal_quadric_generators(I)) == 4
    assert not FORMS[form].check(g["witnesses"], I)


@pytest.mark.parametrize("form,table", [("2i-a", "i"), ("2ii", "ii"), ("2iii", "iii"), ("2iv-d", "iv")])
def test_sampled_forms_hit_reference_tables(form, table):
    g = generate_ideal(form, GF(32003), seed=2)
    _, B = minimal_resolution(g["ideal"])
    assert B == KNOWN_HEIGHT2_TABLES[table]


def test_umbrella_form_rotates_subcases():
    seen = {resolve_case_id("2i", s) for s in range(3)}
    assert seen == {"2i-a", "2i-b", "2i-c"}


def test_determinism_of_generation():
    a = generate_ideal("2iii", GF(32003), seed=5)
    b = generate_ideal("2iii", GF(32003), seed=5)
    assert [str(x) for x in a["ideal"].gens] == [str(x) for x in b["ideal"].gens]
    c = generate_ideal("2iii", GF(32003), seed=6)
    assert [str(x) for x in a["ideal"].gens] != [str(x) for x in c["ideal"].gens]


def test_multiplicity_one_families():
    # the one-syzygy and transversal families always have multiplicity one
    for form in ("2iii", "2iv-d"):
        for seed in range(3):
            g = generate_ideal(form, GF(32003), seed=seed)
            assert hilbert_of_quotient(g["ideal"]).multiplicity == 1


def test_sampling_exhaustion_raises():
    # four independent quadrics cannot exist in two variables
    with pytest.raises(GroebnerError, match="larger field"):
        generate_ideal("ht4-CI", GF(2), seed=0, nvars=2)


@pytest.mark.parametrize("nvars", [0, -1])
def test_fewer_than_one_variable_is_rejected(nvars):
    with pytest.raises(GroebnerError, match="at least one variable"):
        generate_ideal("2iii", GF(32003), seed=0, nvars=nvars)


def test_pair_decomposition_rejects_constant_term():
    R = parse_ring("ring F32003 [x,y]")
    assert len(pair_decomposition(parse_poly(R, "x^2+x*y"))) == 1
    with pytest.raises(GroebnerError, match="constant term"):
        pair_decomposition(parse_poly(R, "x*y+1"))


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("field", [GF(7), GF(32003), QQ], ids=lambda K: K.name)
def test_lift_specializes_to_the_built_ideal(form, field):
    """Setting each fresh variable of the lift to its witness value (the
    variable minus its specializing form) gives back Ideal(build(w))."""
    g = generate_ideal(form, field, seed=3)
    ring, w = g["ring"], g["witnesses"]
    lift = FORMS[form].lift(ring, w)
    k = lift.ring.n - ring.n
    assert len(lift.specializing) == k
    drop_fresh = [ring.zero()] * k + [ring.var(i) for i in range(ring.n)]
    values = [(lift.ring.var(i) - f).substitute(drop_fresh) for i, f in enumerate(lift.specializing)]
    images = values + [ring.var(i) for i in range(ring.n)]
    specialized = Ideal([f.substitute(images) for f in lift.ideal_gens], ring)
    assert ideal_equal(specialized, Ideal(FORMS[form].build(w), ring))


@pytest.mark.parametrize("K", [GF(2), GF(3), GF(7), GF(32003), QQ], ids=str)
def test_2iv_d_transversality_by_hilbert_series_matches_intersection(K):
    """check_2iv_d tests I1 ∩ I2 = I1*I2 by Hilbert series; the reference
    computes the intersection.  Every third pair shares the factor a1 and
    every third the factor x, so both answers occur."""
    ring = RingContext(K, [f"x{i}" for i in range(6)])
    rng = random.Random(f"2iv-d:{K}")
    seen = set()
    for trial in range(9):
        w = dict(zip(["x", "y", "a1", "a2", "b3", "b4"], [random_linear(ring, rng) for _ in range(6)]))
        if trial % 3 == 1:
            w["b3"] = w["a1"]
        elif trial % 3 == 2:
            w["y"] = w["x"]
        I1 = Ideal([w["a1"] * w["x"], w["a2"] * w["x"]], ring)
        I2 = Ideal([w["b3"] * w["y"], w["b4"] * w["y"]], ring)
        prod = Ideal([f * g for f in I1.gens for g in I2.gens], ring)
        transversal = ideal_equal(intersect(I1, I2), prod)
        I = Ideal(FORMS["2iv-d"].build(w), ring)
        assert ("summands are not transversal" not in check_2iv_d(w, I)) == transversal
        seen.add(transversal)
    assert seen == {True, False}
