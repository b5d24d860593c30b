"""Witness sampling: every emitted ideal satisfies its case conditions."""

import pytest

from koszulkit import GF, QQ, Ideal, hilbert_of_quotient, minimal_resolution, parse_poly, parse_ring
from koszulkit.forms import FORMS, KNOWN_HEIGHT2_TABLES, generate_ideal, pair_decomposition, resolve_case_id
from koszulkit.groebner import GroebnerError, minimal_quadric_generators


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


def test_pair_decomposition_rejects_constant_term():
    R = parse_ring("ring F32003 [x,y]")
    assert len(pair_decomposition(parse_poly(R, "x^2+x*y"))) == 1
    with pytest.raises(GroebnerError, match="constant term"):
        pair_decomposition(parse_poly(R, "x*y+1"))
