"""Witness sampling: every emitted ideal satisfies its case conditions."""

import hashlib
import json
import random

import pytest

from koszulkit import GF, QQ, Ideal, hilbert_of_quotient, minimal_resolution, parse_poly, parse_ring
from koszulkit.forms import (
    FORMS,
    KNOWN_HEIGHT2_TABLES,
    build_2iv_d,
    check_2iv_d,
    generate_ideal,
    ideal_cofactors,
    pair_decomposition,
    random_linear,
    random_quadric,
    resolve_case_id,
    span_dim,
)
from koszulkit.groebner import GroebnerError, ideal_equal, intersect, minimal_quadric_generators
from koszulkit.hilbert import zp_add
from koszulkit.ring import RingContext


@pytest.mark.parametrize("form", sorted(FORMS))
def test_sampled_witnesses_validate(form):
    g = generate_ideal(form, GF(32003), seed=41)
    I = g["ideal"]
    assert len(minimal_quadric_generators(I)) == 4
    assert FORMS[form].check(g["witnesses"], I) is True


# sha256 prefix of the generate_ideal outputs below: a change to a witness
# check, a sampler or a build changes which draw each rejection loop returns
GENERATED_SHA256 = "b2fdee34a355"


def test_generated_ideals_are_pinned():
    """Ring names, witnesses in order and generators of every case and the
    umbrella 2i, over F2, F3, F7, F32003 and QQ at seeds 0-4.  Over F2 and F3
    many draws fail their check, so this pins every outcome that picks one."""
    out = []
    for case in list(FORMS) + ["2i"]:
        for K in (GF(2), GF(3), GF(7), GF(32003), QQ):
            for s in range(5):
                g = generate_ideal(case, K, s)
                out.append([case, K.name, s, g["concrete_case"], g["ring"].names,
                            [[k, str(v)] for k, v in g["witnesses"].items()],
                            [str(f) for f in g["ideal"].gens]])
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest().startswith(GENERATED_SHA256)


@pytest.mark.parametrize("form", sorted(FORMS))
def test_checks_are_predicates_on_raw_draws(form):
    """The check of each case returns a bool, also on draws that fail it."""
    spec = FORMS[form]
    ring = RingContext(GF(2), [f"x{i}" for i in range(spec.nvars)])
    rng = random.Random(f"raw:{form}")
    for _ in range(20):
        w = spec.sample(ring, rng)
        assert type(spec.check(w, Ideal(spec.build(w), ring))) is bool


def test_ideal_cofactors_divides_exactly():
    R = parse_ring("ring QQ [x,y]")
    x, y = R.gens()
    assert ideal_cofactors(parse_poly(R, "x^2*y - x*y^2"), [x * y]) == [x - y]
    assert ideal_cofactors(parse_poly(R, "x^2 + y^2"), [x]) is None
    assert ideal_cofactors(R.zero(), [x]) == [R.zero()]
    for K in (GF(2), GF(7), GF(32003)):
        ring = RingContext(K, ["x", "y", "z"])
        rng = random.Random(f"cofactors:{K}")
        for _ in range(10):
            ell, q = random_linear(ring, rng), random_quadric(ring, rng)
            for f, g in ((ell * q, ell), (ell * q, q)):
                (c,) = ideal_cofactors(f, [g])
                assert c * g == f


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
        assert check_2iv_d(w, I) == (_spans_ok(w) and transversal)
        if _spans_ok(w):
            seen.add(transversal)
    assert seen == {True, False}


def _spans_ok(w) -> bool:
    """The span conditions of 2iv-d: (a1, a2), (b3, b4) and (x, y) are planes."""
    return all(span_dim([w[a], w[b]]) == 2 for a, b in (("a1", "a2"), ("b3", "b4"), ("x", "y")))


def _check_2iv_d_by_product(w, I):
    """Reference for check_2iv_d: the same conditions, with the Hilbert series
    of S/(I1*I2) taken from the product ideal itself."""
    if not _spans_ok(w):
        return False
    ring = w["x"].ring
    I1 = Ideal([w["a1"] * w["x"], w["a2"] * w["x"]], ring)
    I2 = Ideal([w["b3"] * w["y"], w["b4"] * w["y"]], ring)
    prod = Ideal([f * g for f in I1.gens for g in I2.gens], ring)
    num = lambda J: hilbert_of_quotient(J).numerator
    return zp_add(num(I1), num(I2)) == zp_add(num(I), num(prod))


_SMALL_FIELDS = [GF(2), GF(3), GF(7), GF(32003)]


def test_2iv_d_factored_series_matches_the_product_ideal():
    """300 draws of the 2iv-d sampler, 75 a field; over the small fields
    many are degenerate, so both outcomes of the transversality test occur
    on draws whose spans pass."""
    outcomes = set()
    for K in _SMALL_FIELDS:
        ring = RingContext(K, [f"x{i}" for i in range(6)])
        rng = random.Random(f"2iv-d-factored:{K}")
        for _ in range(75):
            w = FORMS["2iv-d"].sample(ring, rng)
            I = Ideal(build_2iv_d(w), ring)
            want = _check_2iv_d_by_product(w, I)
            assert check_2iv_d(w, I) == want, (K.name, {k: str(v) for k, v in w.items()})
            if _spans_ok(w):
                outcomes.add(want)
    assert outcomes == {True, False}


def test_2iv_d_factored_series_on_degenerate_witnesses():
    """x = 0 and y = 0 make the product zero; the rest are edge cases of the
    factor K = (a1, a2)(b3, b4)."""
    R = parse_ring("ring F7 [x0,x1,x2,x3,x4,x5]")
    x0, x1, x2, x3, x4, x5 = R.gens()
    base = {"x": x0, "y": x1, "a1": x2, "a2": x3, "b3": x4, "b4": x5}
    cases = [
        {"x": R.zero()},
        {"y": R.zero()},
        {"y": x0.scale(R.field.coerce(2))},
        {"a1": R.zero(), "a2": R.zero()},
        {"x": x4 + x5.scale(R.field.coerce(3))},
        {"y": x2 - x3},
        {"b3": x2, "b4": x3},
        {},
    ]
    for change in cases:
        w = base | change
        I = Ideal(build_2iv_d(w), R)
        assert check_2iv_d(w, I) == _check_2iv_d_by_product(w, I), change


def test_sampling_with_the_product_reference_draws_the_same_witnesses(monkeypatch):
    """Every check outcome in the rejection loop decides which draw is
    returned, so equal witnesses for s = 0..9 show equal outcomes there."""
    def run():
        out = []
        for K in _SMALL_FIELDS:
            for s in range(10):
                g = generate_ideal("2iv-d", K, s)
                out.append(([str(g["witnesses"][k]) for k in sorted(g["witnesses"])], [str(f) for f in g["ideal"].gens]))
        return out

    got = run()
    monkeypatch.setattr(FORMS["2iv-d"], "check", _check_2iv_d_by_product)
    assert run() == got
