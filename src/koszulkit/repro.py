"""The reproduction driver: every expected value regenerated by the engine,
compared exactly against the manifest shipped with the package."""

from __future__ import annotations

import json
from importlib import resources

from .appendix import run_battery
from .classify import ClassificationError, classify
from .field import field_by_name
from .forms import generate_ideal
from .groebner import (
    Ideal,
    buchberger,
    colon,
    g_quadratic_search,
    ideal_equal,
    intersect,
    is_quadratic_gb,
    is_subideal,
)
from .hilbert import hilbert_of_quotient
from .modules import FreeModule, PolyMatrix
from .parse import parse_poly, parse_ring
from .quotient import first_syzygy_criterion, froberg_consistency, is_koszul_up_to
from .resolution import (
    FreeComplex,
    ann_ext,
    buchsbaum_eisenbud_check,
    lift_chain_map,
    mapping_cone,
    minimal_resolution,
    minimalize_complex,
    shift_complex,
)
from .ring import MonomialOrder


def _conca_ideal():
    R = parse_ring("ring F32003 [x,y,z,w]")
    gens = [parse_poly(R, s) for s in ["x*y", "x*w", "(x-y)*z", "z^2", "x^2+z*w"]]
    return Ideal(gens, R)


def _bad_algebra():
    R = parse_ring("ring F32003 [x,y,a,b]")
    gens = [parse_poly(R, s) for s in ["b*x", "x*y", "a*x-b*y", "x^2-y^2"]]
    return Ideal(gens, R)


def _generic_2iii_ring():
    R = parse_ring("ring F32003 [a3,b3,b4,a4,x,y,z]")
    P = lambda s: parse_poly(R, s)
    gens = [P("x*z"), P("y*z"), P("a3*x+b3*y"), P("a4*x+b4*y")]
    return R, gens


def chk_betti_tables(params, expect):
    field = field_by_name(params["field"])
    got = {}
    ok = True
    for form in params["forms"]:
        for seed in params["seeds"]:
            g = generate_ideal(form, field, seed)
            _, B = minimal_resolution(g["ideal"])
            got_tab = B.to_json()
            if got_tab != expect[form]:
                ok = False
                got[f"{form}:{seed}"] = got_tab
    return ok, got or expect


def chk_conca_betti(params, expect):
    _, B = minimal_resolution(_conca_ideal())
    got = B.to_json()
    return got == expect, got


def chk_conca_hilbert(params, expect):
    h = hilbert_of_quotient(_conca_ideal())
    got = {
        "reduced_numerator": list(h.reduced_numerator),
        "dim": h.dim,
        "multiplicity": h.multiplicity,
    }
    return got == expect, got


def chk_quadratic_basis(params, expect):
    R, gens = _generic_2iii_ring()
    order = MonomialOrder("deglex", n=R.n)
    gb = buchberger(gens, order)
    monic = sorted(str(g.monic(order)) for g in gens)
    got = {
        "basis_size": len(gb),
        "quadratic": is_quadratic_gb(gb),
        "equals_generators": sorted(str(g) for g in gb.elements) == monic,
    }
    return got == expect, got


def _explicit_complex(R, zf):
    P = lambda s: parse_poly(R, s)
    q3, q4, delta = P("a3*x+b3*y"), P("a4*x+b4*y"), P("a3*b4-a4*b3")
    z0 = R.zero()
    F0 = FreeModule(R, [(0,)])
    F1 = FreeModule(R, [(2,)] * 4)
    F2 = FreeModule(R, [(3,)] * 3 + [(4,)])
    F3 = FreeModule(R, [(5,)])
    x, y = P("x"), P("y")
    phi1 = PolyMatrix(F0, F1, [[x * zf, y * zf, q3, q4]])
    phi2 = PolyMatrix(
        F1,
        F2,
        [
            [y, P("a3"), P("a4"), z0],
            [-x, P("b3"), P("b4"), z0],
            [z0, -zf, z0, q4],
            [z0, z0, -zf, -q3],
        ],
    )
    phi3 = PolyMatrix(F2, F3, [[delta], [-q4], [q3], [-zf]])
    return FreeComplex([F0, F1, F2, F3], [phi1, phi2, phi3])


def chk_acyclicity(params, expect):
    R, _ = _generic_2iii_ring()
    ok1, _rep = buchsbaum_eisenbud_check(_explicit_complex(R, parse_poly(R, "z")))
    ok2, rep2 = buchsbaum_eisenbud_check(_explicit_complex(R, R.zero()))
    failing = [s["i"] for s in rep2["steps"] if not s["ok"]]
    got = {
        "generic_passes": ok1,
        "degenerate_fails": not ok2,
        "degenerate_failing_index": failing[0] if failing else None,
    }
    return got == expect, got


def chk_ann_ext(params, expect):
    R, gens = _generic_2iii_ring()
    P = lambda s: parse_poly(R, s)
    I = Ideal(gens, R)
    a2 = ann_ext(I, 2)
    a3 = ann_ext(I, 3)
    xy = Ideal([P("x"), P("y")], R)
    tgt = Ideal([P("z"), P("a3*x+b3*y"), P("a4*x+b4*y"), P("a3*b4-a4*b3")], R)
    prod = Ideal([f * g for f in a2.gens for g in a3.gens], R)
    got = {
        "a2_is_linear_prime": ideal_equal(a2, xy),
        "a3_matches": ideal_equal(a3, tgt),
        "product_contained": is_subideal(prod, I),
    }
    return got == expect, got


def chk_first_syzygy(params, expect):
    field = field_by_name(params["field"])
    got = {}
    for form in expect:
        g = generate_ideal(form, field, params["seed"])
        got[form] = first_syzygy_criterion(g["ideal"])["passes"]
    return got == expect, got


def chk_bad_algebra(params, expect):
    battery = run_battery()
    got = {"obstructions": {}, "ranks_ok": True}
    for run in battery["runs"]:
        obs = run["obstruction"]
        got["obstructions"][run["field"]] = [obs.get("hom_degree"), obs.get("total_degree")]
        if run["characteristic"] != 2 and obs["ranks"][:5] != expect["ranks_char_not_2"]:
            got["ranks_ok"] = False
    ok = (
        battery["ok"]
        and got["ranks_ok"]
        and got["obstructions"] == expect["obstructions"]
    )
    return ok, got


def chk_koszul_verdicts(params, expect):
    r1 = is_koszul_up_to(_bad_algebra(), params["bound_bad"])
    r2 = is_koszul_up_to(_conca_ideal(), params["bound_example"])
    fro = froberg_consistency(r2["resolution"], params["bound_example"]) if r2["verdict"] == "linear-so-far" else {"holds": False}
    got = {
        "bad_algebra": r1["verdict"],
        "example_ring": r2["verdict"],
        "series_pairing_holds": bool(fro["holds"]),
    }
    return got == expect, got


def chk_lg_certificates(params, expect):
    field = field_by_name(params["field"])
    bad = []
    for form in params["forms"]:
        g = generate_ideal(form, field, params["seed"])
        rep = classify(g["ideal"])
        if rep.verdict != "certified-Koszul" or rep.certificate.get("type") != "lg-quadratic":
            bad.append(form)
    got = {"all_certified": not bad}
    if bad:
        got["failed_forms"] = bad
    return got == expect, got


def chk_transversal(params, expect):
    R = parse_ring("ring F32003 [x,y,a1,a2,b3,b4,u,v,s,t]")
    P = lambda s: parse_poly(R, s)
    I1 = Ideal([P("a1*x"), P("a2*x")], R)
    I2 = Ideal([P("b3*y"), P("b4*y")], R)
    prod = Ideal([f * g for f in I1.gens for g in I2.gens], R)
    got = {"transversal": ideal_equal(intersect(I1, I2), prod)}
    return got == expect, got


def chk_colon_case_a(params, expect):
    R = parse_ring("ring F32003 [x,y,a3,b3,a4,b4]")
    P = lambda s: parse_poly(R, s)
    J = Ideal([P("x^2"), P("b3*x"), P("a3*x+b3*y")], R)
    L = Ideal([P("x^2"), P("x*b3"), P("b3^2"), P("a3*x+b3*y")], R)
    got = {"matches": ideal_equal(colon(J, P("a4*x+b4*y")), L)}
    return got == expect, got


def chk_colon_case_b(params, expect):
    R = parse_ring("ring F32003 [x,y,a2,b3,a4,b4]")
    P = lambda s: parse_poly(R, s)
    J = Ideal([P("x*y"), P("a2*x"), P("b3*y")], R)
    meet = intersect(Ideal([P("x"), P("b3")], R), Ideal([P("y"), P("a2")], R))
    got = {"matches": ideal_equal(colon(J, P("a4*x+b4*y")), meet)}
    return got == expect, got


def chk_mapping_cone(params, expect):
    table_iv = {(0, 0): 1, (1, 2): 4, (2, 3): 2, (2, 4): 4, (3, 5): 4, (4, 6): 1}
    got = {}
    for key, gens_j in (
        ("case_a", ["x^2", "b3*x", "a3*x+b3*y"]),
        ("case_b", ["x*y", "a2*x", "b3*y"]),
    ):
        names = "[x,y,a3,b3,a4,b4]" if key == "case_a" else "[x,y,a2,b3,a4,b4]"
        R = parse_ring(f"ring F32003 {names}")
        P = lambda s: parse_poly(R, s)
        q4 = P("a4*x+b4*y")
        J = Ideal([P(s) for s in gens_j], R)
        cq = colon(J, q4)
        top, _ = minimal_resolution(cq)
        bottom, _ = minimal_resolution(J)
        top2 = shift_complex(top, (2,))
        L0 = PolyMatrix(bottom.modules[0], top2.modules[0], [[q4]])
        lifts = lift_chain_map(L0, top2, bottom)
        cone = minimalize_complex(mapping_cone(lifts, top2, bottom))
        got[key] = cone.betti() == table_iv
    return got == expect, got


def chk_classify_bad(params, expect):
    rep = classify(_bad_algebra())
    pos = (rep.certificate or {}).get("bad_algebra", {}).get("nonlinear_position", {})
    got = {
        "matched_case": rep.matched_case,
        "verdict": rep.verdict,
        "obstruction_total_degree": pos.get("total_degree"),
    }
    return got == expect, got


def chk_reject_five(params, expect):
    I = _conca_ideal()
    try:
        classify(I)
        got = {"rejected": False, "count_cited": None}
    except ClassificationError as exc:
        got = {"rejected": True, "count_cited": 5 if "5" in str(exc) else None}
    return got == expect, got


def chk_height_one(params, expect):
    R = parse_ring("ring F32003 [x0,x1,x2,x3,x4]")
    P = lambda s: parse_poly(R, s)
    I = Ideal([P(f"x0*x{i}") for i in range(1, 5)], R)
    _, B = minimal_resolution(I)
    got = {"row_one": [B.beta(i, i + 1) for i in range(1, 5)]}
    return got == expect, got


def chk_gq_search(params, expect):
    R = parse_ring("ring F32003 [x,y,z,w]")
    P = lambda s: parse_poly(R, s)
    I = Ideal([P("x*z"), P("x*w"), P("y*z"), P("y*w")], R)
    r = g_quadratic_search(I, trials=1, seed=0, perms_per_trial=1)
    got = {"found": r["witness"] is not None}
    return got == expect, got


CHECKS = {
    "betti-tables-of-the-four-koszul-forms": chk_betti_tables,
    "five-quadric-example-betti-table": chk_conca_betti,
    "five-quadric-example-hilbert-series": chk_conca_hilbert,
    "quadratic-basis-certificate-one-linear-syzygy-form": chk_quadratic_basis,
    "acyclicity-check-explicit-complex": chk_acyclicity,
    "ext-annihilator-pipeline": chk_ann_ext,
    "first-syzygy-span-certificates": chk_first_syzygy,
    "bad-algebra-characteristic-battery": chk_bad_algebra,
    "koszulness-verdicts": chk_koszul_verdicts,
    "lg-quadratic-certificates-per-koszul-form": chk_lg_certificates,
    "transversal-ideals-product-equals-intersection": chk_transversal,
    "colon-ideal-two-factor-case-a": chk_colon_case_a,
    "colon-ideal-two-factor-case-b": chk_colon_case_b,
    "mapping-cone-gives-two-syzygy-table": chk_mapping_cone,
    "classify-bad-algebra-ideal": chk_classify_bad,
    "classifier-rejects-five-generators": chk_reject_five,
    "height-one-scaled-koszul-complex": chk_height_one,
    "quadratic-witness-search-on-monomial-products": chk_gq_search,
}


def load_manifest() -> dict:
    data = resources.files("koszulkit").joinpath("data/repro_manifest.json").read_text()
    return json.loads(data)


def run_manifest(only: str | None = None) -> dict:
    manifest = load_manifest()
    checks = [c for c in manifest["checks"] if not only or only in c["name"]]

    def run_one(chk):
        fn = CHECKS[chk["name"]]
        try:
            ok, got = fn(chk.get("params", {}), chk["expect"])
        except Exception as exc:  # a crashed check is a failed check
            ok, got = False, {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "name": chk["name"],
            "anchor": chk["anchor"],
            "basis": chk["basis"],
            "ok": ok,
            "expected": chk["expect"],
            "got": got,
        }

    results = [run_one(c) for c in checks]
    passed = sum(1 for r in results if r["ok"])
    return {
        "checks": results,
        "total": len(results),
        "passed": passed,
        "ok": passed == len(results),
    }
