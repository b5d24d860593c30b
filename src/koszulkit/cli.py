"""Command-line front end: Groebner bases, Hilbert data, resolutions,
Koszulness tests, the four-quadric classifier, witness generation, the bad
algebra battery, and the reproduction driver."""

from __future__ import annotations

import argparse
import json
import sys

from .appendix import run_battery, run_characteristic
from .classify import ClassificationError, classify
from .field import FieldError, field_by_name
from .forms import FORMS, generate_ideal
from .groebner import (
    GroebnerError,
    Ideal,
    buchberger,
    g_quadratic_search,
    is_quadratic_gb,
)
from .hilbert import hilbert_of_quotient
from .parse import ParseError, parse_ideal_file, parse_polys, parse_ring
from .quotient import QuotientRing, froberg_consistency, is_koszul_up_to, resolve_over_quotient
from .resolution import minimal_resolution
from .ring import MonomialOrder, RingError


def _load_ideal(args) -> Ideal:
    if getattr(args, "ideal", None):
        with open(args.ideal) as fh:
            ring, gens = parse_ideal_file(fh.read())
        return Ideal(gens, ring)
    if getattr(args, "ring", None) and getattr(args, "gens", None):
        ring = parse_ring(args.ring)
        return Ideal(parse_polys(ring, args.gens), ring)
    raise ParseError("provide --ideal FILE or both --ring DECL and --gens POLYS")


def _order_from(args, ring) -> MonomialOrder:
    perm = None
    if getattr(args, "perm", None):
        names = [s.strip() for s in args.perm.split(",")]
        perm = [ring.var_index(nm) for nm in names]
    return MonomialOrder(getattr(args, "order", "degrevlex") or "degrevlex", perm=perm, n=ring.n)


def _emit(args, record: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json" or getattr(args, "json_out", None):
        payload = json.dumps({"schema": 1, **record}, indent=2, sort_keys=True)
        if getattr(args, "json_out", None):
            with open(args.json_out, "w") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.json_out}")
        if getattr(args, "format", "text") == "json":
            print(payload)
            return
    print(text)


def cmd_gb(args) -> int:
    I = _load_ideal(args)
    order = _order_from(args, I.ring)
    gb = buchberger(I.gens, order)
    record = {
        "order": order.spec(),
        "basis": [str(g) for g in gb.elements],
        "quadratic": is_quadratic_gb(gb),
        "field": I.ring.field.name,
    }
    lines = [f"reduced Groebner basis ({len(gb)} elements, order {order}):"]
    lines += [f"  {g}" for g in gb.elements]
    lines.append(f"quadratic: {record['quadratic']}")
    _emit(args, record, "\n".join(lines))
    return 0


def cmd_hilbert(args) -> int:
    I = _load_ideal(args)
    h = hilbert_of_quotient(I)
    record = h.to_json()
    text = (
        f"numerator over (1-t)^{h.dim_ambient}: {list(h.numerator)}\n"
        f"reduced numerator over (1-t)^{h.dim}: {list(h.reduced_numerator)}\n"
        f"dim = {h.dim}   codim = {h.codim}   multiplicity = {h.multiplicity}"
    )
    _emit(args, record, text)
    return 0


def cmd_res(args) -> int:
    I = _load_ideal(args)
    cx, B = minimal_resolution(I, max_steps=args.maxdeg)
    record = {"betti": B.to_json(), "ranks": cx.ranks()}
    lines = ["Betti table (columns i, rows j - i):", B.display()]
    if args.matrices:
        for i, d in enumerate(cx.maps):
            lines.append(f"differential {i + 1} ({d.nrows} x {d.ncols}):")
            for r in range(d.nrows):
                lines.append("  [" + ", ".join(str(d.entries[r][c]) for c in range(d.ncols)) + "]")
        record["matrices"] = [
            [[str(d.entries[r][c]) for c in range(d.ncols)] for r in range(d.nrows)]
            for d in cx.maps
        ]
    _emit(args, record, "\n".join(lines))
    return 0


def cmd_koszul(args) -> int:
    I = _load_ideal(args)
    if args.module:
        Q = QuotientRing(I)
        gens = parse_polys(I.ring, args.module)
        res = resolve_over_quotient(Q, ("module", gens), args.bound, args.bound + 2)
        pos = res.first_nonlinear(offset=1)
        record = {"module": args.module, "resolution": res.to_json(),
                  "first_nonlinear": pos and {"hom_degree": pos[0], "degree": list(pos[1])}}
        text = f"module resolution ranks: {res.ranks()}\nfirst nonlinear: {record['first_nonlinear']}"
        _emit(args, record, text)
        return 0
    r = is_koszul_up_to(I, args.bound)
    record = {
        "verdict": r["verdict"],
        "position": r.get("position"),
        "bound": args.bound,
        "betti_diagonal": r["betti_diagonal"],
        "reduced_by_linear_forms": r["reduced_by_linear_forms"],
    }
    if r["verdict"] == "linear-so-far":
        record["series_consistency"] = froberg_consistency(r["resolution"], args.bound)["holds"]
    text = f"verdict: {r['verdict']}"
    if r.get("position"):
        text += f" at {r['position']}"
    text += f"\ndiagonal Betti numbers to bound {args.bound}: {r['betti_diagonal']}"
    _emit(args, record, text)
    return 0


def cmd_classify(args) -> int:
    I = _load_ideal(args)
    rep = classify(I, bound=args.bound)
    record = rep.to_json()
    lines = [
        f"generators ({rep.g} minimal quadrics) over {rep.field}",
        f"height = {rep.hgt}   multiplicity = {rep.multiplicity}",
        "Betti table:",
        rep.betti.display(),
        f"matched case: {rep.matched_case}" + (f" (sub-form {rep.subcase})" if rep.subcase else ""),
        "witnesses:",
    ]
    lines += [f"  {k} = {v}" for k, v in rep.witnesses.items()]
    lines.append(f"verdict: {rep.verdict}")
    if rep.certificate:
        lines.append(f"certificate: {rep.certificate.get('type')}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    _emit(args, record, "\n".join(lines))
    return 0


def cmd_gq_search(args) -> int:
    I = _load_ideal(args)
    r = g_quadratic_search(I, trials=args.trials, seed=args.seed, perms_per_trial=args.perms)
    record = {
        "found": r["witness"] is not None,
        "trials_run": r["trials_run"],
        "bases_checked": r["bases_checked"],
        "field": r["field"],
    }
    if r["witness"]:
        w = r["witness"]
        record["order"] = w["order"].spec()
        record["change_matrix"] = w["change"].to_lists()
        record["basis"] = [str(g) for g in w["basis"]]
        text = (
            f"witness found: order {w['order']}\n"
            + "change of coordinates:\n"
            + "\n".join("  " + " ".join(row) for row in w["change"].to_lists())
            + "\nquadratic basis:\n"
            + "\n".join(f"  {g}" for g in w["basis"])
        )
    else:
        record["note"] = r["note"]
        text = r["note"]
    _emit(args, record, text)
    return 0


def cmd_appendix(args) -> int:
    if args.char:
        result = run_characteristic(args.char)
        runs = [result]
        ok = result["ok"]
    else:
        battery = run_battery()
        runs = battery["runs"]
        ok = battery["ok"]
    record = {"runs": runs, "ok": ok}
    lines = []
    for r in runs:
        obs = r["obstruction"]
        lines.append(
            f"{r['field']}: basis={'ok' if r['basis']['ok'] else 'FAIL'} "
            f"differentials={'ok' if r['differentials']['ok'] else 'FAIL'} "
            f"obstruction=(hom {obs.get('hom_degree')}, total degree {obs.get('total_degree')}) "
            f"ranks={obs.get('ranks')}"
        )
    lines.append("overall: " + ("pass" if ok else "FAIL"))
    _emit(args, record, "\n".join(lines))
    return 0 if ok else 1


def cmd_gen(args) -> int:
    field = field_by_name(args.field)
    g = generate_ideal(args.form, field, args.seed, nvars=args.nvars)
    I = g["ideal"]
    witness_strs = {}
    for k, v in g["witnesses"].items():
        if isinstance(v, list):
            witness_strs[k] = [[str(e) for e in row] for row in v]
        else:
            witness_strs[k] = str(v)
    record = {
        "form": args.form,
        "concrete_form": g["concrete_case"],
        "seed": args.seed,
        "ring": I.ring.decl(),
        "generators": [str(x) for x in I.gens],
        "witnesses": witness_strs,
    }
    file_text = I.ring.decl() + "\nideal: " + ", ".join(str(x) for x in I.gens) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(file_text)
    text = file_text.rstrip() + "\nwitnesses: " + json.dumps(witness_strs, sort_keys=True)
    _emit(args, record, text)
    return 0


def cmd_repro(args) -> int:
    from .repro import run_manifest

    report = run_manifest(only=args.only)
    lines = []
    for chk in report["checks"]:
        lines.append(f"[{'PASS' if chk['ok'] else 'FAIL'}] {chk['name']} ({chk['basis']})")
        if not chk["ok"]:
            lines.append(f"        expected: {chk.get('expected')}")
            lines.append(f"        got:      {chk.get('got')}")
    lines.append(f"{report['passed']}/{report['total']} checks passed")
    _emit(args, report, "\n".join(lines))
    return 0 if report["ok"] else 1


def nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument the way main reports every other error:
    `error: ` first, then the usage, exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="koszulkit",
        description="Exact commutative algebra toolkit for quadratic algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_ideal_args(sp):
        sp.add_argument("--ideal", help="ideal file (ring declaration + ideal: line)")
        sp.add_argument("--ring", help="inline ring declaration")
        sp.add_argument("--gens", help="inline comma-separated generators")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument("--json", dest="json_out", help="also write the JSON record here")

    sp = sub.add_parser("gb", help="reduced Groebner basis")
    add_ideal_args(sp)
    sp.add_argument("--order", choices=["degrevlex", "deglex"], default="degrevlex")
    sp.add_argument("--perm", help="variable order, e.g. a3,b3,b4,a4,x,y,z")
    sp.set_defaults(fn=cmd_gb)

    sp = sub.add_parser("hilbert", help="Hilbert series data")
    add_ideal_args(sp)
    sp.set_defaults(fn=cmd_hilbert)

    sp = sub.add_parser("res", help="minimal free resolution and Betti table")
    add_ideal_args(sp)
    sp.add_argument("--maxdeg", type=nonnegative, default=None,
                    help="syzygy steps to take after the generators, so the table reaches "
                         "homological degree maxdeg + 1 at most (default: until the kernel is zero)")
    sp.add_argument("--matrices", action="store_true")
    sp.set_defaults(fn=cmd_res)

    sp = sub.add_parser("koszul", help="Koszulness test up to a homological bound")
    add_ideal_args(sp)
    sp.add_argument("--bound", type=nonnegative, default=5)
    sp.add_argument("--module", help="resolve this module instead of the residue field")
    sp.set_defaults(fn=cmd_koszul)

    sp = sub.add_parser("classify", help="four-quadric structure classification")
    add_ideal_args(sp)
    sp.add_argument("--bound", type=nonnegative, default=5)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("gq-search", help="randomized search for a quadratic basis witness")
    add_ideal_args(sp)
    sp.add_argument("--trials", type=positive, default=20)
    sp.add_argument("--perms", type=positive, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_gq_search)

    sp = sub.add_parser("appendix", help="bad-algebra verification battery")
    sp.add_argument("--char", help="single field, e.g. F2, F32003, QQ")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--json", dest="json_out")
    sp.set_defaults(fn=cmd_appendix)

    sp = sub.add_parser("gen", help="emit a random valid witnessed ideal")
    sp.add_argument("--form", required=True, choices=sorted(FORMS) + ["2i"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--field", default="F32003")
    sp.add_argument("--nvars", type=positive, default=None)
    sp.add_argument("-o", "--out", help="write the ideal file here")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--json", dest="json_out")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("repro-paper", help="run the reproduction manifest")
    sp.add_argument("--only", help="run only checks whose name contains this substring")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--json", dest="json_out")
    sp.set_defaults(fn=cmd_repro)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, GroebnerError, ClassificationError, RingError, FieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
