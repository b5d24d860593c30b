"""The koszulkit workloads: input generation, one timed call per item,
and output checks against references the code under test does not produce.

Every library call goes through a module attribute (``resolution.minimal_resolution``
and so on), looked up at call time, so the tracer in ``spans.py`` can wrap it.
"""

from __future__ import annotations

import itertools
import random

from koszulkit import field, forms, groebner, hilbert, parse, quotient, repro, resolution

K = field.GF(32003)

# seeds per form in one sweep pass.  2i rotates through its three sub-forms
# by seed, so three consecutive seeds give each sub-form once.  The counts
# put the median inside the 2iii items and the p90 tail inside the 2iv-d
# items (the forms take about 7, 30, 100 and 450 ms), not at a boundary
# between forms, where it would jump with small changes.  The cost of a 2iii
# witness depends on its seed and falls in two clusters (about 100 and
# 155 ms), so the median of a few 2iii items jumps between them; 32 witnesses
# keep that below 0.05 of the median.  2iv-d witnesses vary by about 0.12.
SWEEP_SEEDS = {"2i": 3, "2ii": 3, "2iii": 32, "2iv-d": 8}
KOSZUL_FORMS = ("2i", "2ii", "2iii", "2iv-d")
KOSZUL_BOUND = 6
TABLE_OF_FORM = {"2i": "i", "2ii": "ii", "2iii": "iii", "2iv-d": "iv"}


def _base_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}").randrange(10**6)


def ideal_text(I) -> str:
    return f"{I.ring.decl()}\nideal: {', '.join(str(g) for g in I.gens)}"


def parse_item(item: dict):
    """A fresh Ideal from the item's text, so no Groebner basis cached on an
    earlier Ideal object is reused."""
    ring, gens = parse.parse_ideal_file(item["text"])
    return groebner.Ideal(gens, ring)


def _ideal_item(case: str, seed: int) -> dict:
    g = forms.generate_ideal(case, K, seed)
    text = ideal_text(g["ideal"])
    if parse_item({"text": text}).gens != g["ideal"].gens:
        raise RuntimeError(f"ideal text of {case} seed {seed} does not parse back to the generated ideal")
    return {"id": f"{g['concrete_case']}:{seed}", "form": case, "text": text}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The items of one pass; the same (workload, seed) gives the same items."""
    base = _base_seed(workload, seed)
    if workload == "betti-sweep":
        return [_ideal_item(f, base + j) for f, k in SWEEP_SEEDS.items() for j in range(k)]
    if workload == "koszul-bound6":
        return [_ideal_item(f, base) for f in KOSZUL_FORMS]
    if workload == "repro-paper":
        return [{"id": "manifest", "checks": [c["name"] for c in repro.load_manifest()["checks"]]}]
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# one timed call per item; each returns the JSON-able output that is checked
# and hashed


def run_item(workload: str, item: dict, ideal):
    if workload == "betti-sweep":
        _, B = resolution.minimal_resolution(ideal)
        return B.to_json()
    if workload == "koszul-bound6":
        r = quotient.is_koszul_up_to(ideal, KOSZUL_BOUND)
        return {
            "verdict": r["verdict"],
            "reduced_by_linear_forms": r["reduced_by_linear_forms"],
            "betti_diagonal": r["betti_diagonal"],
            "resolution": r["resolution"].to_json(),
        }
    if workload == "repro-paper":
        return repro.run_manifest()
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# output checks


def _series(num: tuple, dim: int, bound: int) -> list[int]:
    """Coefficients of num(t) / (1-t)^dim up to t^bound: dividing by (1-t)
    takes prefix sums."""
    s = [num[i] if i < len(num) else 0 for i in range(bound + 1)]
    for _ in range(dim):
        s = list(itertools.accumulate(s))
    return s


def koszul_diagonal_reference(item: dict, reduced_by: int, bound: int = KOSZUL_BOUND) -> list[int]:
    """Coefficients of 1/H(-t) up to t^bound, where
    H = H_{S/I}(t) * (1-t)^reduced_by, by integer series inversion."""
    I = parse_item(item)
    h = hilbert.hilbert_of_quotient(I)
    dim = h.dim_ambient - reduced_by
    a = [(-1) ** k * c for k, c in enumerate(_series(tuple(h.numerator), dim, bound))]
    if a[0] != 1:
        raise RuntimeError("Hilbert series does not start with 1")
    inv = [1]
    for k in range(1, bound + 1):
        inv.append(-sum(a[i] * inv[k - i] for i in range(1, k + 1)))
    return inv


def check_item(workload: str, item: dict, out, refs: dict) -> str | None:
    """None if the output is correct, else a one-line reason.  refs caches
    references that are costly to compute, per item id."""
    if workload == "betti-sweep":
        table = forms.KNOWN_HEIGHT2_TABLES[TABLE_OF_FORM[item["form"]]]
        want = {f"{i},{j}": b for (i, j), b in sorted(table.items())}
        return None if out == want else f"Betti table {out} is not table ({TABLE_OF_FORM[item['form']]})"
    if workload == "koszul-bound6":
        if out["verdict"] != "linear-so-far":
            return f"verdict {out['verdict']}"
        key = (item["id"], out["reduced_by_linear_forms"])
        if key not in refs:
            refs[key] = koszul_diagonal_reference(item, out["reduced_by_linear_forms"])
        if out["betti_diagonal"] != refs[key]:
            return f"Betti diagonal {out['betti_diagonal']} is not 1/H(-t) = {refs[key]}"
        return None
    if workload == "repro-paper":
        if [c["name"] for c in out["checks"]] != item["checks"]:
            return f"ran {out['total']} manifest checks, not the {len(item['checks'])} in the manifest"
        failed = [c["name"] for c in out["checks"] if not c["ok"]]
        return f"manifest checks failed: {failed}" if failed else None
    raise KeyError(workload)


def verdict_summary(workload: str, item: dict, out):
    """The part of an output that the checks compare with a reference; it does
    not depend on the seed."""
    if workload == "betti-sweep":
        return [item["form"], out]
    if workload == "koszul-bound6":
        return [item["form"], out["verdict"]]
    return [[c["name"], c["ok"]] for c in out["checks"]]
