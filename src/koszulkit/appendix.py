"""End-to-end verification battery for the bad bigraded algebra
R = k[x,y,a,b]/(bx, xy, ax-by, x^2-y^2): the bihomogeneous basis counts, the
four stored differential matrices of the minimal resolution of the ideal
(a, b), and the characteristic-dependent quadratic syzygy that obstructs
Koszulness (homological degree 4 and total degree 6 in characteristic two,
homological degree 5 and total degree 7 otherwise).

make_instance keeps one instance per field and process, and each resolves
(a, b) over R once (AppendixInstance.resolution), through total degree 7:
verify_differentials compares its levels 0-4 with the stored differentials
and find_obstruction reads its first nonlinear position, for the battery
and for classify's 2iv-(c) certificate alike.  The stored matrices are
checked with the module engines: PolyMatrix.compose for products and
TaggedModule for span membership."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from . import linalg
from .field import Field, field_by_name
from .groebner import Ideal
from .modules import FreeModule, PolyMatrix, TaggedModule
from .parse import parse_poly
from .quotient import QuotientRing, TruncatedResolution, resolve_over_quotient
from .ring import Deg, Polynomial, RingContext, add_deg, total


@dataclass
class AppendixInstance:
    field: Field
    ring: RingContext
    ideal: Ideal
    quotient: QuotientRing
    module_gens: list[Polynomial]
    differentials: list[PolyMatrix]

    @cached_property
    def resolution(self) -> TruncatedResolution:
        """The minimal resolution of (a, b) over R to the obstruction's
        homological degree (4 in characteristic two, 5 otherwise), through
        total degree 7, the larger of the two obstruction degrees."""
        bound = 4 if self.field.char == 2 else 5
        return resolve_over_quotient(self.quotient, ("module", self.module_gens), bound, 7)


_STAGE_TWISTS = [
    [(0, 1), (0, 1)],
    [(1, 1), (1, 1), (0, 2)],
    [(2, 1), (2, 1), (1, 2), (1, 2), (1, 2), (1, 2)],
    [(3, 1)] * 2 + [(2, 2)] * 7 + [(1, 3)] * 2,
    [(4, 1)] * 2 + [(3, 2)] * 10 + [(2, 3)] * 8,
]

# entries as strings over x, y, a, b; rows of each differential
_D1 = [
    ["x", "0", "b"],
    ["-y", "x", "-a"],
]
_D2 = [
    ["y", "0", "b", "0", "-b", "-a"],
    ["x", "y", "a", "b", "0", "0"],
    ["0", "0", "0", "0", "x", "y"],
]
_D3 = [
    ["x", "0", "0", "-b", "0", "0", "b", "b", "a", "0", "0"],
    ["-y", "x", "-b", "-a", "0", "-b", "0", "0", "-b", "0", "0"],
    ["0", "0", "x", "y", "0", "0", "0", "0", "0", "0", "b"],
    ["0", "0", "0", "0", "x", "y", "0", "0", "0", "0", "-a"],
    ["0", "0", "0", "0", "0", "0", "y", "0", "-x", "a", "b"],
    ["0", "0", "0", "0", "0", "0", "0", "x", "y", "-b", "0"],
]
_D4 = [
    ["y", "0", "b", "0", "-b", "-b", "-a", "0", "0", "-b", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["x", "y", "a", "b", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "y", "0", "-x", "0", "0", "0", "0", "0", "0", "-b", "-a", "-b", "a", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "x", "y", "0", "0", "0", "0", "0", "0", "0", "b", "0", "-b", "0", "0", "-b"],
    ["0", "0", "0", "0", "0", "0", "0", "y", "0", "-x", "0", "0", "b", "-a", "0", "0", "0", "0", "a", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "x", "y", "0", "0", "0", "b", "0", "0", "0", "0", "0", "a"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "x", "y", "0", "0", "0", "0", "-b", "-a", "0", "-b"],
    ["0", "0", "0", "0", "0", "0", "2y", "0", "0", "0", "0", "-2y", "0", "0", "b", "-a", "0", "a", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "x", "0", "0", "0", "b", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "x", "y", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "x", "y"],
]

CHARACTERISTIC_BATTERY = ("F2", "F3", "F7", "F32003", "QQ")


@cache
def make_instance(field: Field) -> AppendixInstance:
    """The instance over `field`, one per field and process, so the battery
    and classify's 2iv-(c) certificate share its resolution."""
    ring = RingContext(field, ["x", "y", "a", "b"], [(1, 0), (1, 0), (0, 1), (0, 1)])
    x, y, a, b = (ring.var(i) for i in range(4))
    I = Ideal([b * x, x * y, a * x - b * y, x * x - y * y], ring)
    Q = QuotientRing(I)

    mats = []
    for rows, ti, si in (
        (_D1, 0, 1),
        (_D2, 1, 2),
        (_D3, 2, 3),
        (_D4, 3, 4),
    ):
        tgt = FreeModule(ring, _STAGE_TWISTS[ti])
        src = FreeModule(ring, _STAGE_TWISTS[si])
        entries = [[parse_poly(ring, s) for s in row] for row in rows]
        mats.append(PolyMatrix(tgt, src, entries))
    return AppendixInstance(field, ring, I, Q, [a, b], mats)


def reference_basis_count(d: Deg) -> int:
    """Count of {a^i b^j, x a^i, y a^i, x^2} in bidegree d = (p, q)."""
    p, q = d
    if p == 0:
        return q + 1  # a^i b^j with i + j = q
    if p == 1:
        return 2  # x a^q and y a^q
    if p == 2 and q == 0:
        return 1  # x^2
    return 0


def check_basis(inst: AppendixInstance) -> dict:
    """Standard-monomial dimensions of every bidegree up to total degree 6
    match the explicit bihomogeneous basis, and the listed monomials are
    independent (they are distinct standard monomials)."""
    Q = inst.quotient
    ring = inst.ring
    failures = []
    checked = 0
    for t in range(7):
        for p in range(t + 1):
            d = (p, t - p)
            got = Q.dim_piece(d)
            want = reference_basis_count(d)
            checked += 1
            if got != want:
                failures.append({"bidegree": list(d), "dim": got, "expected": want})
            if want and p <= 2:
                # the listed spanning monomials must be linearly independent
                # in the graded piece (their normal forms have full rank)
                q = t - p
                if p == 0:
                    listed = [(0, 0, i, q - i) for i in range(q + 1)]
                elif p == 1:
                    listed = [(1, 0, q, 0), (0, 1, q, 0)]
                else:
                    listed = [(2, 0, 0, 0)] if q == 0 else []
                K = inst.field
                vecs = [
                    Q.coords(Polynomial(ring, {m: K.one()}), d) for m in listed
                ]
                if vecs and linalg.rank(K, vecs) != len(listed):
                    failures.append({"bidegree": list(d), "dependent_monomials": [list(m) for m in listed]})
    return {"ok": not failures, "failures": failures, "bidegrees_checked": checked}


def _nonzero_entry(Q: QuotientRing, M: PolyMatrix) -> tuple[int, int] | None:
    """The first entry (row, column) of M that is nonzero in R, scanning by
    rows; None when M vanishes in R."""
    for r, row in enumerate(M.entries):
        for c, f in enumerate(row):
            if f and Q.nf(f):
                return r, c
    return None


def verify_differentials(inst: AppendixInstance) -> dict:
    """Products of consecutive stored differentials vanish in R, column
    counts are (3, 6, 11, 20), entries have no constant terms, and the
    per-bidegree generator counts agree with levels 0-4 of the engine's
    resolution."""
    ring = inst.ring
    report: dict = {"ok": True, "products": [], "column_counts": [], "minimal": True}
    # the augmentation: (a, b) composed with the first differential
    aug = PolyMatrix(
        FreeModule(ring, [ring.zero_deg]),
        inst.differentials[0].target,
        [inst.module_gens],
    )
    chain = [aug] + inst.differentials
    for i in range(len(chain) - 1):
        where = _nonzero_entry(inst.quotient, chain[i].compose(chain[i + 1]))
        report["products"].append({"index": i + 1, "zero": where is None, "failure_at": where})
        report["ok"] = report["ok"] and where is None
    report["column_counts"] = [d.ncols for d in inst.differentials]
    if report["column_counts"] != [3, 6, 11, 20]:
        report["ok"] = False
    for d in inst.differentials:
        for r in range(d.nrows):
            for c in range(d.ncols):
                f = d.entries[r][c]
                if f and f.is_constant():
                    report["minimal"] = False
                    report["ok"] = False
    # engine comparison: per-bidegree generator counts
    engine_counts = [
        {tuple(d): degs.count(d) for d in set(degs)} for degs in inst.resolution.gen_degrees[:5]
    ]
    golden_counts = [
        {d: tw.count(d) for d in set(tw)} for tw in _STAGE_TWISTS
    ]
    if inst.field.char == 2:
        # the displayed fourth differential is incomplete in characteristic
        # two: an extra quadratic generator of bidegree (4, 2) appears
        extra = dict(golden_counts[4])
        extra[(4, 2)] = extra.get((4, 2), 0) + 1
        golden_counts[4] = extra
    report["bidegree_counts_match"] = engine_counts == golden_counts
    report["engine_counts"] = [{str(k): v for k, v in c.items()} for c in engine_counts]
    report["ok"] = report["ok"] and report["bidegree_counts_match"]
    if inst.field.char == 2:
        report["char2_quadratic_syzygy"] = _char2_extra_syzygy(inst)
        report["ok"] = report["ok"] and report["char2_quadratic_syzygy"]["confirmed"]
    return report


def _char2_extra_syzygy(inst: AppendixInstance) -> dict:
    """In characteristic two the vector s with x^2 in the eighth coordinate
    is a syzygy of the third differential lying outside the span of the
    stored fourth differential's columns in bidegree (4, 2).  The span is
    taken over R, so s lies in it exactly when s is in im(d4) + I*F3 over
    S, the span of the columns of d4 and of g*e_k for the generators g of
    I, which TaggedModule decides.  In other characteristics s is a syzygy
    inside that span."""
    ring = inst.ring
    d3, d4 = inst.differentials[2], inst.differentials[3]
    F3, zero = d4.target, ring.zero()
    x = ring.var(0)
    s = PolyMatrix(F3, FreeModule(ring, [(4, 2)]), [[x * x if r == 7 else zero] for r in range(F3.rank)])
    is_syzygy = _nonzero_entry(inst.quotient, d3.compose(s)) is None
    gens = inst.ideal.gens
    # the columns of d4, then g*e_k for each coordinate k and generator g
    span = PolyMatrix(
        F3,
        d4.source.concat(FreeModule(ring, [add_deg(t, g.degree()) for t in F3.twists for g in gens])),
        [row + [g if k == r else zero for k in range(F3.rank) for g in gens] for r, row in enumerate(d4.entries)],
    )
    outside = not TaggedModule(span).contains(s)
    return {"is_syzygy": is_syzygy, "outside_displayed_span": outside, "confirmed": is_syzygy and outside}


def find_obstruction(inst: AppendixInstance) -> dict:
    """First non-linear minimal generator position of the resolution of the
    ideal (a, b) over R: the instance's one resolution, to homological
    degree 4 in characteristic 2 and 5 otherwise, through total degree 7.
    The generators of the ideal sit at homological degree zero with total
    degree one."""
    bound = 4 if inst.field.char == 2 else 5
    res = inst.resolution
    pos = res.first_nonlinear(offset=1)
    if pos is None:
        return {"found": False, "bound": bound, "ranks": res.ranks()}
    return {
        "found": True,
        "hom_degree": pos[0],
        "bidegree": list(pos[1]),
        "total_degree": total(pos[1]),
        "ranks": res.ranks(),
        "expected": {"hom_degree": bound, "total_degree": bound + 2},
    }


def run_characteristic(field_name: str) -> dict:
    field = field_by_name(field_name)
    inst = make_instance(field)
    basis = check_basis(inst)
    diffs = verify_differentials(inst)
    obs = find_obstruction(inst)
    char2 = field.char == 2
    expected = (4, 6) if char2 else (5, 7)
    obs_ok = obs["found"] and (obs["hom_degree"], obs["total_degree"]) == expected
    return {
        "field": field.name,
        "characteristic": field.char,
        "basis": basis,
        "differentials": diffs,
        "obstruction": obs,
        "ok": basis["ok"] and diffs["ok"] and obs_ok,
    }


def run_battery() -> dict:
    runs = [run_characteristic(nm) for nm in CHARACTERISTIC_BATTERY]
    return {"runs": runs, "ok": all(r["ok"] for r in runs)}
