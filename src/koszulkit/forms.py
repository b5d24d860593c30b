"""Templates for the structure cases of ideals generated by four quadrics.

Each case knows how to build its ideal from named witness forms, how to
verify the side conditions attached to the case, how to sample random valid
witnesses, and how to produce the generic lift used by G-quadratic
certificates (fresh variables for the witness forms plus the specializing
linear sequence).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .groebner import (
    GroebnerError,
    Ideal,
    buchberger,
    ideal_equal,
    intersect,
    is_quadratic_gb,
    minimal_quadric_generators,
)
from .hilbert import hilbert_of_quotient
from .modules import FreeModule, PolyMatrix, TaggedModule
from .ring import DEGLEX, DEGREVLEX, MonomialOrder, Polynomial, RingContext

CASE_IDS = [
    "ht1",
    "2i",
    "2ii",
    "2iii",
    "2iv-a",
    "2iv-b",
    "2iv-c",
    "2iv-d",
    "ht3-i",
    "ht3-ii",
    "ht4-CI",
]

# reference Betti tables for height-two quotients by four quadrics
TABLE_I = {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
TABLE_II = {(0, 0): 1, (1, 2): 4, (2, 3): 3, (3, 4): 1, (2, 4): 3, (3, 5): 3, (4, 6): 1}
TABLE_III = {(0, 0): 1, (1, 2): 4, (2, 3): 3, (2, 4): 1, (3, 5): 1}
TABLE_IV = {(0, 0): 1, (1, 2): 4, (2, 3): 2, (2, 4): 4, (3, 5): 4, (4, 6): 1}

KNOWN_HEIGHT2_TABLES = {"i": TABLE_I, "ii": TABLE_II, "iii": TABLE_III, "iv": TABLE_IV}


def span_dim(forms: list[Polynomial]) -> int:
    """Dimension of the k-span of linear forms (= height of the ideal they generate)."""
    forms = [f for f in forms if f]
    if not forms:
        return 0
    ring = forms[0].ring
    K = ring.field
    rows = []
    for f in forms:
        row = [K.zero()] * ring.n
        for m, c in f.terms.items():
            row[m.index(1)] = c
        rows.append(row)
    return linalg.rank(K, rows)


def random_linear(ring: RingContext, rng) -> Polynomial:
    while True:
        f = ring.linear_form([ring.field.random(rng) for _ in range(ring.n)])
        if f:
            return f


def random_quadric(ring: RingContext, rng) -> Polynomial:
    K = ring.field
    terms = {}
    for i in range(ring.n):
        for j in range(i, ring.n):
            c = K.random(rng)
            if not K.is_zero(c):
                m = [0] * ring.n
                m[i] += 1
                m[j] += 1
                terms[tuple(m)] = c
    f = Polynomial(ring, terms)
    return f if f else random_quadric(ring, rng)


def random_sparse_quadric(ring: RingContext, rng, max_terms: int = 4) -> Polynomial:
    """Random quadric supported on a few monomials (kinder to slow orders)."""
    K = ring.field
    terms = {}
    for _ in range(max_terms):
        i = rng.randrange(ring.n)
        j = rng.randrange(ring.n)
        m = [0] * ring.n
        m[i] += 1
        m[j] += 1
        c = K.random(rng)
        if not K.is_zero(c):
            terms[tuple(m)] = c
    f = Polynomial(ring, terms)
    return f if f else random_sparse_quadric(ring, rng, max_terms)


def quadric_regular_on(I: Ideal, q: Polynomial) -> bool:
    """Hilbert-series test that the quadric q is a nonzerodivisor mod I."""
    from .hilbert import ONE_MINUS_T, zp_mul

    big = Ideal(list(I.gens) + [q], I.ring)
    lhs = hilbert_of_quotient(big).numerator
    rhs = hilbert_of_quotient(I).numerator
    return lhs == zp_mul(rhs, (1, 0, -1))


def quadrics_regular_sequence_on(I: Ideal, qs: list[Polynomial]) -> bool:
    cur = I
    for q in qs:
        if not quadric_regular_on(cur, q):
            return False
        cur = Ideal(list(cur.gens) + [q], I.ring)
    return True


def ideal_cofactors(f: Polynomial, gens: list[Polynomial]) -> list[Polynomial] | None:
    """Write f = sum(c_i * gens_i) if possible; None otherwise."""
    ring = f.ring
    F = FreeModule(ring, [ring.zero_deg])
    cols = [{(0, m): c for m, c in g.terms.items()} for g in gens]
    tm = TaggedModule(F, cols)
    rem, rep = tm.reduce({(0, m): c for m, c in f.terms.items()})
    if rem:
        return None
    return rep


def pair_decomposition(q: Polynomial) -> list[tuple[Polynomial, Polynomial]]:
    """Write a quadric as a sum of products of linear forms, pairing each
    variable with its cofactor (Horner style)."""
    ring = q.ring
    K = ring.field
    pairs = []
    rest = dict(q.terms)
    for i in range(ring.n):
        cof = {}
        for m, c in list(rest.items()):
            if m[i] > 0:
                mm = list(m)
                mm[i] -= 1
                cof[tuple(mm)] = K.add(cof.get(tuple(mm), K.zero()), c)
                del rest[m]
        cof = {m: c for m, c in cof.items() if not K.is_zero(c)}
        if cof:
            pairs.append((ring.var(i), Polynomial(ring, cof)))
    if rest:
        raise GroebnerError("pair_decomposition: the polynomial has a constant term")
    return pairs


# ---------------------------------------------------------------------------
# generic lifts


@dataclass
class GenericLift:
    """Fresh-variable lift of a witnessed ideal together with the data needed
    to certify: the lifted ideal, a monomial order giving it a quadratic
    reduced basis, and the specializing linear forms."""

    ring: RingContext           # extended ring, fresh variables first
    ideal_gens: list[Polynomial]
    order: MonomialOrder
    specializing: list[Polynomial]
    fresh_names: list[str]

    def to_json(self) -> dict:
        return {
            "ring": self.ring.decl(),
            "generators": [str(g) for g in self.ideal_gens],
            "order": self.order.spec(),
            "specializing_forms": [str(f) for f in self.specializing],
        }


def _lift_ring(ring: RingContext, fresh: list[str]) -> tuple[RingContext, list[Polynomial]]:
    """Extended ring with fresh variables in front; returns (ext, old_images)."""
    names = []
    for nm in fresh:
        cand = nm
        while cand in ring.names or cand in names:
            cand += "_"
        names.append(cand)
    ext = RingContext(ring.field, names + ring.names)
    k = len(names)
    old_images = [ext.var(k + i) for i in range(ring.n)]
    return ext, old_images


def _inject(ext: RingContext, k: int, f: Polynomial) -> Polynomial:
    return Polynomial(ext, {(0,) * k + m: c for m, c in f.terms.items()})


def make_generic_lift(
    ring: RingContext,
    witness_linears: list[tuple[str, Polynomial]],
    template,
    quadric_pairs: list[tuple[Polynomial, Polynomial]] | None = None,
    order_kind: str = "degrevlex",
) -> GenericLift:
    """Build the lift: one fresh variable per witness linear form (plus fresh
    pairs for free quadrics), the template applied to the fresh variables, and
    the specializing forms fresh - witness."""
    fresh_names = [nm for nm, _ in witness_linears]
    pair_names = []
    if quadric_pairs:
        for idx in range(len(quadric_pairs)):
            pair_names += [f"u{idx}", f"v{idx}"]
    ext, _ = _lift_ring(ring, fresh_names + pair_names)
    k = len(fresh_names) + len(pair_names)
    fresh_vars = [ext.var(i) for i in range(len(fresh_names))]
    pair_vars = [ext.var(len(fresh_names) + i) for i in range(len(pair_names))]
    lifted_pairs = [
        (pair_vars[2 * i], pair_vars[2 * i + 1]) for i in range(len(pair_names) // 2)
    ]
    gens = template(fresh_vars, lifted_pairs)
    specializing = []
    for var, (_, w) in zip(fresh_vars, witness_linears):
        specializing.append(var - _inject(ext, k, w))
    if quadric_pairs:
        for (uv, vv), (a, b) in zip(lifted_pairs, quadric_pairs):
            specializing.append(uv - _inject(ext, k, a))
            specializing.append(vv - _inject(ext, k, b))
    order = MonomialOrder(order_kind, n=ext.n)
    return GenericLift(ext, gens, order, specializing, fresh_names + pair_names)


# ---------------------------------------------------------------------------
# per-case templates


def build_ht1(w: dict) -> list[Polynomial]:
    return [w["a1"] * w["x"], w["a2"] * w["x"], w["a3"] * w["x"], w["a4"] * w["x"]]


def check_ht1(w: dict, I: Ideal) -> list[str]:
    fails = []
    if span_dim([w["a1"], w["a2"], w["a3"], w["a4"]]) != 4:
        fails.append("hgt(a1..a4) != 4")
    if not w["x"]:
        fails.append("x = 0")
    return fails


def build_2i_a(w: dict) -> list[Polynomial]:
    x, y, z, v = w["x"], w["y"], w["z"], w["w"]
    return [x * z, x * v, y * z, y * v]


def check_2i_a(w: dict, I: Ideal) -> list[str]:
    return [] if span_dim([w["x"], w["y"], w["z"], w["w"]]) == 4 else ["x,y,z,w not independent"]


def build_2i_b(w: dict) -> list[Polynomial]:
    x, y, z, v = w["x"], w["y"], w["z"], w["w"]
    return [x * x, x * y, y * y, x * z + y * v]


check_2i_b = check_2i_a


def build_2i_c(w: dict) -> list[Polynomial]:
    x = w["x"]
    return [x * w["y"], x * w["z"], x * w["w"], w["q"]]


def check_2i_c(w: dict, I: Ideal) -> list[str]:
    fails = []
    ring = w["x"].ring
    if span_dim([w["y"], w["z"], w["w"]]) != 3:
        fails.append("y,z,w not independent")
    if not w["x"]:
        fails.append("x = 0")
    q = w["q"]
    if ideal_cofactors(q, [w["y"], w["z"], w["w"]]) is None:
        fails.append("q not in (y,z,w)")
    if ideal_cofactors(q, [w["x"]]) is not None:
        fails.append("q in (x)")
    return fails


def build_2ii(w: dict) -> list[Polynomial]:
    return build_2i_c(w)


def check_2ii(w: dict, I: Ideal) -> list[str]:
    fails = []
    if span_dim([w["y"], w["z"], w["w"]]) != 3:
        fails.append("y,z,w not independent")
    if not w["x"]:
        fails.append("x = 0")
    x = w["x"]
    J = Ideal([x * w["y"], x * w["z"], x * w["w"]], x.ring)
    if not quadric_regular_on(J, w["q"]):
        fails.append("q is a zerodivisor mod (xy,xz,xw)")
    return fails


def build_2iii(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [x * w["z"], y * w["z"], w["a3"] * x + w["b3"] * y, w["a4"] * x + w["b4"] * y]


def check_2iii(w: dict, I: Ideal) -> list[str]:
    fails = []
    ring = w["x"].ring
    x, y, z = w["x"], w["y"], w["z"]
    q3 = w["a3"] * x + w["b3"] * y
    q4 = w["a4"] * x + w["b4"] * y
    delta = w["a3"] * w["b4"] - w["a4"] * w["b3"]
    if span_dim([x, y]) != 2:
        fails.append("hgt(x,y) != 2")
    if (not q3) or (not q4) or hilbert_of_quotient(Ideal([q3, q4], ring)).codim != 2:
        fails.append("hgt(q3,q4) != 2")
    J = Ideal([g for g in [z, q3, q4, delta] if g], ring)
    if J.is_zero() or hilbert_of_quotient(J).codim != 3:
        fails.append("hgt(z,q3,q4,Delta) != 3")
    return fails


def build_2iv_a(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [x * x, w["b3"] * x, w["a3"] * x + w["b3"] * y, w["a4"] * x + w["b4"] * y]


def check_2iv_a(w: dict, I: Ideal) -> list[str]:
    fails = []
    if span_dim([w["x"], w["y"]]) != 2:
        fails.append("hgt(x,y) != 2")
    if span_dim([w["x"], w["b3"], w["b4"]]) != 3:
        fails.append("hgt(x,b3,b4) != 3")
    if span_dim([w["x"], w["y"], w["a3"], w["b3"]]) != 4:
        fails.append("hgt(x,y,a3,b3) != 4")
    return fails


def build_2iv_b(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [x * y, w["a2"] * x, w["b3"] * y, w["a4"] * x + w["b4"] * y]


def check_2iv_b(w: dict, I: Ideal) -> list[str]:
    fails = []
    if span_dim([w["x"], w["y"]]) != 2:
        fails.append("hgt(x,y) != 2")
    if span_dim([w["x"], w["b3"], w["b4"]]) != 3:
        fails.append("hgt(x,b3,b4) != 3")
    if span_dim([w["y"], w["a2"], w["a4"]]) != 3:
        fails.append("hgt(y,a2,a4) != 3")
    if span_dim([w["x"], w["y"], w["a2"], w["b3"]]) != 4:
        fails.append("hgt(x,y,a2,b3) != 4")
    return fails


def build_2iv_c(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [w["b3"] * x, w["b4"] * x, w["a3"] * x + w["b3"] * y, w["a4"] * x + w["b4"] * y]


def check_2iv_c(w: dict, I: Ideal) -> list[str]:
    fails = []
    ring = w["x"].ring
    if span_dim([w["x"], w["y"]]) != 2:
        fails.append("hgt(x,y) != 2")
    if span_dim([w["x"], w["b3"], w["b4"]]) != 3:
        fails.append("hgt(x,b3,b4) != 3")
    if span_dim([w["a3"], w["a4"], w["b3"], w["b4"]]) != 4:
        fails.append("hgt(a3,a4,b3,b4) != 4")
    q3 = w["a3"] * w["x"] + w["b3"] * w["y"]
    q4 = w["a4"] * w["x"] + w["b4"] * w["y"]
    if (not q3) or (not q4) or hilbert_of_quotient(Ideal([q3, q4], ring)).codim != 2:
        fails.append("hgt(q3,q4) != 2")
    return fails


def build_2iv_d(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [w["a1"] * x, w["a2"] * x, w["b3"] * y, w["b4"] * y]


def check_2iv_d(w: dict, I: Ideal) -> list[str]:
    fails = []
    ring = w["x"].ring
    if span_dim([w["a1"], w["a2"]]) != 2:
        fails.append("hgt(a1,a2) != 2")
    if span_dim([w["b3"], w["b4"]]) != 2:
        fails.append("hgt(b3,b4) != 2")
    if span_dim([w["x"], w["y"]]) != 2:
        fails.append("hgt(x,y) != 2")
    I1 = Ideal([w["a1"] * w["x"], w["a2"] * w["x"]], ring)
    I2 = Ideal([w["b3"] * w["y"], w["b4"] * w["y"]], ring)
    prod = Ideal([f * g for f in I1.gens for g in I2.gens], ring)
    if not ideal_equal(intersect(I1, I2), prod):
        fails.append("summands are not transversal")
    return fails


def build_ht3_i(w: dict) -> list[Polynomial]:
    return [w["x"] * w["z"], w["x"] * w["w"], w["q3"], w["q4"]]


def check_ht3_i(w: dict, I: Ideal) -> list[str]:
    fails = []
    ring = w["x"].ring
    if span_dim([w["z"], w["w"]]) != 2:
        fails.append("hgt(z,w) != 2")
    if not w["x"]:
        fails.append("x = 0")
    J = Ideal([w["x"] * w["z"], w["x"] * w["w"]], ring)
    if not quadrics_regular_sequence_on(J, [w["q3"], w["q4"]]):
        fails.append("q3,q4 not a regular sequence mod (xz,xw)")
    return fails


def build_ht3_ii(w: dict) -> list[Polynomial]:
    m = w["M"]  # 3x2 nested list of linear forms
    minors = [
        m[0][0] * m[1][1] - m[0][1] * m[1][0],
        m[0][0] * m[2][1] - m[0][1] * m[2][0],
        m[1][0] * m[2][1] - m[1][1] * m[2][0],
    ]
    return minors + [w["q4"]]


def check_ht3_ii(w: dict, I: Ideal) -> list[str]:
    fails = []
    m = w["M"]
    ring = m[0][0].ring
    minors = build_ht3_ii(w)[:3]
    J = Ideal([g for g in minors if g], ring)
    if J.is_zero() or hilbert_of_quotient(J).codim != 2:
        fails.append("hgt I2(M) != 2")
    elif not quadric_regular_on(J, w["q4"]):
        fails.append("q4 not regular mod I2(M)")
    return fails


def build_ht4(w: dict) -> list[Polynomial]:
    return [w["q1"], w["q2"], w["q3"], w["q4"]]


def check_ht4(w: dict, I: Ideal) -> list[str]:
    h = hilbert_of_quotient(I)
    return [] if h.codim == 4 else [f"hgt = {h.codim}, not a complete intersection"]


# ---------------------------------------------------------------------------
# sampling


_DEFAULT_NVARS = {
    "ht1": 5,
    "2i": 4,
    "2i-a": 4,
    "2i-b": 4,
    "2i-c": 4,
    "2ii": 4,
    "2iii": 7,
    "2iv-a": 6,
    "2iv-b": 6,
    "2iv-c": 6,
    "2iv-d": 6,
    "ht3-i": 5,
    "ht3-ii": 6,
    "ht4-CI": 4,
}


def default_ring(field, case: str, nvars: int | None = None) -> RingContext:
    n = nvars or _DEFAULT_NVARS[case]
    return RingContext(field, [f"x{i}" for i in range(n)])


def sample_witnesses(case: str, ring: RingContext, seed: int, max_tries: int = 200):
    """Random witness forms satisfying the case conditions (rejection sampling)."""
    rng = random.Random(f"gen:{case}:{seed}")
    spec = FORMS[case]
    for _ in range(max_tries):
        w = spec.random_witnesses(ring, rng)
        gens = spec.build(w)
        if any(not g for g in gens):
            continue
        try:
            if len(minimal_quadric_generators(Ideal(gens, ring))) != 4:
                continue
        except GroebnerError:
            continue
        I = Ideal(gens, ring)
        if spec.check(w, I):
            continue
        return w, I
    raise GroebnerError(
        f"could not sample valid witnesses for {case} over {ring.field.name}; "
        "try a larger field or more variables"
    )


def _rl(ring, rng, k):
    return [random_linear(ring, rng) for _ in range(k)]


@dataclass
class FormSpec:
    case: str
    witness_names: list[str]
    build: callable
    check: callable
    random_witnesses: callable
    lift: callable  # (ring, witnesses) -> GenericLift | None
    koszul: bool


def _lift_ht1(ring, w):
    return make_generic_lift(
        ring,
        [("X", w["x"]), ("A1", w["a1"]), ("A2", w["a2"]), ("A3", w["a3"]), ("A4", w["a4"])],
        lambda v, _: [v[1] * v[0], v[2] * v[0], v[3] * v[0], v[4] * v[0]],
    )


def _lift_2i_a(ring, w):
    return make_generic_lift(
        ring,
        [("X", w["x"]), ("Y", w["y"]), ("Z", w["z"]), ("W", w["w"])],
        lambda v, _: [v[0] * v[2], v[0] * v[3], v[1] * v[2], v[1] * v[3]],
    )


def _lift_2i_b(ring, w):
    return make_generic_lift(
        ring,
        [("X", w["x"]), ("Y", w["y"]), ("Z", w["z"]), ("W", w["w"])],
        lambda v, _: [v[0] * v[0], v[0] * v[1], v[1] * v[1], v[0] * v[2] + v[1] * v[3]],
    )


def _lift_2i_c(ring, w):
    cof = ideal_cofactors(w["q"], [w["y"], w["z"], w["w"]])
    if cof is None:
        return None
    return make_generic_lift(
        ring,
        [
            ("X", w["x"]), ("Y", w["y"]), ("Z", w["z"]), ("W", w["w"]),
            ("U", cof[0]), ("V", cof[1]), ("T", cof[2]),
        ],
        lambda v, _: [
            v[0] * v[1], v[0] * v[2], v[0] * v[3],
            v[1] * v[4] + v[2] * v[5] + v[3] * v[6],
        ],
    )


def _lift_2ii(ring, w):
    pairs = pair_decomposition(w["q"])
    return make_generic_lift(
        ring,
        [("X", w["x"]), ("Y", w["y"]), ("Z", w["z"]), ("W", w["w"])],
        lambda v, ps: [
            v[0] * v[1], v[0] * v[2], v[0] * v[3],
            sum((a * b for a, b in ps), ring_zero(v)),
        ],
        quadric_pairs=pairs,
    )


def ring_zero(vs):
    return vs[0].ring.zero()


def _lift_2iii(ring, w):
    return make_generic_lift(
        ring,
        [
            ("A3", w["a3"]), ("B3", w["b3"]), ("B4", w["b4"]), ("A4", w["a4"]),
            ("X", w["x"]), ("Y", w["y"]), ("Z", w["z"]),
        ],
        lambda v, _: [
            v[4] * v[6], v[5] * v[6],
            v[0] * v[4] + v[1] * v[5], v[3] * v[4] + v[2] * v[5],
        ],
        order_kind="deglex",
    )


def _lift_2iv_d(ring, w):
    return make_generic_lift(
        ring,
        [
            ("Z", w["x"]), ("W", w["y"]), ("U1", w["a1"]), ("U2", w["a2"]),
            ("V1", w["b3"]), ("V2", w["b4"]),
        ],
        lambda v, _: [v[2] * v[0], v[3] * v[0], v[4] * v[1], v[5] * v[1]],
    )


def _lift_ht3_i(ring, w):
    p3 = pair_decomposition(w["q3"])
    p4 = pair_decomposition(w["q4"])
    n3 = len(p3)

    def template(v, ps):
        z = ring_zero(v)
        q3t = sum((a * b for a, b in ps[:n3]), z)
        q4t = sum((a * b for a, b in ps[n3:]), z)
        return [v[0] * v[1], v[0] * v[2], q3t, q4t]

    return make_generic_lift(
        ring,
        [("X", w["x"]), ("Z", w["z"]), ("W", w["w"])],
        template,
        quadric_pairs=p3 + p4,
    )


def _lift_ht3_ii(ring, w):
    m = w["M"]
    p4 = pair_decomposition(w["q4"])

    def template(v, ps):
        z = ring_zero(v)
        mm = [[v[0], v[1]], [v[2], v[3]], [v[4], v[5]]]
        minors = [
            mm[0][0] * mm[1][1] - mm[0][1] * mm[1][0],
            mm[0][0] * mm[2][1] - mm[0][1] * mm[2][0],
            mm[1][0] * mm[2][1] - mm[1][1] * mm[2][0],
        ]
        return minors + [sum((a * b for a, b in ps), z)]

    names = [(f"M{i}{j}", m[i][j]) for i in range(3) for j in range(2)]
    return make_generic_lift(ring, names, template, quadric_pairs=p4)


def _lift_ht4(ring, w):
    qs = [w["q1"], w["q2"], w["q3"], w["q4"]]
    ext, old_images = _lift_ring(ring, ["Z1", "Z2", "Z3", "Z4"])
    zvars = [ext.var(i) for i in range(4)]
    lifted = [zvars[i] * zvars[i] - _inject(ext, 4, qs[i]) for i in range(4)]
    return GenericLift(
        ext,
        lifted,
        MonomialOrder("degrevlex", n=ext.n),
        [zvars[i] for i in range(4)],
        ["Z1", "Z2", "Z3", "Z4"],
    )


def _rw_ht1(ring, rng):
    return {"x": random_linear(ring, rng), **{f"a{i}": random_linear(ring, rng) for i in range(1, 5)}}


def _rw_xyzw(ring, rng):
    return dict(zip("xyzw", _rl(ring, rng, 4)))


def _rw_2i_c(ring, rng):
    w = _rw_xyzw(ring, rng)
    w["q"] = w["y"] * random_linear(ring, rng) + w["z"] * random_linear(ring, rng) + w["w"] * random_linear(ring, rng)
    return w


def _rw_2ii(ring, rng):
    w = _rw_xyzw(ring, rng)
    w["q"] = random_quadric(ring, rng)
    return w


def _rw_2iii(ring, rng):
    return {k: random_linear(ring, rng) for k in ("x", "y", "z", "a3", "b3", "a4", "b4")}


def _rw_2iv_a(ring, rng):
    return {k: random_linear(ring, rng) for k in ("x", "y", "a3", "b3", "a4", "b4")}


def _rw_2iv_b(ring, rng):
    return {k: random_linear(ring, rng) for k in ("x", "y", "a2", "b3", "a4", "b4")}


_rw_2iv_c = _rw_2iv_a


def _rw_2iv_d(ring, rng):
    return {k: random_linear(ring, rng) for k in ("x", "y", "a1", "a2", "b3", "b4")}


def _rw_ht3_i(ring, rng):
    return {
        "x": random_linear(ring, rng),
        "z": random_linear(ring, rng),
        "w": random_linear(ring, rng),
        "q3": random_quadric(ring, rng),
        "q4": random_quadric(ring, rng),
    }


def _rw_ht3_ii(ring, rng):
    return {
        "M": [[random_linear(ring, rng) for _ in range(2)] for _ in range(3)],
        "q4": random_quadric(ring, rng),
    }


def _rw_ht4(ring, rng):
    return {f"q{i}": random_quadric(ring, rng) for i in range(1, 5)}


FORMS: dict[str, FormSpec] = {
    "ht1": FormSpec("ht1", ["x", "a1", "a2", "a3", "a4"], build_ht1, check_ht1, _rw_ht1, _lift_ht1, True),
    "2i-a": FormSpec("2i-a", ["x", "y", "z", "w"], build_2i_a, check_2i_a, _rw_xyzw, _lift_2i_a, True),
    "2i-b": FormSpec("2i-b", ["x", "y", "z", "w"], build_2i_b, check_2i_b, _rw_xyzw, _lift_2i_b, True),
    "2i-c": FormSpec("2i-c", ["x", "y", "z", "w", "q"], build_2i_c, check_2i_c, _rw_2i_c, _lift_2i_c, True),
    "2ii": FormSpec("2ii", ["x", "y", "z", "w", "q"], build_2ii, check_2ii, _rw_2ii, _lift_2ii, True),
    "2iii": FormSpec("2iii", ["x", "y", "z", "a3", "b3", "a4", "b4"], build_2iii, check_2iii, _rw_2iii, _lift_2iii, True),
    "2iv-a": FormSpec("2iv-a", ["x", "y", "a3", "b3", "a4", "b4"], build_2iv_a, check_2iv_a, _rw_2iv_a, None, False),
    "2iv-b": FormSpec("2iv-b", ["x", "y", "a2", "b3", "a4", "b4"], build_2iv_b, check_2iv_b, _rw_2iv_b, None, False),
    "2iv-c": FormSpec("2iv-c", ["x", "y", "a3", "b3", "a4", "b4"], build_2iv_c, check_2iv_c, _rw_2iv_c, None, False),
    "2iv-d": FormSpec("2iv-d", ["x", "y", "a1", "a2", "b3", "b4"], build_2iv_d, check_2iv_d, _rw_2iv_d, _lift_2iv_d, True),
    "ht3-i": FormSpec("ht3-i", ["x", "z", "w", "q3", "q4"], build_ht3_i, check_ht3_i, _rw_ht3_i, _lift_ht3_i, True),
    "ht3-ii": FormSpec("ht3-ii", ["M", "q4"], build_ht3_ii, check_ht3_ii, _rw_ht3_ii, _lift_ht3_ii, True),
    "ht4-CI": FormSpec("ht4-CI", ["q1", "q2", "q3", "q4"], build_ht4, check_ht4, _rw_ht4, _lift_ht4, True),
}

_2I_ROTATION = ["2i-a", "2i-b", "2i-c"]


def resolve_case_id(case: str, seed: int = 0) -> str:
    """Map the umbrella id 2i to one of its sub-forms by seed."""
    if case == "2i":
        return _2I_ROTATION[seed % 3]
    return case


def generate_ideal(case: str, field, seed: int, nvars: int | None = None):
    """Sample a random valid witnessed ideal of the given case; the witnesses
    are re-checked before returning."""
    concrete = resolve_case_id(case, seed)
    if concrete not in FORMS:
        raise GroebnerError(f"unknown case id {case!r}; known: {sorted(FORMS)} and 2i")
    ring = default_ring(field, concrete, nvars)
    w, I = sample_witnesses(concrete, ring, seed)
    return {"case": case, "concrete_case": concrete, "ring": ring, "witnesses": w, "ideal": I}
