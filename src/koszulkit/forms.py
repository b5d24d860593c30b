"""Templates for the structure cases of ideals generated by four quadrics.

`FORMS` is the catalogue of cases, one `FormSpec` each, and every fact
about a case lives there: how to build its ideal from named witness forms,
how to verify the side conditions attached to it, which witnesses to sample,
in how many variables, the name reports give it, and its locus (the prefix
of that name: the height and height-two Betti table where the case lives,
which is where the classifier looks for it).  Its `build` is the
one place where the case's generators are written: the generic lift used by
G-quadratic certificates is `build` evaluated on fresh variables that stand
for the witnesses, and the specializing linear sequence sets each fresh
variable back to its witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .groebner import GroebnerError, Ideal, minimal_quadric_generators
from .hilbert import hilbert_of_quotient, is_regular_sequence_mod, zp_add, zp_shift
from .modules import FreeModule, PolyMatrix, TaggedModule
from .ring import MonomialOrder, Polynomial, RingContext

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
    return linalg.rank(ring.field, ring.coefficients(forms, ring.linear_monomials))


def _height(ring: RingContext, forms: list[Polynomial]) -> int:
    """Height of the ideal the forms generate; 0 when they are all zero."""
    return hilbert_of_quotient(Ideal(forms, ring)).codim


def random_linear(ring: RingContext, rng) -> Polynomial:
    while True:
        f = ring.linear_form([ring.field.random(rng) for _ in range(ring.n)])
        if f:
            return f


def random_quadric(ring: RingContext, rng) -> Polynomial:
    mons = ring.quadratic_monomials
    f = ring.form([ring.field.random(rng) for _ in mons], mons)
    return f if f else random_quadric(ring, rng)


def ideal_cofactors(f: Polynomial, gens: list[Polynomial]) -> list[Polynomial] | None:
    """Write a homogeneous f = sum(c_i * gens_i) if possible; None otherwise.
    This is the library's one exact division: with gens = [g] it gives
    [f / g] when g divides f."""
    ring = f.ring
    F = FreeModule(ring, [ring.zero_deg])
    twist = lambda g: g.degree() or ring.zero_deg  # a zero column takes any twist
    M = PolyMatrix(F, FreeModule(ring, [twist(g) for g in gens]), [list(gens)])
    R, X = TaggedModule(M).reduce(PolyMatrix(F, FreeModule(ring, [twist(f)]), [[f]]))
    if not R.is_zero():
        return None
    return [row[0] for row in X.entries]


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


def _fresh(ring: RingContext, names: list[str], values: list[Polynomial]):
    """The ring with one fresh variable per name in front (renamed away from
    the old variables), the fresh variables, and the specializing forms
    fresh - value."""
    taken = []
    for nm in names:
        while nm in ring.names or nm in taken:
            nm += "_"
        taken.append(nm)
    ext = RingContext(ring.field, taken + ring.names)
    fresh = [ext.var(i) for i in range(len(names))]
    return ext, fresh, [v - _inject(ext, f) for v, f in zip(fresh, values)]


def _inject(ext: RingContext, f: Polynomial) -> Polynomial:
    """f, a polynomial of the old ring, as an element of the extended ring."""
    k = ext.n - f.ring.n
    return Polynomial(ext, {(0,) * k + m: c for m, c in f.terms.items()})


def substitution_lift(ring: RingContext, spec: FormSpec, w: dict) -> GenericLift:
    """`spec.build` evaluated on fresh variables.  Each linear witness becomes
    the fresh variable `spec.fresh` names for it, in the listed position (a
    matrix witness M becomes M00, M01, ..., row-major).  Each witness of
    `spec.quadrics` becomes sum u_k*v_k over fresh pairs from its pair
    decomposition, numbered across the quadrics in the listed order."""
    names, values = [], []
    for nm, key in spec.fresh.items():
        if isinstance(w[key], list):
            for i, row in enumerate(w[key]):
                names += [f"{nm}{i}{j}" for j in range(len(row))]
                values += row
        else:
            names.append(nm)
            values.append(w[key])
    pairs = [pair_decomposition(w[key]) for key in spec.quadrics]
    for k, pair in enumerate(p for ps in pairs for p in ps):
        names += [f"u{k}", f"v{k}"]
        values += pair
    ext, fresh, specializing = _fresh(ring, names, values)
    it = iter(fresh)
    generic = {
        key: [[next(it) for _ in row] for row in w[key]] if isinstance(w[key], list) else next(it)
        for key in spec.fresh.values()
    }
    for key, ps in zip(spec.quadrics, pairs):
        generic[key] = sum((next(it) * next(it) for _ in ps), ext.zero())
    return GenericLift(ext, spec.build(generic), MonomialOrder(spec.order, n=ext.n), specializing)


# ---------------------------------------------------------------------------
# per-case templates


def build_ht1(w: dict) -> list[Polynomial]:
    return [w["a1"] * w["x"], w["a2"] * w["x"], w["a3"] * w["x"], w["a4"] * w["x"]]


def check_ht1(w: dict, I: Ideal) -> bool:
    return span_dim([w["a1"], w["a2"], w["a3"], w["a4"]]) == 4 and bool(w["x"])


def build_2i_a(w: dict) -> list[Polynomial]:
    x, y, z, v = w["x"], w["y"], w["z"], w["w"]
    return [x * z, x * v, y * z, y * v]


def check_2i_a(w: dict, I: Ideal) -> bool:
    return span_dim([w["x"], w["y"], w["z"], w["w"]]) == 4


def build_2i_b(w: dict) -> list[Polynomial]:
    x, y, z, v = w["x"], w["y"], w["z"], w["w"]
    return [x * x, x * y, y * y, x * z + y * v]


def build_2i_c(w: dict) -> list[Polynomial]:
    x = w["x"]
    return [x * w["y"], x * w["z"], x * w["w"], w["q"]]


def check_2i_c(w: dict, I: Ideal) -> bool:
    q = w["q"]
    return (
        span_dim([w["y"], w["z"], w["w"]]) == 3
        and bool(w["x"])
        and ideal_cofactors(q, [w["y"], w["z"], w["w"]]) is not None
        and ideal_cofactors(q, [w["x"]]) is None
    )


def check_2ii(w: dict, I: Ideal) -> bool:
    x = w["x"]
    J = Ideal([x * w["y"], x * w["z"], x * w["w"]], x.ring)
    return span_dim([w["y"], w["z"], w["w"]]) == 3 and bool(x) and is_regular_sequence_mod(J, [w["q"]])


def build_2iii(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [x * w["z"], y * w["z"], w["a3"] * x + w["b3"] * y, w["a4"] * x + w["b4"] * y]


def check_2iii(w: dict, I: Ideal) -> bool:
    ring = w["x"].ring
    _, _, q3, q4 = build_2iii(w)
    delta = w["a3"] * w["b4"] - w["a4"] * w["b3"]
    return (
        span_dim([w["x"], w["y"]]) == 2
        and _height(ring, [q3, q4]) == 2
        and _height(ring, [w["z"], q3, q4, delta]) == 3
    )


def build_2iv_a(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [x * x, w["b3"] * x, w["a3"] * x + w["b3"] * y, w["a4"] * x + w["b4"] * y]


def check_2iv_a(w: dict, I: Ideal) -> bool:
    return (
        span_dim([w["x"], w["y"]]) == 2
        and span_dim([w["x"], w["b3"], w["b4"]]) == 3
        and span_dim([w["x"], w["y"], w["a3"], w["b3"]]) == 4
    )


def build_2iv_b(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [x * y, w["a2"] * x, w["b3"] * y, w["a4"] * x + w["b4"] * y]


def check_2iv_b(w: dict, I: Ideal) -> bool:
    return (
        span_dim([w["x"], w["y"]]) == 2
        and span_dim([w["x"], w["b3"], w["b4"]]) == 3
        and span_dim([w["y"], w["a2"], w["a4"]]) == 3
        and span_dim([w["x"], w["y"], w["a2"], w["b3"]]) == 4
    )


def build_2iv_c(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [w["b3"] * x, w["b4"] * x, w["a3"] * x + w["b3"] * y, w["a4"] * x + w["b4"] * y]


def check_2iv_c(w: dict, I: Ideal) -> bool:
    _, _, q3, q4 = build_2iv_c(w)
    return (
        span_dim([w["x"], w["y"]]) == 2
        and span_dim([w["x"], w["b3"], w["b4"]]) == 3
        and span_dim([w["a3"], w["a4"], w["b3"], w["b4"]]) == 4
        and _height(w["x"].ring, [q3, q4]) == 2
    )


def build_2iv_d(w: dict) -> list[Polynomial]:
    x, y = w["x"], w["y"]
    return [w["a1"] * x, w["a2"] * x, w["b3"] * y, w["b4"] * y]


def check_2iv_d(w: dict, I: Ideal) -> bool:
    ring = w["x"].ring
    if span_dim([w["a1"], w["a2"]]) != 2 or span_dim([w["b3"], w["b4"]]) != 2 or span_dim([w["x"], w["y"]]) != 2:
        return False
    I1 = Ideal([w["a1"] * w["x"], w["a2"] * w["x"]], ring)
    I2 = Ideal([w["b3"] * w["y"], w["b4"] * w["y"]], ring)
    # I1*I2 lies in I1 ∩ I2, and 0 -> S/(I1 ∩ I2) -> S/I1 + S/I2 -> S/(I1+I2) -> 0
    # is exact, so the two are equal iff S/(I1*I2) has the Hilbert series
    # H(S/I1) + H(S/I2) - H(S/I); I is I1 + I2.  I1*I2 = f*K with f = x*y and
    # K = (a1, a2)(b3, b4); f is a nonzerodivisor, so 0 -> (S/K)(-2) -> S/fK
    # -> S/(f) -> 0 is exact and num(S/I1*I2) = (1 - t^2) + t^2 num(S/K); when
    # f = 0, I1*I2 = 0 and the numerator is 1
    num = lambda J: hilbert_of_quotient(J).numerator
    if w["x"] and w["y"]:
        K = Ideal([a * b for a in (w["a1"], w["a2"]) for b in (w["b3"], w["b4"])], ring)
        prod = zp_add((1, 0, -1), zp_shift(num(K), 2))
    else:
        prod = (1,)
    return zp_add(num(I1), num(I2)) == zp_add(num(I), prod)


def build_ht3_i(w: dict) -> list[Polynomial]:
    return [w["x"] * w["z"], w["x"] * w["w"], w["q3"], w["q4"]]


def check_ht3_i(w: dict, I: Ideal) -> bool:
    J = Ideal([w["x"] * w["z"], w["x"] * w["w"]], w["x"].ring)
    return span_dim([w["z"], w["w"]]) == 2 and bool(w["x"]) and is_regular_sequence_mod(J, [w["q3"], w["q4"]])


def build_ht3_ii(w: dict) -> list[Polynomial]:
    m = w["M"]  # 3x2 nested list of linear forms
    minors = [
        m[0][0] * m[1][1] - m[0][1] * m[1][0],
        m[0][0] * m[2][1] - m[0][1] * m[2][0],
        m[1][0] * m[2][1] - m[1][1] * m[2][0],
    ]
    return minors + [w["q4"]]


def check_ht3_ii(w: dict, I: Ideal) -> bool:
    J = Ideal(build_ht3_ii(w)[:3], w["M"][0][0].ring)
    return hilbert_of_quotient(J).codim == 2 and is_regular_sequence_mod(J, [w["q4"]])


def build_ht4(w: dict) -> list[Polynomial]:
    return [w["q1"], w["q2"], w["q3"], w["q4"]]


def check_ht4(w: dict, I: Ideal) -> bool:
    return hilbert_of_quotient(I).codim == 4


# ---------------------------------------------------------------------------
# sampling


def sample_witnesses(case: str, ring: RingContext, seed: int):
    """Random witness forms satisfying the case conditions (rejection sampling,
    at most 200 draws)."""
    rng = random.Random(f"gen:{case}:{seed}")
    spec = FORMS[case]
    for _ in range(200):
        w = spec.sample(ring, rng)
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
            return w, I
    raise GroebnerError(
        f"could not sample valid witnesses for {case} over {ring.field.name}; "
        "try a larger field or more variables"
    )


@dataclass
class FormSpec:
    """A structure case: its generators from named witnesses, its side
    conditions, how its witnesses are sampled, the naming of its generic
    lift, and the name reports give it.  `check(w, I)` is true when the
    witnesses w of the ideal I meet the case's conditions."""

    build: callable
    check: callable             # (witnesses, ideal) -> bool
    koszul: bool
    fresh: dict[str, str]       # lift variable -> linear or matrix witness, in ring order
    nvars: int                  # variables of the ring generate_ideal samples in
    display: str                # the case as reports name it
    linear: tuple[str, ...] = ()    # witnesses drawn as random linear forms, in this order
    quadrics: tuple[str, ...] = ()  # witnesses drawn as random quadrics after them
    order: str = "degrevlex"    # an order giving the lift a quadratic basis
    own_lift: callable | None = None    # a lift that is not a substitution
    own_sample: callable | None = None  # draws the witnesses before the quadrics, in place of `linear`

    def sample(self, ring: RingContext, rng) -> dict:
        """One draw of random witnesses; the draws come in a fixed order,
        so a seeded rng gives the same witnesses every time."""
        if self.own_sample is not None:
            w = self.own_sample(ring, rng)
        else:
            w = {k: random_linear(ring, rng) for k in self.linear}
        return w | {k: random_quadric(ring, rng) for k in self.quadrics}

    @property
    def locus(self) -> str:
        """Where the case lives, the prefix of `display`: ht1, ht3 or ht4 by
        height, and 2i, 2ii, 2iii or 2iv by height-two Betti table."""
        return self.display.split("-")[0]

    def lift(self, ring: RingContext, w: dict) -> GenericLift | None:
        if self.own_lift is not None:
            return self.own_lift(ring, w)
        return substitution_lift(ring, self, w)


def _lift_2i_c(ring, w):
    """q lifts as Y*U + Z*V + W*T, from its cofactors on (y, z, w)."""
    cof = ideal_cofactors(w["q"], [w["y"], w["z"], w["w"]])
    if cof is None:
        return None
    names = list(_XYZW) + ["U", "V", "T"]
    ext, v, specializing = _fresh(ring, names, [w[k] for k in _XYZW.values()] + cof)
    X, Y, Z, W, U, V, T = v
    gens = build_2i_c({"x": X, "y": Y, "z": Z, "w": W, "q": Y * U + Z * V + W * T})
    return GenericLift(ext, gens, MonomialOrder("degrevlex", n=ext.n), specializing)


def _lift_ht4(ring, w):
    """q_i lifts as Z_i^2 - q_i, specialized by Z_i -> 0."""
    ext, Z, specializing = _fresh(ring, ["Z1", "Z2", "Z3", "Z4"], [ring.zero()] * 4)
    gens = build_ht4({f"q{i + 1}": z * z - _inject(ext, w[f"q{i + 1}"]) for i, z in enumerate(Z)})
    return GenericLift(ext, gens, MonomialOrder("degrevlex", n=ext.n), specializing)


def _sample_2i_c(ring, rng):
    """x, y, z, w, and q = y*u + z*v + w*t for random linear u, v, t, so
    that q lies in (y, z, w)."""
    w = {k: random_linear(ring, rng) for k in "xyzw"}
    w["q"] = w["y"] * random_linear(ring, rng) + w["z"] * random_linear(ring, rng) + w["w"] * random_linear(ring, rng)
    return w


def _sample_ht3_ii(ring, rng):
    """A 3x2 matrix M of random linear forms, row by row."""
    return {"M": [[random_linear(ring, rng) for _ in range(2)] for _ in range(3)]}


_XYZW = {"X": "x", "Y": "y", "Z": "z", "W": "w"}
_TWO_FACTOR = {"A3": "a3", "B3": "b3", "B4": "b4", "A4": "a4", "X": "x", "Y": "y"}

FORMS: dict[str, FormSpec] = {
    "ht1": FormSpec(build_ht1, check_ht1, True, {"X": "x", "A1": "a1", "A2": "a2", "A3": "a3", "A4": "a4"},
                    5, "ht1", ("x", "a1", "a2", "a3", "a4")),
    "2i-a": FormSpec(build_2i_a, check_2i_a, True, _XYZW, 4, "2i", ("x", "y", "z", "w")),
    "2i-b": FormSpec(build_2i_b, check_2i_a, True, _XYZW, 4, "2i", ("x", "y", "z", "w")),
    "2i-c": FormSpec(build_2i_c, check_2i_c, True, {}, 4, "2i", own_lift=_lift_2i_c, own_sample=_sample_2i_c),
    "2ii": FormSpec(build_2i_c, check_2ii, True, _XYZW, 4, "2ii", ("x", "y", "z", "w"), ("q",)),
    "2iii": FormSpec(build_2iii, check_2iii, True, {**_TWO_FACTOR, "Z": "z"}, 7, "2iii",
                     ("x", "y", "z", "a3", "b3", "a4", "b4"), order="deglex"),
    "2iv-a": FormSpec(build_2iv_a, check_2iv_a, False, _TWO_FACTOR, 6, "2iv-(a)", ("x", "y", "a3", "b3", "a4", "b4")),
    "2iv-b": FormSpec(build_2iv_b, check_2iv_b, False,
                      {"A2": "a2", "B3": "b3", "B4": "b4", "A4": "a4", "X": "x", "Y": "y"},
                      6, "2iv-(b)", ("x", "y", "a2", "b3", "a4", "b4")),
    "2iv-c": FormSpec(build_2iv_c, check_2iv_c, False, _TWO_FACTOR, 6, "2iv-(c)", ("x", "y", "a3", "b3", "a4", "b4")),
    "2iv-d": FormSpec(build_2iv_d, check_2iv_d, True,
                      {"Z": "x", "W": "y", "U1": "a1", "U2": "a2", "V1": "b3", "V2": "b4"},
                      6, "2iv-(d)", ("x", "y", "a1", "a2", "b3", "b4")),
    "ht3-i": FormSpec(build_ht3_i, check_ht3_i, True, {"X": "x", "Z": "z", "W": "w"}, 5, "ht3-i",
                      ("x", "z", "w"), ("q3", "q4")),
    "ht3-ii": FormSpec(build_ht3_ii, check_ht3_ii, True, {"M": "M"}, 6, "ht3-ii", quadrics=("q4",),
                       own_sample=_sample_ht3_ii),
    "ht4-CI": FormSpec(build_ht4, check_ht4, True, {}, 4, "ht4-CI", quadrics=("q1", "q2", "q3", "q4"),
                       own_lift=_lift_ht4),
}


def resolve_case_id(case: str, seed: int) -> str:
    """Map the umbrella id 2i to one of its sub-forms by seed."""
    if case == "2i":
        subforms = [key for key, spec in FORMS.items() if spec.display == "2i"]
        return subforms[seed % len(subforms)]
    return case


def generate_ideal(case: str, field, seed: int, nvars: int | None = None):
    """Sample a random valid witnessed ideal of the given case, in `nvars`
    variables (the case's own default when None); the witnesses are
    re-checked before returning."""
    concrete = resolve_case_id(case, seed)
    if concrete not in FORMS:
        raise GroebnerError(f"unknown case id {case!r}; known: {sorted(FORMS)} and 2i")
    if nvars is not None and nvars < 1:
        raise GroebnerError(f"a witnessed ideal needs at least one variable, got nvars={nvars}")
    n = FORMS[concrete].nvars if nvars is None else nvars
    ring = RingContext(field, [f"x{i}" for i in range(n)])
    w, I = sample_witnesses(concrete, ring, seed)
    return {"case": case, "concrete_case": concrete, "ring": ring, "witnesses": w, "ideal": I}
