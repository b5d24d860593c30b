"""Computations over a quotient ring R = S/I: truncated minimal free
resolutions by degreewise linear algebra, Koszulness-up-to-bound testing,
the first-syzygy span criterion, and numeric series consistency checks.

Coordinates are taken in the standard-monomial bases of the graded (or
bigraded) pieces of R, so every resolution step reduces to kernels of
field-linear maps.  Coordinate vectors are the columns of linalg matrices:
int64 arrays with entries in [0, p) for primes below linalg's int64 bound,
object arrays of exact field values for QQ and larger primes.  The resolver
only calls linalg, which makes that choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import groupby

from . import linalg
from .groebner import GroebnerError, Ideal, minimal_quadric_generators, normal_form
from .hilbert import is_regular_sequence_mod
from .modules import FreeModule, TaggedModule
from .resolution import minimal_resolution
from .ring import (
    DEGREVLEX,
    Deg,
    Mon,
    MonomialOrder,
    Polynomial,
    RingContext,
    add_deg,
    total,
)


def _degrees_upto(ring: RingContext, bound: int) -> list[Deg]:
    """All degree tuples with total degree <= bound, in increasing total order."""
    if ring.gdim == 1:
        return [(d,) for d in range(bound + 1)]
    return [(p, q) for t in range(bound + 1) for p in range(t + 1) for q in [t - p]]


class QuotientRing:
    """R = S/I with cached standard-monomial bases of its graded pieces."""

    def __init__(self, I: Ideal, order: MonomialOrder = DEGREVLEX):
        self.ideal = I
        self.ring = I.ring
        self.field = I.ring.field
        self.order = order.for_ring(I.ring)
        self.gb = I.gb(self.order) if not I.is_zero() else None
        self._lead = self.gb.initial_monomials() if self.gb else []
        self._std: dict[Deg, list[Mon]] = {}
        self._pos: dict[Deg, dict[Mon, int]] = {}
        self._nf_cache: dict[Mon, Polynomial] = {}
        self._mul: dict = {}  # (i, d) -> the linalg matrix mul_var(i, d)

    # -- bases -----------------------------------------------------------
    def _enumerate_std(self, d: Deg) -> list[Mon]:
        ring = self.ring
        out: list[Mon] = []
        exps = [0] * ring.n
        lead = self._lead

        def reducible(m: Mon) -> bool:
            return any(all(x >= y for x, y in zip(m, g)) for g in lead)

        def rec(i: int, remaining: Deg):
            if i == ring.n:
                if all(r == 0 for r in remaining):
                    m = tuple(exps)
                    if not reducible(m):
                        out.append(m)
                return
            w = ring.weights[i]
            cap = min(
                (remaining[k] for k in range(len(w)) if w[k]),
                default=0,
            )
            for e in range(cap + 1):
                exps[i] = e
                rec(i + 1, tuple(r - e * wk for r, wk in zip(remaining, w)))
            exps[i] = 0

        rec(0, d)
        out.sort(key=self.order.key, reverse=True)
        return out

    def std_basis(self, d: Deg) -> list[Mon]:
        if d not in self._std:
            basis = self._enumerate_std(d)
            self._std[d] = basis
            self._pos[d] = {m: i for i, m in enumerate(basis)}
        return self._std[d]

    def dim_piece(self, d: Deg) -> int:
        return len(self.std_basis(d))

    def hilbert_coeffs(self, bound: int) -> list[int]:
        """dim_k R_d for total degree d <= bound (bigraded pieces totalized)."""
        out = [0] * (bound + 1)
        for d in _degrees_upto(self.ring, bound):
            out[total(d)] += self.dim_piece(d)
        return out

    # -- normal forms and coordinates -------------------------------------
    def nf(self, f: Polynomial) -> Polynomial:
        if self.gb is None:
            return f
        return normal_form(f, self.gb)

    def _nf_mon(self, m: Mon) -> Polynomial:
        r = self._nf_cache.get(m)
        if r is None:
            r = self.nf(Polynomial(self.ring, {m: self.field.one()}))
            self._nf_cache[m] = r
        return r

    def coords(self, f: Polynomial, d: Deg) -> list:
        """Coordinates of NF(f) in the standard basis of R_d (f homogeneous)."""
        K = self.field
        basis = self.std_basis(d)
        pos = self._pos[d]
        vec = [K.zero()] * len(basis)
        g = self.nf(f)
        for m, c in g.terms.items():
            vec[pos[m]] = c
        return vec

    def from_coords(self, vec, d: Deg) -> Polynomial:
        K = self.field
        basis = self.std_basis(d)
        terms = {m: v for m, v in zip(basis, vec) if not K.is_zero(v)}
        return Polynomial(self.ring, terms)

    def mul_var(self, i: int, d: Deg):
        """Matrix of multiplication by variable i: R_d -> R_{d+w_i}, with one
        column per standard monomial of degree d."""
        key = (i, d)
        M = self._mul.get(key)
        if M is None:
            tgt = add_deg(d, self.ring.weights[i])
            self.std_basis(tgt)
            pos = self._pos[tgt]
            src = self.std_basis(d)
            M = linalg.zeros(self.field, (len(pos), len(src)))
            for c, m in enumerate(src):
                mm = list(m)
                mm[i] += 1
                for t, coef in self._nf_mon(tuple(mm)).terms.items():
                    M[pos[t], c] = coef
            self._mul[key] = M
        return M


# ---------------------------------------------------------------------------
# truncated resolutions by degreewise linear algebra


@dataclass
class TruncatedResolution:
    """Minimal generator data of a truncated resolution over R.

    gen_degrees[i] lists the degree tuples of the minimal generators at
    homological index i; F_0 is the target presentation step.
    """

    quotient: QuotientRing
    hom_bound: int
    degree_bound: int
    gen_degrees: list[list[Deg]]
    complete: bool
    notes: list[str] = field(default_factory=list)

    def betti(self, i: int, d: Deg | None = None) -> int:
        if i >= len(self.gen_degrees):
            return 0
        if d is None:
            return len(self.gen_degrees[i])
        return sum(1 for x in self.gen_degrees[i] if x == d)

    def betti_total(self, i: int, t: int) -> int:
        if i >= len(self.gen_degrees):
            return 0
        return sum(1 for x in self.gen_degrees[i] if total(x) == t)

    def ranks(self) -> list[int]:
        return [len(g) for g in self.gen_degrees]

    def first_nonlinear(self, offset: int = 0) -> tuple[int, Deg] | None:
        """First (i, degree) with total degree > i + offset, scanning by i."""
        for i, degs in enumerate(self.gen_degrees):
            bad = [d for d in degs if total(d) > i + offset]
            if bad:
                return i, min(bad, key=lambda d: (total(d), d))
        return None

    def to_json(self) -> dict:
        return {
            "ranks": self.ranks(),
            "generators": [[list(d) for d in degs] for degs in self.gen_degrees],
            "complete": self.complete,
            "notes": self.notes,
        }


class _Resolver:
    """Degreewise kernel computation for one module over a QuotientRing.

    levels[i] holds the generator degrees of F_i, in increasing order, and
    for i >= 1 "cols": degree -> matrix whose columns are the differentials
    of the generators of that degree, in coordinates of F_{i-1}.
    """

    def __init__(self, Q: QuotientRing, degree_bound: int):
        self.Q = Q
        self.K = Q.field
        self.ring = Q.ring
        self.bound = degree_bound
        self.degrees = _degrees_upto(self.ring, degree_bound)
        self.levels: list[dict] = []
        self._layouts: dict[tuple[int, Deg], tuple[list, int]] = {}
        self._splits: dict[Deg, dict[int, tuple[list[int], list[int]]]] = {}

    def _add_level(self, degrees: list[Deg], cols) -> None:
        groups = [(g, len(list(run))) for g, run in groupby(degrees)]
        self.levels.append({"degrees": degrees, "groups": groups, "cols": cols})

    # ---- layouts ------------------------------------------------------
    def layout(self, level: int, d: Deg):
        """Blocks (piece degree e, offset, generator count, piece size) of
        (F_level)_d, one per generator degree, and the total size.  A block
        holds `count` consecutive copies of R_e, one per generator."""
        key = (level, d)
        out = self._layouts.get(key)
        if out is None:
            blocks = []
            off = 0
            for gdeg, cnt in self.levels[level]["groups"]:
                e = tuple(a - b for a, b in zip(d, gdeg))
                sz = 0 if any(x < 0 for x in e) else self.Q.dim_piece(e)
                blocks.append((e, off, cnt, sz))
                off += cnt * sz
            out = self._layouts[key] = (blocks, off)
        return out

    def _amb_dim(self, level: int, d: Deg) -> int:
        return self.layout(level, d)[1]

    def _split(self, e: Deg):
        """var i -> (indices t of the standard monomials m of degree e whose
        first variable is i, indices of m / x_i in the basis of e - w_i)."""
        out = self._splits.get(e)
        if out is None:
            Q = self.Q
            out = {}
            for t, m in enumerate(Q.std_basis(e)):
                i = next(i for i, x in enumerate(m) if x)
                m2 = list(m)
                m2[i] -= 1
                e2 = tuple(a - b for a, b in zip(e, self.ring.weights[i]))
                Q.std_basis(e2)
                ts, ts2 = out.setdefault(i, ([], []))
                ts.append(t)
                ts2.append(Q._pos[e2][tuple(m2)])
            self._splits[e] = out
        return out

    # ---- multiplication of stored columns ------------------------------
    def _mul_var_level(self, level: int, X, d_from: Deg, var: int):
        """Multiply the columns of X, coordinates in (F_level)_{d_from}, by
        variable var: one block matrix product per generator degree."""
        K = self.K
        n = X.shape[1]
        blocks_from, _ = self.layout(level, d_from)
        blocks_to, dim_to = self.layout(level, add_deg(d_from, self.ring.weights[var]))
        out = linalg.zeros(K, (dim_to, n))
        for (e, off, cnt, sz), (_, off2, _, sz2) in zip(blocks_from, blocks_to):
            if sz and sz2:
                piece = X[off:off + cnt * sz].reshape(cnt, sz, n)
                dest = out[off2:off2 + cnt * sz2].reshape(cnt, sz2, n)
                linalg.matmul(K, self.Q.mul_var(var, e), piece, out=dest)
        return out

    def _differential(self, lev: int, d: Deg, diffs: dict):
        """Matrix of (F_lev)_d -> (F_{lev-1})_d.  The column of m * e_j, for
        a standard monomial m = x_i * m' with i its first variable, is x_i
        times the column of m' * e_j in diffs[d - w_i]."""
        blocks, dim_src = self.layout(lev, d)
        A = linalg.zeros(self.K, (self._amb_dim(lev - 1, d), dim_src))
        below = [tuple(a - b for a, b in zip(d, w)) for w in self.ring.weights]
        dst: dict[int, list[int]] = {}  # var i -> columns of A
        src: dict[int, list[int]] = {}  # var i -> columns of diffs[below[i]]
        for b, (e, off, cnt, sz) in enumerate(blocks):
            if not sz:
                continue
            if not any(e):
                A[:, off:off + cnt] = self.levels[lev]["cols"][d]
                continue
            for i, (ts, ts2) in self._split(e).items():
                _, off2, _, sz2 = self.layout(lev, below[i])[0][b]
                for j in range(cnt):
                    dst.setdefault(i, []).extend(off + j * sz + t for t in ts)
                    src.setdefault(i, []).extend(off2 + j * sz2 + t for t in ts2)
        for i, cols in dst.items():
            A[:, cols] = self._mul_var_level(lev - 1, diffs[below[i]][:, src[i]], below[i], i)
        return A

    # ---- main loop ------------------------------------------------------
    def _add_generators(self, lev: int, d: Deg, B, unit, bases: dict, degrees: list, cols: dict):
        """Append to (degrees, cols) the columns of B, a basis of the degree-d
        piece that is the identity on the rows `unit`, that are not generated
        by the lower-degree pieces in bases."""
        if not unit:
            return
        below = [(var, tuple(a - b for a, b in zip(d, w))) for var, w in enumerate(self.ring.weights)]
        # a generator, so that each product is dropped once its coordinates are read
        old = (self._mul_var_level(lev, bases[dp], dp, var) for var, dp in below
               if dp in bases and bases[dp].shape[1])
        chosen = linalg.complement_in_basis(self.K, unit, old)
        if chosen:
            degrees.extend([d] * len(chosen))
            cols[d] = B[:, chosen]

    def run(self, f0_degrees: list[Deg], seeds: dict, hom_bound: int):
        """Resolve given level-0 generator degrees and the level-1 seeds.

        seeds maps degree -> matrix whose rows span the degree-d piece of the
        submodule of F_0 to resolve (the kernel of the augmentation).
        Returns gen_degrees per level.
        """
        self._add_level(list(f0_degrees), None)

        # level 1: minimal generators of the seeded submodule
        bases: dict = {}
        degrees: list[Deg] = []
        cols: dict = {}
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
        # complete means the resolution actually terminated inside the window
        complete = not gen_degree_lists[-1]
        return gen_degree_lists, complete

    def _kernel_step(self, lev: int):
        """Minimal generators of ker((F_lev)_d -> (F_{lev-1})_d) over all d."""
        diffs: dict = {}
        kernels: dict = {}
        degrees: list[Deg] = []
        cols: dict = {}
        for d in self.degrees:
            if not self._amb_dim(lev, d):
                continue
            A = diffs[d] = self._differential(lev, d, diffs)
            B, free = linalg.kernel_basis(self.K, A)
            self._add_generators(lev, d, B, free, kernels, degrees, cols)
            kernels[d] = B
        return degrees, cols


def resolve_over_quotient(
    Q: QuotientRing,
    target,
    hom_bound: int,
    degree_bound: int | None = None,
) -> TruncatedResolution:
    """Truncated minimal free resolution over R by degreewise linear algebra.

    target: ("quotient", gens) resolves the cyclic module R/(gens);
            ("module", gens) resolves the submodule of R generated by gens.
    Graded Betti data is reported for all internal degrees with total degree
    <= degree_bound.
    """
    kind, gens = target
    gens = [Q.nf(g) for g in gens]
    gens = [g for g in gens if g]
    if degree_bound is None:
        degree_bound = hom_bound + 1
    res = _Resolver(Q, degree_bound)
    ring = Q.ring

    # seed: the submodule's graded pieces inside (F_0) = R
    seeds = {}
    for d in res.degrees:
        vecs = []
        for g in gens:
            gd = g.degree()
            if gd is None:
                raise GroebnerError("module generators must be homogeneous")
            rem = tuple(a - b for a, b in zip(d, gd))
            if any(x < 0 for x in rem):
                continue
            for m in Q.std_basis(rem):
                prod = Q.nf(g.mul_term(m, Q.field.one()))
                vecs.append(Q.coords(prod, d))
        if vecs:
            seeds[d] = linalg.array(Q.field, vecs, Q.dim_piece(d))

    if kind == "quotient":
        gen_lists, complete = res.run([ring.zero_deg], seeds, hom_bound)
        return TruncatedResolution(Q, hom_bound, degree_bound, gen_lists, complete)
    if kind == "module":
        # resolve the submodule itself: its minimal generators become F_0
        gen_lists, complete = res.run([ring.zero_deg], seeds, hom_bound + 1)
        return TruncatedResolution(Q, hom_bound, degree_bound, gen_lists[1:], complete)
    raise GroebnerError(f"unknown resolution target kind {kind!r}")


# ---------------------------------------------------------------------------
# Koszulness testing


def _find_regular_linear_reduction(I: Ideal, tries: int = 25, seed: int = 11):
    """Quotient S/I by regular linear forms, eliminating one variable each
    time, until no regular linear form is found.  Koszulness is unchanged by
    this reduction; it only shrinks the linear algebra."""
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


def is_koszul_up_to(
    Q_or_I,
    hom_bound: int,
    *,
    reduce_first: bool = True,
) -> dict:
    """Resolve the residue field over R up to hom_bound (internal degree
    truncated at hom_bound + 1); report the first nonlinear position if any.

    A 'linear-so-far' verdict is inconclusive beyond the bound; 'nonlinear-at'
    certifies non-Koszulness.  When reduce_first is set, the ring is first cut
    down by a regular sequence of linear forms (this preserves Koszulness and
    the existence of a nonlinear position, though positions may shift).
    """
    if isinstance(Q_or_I, QuotientRing):
        I = Q_or_I.ideal
        Q = Q_or_I
    else:
        I = Q_or_I
        Q = None
    reduced_by = 0
    if reduce_first and not I.is_zero():
        I2, reduced_by = _find_regular_linear_reduction(I)
        if reduced_by:
            Q = None
            I = I2
    if Q is None:
        Q = QuotientRing(I)
    gens = [Q.ring.var(i) for i in range(Q.ring.n)]
    res = resolve_over_quotient(Q, ("quotient", gens), hom_bound, hom_bound + 1)
    pos = res.first_nonlinear()
    out = {
        "resolution": res,
        "bound": hom_bound,
        "reduced_by_linear_forms": reduced_by,
        "betti_diagonal": [res.betti_total(i, i) for i in range(hom_bound + 1)],
    }
    if pos is not None:
        out["verdict"] = "nonlinear-at"
        out["position"] = {"hom_degree": pos[0], "internal_degree": list(pos[1])}
    else:
        out["verdict"] = "linear-so-far"
    return out


def froberg_consistency(Q_or_result, bound: int) -> dict:
    """Check coefficientwise that (sum_i beta_{i,i} t^i) * H_R(-t) = 1 to the
    given bound.  Only meaningful after a linear-so-far verdict at the bound."""
    if isinstance(Q_or_result, dict):
        res = Q_or_result["resolution"]
        if Q_or_result.get("verdict") != "linear-so-far":
            return {"applicable": False, "holds": None, "note": "resolution not linear; check skipped"}
    else:
        res = Q_or_result
    Q = res.quotient
    diag = [res.betti_total(i, i) for i in range(bound + 1)]
    h = Q.hilbert_coeffs(bound)
    conv = []
    for d in range(bound + 1):
        s = 0
        for i in range(d + 1):
            s += diag[i] * ((-1) ** (d - i)) * h[d - i]
        conv.append(s)
    holds = conv[0] == 1 and all(c == 0 for c in conv[1:])
    return {"applicable": True, "holds": holds, "pairing": conv, "diagonal": diag}


# ---------------------------------------------------------------------------
# the first-syzygy span criterion


def first_syzygy_criterion(I: Ideal) -> dict:
    """Test whether the minimal first syzygies of a quadric-generated ideal
    are spanned by linear syzygies plus Koszul syzygies.

    Failure certifies the quotient is not Koszul; a pass is inconclusive.
    """
    ring = I.ring
    gens = minimal_quadric_generators(I)
    g = len(gens)
    F0 = FreeModule(ring, [ring.zero_deg])
    two = ring.mon_degree(tuple([2] + [0] * (ring.n - 1)))
    F1 = FreeModule(ring, [two] * g)
    cx, _ = minimal_resolution(Ideal(gens, ring))
    if cx.length < 2:
        return {"passes": True, "witness": None, "n_min_syzygies": 0, "note": "no first syzygies"}
    d2 = cx.maps[1]

    lin_cols, lin_degs = [], []
    for c in range(d2.ncols):
        if total(d2.source.twists[c]) == 3:
            lin_cols.append(d2.column(c))
            lin_degs.append(d2.source.twists[c])
    K = ring.field
    kos_cols, kos_degs = [], []
    four = add_deg(two, two)
    for i in range(g):
        for j in range(i + 1, g):
            col = {}
            for m, c in gens[j].terms.items():
                col[(i, m)] = c
            for m, c in gens[i].terms.items():
                col[(j, m)] = K.neg(c)
            kos_cols.append(col)
            kos_degs.append(four)
    span = TaggedModule(F1, lin_cols + kos_cols)
    witness = None
    for c in range(d2.ncols):
        if not span.contains(d2.column(c)):
            wit_entries = [d2.entries[r][c] for r in range(d2.nrows)]
            witness = {
                "column": c,
                "degree": list(d2.source.twists[c]),
                "vector": wit_entries,
            }
            break
    return {
        "passes": witness is None,
        "witness": witness,
        "n_min_syzygies": d2.ncols,
        "n_linear": len(lin_cols),
        "n_koszul": len(kos_cols),
    }
