"""Computations over a quotient ring R = S/I: truncated minimal free
resolutions by degreewise linear algebra, Koszulness-up-to-bound testing
after cutting R by regular linear forms, the first-syzygy span criterion,
and numeric series consistency checks.

A linear form is tested for regularity one way: a change of coordinates
makes it the last variable, whose regularity the Bayer-Stillman criterion
reads off the lead monomials of one degrevlex basis
(groebner.cut_last_variable).  The span criterion resolves one level: the
first syzygies of the generators (modules.syzygy_matrix).

Coordinates are taken in the standard-monomial bases of the graded (or
bigraded) pieces of R, so every resolution step reduces to kernels of
field-linear maps, one kernel per level and degree, in coordinates of the
image one level down; exactness counts the new generators, so a complement
picks them only where some are new (see _Resolver).  Coordinate vectors are
the columns of linalg matrices: int64 arrays with entries in [0, p) for
primes below linalg's int64 bound, object arrays of exact field values for
QQ and larger primes.  The resolver only calls linalg, which makes that
choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import groupby

from . import linalg
from .groebner import GroebnerError, Ideal, cut_last_variable, minimal_quadric_generators, normal_form
from .hilbert import hilbert_of_quotient
from .modules import FreeModule, PolyMatrix, TaggedModule, syzygy_matrix
from .ring import (
    DEGREVLEX,
    Deg,
    Mon,
    Polynomial,
    RingContext,
    add_deg,
    sub_deg,
    total,
)


def _degrees_upto(ring: RingContext, bound: int) -> list[Deg]:
    """All degree tuples with total degree <= bound, in increasing total order."""
    if ring.gdim == 1:
        return [(d,) for d in range(bound + 1)]
    return [(p, q) for t in range(bound + 1) for p in range(t + 1) for q in [t - p]]


class QuotientRing:
    """R = S/I with cached standard-monomial bases of its graded pieces."""

    def __init__(self, I: Ideal):
        self.ideal = I
        self.ring = I.ring
        self.field = I.ring.field
        self.gb = I.gb() if not I.is_zero() else None
        self._lead = self.gb.initial_monomials() if self.gb else []
        self._std: dict[Deg, list[Mon]] = {}
        self._pos: dict[Deg, dict[Mon, int]] = {}
        self._nf_cache: dict[Mon, Polynomial] = {}
        self._mul: dict = {}  # (i, d) -> the linalg matrix mul_var(i, d)

    # -- bases -----------------------------------------------------------
    def std_basis(self, d: Deg) -> list[Mon]:
        if d not in self._std:
            basis = [
                m for m in self.ring.monomials(d)
                if not any(all(x >= y for x, y in zip(m, g)) for g in self._lead)
            ]
            basis.sort(key=DEGREVLEX.for_ring(self.ring).key, reverse=True)
            self._std[d] = basis
            self._pos[d] = {m: i for i, m in enumerate(basis)}
        return self._std[d]

    def dim_piece(self, d: Deg) -> int:
        return len(self.std_basis(d))

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
        """Coordinates of NF(f) in the standard basis of R_d (f homogeneous):
        NF is linear, so the sum of c * NF(m) over the terms c * m of f."""
        K = self.field
        vec = [K.zero()] * self.dim_piece(d)
        pos = self._pos[d]
        for m, c in f.terms.items():
            for t, a in self._nf_mon(m).terms.items():
                vec[pos[t]] = K.add(vec[pos[t]], K.mul(c, a))
        return vec

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
    gen_degrees: list[list[Deg]]
    complete: bool
    notes: list[str] = field(default_factory=list)

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
    """Degreewise minimal resolution of one module over a QuotientRing.

    levels[i] holds the generator degrees of F_i, in increasing order, and
    for i >= 1 "cols": degree -> matrix whose columns are the differentials
    of the generators of that degree, in coordinates of F_{i-1}.

    Level lev is resolved degree by degree, and its generators are found on
    the way.  In degree d, A_old is the differential on the generators of
    lower degree.  d_lev maps onto ker(d_{lev-1})_d (for lev = 1, the seeded
    piece), whose basis B the previous level left, so by exactness there are
    dim ker(d_{lev-1})_d - rank(A_old) new generators.  The columns of A_old
    lie in span(B), and B has full column rank and is the identity on its
    rows `unit`, so A_old = B A_old[unit]: the kernel (which the next level
    needs) and the rank are those of A_old[unit], and the last level takes
    only the rank.  A greedy complement (linalg.complement_in_basis) picks
    the new generators only when some appear and A_old is not zero; a linear
    resolution takes none.
    The new columns are independent of A_old's and come last, so the kernel
    of the whole differential is ker(A_old) with zero rows added.
    """

    def __init__(self, Q: QuotientRing, degree_bound: int):
        self.Q = Q
        self.K = Q.field
        self.ring = Q.ring
        self.bound = degree_bound
        self.degrees = _degrees_upto(self.ring, degree_bound)
        self.levels: list[dict] = []
        self._layouts: dict[tuple[int, Deg, int], tuple[list, int]] = {}
        self._splits: dict[Deg, dict[int, tuple[list[int], list[int]]]] = {}

    def _add_level(self, degrees: list[Deg], cols) -> dict:
        groups = [(g, len(list(run))) for g, run in groupby(degrees)]
        level = {"degrees": degrees, "groups": groups, "cols": cols}
        self.levels.append(level)
        return level

    # ---- layouts ------------------------------------------------------
    def layout(self, level: int, d: Deg):
        """Blocks (piece degree e, offset, generator count, piece size) of
        (F_level)_d, one per generator degree found so far, and the total
        size.  A block holds `count` consecutive copies of R_e, one per
        generator."""
        groups = self.levels[level]["groups"]
        key = (level, d, len(groups))
        out = self._layouts.get(key)
        if out is None:
            blocks = []
            off = 0
            for gdeg, cnt in groups:
                e = sub_deg(d, gdeg)
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
                e2 = sub_deg(e, self.ring.weights[i])
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
        times the column of m' * e_j in diffs[d - w_i]: one product per block
        and variable, written through a view of A split by generator."""
        blocks, dim_src = self.layout(lev, d)
        A = linalg.zeros(self.K, (self._amb_dim(lev - 1, d), dim_src))
        for b, (e, off, cnt, sz) in enumerate(blocks):
            if not sz:
                continue
            if not any(e):
                A[:, off:off + cnt] = self.levels[lev]["cols"][d]
                continue
            for i, (ts, ts2) in self._split(e).items():
                e2 = sub_deg(d, self.ring.weights[i])
                _, off2, _, sz2 = self.layout(lev, e2)[0][b]
                X = diffs[e2][:, off2:off2 + cnt * sz2].reshape(-1, cnt, sz2)[:, :, ts2]
                Y = self._mul_var_level(lev - 1, X.reshape(-1, cnt * len(ts)), e2, i)
                A[:, off:off + cnt * sz].reshape(-1, cnt, sz)[:, :, ts] = Y.reshape(-1, cnt, len(ts))
        return A

    # ---- main loop ------------------------------------------------------
    def run(self, f0_degrees: list[Deg], seeds: dict, hom_bound: int):
        """Resolve given level-0 generator degrees and the level-1 seeds.

        seeds maps degree -> matrix whose rows span the degree-d piece of the
        submodule of F_0 to resolve (the kernel of the augmentation).
        Returns gen_degrees per level.
        """
        self._add_level(list(f0_degrees), None)
        below = {d: linalg.span_basis(self.K, V) for d, V in seeds.items()}
        # level 1, the minimal generators of the seeded submodule, is always
        # found; an empty level from 2 on ends the resolution
        top = max(hom_bound, 1)
        for lev in range(1, top + 1):
            below = self._resolve_level(lev, below, last=lev == top)
            if lev > 1 and not self.levels[lev]["degrees"]:
                break
        gen_degree_lists = [list(level["degrees"]) for level in self.levels]
        # complete means the resolution actually terminated inside the window
        complete = not gen_degree_lists[-1]
        return gen_degree_lists, complete

    def _resolve_level(self, lev: int, below: dict, last: bool) -> dict:
        """Find the minimal generators of F_lev, degree by degree: below[d]
        is a basis (B, unit) of the degree-d piece of the image of d_lev, as
        from kernel_basis or span_basis.  Returns the same for the image of
        d_{lev+1}, the kernels of d_lev, except at the last level."""
        K = self.K
        level = self._add_level([], {})
        diffs: dict = {}
        kernels: dict = {}
        for d in self.degrees:
            B, unit = below.pop(d, (None, []))
            A = self._differential(lev, d, diffs)
            old = A.shape[1]
            if last:
                rank = linalg.rank_of_rows(K, A, unit)
            else:
                ker, free = linalg.kernel_basis(K, A[unit])
                rank = old - len(free)
            # d_lev maps onto span(B), and by exactness the generators found
            # so far cover rank(A) of its len(unit) dimensions
            if 0 < rank < len(unit):
                chosen = linalg.complement_in_basis(K, unit, A)
            else:
                chosen = [] if rank else list(range(len(unit)))
            if chosen:
                new = level["cols"][d] = B[:, chosen]
                level["degrees"].extend([d] * len(chosen))
                level["groups"].append((d, len(chosen)))
                A_old, A = A, linalg.zeros(K, (A.shape[0], old + len(chosen)))
                A[:, :old], A[:, old:] = A_old, new
                if not last:
                    ker_old, ker = ker, linalg.zeros(K, (A.shape[1], len(free)))
                    ker[:old] = ker_old
            diffs[d] = A
            if not last:
                kernels[d] = (ker, free)
        return kernels


def resolve_over_quotient(
    Q: QuotientRing,
    target,
    hom_bound: int,
    degree_bound: int,
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
            rem = sub_deg(d, gd)
            if any(x < 0 for x in rem):
                continue
            for m in Q.std_basis(rem):
                vecs.append(Q.coords(g.mul_term(m, Q.field.one()), d))
        if vecs:
            seeds[d] = linalg.array(Q.field, vecs, Q.dim_piece(d))

    if kind == "quotient":
        gen_lists, complete = res.run([ring.zero_deg], seeds, hom_bound)
        return TruncatedResolution(Q, gen_lists, complete)
    if kind == "module":
        # resolve the submodule itself: its minimal generators become F_0
        gen_lists, complete = res.run([ring.zero_deg], seeds, hom_bound + 1)
        return TruncatedResolution(Q, gen_lists[1:], complete)
    raise GroebnerError(f"unknown resolution target kind {kind!r}")


# ---------------------------------------------------------------------------
# Koszulness testing


_TRIES = 25  # candidate forms per round: the variables, from the last, then random forms
_SEED = 11  # one Random(_SEED) draws the random forms of the whole search


def _socle_element(Q: QuotientRing, bound: int) -> Polynomial | None:
    """A nonzero form f of R = S/I, of total degree at most bound, that every
    variable kills (x_i f = 0 in R), or None when there is none.  Such an f
    proves depth R = 0: every linear form kills it, so none is regular."""
    ring, K = Q.ring, Q.field
    for d in _degrees_upto(ring, bound):
        basis = Q.std_basis(d)
        if not basis:
            continue
        maps = [Q.mul_var(i, d) for i in range(ring.n)]
        A = linalg.zeros(K, (sum(M.shape[0] for M in maps), len(basis)))
        off = 0
        for M in maps:
            A[off:off + M.shape[0]] = M
            off += M.shape[0]
        B, free = linalg.kernel_basis(K, A)
        if free:
            return ring.form(B[:, 0].tolist(), basis)
    return None


def _cut_by_form(I: Ideal, coeffs) -> Ideal | None:
    """I modulo the linear form l with these coefficients, in the ring
    without x_p, the last variable with a nonzero coefficient, solved for
    x_p, when l is regular on S/I; None when l is a zero-divisor.  The cut
    ideal carries its reduced degrevlex basis.

    The change of coordinates x_p -> (y - sum_{i != p} c_i x_i) / c_p, into
    the ring of the other variables and a fresh last variable y, takes l to
    y.  So l is regular exactly when y is, and groebner.cut_last_variable
    decides that by the Bayer-Stillman criterion; setting y = 0 solves l = 0
    for x_p.  A multiple of the last variable needs no change, and its test
    reuses the basis of I.
    """
    ring = I.ring
    K = ring.field
    piv = max(i for i, c in enumerate(coeffs) if not K.is_zero(c))
    names = [nm for i, nm in enumerate(ring.names) if i != piv]
    small = RingContext(K, names)
    if piv < ring.n - 1 or any(not K.is_zero(c) for c in coeffs[:piv]):
        fresh = next(nm for nm in ["y"] + [f"y{i}" for i in range(ring.n)] if nm not in ring.names)
        big = RingContext(K, names + [fresh])
        inv = K.inv(coeffs[piv])
        solved = big.linear_form([K.neg(K.mul(c, inv)) for i, c in enumerate(coeffs) if i != piv] + [inv])
        images = [solved if i == piv else big.var(i - (i > piv)) for i in range(ring.n)]
        I = Ideal([g.substitute(images) for g in I.gens], big)
    return cut_last_variable(I, small)


def _find_regular_linear_reduction(I: Ideal):
    """Quotient S/I by regular linear forms, eliminating one variable each
    time, until no regular linear form is found.  Koszulness is unchanged by
    this reduction; it only shrinks the linear algebra.  Returns the cut
    ideal, the number of forms, and the QuotientRing of the cut ideal when
    the last round built one (else None).

    Each round tries _TRIES candidates in order: the variables from the
    last, then random forms.  Every candidate is tested by the
    Bayer-Stillman criterion after a change of coordinates that makes it the
    last variable (_cut_by_form), which runs one Buchberger, and a regular
    candidate's cut ideal carries that basis into the next round.  The last
    variable comes first and needs no change: it reuses the basis of the
    round's ideal.  When it is a zero-divisor, S/I may have depth 0, and then
    no linear form is regular and the search stops: when S/I is Artinian (a
    pure power of every variable among the leads), or when it has a socle
    element up to the top degree of its basis.
    """
    if not I.is_homogeneous() or I.contains(I.ring.one()):
        raise GroebnerError("the regular linear form search needs a proper homogeneous ideal")
    rng = random.Random(_SEED)
    cur = I
    used = 0
    while cur.ring.n > 2:
        n, K = cur.ring.n, cur.ring.field
        nxt = None
        for t in range(_TRIES):
            if t == 1:
                # the last variable is a zero-divisor: S/I may have depth 0
                Q = QuotientRing(cur)
                artinian = all(any(m[i] == sum(m) for m in Q._lead) for i in range(n))
                if artinian or _socle_element(Q, max(g.total_degree() for g in Q.gb)) is not None:
                    return cur, used, Q
            if t < n:
                coeffs = [K.one() if i == n - 1 - t else K.zero() for i in range(n)]
            else:
                coeffs = [K.random(rng) for _ in range(n)]
            if any(not K.is_zero(c) for c in coeffs):
                nxt = _cut_by_form(cur, coeffs)
                if nxt is not None:
                    break
        if nxt is None:
            return cur, used, Q
        if nxt.is_zero():
            break
        cur = nxt
        used += 1
    return cur, used, None


def is_koszul_up_to(I: Ideal, hom_bound: int) -> dict:
    """Resolve the residue field over R = S/I up to hom_bound (internal
    degree truncated at hom_bound + 1); report the first nonlinear position
    if any.

    A 'linear-so-far' verdict is inconclusive beyond the bound; 'nonlinear-at'
    certifies non-Koszulness.  The ring is first cut down by a regular
    sequence of linear forms (this preserves Koszulness and the existence of
    a nonlinear position, though positions may shift).  The
    search for those forms runs one Buchberger on I and one per candidate
    it tries after a zero-divisor last variable; a regular last variable
    costs none (the Bayer-Stillman criterion on the basis every cut ring
    carries).  It stops at once when the ring is Artinian or it finds a
    socle element, and the resolver then reuses its QuotientRing.
    """
    reduced_by, Q = 0, None
    if not I.is_zero():
        I, reduced_by, Q = _find_regular_linear_reduction(I)
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


def froberg_consistency(res: TruncatedResolution, bound: int) -> dict:
    """Check coefficientwise that (sum_i beta_{i,i} t^i) * H_R(-t) = 1 to the
    given bound, for the resolution of the residue field over R.  Only
    meaningful after a linear-so-far verdict at the bound."""
    diag = [res.betti_total(i, i) for i in range(bound + 1)]
    h = hilbert_of_quotient(res.quotient.ideal).series(bound)
    conv = []
    for d in range(bound + 1):
        s = 0
        for i in range(d + 1):
            s += diag[i] * ((-1) ** (d - i)) * h[d - i]
        conv.append(s)
    holds = conv[0] == 1 and all(c == 0 for c in conv[1:])
    return {"holds": holds, "pairing": conv, "diagonal": diag}


# ---------------------------------------------------------------------------
# the first-syzygy span criterion


def _linear_and_koszul(gens: list[Polynomial], d2: PolyMatrix) -> PolyMatrix:
    """The span L + K of a generator row's first syzygies: the linear columns
    of d2, which span its linear syzygies, and the Koszul syzygies
    e_i*g_j - e_j*g_i of the generators."""
    ring = d2.ring
    lin = [c for c in range(d2.ncols) if total(d2.source.twists[c]) == 3]
    kos = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    zero = ring.zero()
    entries = [
        [row[c] for c in lin] + [gens[j] if r == i else -gens[i] if r == j else zero for i, j in kos]
        for r, row in enumerate(d2.entries)
    ]
    twists = [d2.source.twists[c] for c in lin] + [add_deg(gens[i].degree(), gens[j].degree()) for i, j in kos]
    return PolyMatrix(d2.target, FreeModule(ring, twists), entries)


def first_syzygy_criterion(I: Ideal) -> dict:
    """Test whether the minimal first syzygies of a quadric-generated ideal
    are spanned by the linear syzygies L plus the Koszul syzygies K.

    Failure certifies the quotient is not Koszul; a pass is inconclusive.
    The minimal first syzygies are one syzygy_matrix of the row of minimal
    quadric generators, the d2 of a minimal resolution of S/I; no further
    level is resolved.  Each column of d2 is reduced modulo a Groebner basis
    of L + K, and the criterion fails when some normal form is nonzero.

    The witness of a failure does not depend on which minimal syzygies d2
    holds.  Its degree D is the least degree of a column with a nonzero
    normal form, and every column of lower degree lies in L + K, so the
    normal forms of the degree-D columns span NF(Syz(I)_D), a space that
    only I and the module order fix.  The witness is the first row of the
    RREF of those normal forms, coordinates ordered by the module order
    largest first: a monic syzygy outside L + K that is its own normal form.
    """
    ring = I.ring
    K = ring.field
    gens = minimal_quadric_generators(I)
    row = PolyMatrix(FreeModule(ring, [ring.zero_deg]), FreeModule(ring, [f.degree() for f in gens]), [gens])
    d2 = syzygy_matrix(row)
    if not d2.ncols:
        return {"passes": True, "witness": None, "n_min_syzygies": 0, "note": "no first syzygies"}

    span = _linear_and_koszul(gens, d2)
    R, _ = TaggedModule(span).reduce(d2)
    degs = d2.source.twists
    outside = [c for c in range(d2.ncols) if any(row[c] for row in R.entries)]
    witness = None
    if outside:
        D = min((total(degs[c]), degs[c]) for c in outside)[1]
        vecs = [[row[c] for row in R.entries] for c in outside if degs[c] == D]
        # the module order on terms m*e_r of one degree: the base order on m,
        # then the lower component first
        key = DEGREVLEX.for_ring(ring).key
        terms = sorted({(r, m) for v in vecs for r, f in enumerate(v) for m in f.terms},
                       key=lambda t: (key(t[1]), -t[0]), reverse=True)
        rows, _ = linalg.rref(K, [[v[r].terms.get(m, K.zero()) for r, m in terms] for v in vecs])
        vector = [ring.zero() for _ in gens]
        for (r, m), c in zip(terms, rows[0]):
            if not K.is_zero(c):
                vector[r].terms[m] = c
        witness = {"degree": list(D), "vector": vector}
    n_koszul = len(gens) * (len(gens) - 1) // 2
    return {
        "passes": witness is None,
        "witness": witness,
        "n_min_syzygies": d2.ncols,
        "n_linear": span.ncols - n_koszul,
        "n_koszul": n_koszul,
    }
