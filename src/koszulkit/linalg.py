"""Dense exact linear algebra over the coefficient fields.

Matrices are 2-D numpy arrays of raw field values.  Prime fields with
p < _NP_LIMIT store them as int64 in [0, p); every other field (QQ, larger
primes) stores them in object arrays.  The list-of-rows functions (rref,
rank, kernel, solve, ...) convert at their boundary.

Reduction mod p is delayed, as in FFLAS-FFPACK (Dumas, Giorgi & Pernet, ACM
TOMS 35, 2008), under one overflow rule: an int64 holds the sum of
_reduce_every(K, A) products of two reduced entries.  matmul sums that many
products per chunk, and _eliminate applies that many row updates between
reductions of the whole matrix.  Every function returns reduced entries.
Primes p >= _NP_LIMIT run the same code on object arrays of Python ints.

Over QQ, matrices hold normalized Fractions at the boundary, but matmul and
_eliminate compute on integers: _integral(X) writes X as Z / d with Z an
integer matrix.  matmul multiplies the integer matrices, in int64 when
k * max|Za| * max|Zb| <= 2**63 - 1 (k the inner dimension, which bounds
every partial sum) and in Python ints otherwise, and divides by da * db
once.  _eliminate is fraction-free: every step is an integer row operation
followed by division by the row's content, so it is exact by construction
(Bareiss, Math. Comp. 22, 1968, keeps entries integral the same way), and
Fractions are formed only for the final RREF.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .field import Field, PrimeField, RationalField

# Below this bound a product of two reduced entries is < 2**62, so an int64
# holds the sum of at least two of them: _reduce_every is at least 2.
_NP_LIMIT = 2 ** 31
_INT64_MAX = 2 ** 63 - 1


def _use_numpy(K: Field) -> bool:
    return isinstance(K, PrimeField) and K.p < _NP_LIMIT


def _reduce_every(K: Field, A: np.ndarray) -> int:
    """How many products of two reduced entries, each at most (p - 1)**2, an
    entry of A may gain or lose before it has to be reduced: an int64 holds
    _INT64_MAX // (p - 1)**2 of them; object arrays never overflow."""
    if A.dtype == object:
        return _INT64_MAX
    return _INT64_MAX // (K.p - 1) ** 2


def _reducer(K: Field):
    """In-place reduction of an array to canonical raw values of K."""
    if isinstance(K, PrimeField):
        p = K.p
        return lambda X: np.remainder(X, p, out=X)
    return lambda X: X


def zeros(K: Field, shape) -> np.ndarray:
    if _use_numpy(K):
        return np.zeros(shape, dtype=np.int64)
    return np.full(shape, K.zero(), dtype=object)


def array(K: Field, rows, ncols: int) -> np.ndarray:
    """A matrix from a list of rows of raw field values."""
    A = zeros(K, (len(rows), ncols))
    if len(rows):
        A[:] = rows
        _reducer(K)(A)
    return A


def _integral(X: np.ndarray):
    """(Z, d) with X == Z / d: Z is an object array of Python ints of X's
    shape and d the lcm of the denominators of the rational entries of X."""
    vals = X.ravel().tolist()
    d = math.lcm(*[x.denominator for x in vals])
    Z = np.empty(len(vals), dtype=object)
    Z[:] = [x.numerator * (d // x.denominator) for x in vals]
    return Z.reshape(X.shape), d


def _fractions(Z: np.ndarray, d: int) -> np.ndarray:
    """The object array Z / d of normalized Fractions; Z holds ints.  Each
    distinct value is converted once."""
    vals = Z.ravel().tolist()
    frac = {z: Fraction(z, d) for z in set(vals)}
    F = np.empty(len(vals), dtype=object)
    F[:] = [frac[z] for z in vals]
    return F.reshape(Z.shape)


def _max_abs(Z: np.ndarray) -> int:
    return max(Z.max(), -Z.min()) if Z.size else 0


def matmul(K: Field, A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ B over K; B may be a stack of matrices, as for np.matmul.  With
    `out` given, the product is written there."""
    if isinstance(K, RationalField):
        (Za, da), (Zb, db) = _integral(A), _integral(B)
        # every partial sum of k products is at most k * max|Za| * max|Zb|;
        # the max(..., 1) also keeps a zero operand from admitting a huge one
        if A.shape[-1] * max(_max_abs(Za), 1) * max(_max_abs(Zb), 1) <= _INT64_MAX:
            Za, Zb = Za.astype(np.int64), Zb.astype(np.int64)
        C = _fractions(np.matmul(Za, Zb), da * db)
        if out is None:
            return C
        out[...] = C
        return out
    reduce = _reducer(K)
    k = A.shape[-1]
    step = _reduce_every(K, A)
    C = reduce(np.matmul(A[..., :step], B[..., :step, :], out=out))
    if k == 0:  # an empty sum is the int 0, not the field's zero
        C[...] = K.zero()
    for s in range(step, k, step):
        C += reduce(A[..., s:s + step] @ B[..., s:s + step, :])
        reduce(C)
    return C


def _eliminate(K: Field, A: np.ndarray, full: bool = True) -> list[int]:
    """Gaussian elimination of A in place; returns the pivot columns.

    With full set, A ends in reduced row echelon form.  Otherwise only the
    pivot columns are defined: over F_p A ends in row echelon form, over QQ
    it is left as it was, and no caller reads A afterwards.  Each step
    touches only the rows that are nonzero in the pivot column.

    Over QQ the elimination is fraction-free (_eliminate_qq).  Over F_p a
    step touches only the columns from the pivot onward, and reduction is
    lazy: a step reduces only its column, for the zero test and the
    multipliers, and the pivot row, before scaling it.  An update subtracts
    from each entry at most one product of two reduced entries, so the
    whole matrix is reduced only after _reduce_every updates, and once at
    the end.
    """
    if isinstance(K, RationalField):
        return _eliminate_qq(A, full)
    reduce = _reducer(K)
    budget = _reduce_every(K, A)
    nrows, ncols = A.shape
    pivots: list[int] = []
    updates = 0  # since the last reduction of the whole matrix
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = reduce(A[:, c]).nonzero()[0]
        k = nz.searchsorted(r)
        if k == nz.size:
            continue
        pr = int(nz[k])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        prow = reduce(A[r, c:])
        prow *= K.inv(A.item(r, c))
        reduce(prow)
        # the rows to clear: the swap only moved row r's zero to row pr
        tgt = nz[nz != pr] if full else nz[k + 1:]
        if tgt.size:
            if updates == budget:
                reduce(A)
                updates = 0
            sub = A[tgt, c:]
            sub -= np.multiply.outer(sub[:, 0], prow)
            A[tgt, c:] = sub
            updates += 1
        pivots.append(c)
        r += 1
    reduce(A)
    return pivots


def _divide_content(S: np.ndarray) -> None:
    """Divides each row of the integer object array S in place by the gcd
    of its entries."""
    for row, g in zip(S, [math.gcd(*r) for r in S.tolist()]):
        if g > 1:
            row //= g


def _eliminate_qq(A: np.ndarray, full: bool) -> list[int]:
    """_eliminate over QQ on the integer rows of A.

    Scaling a row keeps the pivot columns and the RREF, so each row is
    cleared of denominators and divided by its content.  The pivot row is
    the one of least absolute value in the pivot column, which keeps the
    entries small; the pivot columns do not depend on that choice.  At
    pivot v in row r, each other row t that is nonzero there becomes
    (v*row_t - a_t*row_r) / gcd(v, a_t), divided by its content.  With full
    set, the rows above the pivot are scaled too, so whole rows are
    updated, and A gets row k / (its entry at pivot k) as Fractions.
    """
    Z, _ = _integral(A)
    _divide_content(Z)
    nrows, ncols = Z.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = Z[:, c].nonzero()[0]
        cand = nz[nz >= r]
        if not cand.size:
            continue
        pr = int(cand[np.abs(Z[cand, c]).argmin()])
        if pr != r:
            Z[[r, pr]] = Z[[pr, r]]
            nz = np.where(nz == pr, r, np.where(nz == r, pr, nz))
        tgt = nz[nz != r] if full else nz[nz > r]
        if tgt.size:
            lo = 0 if full else c
            v = Z[r, c]
            sub = Z[tgt, lo:]
            a = sub[:, c - lo]
            g = np.gcd(a, v)
            scale, mult = v // g, a // g
            sub *= scale[:, None]
            sub -= np.multiply.outer(mult, Z[r, lo:])
            _divide_content(sub)
            Z[tgt, lo:] = sub
        pivots.append(c)
        r += 1
    if full:
        for i, c in enumerate(pivots):
            A[i] = _fractions(Z[i], Z[i, c])
        A[len(pivots):] = Fraction(0)
    return pivots


def kernel_basis(K: Field, A: np.ndarray):
    """(B, free): the columns of B are a basis of {v : A v = 0}, one per
    non-pivot column of A, and B restricted to the rows `free` is the
    identity.  A is eliminated in place, so it ends in RREF; every caller
    passes a fresh array."""
    pivots = _eliminate(K, A)
    pivset = set(pivots)
    free = [c for c in range(A.shape[1]) if c not in pivset]
    B = zeros(K, (A.shape[1], len(free)))
    B[free, range(len(free))] = K.one()
    if pivots and free:
        X = A[:len(pivots)][:, free]
        B[pivots] = _reducer(K)(np.negative(X, out=X))
    return B, free


def span_basis(K: Field, V: np.ndarray):
    """(B, pivots): the columns of B are the nonzero rows of the RREF of V,
    a basis of the row space of V; B restricted to the rows `pivots` is the
    identity.  V is not modified."""
    R = V.copy()
    pivots = _eliminate(K, R)
    return R[:len(pivots)].T, pivots


def complement_in_basis(K: Field, unit, V: np.ndarray) -> list[int]:
    """The greedy complement of span(V) in span(B), by columns of B.

    B is a basis (as columns) that is the identity on the rows `unit`, as
    from kernel_basis or span_basis; the columns of V lie in span(B).
    Returns the indices i, in increasing order, for which column i of B is
    outside span(V) + span(columns < i): the choice complement_indices
    makes with the columns of V as the spanning set.

    The coordinates of a column of V in B are its entries at `unit`.  Column
    i is left out exactly when some vector of span(V) has its last nonzero
    coordinate at i, i.e. when i is a pivot of the coordinates read in
    reverse; one forward elimination finds those pivots.  The quotient
    resolver calls this only where exactness shows that some, but not all,
    of the columns of B are new generators.
    """
    m = len(unit)
    trailing = {m - 1 - c for c in _eliminate(K, V[list(unit)[::-1]].T, full=False)}
    return [i for i in range(m) if i not in trailing]


def rref(K: Field, rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    if not rows or not len(rows[0]):
        return [list(r) for r in rows], []
    A = array(K, rows, len(rows[0]))
    pivots = _eliminate(K, A)
    return A.tolist(), pivots


def rank(K: Field, rows) -> int:
    if not rows or not len(rows[0]):
        return 0
    return len(_eliminate(K, array(K, rows, len(rows[0])), full=False))


def rank_of_rows(K: Field, A: np.ndarray, rows) -> int:
    """The rank of A[rows], eliminated in its one copy; A is not modified."""
    return len(_eliminate(K, A[list(rows)], full=False))


def kernel(K: Field, rows, ncols: int | None = None):
    """Basis of the right kernel {v : A v = 0}, as a list of vectors."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    B, _ = kernel_basis(K, array(K, rows, ncols))
    return B.T.tolist()


def solve(K: Field, rows, b):
    """One solution x of A x = b, or None when inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [bv] for r, bv in zip(rows, b)]
    if not aug:
        return [K.zero()] * ncols
    R, pivots = rref(K, aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [K.zero()] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = R[i][ncols]
    return x


def row_space_basis(K: Field, rows):
    """Nonzero rows of the RREF: a canonical basis of the row space."""
    R, pivots = rref(K, rows)
    return [R[i] for i in range(len(pivots))]


def in_row_space(K: Field, rows, v) -> bool:
    return rank(K, list(rows) + [list(v)]) == rank(K, rows)


def complement_indices(K: Field, spanning, candidates):
    """Indices of candidate vectors extending span(spanning) to span(both).

    Greedy scan in the given candidate order, so selections are reproducible:
    a candidate is chosen when it lies outside the span of the spanning
    vectors and the earlier candidates, i.e. when its column is a pivot
    column of the matrix with all the vectors as columns.
    """
    if not candidates:
        return []
    s = len(spanning)
    A = array(K, list(spanning) + list(candidates), len(candidates[0])).T
    return [c - s for c in _eliminate(K, A, full=False) if c >= s]
