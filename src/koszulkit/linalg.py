"""Dense exact linear algebra over the coefficient fields.

Matrices are 2-D numpy arrays of raw field values.  Prime fields with
p < _NP_LIMIT store them as int64 in [0, p); every other field (QQ, larger
primes) stores them in object arrays and runs the same vectorized code with
exact Python arithmetic.  The list-of-rows functions (rref, rank, kernel,
solve, ...) convert at their boundary.
"""

from __future__ import annotations

import numpy as np

from .field import Field, PrimeField

# Below this bound a product of two reduced entries is < 2**62, so a row
# update a - f*b cannot overflow int64.  A matrix product of inner dimension
# k sums k such products before reducing; matmul splits k into chunks of at
# most (2**63 - 1) // (p - 1)**2 terms.
_NP_LIMIT = 2 ** 31
_INT64_MAX = 2 ** 63 - 1


def _use_numpy(K: Field) -> bool:
    return isinstance(K, PrimeField) and K.p < _NP_LIMIT


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


def matmul(K: Field, A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ B over K; B may be a stack of matrices, as for np.matmul.  With
    `out` given, the product is written there."""
    reduce = _reducer(K)
    k = A.shape[-1]
    step = max(1, k if A.dtype == object else _INT64_MAX // (K.p - 1) ** 2)
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
    rows below each pivot are cleared: A ends in row echelon form, which
    is enough for the pivot columns.  Each step touches only the rows that
    are nonzero in the pivot column, and only the columns from it onward.
    """
    reduce = _reducer(K)
    nrows, ncols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = A[r:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        prow = A[r, c:]
        prow *= K.inv(A.item(r, c))
        reduce(prow)
        if full:
            tgt = A[:, c].nonzero()[0]
            tgt = tgt[tgt != r]
        else:
            tgt = r + 1 + A[r + 1:, c].nonzero()[0]
        if tgt.size:
            sub = A[tgt, c:]
            sub -= np.multiply.outer(sub[:, 0], prow)
            A[tgt, c:] = reduce(sub)
        pivots.append(c)
        r += 1
    return pivots


def kernel_basis(K: Field, A: np.ndarray):
    """(B, free): the columns of B are a basis of {v : A v = 0}, one per
    non-pivot column of A, and B restricted to the rows `free` is the
    identity.  A is not modified."""
    R = A.copy()
    pivots = _eliminate(K, R)
    pivset = set(pivots)
    free = [c for c in range(A.shape[1]) if c not in pivset]
    B = zeros(K, (A.shape[1], len(free)))
    B[free, range(len(free))] = K.one()
    if pivots and free:
        X = R[:len(pivots)][:, free]
        B[pivots] = _reducer(K)(np.negative(X, out=X))
    return B, free


def span_basis(K: Field, V: np.ndarray):
    """(B, pivots): the columns of B are the nonzero rows of the RREF of V,
    a basis of the row space of V; B restricted to the rows `pivots` is the
    identity.  V is not modified."""
    R = V.copy()
    pivots = _eliminate(K, R)
    return R[:len(pivots)].T, pivots


def complement_in_basis(K: Field, unit, old) -> list[int]:
    """The greedy complement of span(old) in span(B), by columns of B.

    B is a basis (as columns) that is the identity on the rows `unit`, as
    from kernel_basis or span_basis; `old` is an iterable of matrices whose
    columns lie in span(B), each read once.  Returns the indices i, in
    increasing order, for which column i of B is outside span(old) +
    span(columns < i): the choice complement_indices makes with `old` as
    the spanning set.

    The coordinates of an old vector in B are its entries at `unit`.  Column
    i is left out exactly when some vector of span(old) has its last nonzero
    coordinate at i, i.e. when i is a pivot of the old coordinates read in
    reverse; one forward elimination finds those pivots.
    """
    m = len(unit)
    rev = list(unit)[::-1]
    coords = [X[rev] for X in old]
    if not coords:
        return list(range(m))
    C = np.concatenate(coords, axis=1).T
    del coords  # freed before the elimination, which is the peak
    trailing = {m - 1 - c for c in _eliminate(K, C, full=False)}
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


class SpanBuilder:
    """Incremental row-space membership: add() reports whether a vector
    enlarged the span.  Rows are kept in echelon form (pivot-normalized)."""

    def __init__(self, K: Field, ncols: int):
        self.K = K
        self.ncols = ncols
        self._np = _use_numpy(K)
        self.rows: list = []
        self.pivots: list[int] = []

    def _reduce_np(self, v):
        p = self.K.p
        v = np.asarray(v, dtype=np.int64) % p
        for i, c in enumerate(self.pivots):
            f = int(v[c])
            if f:
                v = (v - f * self.rows[i]) % p
        return v

    def add(self, vec) -> bool:
        K = self.K
        if self._np:
            v = self._reduce_np(vec)
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                return False
            c = int(nz[0])
            v = v * pow(int(v[c]), K.p - 2, K.p) % K.p
            self.rows.append(v)
            self.pivots.append(c)
            return True
        v = [K.coerce(x) for x in vec]
        for i, c in enumerate(self.pivots):
            f = v[c]
            if not K.is_zero(f):
                row = self.rows[i]
                v = [K.sub(x, K.mul(f, y)) for x, y in zip(v, row)]
        c = next((j for j, x in enumerate(v) if not K.is_zero(x)), None)
        if c is None:
            return False
        inv = K.inv(v[c])
        v = [K.mul(x, inv) for x in v]
        self.rows.append(v)
        self.pivots.append(c)
        return True

    def reduce(self, vec) -> list:
        """The vector reduced modulo the span, as a plain raw-value list."""
        if self._np:
            return [int(x) for x in self._reduce_np(vec)]
        K = self.K
        v = [K.coerce(x) for x in vec]
        for i, c in enumerate(self.pivots):
            f = v[c]
            if not K.is_zero(f):
                row = self.rows[i]
                v = [K.sub(x, K.mul(f, y)) for x, y in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        K = self.K
        return all(K.is_zero(x) for x in self.reduce(vec))

    def basis(self) -> list[list]:
        """Echelon rows as plain raw-value lists."""
        if self._np:
            return [[int(x) for x in row] for row in self.rows]
        return [list(row) for row in self.rows]

    @property
    def rank(self) -> int:
        return len(self.pivots)


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
