"""Dense linear algebra: the vectorized kernels against plain references."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import GF, QQ, linalg
from koszulkit.classify import _QuadricSpace
from koszulkit.ring import Polynomial, RingContext

BIG = GF(2147483647)  # the largest prime on the int64 path


def rand_rows(K, rng, nrows, ncols, density=0.6):
    return [[K.random(rng) if rng.random() < density else K.zero() for _ in range(ncols)]
            for _ in range(nrows)]


class Echelon:
    """Reference: scalar echelon rows built one vector at a time.  Each row
    is 1 at its pivot and 0 at the pivots of the rows before it."""

    def __init__(self, K):
        self.K = K
        self.rows = []  # (pivot, row)

    def reduce(self, v):
        """v minus a combination of the rows; zero on every pivot column."""
        K = self.K
        v = [K.coerce(x) for x in v]
        for c, row in self.rows:
            f = v[c]
            if not K.is_zero(f):
                v = [K.sub(x, K.mul(f, y)) for x, y in zip(v, row)]
        return v

    def add(self, v) -> bool:
        """Adds v; True when it enlarged the span."""
        K = self.K
        v = self.reduce(v)
        c = next((j for j, x in enumerate(v) if not K.is_zero(x)), None)
        if c is None:
            return False
        inv = K.inv(v[c])
        self.rows.append((c, [K.mul(x, inv) for x in v]))
        return True


def greedy(K, spanning, candidates):
    """Reference: scan the candidates, keep each one that enlarges the span."""
    ech = Echelon(K)
    for v in spanning:
        ech.add(v)
    return [i for i, v in enumerate(candidates) if ech.add(v)]


def columns(M):
    return M.T.tolist()


@pytest.mark.parametrize("K", [GF(2), GF(32003), QQ], ids=str)
class TestComplement:
    def test_kernel_basis_against_greedy_scan(self, K):
        rng = random.Random(f"kernel:{K}")
        for _ in range(40):
            nrows, ncols = rng.randint(0, 6), rng.randint(1, 9)
            A = linalg.array(K, rand_rows(K, rng, nrows, ncols, rng.random()), ncols)
            B, free = linalg.kernel_basis(K, A)
            # old vectors: random combinations of a few kernel vectors, in blocks
            old = []
            for _ in range(rng.randint(0, 3)):
                k = rng.randint(0, 4)
                coeffs = linalg.array(K, rand_rows(K, rng, len(free), k, rng.random()), k)
                old.append(linalg.matmul(K, B, coeffs))
            spanning = [v for X in old for v in columns(X)]
            V = np.concatenate(old, axis=1) if old else B[:, :0]
            assert linalg.complement_in_basis(K, free, V) == greedy(K, spanning, columns(B))

    def test_span_basis_against_greedy_scan(self, K):
        rng = random.Random(f"span:{K}")
        for _ in range(40):
            nvecs, dim = rng.randint(1, 7), rng.randint(1, 8)
            V = linalg.array(K, rand_rows(K, rng, nvecs, dim, rng.random()), dim)
            B, pivots = linalg.span_basis(K, V)
            assert linalg.array(K, columns(B), dim)[:, pivots].tolist() == (
                np.eye(len(pivots), dtype=int).tolist())
            k = rng.randint(0, 6)
            old = linalg.matmul(K, B, linalg.array(K, rand_rows(K, rng, len(pivots), k), k))
            assert linalg.complement_in_basis(K, pivots, old) == greedy(K, columns(old), columns(B))

    def test_complement_indices_against_greedy_scan(self, K):
        rng = random.Random(f"complement:{K}")
        for _ in range(40):
            dim = rng.randint(1, 7)
            spanning = rand_rows(K, rng, rng.randint(0, 4), dim, rng.random())
            candidates = rand_rows(K, rng, rng.randint(1, 8), dim, rng.random())
            # repeat some vectors so that dependent candidates occur
            candidates += [rng.choice(candidates + spanning) for _ in range(2)]
            assert linalg.complement_indices(K, spanning, candidates) == greedy(K, spanning, candidates)


@pytest.mark.parametrize("K", [GF(2), GF(32003), QQ], ids=str)
def test_quadric_space_against_echelon_reference(K):
    """_QuadricSpace holds independent rows spanning I_2, the span of the
    reference's incremental echelon rows, and its complements are the
    reference's greedy scans."""
    rng = random.Random(f"quadrics:{K}")
    ring = RingContext(K, ["x", "y", "z"])
    mons = ring.quadratic_monomials

    def quadric(row):
        return Polynomial(ring, {m: c for m, c in zip(mons, row) if not K.is_zero(c)})

    units = [[K.one() if j == i else K.zero() for j in range(len(mons))] for i in range(len(mons))]
    spans = [[], units]  # the empty span and the full space
    for _ in range(30):
        rows = rand_rows(K, rng, rng.randint(1, len(mons) + 1), len(mons), rng.random())
        rows += [rng.choice(rows) for _ in range(rng.randint(0, 2))]
        spans.append(rows)
    for rows in spans:
        gens = [quadric(r) for r in rows]
        qs = _QuadricSpace(ring, gens)
        ech = Echelon(K)
        for r in rows:
            ech.add(r)
        assert len(qs.rows) == linalg.rank(K, qs.rows) == len(ech.rows)
        assert all(not any(ech.reduce(row)) for row in qs.rows)
        subset = rand_rows(K, rng, rng.randint(0, 3), len(mons), rng.random())
        assert qs.complement_of([quadric(r) for r in subset]) == [gens[i] for i in greedy(K, subset, rows)]


class TestLargePrime:
    """p = 2^31 - 1 runs on int64: products of two entries need 62 bits, so
    a sum of more than two of them would overflow without reduction."""

    def generic(self, monkeypatch, fn):
        with monkeypatch.context() as m:
            m.setattr(linalg, "_use_numpy", lambda K: False)
            return fn()

    def test_matmul_matches_python_ints(self, monkeypatch):
        p = BIG.p
        rng = random.Random(3)
        for k in (1, 2, 3, 7, 40):
            rows_a = [[p - 1 - rng.randrange(3) for _ in range(k)] for _ in range(3)]
            rows_b = [[p - 1 - rng.randrange(3) for _ in range(4)] for _ in range(k)]
            got = linalg.matmul(BIG, linalg.array(BIG, rows_a, k), linalg.array(BIG, rows_b, 4))
            assert got.dtype == np.int64
            want = [[sum(a * b for a, b in zip(ra, cb)) % p for cb in zip(*rows_b)] for ra in rows_a]
            assert got.tolist() == want
            generic = self.generic(monkeypatch, lambda: linalg.matmul(
                BIG, linalg.array(BIG, rows_a, k), linalg.array(BIG, rows_b, 4)))
            assert generic.dtype == object and generic.tolist() == want

    def test_stacked_matmul_into_out(self):
        p = BIG.p
        A = linalg.array(BIG, [[p - 1] * 5] * 2, 5)
        X = np.full((3, 5, 2), p - 2, dtype=np.int64)
        out = np.zeros((4, 2, 2), dtype=np.int64)
        got = linalg.matmul(BIG, A, X, out=out[1:])
        assert got.base is out
        assert out.tolist() == [[[0] * 2] * 2] + [[[5 * (p - 1) * (p - 2) % p] * 2] * 2] * 3

    def test_rref_and_kernel_match_generic_path(self, monkeypatch):
        rng = random.Random(5)
        for _ in range(20):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
            rows = rand_rows(BIG, rng, nrows, ncols, 0.8)
            assert linalg.rref(BIG, rows) == self.generic(monkeypatch, lambda: linalg.rref(BIG, rows))
            ker = linalg.kernel(BIG, rows)
            assert ker == self.generic(monkeypatch, lambda: linalg.kernel(BIG, rows))
            assert linalg.rank(BIG, rows) + len(ker) == ncols
            for v in ker:
                assert all(sum(a * b for a, b in zip(r, v)) % BIG.p == 0 for r in rows)


def mod_p_rref(p, rows):
    """Reference: Gauss-Jordan elimination mod p on Python ints."""
    A = [[x % p for x in r] for r in rows]
    pivots = []
    for c in range(len(A[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


def low_rank(p, rng, nrows, ncols, rank, worst):
    """A dense nrows x ncols matrix L U of the given rank.  With worst set,
    L is 1 on and p - 1 below its diagonal and U is 1 on and p - 1 right of
    it, so elimination meets pivots of 1 and every multiplier and pivot row
    entry is p - 1: each update subtracts the largest product, (p - 1)**2."""
    if worst:
        L = [[1 if i == j else p - 1 if i > j else 0 for j in range(rank)] for i in range(nrows)]
        U = [[1 if i == j else p - 1 if j > i else 0 for j in range(ncols)] for i in range(rank)]
    else:
        L = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
        U = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*U)] for row in L]


class TestLazyReduction:
    """_eliminate reduces the whole matrix only every _reduce_every updates.
    numpy int64 wraps silently, so an update budget that is one too large
    shows as wrong answers against the Python-int reference, on matrices
    whose updates all subtract (p - 1)**2."""

    @pytest.mark.parametrize("p,budget", [(1073741789, 8), (2147483647, 2), (2, None), (3, None)])
    @pytest.mark.parametrize("worst", [True, False], ids=["worst", "random"])
    def test_against_python_ints(self, p, budget, worst):
        K = GF(p)
        assert linalg.zeros(K, (1, 1)).dtype == np.int64
        if budget is not None:
            assert linalg._reduce_every(K, linalg.zeros(K, (1, 1))) == budget
        rng = random.Random(f"lazy:{p}:{worst}")
        for rank in (30, 39):
            rows = low_rank(p, rng, 40, 60, rank, worst)
            R, pivots = mod_p_rref(p, rows)
            assert linalg.rref(K, rows) == (R, pivots)
            assert linalg.rank(K, rows) == len(pivots)
            free = [c for c in range(60) if c not in pivots]
            want = []
            for j in free:
                v = [0] * 60
                v[j] = 1
                for k, c in enumerate(pivots):
                    v[c] = -R[k][j] % p
                want.append(v)
            assert linalg.kernel(K, rows) == want
            # the columns of rows as vectors: complement_indices eliminates rows itself
            vectors = [list(col) for col in zip(*rows)]
            assert linalg.complement_indices(K, vectors[:5], vectors[5:]) == greedy(K, vectors[:5], vectors[5:])
            assert linalg.complement_indices(K, [], vectors) == pivots


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 7, 32003]),
    shape=st.tuples(st.integers(0, 5), st.integers(1, 6)),
    data=st.data(),
)
def test_kernel_vectors_are_annihilated(p, shape, data):
    K = GF(p)
    nrows, ncols = shape
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    ker = linalg.kernel(K, rows, ncols)
    assert len(ker) == ncols - linalg.rank(K, rows)
    for v in ker:
        assert all(sum(a * b for a, b in zip(r, v)) % p == 0 for r in rows)


@settings(max_examples=80, deadline=None)
@given(
    K=st.sampled_from([GF(2), GF(7), GF(32003), QQ]),
    m=st.integers(0, 5),
    extra=st.integers(0, 4),
    n=st.integers(0, 6),
    seed=st.integers(0, 2 ** 32),
)
def test_kernel_on_the_unit_rows(K, m, extra, n, seed):
    """B is the identity on the rows `unit`, so it has full column rank and
    (B C)[unit] = C: B C and C have the same kernel basis and rank, as the
    quotient resolver uses; rank_of_rows reads both from B C."""
    rng = random.Random(seed)
    unit = sorted(rng.sample(range(m + extra), m))
    B = linalg.array(K, rand_rows(K, rng, m + extra, m), m)
    B[unit] = linalg.array(K, [[K.one() if i == j else K.zero() for j in range(m)] for i in range(m)], m)
    C = linalg.array(K, rand_rows(K, rng, m, n), n)
    A = linalg.matmul(K, B, C)
    (ker, free), (want, want_free) = linalg.kernel_basis(K, A.copy()), linalg.kernel_basis(K, C.copy())
    assert free == want_free and ker.dtype == want.dtype and ker.tolist() == want.tolist()
    assert linalg.rank_of_rows(K, A, unit) == linalg.rank(K, C.tolist()) == n - len(free)
    assert linalg.rank_of_rows(K, A, range(m + extra)) == n - len(free)
    assert A.tolist() == linalg.matmul(K, B, C).tolist()  # not modified


@pytest.mark.parametrize("K", [GF(2), GF(32003), QQ], ids=str)
def test_kernel_basis_eliminates_its_argument_in_place(K):
    """kernel_basis leaves its argument in RREF, the form rref returns."""
    rng = random.Random(f"in place:{K}")
    for _ in range(20):
        rows = rand_rows(K, rng, rng.randint(1, 5), rng.randint(1, 7))
        A = linalg.array(K, rows, len(rows[0]))
        linalg.kernel_basis(K, A)
        assert A.tolist() == linalg.rref(K, rows)[0]


# ---------------------------------------------------------------------------
# QQ: the integer kernels against the Fraction reference


def fraction_matmul(K, A, B, out=None):
    """Reference: the object-array product, summing Fraction products."""
    C = np.matmul(A, B, out=out)
    if A.shape[-1] == 0:
        C[...] = K.zero()
    return C


def fraction_eliminate(K, A, full=True):
    """Reference: elimination on the object array of Fractions, each pivot
    row scaled to 1, the first nonzero row from r on as the pivot row."""
    nrows, ncols = A.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = A[:, c].nonzero()[0]
        k = nz.searchsorted(r)
        if k == nz.size:
            continue
        pr = int(nz[k])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        prow = A[r, c:]
        prow *= K.inv(A.item(r, c))
        tgt = nz[nz != pr] if full else nz[k + 1:]
        if tgt.size:
            sub = A[tgt, c:]
            sub -= np.multiply.outer(sub[:, 0], prow)
            A[tgt, c:] = sub
        pivots.append(c)
        r += 1
    return pivots


def with_reference(fn):
    """fn() with linalg's matmul and _eliminate replaced by the references."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "matmul", fraction_matmul)
        m.setattr(linalg, "_eliminate", fraction_eliminate)
        return fn()


def all_fractions(values) -> bool:
    values = np.asarray(values, dtype=object).ravel().tolist()
    return all(type(x) is Fraction for x in values)


@st.composite
def qq_rows(draw, nrows, ncols):
    """nrows x ncols rationals, numerators and denominators up to 80 digits:
    dense with zeros, or a rank-deficient L U product; then some zero rows
    and columns, and maybe one row times a large content."""
    bound = 10 ** draw(st.sampled_from([1, 6, 80]))
    entry = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound)))

    def block(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        rank = draw(st.integers(0, min(nrows, ncols)))
        L, U = block(nrows, rank), block(rank, ncols)
        rows = [[sum((row[t] * U[t][j] for t in range(rank)), Fraction(0)) for j in range(ncols)] for row in L]
    else:
        rows = block(nrows, ncols)
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)) if nrows else ():
        rows[i] = [Fraction(0)] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)) if ncols else ():
        for row in rows:
            row[j] = Fraction(0)
    if nrows and draw(st.booleans()):
        i = draw(st.integers(0, nrows - 1))
        content = Fraction(draw(st.integers(1, 10 ** 80)), draw(st.integers(1, 10 ** 20)))
        rows[i] = [x * content for x in rows[i]]
    return rows


dims = st.integers(0, 6)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=dims, k=dims, n=dims, stack=st.integers(1, 3))
def test_qq_matmul_matches_fraction_reference(data, m, k, n, stack):
    A = linalg.array(QQ, data.draw(qq_rows(m, k)), k)
    B = linalg.array(QQ, data.draw(qq_rows(k, n)), n)
    got = linalg.matmul(QQ, A, B)
    assert got.tolist() == fraction_matmul(QQ, A, B).tolist() and all_fractions(got)
    # a stack of matrices, written into a view of a larger array
    X = np.stack([linalg.array(QQ, data.draw(qq_rows(k, n)), n) for _ in range(stack)])
    out = linalg.zeros(QQ, (stack + 1, m, n))
    got = linalg.matmul(QQ, A, X, out=out[1:])
    assert got.base is out
    assert out[1:].tolist() == fraction_matmul(QQ, A, X).tolist() and all_fractions(out)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=dims, n=dims)
def test_qq_eliminations_match_fraction_reference(data, m, n):
    rows = data.draw(qq_rows(m, n))
    R, pivots = linalg.rref(QQ, rows)
    assert (R, pivots) == with_reference(lambda: linalg.rref(QQ, rows)) and all_fractions(R)
    ker = linalg.kernel(QQ, rows, n)
    assert ker == with_reference(lambda: linalg.kernel(QQ, rows, n)) and all_fractions(ker)
    assert linalg.rank(QQ, rows) == with_reference(lambda: linalg.rank(QQ, rows))
    V = linalg.array(QQ, rows, n)
    B, pivots = linalg.span_basis(QQ, V)
    want_B, want_pivots = with_reference(lambda: linalg.span_basis(QQ, V))
    assert (B.tolist(), pivots) == (want_B.tolist(), want_pivots) and all_fractions(B)
    if m and n:
        j = data.draw(st.integers(0, m - 1))
        got = linalg.complement_indices(QQ, rows[:j], rows[j:])
        assert got == with_reference(lambda: linalg.complement_indices(QQ, rows[:j], rows[j:]))
    B, free = linalg.kernel_basis(QQ, V)
    assert all_fractions(B)
    k = data.draw(st.integers(0, 4))
    old = fraction_matmul(QQ, B, linalg.array(QQ, data.draw(qq_rows(len(free), k)), k))
    got = linalg.complement_in_basis(QQ, free, old)
    assert got == with_reference(lambda: linalg.complement_in_basis(QQ, free, old))


# 2**63 - 1 = 7**2 * 73 * 127 * 337 * 92737 * 649657
INT64_K, INT64_A = 7, 7 * 73 * 127
INT64_B = (2 ** 63 - 1) // (INT64_K * INT64_A)


@pytest.mark.parametrize("den_a,den_b", [(1, 1), (3, 5)])
def test_qq_matmul_int64_bound(monkeypatch, den_a, den_b):
    """k * max|Za| * max|Zb| equal to 2**63 - 1 runs in int64, one more in
    Python ints; the products reach the bound, so a wrong route wraps."""
    assert INT64_K * INT64_A * INT64_B == 2 ** 63 - 1
    routes = []
    fractions = linalg._fractions

    def recorded(Z, d=1):
        routes.append(Z.dtype)
        return fractions(Z, d)

    monkeypatch.setattr(linalg, "_fractions", recorded)
    A = linalg.array(QQ, [[Fraction(INT64_A, den_a)] * INT64_K, [Fraction(-INT64_A, den_a)] * INT64_K], INT64_K)
    for b, route in ((INT64_B, np.int64), (INT64_B + 1, object)):
        B = linalg.array(QQ, [[Fraction(b, den_b), Fraction(-b, den_b), Fraction(1, den_b)]] * INT64_K, 3)
        got = linalg.matmul(QQ, A, B)
        assert routes.pop() == np.dtype(route)
        assert got.tolist() == fraction_matmul(QQ, A, B).tolist() and all_fractions(got)
        assert got[0, 0] == Fraction(INT64_K * INT64_A * b, den_a * den_b)


def test_qq_integer_route_makes_no_fraction_arithmetic(monkeypatch):
    """A QQ matmul of 0/±1 operands and a QQ rank run on integers: Fraction
    products and sums would show that a call fell back to the object path."""
    rng = random.Random(7)
    signs = [[Fraction(rng.choice((-1, 0, 1))) for _ in range(9)] for _ in range(8)]
    A = linalg.array(QQ, signs, 9)
    X = np.stack([linalg.array(QQ, [[Fraction(rng.choice((-1, 0, 1))) for _ in range(5)]
                                    for _ in range(9)], 5) for _ in range(3)])
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, _op=op, _name=name: calls.append(_name) or _op(a, b))
    want = fraction_matmul(QQ, A, X)
    assert calls  # the counter sees the Fraction path
    calls.clear()
    got = linalg.matmul(QQ, A, X)
    rank = linalg.rank(QQ, signs)
    assert calls == []
    monkeypatch.undo()
    assert got.tolist() == want.tolist() and all_fractions(got)
    assert rank == with_reference(lambda: linalg.rank(QQ, signs))
