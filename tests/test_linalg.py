"""Dense linear algebra: the vectorized kernels against plain references."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import GF, QQ, linalg

BIG = GF(2147483647)  # the largest prime on the int64 path


def rand_rows(K, rng, nrows, ncols, density=0.6):
    return [[K.random(rng) if rng.random() < density else K.zero() for _ in range(ncols)]
            for _ in range(nrows)]


def greedy(K, spanning, candidates):
    """Reference: scan the candidates, keep each one that enlarges the span."""
    sb = linalg.SpanBuilder(K, len(candidates[0]) if candidates else 0)
    for v in spanning:
        sb.add(v)
    return [i for i, v in enumerate(candidates) if sb.add(v)]


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
            assert linalg.complement_in_basis(K, free, old) == greedy(K, spanning, columns(B))

    def test_span_basis_against_greedy_scan(self, K):
        rng = random.Random(f"span:{K}")
        for _ in range(40):
            nvecs, dim = rng.randint(1, 7), rng.randint(1, 8)
            V = linalg.array(K, rand_rows(K, rng, nvecs, dim, rng.random()), dim)
            B, pivots = linalg.span_basis(K, V)
            assert linalg.array(K, columns(B), dim)[:, pivots].tolist() == (
                np.eye(len(pivots), dtype=int).tolist())
            k = rng.randint(0, 6)
            old = [linalg.matmul(K, B, linalg.array(K, rand_rows(K, rng, len(pivots), k), k))]
            assert linalg.complement_in_basis(K, pivots, old) == greedy(K, columns(old[0]), columns(B))

    def test_complement_indices_against_greedy_scan(self, K):
        rng = random.Random(f"complement:{K}")
        for _ in range(40):
            dim = rng.randint(1, 7)
            spanning = rand_rows(K, rng, rng.randint(0, 4), dim, rng.random())
            candidates = rand_rows(K, rng, rng.randint(1, 8), dim, rng.random())
            # repeat some vectors so that dependent candidates occur
            candidates += [rng.choice(candidates + spanning) for _ in range(2)]
            assert linalg.complement_indices(K, spanning, candidates) == greedy(K, spanning, candidates)


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
