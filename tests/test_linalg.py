"""Exact linear algebra over F_p."""

import numpy as np
import pytest

from splitoct.linalg import (batch_rank, batch_rref, left_kernels, mat_inv, nullspace,
                             rank, residues, rref)
from splitoct.subspace import coefficient_vectors


def _random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_shape_and_idempotence(p):
    rng = np.random.default_rng(1234 + p)
    for _ in range(50):
        m = _random_matrix(rng, 5, 8, p)
        r, pivots = rref(m, p)
        assert r.shape[0] == len(pivots) == rank(m, p)
        # pivot columns are standard unit vectors
        for i, c in enumerate(pivots):
            col = r[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1
        r2, pivots2 = rref(r, p)
        assert np.array_equal(r2, r) and pivots2 == pivots


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_preserves_row_space(p):
    rng = np.random.default_rng(99 + p)
    for _ in range(30):
        m = _random_matrix(rng, 4, 8, p)
        r = rref(m, p)[0]
        assert not residues(r, m, p).any()
        # some unit vector lies outside every proper row space
        if rank(m, p) < 8:
            assert residues(r, np.eye(8, dtype=np.int64), p).any()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_is_exact_kernel(p):
    rng = np.random.default_rng(7 + p)
    for _ in range(30):
        m = _random_matrix(rng, 6, 8, p)
        ns = nullspace(m, p)
        assert ns.shape[0] == 8 - rank(m, p)
        assert not np.any((m @ ns.T) % p)
        assert rank(ns, p) == ns.shape[0]


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_mat_inv_round_trip(p):
    rng = np.random.default_rng(5 + p)
    found = 0
    while found < 20:
        m = _random_matrix(rng, 4, 4, p)
        if rank(m, p) < 4:
            continue
        found += 1
        mi = mat_inv(m, p)
        assert np.array_equal((m @ mi) % p, np.eye(4, dtype=m.dtype))
        assert np.array_equal((mi @ m) % p, np.eye(4, dtype=m.dtype))


def test_mat_inv_rejects_singular():
    m = np.array([[1, 1], [1, 1]], dtype=np.int64)
    with pytest.raises(ValueError):
        mat_inv(m, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("shape", [(3, 8), (4, 16), (8, 3), (5, 5)],
                         ids=["wide", "wider", "tall", "square"])
def test_batch_rref_and_rank_match_rref(p, shape):
    """Random, rank-deficient and early-pivoting stacks: ``batch_rref``
    stops once every matrix has full row rank, ``batch_rank`` reduces a
    wide stack transposed, and both agree with ``rref`` matrix by matrix."""
    rng = np.random.default_rng(31 * p + shape[1])
    r, c = shape
    full = rng.integers(0, p, (50, r, c))
    thin = rng.integers(0, p, (50, r, 2)) @ rng.integers(0, p, (50, 2, c)) % p
    # every matrix pivots in its first min(r, c) columns
    early = rng.integers(0, p, (20, r, c))
    early[:, :, :min(r, c)] = np.eye(r, min(r, c), dtype=np.int64)
    mats = np.concatenate([full, thin, early])
    red, ranks = batch_rref(mats, p)
    for m, got, k in zip(mats, red, ranks):
        want, pivots = rref(m, p)
        assert k == len(pivots)
        assert np.array_equal(got[:k], want) and not got[k:].any()
    assert np.array_equal(batch_rank(mats, p), ranks)
    assert np.array_equal(batch_rank(early, p), np.full(len(early), min(r, c)))


def _elements(basis, p) -> np.ndarray:
    """Every vector of the row space of ``basis`` (k, n), one per row."""
    return coefficient_vectors(len(basis), p) @ basis % p


def _padded_bases(rng, p, count, k=3, n=8) -> np.ndarray:
    """RREF bases of random spans of dimension 0..k, each padded with zero
    rows to k rows, as an int64 stack (count, k, n)."""
    out = np.zeros((count, k, n), dtype=np.int64)
    for U in out:
        red = rref(rng.integers(0, p, (int(rng.integers(0, k + 1)), n)), p)[0]
        U[:len(red)] = red
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_residues_match_brute_force(p):
    """The residue of w by a zero-padded RREF basis U is the one w − s,
    s in the row space, that vanishes at the pivot columns; it is zero
    exactly when w is in the row space, enumerated element by element."""
    rng = np.random.default_rng(17 * p)
    U = _padded_bases(rng, p, 20)
    W = rng.integers(0, p, (20, 4, 8))
    W[:, :1] = rng.integers(0, p, (20, 1, 3)) @ U % p     # members too
    got = residues(U, W, p)
    assert got.shape == W.shape and got.dtype == np.int64
    for basis, rows, res in zip(U, W, got):
        span = _elements(basis[basis.any(1)], p)
        pivots = (basis[basis.any(1)] != 0).argmax(1)
        for w, r in zip(rows, res):
            candidates = (w - span) % p
            at_pivots = candidates[~candidates[:, pivots].any(1)]
            assert len(at_pivots) == 1 and (r == at_pivots[0]).all()
            assert (not r.any()) == (span == w).all(1).any()


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_residues_broadcast_and_widen(p):
    """One basis broadcasts over a stack and a stack over one row; int8
    inputs give the int64 answer (a row sum reaches 8·12² at p = 13)."""
    rng = np.random.default_rng(23 * p)
    U = _padded_bases(rng, p, 6)
    W = rng.integers(0, p, (6, 5, 8))
    shared = residues(U[0], W, p)
    assert np.array_equal(shared, np.stack([residues(U[0], w, p) for w in W]))
    one = residues(U, W[0, :1], p)
    assert np.array_equal(one, np.stack([residues(u, W[0, :1], p) for u in U]))
    small = residues(U.astype(np.int8), W.astype(np.int8), p)
    assert small.dtype == np.int64
    assert np.array_equal(small, residues(U, W, p))
    pairs = residues(U[:, None], W, p)                    # every (basis, stack) pair
    assert np.array_equal(pairs[2, 4], residues(U[2], W[4], p))


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_left_kernels_match_brute_force(p):
    """The last dims[m] rows of the I-part are an RREF basis of
    {x : x·M[m] = 0}, enumerated over all of F_p^3."""
    rng = np.random.default_rng(41 * p)
    M = rng.integers(0, p, (24, 3, 4))
    M[::4, 2] = (M[::4, 0] + 2 * M[::4, 1]) % p           # rank 2
    M[1::4] = rng.integers(0, p, (6, 3, 1)) * rng.integers(0, p, (6, 1, 4)) % p
    M[2::8] = 0
    I, dims = left_kernels(M, p)
    assert I.shape == (24, 3, 3)
    every = coefficient_vectors(3, p)
    for mat, part, d in zip(M, I, dims):
        want = every[~(every @ mat % p).any(1)]
        K = part[3 - d:]
        assert d == rank(want, p) and np.array_equal(K, rref(K, p)[0])
        assert {tuple(v) for v in _elements(K, p)} == {tuple(v) for v in want}

