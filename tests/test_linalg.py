"""Exact linear algebra over F_p."""

import numpy as np
import pytest

from splitoct.linalg import (batch_rank, batch_rref, mat_inv, nullspace, rank,
                             row_space_contains, rref)


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
        r, pivots = rref(m, p)
        for row in m:
            assert row_space_contains(r, pivots, row % p, p)
        # some unit vector lies outside every proper row space
        if rank(m, p) < 8:
            outside = [probe for probe in np.eye(8, dtype=np.int64)
                       if not row_space_contains(r, pivots, probe, p)]
            assert outside


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_is_exact_kernel(p):
    rng = np.random.default_rng(7 + p)
    for _ in range(30):
        m = _random_matrix(rng, 6, 8, p)
        ns = nullspace(m, p)
        assert ns.shape[0] == 8 - rank(m, p)
        assert not np.any((m @ ns.T) % p)
        assert rank(ns, p) == ns.shape[0]


@pytest.mark.parametrize("p", [2, 3, 5])
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
