"""Exact dense linear algebra over F_p on small integer numpy matrices.

Every routine treats matrices as 2-d numpy int arrays with entries already
reduced mod p (callers normalize), and returns fresh arrays, never views.
Reduced row echelon form is the canonical form used everywhere: pivot rows
scaled to 1, pivot columns cleared, pivots strictly increasing.
"""

from __future__ import annotations

import numpy as np

from .field import inv


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of ``mat`` mod p.

    Returns ``(R, pivots)`` where R has zero rows dropped and ``pivots`` are
    the pivot column indices in increasing order.
    """
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = None
        for i in range(r, rows):
            if m[i, c]:
                hit = i
                break
        if hit is None:
            continue
        if hit != r:
            m[[r, hit]] = m[[hit, r]]
        m[r] = (m[r] * inv(int(m[r, c]), p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m[: len(pivots)].copy(), tuple(pivots)


def rank(mat: np.ndarray, p: int) -> int:
    return len(rref(mat, p)[1])


def batch_rref(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod p of every matrix in a stack (M, r, c).

    Gauss-Jordan elimination run on all matrices at once, one column at a
    time.  Returns ``(reduced, ranks)``: ``reduced`` is an int64 stack of
    the input's shape whose first ``ranks[i]`` rows of matrix i are its RREF
    basis (the rows :func:`rref` returns) and whose other rows are zero.
    """
    a = np.array(mats, dtype=np.int64) % p
    M, r, c = a.shape
    inverse = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    ranks = np.zeros(M, dtype=np.int64)
    row_ids = np.arange(r)
    for col in range(c):
        cand = (a[:, :, col] != 0) & (row_ids >= ranks[:, None])
        hit = cand.any(1)
        if not hit.any():
            continue
        m = np.nonzero(hit)[0]
        src, dst = cand[m].argmax(1), ranks[m]
        pivot_row = a[m, src] * inverse[a[m, src, col]][:, None] % p
        a[m, src] = a[m, dst]
        a[m, dst] = pivot_row
        factor = a[m, :, col]
        factor[np.arange(len(m)), dst] = 0
        a[m] = (a[m] - factor[:, :, None] * pivot_row[:, None, :]) % p
        ranks[m] += 1
    return a, ranks


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p of every matrix in a stack of shape (M, r, c), as int64 (M,)."""
    return batch_rref(mats, p)[1]


def mat_inv(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p; raises ValueError if singular."""
    m = np.array(mat, dtype=np.int64) % p
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"matrix of shape {m.shape} is not square")
    aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots = rref(aug, p)
    if pivots[:n] != tuple(range(n)) or len(pivots) < n:
        raise ValueError("matrix is singular mod %d" % p)
    return red[:, n:].copy()


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows, in RREF) of the right kernel {x : mat @ x = 0 mod p}."""
    m = np.array(mat, dtype=np.int64) % p
    _, cols = m.shape
    red, pivots = rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-red[i, c]) % p
    # free-column unit vectors in increasing order already give RREF rows
    return basis


def row_space_contains(rref_rows: np.ndarray, pivots: tuple[int, ...], vec: np.ndarray, p: int) -> bool:
    """Membership test against a space already in RREF form."""
    v = np.array(vec, dtype=np.int64) % p
    for i, c in enumerate(pivots):
        if v[c]:
            v = (v - v[c] * rref_rows[i]) % p
    return not v.any()
