"""Exact dense linear algebra over F_p on small integer numpy matrices.

Every routine treats matrices as numpy int arrays with entries already
reduced mod p (callers normalize), and returns fresh arrays, never views
of its inputs.  Reduced row echelon form is the canonical form used
everywhere: pivot rows scaled to 1, pivot columns cleared, pivots strictly
increasing.

Each batched concept has one routine here, over stacks of matrices:
:func:`batch_rref` and :func:`batch_rank`, :func:`left_kernels` (whose
square, full-rank case is :func:`mat_inv`) and :func:`residues`, the
reduction against RREF bases behind every membership test.  :func:`rref`, :func:`rank` and :func:`nullspace` stay per matrix
for the per-space API, where they beat a batch of one several times over.
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
    time, until every matrix has rank r.  Returns ``(reduced, ranks)``:
    ``reduced`` is an int64 stack of the input's shape whose first
    ``ranks[i]`` rows of matrix i are its RREF basis (the rows :func:`rref`
    returns) and whose other rows are zero.
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
        if ranks.min() == r:
            break
    return a, ranks


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p of every matrix in a stack of shape (M, r, c), as int64
    (M,).  A wide stack is reduced transposed: one pass per column."""
    mats = np.asarray(mats)
    if mats.shape[2] > mats.shape[1]:
        mats = mats.transpose(0, 2, 1)
    return batch_rref(mats, p)[1]


def left_kernels(M: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """{x : x·M[m] = 0 mod p} for a stack M of (r, c) matrices: the I-parts
    (n, r, r) of the RREFs of [M[m] | I] and the kernel dimensions (n,).

    The rows of the RREF of [M[m] | I] that vanish on M[m] sit at the
    bottom; their I-parts span the kernel and are in RREF themselves.
    """
    n, r, c = M.shape
    eye = np.broadcast_to(np.eye(r, dtype=np.int64), (n, r, r))
    reduced = batch_rref(np.concatenate([M, eye], axis=2), p)[0]
    return reduced[:, :, c:], (~reduced[:, :, :c].any(2)).sum(1)


def mat_inv(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix mod p, the I-part of its trivial left
    kernel; raises ValueError if singular."""
    m = np.asarray(mat, dtype=np.int64)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(f"matrix of shape {m.shape} is not square")
    inverse, dims = left_kernels(m[None], p)
    if dims[0]:
        raise ValueError("matrix is singular mod %d" % p)
    return inverse[0]


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel {x : mat @ x = 0 mod p}, one row per free
    column c, with 1 at c and 0 at the other free columns; not RREF in general."""
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
    return basis


def residues(U: np.ndarray, W: np.ndarray, p: int) -> np.ndarray:
    """The rows of W (..., m, n) reduced mod p by the RREF bases U (..., k, n),
    as int64; the leading axes broadcast, and zero rows of U subtract
    nothing.  A row lies in the row space of U iff its residue is zero, and
    rank [U; W] = rank U + rank of the residues.  The inputs are widened
    first, so int8 rows stay exact for every supported p."""
    U = np.asarray(U, dtype=np.int64)
    W = np.asarray(W, dtype=np.int64)
    pick = np.arange(U.shape[-1])[:, None] == (U != 0).argmax(-1)[..., None, :]
    return (W - W @ pick @ U) % p
