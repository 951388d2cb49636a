"""Subspaces of F_p^8: canonical forms, enumeration, closure, radicals.

A subspace is stored as its reduced row echelon basis (pivot columns
normalized and cleared, pivots strictly increasing), which makes equality,
hashing and deterministic ordering trivial.  Enumeration walks pivot-column
sets in lexicographic order and, within a pivot set, the free entries in
row-major order, least-significant-last — so the stream order is
reproducible and partitions cleanly by pivot set.

Stacks of RREF bases are tested for closure and reduced to structure
constants in batches: :func:`closed_mask` and :func:`substructure` share
one float32 product kernel, which is exact for every supported prime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .algebra import DIM, GRAM_Z, SplitOctonions, algebra


class NotClosed(ValueError):
    """A subspace handed to a closed-subspace routine is not closed under products."""


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_p^ambient as an immutable RREF basis."""

    rows: tuple[tuple[int, ...], ...]
    p: int
    ambient: int = DIM

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        out = []
        for r in self.rows:
            for c, val in enumerate(r):
                if val:
                    out.append(c)
                    break
        return tuple(out)

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.ambient), dtype=np.int64)
        return np.array(self.rows, dtype=np.int64)

    def contains(self, vec) -> bool:
        v = np.array(tuple(vec), dtype=np.int64) % self.p
        return linalg.row_space_contains(self.matrix(), self.pivots, v, self.p)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def key(self) -> tuple:
        """Deterministic sort key: (dim, pivot columns, entries)."""
        return (self.dim, self.pivots, self.rows)

    def elements(self):
        """All p^dim elements of the span, coordinates as int tuples."""
        mat = self.matrix()
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            if self.dim:
                v = (np.array(coeffs, dtype=np.int64) @ mat) % self.p
                yield tuple(int(c) for c in v)
            else:
                yield (0,) * self.ambient

    def nonzero_elements(self):
        for v in self.elements():
            if any(v):
                yield v

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, p={self.p}, rows={list(map(list, self.rows))})"


def span(vectors, p: int, ambient: int = DIM) -> Subspace:
    """Canonical subspace spanned by arbitrary coordinate vectors."""
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return Subspace((), p, ambient)
    red, _ = linalg.rref(np.array(vecs, dtype=np.int64), p)
    return Subspace(tuple(map(tuple, red.tolist())), p, ambient)


def zero_space(p: int, ambient: int = DIM) -> Subspace:
    return Subspace((), p, ambient)


def full_space(p: int, ambient: int = DIM) -> Subspace:
    return span(np.eye(ambient, dtype=np.int64), p, ambient)


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.p != b.p or a.ambient != b.ambient:
        raise ValueError(f"subspaces of F_{a.p}^{a.ambient} and F_{b.p}^{b.ambient} "
                         "cannot be combined")


def sum_spaces(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return span(list(a.rows) + list(b.rows), a.p, a.ambient)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked-basis relation."""
    _check_compatible(a, b)
    p = a.p
    if a.dim == 0 or b.dim == 0:
        return zero_space(p, a.ambient)
    stacked = np.concatenate([a.matrix(), b.matrix()], axis=0)   # (k+m, n)
    # coefficient vectors (lam, mu) with lam@A + mu@B = 0; then lam@A is in both
    ker = linalg.nullspace(stacked.T, p)
    vecs = (ker[:, : a.dim] @ a.matrix()) % p
    return span(vecs, p, a.ambient)


def perp(space: Subspace) -> Subspace:
    """Orthogonal complement w.r.t. the polar form of the norm."""
    if space.ambient != DIM:
        raise ValueError(f"the polar form lives on F_p^{DIM}, not F_p^{space.ambient}")
    p = space.p
    if space.dim == 0:
        return full_space(p)
    g = GRAM_Z % p
    ker = linalg.nullspace(space.matrix() @ g % p, p)
    return span(ker, p)


def radicals(space: Subspace) -> tuple[Subspace, Subspace]:
    """(R, Q): the polar-form radical R = A ∩ A^⊥ and its norm-zero part Q.

    On R the polar form vanishes, so for odd p the norm is alternating there
    and Q = R; for p = 2 the norm restricted to R is F_2-linear and Q is its
    kernel.
    """
    p = space.p
    R = intersect(space, perp(space))
    ctx = algebra(p)
    for x in R.rows:
        for y in R.rows:
            if ctx.polar(x, y) != 0:
                raise ArithmeticError("polar form must vanish on the radical")
    if p != 2:
        for x in R.rows:
            if ctx.norm(x) != 0:
                raise ArithmeticError("odd characteristic: norm must vanish on the radical")
        return R, R
    if R.dim == 0:
        return R, R
    norms = np.array([[ctx.norm(r) for r in R.rows]], dtype=np.int64)
    ker = linalg.nullspace(norms, p)         # coefficient vectors
    Q = span((ker @ R.matrix()) % p, p)
    return R, Q


def is_closed(space: Subspace, ctx: SplitOctonions | None = None) -> bool:
    """True iff b_i * b_j lies in the space for all basis pairs."""
    ctx = ctx or algebra(space.p)
    for u in space.rows:
        for v in space.rows:
            if not space.contains(ctx.mul(u, v)):
                return False
    return True


def closure(gens, p: int | None = None) -> Subspace:
    """Smallest multiplicatively closed subspace containing the generators.

    Accepts Octonion instances or coordinate tuples; iterates span-and-
    multiply to a fixpoint (at most 8 rounds).
    """
    coords = []
    for g in gens:
        c = getattr(g, "coords", g)
        coords.append(tuple(c))
        if p is None:
            p = getattr(g, "p", None)
    if p is None:
        raise ValueError("field size required when generators are raw tuples")
    ctx = algebra(p)
    space = span(coords, p)
    while True:
        prods = [ctx.mul(u, v) for u in space.rows for v in space.rows]
        bigger = span(list(space.rows) + prods, p)
        if bigger.dim == space.dim:
            return bigger
        space = bigger


# ---------------------------------------------------------------------------
# batched closure and structure constants
# ---------------------------------------------------------------------------

#: cap on rows × k² × n² per kernel call, which bounds both float32
#: intermediates (rows·k·n² and rows·k²·n elements) to 2 MB each
_WORKSET = 1 << 19


def block_rows(k: int, n: int) -> int:
    """Rows per kernel call for k-row bases in an n-dimensional algebra."""
    return max(1, _WORKSET // (k * k * n * n))


def _row_products(mats: np.ndarray, struct: np.ndarray, p: int) -> np.ndarray:
    """P[m, i, j] = (row i)·(row j) of every basis in ``mats``, unreduced.

    Two stacked float32 matmuls: T[m, i] = Σ_a row_i[a] struct[a], the
    matrix of left multiplication by row i, then P[m, i, j] = row_j @
    T[m, i].  This measured about five times faster than multiplying the
    k² row-pair outer products by struct.reshape(n², n), with the same
    sums.  Stacked per-basis products stay single-threaded in BLAS, which
    keeps the scan's pool workers from oversubscribing the cores.
    Entries are non-negative integers at most n²(p−1)³, and (n² + n)(p−1)³
    bounds the differences formed in :func:`_residual`; below 2²⁰ (n = 8
    and every supported prime) all of them are exact in float32, and so
    is :func:`_mod`.
    """
    M, k, n = mats.shape
    if (n + 1) * n * (p - 1) ** 3 >= 1 << 20:
        raise ValueError(f"float32 products are not exact for n={n}, p={p}")
    r = mats.astype(np.float32)
    S = np.asarray(struct, dtype=np.float32).reshape(n, n * n)
    T = (r @ S).reshape(M, k, n, n)
    return np.matmul(r[:, None], T)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for float32 integers of magnitude below 2²⁰.

    x / p then lies within 1/(16p) of its true value, so its floor is
    exact; np.fmod gives the same result about thirty times slower.
    """
    return x - np.floor(x / p) * p


def _residual(P: np.ndarray, mats: np.ndarray, coef: np.ndarray, p: int) -> np.ndarray:
    """Per basis: whether some product leaves the span, given the products
    ``P`` and their coordinates ``coef`` (entries at the pivot columns)."""
    M, k, n = mats.shape
    proj = coef.reshape(M, k * k, k) @ mats.astype(np.float32)
    return _mod(P.reshape(M, k * k, n) - proj, p).any(axis=(1, 2))


def closed_mask(mats: np.ndarray, pivots: tuple[int, ...], struct: np.ndarray,
                p: int) -> np.ndarray:
    """Boolean mask of the closed row-spans among RREF bases ``mats``.

    ``mats`` has shape (M, k, n), every basis with pivot columns
    ``pivots``; ``struct`` is the (n, n, n) structure tensor of the
    algebra the rows live in.  A span is closed when each product of two
    rows equals its pivot-column entries times the rows, mod p.
    """
    P = _row_products(mats, struct, p)
    coef = _mod(P[..., list(pivots)], p)
    return ~_residual(P, mats, coef, p)


def substructure(rows: np.ndarray, p: int) -> np.ndarray:
    """Structure constants of closed subspaces in their own RREF bases.

    ``rows`` has shape (M, k, 8); returns int64 C of shape (M, k, k, k)
    with b_i·b_j = Σ_c C[m, i, j, c] b_c.  In RREF the coordinates of a
    member are its entries at the pivot columns.  Raises NotClosed if
    some basis does not span a closed subspace.
    """
    rows = np.asarray(rows)
    M, k, _ = rows.shape
    P = _row_products(rows, algebra(p).struct, p)
    piv = (rows != 0).argmax(-1)                                 # (M, k)
    coef = _mod(np.take_along_axis(P, piv[:, None, None, :], axis=-1), p)
    escapes = _residual(P, rows, coef, p)
    if escapes.any():
        bad = Subspace(tuple(map(tuple, rows[escapes.argmax()].tolist())), p, DIM)
        raise NotClosed(f"subspace is not closed under multiplication: {bad}")
    return coef.astype(np.int64)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dim subspaces of F_p^n, by the product formula."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    if num % den:
        raise ArithmeticError(f"Gaussian binomial [{n} choose {k}]_{p} is not an integer")
    return num // den


def free_positions(pivots: tuple[int, ...], ambient: int = DIM) -> list[tuple[int, int]]:
    """Row-major list of the unconstrained entries of an RREF pattern."""
    out = []
    pset = set(pivots)
    for i, c in enumerate(pivots):
        for col in range(c + 1, ambient):
            if col not in pset:
                out.append((i, col))
    return out


def pivot_block(pivots: tuple[int, ...], p: int, ambient: int = DIM,
                start: int = 0, stop: int | None = None) -> np.ndarray:
    """RREF matrices for one pivot set, indices [start, stop) of p^f total.

    Index digits are the free entries in row-major order, first position
    most significant, matching itertools.product order.  Returns an int8
    array of shape (stop-start, k, ambient).
    """
    k = len(pivots)
    free = free_positions(pivots, ambient)
    f = len(free)
    total = p ** f
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"index range [{start}, {stop}) outside [0, {total}]")
    count = stop - start
    out = np.zeros((count, k, ambient), dtype=np.int8)
    for i, c in enumerate(pivots):
        out[:, i, c] = 1
    if f:
        idx = np.arange(start, stop, dtype=np.int64)
        for pos in range(f - 1, -1, -1):
            i, col = free[pos]
            out[:, i, col] = idx % p
            idx //= p
    return out


def enumerate_subspaces(k: int, p: int, ambient: int = DIM, visitor=None,
                        block: int = 1 << 14):
    """Yield every k-dim subspace of F_p^ambient exactly once.

    Order: pivot-column sets lexicographically, then free entries
    lexicographically.  If ``visitor`` is given it is called on each
    subspace as well.
    """
    if not 0 <= k <= ambient:
        raise ValueError(f"dimension {k} is outside 0..{ambient}")
    if k == 0:
        s = zero_space(p, ambient)
        if visitor:
            visitor(s)
        yield s
        return
    for pivots in itertools.combinations(range(ambient), k):
        total = p ** len(free_positions(pivots, ambient))
        for start in range(0, total, block):
            mats = pivot_block(pivots, p, ambient, start, min(start + block, total))
            for m in mats:
                s = Subspace(tuple(map(tuple, m.tolist())), p, ambient)
                if visitor:
                    visitor(s)
                yield s
