"""Subspaces of F_p^8: canonical forms, enumeration, closure, duality.

A subspace is stored as its reduced row echelon basis (pivot columns
normalized and cleared, pivots strictly increasing), which makes equality,
hashing and deterministic ordering trivial.  :func:`pivot_block` lists the
bases of one pivot-column set, the free entries in row-major order,
least-significant-last; :func:`closed_subspaces` runs it over the quotient
by F·1 and tests only what can be closed.  Membership reduces a vector
by the basis with :func:`splitoct.linalg.residues`.  The radical
R = S ∩ S^⊥ and its norm-zero part Q have one computation, the batched
one in :func:`splitoct.classify.batch_columns`; the per-space reference
is kept with the tests.

Stacks of RREF bases are tested for closure and reduced to structure
constants in batches, by one closure stage, :func:`_escapes`, over the
package's one float32 product kernel, :func:`splitoct.algebra.products`,
which is exact for every supported prime.  :func:`closed_mask` runs it
in one or two stages, :func:`substructure` once.  The pivot columns come
as the tuple a whole block shares (the scan's blocks) or as an array of
each basis's own (:func:`closed_bases`, :func:`substructure`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .algebra import DIM, Algebra, Workspace, check_integers, mod, products


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
        vec = tuple(vec)
        check_integers(vec)
        v = np.array(vec, dtype=np.int64) % self.p
        if v.shape != (self.ambient,):
            raise ValueError(f"a vector of length {v.size} is not in F_p^{self.ambient}")
        return not linalg.residues(self.matrix(), v[None], self.p).any()

    def key(self) -> tuple:
        """Deterministic sort key: (dim, pivot columns, entries)."""
        return (self.dim, self.pivots, self.rows)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, p={self.p}, rows={list(map(list, self.rows))})"


def span(vectors, p: int, ambient: int = DIM) -> Subspace:
    """Canonical subspace spanned by arbitrary integer coordinate vectors."""
    vecs = [tuple(v) for v in vectors]
    for v in vecs:
        check_integers(v)
    if not vecs:
        return Subspace((), p, ambient)
    mat = np.array(vecs, dtype=np.int64)
    if mat.shape[1] != ambient:
        raise ValueError(f"vectors of length {mat.shape[1]} do not lie in F_p^{ambient}")
    red, _ = linalg.rref(mat, p)
    return Subspace(tuple(map(tuple, red.tolist())), p, ambient)


def zero_space(p: int, ambient: int = DIM) -> Subspace:
    return Subspace((), p, ambient)


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
    stacked = np.concatenate([a.matrix(), b.matrix()], axis=0)   # (k+m, n)
    # coefficient vectors (lam, mu) with lam@A + mu@B = 0; then lam@A is in both
    ker = linalg.nullspace(stacked.T, p)
    vecs = (ker[:, : a.dim] @ a.matrix()) % p
    return span(vecs, p, a.ambient)


def check_space(space: Subspace, A: Algebra) -> None:
    """Raise ValueError unless ``space`` lies in the coordinates of ``A``."""
    if space.p != A.p or space.ambient != A.dim:
        raise ValueError(f"a subspace of F_{space.p}^{space.ambient} is not in "
                         f"an algebra over F_{A.p} of dimension {A.dim}")


def perp(space: Subspace, A: Algebra) -> Subspace:
    """Orthogonal complement w.r.t. the polar form of the norm of ``A``."""
    check_space(space, A)
    p = A.p
    ker = linalg.nullspace(space.matrix() @ A.gram % p, p)
    return span(ker, p, A.dim)


def closure(gens, A: Algebra) -> Subspace:
    """Smallest subspace of ``A`` closed under products that contains the
    generators (coordinate tuples); iterates span-and-multiply to a
    fixpoint (at most dim A rounds)."""
    space = span(gens, A.p, A.dim)
    while True:
        prods = [A.mul(u, v) for u in space.rows for v in space.rows]
        bigger = span(list(space.rows) + prods, A.p, A.dim)
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
    """Rows per kernel call for k-row bases (k ≥ 0) in an n-dimensional
    algebra."""
    return max(1, _WORKSET // (max(k, 1) ** 2 * n * n))


def _escapes(X: np.ndarray, rows: np.ndarray, pivots: tuple[int, ...] | np.ndarray,
             struct: np.ndarray, p: int, work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The one closure stage, for float32 RREF bases ``rows`` (M, k, n)
    and rows X (M, a, n) of them: the entries (M, a, k, k) of each
    product of a row of X with a row of the basis at the basis's pivot
    columns, its coordinates if it lies in the span, and per basis whether
    some such product leaves the span.  ``pivots`` is the tuple every
    basis shares, gathered with one :func:`numpy.take`, or an (M, k)
    array of each basis's own, gathered with the several times slower
    :func:`numpy.take_along_axis`.  The entries live in ``work``."""
    P = products(X, rows, struct, p, work)
    M, a, k, n = P.shape
    if isinstance(pivots, tuple):
        raw = np.take(P, pivots, axis=-1, mode="clip", out=work.take("proj", (M, a, k, k)))
    else:
        raw = np.take_along_axis(P, pivots[:, None, None, :], axis=-1)
    coef = mod(raw, p, out=work.take("coef", raw.shape))
    proj = np.matmul(coef.reshape(M, a * k, k), rows, out=work.take("proj", (M, a * k, n)))
    diff = np.subtract(P.reshape(M, a * k, n), proj, out=P.reshape(M, a * k, n))
    return coef, mod(diff, p, out=proj).any(axis=(1, 2))


def closed_mask(mats: np.ndarray, pivots: tuple[int, ...] | np.ndarray,
                struct: np.ndarray, p: int, work: Workspace | None = None) -> np.ndarray:
    """Boolean mask of the closed row-spans among RREF bases ``mats``.

    ``mats`` has shape (M, k, n); ``pivots`` is the tuple of pivot
    columns every basis shares, or an (M, k) array of each basis's own
    (see :func:`_escapes`); ``struct`` is the (n, n, n) structure tensor
    of the algebra the rows live in.  A span is closed when each product
    of two rows equals its pivot-column entries times the rows, mod p.
    For k > 2 the test runs in two stages: the products of row 0 with
    every row, a k-th of the work, reject most bases, and only the
    survivors have the products of their other rows computed.  Over F_5
    the lattice's scan tests 47,722 bases, 2,867 reach stage two and
    5,612 are closed.  For k ≤ 2 one stage takes every product: a unital
    plane always passes row 0 (x² = tr(x)·x − N(x)·1), and splitting
    off row 0 measured slower there.  A scan passes one
    :class:`splitoct.algebra.Workspace` to all its calls, so the bases,
    products, projections and residues reuse its buffers.
    """
    work = Workspace() if work is None else work
    r = work.take("rows", mats.shape)
    r[...] = mats
    k = r.shape[1]
    keep = ~_escapes(r if k <= 2 else r[:, :1], r, pivots, struct, p, work)[1]
    live = np.flatnonzero(keep)
    if k > 2 and len(live):
        s = np.take(r, live, axis=0, out=work.take("survivors", (len(live), *r.shape[1:])))
        piv = pivots if isinstance(pivots, tuple) else pivots[live]
        keep[live] = ~_escapes(s[:, 1:], s, piv, struct, p, work)[1]
    return keep


def closed_bases(rows: np.ndarray, A: Algebra) -> np.ndarray:
    """Boolean mask of the closed row-spans among RREF bases of ``A``,
    each basis with its own pivot columns (zero rows allowed)."""
    return closed_mask(rows, (rows != 0).argmax(-1), A.struct, A.p)


def substructure(rows: np.ndarray, A: Algebra) -> np.ndarray:
    """Structure constants of closed subspaces of ``A`` in their own RREF
    bases.

    ``rows`` has shape (M, k, n); returns int64 C of shape (M, k, k, k)
    with b_i·b_j = Σ_c C[m, i, j, c] b_c.  In RREF the coordinates of a
    member are its entries at the pivot columns.  Raises NotClosed if
    some basis does not span a closed subspace.
    """
    r = np.asarray(rows, dtype=np.float32)
    coef, escapes = _escapes(r, r, (r != 0).argmax(-1), A.struct, A.p, Workspace())
    if escapes.any():
        bad = np.asarray(rows)[escapes.argmax()].tolist()
        raise NotClosed("subspace is not closed under multiplication: "
                        f"{Subspace(tuple(map(tuple, bad)), A.p, A.dim)}")
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


def closed_subspaces(struct: np.ndarray, unit, p: int, pivot_sets=None,
                     dims=None):
    """Yield the closed subspaces of the unital algebra with (k, k, k)
    structure tensor ``struct`` and unit ``unit``: int64 stacks (M, d, k)
    of bases in its coordinates, not reduced, one per closure-kernel call.

    With the unit last, the unital ones are the quotient's subspaces by F·1
    with the unit appended.  A closed T ∌ 1 lies in the closed U = T + F·1,
    as (t + a)(t' + b) = tt' + at' + bt + ab, and is spanned by U's quotient
    rows, each with its own last entry: still RREF.  So a closed U of
    dimension d + 1 has p^d hyperplanes avoiding 1, and each T comes from
    one U.  Only those whose rows square into them go to the closure test
    (:func:`_square_lifts`): at most 2^d for a subalgebra of the
    octonions, and over F_5 the lattice's 5,546 of 134,806.

    ``pivot_sets`` are the quotient pivot sets to run, pivot columns of
    F_p^(k−1) (default: every one, by size); ``dims`` the dimensions to
    yield (default all).  A set of d pivots yields the unital spaces of
    dimension d + 1 and, lifted, the others of dimension d.
    """
    unit = np.asarray(unit, dtype=np.int64) % p
    k, eye = len(unit), np.eye(len(unit), dtype=np.int64)
    basis = np.concatenate([np.delete(eye, unit.argmax(), axis=0), unit[None]])
    T = np.einsum("ia,jb,abc,cd->ijd", basis, basis, struct,
                  linalg.mat_inv(basis, p)) % p
    if (T[-1] != eye).any() or (T[:, -1] != eye).any():
        raise ValueError(f"{unit.tolist()} is not a two-sided unit of the table")
    if pivot_sets is None:
        pivot_sets = (piv for d in range(k)
                      for piv in itertools.combinations(range(k - 1), d))
    dims = range(k + 1) if dims is None else dims
    work = Workspace()
    for piv in pivot_sets:
        d = len(piv)
        total, block = p ** len(free_positions(piv, k - 1)), block_rows(d + 1, k)
        for start in range(0, total, block):
            q = pivot_block(piv, p, k - 1, start, min(total, start + block))
            U = np.zeros((len(q), d + 1, k), dtype=np.int8)
            U[:, :d, :-1], U[:, d, -1] = q, 1
            U = U[closed_mask(U, piv + (k - 1,), T, p, work)]
            if d + 1 in dims:
                yield U.astype(np.int64) @ basis % p
            if d not in dims or not len(U):
                continue
            lifts = coefficient_vectors(d, p)
            i = _square_lifts(U, piv, T, p)
            for lo in range(0, len(i), block_rows(d, k)):
                j = i[lo:lo + block_rows(d, k)]
                cand = U[j // len(lifts), :d]
                cand[:, :, -1] = lifts[j % len(lifts)]
                yield cand[closed_mask(cand, piv, T, p, work)].astype(np.int64) @ basis % p


def _square_lifts(U: np.ndarray, pivots: tuple[int, ...], struct: np.ndarray,
                  p: int) -> np.ndarray:
    """The flat indices u·p^d + l, in increasing order, of the hyperplane
    lifts of the closed unital bases ``U`` (M, d + 1, k), unit row last,
    whose rows square into the lift: the lift with coefficient vector
    λ = ``coefficient_vectors(d, p)[l]`` has rows x_i = q_i + λ_i·1.

    With q_i² = Σ_j c_ij q_j + c_i·1, read off U's pivot columns,
    x_i² = q_i² + 2λ_i·q_i + λ_i²·1 lies in the lift iff
    c_i − λ_i² − Σ_j c_ij λ_j ≡ 0 (mod p).  Closure needs it for every
    table; in a subalgebra of the octonions it is x² − tr(x)·x + N(x)·1 = 0,
    so each λ_i solves a quadratic and at most 2^d of the p^d lifts pass.
    The squares are float32 products, which take no work buffers: as U
    holds at most one block's bases, they hold M·d·k² < ``_WORKSET``
    entries.  The residues are taken for at most max(``block_rows(d, k)``,
    p^d) pairs at a time."""
    M, d, k = U.shape[0], U.shape[1] - 1, U.shape[2]
    L = coefficient_vectors(d, p).astype(np.float32)
    q = U[:, :d, None]
    sq = mod(products(q, q, struct, p)[:, :, 0, 0], p)           # (M, d, k)
    coef, const, square = sq[..., list(pivots)].transpose(0, 2, 1), sq[..., -1], L * L
    step = max(1, block_rows(d, k) // len(L))
    found = []
    for lo in range(0, M, step):
        r = np.matmul(L, coef[lo:lo + step])                     # (m, p^d, d)
        r += square
        np.subtract(const[lo:lo + step, None], r, out=r)
        found.append(np.flatnonzero(~mod(r, p).any(-1)) + lo * len(L))
    return np.concatenate(found)


@lru_cache(maxsize=None)
def coefficient_vectors(k: int, p: int) -> np.ndarray:
    """All p^k coefficient vectors, as rows of a read-only (p^k, k) array."""
    out = np.array(list(itertools.product(range(p), repeat=k)),
                   dtype=np.int64).reshape(p ** k, k)
    out.flags.writeable = False
    return out
