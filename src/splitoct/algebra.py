"""One algebra value for every table; the split octonions are one of them.

:class:`Algebra` is a unital algebra over F_p with a quadratic norm, given
by three tables: the structure tensor (``struct[i, j]`` holds the
coordinates of e_i·e_j), the upper-triangular norm form Q with
N(x) = x·Q·xᵀ, and the coordinates of 1.  Everything else is derived
once, here: the Gram matrix Q + Qᵀ of the polar form
(x|y) = N(x+y) − N(x) − N(y), the trace tr(x) = (x|1), the involution
κ(x) = tr(x)·1 − x as a matrix, and the scalar and array operations,
the same way over every prime.  No other module knows a coordinate
layout, except that the exhaustive F_2 identities of
:mod:`splitoct.verify` pack 64 instances into each word of a coordinate
plane.

Tables come from Cayley–Dickson doubling.  :func:`field_table` is F_p
with N(x) = x², :func:`quaternion_table` the 2x2 matrices with the
determinant, and :func:`double` glues two copies of an algebra A along an
invertible scalar μ, keeping the unit (1, 0):

    (a, x)·(b, y) = (a·b − μ·κ(y)·x,  y·a + x·κ(b)),
    N(a, x) = N(a) + μ·N(x).

Over F_p every octonion algebra is split (Springer & Veldkamp, ch. 1), so
three doublings of F_p (odd p) give the split octonions up to a change of
basis, for any μ's.  The canonical instance, :class:`SplitOctonions`, is
double(quaternion_table, −1): pairs a + x·w of 2x2 matrices with w·w = 1
and N(a + x·w) = det(a) − det(x), in the coordinate order

    0: E11   1: E12   2: E21   3: E22   4: E11*w  5: E12*w  6: E21*w  7: E22*w

so 1 = (1,0,0,1,0,0,0,0) and w = (0,0,0,0,1,0,0,1).  Its structure
constants :data:`STRUCT_Z` come from the same doubling over Z.

:func:`products` is the package's one batched product of basis stacks:
the closure mask and structure constants of :mod:`splitoct.subspace`, the
F_2 certifications of :mod:`splitoct.verify`, multiplication matrices and
the automorphism checks go through it, exact in float32 under the bound
of :func:`check_float32_exact`.  The odd-field identities suite
multiplies single elements from the algebra's term lists instead, in
uint16 under a bound it reads off those lists.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import field

DIM = 8

#: the coordinate types the scalar operations accept
_INTEGERS = (int, np.integer)


def check_integers(u) -> None:
    """Raise ``ValueError`` unless every coordinate of ``u`` is a Python or
    numpy integer."""
    # a float, complex or Fraction coordinate makes the sum one too
    if not isinstance(sum(u), _INTEGERS):
        raise ValueError(f"coordinates must be integers, got {tuple(u)}")


# ---------------------------------------------------------------------------
# the batched product kernel
# ---------------------------------------------------------------------------

def check_float32_exact(n: int, p: int) -> None:
    """Raise ``ValueError`` unless float32 sums of products over F_p^n are exact.

    A product of two elements has coordinates of at most n² terms
    c·x_i·y_j with c, x_i, y_j in [0, p), so at most n²(p−1)³, and
    (n² + n)(p−1)³ bounds the differences the closure test forms from
    them.  Below 2²⁰ (n = 8 and every supported prime) all of them are
    exact in float32, and so is :func:`mod`.
    """
    if (n + 1) * n * (p - 1) ** 3 >= 1 << 20:
        raise ValueError(f"float32 products are not exact for n={n}, p={p}")


class Workspace:
    """Work buffers that one scan lends to every kernel call it makes.

    ``take(name, shape)`` returns a float32 view (or one of ``dtype``) of
    the buffer ``name``, grown to the largest size asked of it so far; the
    next ``take`` of that name overwrites it.  Reusing the buffers keeps a
    long scan from mapping and faulting in fresh megabyte temporaries on
    every call, which otherwise depends on glibc's dynamic mmap threshold
    and on what ran before.
    """

    def __init__(self):
        self._buffers: dict = {}

    def take(self, name, shape, dtype=np.float32) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def products(X: np.ndarray, Y: np.ndarray, struct: np.ndarray, p: int,
             work: Workspace | None = None) -> np.ndarray:
    """P[..., i, j, :] = X_i·Y_j under ``struct``, unreduced, as float32.

    ``X`` has shape (..., k, n) and ``Y`` shape (..., l, n), entries in
    [0, p); ``struct[a, b]`` is the product of basis elements a and b.
    Two stacked float32 matmuls: T[..., i] = Σ_a X_i[a] struct[a], the
    matrix of left multiplication by X_i, then P[..., i, j] = Y_j @
    T[..., i].  This measured about five times faster than multiplying the
    k·l row-pair outer products by struct.reshape(n², n), with the same
    sums.  Stacked per-basis products stay single-threaded in BLAS, which
    keeps the census pool workers from oversubscribing the cores.  Folding
    the first matmul into one 2-D GEMM lets OpenBLAS thread it: on a
    2-vCPU VM ``enumerate --field 3 --dims 1,2 --threads 2`` went from
    0.49 to 0.89 s wall and from 0.65 to 1.61 s CPU, and the CPU time of
    ``lattice --field 5`` and ``orbits --field 2`` rose by about half.
    Entries are non-negative integers at most n²(p−1)³, exact in float32
    where :func:`check_float32_exact` passes.  Pass the same array as X
    and Y to convert it once.  With ``work``, T and P are written into its
    buffers ``"left"`` and ``"products"``, and P is valid until the next
    call that takes them.
    """
    n = struct.shape[-1]
    check_float32_exact(n, p)
    x = np.asarray(X, dtype=np.float32)
    y = x if Y is X else np.asarray(Y, dtype=np.float32)
    S = np.asarray(struct, dtype=np.float32).reshape(n, n * n)
    lead = x.shape[:-1]
    out_T = out_P = None
    if work is not None:
        out_T = work.take("left", (*lead, n * n))
        out_P = work.take("products", np.broadcast_shapes(y.shape[:-2], x.shape[:-2])
                          + (x.shape[-2], y.shape[-2], n))
    T = np.matmul(x, S, out=out_T).reshape(*lead, n, n)
    return np.matmul(y[..., None, :, :], T, out=out_P)


def mod(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod p for float32 integers of magnitude below 2²⁰.

    x / p then lies within 1/(16p) of its true value, so its floor is
    exact; np.fmod gives the same result about thirty times slower.  One
    temporary holds every step, ``out`` if given (it must not overlap
    ``x``), and ``x`` is not written.
    """
    q = np.divide(x, p, out=out)
    np.floor(q, out=q)
    q *= p
    return np.subtract(x, q, out=q)


# ---------------------------------------------------------------------------
# the algebra value
# ---------------------------------------------------------------------------

def _involution(norm_form: np.ndarray, unit) -> np.ndarray:
    """κ(x) = tr(x)·1 − x with tr(x) = (x|1), as a matrix on row vectors."""
    unit = np.asarray(unit, dtype=np.int64)
    gram = norm_form + norm_form.T
    return np.outer(gram @ unit, unit) - np.eye(len(unit), dtype=np.int64)


def _terms(table: np.ndarray) -> tuple:
    """The nonzero entries of an array as (index..., value) tuples."""
    return tuple((*map(int, idx), int(table[tuple(idx)])) for idx in np.argwhere(table))


class Algebra:
    """A unital algebra over F_p with a quadratic norm, by its tables.

    ``struct`` (n, n, n), the upper-triangular ``norm_form`` (n, n) and
    ``unit`` (n,) hold integers, reduced mod p; ``gram``, ``trace_vec`` and
    ``conj_mat`` are derived from the norm form and the unit alone, never
    from the product.  The scalar operations take and return coordinate
    tuples of length n (:meth:`check_element`); :meth:`norms` and
    :meth:`traces` act along the last axis of integer arrays.
    """

    def __init__(self, struct, norm_form, unit, p: int):
        field.check_prime(p)
        if any(np.asarray(t).dtype.kind not in "iu" for t in (struct, norm_form, unit)):
            raise ValueError("the tables and the unit must hold integers")
        self.p = p
        self.struct = np.asarray(struct, dtype=np.int64) % p
        Q = np.asarray(norm_form, dtype=np.int64) % p
        n = self.dim = len(unit)
        if self.struct.shape != (n, n, n) or Q.shape != (n, n):
            raise ValueError(f"tables of shapes {self.struct.shape}, {Q.shape} "
                             f"do not fit a unit of length {n}")
        if np.tril(Q, -1).any():
            raise ValueError("the norm form must be upper triangular")
        self.norm_form = Q
        self.unit = tuple(int(c) % p for c in unit)
        self.gram = (Q + Q.T) % p
        self.trace_vec = self.gram @ self.unit % p
        self.conj_mat = _involution(Q, self.unit) % p
        # the same tables as term lists, for the scalar operations
        struct_terms = _terms(self.struct)
        self._mul_terms = tuple(tuple(t[1:] for t in struct_terms if t[0] == i)
                                for i in range(n))
        self._norm_terms = _terms(Q)
        self._polar_terms = _terms(self.gram)
        self._conj_terms = _terms(self.conj_mat)
        self._trace_terms = _terms(self.trace_vec)

    # -- scalar operations on coordinate tuples -----------------------------

    def check_element(self, *elements) -> None:
        """Raise ``ValueError`` unless every element has ``dim`` coordinates,
        each a Python or numpy integer."""
        for u in elements:
            if len(u) != self.dim:
                raise ValueError(f"an element has {self.dim} coordinates, got {len(u)}")
            check_integers(u)

    def mul(self, u, v) -> tuple[int, ...]:
        self.check_element(u, v)
        out = [0] * self.dim
        for ui, terms in zip(u, self._mul_terms):
            if ui:
                for j, k, c in terms:
                    out[k] += c * ui * v[j]
        p = self.p
        return tuple([c % p for c in out])

    def conj(self, u) -> tuple[int, ...]:
        self.check_element(u)
        out = [0] * self.dim
        for i, j, c in self._conj_terms:
            out[j] += c * u[i]
        p = self.p
        return tuple([c % p for c in out])

    def norm(self, u) -> int:
        self.check_element(u)
        s = 0
        for i, j, c in self._norm_terms:
            s += c * u[i] * u[j]
        return s % self.p

    def trace(self, u) -> int:
        self.check_element(u)
        s = 0
        for i, c in self._trace_terms:
            s += c * u[i]
        return s % self.p

    def polar(self, u, v) -> int:
        """Bilinear form (u|v) = N(u+v) - N(u) - N(v)."""
        self.check_element(u, v)
        s = 0
        for i, j, c in self._polar_terms:
            s += c * u[i] * v[j]
        return s % self.p

    def inverse(self, u) -> tuple[int, ...]:
        n = self.norm(u)
        if n == 0:
            raise ZeroDivisionError("element has norm 0, not invertible")
        return self.smul(field.inv(n, self.p), self.conj(u))

    def add(self, u, v) -> tuple[int, ...]:
        self.check_element(u, v)
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def subv(self, u, v) -> tuple[int, ...]:
        self.check_element(u, v)
        return tuple((a - b) % self.p for a, b in zip(u, v))

    def smul(self, c: int, u) -> tuple[int, ...]:
        self.check_element(u)
        return tuple(c * a % self.p for a in u)

    # -- array operations ---------------------------------------------------

    def norms(self, X: np.ndarray) -> np.ndarray:
        """Norms of the integer coordinate rows along the last axis."""
        zero = np.zeros(X.shape[:-1], dtype=np.int64)
        return sum((c * X[..., i] * X[..., j] for i, j, c in self._norm_terms),
                   zero) % self.p

    def traces(self, X: np.ndarray) -> np.ndarray:
        """Traces of the integer coordinate rows along the last axis."""
        return X @ self.trace_vec % self.p

    def mul_matrix(self, a, side: str) -> np.ndarray:
        """Matrix of x ↦ a·x (side='left') or x ↦ x·a, acting on row vectors."""
        self.check_element(a)
        a = np.array([tuple(a)], dtype=np.int64) % self.p
        E = np.eye(self.dim, dtype=np.int64)
        if side == "left":
            P = products(a, E, self.struct, self.p)[0]
        else:
            P = products(E, a, self.struct, self.p)[:, 0]
        return mod(P, self.p).astype(np.int64)


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------

def _doubled(struct: np.ndarray, norm_form: np.ndarray, unit, mu: int):
    """(struct, norm form, unit) of the double of an algebra by mu, over Z.

    Indices < n are the old algebra, >= n the adjoined copy; K @ C[i] is
    the matrix of e_i·κ(e_j) over j.
    """
    n = len(unit)
    C, Ct = struct, struct.swapaxes(0, 1)
    K = _involution(norm_form, unit)
    C2 = np.zeros((2 * n, 2 * n, 2 * n), dtype=np.int64)
    C2[:n, :n, :n] = C                    # (a,0)*(b,0) = (ab, 0)
    C2[:n, n:, n:] = Ct                   # (a,0)*(0,y) = (0, y*a)
    C2[n:, :n, n:] = K @ C                # (0,x)*(b,0) = (0, x*k(b))
    C2[n:, n:, :n] = -mu * (K @ Ct)       # (0,x)*(0,y) = (-mu*k(y)*x, 0)
    Q2 = np.zeros((2 * n, 2 * n), dtype=np.int64)
    Q2[:n, :n] = norm_form
    Q2[n:, n:] = mu * norm_form
    return C2, Q2, tuple(unit) + (0,) * n


def _quaternions_z():
    """The 2x2 matrix units E_ab·E_bd = E_ad, the determinant, the identity."""
    C = np.zeros((4, 4, 4), dtype=np.int64)
    for a, b, d in itertools.product(range(2), repeat=3):
        C[2 * a + b, 2 * b + d, 2 * a + d] = 1
    Q = np.zeros((4, 4), dtype=np.int64)
    Q[0, 3], Q[1, 2] = 1, -1
    return C, Q, (1, 0, 0, 1)


STRUCT_Z, _NORM_FORM_Z, _UNIT = _doubled(*_quaternions_z(), -1)


def field_table(p: int) -> Algebra:
    """F_p itself, with the norm x²."""
    return Algebra([[[1]]], [[1]], (1,), p)


@lru_cache(maxsize=None)
def quaternion_table(p: int) -> Algebra:
    """The 2x2 matrix algebra with the determinant as its norm (cached)."""
    return Algebra(*_quaternions_z(), p)


def double(A: Algebra, mu: int) -> Algebra:
    """The Cayley–Dickson double of ``A`` by an invertible scalar mu.

    The adjoined generator v = (0, 1) satisfies v·v = −mu, and the
    doubled involution is (a, x) ↦ (κ(a), −x).  With mu = −1 two doublings
    of F_p (odd p) give the 2x2 matrix algebra up to a change of basis,
    and double(quaternion_table(p), −1) is the canonical split octonions.
    """
    mu %= A.p
    if mu == 0:
        raise ValueError("doubling scalar must be invertible")
    return Algebra(*_doubled(A.struct, A.norm_form, A.unit, mu), A.p)


# ---------------------------------------------------------------------------
# the canonical split octonions
# ---------------------------------------------------------------------------

class SplitOctonions(Algebra):
    """The canonical split octonions over F_p, with their named elements.

    Built from :data:`STRUCT_Z` when constructed; get the cached instance
    via :func:`algebra`.  The named elements are coordinate tuples, the
    same over every F_p.
    """

    p0 = (1, 0, 0, 0, 0, 0, 0, 0)        #: idempotent E11
    n0 = (0, 1, 0, 0, 0, 0, 0, 0)        #: square-zero E12, p0·n0 = n0, n0·p0 = 0
    nbar0 = (0, 0, 1, 0, 0, 0, 0, 0)     #: E21
    pbar0 = (0, 0, 0, 1, 0, 0, 0, 0)     #: complementary idempotent E22 = 1 − p0
    p0w = (0, 0, 0, 0, 1, 0, 0, 0)
    n0w = (0, 0, 0, 0, 0, 1, 0, 0)
    nbar0w = (0, 0, 0, 0, 0, 0, 1, 0)
    pbar0w = (0, 0, 0, 0, 0, 0, 0, 1)
    w = (0, 0, 0, 0, 1, 0, 0, 1)         #: the doubling unit, w·w = 1

    def __init__(self, p: int):
        super().__init__(STRUCT_Z, _NORM_FORM_Z, _UNIT, p)


@lru_cache(maxsize=None)
def algebra(p: int) -> SplitOctonions:
    """The (cached) split octonion context over F_p."""
    return SplitOctonions(p)

