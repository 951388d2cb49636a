"""The split octonion algebra over F_p, built by doubling 2x2 matrices.

The quaternion level is the full 2x2 matrix algebra over F_p with the
determinant as its multiplicative norm and the adjugate as its standard
involution.  The octonion level glues two copies together: elements are
pairs ``a + x*w`` with ``a, x`` 2x2 matrices, ``w*w = 1``, and product

    (a + x*w) * (b + y*w)  =  (a*b + conj(y)*x)  +  (y*a + x*conj(b))*w.

Fixed coordinate order (index = coordinate position):

    0: E11   1: E12   2: E21   3: E22   4: E11*w  5: E12*w  6: E21*w  7: E22*w

so the identity is (1,0,0,1,0,0,0,0) and w is (0,0,0,0,1,0,0,1).  The
structure constants are integers in {-1,0,1} independent of p; each field
gets them reduced mod p.  For p = 2 every element packs into one byte
(bit c = coordinate c) and the whole multiplication is a 256x256 table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import field
from .linalg import mat_inv

DIM = 8
BASIS_NAMES = ("E11", "E12", "E21", "E22", "E11w", "E12w", "E21w", "E22w")


# ---------------------------------------------------------------------------
# quaternion (2x2 matrix) layer over Z, used to derive structure constants
# ---------------------------------------------------------------------------

def _qmul_z(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """2x2 matrix product on coordinate 4-tuples (row-major), over Z."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _qconj_z(x: tuple[int, ...]) -> tuple[int, ...]:
    """Adjugate [[d,-b],[-c,a]]; the standard involution of the 2x2 algebra."""
    return (x[3], -x[1], -x[2], x[0])


def _octo_mul_z(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Doubling product on integer 8-tuples (halves = matrix coordinates)."""
    a, x = u[:4], u[4:]
    b, y = v[:4], v[4:]
    h = _qmul_z(a, b)
    k = _qmul_z(_qconj_z(y), x)
    wa = _qmul_z(y, a)
    wb = _qmul_z(x, _qconj_z(b))
    return tuple(h[i] + k[i] for i in range(4)) + tuple(wa[i] + wb[i] for i in range(4))


def _struct_constants_z() -> np.ndarray:
    """C[i,j,k] = coordinate k of e_i * e_j, entries in {-1,0,1}."""
    C = np.zeros((DIM, DIM, DIM), dtype=np.int64)
    basis = [tuple(int(i == j) for j in range(DIM)) for i in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            C[i, j] = _octo_mul_z(basis[i], basis[j])
    return C


STRUCT_Z = _struct_constants_z()

# conj(a + x*w) = conj(a) - x*w, as an 8x8 matrix acting on row vectors
CONJ_Z = np.zeros((DIM, DIM), dtype=np.int64)
for _i, _img in enumerate(
    [(3, 1), (1, -1), (2, -1), (0, 1), (4, -1), (5, -1), (6, -1), (7, -1)]
):
    CONJ_Z[_i, _img[0]] = _img[1]

# Gram matrix of the polar form (u|v) = N(u+v) - N(u) - N(v)
_GH = np.zeros((4, 4), dtype=np.int64)
_GH[0, 3] = _GH[3, 0] = 1
_GH[1, 2] = _GH[2, 1] = -1
GRAM_Z = np.zeros((DIM, DIM), dtype=np.int64)
GRAM_Z[:4, :4] = _GH
GRAM_Z[4:, 4:] = -_GH


# ---------------------------------------------------------------------------
# per-field context
# ---------------------------------------------------------------------------

class SplitOctonions:
    """All fixed data for the split octonions over one prime field.

    Instances are cached; get one via :func:`algebra`.
    """

    def __init__(self, p: int):
        field.check_prime(p)
        self.p = p
        self.struct = STRUCT_Z % p                      # (8,8,8)
        self.conj_mat = CONJ_Z % p                      # (8,8)
        self.gram = GRAM_Z % p                          # (8,8)
        if p == 2:
            self._build_byte_tables()

    # -- scalar-level operations on coordinate tuples ----------------------

    def mul(self, u, v) -> tuple[int, ...]:
        w = _octo_mul_z(tuple(u), tuple(v))
        return tuple(c % self.p for c in w)

    def conj(self, u) -> tuple[int, ...]:
        u = tuple(u)
        p = self.p
        return (u[3], -u[1] % p, -u[2] % p, u[0],
                -u[4] % p, -u[5] % p, -u[6] % p, -u[7] % p)

    def norm(self, u) -> int:
        u = tuple(u)
        return (u[0] * u[3] - u[1] * u[2] - (u[4] * u[7] - u[5] * u[6])) % self.p

    def trace(self, u) -> int:
        return (u[0] + u[3]) % self.p

    def polar(self, u, v) -> int:
        """Bilinear form (u|v) = N(u+v) - N(u) - N(v)."""
        g = GRAM_Z
        u = np.asarray(tuple(u), dtype=np.int64)
        v = np.asarray(tuple(v), dtype=np.int64)
        return int(u @ g @ v % self.p)

    def inverse(self, u) -> tuple[int, ...]:
        n = self.norm(u)
        if n == 0:
            raise ZeroDivisionError("element has norm 0, not invertible")
        ninv = field.inv(n, self.p)
        return tuple(c * ninv % self.p for c in self.conj(u))

    def add(self, u, v) -> tuple[int, ...]:
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def subv(self, u, v) -> tuple[int, ...]:
        return tuple((a - b) % self.p for a, b in zip(u, v))

    def smul(self, c: int, u) -> tuple[int, ...]:
        return tuple(c * a % self.p for a in u)

    # -- element containers -------------------------------------------------

    def octonion(self, coords) -> "Octonion":
        return Octonion(tuple(int(c) % self.p for c in coords), self.p)

    def from_matrices(self, a, x=(0, 0, 0, 0)) -> "Octonion":
        """Octonion a + x*w from two row-major 2x2 coordinate 4-tuples."""
        return self.octonion(tuple(a) + tuple(x))

    # -- distinguished elements ---------------------------------------------

    @property
    def zero(self) -> "Octonion":
        return self.octonion((0,) * 8)

    @property
    def one(self) -> "Octonion":
        return self.octonion((1, 0, 0, 1, 0, 0, 0, 0))

    @property
    def w(self) -> "Octonion":
        return self.octonion((0, 0, 0, 0, 1, 0, 0, 1))

    @property
    def p0(self) -> "Octonion":
        """Idempotent E11."""
        return self.octonion((1, 0, 0, 0, 0, 0, 0, 0))

    @property
    def pbar0(self) -> "Octonion":
        """Complementary idempotent E22 = 1 - p0."""
        return self.octonion((0, 0, 0, 1, 0, 0, 0, 0))

    @property
    def n0(self) -> "Octonion":
        """Square-zero element E12 with p0*n0 = n0, n0*p0 = 0."""
        return self.octonion((0, 1, 0, 0, 0, 0, 0, 0))

    @property
    def nbar0(self) -> "Octonion":
        return self.octonion((0, 0, 1, 0, 0, 0, 0, 0))

    @property
    def p0w(self) -> "Octonion":
        return self.octonion((0, 0, 0, 0, 1, 0, 0, 0))

    @property
    def n0w(self) -> "Octonion":
        return self.octonion((0, 0, 0, 0, 0, 1, 0, 0))

    @property
    def pbar0w(self) -> "Octonion":
        return self.octonion((0, 0, 0, 0, 0, 0, 0, 1))

    @property
    def nbar0w(self) -> "Octonion":
        return self.octonion((0, 0, 0, 0, 0, 0, 1, 0))

    # -- byte tables for p = 2 ----------------------------------------------

    def _build_byte_tables(self) -> None:
        bits = np.arange(256, dtype=np.uint16)
        coords = ((bits[:, None] >> np.arange(8)) & 1).astype(np.int64)  # (256,8)
        self.byte_coords = coords
        C2 = self.struct.astype(np.int64)
        prod = np.einsum("ia,jb,abc->ijc", coords, coords, C2) % 2
        weights = 1 << np.arange(8)
        self.mul_byte = (prod * weights).sum(-1).astype(np.uint8)        # (256,256)
        self.conj_byte = ((coords @ self.conj_mat % 2) * weights).sum(-1).astype(np.uint8)
        c = coords
        self.norm_byte = ((c[:, 0] * c[:, 3] + c[:, 1] * c[:, 2]
                           + c[:, 4] * c[:, 7] + c[:, 5] * c[:, 6]) % 2).astype(np.uint8)
        self.trace_byte = ((c[:, 0] + c[:, 3]) % 2).astype(np.uint8)

    def byte_of(self, u) -> int:
        if self.p != 2:
            raise ValueError("byte packing exists only over F_2")
        return sum((int(c) & 1) << i for i, c in enumerate(u))

    def coords_of_byte(self, b: int) -> tuple[int, ...]:
        if self.p != 2:
            raise ValueError("byte packing exists only over F_2")
        return tuple(int(x) for x in self.byte_coords[b])


@lru_cache(maxsize=None)
def algebra(p: int) -> SplitOctonions:
    """The (cached) split octonion context over F_p."""
    return SplitOctonions(p)


# ---------------------------------------------------------------------------
# element wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Octonion:
    """One split octonion: an 8-tuple of F_p coordinates plus the prime."""

    coords: tuple[int, ...]
    p: int

    def __post_init__(self):
        if len(self.coords) != DIM:
            raise ValueError(f"an octonion has {DIM} coordinates, got {len(self.coords)}")

    def _ctx(self) -> SplitOctonions:
        return algebra(self.p)

    def _same_field(self, other: "Octonion") -> None:
        if self.p != other.p:
            raise ValueError(f"cannot combine elements over F_{self.p} and F_{other.p}")

    def __add__(self, other: "Octonion") -> "Octonion":
        self._same_field(other)
        return Octonion(self._ctx().add(self.coords, other.coords), self.p)

    def __sub__(self, other: "Octonion") -> "Octonion":
        self._same_field(other)
        return Octonion(self._ctx().subv(self.coords, other.coords), self.p)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            self._same_field(other)
            return Octonion(self._ctx().mul(self.coords, other.coords), self.p)
        return Octonion(self._ctx().smul(int(other), self.coords), self.p)

    def __rmul__(self, scalar: int) -> "Octonion":
        return Octonion(self._ctx().smul(int(scalar), self.coords), self.p)

    def __neg__(self) -> "Octonion":
        return Octonion(self._ctx().smul(-1, self.coords), self.p)

    def conj(self) -> "Octonion":
        return Octonion(self._ctx().conj(self.coords), self.p)

    def norm(self) -> int:
        return self._ctx().norm(self.coords)

    def trace(self) -> int:
        return self._ctx().trace(self.coords)

    def polar(self, other: "Octonion") -> int:
        return self._ctx().polar(self.coords, other.coords)

    def inverse(self) -> "Octonion":
        return Octonion(self._ctx().inverse(self.coords), self.p)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self) -> str:
        terms = [f"{c}*{BASIS_NAMES[i]}" for i, c in enumerate(self.coords) if c]
        return "Octonion(%s; p=%d)" % (" + ".join(terms) or "0", self.p)


# ---------------------------------------------------------------------------
# generic doubling and isotopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table:
    """A finite-dimensional unital algebra with involution, by its tables.

    ``struct[i,j,k]`` is coordinate k of e_i*e_j, ``inv_mat`` the involution
    as a matrix on row vectors, ``unit`` the coordinates of 1, all mod p.
    """

    dim: int
    struct: tuple      # nested tuples, shape (dim, dim, dim)
    inv_mat: tuple     # shape (dim, dim)
    unit: tuple        # shape (dim,)
    p: int

    def np_struct(self) -> np.ndarray:
        return np.array(self.struct, dtype=np.int64)

    def np_inv(self) -> np.ndarray:
        return np.array(self.inv_mat, dtype=np.int64)

    def mul(self, u, v) -> tuple[int, ...]:
        C = self.np_struct()
        out = np.einsum("i,j,ijk->k", np.array(u, dtype=np.int64),
                        np.array(v, dtype=np.int64), C) % self.p
        return tuple(int(c) for c in out)

    def involve(self, u) -> tuple[int, ...]:
        out = np.array(u, dtype=np.int64) @ self.np_inv() % self.p
        return tuple(int(c) for c in out)


def _to_nested(a: np.ndarray):
    return tuple(map(tuple, a)) if a.ndim == 2 else tuple(
        _to_nested(x) for x in a)


def field_table(p: int) -> Table:
    """F_p itself, with the identity involution."""
    field.check_prime(p)
    return Table(1, (((1,),),), ((1,),), (1,), p)


def quaternion_table(p: int) -> Table:
    """The 2x2 matrix algebra with the adjugate involution."""
    field.check_prime(p)
    C = np.zeros((4, 4, 4), dtype=np.int64)
    basis = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    for i in range(4):
        for j in range(4):
            C[i, j] = _qmul_z(basis[i], basis[j])
    K = np.zeros((4, 4), dtype=np.int64)
    for i, img in enumerate([(3, 1), (1, -1), (2, -1), (0, 1)]):
        K[i, img[0]] = img[1]
    return Table(4, _to_nested(C % p), _to_nested(K % p), (1, 0, 0, 1), p)


def octonion_table(p: int) -> Table:
    """The canonical split octonion table (same data as :func:`algebra`)."""
    ctx = algebra(p)
    return Table(8, _to_nested(ctx.struct), _to_nested(ctx.conj_mat),
                 (1, 0, 0, 1, 0, 0, 0, 0), p)


def double(table: Table, mu: int) -> Table:
    """Double an algebra-with-involution by an invertible scalar mu.

    The doubled product on pairs (a, x), (b, y) is
    ``(a*b - mu*inv(y)*x,  y*a + x*inv(b))`` and the doubled involution is
    ``(a, x) |-> (inv(a), -x)``; the adjoined generator v = (0, 1) satisfies
    v*v = -mu.  With mu = -1 (so v*v = 1) two doublings of F_p give the 2x2
    matrix algebra and three give the split octonions.
    """
    p = table.p
    mu %= p
    if mu == 0:
        raise ValueError("doubling scalar must be invertible")
    n = table.dim
    C = table.np_struct()
    K = table.np_inv()
    C2 = np.zeros((2 * n, 2 * n, 2 * n), dtype=np.int64)
    # blocks: indices < n are the old algebra, >= n the adjoined copy
    E = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            a, b = E[i], E[j]
            # (a,0)*(b,0) = (ab, 0)
            C2[i, j, :n] = np.einsum("i,j,ijk->k", a, b, C)
            # (a,0)*(0,y) = (0, y*a)
            C2[i, n + j, n:] = np.einsum("i,j,ijk->k", b, a, C)
            # (0,x)*(b,0) = (0, x*inv(b))
            C2[n + i, j, n:] = np.einsum("i,j,ijk->k", a, b @ K, C)
            # (0,x)*(0,y) = (-mu*inv(y)*x, 0)
            C2[n + i, n + j, :n] = -mu * np.einsum("i,j,ijk->k", b @ K, a, C)
    C2 %= p
    K2 = np.zeros((2 * n, 2 * n), dtype=np.int64)
    K2[:n, :n] = K
    K2[n:, n:] = (-E) % p
    unit2 = tuple(table.unit) + (0,) * n
    return Table(2 * n, _to_nested(C2), _to_nested(K2 % p), unit2, p)


class Isotope:
    """Unital isotope x*y = (x/a) · (b\\y) of the split octonions.

    Requires N(a) and N(b) nonzero.  The new product has neutral element
    ``b·a`` and satisfies  norm_scale · N(x*y) = N(x) · N(y)  with
    ``norm_scale = N(b·a)``.
    """

    def __init__(self, ctx: SplitOctonions, a, x_b):
        a = tuple(a)
        b = tuple(x_b)
        self.ctx = ctx
        if ctx.norm(a) == 0 or ctx.norm(b) == 0:
            raise ZeroDivisionError("isotope requires invertible units")
        self.a, self.b = a, b
        E = np.eye(DIM, dtype=np.int64)
        R = np.array([ctx.mul(E[i], a) for i in range(DIM)], dtype=np.int64)
        L = np.array([ctx.mul(b, E[i]) for i in range(DIM)], dtype=np.int64)
        self._R_inv = mat_inv(R, ctx.p)
        self._L_inv = mat_inv(L, ctx.p)
        self.neutral = ctx.mul(b, a)
        self.norm_scale = ctx.norm(self.neutral)

    def mul(self, u, v) -> tuple[int, ...]:
        p = self.ctx.p
        x = np.array(tuple(u), dtype=np.int64) @ self._R_inv % p
        y = np.array(tuple(v), dtype=np.int64) @ self._L_inv % p
        return self.ctx.mul(tuple(int(c) for c in x), tuple(int(c) for c in y))


def isotope(ctx: SplitOctonions, a, b) -> Isotope:
    return Isotope(ctx, a, b)
