"""Constructors for the named subalgebras of the split octonions.

Covers: doubling a 2x2-matrix subalgebra along a compatible right ideal,
Heisenberg spans, the maximal totally singular spaces a·O and O·a,
centralizers, and one canonical representative subspace per orbit label.
"""

from __future__ import annotations

import numpy as np

from . import field
from .algebra import DIM, Octonion, SplitOctonions, algebra, _qconj_z, _qmul_z
from .classify import LABEL_DIM, OrbitLabel
from .linalg import nullspace
from .subspace import Subspace, full_space, span, zero_space


class PreconditionFailed(ValueError):
    """A constructor's documented precondition does not hold."""


class UnreachableLabel(ValueError):
    """Requested an orbit representative that no finite field realizes."""


def _coerce_quat_rows(space: Subspace | list, p: int) -> list[tuple[int, ...]]:
    """Rows of a subspace of the 2x2-matrix part, as coordinate 4-tuples."""
    if isinstance(space, Subspace):
        rows = space.rows
        if space.ambient == 4:
            return [tuple(r) for r in rows]
        if space.ambient != DIM:
            raise ValueError(f"ambient dimension {space.ambient} is neither 4 nor {DIM}")
        for r in rows:
            if any(r[4:]):
                raise PreconditionFailed("subspace is not inside the 2x2-matrix part")
        return [tuple(r[:4]) for r in rows]
    return [tuple(r)[:4] if len(tuple(r)) == DIM else tuple(r) for r in space]


def right_ideal_double(A, R, p: int) -> Subspace:
    """The subalgebra A + R·w of O, for A a 2x2-matrix subalgebra and R a
    right ideal slice compatible with it.

    Preconditions (each checked): A closed under the matrix product;
    R·A ⊆ R; conj(R)·R ⊆ A.
    """
    a_rows = _coerce_quat_rows(A, p)
    r_rows = _coerce_quat_rows(R, p)
    a_space = span([r + (0, 0, 0, 0) for r in a_rows], p)

    def qmul(x, y):
        return tuple(c % p for c in _qmul_z(x, y))

    for u in a_rows:
        for v in a_rows:
            if not a_space.contains(qmul(u, v) + (0, 0, 0, 0)):
                raise PreconditionFailed("A is not closed under the matrix product")
    r_space = span([r + (0, 0, 0, 0) for r in r_rows], p)
    for u in r_rows:
        for v in a_rows:
            if not r_space.contains(qmul(u, v) + (0, 0, 0, 0)):
                raise PreconditionFailed("R·A is not contained in R")
    for u in r_rows:
        ku = tuple(c % p for c in _qconj_z(u))
        for v in r_rows:
            if not a_space.contains(qmul(ku, v) + (0, 0, 0, 0)):
                raise PreconditionFailed("conj(R)·R is not contained in A")
    vectors = [r + (0, 0, 0, 0) for r in a_rows] + [(0, 0, 0, 0) + r for r in r_rows]
    return span(vectors, p)


def heisenberg(a, b) -> Subspace:
    """span{a, b, ab} for nilpotent generators: the Heisenberg span.

    Preconditions: a ≠ 0 nilpotent; b nilpotent, orthogonal to a, and
    independent from {1, a}.  Result has dimension 3 (Heisenberg) when
    ab ≠ 0, or dimension 2 with all products zero when ab = 0.
    """
    ca = tuple(getattr(a, "coords", a))
    cb = tuple(getattr(b, "coords", b))
    p = getattr(a, "p", None) or getattr(b, "p")
    ctx = algebra(p)
    if not any(ca) or ctx.norm(ca) != 0 or ctx.trace(ca) != 0:
        raise PreconditionFailed("first generator must be nonzero nilpotent")
    if ctx.norm(cb) != 0 or ctx.trace(cb) != 0:
        raise PreconditionFailed("second generator must be nilpotent")
    if ctx.polar(ca, cb) != 0:
        raise PreconditionFailed("generators must be orthogonal")
    if span([ctx.one.coords, ca], p).contains(cb):
        raise PreconditionFailed("second generator must be independent from 1 and the first")
    ab = ctx.mul(ca, cb)
    return span([ca, cb, ab], p)


def _mul_matrix(ctx: SplitOctonions, a, side: str) -> np.ndarray:
    """Matrix of x ↦ a·x (side='left') or x ↦ x·a, acting on row vectors."""
    E = np.eye(DIM, dtype=np.int64)
    if side == "left":
        rows = [ctx.mul(a, E[i]) for i in range(DIM)]
    else:
        rows = [ctx.mul(E[i], a) for i in range(DIM)]
    return np.array(rows, dtype=np.int64)


def left_mul_space(a) -> Subspace:
    """a·O: the image of left multiplication by a."""
    ca = tuple(getattr(a, "coords", a))
    p = getattr(a, "p")
    ctx = algebra(p)
    E = np.eye(DIM, dtype=np.int64)
    return span([ctx.mul(ca, E[i]) for i in range(DIM)], p)


def right_mul_space(a) -> Subspace:
    """O·a: the image of right multiplication by a."""
    ca = tuple(getattr(a, "coords", a))
    p = getattr(a, "p")
    ctx = algebra(p)
    E = np.eye(DIM, dtype=np.int64)
    return span([ctx.mul(E[i], ca) for i in range(DIM)], p)


def kernel_of_left_mul(a) -> Subspace:
    """ker λ_a = {x : a·x = 0}; for singular a ≠ 0 equals conj(a)·O."""
    ca = tuple(getattr(a, "coords", a))
    p = getattr(a, "p")
    ctx = algebra(p)
    # row i of M is a·e_i, so (x @ M) = a·x; the kernel is the left null space
    M = _mul_matrix(ctx, ca, "left")
    ker = nullspace(M.T % p, p)
    return span(ker, p)


def centralizer(v) -> Subspace:
    """{x : x·v = v·x}, computed as the kernel of x ↦ xv − vx."""
    cv = tuple(getattr(v, "coords", v))
    p = getattr(v, "p")
    ctx = algebra(p)
    M = (_mul_matrix(ctx, cv, "right") - _mul_matrix(ctx, cv, "left")) % p
    ker = nullspace(M.T, p)
    return span(ker, p)


# ---------------------------------------------------------------------------
# canonical orbit representatives
# ---------------------------------------------------------------------------

def smallest_irreducible_quadratic(p: int) -> tuple[int, int]:
    """Coefficients (b, c), lexicographically smallest, with X²+bX+c
    irreducible over F_p."""
    for b in range(p):
        for c in range(p):
            if not field.quadratic_roots(-b, c, p):
                return b, c
    raise AssertionError("every finite field admits an irreducible quadratic")


def companion_element(p: int) -> Octonion:
    """The companion matrix of the canonical irreducible quadratic, as an
    octonion in the 2x2-matrix part; generates a copy of F_{p²}."""
    b, c = smallest_irreducible_quadratic(p)
    ctx = algebra(p)
    return ctx.from_matrices((0, (-c) % p, 1, (-b) % p))


def rep(label: OrbitLabel, p: int) -> Subspace:
    """A concrete closed subspace with classify(rep(L)) = L."""
    if not label.reachable:
        raise UnreachableLabel(f"label {label.value} has no finite-field instance")
    ctx = algebra(p)
    one, p0, pbar0, n0 = ctx.one.coords, ctx.p0.coords, ctx.pbar0.coords, ctx.n0.coords
    nbar0 = ctx.nbar0.coords
    p0w, n0w, pbar0w = ctx.p0w.coords, ctx.n0w.coords, ctx.pbar0w.coords
    z = companion_element(p).coords
    table = {
        OrbitLabel.Zero: [],
        OrbitLabel.F: [one],
        OrbitLabel.Fp: [p0],
        OrbitLabel.Fn: [n0],
        OrbitLabel.S: [one, p0],
        OrbitLabel.FplusFn: [one, n0],
        OrbitLabel.FnFp: [p0, n0],
        OrbitLabel.FnFpbar: [pbar0, n0],
        OrbitLabel.Q: [p0w, n0w],
        OrbitLabel.E: [one, z],
        OrbitLabel.T: [one, p0, n0],
        OrbitLabel.FplusQ: [one, p0w, n0w],
        OrbitLabel.mOcapOn: [p0, p0w, n0w],
        OrbitLabel.HeisNOcapOn: [n0, n0w, pbar0w],
        OrbitLabel.SplitQuat: [p0, n0, nbar0, pbar0],
        OrbitLabel.SplusQ: [one, p0, p0w, n0w],
        OrbitLabel.EplusQ: [one, z, p0w, n0w],
        OrbitLabel.FplusHeis: [one, n0, n0w, pbar0w],
        OrbitLabel.NO: [p0, n0, n0w, pbar0w],
        OrbitLabel.ON: [n0, pbar0, n0w, pbar0w],
        OrbitLabel.Dim5: [p0, n0, pbar0, n0w, pbar0w],
        OrbitLabel.Dim6: [p0, n0, nbar0, pbar0, p0w, n0w],
        OrbitLabel.Full: list(np.eye(DIM, dtype=np.int64)),
    }
    vectors = table[label]
    if not vectors:
        return zero_space(p)
    out = span(vectors, p)
    if out.dim != LABEL_DIM[label]:
        raise ArithmeticError(f"representative of {label.value} has dimension {out.dim}")
    return out


def standard_quaternions(p: int) -> Subspace:
    """The 2x2-matrix part as a subspace of O."""
    return rep(OrbitLabel.SplitQuat, p)


def upper_triangular(p: int) -> Subspace:
    ctx = algebra(p)
    return span([ctx.p0.coords, ctx.n0.coords, ctx.pbar0.coords], p)


def top_row_ideal(p: int) -> Subspace:
    """L = {X : (0,1)·X = 0}, the top-row right ideal of the matrix part."""
    ctx = algebra(p)
    return span([ctx.p0.coords, ctx.n0.coords], p)
