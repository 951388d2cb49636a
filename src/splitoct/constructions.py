"""Constructors for the named subalgebras of the split octonions.

Covers: doubling a 2x2-matrix subalgebra along a compatible right ideal,
Heisenberg spans, the maximal totally singular spaces a·O and O·a,
centralizers, and one canonical representative subspace per orbit label.
"""

from __future__ import annotations

import numpy as np

from . import field
from .algebra import DIM, Algebra, SplitOctonions, algebra, quaternion_table
from .classify import LABEL_DIM, OrbitLabel
from .linalg import nullspace
from .subspace import Subspace, closed_bases, span, zero_space


class PreconditionFailed(ValueError):
    """A constructor's documented precondition does not hold."""


class UnreachableLabel(ValueError):
    """Requested an orbit representative that no finite field realizes."""


def _coerce_quat_rows(space: Subspace) -> list[tuple[int, ...]]:
    """Rows of a subspace of the 2x2-matrix part, as coordinate 4-tuples."""
    if space.ambient != DIM:
        raise ValueError(f"ambient dimension {space.ambient} is not {DIM}")
    for r in space.rows:
        if any(r[4:]):
            raise PreconditionFailed("subspace is not inside the 2x2-matrix part")
    return [tuple(r[:4]) for r in space.rows]


def right_ideal_double(A: Subspace, R: Subspace, p: int) -> Subspace:
    """The subalgebra A + R·w of O, for A a 2x2-matrix subalgebra and R a
    right ideal slice compatible with it.

    Preconditions (each checked): A closed under the matrix product;
    R·A ⊆ R; conj(R)·R ⊆ A.
    """
    a_rows = _coerce_quat_rows(A)
    r_rows = _coerce_quat_rows(R)
    a_space = span([r + (0, 0, 0, 0) for r in a_rows], p)
    if not closed_bases(a_space.matrix()[None], algebra(p))[0]:    # (a, 0)(b, 0) = (ab, 0)
        raise PreconditionFailed("A is not closed under the matrix product")
    H = quaternion_table(p)
    r_space = span([r + (0, 0, 0, 0) for r in r_rows], p)
    for u in r_rows:
        for v in a_rows:
            if not r_space.contains(H.mul(u, v) + (0, 0, 0, 0)):
                raise PreconditionFailed("R·A is not contained in R")
    for u in r_rows:
        ku = H.conj(u)
        for v in r_rows:
            if not a_space.contains(H.mul(ku, v) + (0, 0, 0, 0)):
                raise PreconditionFailed("conj(R)·R is not contained in A")
    vectors = [r + (0, 0, 0, 0) for r in a_rows] + [(0, 0, 0, 0) + r for r in r_rows]
    return span(vectors, p)


def heisenberg(a, b, A: Algebra) -> Subspace:
    """span{a, b, ab} for nilpotent generators of ``A``: the Heisenberg span.

    Preconditions: a ≠ 0 nilpotent; b nilpotent, orthogonal to a, and
    independent from {1, a}.  Result has dimension 3 (Heisenberg) when
    ab ≠ 0, or dimension 2 with all products zero when ab = 0.
    """
    a, b = tuple(a), tuple(b)
    A.check_element(a, b)
    if not any(a) or A.norm(a) != 0 or A.trace(a) != 0:
        raise PreconditionFailed("first generator must be nonzero nilpotent")
    if A.norm(b) != 0 or A.trace(b) != 0:
        raise PreconditionFailed("second generator must be nilpotent")
    if A.polar(a, b) != 0:
        raise PreconditionFailed("generators must be orthogonal")
    if span([A.unit, a], A.p, A.dim).contains(b):
        raise PreconditionFailed("second generator must be independent from 1 and the first")
    return span([a, b, A.mul(a, b)], A.p, A.dim)


def left_mul_space(a, A: Algebra) -> Subspace:
    """a·A: the image of left multiplication by a."""
    return span(A.mul_matrix(a, "left"), A.p, A.dim)


def right_mul_space(a, A: Algebra) -> Subspace:
    """A·a: the image of right multiplication by a."""
    return span(A.mul_matrix(a, "right"), A.p, A.dim)


def kernel_of_left_mul(a, A: Algebra) -> Subspace:
    """ker λ_a = {x : a·x = 0}; for singular a ≠ 0 equals conj(a)·A."""
    # row i of M is a·e_i, so (x @ M) = a·x; the kernel is the left null space
    M = A.mul_matrix(a, "left")
    return span(nullspace(M.T, A.p), A.p, A.dim)


def centralizer(v, A: Algebra) -> Subspace:
    """{x : x·v = v·x}, computed as the kernel of x ↦ xv − vx."""
    M = (A.mul_matrix(v, "right") - A.mul_matrix(v, "left")) % A.p
    return span(nullspace(M.T, A.p), A.p, A.dim)


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
    raise ArithmeticError("every finite field admits an irreducible quadratic")


def companion_element(p: int) -> tuple[int, ...]:
    """The companion matrix of the canonical irreducible quadratic, in the
    2x2-matrix part of ``algebra(p)``; generates a copy of F_{p²}."""
    b, c = smallest_irreducible_quadratic(p)
    return (0, (-c) % p, 1, (-b) % p, 0, 0, 0, 0)


def rep(label: OrbitLabel, p: int) -> Subspace:
    """A concrete closed subspace with classify(rep(L)) = L."""
    if not label.reachable:
        raise UnreachableLabel(f"label {label.value} has no finite-field instance")
    ctx = algebra(p)
    one, p0, pbar0, n0, nbar0 = ctx.unit, ctx.p0, ctx.pbar0, ctx.n0, ctx.nbar0
    p0w, n0w, pbar0w = ctx.p0w, ctx.n0w, ctx.pbar0w
    z = companion_element(p)
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
    return span([SplitOctonions.p0, SplitOctonions.n0, SplitOctonions.pbar0], p)


def top_row_ideal(p: int) -> Subspace:
    """L = {X : (0,1)·X = 0}, the top-row right ideal of the matrix part."""
    return span([SplitOctonions.p0, SplitOctonions.n0], p)
