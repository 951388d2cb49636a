"""Brute-force element-wise references for census records and orbits.

Every invariant is recomputed from products of basis elements with
``ctx.mul`` and from subspace spans and intersections, following the
classification theorems directly.  It shares no code with the batched
path in :mod:`splitoct.classify` beyond the algebra itself and the
subspace helpers, and is slow: tests compare the batched records with it.
Element orbits are found by a breadth-first search from one element at a
time, for comparison with the packed :func:`splitoct.autos.element_orbits`.
"""

from __future__ import annotations

import itertools

import numpy as np

from splitoct import field
from splitoct.algebra import DIM, algebra
from splitoct.classify import ClassificationError, OrbitLabel
from splitoct.linalg import nullspace
from splitoct.subspace import Subspace, intersect, radicals, span


def _has_one_sided_identity(space: Subspace, ctx, side: str) -> bool:
    for e in space.nonzero_elements():
        if side == "left":
            if all(ctx.mul(e, b) == b for b in space.rows):
                return True
        elif all(ctx.mul(b, e) == b for b in space.rows):
            return True
    return False


def _annihilator_space(space: Subspace, ctx, side: str) -> Subspace:
    """Elements a of the ambient space with a·A = 0 (side='left') or A·a = 0."""
    p = ctx.p
    E = np.eye(DIM, dtype=np.int64)
    blocks = []
    for b in space.rows:
        if side == "left":
            M = np.array([ctx.mul(E[i], b) for i in range(DIM)], dtype=np.int64)
        else:
            M = np.array([ctx.mul(b, E[i]) for i in range(DIM)], dtype=np.int64)
        blocks.append(M)
    big = np.concatenate(blocks, axis=1)       # (8, 8k); want a @ big = 0
    return span(nullspace(big.T % p, p), p)


def _minimal_poly_kind(t: int, n: int, p: int) -> str:
    roots = field.quadratic_roots(t, n, p)
    if len(roots) == 2:
        return "split"
    if len(roots) == 1:
        return "double"
    return "inseparable" if (p == 2 and t % p == 0) else "irreducible"


def label(space: Subspace) -> OrbitLabel:
    """The orbit label by the element-wise decision tree."""
    p = space.p
    ctx = algebra(p)
    k = space.dim
    if k == 0:
        return OrbitLabel.Zero
    if k == 8:
        return OrbitLabel.Full
    one = ctx.one.coords
    if not space.contains(one):
        if not totally_singular(space):
            raise ClassificationError("non-unital subalgebra is not totally singular")
        if k == 1:
            return OrbitLabel.Fp if ctx.trace(space.rows[0]) != 0 else OrbitLabel.Fn
        if k == 2:
            if all(not any(ctx.mul(u, v)) for u in space.rows for v in space.rows):
                return OrbitLabel.Q
            if _has_one_sided_identity(space, ctx, "left"):
                return OrbitLabel.FnFp
            if _has_one_sided_identity(space, ctx, "right"):
                return OrbitLabel.FnFpbar
        if k == 3:
            in_one_perp = all(ctx.trace(b) == 0 for b in space.rows)
            return OrbitLabel.HeisNOcapOn if in_one_perp else OrbitLabel.mOcapOn
        if k == 4:
            if intersect(_annihilator_space(space, ctx, "left"), space).dim > 0:
                return OrbitLabel.NO
            if intersect(_annihilator_space(space, ctx, "right"), space).dim > 0:
                return OrbitLabel.ON
        raise ClassificationError(f"singular subalgebra of dimension {k}")
    if k == 1:
        return OrbitLabel.F
    if k == 5:
        return OrbitLabel.Dim5
    if k == 6:
        return OrbitLabel.Dim6
    R, Q = radicals(space)
    if k == 2:
        gen = next(r for r in space.rows if not span([one], p).contains(r))
        kinds = {"split": OrbitLabel.S, "double": OrbitLabel.FplusFn,
                 "irreducible": OrbitLabel.E}
        return kinds[_minimal_poly_kind(ctx.trace(gen), ctx.norm(gen), p)]
    if k == 3:
        if R.dim == 1:
            return OrbitLabel.T
        if R.dim >= 2 and Q.dim >= 2:
            return OrbitLabel.FplusQ
    if k == 4:
        if R.dim == 0 and any(any(x) and ctx.norm(x) == 0 for x in space.elements()):
            return OrbitLabel.SplitQuat
        if Q.dim == 3:
            return OrbitLabel.FplusHeis
        if R.dim == 2 and Q.dim == 2:
            lift_excl = span([one] + list(R.rows), p)
            gen = next(r for r in space.rows if not lift_excl.contains(r))
            kind = _minimal_poly_kind(ctx.trace(gen), ctx.norm(gen), p)
            kinds = {"split": OrbitLabel.SplusQ, "irreducible": OrbitLabel.EplusQ}
            if kind in kinds:
                return kinds[kind]
    raise ClassificationError(f"unital subalgebra of dimension {k} with R={R.dim}")


def totally_singular(space: Subspace) -> bool:
    ctx = algebra(space.p)
    rows = space.rows
    return all(ctx.norm(u) == 0 for u in rows) and all(
        ctx.polar(u, v) == 0 for i, u in enumerate(rows) for v in rows[i + 1:])


def record_fields(space: Subspace) -> dict:
    """Every field of a census record, computed element-wise."""
    ctx = algebra(space.p)
    rows = space.rows
    R, Q = radicals(space)
    return {
        "dim": space.dim,
        "contains_one": space.contains(ctx.one.coords),
        "totally_singular": totally_singular(space),
        "radical_R_dim": R.dim,
        "radical_Q_dim": Q.dim,
        "associative": all(ctx.mul(ctx.mul(u, v), t) == ctx.mul(u, ctx.mul(v, t))
                           for u in rows for v in rows for t in rows),
        "commutative": all(ctx.mul(u, v) == ctx.mul(v, u) for u in rows for v in rows),
        "label": label(space),
    }


def element_orbits(generators, p: int) -> list[set]:
    """Orbits of the nonzero elements, one breadth-first search per orbit.

    Each visited element is mapped by every generator at once; an element
    is keyed by its int8 coordinate bytes.  Orbits are listed by their
    first element in the order of Σ c_j·p^j, i.e. with the last coordinate
    most significant.
    """
    stack = np.array([g.mat for g in generators], dtype=np.int64)
    seen: set = set()
    orbits = []
    for digits in itertools.product(range(p), repeat=DIM):
        v = bytes(digits[::-1])
        if not any(v) or v in seen:
            continue
        orbit = {v}
        frontier = [v]
        while frontier:
            x = np.frombuffer(frontier.pop(), dtype=np.int8).astype(np.int64)
            images = (x @ stack % p).astype(np.int8).tobytes()
            for i in range(0, len(images), DIM):
                y = images[i:i + DIM]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        orbits.append({tuple(y) for y in orbit})
    return orbits
