"""Brute-force element-wise references for the algebra, census records
and orbits.

The canonical split octonions are restated from the README formulas:
pairs a + x·w of 2x2 matrices (row-major coordinates) with

    (a + x·w)·(b + y·w) = (a·b + adj(y)·x) + (y·a + x·adj(b))·w,
    N(a + x·w) = det(a) − det(x),  tr(a + x·w) = tr(a),
    κ(a + x·w) = adj(a) − x·w,

independently of the doubled tables in :mod:`splitoct.algebra`.  Every
invariant of a subspace of an algebra ``A`` (any table) is recomputed
from products of elements with ``A.mul`` and from subspace spans and
intersections, following the classification theorems directly.  It shares no code with the batched
path in :mod:`splitoct.classify` beyond the algebra itself and the
subspace helpers, and is slow: tests compare the batched records with it.
:func:`radicals` is the per-space reference for the radicals R and Q.
Element orbits are found by a breadth-first search from one element at a
time, for comparison with the packed :func:`splitoct.autos.element_orbits`,
and census orbits by one subspace BFS per orbit, for comparison with the
components of :func:`splitoct.autos.orbit_partition`.
Closure is tested product by product (:func:`closed_by_products`), for
comparison with the batched closure kernel of :mod:`splitoct.subspace`,
and every hyperplane lift is tested (:func:`closed_subspaces_unfiltered`),
for comparison with the square condition that
:func:`splitoct.subspace.closed_subspaces` filters the lifts by.
The closed sub-subspaces of a subalgebra come from testing every one of
its subspaces, for comparison with the pruned
:func:`splitoct.lattice.subalgebras_inside`, and
:func:`enumerate_subspaces` lists every subspace of F_p^n one by one,
and :func:`isotropic` finds a nonzero norm-zero element of each subspace
of a stack by trying every element.
:func:`byte_tables` holds the operations of an algebra over F_2^8 as
tables on packed bytes, for element-by-element brute force over F_2.
The small helpers at the end (:func:`full_space`, :func:`elements`,
:func:`nonzero_elements`, :func:`contains_space`,
:func:`identity_automorphism`, :func:`dim_total`) serve only the tests.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from splitoct import field
from splitoct.algebra import DIM, mod, products
from splitoct.autos import Automorphism, orbit_of_space
from splitoct.classify import ClassificationError, OrbitLabel
from splitoct.linalg import mat_inv, nullspace
from splitoct.subspace import (Subspace, closed_mask, intersect, perp,
                               pivot_block, span, substructure)


def _mat_mul(x, y) -> tuple[int, ...]:
    """2x2 matrix product on row-major coordinate 4-tuples."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _adj(x) -> tuple[int, ...]:
    """Adjugate [[d,-b],[-c,a]] of a 2x2 matrix."""
    return (x[3], -x[1], -x[2], x[0])


def octonion_mul(u, v, p: int) -> tuple[int, ...]:
    """The doubling product of two coordinate 8-tuples, mod p."""
    a, x, b, y = u[:4], u[4:], v[:4], v[4:]
    h, k = _mat_mul(a, b), _mat_mul(_adj(y), x)
    wa, wb = _mat_mul(y, a), _mat_mul(x, _adj(b))
    return tuple((h[i] + k[i]) % p for i in range(4)) + tuple(
        (wa[i] + wb[i]) % p for i in range(4))


def octonion_conj(u, p: int) -> tuple[int, ...]:
    return tuple(c % p for c in _adj(u[:4]) + tuple(-c for c in u[4:]))


def octonion_norm(u, p: int) -> int:
    return (u[0] * u[3] - u[1] * u[2] - u[4] * u[7] + u[5] * u[6]) % p


def octonion_trace(u, p: int) -> int:
    return (u[0] + u[3]) % p


def _has_one_sided_identity(space: Subspace, ctx, side: str) -> bool:
    for e in nonzero_elements(space):
        if side == "left":
            if all(ctx.mul(e, b) == b for b in space.rows):
                return True
        elif all(ctx.mul(b, e) == b for b in space.rows):
            return True
    return False


def _annihilator_space(space: Subspace, ctx, side: str) -> Subspace:
    """Elements a of the ambient space with a·S = 0 (side='left') or S·a = 0."""
    p = ctx.p
    E = np.eye(ctx.dim, dtype=np.int64)
    blocks = []
    for b in space.rows:
        if side == "left":
            M = np.array([ctx.mul(e, b) for e in E], dtype=np.int64)
        else:
            M = np.array([ctx.mul(b, e) for e in E], dtype=np.int64)
        blocks.append(M)
    big = np.concatenate(blocks, axis=1)       # (n, nk); want a @ big = 0
    return span(nullspace(big.T % p, p), p, ctx.dim)


def _minimal_poly_kind(t: int, n: int, p: int) -> str:
    roots = field.quadratic_roots(t, n, p)
    if len(roots) == 2:
        return "split"
    if len(roots) == 1:
        return "double"
    return "inseparable" if (p == 2 and t % p == 0) else "irreducible"


def isotropic(rows: np.ndarray, A) -> np.ndarray:
    """Whether each basis of the stack ``rows`` (M, k, n) spans a subspace
    of ``A`` with a nonzero element of norm 0, from the norm of every
    nonzero combination of its rows."""
    X = np.array(list(itertools.product(range(A.p), repeat=rows.shape[1])))[1:]
    return (A.norms(X @ rows % A.p) == 0).any(1)


def label(space: Subspace, ctx) -> OrbitLabel:
    """The orbit label of a closed subspace of ``ctx`` by the element-wise
    decision tree."""
    p = space.p
    k = space.dim
    if k == 0:
        return OrbitLabel.Zero
    if k == 8:
        return OrbitLabel.Full
    one = ctx.unit
    if not space.contains(one):
        if not totally_singular(space, ctx):
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
    R, Q = radicals(space, ctx)
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
        if R.dim == 0 and any(ctx.norm(x) == 0 for x in nonzero_elements(space)):
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


def radicals(space: Subspace, A) -> tuple[Subspace, Subspace]:
    """(R, Q): the polar-form radical R = S ∩ S^⊥ of a subspace S of ``A``
    and its norm-zero part Q, the reference for the batched dim R and
    dim Q of :func:`splitoct.classify.batch_columns`.

    On R the polar form vanishes, so for odd p the norm is alternating there
    and Q = R; for p = 2 the norm restricted to R is F_2-linear and Q is its
    kernel.
    """
    p = A.p
    R = intersect(space, perp(space, A))
    for x in R.rows:
        for y in R.rows:
            if A.polar(x, y) != 0:
                raise ArithmeticError("polar form must vanish on the radical")
    if p != 2:
        for x in R.rows:
            if A.norm(x) != 0:
                raise ArithmeticError("odd characteristic: norm must vanish on the radical")
        return R, R
    if R.dim == 0:
        return R, R
    norms = np.array([[A.norm(r) for r in R.rows]], dtype=np.int64)
    ker = nullspace(norms, p)         # coefficient vectors
    Q = span((ker @ R.matrix()) % p, p, A.dim)
    return R, Q


def totally_singular(space: Subspace, ctx) -> bool:
    rows = space.rows
    return all(ctx.norm(u) == 0 for u in rows) and all(
        ctx.polar(u, v) == 0 for i, u in enumerate(rows) for v in rows[i + 1:])


def record_fields(space: Subspace, ctx) -> dict:
    """Every field of a census record of a subspace of ``ctx``, computed
    element-wise."""
    rows = space.rows
    R, Q = radicals(space, ctx)
    return {
        "dim": space.dim,
        "contains_one": space.contains(ctx.unit),
        "totally_singular": totally_singular(space, ctx),
        "radical_R_dim": R.dim,
        "radical_Q_dim": Q.dim,
        "associative": all(ctx.mul(ctx.mul(u, v), t) == ctx.mul(u, ctx.mul(v, t))
                           for u in rows for v in rows for t in rows),
        "commutative": all(ctx.mul(u, v) == ctx.mul(v, u) for u in rows for v in rows),
        "label": label(space, ctx),
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


def orbit_partition(records, generators) -> list[dict]:
    """The rows of :func:`splitoct.autos.orbit_partition`, one subspace BFS
    (:func:`splitoct.autos.orbit_of_space`) from the least unvisited record
    of each (dim, label) class at a time; raises ArithmeticError if an
    orbit leaves its class."""
    by_label: dict = {}
    for r in records:
        by_label.setdefault((r.dim, r.label), {})[r.space.rows] = r.space
    out = []
    for (dim, label), spaces in sorted(by_label.items(),
                                       key=lambda kv: (kv[0][0], kv[0][1].value)):
        remaining = dict(spaces)
        sizes = []
        while remaining:
            orbit = orbit_of_space(remaining[min(remaining)], generators)
            for key in orbit:
                if key not in remaining:
                    raise ArithmeticError(
                        f"orbit of a {label.value} record left its label class")
                del remaining[key]
            sizes.append(len(orbit))
        out.append({"dim": dim, "label": label.value,
                    "orbit_count": len(sizes), "orbit_sizes": sorted(sizes)})
    return out


def closed_by_products(mats, ctx) -> np.ndarray:
    """Per basis of the stack ``mats`` (M, k, n), zero rows allowed:
    whether its span holds every product ``ctx.mul(x, y)`` of two of its
    rows, tested one :meth:`Subspace.contains` at a time."""
    out = []
    for rows in np.asarray(mats).tolist():
        space = span(rows, ctx.p, ctx.dim)
        out.append(all(space.contains(ctx.mul(x, y)) for x in rows for y in rows))
    return np.array(out, dtype=bool)


def closed_inside(space: Subspace, ctx) -> set:
    """Every proper nonzero closed subspace of the closed ``space``, as a
    tuple of ambient RREF rows, found by testing all of its subspaces.

    Subspaces are enumerated in the space's own coordinates, where the
    structure constants are the space's; an RREF basis there maps to an
    RREF basis of the ambient because the space's basis is in RREF.
    """
    p, k = ctx.p, space.dim
    basis = space.matrix()
    struct = substructure(basis[None], ctx)[0]
    found = set()
    for r in range(1, k):
        for piv in itertools.combinations(range(k), r):
            mats = pivot_block(piv, p, k)
            rows = mats[closed_mask(mats, piv, struct, p)].astype(np.int64) @ basis % p
            found.update(tuple(map(tuple, m)) for m in rows.tolist())
    return found


def closed_subspaces_unfiltered(struct, unit, p: int, pivot_sets) -> dict:
    """Per dimension, the bases :func:`splitoct.subspace.closed_subspaces`
    yields for the quotient pivot sets ``pivot_sets`` (ordered by size),
    joined in its order, with no lift left out before the closure test:
    each closed unital U of dimension d + 1 has all p^d of its hyperplane
    lifts tested by ``closed_mask``.  The table is moved to the quotient
    basis (the unit last) by products and an inverse, not by an einsum."""
    unit = np.asarray(unit, dtype=np.int64) % p
    k = len(unit)
    basis = np.concatenate([np.delete(np.eye(k, dtype=np.int64), unit.argmax(), axis=0),
                            unit[None]])
    table = mod(products(basis, basis, struct, p), p).astype(np.int64) @ mat_inv(basis, p) % p
    found = {}
    for piv in pivot_sets:
        d, q = len(piv), pivot_block(piv, p, k - 1)
        U = np.zeros((len(q), d + 1, k), dtype=np.int8)
        U[:, :d, :-1], U[:, d, -1] = q, 1
        U = U[closed_mask(U, piv + (k - 1,), table, p)]
        lifts = np.repeat(U[:, :d], p ** d, axis=0)
        lifts[:, :, -1] = np.tile(np.array(list(itertools.product(range(p), repeat=d)),
                                           dtype=np.int8).reshape(p ** d, d), (len(U), 1))
        for mats in (U, lifts[closed_mask(lifts, piv, table, p)]):
            found.setdefault(mats.shape[1], []).append(mats.astype(np.int64) @ basis % p)
    return {dim: np.concatenate(stacks) for dim, stacks in found.items()}


def enumerate_subspaces(k: int, p: int, ambient: int = DIM):
    """Yield every k-dim subspace of F_p^ambient exactly once.

    Order: pivot-column sets lexicographically, then free entries
    lexicographically.
    """
    if not 0 <= k <= ambient:
        raise ValueError(f"dimension {k} is outside 0..{ambient}")
    for pivots in itertools.combinations(range(ambient), k):
        for m in pivot_block(pivots, p, ambient):
            yield Subspace(tuple(map(tuple, m.tolist())), p, ambient)


class _Bytes:
    """An F_2 algebra of dimension 8 on packed bytes (bit c of a byte is
    coordinate c); get it from :func:`byte_tables`.

    ``byte_coords`` (256, 8) holds the coordinates of each byte, and the
    uint8 tables ``mul_byte`` and ``polar_byte`` (256×256) and
    ``conj_byte``, ``norm_byte`` and ``trace_byte`` (256) the operations:
    products through :func:`splitoct.algebra.products`, and
    (x|y) = N(x+y) − N(x) − N(y), where + and − are XOR.  The methods read
    the tables with ``np.take``, the two-argument ones raveled at the
    uint16 pair index x << 8 | y.
    """

    def __init__(self, A):
        if A.p != 2 or A.dim != DIM:
            raise ValueError(f"byte packing exists only over F_2^{DIM}, not F_{A.p}^{A.dim}")
        bits = np.arange(256, dtype=np.uint16)
        coords = self.byte_coords = (np.arange(256)[:, None] >> np.arange(DIM)) & 1
        weights = 1 << np.arange(DIM)
        prod = mod(products(coords, coords, A.struct, 2), 2).astype(np.int64)
        self.mul_byte = (prod * weights).sum(-1).astype(np.uint8)
        self.conj_byte = ((coords @ A.conj_mat % 2) * weights).sum(-1).astype(np.uint8)
        norm = self.norm_byte = A.norms(coords).astype(np.uint8)
        self.trace_byte = A.traces(coords).astype(np.uint8)
        self.polar_byte = norm[bits[:, None] ^ bits] ^ norm[:, None] ^ norm
        self.mul_flat = self.mul_byte.ravel()
        self.polar_flat = self.polar_byte.ravel()
        self.one = np.uint8(self.byte_of(A.unit))

    @staticmethod
    def byte_of(u) -> int:
        return sum((int(c) & 1) << i for i, c in enumerate(u))

    def coords_of_byte(self, b: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.byte_coords[b])

    def mul(self, x, y):
        return np.take(self.mul_flat, (np.asarray(x, dtype=np.uint16) << 8) | y)

    def conj(self, x):
        return np.take(self.conj_byte, x)

    def norm(self, x):
        return np.take(self.norm_byte, x)

    def trace(self, x):
        return np.take(self.trace_byte, x)

    def polar(self, x, y):
        return np.take(self.polar_flat, (np.asarray(x, dtype=np.uint16) << 8) | y)


@lru_cache(maxsize=None)
def byte_tables(A) -> _Bytes:
    """The byte tables of an algebra over F_2^8, built once per algebra;
    ``ValueError`` for any other algebra."""
    return _Bytes(A)


def full_space(p: int, ambient: int = DIM) -> Subspace:
    return span(np.eye(ambient, dtype=np.int64), p, ambient)


def elements(space: Subspace):
    """All p^dim elements of a subspace, coordinates as int tuples."""
    mat = space.matrix()
    for coeffs in itertools.product(range(space.p), repeat=space.dim):
        v = (np.array(coeffs, dtype=np.int64) @ mat) % space.p
        yield tuple(int(c) for c in v)


def nonzero_elements(space: Subspace):
    """The p^dim − 1 nonzero elements of a subspace, as int tuples."""
    return (v for v in elements(space) if any(v))


def contains_space(space: Subspace, other: Subspace) -> bool:
    return all(space.contains(r) for r in other.rows)


def identity_automorphism(p: int) -> Automorphism:
    return Automorphism(tuple(map(tuple, np.eye(DIM, dtype=np.int64).tolist())), p)


def dim_total(counts: dict, dim: int) -> int:
    """Subalgebras of one dimension in per-(dim, label) ``counts``, as
    :func:`splitoct.census.label_counts` returns them."""
    return sum(v for (d, _), v in counts.items() if d == dim)


def census_formula(q: int) -> dict[tuple[int, str], int]:
    """The census over F_q in closed form, per (dim, label value).  P =
    (q⁶ − 1)/(q − 1) is the number of singular points of the parabolic
    quadric Q(6, q); the total is N(q) = 3 + (5q² + q + 10)P + q³(q³ + 1)
    + q⁶ + q⁴(q⁴ + q² + 1)."""
    P = (q ** 6 - 1) // (q - 1)
    counts = {(0, "0"): 1, (1, "F"): 1, (8, "O"): 1,
              (1, "Fp"): q ** 3 * (q ** 3 + 1),
              (2, "S"): q ** 3 * (q ** 3 + 1) // 2,
              (2, "E"): q ** 3 * (q ** 3 - 1) // 2,
              (3, "mOcapOn"): q * (q + 1) * P,
              (4, "S+Q"): q * (q + 1) // 2 * P,
              (4, "E+Q"): q * (q - 1) // 2 * P,
              (4, "F2x2"): q ** 4 * (q ** 4 + q ** 2 + 1)}
    counts.update(dict.fromkeys([(1, "Fn"), (2, "F+Fn"), (2, "Q"), (3, "F+Q"),
                                 (3, "nOcapOn"), (4, "F+(nOcapOn)"), (4, "nO"),
                                 (4, "On"), (5, "nO+On"), (6, "Qperp")], P))
    counts.update(dict.fromkeys([(2, "Fn+Fp"), (2, "Fn+Fpbar"), (3, "T")], q * q * P))
    return dict(sorted(counts.items()))
