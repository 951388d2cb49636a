"""Explicit automorphisms of the split octonions and their orbits.

Two constructions cover everything needed: the maps fixing the 2x2-matrix
part setwise (conjugation on matrices twisted by a norm-matched second
unit, ``alpha_st``), and extensions along a change of quaternion
subalgebra (``doubling_extension``).  The generated subgroup is certified
against the full automorphism group by an independent brute-force count
of all multiplicative unital bijections, which lives with the other F_2
certifications (:func:`splitoct.verify.count_automorphisms`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import DIM, algebra, mod, products, quaternion_table
from .classify import LABELS
from .constructions import PreconditionFailed
from .linalg import batch_rref, rank
from .subspace import Subspace, span


class CapExceeded(RuntimeError):
    """Group closure grew past the configured cap; ``held`` elements were kept."""

    def __init__(self, cap: int, held: int):
        super().__init__(f"closure exceeded cap {cap}")
        self.cap = cap
        self.held = held


@dataclass(frozen=True)
class Automorphism:
    """An algebra automorphism as a matrix on row vectors (v ↦ v @ mat)."""

    mat: tuple[tuple[int, ...], ...]
    p: int

    def apply(self, coords) -> tuple[int, ...]:
        v = np.array(tuple(coords), dtype=np.int64)
        out = v @ np.array(self.mat, dtype=np.int64) % self.p
        return tuple(int(c) for c in out)

    def apply_space(self, space: Subspace) -> Subspace:
        return span([self.apply(r) for r in space.rows], self.p)

    def then(self, other: "Automorphism") -> "Automorphism":
        """Composite: first self, then other."""
        m = np.array(self.mat, dtype=np.int64) @ np.array(other.mat, dtype=np.int64)
        return Automorphism(tuple(map(tuple, (m % self.p).tolist())), self.p)

    def key(self) -> tuple:
        return self.mat


def mismatches(B: np.ndarray, src: np.ndarray, tgt: np.ndarray, p: int) -> np.ndarray:
    """Where linear maps fail to be multiplicative, batched over maps.

    ``B`` has shape (..., k, n): each stacked map sends source basis
    element i to the row B_i of the target.  ``src`` (k, k, k) and ``tgt``
    (n, n, n) are the structure tensors of source and target.  Returns the
    (..., k, k) mask of the pairs (i, j) where B_i·B_j under ``tgt``
    differs from (e_i·e_j under ``src``)·B, mod p.
    """
    b = np.asarray(B, dtype=np.float32)
    k = len(src)
    diff = products(b, b, tgt, p)
    diff -= np.matmul(np.asarray(src, dtype=np.float32).reshape(k * k, k),
                      b).reshape(diff.shape)
    # residues are non-negative, so a nonzero sum marks a nonzero entry
    return np.einsum("...n->...", mod(diff, p)) != 0


def _check_multiplicative(B: np.ndarray, struct_src: np.ndarray, p: int) -> None:
    """Raise unless the rows B (images of a source basis) multiply like it
    in the canonical algebra."""
    bad = np.argwhere(mismatches(B, struct_src, algebra(p).struct, p))
    if len(bad):
        i, j = bad[0]
        raise PreconditionFailed(f"map is not multiplicative at basis pair ({i},{j})")


def _validate(mat: np.ndarray, p: int) -> Automorphism:
    ctx = algebra(p)
    m = mat % p
    if rank(m, p) != DIM:
        raise PreconditionFailed("map is not invertible")
    if tuple((ctx.unit @ m) % p) != ctx.unit:
        raise PreconditionFailed("map does not fix 1")
    _check_multiplicative(m, ctx.struct, p)
    return Automorphism(tuple(map(tuple, m.tolist())), p)


def alpha_st(s, t, p: int) -> Automorphism:
    """The automorphism a + x·w ↦ s·a·s⁻¹ + (t·x·s⁻¹)·w.

    Requires det(s) = det(t) ≠ 0; these maps form the stabilizer of the
    2x2-matrix part.
    """
    H = quaternion_table(p)
    s = tuple(int(c) % p for c in s)
    t = tuple(int(c) % p for c in t)
    det_s, det_t = H.norm(s), H.norm(t)
    if det_s == 0 or det_t == 0:
        raise PreconditionFailed("both units must be invertible")
    if det_s != det_t:
        raise PreconditionFailed("unit norms must match")
    s_inv = H.inverse(s)
    m = np.zeros((DIM, DIM), dtype=np.int64)
    for i, e in enumerate(np.eye(4, dtype=np.int64).tolist()):
        m[i, :4] = H.mul(H.mul(s, e), s_inv)
        m[4 + i, 4:] = H.mul(H.mul(t, e), s_inv)
    return _validate(m, p)


def doubling_extension(beta_rows, w_target, p: int) -> Automorphism:
    """Extend a quaternion-subalgebra isomorphism to all of O.

    ``beta_rows``: 4 octonion coordinate vectors, the images of the matrix
    units E11, E12, E21, E22 under a unital isomorphism onto a quaternion
    subalgebra H'.  ``w_target``: an element of H'^⊥ with norm −1.  The
    extension sends a + x·w ↦ β(a) + β(x)·w_target.
    """
    ctx = algebra(p)
    B = np.array([tuple(r) for r in beta_rows], dtype=np.int64) % p
    if B.shape != (4, DIM):
        raise PreconditionFailed(f"need 4 image rows of length {DIM}, got shape {B.shape}")
    if rank(B, p) != 4:
        raise PreconditionFailed("images are linearly dependent")
    one_img = tuple((B[0] + B[3]) % p)      # 1 = E11 + E22
    if one_img != ctx.unit:
        raise PreconditionFailed("map must send 1 to 1")
    # the 2x2-matrix part is E11..E22, closed under the octonion product
    _check_multiplicative(B, ctx.struct[:4, :4, :4], p)
    wt = tuple(int(c) % p for c in w_target)
    if ctx.norm(wt) != (-1) % p:
        raise PreconditionFailed("target unit must have norm -1")
    if (B @ ctx.gram @ wt % p).any():
        raise PreconditionFailed("target unit must be orthogonal to the image subalgebra")
    m = np.concatenate([B, B @ ctx.mul_matrix(wt, "right") % p])
    return _validate(m, p)


def find_h_moving_extension(p: int) -> Automorphism:
    """A deterministic automorphism that moves the 2x2-matrix part.

    The diagonal idempotents together with p0·w and its complement span a
    second quaternion subalgebra H' = span{p0, p0w, pbar0w, pbar0} whose
    matrix units are exactly those four elements; [[0,1],[1,0]] lies in
    H'^⊥ with norm −1, so the doubling extension through it is an
    automorphism, and it moves the matrix part (E12 ↦ p0·w).
    """
    ctx = algebra(p)
    beta_rows = [ctx.p0, ctx.p0w, ctx.pbar0w, ctx.pbar0]
    m0 = ctx.add(ctx.n0, ctx.nbar0)   # [[0,1],[1,0]], norm -1
    return doubling_extension(beta_rows, m0, p)


#: (s, t) pairs of the alpha maps in :func:`automorphism_generators`:
#: (L, 1) and (U, U) for the unipotents L = [[1,0],[1,1]], U = [[1,1],[0,1]]
GENERATOR_PAIRS = (((1, 0, 1, 1), (1, 0, 0, 1)),
                   ((1, 1, 0, 1), (1, 1, 0, 1)))


def automorphism_generators(p: int) -> list[Automorphism]:
    """A short generating set of the full automorphism group G2(p).

    Two alpha maps at the fixed pairs ``GENERATOR_PAIRS`` (valid for every
    p, both units have determinant 1) and, last, the matrix-part mover.
    Over F_2 they close to all 12,096 automorphisms; over F_3 and F_5 their
    action on the singular points of 1^⊥ has the order of G2(p).
    """
    return [alpha_st(s, t, p) for s, t in GENERATOR_PAIRS] + [find_h_moving_extension(p)]


def all_alpha_generators(p: int) -> list[Automorphism]:
    """Every alpha_st map, deduplicated (s, t over invertible pairs with
    matching determinants)."""
    det = quaternion_table(p).norm
    units = [s for s in itertools.product(range(p), repeat=4) if det(s)]
    seen = {}
    for s in units:
        for t in units:
            if det(s) != det(t):
                continue
            a = alpha_st(s, t, p)
            seen.setdefault(a.key(), a)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# group closure and orbits
# ---------------------------------------------------------------------------
#
# One packed path serves every prime: a group element or a subspace basis
# is an int8 matrix (entries < p <= 13), images are int16 products reduced
# mod p (at most 8·12² per entry), and the int8 bytes are the dedupe key.
# Two engines share it.  ``_orbit`` is the one BFS, for discovering an
# orbit: the group as the orbit of the identity, or the images of one
# subspace.  ``_components`` partitions a set already known to be
# invariant (the census columns, the elements of F_p^8): every generator
# becomes one index permutation of the set, computed in one batch, and the
# orbits are the connected components of their union.

#: most basis rows one batched RREF gets in :func:`orbit_partition`, so a
#: large class (218,737 planes over F_5) is mapped in bounded blocks
PARTITION_BLOCK_ROWS = 16384

@dataclass
class GroupClosure:
    """BFS closure of a generating set under composition."""

    p: int
    elements: np.ndarray    # (order, 8, 8) int8, identity first, BFS order

    @property
    def order(self) -> int:
        return len(self.elements)


def _generator_mats(generators: list) -> tuple[int, list[np.ndarray]]:
    """The prime of the generators (at least one, all over one field) and
    their int16 matrices."""
    primes = {g.p for g in generators}
    if len(primes) != 1:
        raise ValueError(f"need generators over one field, got primes {sorted(primes)}")
    return primes.pop(), [np.array(g.mat, dtype=np.int16) for g in generators]


def _orbit(start: np.ndarray, mats: list, p: int, reduce,
           cap: int | None = None) -> np.ndarray:
    """The orbit of the int8 matrix ``start`` in BFS order, ``start`` first.

    Each level maps the whole frontier through one generator at a time
    (x ↦ x·M mod p), applies ``reduce`` unless it is None, and keeps the
    images whose int8 bytes are new.  Raises CapExceeded before the orbit
    would hold more than ``cap`` elements.
    """
    seen = {start.tobytes()}
    levels = [start[None]]
    frontier = levels[0]
    while len(frontier):
        fresh = []
        wide = frontier.astype(np.int16)
        for M in mats:
            imgs = wide @ M % p
            if reduce is not None:
                imgs = reduce(imgs)
            for img in imgs.astype(np.int8):
                key = img.tobytes()
                if key not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise CapExceeded(cap, len(seen))
                    seen.add(key)
                    fresh.append(img)
        frontier = np.stack(fresh) if fresh else levels[0][:0]
        levels.append(frontier)
    return np.concatenate(levels)


def generate_group(gens: list, cap: int = 20000) -> GroupClosure:
    """Closure of the generators under composition, as the orbit of the
    identity; raises CapExceeded past ``cap`` elements."""
    p, mats = _generator_mats(gens)
    return GroupClosure(p, _orbit(np.eye(DIM, dtype=np.int8), mats, p, None, cap))


def orbit_of_space(space: Subspace, generators: list) -> set:
    """All images of a subspace under the generated group, as RREF row
    tuples: the orbit of its basis, each level reduced by one batched RREF."""
    p, mats = _generator_mats(generators)
    if space.p != p:
        raise ValueError(f"a subspace over F_{space.p} has no orbit under "
                         f"automorphisms over F_{p}")
    bases = _orbit(space.matrix().astype(np.int8), mats, p,
                   lambda imgs: batch_rref(imgs, p)[0])
    return {tuple(map(tuple, basis)) for basis in bases.tolist()}


def _components(perms: list[np.ndarray]) -> np.ndarray:
    """The smallest index in the connected component of every point under
    the index permutations ``perms`` (at least one, all of one length).

    Min-label propagation with pointer jumping: each label stays inside its
    component and ends at the component's smallest index.  Following each
    permutation forwards suffices, since its inverse is one of its powers.
    """
    label = np.arange(len(perms[0]), dtype=np.int64)
    while True:
        nxt = label
        for perm in perms:
            nxt = np.minimum(nxt, label[perm])
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            return label
        label = nxt


def _keys(bases: np.ndarray) -> np.ndarray:
    """The int8 bytes of every basis in a stack (M, d, 8), one void scalar
    each (one zero byte for d = 0)."""
    flat = bases.astype(np.int8).reshape(len(bases), -1)
    if not flat.shape[1]:
        flat = np.zeros((len(bases), 1), np.int8)
    return flat.view(f"V{flat.shape[1]}").ravel()


def _image_keys(bases: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    """The keys of the RREF images x·M of a stack of bases (n, d, 8), in
    blocks of at most ``PARTITION_BLOCK_ROWS`` basis rows."""
    step = PARTITION_BLOCK_ROWS // max(bases.shape[1], 1)
    return np.concatenate([
        _keys(batch_rref(bases[a:a + step].astype(np.int16) @ M % p, p)[0])
        for a in range(0, len(bases), step)])


def orbit_partition(columns, generators: list) -> list[dict]:
    """Partition the census into automorphism orbits.

    ``columns`` is the census as :func:`splitoct.census.census_columns`
    returns it, one :class:`splitoct.classify.Columns` stack per
    dimension.  Each stack's bases are mapped through each generator in
    blocks of at most ``PARTITION_BLOCK_ROWS`` basis rows (one matmul and
    one batched RREF per block) and looked up among its own rows with one
    ``np.searchsorted`` over their sorted byte keys, which makes every
    generator an index permutation; the orbits are the connected
    components of their union.  Returns one dict per (dim, label), in
    that order: {"dim", "label", "orbit_count", "orbit_sizes"} with the
    sizes sorted.  Raises ValueError if a stack is over another field
    than the generators, and ArithmeticError if an image is not in the
    stack or has another label code (soundness checks).
    """
    p, mats = _generator_mats(generators)
    out = []
    for cols in columns:
        if cols.p != p:
            raise ValueError(f"columns over F_{cols.p} have no orbits under "
                             f"automorphisms over F_{p}")
        bases, code = cols.rows, cols.label
        keys = _keys(bases)
        order = np.argsort(keys)
        keys = keys[order]
        perms = []
        for M in mats:
            image = _image_keys(bases, M, p)
            at = np.searchsorted(keys, image).clip(max=len(keys) - 1)
            perm = np.where(keys[at] == image, order[at], -1)
            lost = np.flatnonzero(perm < 0)
            if len(lost):
                raise ArithmeticError(
                    f"the image of a {LABELS[code[lost[0]]].value} record is no record: "
                    f"the census is not closed under the group")
            moved = np.flatnonzero(code[perm] != code)
            if len(moved):
                raise ArithmeticError(
                    f"orbit of a {LABELS[code[moved[0]]].value} record left its label class")
            perms.append(perm)
        root = _components(perms)
        for c in sorted(set(code.tolist()), key=lambda c: LABELS[c].value):
            sizes = np.unique(root[code == c], return_counts=True)[1]
            out.append({"dim": bases.shape[1], "label": LABELS[c].value,
                        "orbit_count": len(sizes),
                        "orbit_sizes": sorted(sizes.tolist())})
    return out


def element_orbits(generators: list) -> list[set]:
    """Orbits of the nonzero elements of F_p^8 under the group the
    generators over F_p generate.

    Element i has base-p digits i = Σ c_j·p^j (the packed byte at p = 2),
    so each generator is an index permutation and the orbits are the
    connected components of their union.  Orbits are listed by their
    smallest index.
    """
    p, mats = _generator_mats(generators)
    n = p ** DIM
    weights = p ** np.arange(DIM, dtype=np.int64)
    coords = (np.arange(n, dtype=np.int64)[:, None] // weights % p).astype(np.int16)
    label = _components([(coords @ M % p).astype(np.int64) @ weights for M in mats])
    order = np.argsort(label[1:], kind="stable") + 1
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    points = [tuple(v) for v in coords[order].tolist()]
    bounds = list(starts) + [len(order)]
    return [set(points[a:b]) for a, b in zip(bounds, bounds[1:])]
