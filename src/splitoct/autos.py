"""Explicit automorphisms of the split octonions and their orbits.

Two constructions cover everything needed: the maps fixing the 2x2-matrix
part setwise (conjugation on matrices twisted by a norm-matched second
unit, ``alpha_st``), and extensions along a change of quaternion
subalgebra (``doubling_extension``).  The generated subgroup is certified
against the full automorphism group by an independent brute-force count
of all multiplicative unital bijections (see ``count_automorphisms``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import DIM, GRAM_Z, algebra, _qconj_z, _qmul_z
from .constructions import PreconditionFailed
from .linalg import batch_rref, rank
from .subspace import Subspace, closure, perp, span


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


def _validate(mat: np.ndarray, p: int) -> Automorphism:
    ctx = algebra(p)
    m = mat % p
    if rank(m, p) != DIM:
        raise PreconditionFailed("map is not invertible")
    E = np.eye(DIM, dtype=np.int64)
    if tuple((ctx.one.coords @ m) % p) != ctx.one.coords:
        raise PreconditionFailed("map does not fix 1")
    for i in range(DIM):
        im_i = tuple(m[i] % p)
        for j in range(DIM):
            lhs = ctx.mul(im_i, tuple(m[j] % p))
            rhs = tuple((np.array(ctx.mul(E[i], E[j]), dtype=np.int64) @ m) % p)
            if lhs != rhs:
                raise PreconditionFailed(f"map is not multiplicative at basis pair ({i},{j})")
    return Automorphism(tuple(map(tuple, m.tolist())), p)


def identity_automorphism(p: int) -> Automorphism:
    return Automorphism(tuple(map(tuple, np.eye(DIM, dtype=np.int64).tolist())), p)


def _qinv(s: tuple[int, ...], p: int) -> tuple[int, ...]:
    det = (s[0] * s[3] - s[1] * s[2]) % p
    if det == 0:
        raise PreconditionFailed("matrix unit is not invertible")
    dinv = pow(det, p - 2, p)
    adj = _qconj_z(s)
    return tuple(c * dinv % p for c in adj)


def alpha_st(s, t, p: int) -> Automorphism:
    """The automorphism a + x·w ↦ s·a·s⁻¹ + (t·x·s⁻¹)·w.

    Requires det(s) = det(t) ≠ 0; these maps form the stabilizer of the
    2x2-matrix part.
    """
    s = tuple(int(c) % p for c in s)
    t = tuple(int(c) % p for c in t)
    det_s = (s[0] * s[3] - s[1] * s[2]) % p
    det_t = (t[0] * t[3] - t[1] * t[2]) % p
    if det_s == 0 or det_t == 0:
        raise PreconditionFailed("both units must be invertible")
    if det_s != det_t:
        raise PreconditionFailed("unit norms must match")
    s_inv = _qinv(s, p)
    m = np.zeros((DIM, DIM), dtype=np.int64)
    for i in range(4):
        e = tuple(int(i == j) for j in range(4))
        img = _qmul_z(_qmul_z(s, e), s_inv)
        m[i, :4] = [c % p for c in img]
        img_w = _qmul_z(_qmul_z(t, e), s_inv)
        m[4 + i, 4:] = [c % p for c in img_w]
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
    E4 = np.eye(4, dtype=np.int64)
    one_img = tuple((E4[0] + E4[3]) @ B % p)
    if one_img != ctx.one.coords:
        raise PreconditionFailed("map must send 1 to 1")
    qc = ctx
    for i in range(4):
        for j in range(4):
            prod_h = tuple(c % p for c in _qmul_z(tuple(E4[i]), tuple(E4[j])))
            lhs = qc.mul(tuple(B[i]), tuple(B[j]))
            rhs = tuple(np.array(prod_h, dtype=np.int64) @ B % p)
            if lhs != rhs:
                raise PreconditionFailed("map is not multiplicative on the matrix part")
    wt = tuple(int(c) % p for c in (getattr(w_target, "coords", w_target)))
    if ctx.norm(wt) != (-1) % p:
        raise PreconditionFailed("target unit must have norm -1")
    h_prime = span(B, p)
    if not perp(h_prime).contains(wt):
        raise PreconditionFailed("target unit must be orthogonal to the image subalgebra")
    m = np.zeros((DIM, DIM), dtype=np.int64)
    m[:4] = B
    for i in range(4):
        m[4 + i] = ctx.mul(tuple(B[i]), wt)
    return _validate(m, p)


def conjugation_flip(p: int) -> Automorphism:
    """The extension with β = id and w ↦ −w (negates the w-half)."""
    ctx = algebra(p)
    E = np.eye(DIM, dtype=np.int64)
    return doubling_extension(E[:4], ctx.smul(-1, ctx.w.coords), p)


def find_h_moving_extension(p: int) -> Automorphism:
    """A deterministic automorphism that moves the 2x2-matrix part.

    The diagonal idempotents together with p0·w and its complement span a
    second quaternion subalgebra H' = span{p0, p0w, pbar0w, pbar0} whose
    matrix units are exactly those four elements; [[0,1],[1,0]] lies in
    H'^⊥ with norm −1, so the doubling extension through it is an
    automorphism, and it moves the matrix part (E12 ↦ p0·w).
    """
    ctx = algebra(p)
    beta_rows = [ctx.p0.coords, ctx.p0w.coords, ctx.pbar0w.coords, ctx.pbar0.coords]
    m0 = ctx.add(ctx.n0.coords, ctx.nbar0.coords)   # [[0,1],[1,0]], norm -1
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
    units = [s for s in itertools.product(range(p), repeat=4)
             if (s[0] * s[3] - s[1] * s[2]) % p != 0]
    seen = {}
    for s in units:
        det_s = (s[0] * s[3] - s[1] * s[2]) % p
        for t in units:
            det_t = (t[0] * t[3] - t[1] * t[2]) % p
            if det_s != det_t:
                continue
            a = alpha_st(s, t, p)
            seen.setdefault(a.key(), a)
    return [seen[k] for k in sorted(seen)]


def alpha_subgroup_order_formula(p: int) -> int:
    """|{alpha_st}| by counting matched unit pairs modulo the scalar kernel."""
    gl = (p * p - 1) * (p * p - p)
    sl = gl // (p - 1)
    return gl * sl // (p - 1)


# ---------------------------------------------------------------------------
# group closure and orbits
# ---------------------------------------------------------------------------
#
# One packed path serves every prime: a group element or a subspace basis
# is an int8 matrix (entries < p <= 13), images are int16 products reduced
# mod p (at most 8·12² per entry), and the int8 bytes are the dedupe key.

@dataclass
class GroupClosure:
    """BFS closure of a generating set under composition."""

    p: int
    generators: list
    elements: np.ndarray    # (order, 8, 8) int8, identity first, BFS order
    closed: bool

    @property
    def order(self) -> int:
        return len(self.elements)


def _generator_mats(generators: list) -> tuple[int, list[np.ndarray]]:
    if not generators:
        raise ValueError("need at least one generator")
    return generators[0].p, [np.array(g.mat, dtype=np.int16) for g in generators]


def generate_group(gens: list, cap: int = 20000) -> GroupClosure:
    """Breadth-first closure of the generators under composition.

    Each level multiplies the whole frontier by one generator at a time
    (apply the element, then the generator) and keeps the images whose
    bytes are new.  Raises CapExceeded before the closure would hold more
    than ``cap`` elements.
    """
    p, mats = _generator_mats(gens)
    ident = np.eye(DIM, dtype=np.int8)
    seen = {ident.tobytes()}
    levels = [ident[None]]
    frontier = levels[0]
    while len(frontier):
        fresh = []
        wide = frontier.astype(np.int16)
        for M in mats:
            for h in (wide @ M % p).astype(np.int8):
                key = h.tobytes()
                if key not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(cap, len(seen))
                    seen.add(key)
                    fresh.append(h)
        frontier = np.stack(fresh) if fresh else levels[0][:0]
        levels.append(frontier)
    return GroupClosure(p, gens, np.concatenate(levels), True)


def orbit_of_space(space: Subspace, generators: list) -> set:
    """All images of a subspace under the generated group, as RREF row tuples.

    Level-synchronous BFS: each level maps the whole frontier of bases
    through one generator at a time and reduces the images with one
    batched RREF.
    """
    p, mats = _generator_mats(generators)
    start = space.matrix().astype(np.int8)[None]
    seen = {start[0].tobytes()}
    levels = [start]
    frontier = start
    while len(frontier):
        fresh = []
        wide = frontier.astype(np.int16)
        for M in mats:
            reduced, _ = batch_rref(wide @ M % p, p)
            for img in reduced.astype(np.int8):
                key = img.tobytes()
                if key not in seen:
                    seen.add(key)
                    fresh.append(img)
        frontier = np.stack(fresh) if fresh else levels[0][:0]
        levels.append(frontier)
    return {tuple(map(tuple, basis)) for basis in np.concatenate(levels).tolist()}


def orbit_partition(records, generators: list) -> list[dict]:
    """Partition census records into automorphism orbits.

    Returns one dict per (dim, label): {"dim", "label", "orbit_count",
    "orbit_sizes"}; raises if an orbit strays outside its label class
    (soundness check).
    """
    by_label: dict = {}
    for r in records:
        by_label.setdefault((r.dim, r.label), {})[r.space.rows] = r.space
    out = []
    for (dim, label), spaces in sorted(by_label.items(),
                                       key=lambda kv: (kv[0][0], kv[0][1].value)):
        remaining = dict(spaces)
        sizes = []
        while remaining:
            seed_key = min(remaining)
            orbit = orbit_of_space(remaining[seed_key], generators)
            for key in orbit:
                if key not in remaining:
                    raise AssertionError(
                        f"orbit of a {label.value} record left its label class")
                del remaining[key]
            sizes.append(len(orbit))
        out.append({"dim": dim, "label": label.value,
                    "orbit_count": len(sizes), "orbit_sizes": sorted(sizes)})
    return out


def element_orbits(generators: list, p: int) -> list[set]:
    """Orbits of the nonzero elements of F_p^8 under the generated group.

    Element i has base-p digits i = Σ c_j·p^j (the packed byte at p = 2),
    so each generator is an index permutation and the orbits are the
    connected components of their union.  Orbits are listed by their
    smallest index.
    """
    _, mats = _generator_mats(generators)
    n = p ** DIM
    weights = p ** np.arange(DIM, dtype=np.int64)
    coords = (np.arange(n, dtype=np.int64)[:, None] // weights % p).astype(np.int16)
    perms = [(coords @ M % p).astype(np.int64) @ weights for M in mats]
    # min-label propagation with pointer jumping: each label stays inside
    # its orbit and ends at the orbit's smallest index
    label = np.arange(n, dtype=np.int64)
    while True:
        nxt = label
        for perm in perms:
            nxt = np.minimum(nxt, label[perm])
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    order = np.argsort(label[1:], kind="stable") + 1
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    points = [tuple(v) for v in coords[order].tolist()]
    bounds = list(starts) + [len(order)]
    return [set(points[a:b]) for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# independent brute-force count of all automorphisms (p = 2)
# ---------------------------------------------------------------------------

def count_automorphisms(p: int = 2) -> int:
    """Count all multiplicative unital linear bijections of O over F_2 by
    constraint search on the images of the generating triple
    (n0, nbar0, w), independent of any constructed generator set."""
    if p != 2:
        raise ValueError("brute-force count is a char-2 certification")
    ctx = algebra(2)
    mul = ctx.mul_byte
    norm = ctx.norm_byte.astype(np.int64)
    trace = ctx.trace_byte.astype(np.int64)
    coords = ctx.byte_coords
    polar_tab = (coords @ (GRAM_Z % 2) @ coords.T) % 2          # (256, 256)

    def polar_bit(a: int, b: int) -> int:
        return int(polar_tab[a, b])

    n0 = ctx.byte_of(ctx.n0.coords)
    nbar0 = ctx.byte_of(ctx.nbar0.coords)
    wb = ctx.byte_of(ctx.w.coords)
    one = ctx.byte_of(ctx.one.coords)
    # sanity: the triple generates everything
    if closure([ctx.n0, ctx.nbar0, ctx.octonion(ctx.w.coords)]).dim != DIM:
        raise ArithmeticError("n0, nbar0 and w do not generate the algebra")

    nilpotents = [b for b in range(1, 256) if norm[b] == 0 and trace[b] == 0]
    w_class = np.array([b for b in range(1, 256)
                        if norm[b] == norm[wb] and trace[b] == trace[wb]],
                       dtype=np.int64)
    count = 0
    weights = (1 << np.arange(DIM)).astype(np.int64)
    for h1 in nilpotents:
        for h2 in nilpotents:
            # invariants of the pair (n0, nbar0): polar 1, product traces
            if polar_bit(h1, h2) != polar_bit(n0, nbar0):
                continue
            h1h2 = int(mul[h1, h2])
            h2h1 = int(mul[h2, h1])
            if trace[h1h2] != trace[int(mul[n0, nbar0])]:
                continue
            if trace[h2h1] != trace[int(mul[nbar0, n0])]:
                continue
            # candidate images of w, batched
            h3 = w_class
            ok = np.ones(len(h3), dtype=bool)
            for prev, ref in ((h1, n0), (h2, nbar0)):
                ok &= polar_tab[h3, prev] == polar_bit(wb, ref)
            cands = h3[ok]
            if len(cands) == 0:
                continue
            # build candidate matrices: rows are images of
            # (p0, n0, nbar0, pbar0, p0w, n0w, nbar0w, pbar0w) via the word DAG
            i0 = np.full(len(cands), h1h2, dtype=np.int64)
            i1 = np.full(len(cands), h1, dtype=np.int64)
            i2 = np.full(len(cands), h2, dtype=np.int64)
            i3 = np.full(len(cands), h2h1, dtype=np.int64)
            i4 = mul[i0, cands].astype(np.int64)
            i5 = mul[i1, cands].astype(np.int64)
            i6 = mul[i2, cands].astype(np.int64)
            i7 = mul[i3, cands].astype(np.int64)
            rows = np.stack([i0, i1, i2, i3, i4, i5, i6, i7], axis=1)  # (n, 8) bytes
            # full multiplicativity check via the packed linear map
            imgs = np.zeros((len(cands), 256), dtype=np.int64)
            for b in range(1, 256):
                low = b & (-b)
                rest = b ^ low
                imgs[:, b] = imgs[:, rest] ^ rows[:, low.bit_length() - 1]
            good = imgs[:, one] == one
            # bijectivity: all 256 images distinct <=> rows span (rank 8)
            for idx in np.nonzero(good)[0]:
                if len(np.unique(imgs[idx])) != 256:
                    good[idx] = False
            pairs_i, pairs_j = np.meshgrid(np.arange(DIM), np.arange(DIM))
            base = (1 << pairs_i.ravel()).astype(np.int64)
            other = (1 << pairs_j.ravel()).astype(np.int64)
            prod_ref = mul[base, other].astype(np.int64)
            for idx in np.nonzero(good)[0]:
                im = imgs[idx]
                if not (mul[im[base], im[other]] == im[prod_ref]).all():
                    good[idx] = False
            count += int(good.sum())
    return count


def two_transitive_on_lines(p: int) -> bool:
    """Whether the stabilizer maps of the plane (Fp0+Fn0)w act
    two-transitively on its p+1 lines."""
    ctx = algebra(p)
    lines = []
    for coeffs in itertools.product(range(p), repeat=2):
        if coeffs == (0, 0):
            continue
        v = ctx.add(ctx.smul(coeffs[0], ctx.p0w.coords), ctx.smul(coeffs[1], ctx.n0w.coords))
        key = span([v], p).rows
        if key not in [l[0] for l in lines]:
            lines.append((key, v))
    if len(lines) != p + 1:
        raise ArithmeticError(f"found {len(lines)} lines in a plane, not {p + 1}")
    line_index = {key: i for i, (key, _) in enumerate(lines)}
    q_space = span([ctx.p0w.coords, ctx.n0w.coords], p)
    pair_orbit = set()
    sl2 = [s for s in itertools.product(range(p), repeat=4)
           if (s[0] * s[3] - s[1] * s[2]) % p == 1]
    perms = []
    for s in sl2:
        a = alpha_st(_qinv(s, p), (1, 0, 0, 1), p)
        if a.apply_space(q_space).rows != q_space.rows:
            raise ArithmeticError("a stabilizer map moved its plane")
        perm = []
        for key, v in lines:
            img = span([a.apply(v)], p).rows
            perm.append(line_index[img])
        perms.append(tuple(perm))
    # orbit of the ordered pair (0, 1) must be every ordered distinct pair
    for perm in perms:
        pair_orbit.add((perm[0], perm[1]))
    want = {(i, j) for i in range(p + 1) for j in range(p + 1) if i != j}
    return pair_orbit == want
