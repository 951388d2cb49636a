"""Verification suites: exhaustive/randomized checks of the algebra's laws.

Five named suites, each returning a structured result with per-check
counts and the first counterexample found (if any):

- ``identities``     field-parametric; exhaustive over F_2, seeded random
                     sampling (1e5 tuples per identity) over odd fields.
- ``singular``       F_2 only: maximal totally singular subspace geometry.
- ``centralizers``   F_2 and F_3: exact centralizer dimensions, elementwise.
- ``classification`` F_2 census theorems, lattice fixture, representative
                     round-trips, and the worked construction examples.
- ``orbits``         F_2: automorphism group order and orbit structure.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import autos
from .algebra import DIM, algebra
from .census import enumerate_subalgebras
from .classify import OrbitLabel, classify, element_orbit_invariant
from .constructions import (centralizer, kernel_of_left_mul, left_mul_space,
                            rep, right_ideal_double, right_mul_space,
                            standard_quaternions, top_row_ideal,
                            upper_triangular)
from .field import check_prime
from .lattice import build_lattice, emit_dot
from .linalg import rank
from .subspace import (Subspace, intersect, is_closed, perp, span,
                       substructure, sum_spaces)

RANDOM_SAMPLES = 100_000
_SEED = 20260814

#: Expected covering edges of the label lattice (identical over F_2/F_3/F_5).
LATTICE_FIXTURE_EDGES: tuple[tuple[str, str], ...] = (
    ("F", "E"), ("F", "F+Fn"), ("F", "S"),
    ("Fn", "F+Fn"), ("Fn", "Fn+Fp"), ("Fn", "Fn+Fpbar"), ("Fn", "Q"),
    ("Fp", "Fn+Fp"), ("Fp", "Fn+Fpbar"), ("Fp", "S"),
    ("E", "E+Q"), ("E", "F2x2"),
    ("F+Fn", "F+Q"), ("F+Fn", "T"),
    ("Fn+Fp", "T"), ("Fn+Fp", "mOcapOn"),
    ("Fn+Fpbar", "T"), ("Fn+Fpbar", "mOcapOn"),
    ("Q", "F+Q"), ("Q", "mOcapOn"), ("Q", "nOcapOn"),
    ("S", "T"),
    ("F+Q", "E+Q"), ("F+Q", "F+(nOcapOn)"), ("F+Q", "S+Q"),
    ("T", "F2x2"), ("T", "S+Q"),
    ("mOcapOn", "On"), ("mOcapOn", "S+Q"), ("mOcapOn", "nO"),
    ("nOcapOn", "F+(nOcapOn)"), ("nOcapOn", "On"), ("nOcapOn", "nO"),
    ("E+Q", "Qperp"),
    ("F+(nOcapOn)", "nO+On"),
    ("F2x2", "Qperp"),
    ("On", "nO+On"),
    ("S+Q", "nO+On"),
    ("nO", "nO+On"),
    ("nO+On", "Qperp"),
)

#: Labels of commutative subalgebras over any field.
COMMUTATIVE_LABELS = frozenset({
    OrbitLabel.Zero, OrbitLabel.F, OrbitLabel.Fn, OrbitLabel.Fp,
    OrbitLabel.S, OrbitLabel.E, OrbitLabel.FplusFn, OrbitLabel.Q,
    OrbitLabel.FplusQ,
})
#: Additional commutative labels in characteristic two.
COMMUTATIVE_LABELS_CHAR2 = COMMUTATIVE_LABELS | frozenset({
    OrbitLabel.HeisNOcapOn, OrbitLabel.FplusHeis,
})

EXPECTED_AUTOMORPHISM_COUNT_F2 = 12096


@dataclass
class CheckResult:
    """Outcome of one named check inside a suite."""
    name: str
    passed: bool
    checked: int
    counterexample: str | None = None

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        out = f"  [{status}] {self.name}: {self.checked} instances"
        if self.counterexample:
            out += f"\n         first counterexample: {self.counterexample}"
        return out


@dataclass
class SuiteResult:
    """Outcome of a whole suite."""
    suite: str
    field: int | None
    checks: list[CheckResult] = dc_field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def total_checked(self) -> int:
        return sum(c.checked for c in self.checks)

    def first_counterexample(self) -> str | None:
        for c in self.checks:
            if not c.passed:
                return f"{c.name}: {c.counterexample or 'failed'}"
        return None

    def lines(self) -> list[str]:
        scope = f" (field {self.field})" if self.field is not None else ""
        head = (f"suite {self.suite}{scope}: "
                f"{'PASS' if self.passed else 'FAIL'} — "
                f"{self.total_checked} checks in {self.elapsed:.1f}s")
        return [head] + [c.line() for c in self.checks]


def _coords_of(ctx, b: int) -> tuple:
    return ctx.coords_of_byte(b)


def _fmt_bytes(ctx, **named) -> str:
    return ", ".join(f"{k}={_coords_of(ctx, v)}" for k, v in named.items())


def _fmt_rows(i: int, **named) -> str:
    return ", ".join(f"{k}={tuple(int(t) for t in v[i])}"
                     for k, v in named.items())


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _identities_f2(res: SuiteResult) -> None:
    ctx = algebra(2)
    M = ctx.mul_byte.astype(np.intp)                       # (256, 256)
    MT = M.T.copy()
    K = ctx.conj_byte.astype(np.intp)                      # (256,)
    N = ctx.norm_byte.astype(np.uint8)
    Tr = ctx.trace_byte.astype(np.uint8)
    coords = ctx.byte_coords.astype(np.int64)              # (256, 8)
    G = np.array(ctx.gram, dtype=np.int64)
    polar_tab = ((coords @ G @ coords.T) % 2).astype(np.uint8)
    one = ctx.byte_of(ctx.one.coords)
    ar = np.arange(256, dtype=np.intp)
    A3, X3, Y3 = ar[:, None, None], ar[None, :, None], ar[None, None, :]

    def add_pair_check(name, ok, vars3=False, **arrays):
        bad = np.argwhere(~ok)
        ce = None
        if bad.size:
            idx = tuple(int(t) for t in bad[0])
            names = ("a", "x", "y")[:len(idx)] if vars3 else ("x", "y")[:len(idx)]
            ce = _fmt_bytes(ctx, **dict(zip(names, idx)))
        res.checks.append(CheckResult(name, not bad.size, int(ok.size), ce))

    # norm multiplicativity: N(xy) = N(x) N(y)
    add_pair_check("norm multiplicativity N(xy)=N(x)N(y)",
                   N[M] == (N[:, None] & N[None, :]))
    # involution: kappa(xy) = kappa(y) kappa(x), kappa involutory
    add_pair_check("involution anti-automorphism k(xy)=k(y)k(x)",
                   M[K[:, None], K[None, :]].T == K[M])
    add_pair_check("involution is involutory k(k(x))=x", K[K] == ar)
    # norm recovery: x k(x) = N(x) 1; (x|y) 1 = x k(y) + y k(x)
    add_pair_check("norm recovery x*k(x)=N(x)*1",
                   M[ar, K] == np.where(N == 1, one, 0))
    add_pair_check("polar recovery x*k(y)+y*k(x)=(x|y)*1",
                   (M[ar[:, None], K[None, :]] ^ M[ar[None, :], K[:, None]])
                   == np.where(polar_tab == 1, one, 0))
    # adjoint identities
    add_pair_check("adjoint (cx|y)=(x|k(c)y)",
                   polar_tab[M][:, :, :] == polar_tab[X3, M[K][:, None, :]],
                   vars3=True)
    add_pair_check("adjoint (xc|y)=(x|y k(c))",
                   polar_tab[MT] == polar_tab[X3, M[:, K].T[:, None, :]],
                   vars3=True)
    # Moufang identities (variables a, x, y)
    lhs = M[M[A3[..., 0], X3[..., 0]][:, :, None], MT[:, None, :]]
    rhs = M[A3, M[M[None, :, :], A3]]
    add_pair_check("Moufang (ax)(ya)=a((xy)a)", lhs == rhs, vars3=True)
    lhs = M[A3, M[X3, M[:, None, :]]]
    rhs = M[M[M, ar[:, None]][:, :, None], Y3]
    add_pair_check("Moufang a(x(ay))=((ax)a)y", lhs == rhs, vars3=True)
    lhs = M[X3, M[ar[:, None], MT][:, None, :]]
    rhs = M[M[MT[:, :, None], Y3], A3]
    add_pair_check("Moufang x(a(ya))=((xa)y)a", lhs == rhs, vars3=True)
    # degree-2 identity: x^2 + tr(x) x + N(x) 1 = 0  (char 2 signs)
    sq = M[ar, ar]
    sq = sq ^ np.where(Tr == 1, ar, 0) ^ np.where(N == 1, one, 0)
    add_pair_check("degree-2 identity x^2-tr(x)x+N(x)=0", sq == 0)


def _identities_random(res: SuiteResult, p: int) -> None:
    ctx = algebra(p)
    C = ctx.struct.astype(np.int64)
    G = np.array(ctx.gram, dtype=np.int64)
    basis = np.eye(DIM, dtype=np.int64)
    conj_mat = np.array([ctx.conj(tuple(int(t) for t in e)) for e in basis],
                        dtype=np.int64)                    # row i = k(e_i)
    one = np.array(ctx.one.coords, dtype=np.int64)
    inv2 = pow(2, -1, p)
    rng = np.random.default_rng(_SEED + p)
    n = RANDOM_SAMPLES

    def mul(X, Y):
        return np.einsum("na,nb,abc->nc", X % p, Y % p, C) % p

    def conj(X):
        return (X @ conj_mat) % p

    def norm(X):
        return (((X @ G) * X).sum(1) * inv2) % p

    def polar(X, Y):
        return ((X @ G) * Y).sum(1) % p

    def trace(X):
        return (X[:, 0] + X[:, 3]) % p

    def sample():
        return rng.integers(0, p, size=(n, DIM), dtype=np.int64)

    def add_check(name, ok, **arrays):
        bad = np.argwhere(~ok)
        ce = _fmt_rows(int(bad[0][0]), **arrays) if bad.size else None
        res.checks.append(CheckResult(name, not bad.size, int(ok.size), ce))

    X, Y, A = sample(), sample(), sample()
    add_check("norm multiplicativity N(xy)=N(x)N(y)",
              norm(mul(X, Y)) == (norm(X) * norm(Y)) % p, x=X, y=Y)
    add_check("involution anti-automorphism k(xy)=k(y)k(x)",
              (conj(mul(X, Y)) == mul(conj(Y), conj(X))).all(1), x=X, y=Y)
    add_check("involution is involutory k(k(x))=x",
              (conj(conj(X)) == X % p).all(1), x=X)
    add_check("norm recovery x*k(x)=N(x)*1",
              (mul(X, conj(X)) == (norm(X)[:, None] * one) % p).all(1), x=X)
    add_check("polar recovery x*k(y)+y*k(x)=(x|y)*1",
              ((mul(X, conj(Y)) + mul(Y, conj(X))) % p
               == (polar(X, Y)[:, None] * one) % p).all(1), x=X, y=Y)
    add_check("adjoint (cx|y)=(x|k(c)y)",
              polar(mul(A, X), Y) == polar(X, mul(conj(A), Y)),
              c=A, x=X, y=Y)
    add_check("adjoint (xc|y)=(x|y k(c))",
              polar(mul(X, A), Y) == polar(X, mul(Y, conj(A))),
              c=A, x=X, y=Y)
    add_check("Moufang (ax)(ya)=a((xy)a)",
              (mul(mul(A, X), mul(Y, A))
               == mul(A, mul(mul(X, Y), A))).all(1), a=A, x=X, y=Y)
    add_check("Moufang a(x(ay))=((ax)a)y",
              (mul(A, mul(X, mul(A, Y)))
               == mul(mul(mul(A, X), A), Y)).all(1), a=A, x=X, y=Y)
    add_check("Moufang x(a(ya))=((xa)y)a",
              (mul(X, mul(A, mul(Y, A)))
               == mul(mul(mul(X, A), Y), A)).all(1), a=A, x=X, y=Y)
    add_check("degree-2 identity x^2-tr(x)x+N(x)=0",
              ((mul(X, X) - trace(X)[:, None] * (X % p)
                + norm(X)[:, None] * one) % p == 0).all(1), x=X)


def verify_identities(p: int = 2) -> SuiteResult:
    """Composition-algebra laws: exhaustive (F_2) or random (odd fields)."""
    check_prime(p)
    t0 = time.time()
    res = SuiteResult("identities", p)
    if p == 2:
        _identities_f2(res)
    else:
        _identities_random(res, p)
    res.elapsed = time.time() - t0
    return res


# ---------------------------------------------------------------------------
# singular geometry (F_2)
# ---------------------------------------------------------------------------

def _byte_set(ctx, space: Subspace) -> frozenset:
    return frozenset(ctx.byte_of(v) for v in space.elements())


def verify_singular() -> SuiteResult:
    """Maximal totally singular subspaces over F_2, exhaustively."""
    t0 = time.time()
    res = SuiteResult("singular", 2)
    ctx = algebra(2)
    singular = [b for b in range(1, 256)
                if ctx.norm_byte[b] == 0]                  # 135 directions
    res.checks.append(CheckResult("singular direction count is 135",
                                  len(singular) == 135, 1,
                                  None if len(singular) == 135
                                  else f"got {len(singular)}"))
    coords = {b: _coords_of(ctx, b) for b in singular}
    left = {b: left_mul_space(ctx.octonion(coords[b])) for b in singular}
    right = {b: right_mul_space(ctx.octonion(coords[b])) for b in singular}

    # aO = ker(lambda_{k(a)})
    bad = None
    for b in singular:
        ka = ctx.conj(coords[b])
        if left[b].rows != kernel_of_left_mul(ctx.octonion(ka)).rows:
            bad = _fmt_bytes(ctx, a=b)
            break
    res.checks.append(CheckResult("aO equals ker of left multiplication by k(a)",
                                  bad is None, len(singular), bad))

    # intersection-dimension table
    lsets = {b: _byte_set(ctx, left[b]) for b in singular}
    rsets = {b: _byte_set(ctx, right[b]) for b in singular}
    polar_of = ctx.polar
    table: dict[str, int] = {"same-side dim 4": 0, "same-side dim 2": 0,
                             "same-side dim 0": 0, "mixed dim 1": 0,
                             "mixed dim 3": 0}
    bad = None
    pairs = 0
    for a in singular:
        for b in singular:
            pairs += 1
            inter = lsets[a] & lsets[b]
            d = len(inter).bit_length() - 1
            if a == b:
                want = 4
            elif polar_of(coords[a], coords[b]) == 0:
                want = 2
            else:
                want = 0
            if d != want:
                bad = bad or (_fmt_bytes(ctx, a=a, b=b)
                              + f": dim(aO^bO)={d}, expected {want}")
            table[f"same-side dim {want}"] += 1
            inter = lsets[a] & rsets[b]
            d = len(inter).bit_length() - 1
            ab = ctx.mul(coords[a], coords[b])
            want = 1 if any(ab) else 3
            if d != want:
                bad = bad or (_fmt_bytes(ctx, a=a, b=b)
                              + f": dim(aO^Ob)={d}, expected {want}")
            elif want == 1 and inter != {0, ctx.byte_of(ab)}:
                bad = bad or (_fmt_bytes(ctx, a=a, b=b) + ": aO^Ob != F(ab)")
            elif want == 3:
                imgs = [ctx.mul(coords[a], y)
                        for y in perp(span([coords[b]], 2)).rows]
                if span(imgs, 2).rows != span(
                        [_coords_of(ctx, x) for x in inter if x], 2).rows:
                    bad = bad or (_fmt_bytes(ctx, a=a, b=b)
                                  + ": aO^Ob != a*(b-perp)")
            table[f"mixed dim {want}"] += 1
    detail = ", ".join(f"{k}: {v}" for k, v in sorted(table.items()))
    res.checks.append(CheckResult(
        f"intersection table on {pairs} ordered pairs ({detail})",
        bad is None, 2 * pairs, bad))

    # subalgebra iff trace zero
    bad = None
    for b in singular:
        expected = ctx.trace_byte[b] == 0
        if (is_closed(left[b]) != expected or is_closed(right[b]) != expected):
            bad = _fmt_bytes(ctx, a=b)
            break
    res.checks.append(CheckResult("aO and Oa closed iff tr(a)=0",
                                  bad is None, 2 * len(singular), bad))

    # no linear multiplicative bijection nO -> On  (exhaustive over GL_4(F_2))
    A, B = left_mul_space(ctx.n0), right_mul_space(ctx.n0)
    cA = substructure(A.matrix()[None], 2)[0].astype(np.int8)
    cB = substructure(B.matrix()[None], 2)[0].astype(np.int8)
    bits = ((np.arange(65536)[:, None] >> np.arange(16)[None, :]) & 1)
    P = bits.reshape(-1, 4, 4).astype(np.int8)             # all 4x4 maps
    lhs = np.einsum("ijl,mlk->mijk", cA, P) % 2
    rhs = np.einsum("mia,mjb,abk->mijk", P, P, cB) % 2
    homo = (lhs == rhs).all((1, 2, 3))
    iso_count = sum(1 for m in P[homo]
                    if rank([tuple(int(t) for t in r) for r in m], 2) == 4)
    res.checks.append(CheckResult(
        "no multiplicative linear bijection nO -> On (65536 maps tested)",
        iso_count == 0, int(P.shape[0]),
        None if iso_count == 0 else f"{iso_count} isomorphisms found"))
    rhs_anti = np.einsum("mia,mjb,bak->mijk", P, P, cB) % 2
    anti = (lhs == rhs_anti).all((1, 2, 3))
    anti_count = sum(1 for m in P[anti]
                     if rank([tuple(int(t) for t in r) for r in m], 2) == 4)
    res.checks.append(CheckResult(
        "anti-isomorphism nO -> On exists (positive control)",
        anti_count > 0, int(P.shape[0]),
        None if anti_count else "no anti-isomorphism found"))
    res.elapsed = time.time() - t0
    return res


# ---------------------------------------------------------------------------
# centralizers (F_2 and F_3)
# ---------------------------------------------------------------------------

def _expected_centralizer_dim(ctx, v: tuple, p: int) -> int:
    one = ctx.one.coords
    if any((v[i] - v[0] * one[i]) % p for i in range(DIM)):
        if p == 2:
            return 6 if ctx.trace(v) == 0 else 2
        u = tuple((2 * t) % p for t in v)
        u = tuple((u[i] - ctx.trace(v) * one[i]) % p for i in range(DIM))
        return 2 if ctx.norm(u) != 0 else 4
    return 8


def verify_centralizers(p: int) -> SuiteResult:
    """Exact centralizer dimensions for every element of the algebra."""
    if p not in (2, 3):
        raise ValueError("centralizer suite is specified for fields 2 and 3")
    t0 = time.time()
    res = SuiteResult("centralizers", p)
    ctx = algebra(p)
    elements = list(itertools.product(range(p), repeat=DIM))
    dims_seen = set()
    bad = None
    for v in elements:
        c = centralizer(ctx.octonion(v))
        want = _expected_centralizer_dim(ctx, v, p)
        dims_seen.add(c.dim)
        if c.dim != want:
            bad = bad or f"v={v}: dim {c.dim}, expected {want}"
            continue
        if c.dim == 2 and c.rows != span([ctx.one.coords, v], p).rows:
            bad = bad or f"v={v}: dim-2 centralizer is not F+Fv"
        if p == 2 and c.dim == 6:
            if c.rows != perp(span([ctx.one.coords, v], 2)).rows:
                bad = bad or f"v={v}: dim-6 centralizer is not {{1,v}}-perp"
            if is_closed(c):
                bad = bad or f"v={v}: dim-6 centralizer unexpectedly closed"
        if p == 3 and c.dim == 4 and not is_closed(c):
            bad = bad or f"v={v}: dim-4 centralizer is not a subalgebra"
    expected_dims = {8, 6, 2} if p == 2 else {8, 4, 2}
    res.checks.append(CheckResult(
        f"centralizer dimension law on all {len(elements)} elements",
        bad is None, len(elements), bad))
    res.checks.append(CheckResult(
        f"observed dimensions are exactly {sorted(expected_dims)}",
        dims_seen == expected_dims, len(dims_seen),
        None if dims_seen == expected_dims else f"saw {sorted(dims_seen)}"))
    n0 = ctx.n0.coords
    if p == 2:
        want = span([ctx.one.coords, n0, ctx.p0w.coords, ctx.n0w.coords,
                     ctx.pbar0w.coords, ctx.nbar0w.coords], p)
    else:
        want = span([ctx.one.coords, n0, ctx.n0w.coords,
                     ctx.pbar0w.coords], p)
    got = centralizer(ctx.n0)
    res.checks.append(CheckResult(
        "centralizer of n0 has the stated basis",
        got.rows == want.rows, 1,
        None if got.rows == want.rows else f"got rows {got.rows}"))
    res.elapsed = time.time() - t0
    return res


# ---------------------------------------------------------------------------
# classification (census theorems + lattice fixture + round-trips)
# ---------------------------------------------------------------------------

def verify_classification() -> SuiteResult:
    """F_2 census laws, the label lattice fixture, and representative
    round-trips over F_2/F_3/F_5."""
    t0 = time.time()
    res = SuiteResult("classification", 2)
    records = enumerate_subalgebras(2)

    dims = sorted({r.dim for r in records})
    res.checks.append(CheckResult(
        "no subalgebra of dimension 7", 7 not in dims, len(records),
        None if 7 not in dims else "dimension 7 present"))
    unlabeled = [r for r in records if r.label is None]
    res.checks.append(CheckResult(
        "every closed subspace receives a label", not unlabeled, len(records),
        None if not unlabeled else f"rows {unlabeled[0].space.rows}"))

    bad = None
    for r in records:
        if r.dim < 4 or r.dim == 0:
            want = True
        elif r.dim == 4:
            want = r.label not in (OrbitLabel.NO, OrbitLabel.ON)
        else:
            want = False
        if r.associative != want:
            bad = (f"rows {r.space.rows}: dim {r.dim} label {r.label.value} "
                   f"associative={r.associative}")
            break
    res.checks.append(CheckResult(
        "associativity census (dim<4 all; dim 4 except nO/On; dims>4 none)",
        bad is None, len(records), bad))

    bad = None
    for r in records:
        want = r.label in COMMUTATIVE_LABELS_CHAR2
        if r.commutative != want:
            bad = (f"rows {r.space.rows}: label {r.label.value} "
                   f"commutative={r.commutative}, expected {want}")
            break
        if r.commutative and not r.associative:
            bad = f"rows {r.space.rows}: commutative but not associative"
            break
    res.checks.append(CheckResult(
        "commutativity census and commutative=>associative",
        bad is None, len(records), bad))

    for p in (2, 3):
        g = build_lattice(p)
        edges = tuple(g.edge_values())
        ok = set(edges) == set(LATTICE_FIXTURE_EDGES) and len(g.nodes) == 21
        res.checks.append(CheckResult(
            f"lattice fixture over F_{p} (21 nodes, 40 covering edges)",
            ok, len(edges) + len(g.nodes),
            None if ok else f"edges diff: {set(edges) ^ set(LATTICE_FIXTURE_EDGES)}"))
        stable = emit_dot(g) == emit_dot(build_lattice(p))
        res.checks.append(CheckResult(
            f"DOT output byte-stable over F_{p}", stable, 1,
            None if stable else "re-emission differs"))

    bad = None
    n_trips = 0
    for p in (2, 3, 5):
        for lab in OrbitLabel:
            if not lab.reachable:
                continue
            n_trips += 1
            got = classify(rep(lab, p), trust_closed=True)
            if got is not lab:
                bad = f"p={p}: classify(rep({lab.value})) = {got.value}"
                break
    res.checks.append(CheckResult(
        "classify(rep(L)) = L for every reachable label over F_2/F_3/F_5",
        bad is None, n_trips, bad))

    bad = None
    n_ex = 0
    for p in (2, 3, 5):
        ctx = algebra(p)
        H = standard_quaternions(p)
        U = upper_triangular(p)
        R_top = top_row_ideal(p)
        kappa_top = span([ctx.n0.coords, ctx.pbar0.coords], p)
        n0, n0w, p0w = ctx.n0, ctx.octonion(ctx.n0w.coords), ctx.octonion(ctx.p0w.coords)
        cases = [
            (right_ideal_double(H, R_top, p), 6, OrbitLabel.Dim6,
             sum_spaces(right_mul_space(n0w), right_mul_space(p0w))),
            (right_ideal_double(U, kappa_top, p), 5, OrbitLabel.Dim5,
             sum_spaces(left_mul_space(n0), right_mul_space(n0))),
            (right_ideal_double(span([ctx.one.coords], p), R_top, p), 3,
             OrbitLabel.FplusQ, None),
            (right_ideal_double(span([ctx.one.coords, ctx.p0.coords], p),
                                R_top, p), 4, OrbitLabel.SplusQ, None),
            (right_ideal_double(R_top, span([n0.coords], p), p), 3,
             OrbitLabel.mOcapOn,
             intersect(left_mul_space(n0), right_mul_space(n0w))),
        ]
        for space, want_dim, want_label, same_as in cases:
            n_ex += 1
            lab = classify(space, trust_closed=True)
            if space.dim != want_dim or lab is not want_label:
                bad = (f"p={p}: got dim {space.dim} label {lab.value}, "
                       f"expected dim {want_dim} label {want_label.value}")
                break
            if same_as is not None and space.rows != same_as.rows:
                bad = f"p={p}: {want_label.value} construction mismatch"
                break
        if bad:
            break
    res.checks.append(CheckResult(
        "right-ideal doubling examples (dims 6, 5, 3/4/5 family, 3)",
        bad is None, n_ex, bad))
    res.elapsed = time.time() - t0
    return res


# ---------------------------------------------------------------------------
# orbits (F_2)
# ---------------------------------------------------------------------------

def verify_orbits(group_cap: int = 20000) -> SuiteResult:
    """Automorphism group order and orbit structure over F_2."""
    t0 = time.time()
    res = SuiteResult("orbits", 2)
    gens = autos.automorphism_generators(2)
    group = autos.generate_group(gens, cap=group_cap)
    brute = autos.count_automorphisms(2)
    ok = group.order == brute == EXPECTED_AUTOMORPHISM_COUNT_F2
    res.checks.append(CheckResult(
        f"group closure order {group.order} equals brute-forced count {brute}"
        f" equals {EXPECTED_AUTOMORPHISM_COUNT_F2}",
        ok, brute + group.order,
        None if ok else f"closure {group.order}, brute {brute}"))

    records = enumerate_subalgebras(2)
    report = autos.orbit_partition(records, gens)
    multi = [row for row in report if row["orbit_count"] != 1]
    res.checks.append(CheckResult(
        "every (dim, label) class is a single orbit",
        not multi, len(report),
        None if not multi else f"label {multi[0]['label']} splits into "
                               f"{multi[0]['orbit_count']} orbits"))

    ctx = algebra(2)
    orbits = autos.element_orbits(gens, 2)
    classes: dict = {}
    for b in range(1, 256):
        v = _coords_of(ctx, b)
        classes.setdefault(element_orbit_invariant(v, 2), set()).add(v)
    ok = (len(orbits) == len(classes)
          and all(any(set(o) == c for c in classes.values()) for o in orbits))
    res.checks.append(CheckResult(
        "element orbits coincide with (norm, trace) classes on 255 elements",
        ok, 255,
        None if ok else f"{len(orbits)} orbits vs {len(classes)} classes"))
    res.elapsed = time.time() - t0
    return res


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

SUITE_NAMES = ("identities", "singular", "centralizers", "classification",
               "orbits", "all")


def run_suite(name: str, field: int | None = None,
              group_cap: int = 20000) -> list[SuiteResult]:
    """Run one named suite (or ``all``) and return its results.

    Field handling follows the acceptance gates: ``identities`` accepts any
    supported field (default: 2, 3 and 5 in turn); ``centralizers`` accepts
    2 or 3 (default both); the remaining suites are fixed at F_2 and reject
    other fields.
    """
    if name == "identities":
        fields = (field,) if field is not None else (2, 3, 5)
        return [verify_identities(p) for p in fields]
    if name == "singular":
        if field not in (None, 2):
            raise ValueError("singular suite is specified over F_2 only")
        return [verify_singular()]
    if name == "centralizers":
        fields = (field,) if field is not None else (2, 3)
        return [verify_centralizers(p) for p in fields]
    if name == "classification":
        if field not in (None, 2):
            raise ValueError("classification suite is pinned to the F_2 census")
        return [verify_classification()]
    if name == "orbits":
        if field not in (None, 2):
            raise ValueError("orbit suite is specified over F_2 only")
        return [verify_orbits(group_cap=group_cap)]
    if name == "all":
        out = []
        for sub in SUITE_NAMES[:-1]:
            out.extend(run_suite(sub, None, group_cap))
        return out
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
