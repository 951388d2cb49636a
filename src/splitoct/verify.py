"""Verification suites: exhaustive/randomized checks of the algebra's laws.

Five named suites, each returning a structured result with per-check
counts and the first counterexample found (if any); :data:`SUITES` states
the fields of each:

- ``identities``     the composition-algebra laws: exhaustive over F_2 on
                     bitsliced uint64 coordinate planes, seeded random
                     sampling (1e5 tuples per identity) over odd fields on
                     uint16 coordinate planes, both built from the
                     algebra's term lists.
- ``singular``       maximal totally singular subspace geometry.
- ``centralizers``   exact centralizer dimensions, elementwise.
- ``classification`` census theorems, lattice fixture, representative
                     round-trips, and the worked construction examples.
- ``orbits``         automorphism group order and orbit structure.

Only the exhaustive F_2 identities pack instances into bits, 64 to a
word of each coordinate plane (:class:`_Bits`); the other checks use
coordinate rows.

The (suite, field) runs of a request share nothing, so :func:`run_suite`
runs them in one pool of forked processes, one per run up to the usable
CPUs; a single run, or a single usable CPU, forks nothing.  On a 2-vCPU
VM ``verify --suite identities`` (three runs) took a median 0.28 s
against 0.37 s one after another (10 bench runs each), and ``verify
--suite all`` (eight runs) 0.99 s against 1.55 s (6 runs each).  Since
the odd fields run on uint16 planes, each takes under half the F_2 run,
so F_3 and F_5 fit one after the other beside it: the identities took a
median 0.22 s against 0.32 s on float32 planes (10 bench runs a side).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import wraps
from multiprocessing import get_context

import numpy as np

from . import autos
from .algebra import DIM, Algebra, Workspace, algebra, mod, products
from .census import census_columns
from .classify import (LABEL_DIM, LABELS, OrbitLabel, classify,
                       element_orbit_invariant)
from .constructions import (PreconditionFailed, centralizer, left_mul_space,
                            rep, right_ideal_double, right_mul_space,
                            standard_quaternions, top_row_ideal,
                            upper_triangular)
from .field import SUPPORTED_PRIMES, check_prime
from .lattice import build_lattice, emit_dot
from .linalg import batch_rank, batch_rref, left_kernels, residues
from .subspace import (closed_bases, closure, intersect, span, substructure,
                       sum_spaces)

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

#: suite -> (the fields a request without one runs it at, in order; the
#: fields it accepts, None for every supported prime).  ``all`` runs
#: every suite, so a field one of them refuses refuses ``all``.
SUITES: dict[str, tuple[tuple[int, ...], tuple[int, ...] | None]] = {
    "identities": ((2, 3, 5), None),
    "singular": ((2,), (2,)),
    "centralizers": ((2, 3), (2, 3)),
    "classification": ((2,), (2,)),
    "orbits": ((2,), (2,)),
}
SUITE_NAMES = (*SUITES, "all")


@dataclass
class CheckResult:
    """Outcome of one named check: passed unless it found a counterexample."""
    name: str
    checked: int
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        out = f"  [{status}] {self.name}: {self.checked} instances"
        if not self.passed:
            out += f"\n         first counterexample: {self.counterexample}"
        return out


@dataclass
class SuiteResult:
    """Outcome of a whole suite."""
    suite: str
    field: int
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
                return f"{c.name}: {c.counterexample}"
        return None

    def lines(self) -> list[str]:
        head = (f"suite {self.suite} (field {self.field}): "
                f"{'PASS' if self.passed else 'FAIL'} — "
                f"{self.total_checked} checks in {self.elapsed:.1f}s")
        return [head] + [c.line() for c in self.checks]


def _field(suite: str, p: int) -> int:
    """``p`` if :data:`SUITES` lets ``suite`` run over F_p, else ValueError."""
    accepted = SUITES[suite][1] or SUPPORTED_PRIMES
    if check_prime(p) not in accepted:
        raise ValueError(f"suite {suite} accepts field "
                         f"{' or '.join(map(str, accepted))}, not {p}")
    return p


def _completed(body):
    """Turn the body ``verify_<suite>(res, p)`` into the suite ``run(p)``.

    ``p`` defaults to the suite's first default field and is checked
    against :data:`SUITES` before the body runs.  The run owns one
    :class:`SuiteResult` over F_p, and the body appends each check to it
    as the check ends.  If the body raises ArithmeticError (a broken
    invariant) or PreconditionFailed (a map the algebra's laws should
    make valid), the checks it already made stay in the result, followed
    by a failed "suite runs to completion": over a broken table both are
    verification failures.
    """
    suite = body.__name__.removeprefix("verify_")

    @wraps(body)
    def run(p: int = SUITES[suite][0][0]) -> SuiteResult:
        res = SuiteResult(suite, _field(suite, p))
        t0 = time.perf_counter()
        try:
            body(res, p)
        except (ArithmeticError, PreconditionFailed) as exc:
            res.checks.append(CheckResult("suite runs to completion", 0,
                                          f"{type(exc).__name__}: {exc}"))
        res.elapsed = time.perf_counter() - t0
        return res
    return run


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

#: The composition-algebra laws as (name, variables, predicate).  A
#: predicate gets an element interface E (mul, conj, add, scale, one, eq
#: on elements; norm, trace, polar give scalars, elements of one
#: coordinate) and one batch of values per variable, and returns the
#: engine's verdicts, which its ``tally`` reads.
LAWS = (
    ("norm multiplicativity N(xy)=N(x)N(y)", "xy",
     lambda E, x, y: E.eq(E.norm(E.mul(x, y)), E.scale(E.norm(x), E.norm(y)))),
    ("involution anti-automorphism k(xy)=k(y)k(x)", "xy",
     lambda E, x, y: E.eq(E.conj(E.mul(x, y)), E.mul(E.conj(y), E.conj(x)))),
    ("involution is involutory k(k(x))=x", "x",
     lambda E, x: E.eq(E.conj(E.conj(x)), x)),
    ("norm recovery x*k(x)=N(x)*1", "x",
     lambda E, x: E.eq(E.mul(x, E.conj(x)), E.scale(E.norm(x), E.one))),
    ("polar recovery x*k(y)+y*k(x)=(x|y)*1", "xy",
     lambda E, x, y: E.eq(E.add(E.mul(x, E.conj(y)), E.mul(y, E.conj(x))),
                          E.scale(E.polar(x, y), E.one))),
    ("adjoint (cx|y)=(x|k(c)y)", "cxy",
     lambda E, c, x, y: E.eq(E.polar(E.mul(c, x), y),
                             E.polar(x, E.mul(E.conj(c), y)))),
    ("adjoint (xc|y)=(x|y k(c))", "cxy",
     lambda E, c, x, y: E.eq(E.polar(E.mul(x, c), y),
                             E.polar(x, E.mul(y, E.conj(c))))),
    ("Moufang (ax)(ya)=a((xy)a)", "axy",
     lambda E, a, x, y: E.eq(E.mul(E.mul(a, x), E.mul(y, a)),
                             E.mul(a, E.mul(E.mul(x, y), a)))),
    ("Moufang a(x(ay))=((ax)a)y", "axy",
     lambda E, a, x, y: E.eq(E.mul(a, E.mul(x, E.mul(a, y))),
                             E.mul(E.mul(E.mul(a, x), a), y))),
    ("Moufang x(a(ya))=((xa)y)a", "axy",
     lambda E, a, x, y: E.eq(E.mul(x, E.mul(a, E.mul(y, a))),
                             E.mul(E.mul(E.mul(x, a), y), a))),
    # x^2 + N(x)1 = tr(x)x: the same law, tr(x)x moved to the right
    ("degree-2 identity x^2-tr(x)x+N(x)=0", "x",
     lambda E, x: E.eq(E.add(E.mul(x, x), E.scale(E.norm(x), E.one)),
                       E.scale(E.trace(x), x))),
)

#: instances per chunk of the odd-field identities, which bounds the
#: working set
_CHUNK = 1 << 14

#: values of the first variable per chunk of a three-variable F_2 law:
#: 2²⁰ instances and 1 MiB an element.  Blocks of 8, 16, 32 and 64 took
#: 0.22, 0.17, 0.16 and 0.18 s for the F_2 suite (2-vCPU Xeon VM).
_BLOCK = 16


def _grid() -> np.ndarray:
    """The 256 elements of F_2^8 as int64 coordinate rows, element i at
    i = Σ c_j·2^j (the order of :func:`splitoct.autos.element_orbits`)."""
    return (np.arange(256)[:, None] >> np.arange(DIM)) & 1


def _row_products(X: np.ndarray, Y: np.ndarray, A: Algebra) -> np.ndarray:
    """The products X_i·Y_j of two stacks of rows, mod 2, as int64."""
    return mod(products(X, Y, A.struct, 2), 2).astype(np.int64)


class _TermPlanes:
    """The operations both identities engines build from the algebra's own
    term lists (the tables its scalar operations read).  An element is a
    stack of coordinate planes and a scalar one plane; an engine supplies
    ``_new`` (a result buffer of the broadcast shape), ``_sum`` (which
    writes Σ c·a·b over the (k, a, b, c) of its terms into plane k) and
    ``ones`` (a plane of 1s, for the linear maps).
    """

    def mul(self, x, y):
        return self._sum(self._new(x, y), ((k, xi, y[j], c) for xi, terms in
                                           zip(x, self.ctx._mul_terms) for j, k, c in terms))

    def conj(self, x):
        return self._sum(self._new(x), ((j, x[i], self.ones, c)
                                        for i, j, c in self.ctx._conj_terms))

    def trace(self, x):
        return self._sum(self._new(x[:1]), ((0, x[i], self.ones, c)
                                            for i, c in self.ctx._trace_terms))

    def norm(self, x):
        return self._form(x, x, self.ctx._norm_terms)

    def polar(self, x, y):
        return self._form(x, y, self.ctx._polar_terms)

    def _form(self, x, y, terms):
        """Σ c·x_i·y_j over the (i, j, c) terms of a bilinear form."""
        return self._sum(self._new(x[:1], y[:1]), ((0, x[i], y[j], c) for i, j, c in terms))


class _Bits(_TermPlanes):
    """An algebra over F_2^8 as bitsliced uint64 coordinate planes, the
    engine of the exhaustive F_2 identities; ``ValueError`` for any other.

    Bit b of word (w, l, m) of plane c is coordinate c of the instance
    whose last variable is element 64w + b, whose middle one is element m
    and whose first one is the l-th of the chunk (element i at
    i = Σ c_j·2^j).  Every coefficient is 1 over F_2, so a term is one AND
    and one XOR of whole planes, 64 instances a word.  A law in three
    variables takes the first in blocks of ``_BLOCK`` values, so every loop
    runs along 256 contiguous words or more (with the 4 words innermost it
    was up to 9× slower).  The i-th result of a chunk reuses buffer i of
    the chunk before: fresh 1 MiB arrays cost 200k minor faults and half
    the time.
    """

    ones = ~np.uint64(0)

    def __init__(self, A: Algebra):
        if A.p != 2 or A.dim != DIM:
            raise ValueError(f"bit planes exist only over F_2^{DIM}, not F_{A.p}^{A.dim}")
        self.ctx, self.work, self._taken = A, Workspace(), 0
        coords = _grid().T.astype(np.uint8, order="C")
        self.spread = -coords.astype(np.uint64)   # (8, 256) words of 0s or 1s
        # (8, 4): bit b of word w is coordinate c of element 64w + b
        self.packed = np.packbits(coords, axis=-1, bitorder="little").view("<u8")
        self.one = -np.array(A.unit, dtype=np.uint64)[:, None, None, None]

    def _new(self, *arrays) -> np.ndarray:
        self._taken += 1
        return self.work.take(self._taken, np.broadcast(*arrays).shape, np.uint64)

    def _sum(self, out, terms):
        """The first term of a plane is written straight into it, and a
        plane that gets none is 0."""
        tmp = self.work.take("term", out.shape[1:], np.uint64)
        outs, unset = list(out), set(range(len(out)))
        for k, a, b, _ in terms:
            if k in unset:
                unset.remove(k)
                np.bitwise_and(a, b, out=outs[k])
            else:
                outs[k] ^= np.bitwise_and(a, b, out=tmp)
        for k in unset:
            outs[k].fill(0)
        return out

    def add(self, x, y):
        return np.bitwise_xor(x, y, out=self._new(x, y))

    def scale(self, c, x):
        return np.bitwise_and(c, x, out=self._new(c, x))

    def eq(self, u, v):
        out = np.bitwise_or.reduce(self.add(u, v), out=self._new(u[0], v[0]))
        return np.invert(out, out=out)

    def chunks(self, nvars: int):
        mid, last = self.spread[:, None, None, :], self.packed[:, :, None, None]
        for lo in range(0, 256, _BLOCK) if nvars == 3 else [0]:
            self._taken = 0
            yield ([self.spread[:, None, lo:lo + _BLOCK, None]] * (nvars == 3)
                   + [mid, last][-nvars:])

    def tally(self, ok, args) -> tuple[int, list | None]:
        """The chunk's instance count, and its first failing instance in
        the order of the variables or None."""
        shape = np.broadcast(*(a[0] for a in args)).shape
        bad = ~np.broadcast_to(ok, shape).transpose(1, 2, 0)     # (l, m, w)
        if not bad.any():
            return 64 * bad.size, None
        l, m, w = np.argwhere(bad)[0]
        b = np.uint64((int(bad[l, m, w]) & -int(bad[l, m, w])).bit_length() - 1)
        return 64 * bad.size, [tuple(int(c) for c in np.broadcast_to(
            a, (DIM, *shape))[:, w, l, m] >> b & 1) for a in args]


def _largest_sum(ctx: Algebra) -> int:
    """The largest value one output of :class:`_Planes` sums to before its
    reduction, read off the algebra's own term lists: Σ c·(p−1)² over the
    terms of a product coordinate or of a form, Σ c·(p−1) over those of a
    coordinate of a linear map."""
    top, mul, conj = ctx.p - 1, Counter(), Counter()
    for terms in ctx._mul_terms:
        for _, k, c in terms:
            mul[k] += c
    for _, j, c in ctx._conj_terms:
        conj[j] += c
    norm, polar, trace = (sum(t[-1] for t in terms) for terms in
                          (ctx._norm_terms, ctx._polar_terms, ctx._trace_terms))
    return max(max(norm, polar, *mul.values()) * top * top,
               max(trace, *conj.values()) * top)


class _Planes(_TermPlanes):
    """Elements of F_p^n as uint16 coordinate planes, over seeded samples:
    the identities engine of every odd prime (F_2 runs on :class:`_Bits`).

    A chunk of N instances is an (n, N) array, contiguous per coordinate.
    Every operation is a loop of whole-plane integer multiply-adds, and its
    result is reduced once, as x − (x // p)·p: numpy divides integers by a
    scalar with a precomputed multiplier, where ``%`` is not vectorized
    (on 8×32,768 entries 58 µs, against 580 µs for ``np.remainder`` and
    176 µs for :func:`mod` on float32).  The sums are exact while no
    output can reach 2¹⁶ (:func:`_largest_sum`; at F_13 a product
    coordinate reaches 2,160 on the canonical table and 31,824 on a
    32-dimensional doubled one, the polar form 7,488 and 32,400); a table
    beyond that is ``ValueError``.  Nothing goes through BLAS, so the suite
    runs on one thread.  It took 53–61 ms a field at F_3, F_5 and F_13,
    against 119–124 ms on float32 planes reduced with :func:`mod`, and
    uint32 planes were no faster than float32 ones (warm, best of 5,
    2-vCPU Xeon VM, numpy 2.4.6).  A product of 16,384 pairs through one
    1×8·8×8 matmul per pair (:func:`splitoct.algebra.products`) was
    several times slower than the plane loop, and skipping the multiply by
    a coefficient 1 saved about 15%.  Every law sees the same
    ``RANDOM_SAMPLES`` instances: the first variable takes the third
    sample, the others the first and second, in order.
    """

    ones = np.uint16(1)

    def __init__(self, ctx):
        p = self.p = ctx.p
        largest = _largest_sum(ctx)
        if largest >= 1 << 16:
            raise ValueError(f"uint16 sums are not exact for this table over "
                             f"F_{p}: one output reaches {largest}")
        self.ctx, self.q = ctx, np.uint16(p)
        self.one = np.array(ctx.unit, dtype=np.uint16)[:, None]
        rng = np.random.default_rng(_SEED + p)
        self.samples = [np.ascontiguousarray(
            rng.integers(0, p, size=(RANDOM_SAMPLES, ctx.dim),
                         dtype=np.int64).astype(np.int8).T)
            for _ in range(3)]

    def _new(self, *arrays) -> np.ndarray:
        return np.zeros(np.broadcast(*arrays).shape, dtype=np.uint16)

    def _mod(self, x):
        """x mod p, written over x."""
        q = np.floor_divide(x, self.q)
        q *= self.q
        return np.subtract(x, q, out=x)

    def _sum(self, out, terms):
        for k, a, b, c in terms:
            out[k] += (a * c if c != 1 else a) * b
        return self._mod(out)

    def add(self, x, y):
        return self._mod(x + y)

    def scale(self, c, x):
        return self._mod(c * x)

    def eq(self, u, v):
        return (u == v).all(0)

    def chunks(self, nvars: int):
        order = [2, 0, 1] if nvars == 3 else [0, 1][:nvars]
        for lo in range(0, RANDOM_SAMPLES, _CHUNK):
            yield [np.ascontiguousarray(self.samples[s][:, lo:lo + _CHUNK],
                                        dtype=np.uint16) for s in order]

    def tally(self, ok, args) -> tuple[int, list | None]:
        if ok.all():
            return ok.size, None
        i = int(np.argmin(ok))
        return ok.size, [tuple(int(t) for t in a[:, i]) for a in args]


@_completed
def verify_identities(res: SuiteResult, p: int) -> None:
    """Composition-algebra laws: exhaustive (F_2) or random (odd fields)."""
    ctx = algebra(p)
    E = _Bits(ctx) if p == 2 else _Planes(ctx)
    for name, names, law in LAWS:
        checked, ce = 0, None
        for args in E.chunks(len(names)):
            n, values = E.tally(law(E, *args), args)
            checked += n
            if ce is None and values:
                ce = ", ".join(f"{v}={c}" for v, c in zip(names, values))
        res.checks.append(CheckResult(name, checked, ce))


# ---------------------------------------------------------------------------
# singular geometry (F_2)
# ---------------------------------------------------------------------------

@_completed
def verify_singular(res: SuiteResult, p: int) -> None:
    """Maximal totally singular subspaces over F_2, exhaustively.

    Every a·O and O·a is an RREF stack padded with zero rows, so spaces of
    any dimension stack.  dim(U ∩ W) = dim W − rank (W reduced by U) is one
    batched rank over all ordered pairs of singular directions.
    """
    ctx = algebra(p)
    grid = _grid()[1:]
    a = grid[ctx.norms(grid) == 0]                         # 135 directions
    n = len(a)
    res.checks.append(CheckResult("singular direction count is 135",
                                  1, None if n == 135 else f"got {n}"))
    eye = np.eye(DIM, dtype=np.int64)
    lmat = _row_products(a[:, None], eye, ctx)[:, 0]      # row j is a·e_j
    L, lrank = batch_rref(lmat, 2)
    R, rrank = batch_rref(_row_products(eye, a[:, None], ctx)[:, :, 0], 2)
    L, R = (U[:, :r.max(initial=0)] for U, r in ((L, lrank), (R, rrank)))   # RREF rows first

    def at(idx) -> str:
        return ", ".join(f"{v}={tuple(a[r].tolist())}" for v, r in zip("ab", idx))

    # aO = ker(lambda_{k(a)}): contained in it, of the same dimension
    kmat = _row_products((a @ ctx.conj_mat % 2)[:, None], eye, ctx)[:, 0]
    ok = ~(L @ kmat % 2).any((1, 2)) & (lrank + batch_rank(kmat, 2) == DIM)
    res.checks.append(CheckResult("aO equals ker of left multiplication by k(a)",
                                  n, None if ok.all() else at([ok.argmin()])))

    # intersection-dimension table, pairs (a, b) in row-major order
    i, j = np.divmod(np.arange(n * n), n)
    same = lrank[j] - batch_rank(residues(L[:, None], L, 2).reshape(n * n, -1, DIM), 2)
    mixed = rrank[j] - batch_rank(residues(L[:, None], R, 2).reshape(n * n, -1, DIM), 2)
    want_same = np.where(np.eye(n, dtype=bool), 4,
                         np.where(a @ ctx.gram @ a.T % 2 == 0, 2, 0)).ravel()
    want_mixed = np.where(_row_products(a, a, ctx).any(-1).ravel(), 1, 3)
    # Where aO^Ob is a line it is F(ab), since ab lies in both by
    # bilinearity.  Where it has dimension 3 it is a*(b-perp): that image
    # lies in aO, so it must lie in Ob and have dimension 3.
    K, kdim = left_kernels(ctx.gram @ a[:, :, None] % 2, 2)
    K[np.arange(DIM) < DIM - kdim[:, None]] = 0           # b-perp, padded
    plane = np.zeros(n * n, dtype=bool)
    m = np.flatnonzero((mixed == 3) & (want_mixed == 3))
    W = K[j[m]] @ lmat[i[m]] % 2
    plane[m] = (batch_rank(W, 2) != 3) | residues(R[j[m]], W, 2).any((1, 2))
    fails = [(same != want_same, "dim(aO^bO)={same}, expected {want_same}"),
             (mixed != want_mixed, "dim(aO^Ob)={mixed}, expected {want_mixed}"),
             (plane, "aO^Ob != a*(b-perp)")]
    first = np.any([mask for mask, _ in fails], axis=0)
    bad = None
    if first.any():
        k = int(first.argmax())
        text = next(text for mask, text in fails if mask[k])
        bad = at([i[k], j[k]]) + ": " + text.format(
            same=same[k], want_same=want_same[k], mixed=mixed[k], want_mixed=want_mixed[k])
    table = {f"same-side dim {d}": int((want_same == d).sum()) for d in (0, 2, 4)}
    table |= {f"mixed dim {d}": int((want_mixed == d).sum()) for d in (1, 3)}
    detail = ", ".join(f"{k}: {v}" for k, v in sorted(table.items()))
    res.checks.append(CheckResult(
        f"intersection table on {n * n} ordered pairs ({detail})", 2 * n * n, bad))

    # subalgebra iff trace zero; zero rows add no products to the closure test
    expected = ctx.traces(a) == 0
    wrong = (closed_bases(L, ctx) != expected) | (closed_bases(R, ctx) != expected)
    res.checks.append(CheckResult("aO and Oa closed iff tr(a)=0", 2 * n,
                                  at([wrong.argmax()]) if wrong.any() else None))

    # no linear multiplicative bijection nO -> On  (exhaustive over GL_4(F_2))
    nO, On = left_mul_space(ctx.n0, ctx), right_mul_space(ctx.n0, ctx)
    iso = anti = f"nO and On (dimensions {nO.dim}, {On.dim}) are not 4-dim subalgebras"
    tested = 0
    both = np.stack([nO.matrix(), On.matrix()]) if nO.dim == On.dim == 4 else None
    if both is not None and closed_bases(both, ctx).all():
        cA, cB = substructure(both, ctx)
        bits = ((np.arange(65536)[:, None] >> np.arange(16)[None, :]) & 1)
        P = bits.reshape(-1, 4, 4)                         # all 4x4 maps

        def bijections(tgt) -> int:
            """How many of the maps are multiplicative into ``tgt`` and invertible."""
            homo = [m[~autos.mismatches(m, cA, tgt, 2).any((-2, -1))]
                    for m in np.split(P, 16)]   # 4,096 maps per block stay in cache
            return int((batch_rank(np.concatenate(homo), 2) == 4).sum())

        n_iso, n_anti, tested = bijections(cB), bijections(cB.swapaxes(0, 1)), len(P)
        iso = f"{n_iso} isomorphisms found" if n_iso else None
        anti = None if n_anti else "no anti-isomorphism found"
    res.checks.append(CheckResult(
        "no multiplicative linear bijection nO -> On (65536 maps tested)", tested, iso))
    res.checks.append(CheckResult(
        "anti-isomorphism nO -> On exists (positive control)", tested, anti))


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------

@_completed
def verify_centralizers(res: SuiteResult, p: int) -> None:
    """Exact centralizer dimensions for every element of the algebra.

    The centralizer of v is the left kernel of x ↦ x·v − v·x.  All p⁸ of
    them come from one batched RREF, and the span and closure checks run
    on the stacked kernel bases of each dimension.
    """
    ctx = algebra(p)
    n = p ** DIM
    # every element, in itertools.product order
    V = np.arange(n)[:, None] // p ** np.arange(DIM - 1, -1, -1) % p
    commutator = ctx.struct - ctx.struct.swapaxes(0, 1)
    kernels, dims = left_kernels(np.einsum("vj,ijk->vik", V, commutator) % p, p)
    one = np.array(ctx.unit)
    traces = ctx.traces(V)
    if p == 2:
        want = np.where(traces == 0, 6, 2)
    else:
        want = np.where(ctx.norms((2 * V - traces[:, None] * one) % p) != 0, 2, 4)
    want[(V[:, None] == np.arange(p)[:, None] * one % p).all(-1).any(-1)] = 8
    one_v = np.stack([np.broadcast_to(one, V.shape), V], axis=1)      # (n, 2, 8)

    def group(d: int):
        """Indices and kernel bases of the elements whose centralizer has
        the expected dimension d."""
        idx = np.flatnonzero((dims == want) & (dims == d))
        return idx, kernels[idx, DIM - d:]

    def flag(idx, sub) -> np.ndarray:
        out = np.zeros(n, dtype=bool)
        out[idx[sub]] = True
        return out

    # failures in the order the checks are reported for one element
    idx, K = group(2)
    fails = [(flag(idx, (K != batch_rref(one_v[idx], p)[0]).any((1, 2))),
              "dim-2 centralizer is not F+Fv")]
    if p == 2:
        idx, K = group(6)
        perps, perp_dims = left_kernels(ctx.gram @ one_v[idx].transpose(0, 2, 1) % p, p)
        fails += [(flag(idx, (perp_dims != 6) | (perps[:, 2:] != K).any((1, 2))),
                   "dim-6 centralizer is not {1,v}-perp"),
                  (flag(idx, closed_bases(K, ctx)), "dim-6 centralizer unexpectedly closed")]
    else:
        idx, K = group(4)
        fails.append((flag(idx, ~closed_bases(K, ctx)),
                      "dim-4 centralizer is not a subalgebra"))
    bad = None
    wrong = dims != want
    first = wrong | np.any([mask for mask, _ in fails], axis=0)
    if first.any():
        i = int(first.argmax())
        bad = f"v={tuple(V[i].tolist())}: " + (
            f"dim {dims[i]}, expected {want[i]}" if wrong[i]
            else next(text for mask, text in fails if mask[i]))
    dims_seen = set(dims.tolist())
    expected_dims = {8, 6, 2} if p == 2 else {8, 4, 2}
    res.checks.append(CheckResult(
        f"centralizer dimension law on all {n} elements", n, bad))
    res.checks.append(CheckResult(
        f"observed dimensions are exactly {sorted(expected_dims)}", len(dims_seen),
        None if dims_seen == expected_dims else f"saw {sorted(dims_seen)}"))
    if p == 2:
        want = span([ctx.unit, ctx.n0, ctx.p0w, ctx.n0w, ctx.pbar0w, ctx.nbar0w], p)
    else:
        want = span([ctx.unit, ctx.n0, ctx.n0w, ctx.pbar0w], p)
    got = centralizer(ctx.n0, ctx)
    res.checks.append(CheckResult(
        "centralizer of n0 has the stated basis", 1,
        None if got.rows == want.rows else f"got rows {got.rows}"))


# ---------------------------------------------------------------------------
# classification (census theorems + lattice fixture + round-trips)
# ---------------------------------------------------------------------------

@_completed
def verify_classification(res: SuiteResult, p: int) -> None:
    """F_2 census laws, the label lattice fixture, and representative
    round-trips over F_2/F_3/F_5."""
    columns = census_columns(algebra(p))
    label = np.concatenate([c.label for c in columns])
    assoc = np.concatenate([c.assoc for c in columns]) == 1
    comm = np.concatenate([c.comm for c in columns]) == 1
    dim = np.concatenate([np.full(len(c.label), c.rows.shape[1]) for c in columns])
    n = len(label)

    def fault(mask, text) -> str | None:
        """``text(i, rows)`` for the first subspace i of the census where
        ``mask`` holds, rows its basis; None if there is none."""
        if not mask.any():
            return None
        i = int(mask.argmax())
        return text(i, tuple(map(tuple, [b for c in columns for b in c.rows.tolist()][i])))

    def of_label(value) -> np.ndarray:
        """``value(lab)`` for the label of every subspace of the census."""
        return np.array([value(lab) for lab in LABELS])[label]

    res.checks.append(CheckResult(
        "no subalgebra of dimension 7", n,
        None if 7 not in dim else "dimension 7 present"))
    bad = fault(of_label(LABEL_DIM.get) != dim,
                lambda i, rows: f"rows {rows}: label {LABELS[label[i]].value} "
                                f"is not of dimension {dim[i]}")
    res.checks.append(CheckResult(
        "every closed subspace receives a label", n, bad))

    not_assoc = of_label(lambda lab: lab in (OrbitLabel.NO, OrbitLabel.ON))
    bad = fault(assoc != np.where(dim == 4, ~not_assoc, dim < 4),
                lambda i, rows: f"rows {rows}: dim {dim[i]} label "
                                f"{LABELS[label[i]].value} associative={assoc[i]}")
    res.checks.append(CheckResult(
        "associativity census (dim<4 all; dim 4 except nO/On; dims>4 none)", n, bad))

    want = of_label(COMMUTATIVE_LABELS_CHAR2.__contains__)
    bad = fault((comm != want) | (comm & ~assoc),
                lambda i, rows: f"rows {rows}: label {LABELS[label[i]].value} "
                                f"commutative={comm[i]}, expected {want[i]}"
                if comm[i] != want[i] else
                f"rows {rows}: commutative but not associative")
    res.checks.append(CheckResult(
        "commutativity census and commutative=>associative", n, bad))

    for q in (2, 3):
        g = build_lattice(q)
        edges = tuple(g.edge_values())
        ok = set(edges) == set(LATTICE_FIXTURE_EDGES) and len(g.nodes) == 21
        res.checks.append(CheckResult(
            f"lattice fixture over F_{q} (21 nodes, 40 covering edges)",
            len(edges) + len(g.nodes),
            None if ok else f"edges diff: {set(edges) ^ set(LATTICE_FIXTURE_EDGES)}"))
        stable = emit_dot(g) == emit_dot(build_lattice(q))
        res.checks.append(CheckResult(
            f"DOT output byte-stable over F_{q}", 1,
            None if stable else "re-emission differs"))

    bad = None
    n_trips = 0
    for q in (2, 3, 5):
        for lab in OrbitLabel:
            if not lab.reachable:
                continue
            n_trips += 1
            got = classify(rep(lab, q), algebra(q))
            if got is not lab:
                bad = f"p={q}: classify(rep({lab.value})) = {got.value}"
                break
    res.checks.append(CheckResult(
        "classify(rep(L)) = L for every reachable label over F_2/F_3/F_5", n_trips, bad))

    bad = None
    n_ex = 0
    for q in (2, 3, 5):
        ctx = algebra(q)
        H = standard_quaternions(q)
        U = upper_triangular(q)
        R_top = top_row_ideal(q)
        kappa_top = span([ctx.n0, ctx.pbar0], q)
        cases = [
            (right_ideal_double(H, R_top, q), 6, OrbitLabel.Dim6,
             sum_spaces(right_mul_space(ctx.n0w, ctx), right_mul_space(ctx.p0w, ctx))),
            (right_ideal_double(U, kappa_top, q), 5, OrbitLabel.Dim5,
             sum_spaces(left_mul_space(ctx.n0, ctx), right_mul_space(ctx.n0, ctx))),
            (right_ideal_double(span([ctx.unit], q), R_top, q), 3,
             OrbitLabel.FplusQ, None),
            (right_ideal_double(span([ctx.unit, ctx.p0], q), R_top, q), 4,
             OrbitLabel.SplusQ, None),
            (right_ideal_double(R_top, span([ctx.n0], q), q), 3,
             OrbitLabel.mOcapOn,
             intersect(left_mul_space(ctx.n0, ctx), right_mul_space(ctx.n0w, ctx))),
        ]
        for space, want_dim, want_label, same_as in cases:
            n_ex += 1
            lab = classify(space, ctx)
            if space.dim != want_dim or lab is not want_label:
                bad = (f"p={q}: got dim {space.dim} label {lab.value}, "
                       f"expected dim {want_dim} label {want_label.value}")
                break
            if same_as is not None and space.rows != same_as.rows:
                bad = f"p={q}: {want_label.value} construction mismatch"
                break
        if bad:
            break
    res.checks.append(CheckResult(
        "right-ideal doubling examples (dims 6, 5, 3/4/5 family, 3)", n_ex, bad))


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def count_automorphisms() -> int:
    """Count all multiplicative unital linear bijections of O over F_2 by
    constraint search on the images of the generating triple
    (n0, nbar0, w), independent of any constructed generator set.

    Every candidate image triple (h1, h2, h3) of coordinate rows that keeps
    the polar values and product traces of (n0, nbar0, w) is gathered; the
    images of the coordinate basis follow from the word DAG
    p0 = n0·nbar0, pbar0 = nbar0·n0, e·w for the w-half.  Each candidate
    8×8 map is then checked, 4,096 at a time, for the unit, for all 64
    basis-pair products by :func:`splitoct.autos.mismatches`, and for rank 8.
    """
    ctx = algebra(2)
    # sanity: the triple generates everything
    if closure([ctx.n0, ctx.nbar0, ctx.w], ctx).dim != DIM:
        raise ArithmeticError("n0, nbar0 and w do not generate the algebra")

    def mul(x, y):
        return _row_products(x[:, None], y[:, None], ctx)[:, 0, 0]

    X = _grid()[1:]
    norm, trace = ctx.norms(X), ctx.traces(X)
    nil = X[(norm == 0) & (trace == 0)]
    w_class = X[(norm == ctx.norm(ctx.w)) & (trace == ctx.trace(ctx.w))]
    # pairs (h1, h2) of nilpotents with the invariants of (n0, nbar0)
    h1, h2 = np.repeat(nil, len(nil), axis=0), np.tile(nil, (len(nil), 1))
    keep = ((np.einsum("mi,ij,mj->m", h1, ctx.gram, h2) % 2 == ctx.polar(ctx.n0, ctx.nbar0))
            & (ctx.traces(mul(h1, h2)) == ctx.trace(ctx.mul(ctx.n0, ctx.nbar0)))
            & (ctx.traces(mul(h2, h1)) == ctx.trace(ctx.mul(ctx.nbar0, ctx.n0))))
    h1, h2 = h1[keep], h2[keep]
    # images h3 of w with the polar values of w against n0 and nbar0
    pair, w_idx = np.nonzero((h1 @ ctx.gram @ w_class.T % 2 == ctx.polar(ctx.w, ctx.n0))
                             & (h2 @ ctx.gram @ w_class.T % 2 == ctx.polar(ctx.w, ctx.nbar0)))
    count = 0
    for s in range(0, len(pair), 4096):
        blk = slice(s, s + 4096)
        x, y, z = h1[pair[blk]], h2[pair[blk]], w_class[w_idx[blk]]
        top = [mul(x, y), x, y, mul(y, x)]
        B = np.stack(top + [mul(r, z) for r in top], axis=1)     # images of e_0..e_7
        B = B[(np.array(ctx.unit) @ B % 2 == ctx.unit).all(-1)
              & ~autos.mismatches(B, ctx.struct, ctx.struct, 2).any((-2, -1))]
        count += int((batch_rank(B, 2) == DIM).sum())
    return count


@_completed
def verify_orbits(res: SuiteResult, p: int) -> None:
    """Automorphism group order and orbit structure over F_2."""
    ctx = algebra(p)
    gens = autos.automorphism_generators(p)
    group = autos.generate_group(gens)
    brute = count_automorphisms()
    ok = group.order == brute == EXPECTED_AUTOMORPHISM_COUNT_F2
    res.checks.append(CheckResult(
        f"group closure order {group.order} equals brute-forced count {brute}"
        f" equals {EXPECTED_AUTOMORPHISM_COUNT_F2}", brute + group.order,
        None if ok else f"closure {group.order}, brute {brute}"))

    report = autos.orbit_partition(census_columns(ctx), gens)
    multi = [row for row in report if row["orbit_count"] != 1]
    res.checks.append(CheckResult(
        "every (dim, label) class is a single orbit", len(report),
        None if not multi else f"label {multi[0]['label']} splits into "
                               f"{multi[0]['orbit_count']} orbits"))

    orbits = autos.element_orbits(gens)
    classes: dict = {}
    for v in map(tuple, _grid()[1:].tolist()):
        classes.setdefault(element_orbit_invariant(v, ctx), set()).add(v)
    ok = (len(orbits) == len(classes)
          and all(any(set(o) == c for c in classes.values()) for o in orbits))
    res.checks.append(CheckResult(
        "element orbits coincide with (norm, trace) classes on 255 elements", 255,
        None if ok else f"{len(orbits)} orbits vs {len(classes)} classes"))


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def _jobs(name: str, field: int | None) -> list[tuple[str, int]]:
    """The (suite, field) runs of a request, each field checked against
    :data:`SUITES`: the given field, or else the suite's default ones."""
    suites = [suite for suite in SUITES if name in (suite, "all")]
    if not suites:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return [(suite, _field(suite, p)) for suite in suites
            for p in (SUITES[suite][0] if field is None else (field,))]


def _run(job: tuple[str, int]) -> SuiteResult:
    """Run one job.  The suite is looked up by name in this module, so a
    forked worker runs whatever the parent's module holds."""
    suite, p = job
    return globals()[f"verify_{suite}"](p)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # no affinity API (macOS)
        return os.cpu_count() or 1


def run_suite(name: str, field: int | None = None) -> list[SuiteResult]:
    """Run one named suite (or ``all``, every suite) and return its results.

    Without a field each suite runs at its default fields, in turn; with
    one, at that field, which every suite of the request must accept
    (:data:`SUITES`).  Every field is checked before a suite runs.  A
    suite that stops on a broken invariant gives a failed result
    (:func:`_completed`).

    The (suite, field) runs are independent: they run in one pool of
    forked processes, one per run up to the usable CPUs, and come back in
    run order.  A single run, or a single usable CPU, runs in this process.
    """
    jobs = _jobs(name, field)
    workers = min(len(jobs), _usable_cpus())
    if workers < 2:
        return [_run(job) for job in jobs]
    with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
        return list(pool.map(_run, jobs))
