"""Subspaces of F_p^8: spans, duality, radicals, closure, enumeration."""

import itertools

import numpy as np
import pytest

from splitoct import subspace
from splitoct.algebra import Workspace, algebra, mod, products
from splitoct.classify import OrbitLabel
from splitoct.constructions import rep
from splitoct.field import SUPPORTED_PRIMES
from splitoct.lattice import GRAPH_LABELS
from splitoct.linalg import batch_rref
from splitoct.subspace import (Subspace, block_rows, closed_bases, closed_mask,
                               closed_subspaces, closure, free_positions,
                               gaussian_binomial, intersect, perp, pivot_block,
                               span, substructure, sum_spaces, zero_space)
from oracle import (closed_by_products, closed_subspaces_unfiltered, contains_space,
                    elements, enumerate_subspaces, full_space, nonzero_elements, radicals)

PRIMES = [2, 3, 5]


def _closed(space, A) -> bool:
    return bool(closed_bases(space.matrix()[None], A)[0])


@pytest.mark.parametrize("p", PRIMES)
def test_span_is_canonical(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        rows = [tuple(int(c) for c in r) for r in rng.integers(0, p, (3, 8))]
        a = span(rows, p)
        # scrambled generators of the same space give the same object
        scaled = [tuple((2 * c) % p for c in rows[0])] if p > 2 else [rows[0]]
        b = span(scaled + [rows[2], rows[1],
                           tuple((x + y) % p for x, y in zip(rows[0], rows[1]))], p)
        assert a == b
        assert a.key() == b.key()
        for r in rows:
            assert a.contains(r)
        assert a.dim == len(a.pivots) == len(a.rows)


@pytest.mark.parametrize("p", PRIMES)
def test_elements_enumeration(p):
    sp = span([(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0)], p)
    elems = list(elements(sp))
    assert len(elems) == p ** 2
    assert len(set(elems)) == p ** 2
    assert all(sp.contains(v) for v in elems)
    assert len(list(nonzero_elements(sp))) == p ** 2 - 1


@pytest.mark.parametrize("p", [2, 3])
def test_perp_duality(p):
    rng = np.random.default_rng(11 * p)
    for _ in range(25):
        rows = [tuple(int(c) for c in r) for r in rng.integers(0, p, (3, 8))]
        a = span(rows, p)
        ctx = algebra(p)
        ap = perp(a, ctx)
        # the bilinear form is nondegenerate, so dim + dim-perp = 8
        assert a.dim + ap.dim == 8
        assert perp(ap, ctx) == a
        for u in a.rows:
            for v in ap.rows:
                assert ctx.polar(u, v) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_sum_and_intersection_dimension_formula(p):
    rng = np.random.default_rng(7 * p)
    for _ in range(25):
        a = span([tuple(int(c) for c in r) for r in rng.integers(0, p, (2, 8))], p)
        b = span([tuple(int(c) for c in r) for r in rng.integers(0, p, (2, 8))], p)
        s = sum_spaces(a, b)
        i = intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        assert contains_space(s, a) and contains_space(s, b)
        assert contains_space(a, i) and contains_space(b, i)


def test_radicals_odd_p_coincide(ctx3):
    # for odd p the norm-radical equals the bilinear radical
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = span([tuple(int(c) for c in r) for r in rng.integers(0, 3, (3, 8))], 3)
        r, q = radicals(a, ctx3)
        assert r == q
        assert contains_space(a, r)


def test_radicals_char2_can_differ(ctx2):
    # span{1} over F_2: the polar form vanishes on it (bilinear radical is
    # everything) but N(1) = 1, so the norm-radical is zero
    one = span([(1, 0, 0, 1, 0, 0, 0, 0)], 2)
    r, q = radicals(one, ctx2)
    assert r.dim == 1 and q.dim == 0
    # a totally singular line: both radicals are the whole line
    line = span([(0, 1, 0, 0, 0, 0, 0, 0)], 2)
    r, q = radicals(line, ctx2)
    assert r.dim == 1 and q.dim == 1
    # norm-radical is always inside the bilinear radical
    rng = np.random.default_rng(6)
    for _ in range(40):
        a = span([tuple(int(c) for c in v) for v in rng.integers(0, 2, (3, 8))], 2)
        r, q = radicals(a, ctx2)
        assert contains_space(r, q)


@pytest.mark.parametrize("p", PRIMES)
def test_closure_properties(p):
    ctx = algebra(p)
    rng = np.random.default_rng(13 * p)
    for _ in range(20):
        gens = [tuple(int(c) for c in r) for r in rng.integers(0, p, (2, 8))]
        c = closure(gens, ctx)
        assert _closed(c, ctx)
        assert all(c.contains(g) for g in gens)
        # closure of a closed space is itself
        assert closure(list(c.rows), ctx) == c
    # the top-row ideal is closed; a single mixed generator usually is not
    assert _closed(span([(1, 0, 0, 0, 0, 0, 0, 0),
                         (0, 1, 0, 0, 0, 0, 0, 0)], p), ctx)


def test_closed_bases_examples(ctx2):
    assert _closed(zero_space(2), ctx2)
    assert _closed(full_space(2), ctx2)
    assert _closed(span([(1, 0, 0, 1, 0, 0, 0, 0)], 2), ctx2)
    # {n0, nbar0} generates beyond its span
    assert not _closed(span([(0, 1, 0, 0, 0, 0, 0, 0),
                             (0, 0, 1, 0, 0, 0, 0, 0)], 2), ctx2)


@pytest.mark.parametrize("p,n,k", [(2, 4, 2), (2, 8, 1), (2, 8, 7),
                                   (3, 4, 2), (3, 6, 3), (5, 4, 1)])
def test_gaussian_binomial_counts_subspaces(p, n, k):
    # q-binomial coefficient equals the literal number of k-subspaces
    count = sum(1 for _ in enumerate_subspaces(k, p, ambient=n))
    assert count == gaussian_binomial(n, k, p)


@pytest.mark.parametrize("p", [2, 3])
def test_enumerate_subspaces_distinct_and_canonical(p):
    seen = set()
    for sp in enumerate_subspaces(2, p, ambient=4):
        assert isinstance(sp, Subspace)
        assert sp.dim == 2
        key = sp.key()
        assert key not in seen
        seen.add(key)
    assert len(seen) == gaussian_binomial(4, 2, p)


def test_closed_subspaces_of_the_whole_algebra_are_the_census(census2, ctx2):
    # every closed subspace of O over F_2, zero and O included, once each
    found = []
    for mats in closed_subspaces(ctx2.struct, ctx2.unit, 2):
        red, _ = batch_rref(mats, 2)
        found += [tuple(map(tuple, m)) for m in red.tolist()]
    assert len(found) == len(set(found))
    assert set(found) == {r.space.rows for r in census2}


def test_closed_subspaces_needs_a_unit(ctx3):
    with pytest.raises(ValueError):
        next(closed_subspaces(ctx3.struct, ctx3.w, 3))


@pytest.mark.parametrize("p", PRIMES)
def test_the_square_condition_drops_no_closed_lift(p):
    """``closed_subspaces`` tests only the hyperplane lifts whose rows
    square into the lift.  It yields the same bases in the same order as
    testing all p^d lifts of each closed unital U: on the tables of every
    hull S + F·1 the lattice scans, and on the whole algebra for the
    quotient dimensions below 7 (F_2), 3 (F_3) and 2 (F_5)."""
    A = algebra(p)
    tables = []
    for hull in {span(rep(lab, p).rows + (A.unit,), p) for lab in GRAPH_LABELS}:
        basis = hull.matrix()
        sets = [piv for e in range(hull.dim)
                for piv in itertools.combinations(range(hull.dim - 1), e)]
        tables.append((substructure(basis[None], A)[0],
                       np.array(A.unit)[list(hull.pivots)], sets))
    tables.append((A.struct, A.unit, [piv for e in range({2: 7, 3: 3, 5: 2}[p])
                                      for piv in itertools.combinations(range(7), e)]))
    for struct, unit, sets in tables:
        got = {}
        for mats in closed_subspaces(struct, unit, p, sets):
            got.setdefault(mats.shape[1], []).append(mats)
        want = closed_subspaces_unfiltered(struct, unit, p, sets)
        assert sorted(got) == sorted(want)
        for d, stacks in got.items():
            assert np.array_equal(np.concatenate(stacks), want[d]), d


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_work_buffers_hold_no_stale_data(p, monkeypatch):
    """One workspace serves every kernel call of a scan.  After a larger
    block with another k and other pivots, ``closed_mask`` gives the masks
    of freshly allocated buffers, and so does a whole scan, hyperplane
    lifts included."""
    A = algebra(p)
    work = Workspace()
    # index 0 of each block: E11, span{E11, E12, E22}, span{E11, E22} are
    # closed, span{E12, E21} is not
    blocks = [((0,), min(p ** 7, block_rows(1, 8)), True), ((0, 1, 3), 600, True),
              ((0, 3), 300, True), ((1, 2), 40, False)]
    for pivots, size, first in blocks:
        mats = pivot_block(pivots, p, 8, 0, size)
        got = closed_mask(mats, pivots, A.struct, p, work)
        assert np.array_equal(got, closed_mask(mats, pivots, A.struct, p))
        assert got[0] == first and not got.all()

    sets = [(3, 5), (4,), (2, 4, 6), (5, 6), (6,), ()]
    shared = [m.tolist() for m in closed_subspaces(A.struct, A.unit, p, sets)]
    real = subspace.closed_mask
    monkeypatch.setattr(subspace, "closed_mask",
                        lambda mats, piv, struct, q, work: real(mats, piv, struct, q))
    fresh = [m.tolist() for m in closed_subspaces(A.struct, A.unit, p, sets)]
    assert shared == fresh
    assert sum(map(len, shared)) > len(sets)


def _random_rref(rng, pivots, p, count):
    """``count`` random RREF bases of F_p^8 with pivot columns ``pivots``."""
    mats = np.zeros((count, len(pivots), 8), dtype=np.int8)
    mats[:, range(len(pivots)), pivots] = 1
    for i, col in free_positions(pivots):
        mats[:, i, col] = rng.integers(0, p, count)
    return mats


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_two_stage_mask_matches_the_single_stage_test(p):
    """For k > 2 ``closed_mask`` rejects most bases on row 0's products and
    tests the rest on all of theirs; the oracle tests every product of two
    rows, one ``Subspace.contains`` at a time.  They agree on random RREF
    blocks for k = 1..7, on bases led by the unit (which pass the first
    stage, so the second decides) and on every representative: with the
    shared pivots as a tuple or as an array, and with and without a
    shared workspace.
    They agree on one stack per k that mixes all those pivot sets, and on
    zero-padded stacks a·O and O·a built as the singular suite builds
    them, each basis at its own pivots."""
    A, rng, work = algebra(p), np.random.default_rng(p), Workspace()
    blocks = []
    for k in range(1, 8):
        every = list(itertools.combinations(range(8), k))
        for i in rng.choice(len(every), min(3, len(every)), replace=False):
            blocks.append((every[i], _random_rref(rng, every[i], p, 60)))
        # 1 = E11 + E22: pivot 0, free entry 1 at column 3
        rest = rng.choice([1, 2, 4, 5, 6, 7], k - 1, replace=False)
        pivots = (0, *sorted(rest.tolist()))
        led = _random_rref(rng, pivots, p, 60)
        led[:, 0] = A.unit
        blocks.append((pivots, led))
    reps = [rep(lab, p) for lab in OrbitLabel
            if lab.reachable and lab is not OrbitLabel.Zero]
    blocks += [(s.pivots, s.matrix()[None]) for s in reps]
    closed_led = open_led = 0
    wants = []
    for pivots, mats in blocks:
        want = closed_by_products(mats, A)
        wants.append(want)
        each = np.tile(pivots, (len(mats), 1))
        assert np.array_equal(closed_mask(mats, pivots, A.struct, p), want), pivots
        assert np.array_equal(closed_mask(mats, pivots, A.struct, p, work), want), pivots
        assert np.array_equal(closed_mask(mats, each, A.struct, p, work), want), pivots
        led = (mats[:, 0] == A.unit).all(-1)
        closed_led += want[led].sum()
        open_led += (~want[led]).sum()
    assert all(closed_bases(s.matrix()[None], A)[0] for s in reps)
    # unit-led bases with k ≤ 2 are closed, as x² = tr(x)·x − N(x)·1; some
    # with k ≥ 3 fail in the second stage alone
    assert closed_led >= 120 and open_led > 0

    mixed_closed = 0
    for k in range(1, 8):
        same_k = [i for i, (pivots, _) in enumerate(blocks) if len(pivots) == k]
        order = rng.permutation(sum(len(blocks[i][1]) for i in same_k))
        mixed = np.concatenate([blocks[i][1] for i in same_k])[order]
        want = np.concatenate([wants[i] for i in same_k])[order]
        assert len({blocks[i][0] for i in same_k}) > 1
        assert np.array_equal(closed_bases(mixed, A), want), k
        each = (mixed != 0).argmax(-1)
        assert np.array_equal(closed_mask(mixed, each, A.struct, p, work), want), k
        mixed_closed += want.sum()
    assert mixed_closed >= 120

    # rank 8 (a invertible), lower ranks (a singular) and rank 0 (a = 0)
    a = rng.integers(0, p, (400, 8))
    a = np.concatenate([a[A.norms(a) == 0][:24], a[A.norms(a) != 0][:8], a[:1] * 0])
    eye = np.eye(8, dtype=np.int64)
    for prods in (products(a[:, None], eye, A.struct, p)[:, 0],
                  products(eye, a[:, None], A.struct, p)[:, :, 0]):
        U, rank = batch_rref(mod(prods, p).astype(np.int64), p)
        U = U[:, :rank.max()].astype(np.int8)
        assert len(set(rank.tolist())) > 2
        want = closed_by_products(U, A)
        assert want.any() and not want.all()
        assert np.array_equal(closed_bases(U, A), want)
