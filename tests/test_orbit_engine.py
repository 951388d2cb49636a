"""The packed orbit engine: short generating set, int8 group closure,
batched subspace orbits and index-permutation element orbits."""

import itertools

import numpy as np
import pytest

import oracle
from splitoct.algebra import algebra
from splitoct.autos import (CapExceeded, all_alpha_generators,
                            automorphism_generators, count_automorphisms,
                            element_orbits, find_h_moving_extension,
                            generate_group, orbit_of_space, orbit_partition)
from splitoct.classify import element_orbit_invariant
from splitoct.linalg import batch_rref, rref

G2_ORDER_F3 = 3 ** 6 * (3 ** 6 - 1) * (3 ** 2 - 1)


@pytest.fixture(scope="module")
def alpha3():
    return all_alpha_generators(3)


def test_short_generating_set_closes_to_full_group_f2():
    gens = automorphism_generators(2)
    assert gens[-1].key() == find_h_moving_extension(2).key()
    group = generate_group(gens)
    assert group.order == count_automorphisms(2) == 12096
    assert group.elements.shape == (12096, 8, 8)
    assert group.elements.dtype == np.int8
    assert len({e.tobytes() for e in group.elements}) == 12096


def test_closure_elements_are_products_of_generators(generators2):
    group = generate_group(generators2[:3])
    mats = group.elements.astype(np.int64)
    assert (mats[0] == np.eye(8, dtype=np.int64)).all()
    keys = {m.tobytes() for m in group.elements}
    for g in generators2[:3]:
        step = (mats @ np.array(g.mat, dtype=np.int64) % 2).astype(np.int8)
        assert all(m.tobytes() in keys for m in step)


def test_orbit_partition_same_for_both_generating_sets(census2, generators2):
    assert (orbit_partition(census2, automorphism_generators(2))
            == orbit_partition(census2, generators2))


def test_orbit_of_space_returns_rref_row_tuples(census2):
    gens = automorphism_generators(2)
    for dim in (0, 1, 8):
        space = next(r.space for r in census2 if r.dim == dim)
        orbit = orbit_of_space(space, gens)
        assert space.rows in orbit
        assert all(isinstance(rows, tuple) for rows in orbit)
    zero = next(r.space for r in census2 if r.dim == 0)
    assert orbit_of_space(zero, gens) == {()}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_batch_rref_matches_rref(p):
    rng = np.random.default_rng(p)
    for rows, cols in ((1, 8), (4, 8), (8, 8), (6, 12), (3, 2)):
        stack = rng.integers(0, p, (40, rows, cols))
        # rank deficiency: some rows copy combinations of others, some vanish
        stack[::3, -1] = (stack[::3, 0] * 2 + stack[::3, rows // 2]) % p
        stack[1::5] = 0
        reduced, ranks = batch_rref(stack, p)
        assert reduced.shape == stack.shape
        for mat, red, rk in zip(stack, reduced, ranks):
            want, pivots = rref(mat, p)
            assert rk == len(pivots)
            assert (red[:rk] == want).all()
            assert not red[rk:].any()


def test_element_orbits_match_elementwise_bfs_f2(generators2):
    assert element_orbits(generators2, 2) == oracle.element_orbits(generators2, 2)
    gens = automorphism_generators(2)
    assert element_orbits(gens, 2) == oracle.element_orbits(gens, 2)


def test_element_orbits_match_elementwise_bfs_f3(alpha3):
    assert element_orbits(alpha3, 3) == oracle.element_orbits(alpha3, 3)


def test_group_cap_is_checked_before_every_insert(generators2):
    with pytest.raises(CapExceeded) as info:
        generate_group(generators2, cap=100)
    assert info.value.held == 100
    assert "cap 100" in str(info.value)
    gens = automorphism_generators(2)
    assert generate_group(gens, cap=12096).order == 12096
    with pytest.raises(CapExceeded) as info:
        generate_group(gens, cap=12095)
    assert info.value.held == 12095


def test_element_orbits_f3_are_the_invariant_classes():
    """Over F_3 the short set separates elements exactly by (norm, trace,
    central): 9 non-central classes and the 2 nonzero scalars."""
    orbits = element_orbits(automorphism_generators(3), 3)
    classes: dict = {}
    for v in itertools.product(range(3), repeat=8):
        if any(v):
            classes.setdefault(element_orbit_invariant(v, 3), set()).add(v)
    assert len(classes) == 11
    assert sorted(map(sorted, orbits)) == sorted(map(sorted, classes.values()))


def _normalized(v, p):
    """The point of a nonzero vector: its multiple with leading entry 1."""
    inv = pow(next(c for c in v if c), p - 2, p)
    return tuple(c * inv % p for c in v)


def test_short_generating_set_has_order_of_g2_f3():
    """The permutation group on the 364 singular points of 1^⊥ over F_3
    has the order of G2(3); G2 acts faithfully there."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    p = 3
    ctx = algebra(p)
    points: dict = {}
    for v in itertools.product(range(p), repeat=8):
        if any(v) and ctx.norm(v) == 0 and ctx.trace(v) == 0:
            points.setdefault(_normalized(v, p), len(points))
    assert len(points) == (p ** 6 - 1) // (p - 1)
    basis = np.array(list(points), dtype=np.int64)
    perms = []
    for g in automorphism_generators(p):
        images = basis @ np.array(g.mat, dtype=np.int64) % p
        perm = [points[_normalized(img, p)] for img in images.tolist()]
        perms.append(combinatorics.Permutation(perm))
    assert combinatorics.PermutationGroup(perms).order() == G2_ORDER_F3
