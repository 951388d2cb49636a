"""Automorphisms: generators, group closure, orbits, transitivity."""

import itertools

import numpy as np
import pytest

from splitoct.algebra import STRUCT_Z, algebra, quaternion_table
from splitoct.autos import (CapExceeded, PreconditionFailed, _check_multiplicative,
                            alpha_st, all_alpha_generators,
                            automorphism_generators, doubling_extension,
                            element_orbits, find_h_moving_extension,
                            generate_group, orbit_of_space, orbit_partition)
from splitoct.classify import element_orbit_invariant
from splitoct.constructions import standard_quaternions
from splitoct.subspace import span
from oracle import identity_automorphism

FULL_GROUP_ORDER_F2 = 12096


def _random_check_multiplicative(auto, p, seed=0, n=40):
    ctx = algebra(p)
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = tuple(int(c) for c in rng.integers(0, p, 8))
        y = tuple(int(c) for c in rng.integers(0, p, 8))
        assert auto.apply(ctx.mul(x, y)) == ctx.mul(auto.apply(x), auto.apply(y))
        assert ctx.norm(auto.apply(x)) == ctx.norm(x)
        assert ctx.trace(auto.apply(x)) == ctx.trace(x)
    assert auto.apply(ctx.unit) == ctx.unit


@pytest.mark.parametrize("p", [2, 3])
def test_alpha_maps_are_automorphisms(p):
    ctx = algebra(p)
    # alpha_{s,t}: a+xw -> s a s^-1 + (t x s^-1) w needs det s = det t != 0
    s, t = (1, 1, 0, 1), (1, 0, 1, 1)
    auto = alpha_st(s, t, p)
    _random_check_multiplicative(auto, p, seed=p)
    with pytest.raises(PreconditionFailed):
        alpha_st((1, 1, 0, 1), (1, 1, 1, 1), p)   # det mismatch: 1 vs 0
    if p > 2:
        with pytest.raises(PreconditionFailed):
            alpha_st((1, 0, 0, 1), (2, 0, 0, 1), p)   # det 1 vs det 2


def _multiplicative_on_basis_pairs(m, p):
    """Element-wise reference: e_i·e_j ↦ m[i]·m[j] for all 64 pairs."""
    ctx = algebra(p)
    E = np.eye(8, dtype=np.int64)
    return all(ctx.mul(m[i], m[j])
               == tuple(np.array(ctx.mul(E[i], E[j])) @ m % p)
               for i in range(8) for j in range(8))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tensor_multiplicativity_check_matches_basis_pairs(p):
    """The one structure-tensor check accepts exactly the maps the
    element-wise basis-pair check accepts: automorphisms, the same maps
    with one entry changed, the w-half scaled by c (multiplicative iff
    c² = 1, the failures sit only at pairs of w-basis elements) and
    random matrices."""
    rng = np.random.default_rng(p)
    autos = list(generate_group(automorphism_generators(p)[:2])
                 .elements[:70].astype(np.int64))
    maps = list(autos)
    for m in autos:
        bent = m.copy()
        i, j = rng.integers(0, 8, 2)
        bent[i, j] = (bent[i, j] + rng.integers(1, p)) % p
        maps.append(bent)
    scaled = [np.diag([1] * 4 + [c] * 4) for c in range(1, p)]
    maps += scaled + list(rng.integers(0, p, (60, 8, 8)))
    verdicts = []
    for m in maps:
        try:
            _check_multiplicative(m, STRUCT_Z, p)
            ok = True
        except PreconditionFailed:
            ok = False
        assert ok == _multiplicative_on_basis_pairs(m, p)
        verdicts.append(ok)
    assert sum(verdicts) == len(autos) + sum(c * c % p == 1 for c in range(1, p))


@pytest.mark.parametrize("p,expected", [(2, 36), (3, 576)])
def test_alpha_subgroup_order(p, expected):
    # matched unit pairs (s, t) modulo the scalar kernel: |GL2|·|SL2|/(p−1)
    gl = (p * p - 1) * (p * p - p)
    assert gl * (gl // (p - 1)) // (p - 1) == expected
    closure = generate_group(all_alpha_generators(p))
    assert closure.order == expected


@pytest.mark.parametrize("p", [2, 3])
def test_alpha_stabilizes_matrix_part_but_mover_does_not(p):
    h = standard_quaternions(p)
    for g in all_alpha_generators(p):
        assert g.apply_space(h) == h
    mover = find_h_moving_extension(p)
    _random_check_multiplicative(mover, p, seed=7 * p)
    assert mover.apply_space(h) != h


@pytest.mark.parametrize("p", [2, 3])
def test_doubling_extension_and_flip(p):
    ctx = algebra(p)
    # the extension with β = id and w ↦ −w (negates the w-half)
    flip = doubling_extension(np.eye(8, dtype=np.int64)[:4],
                              ctx.smul(-1, ctx.w), p)
    _random_check_multiplicative(flip, p, seed=3)
    assert flip.apply(ctx.w) == ctx.smul(-1, ctx.w)
    assert flip.apply(ctx.n0) == ctx.n0
    # order two for odd p, identity in characteristic 2
    twice = flip.then(flip)
    assert twice.key() == identity_automorphism(p).key()
    # a doubling extension must be refused for a norm-zero slot
    with pytest.raises((PreconditionFailed, ZeroDivisionError, ValueError)):
        doubling_extension(np.eye(8, dtype=np.int64)[:4], ctx.n0w, p)
    # [[0,1],[1,0]] has norm −1 but lies in the image subalgebra
    with pytest.raises(PreconditionFailed, match="orthogonal to the image"):
        doubling_extension(np.eye(8, dtype=np.int64)[:4], (0, 1, 1, 0, 0, 0, 0, 0), p)


def test_full_group_f2_both_routes(group2, brute_count2):
    # route 1: closure of the generators; route 2: direct search
    assert group2.order == FULL_GROUP_ORDER_F2
    assert brute_count2 == FULL_GROUP_ORDER_F2


def test_composition_convention(ctx2):
    gens = all_alpha_generators(2)
    g, h = gens[0], gens[-1]
    x = ctx2.n0w
    assert g.then(h).apply(x) == h.apply(g.apply(x))


def test_orbit_of_space_sizes(census2, generators2):
    # every 6-dimensional subalgebra forms one orbit of size 63
    six = [r.space for r in census2 if r.dim == 6]
    orbit = orbit_of_space(six[0], generators2)
    assert len(orbit) == 63
    assert {s.rows for s in six} == set(orbit)


def test_orbit_partition_single_orbits(columns2, census2, generators2):
    rows = orbit_partition(columns2, generators2)
    assert len(rows) == 23
    for row in rows:
        assert row["orbit_count"] == 1, row
        assert sum(row["orbit_sizes"]) == len(
            [r for r in census2
             if r.dim == row["dim"] and r.label.value == row["label"]])


def test_element_orbits_f2(generators2):
    orbits = element_orbits(generators2)
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [1, 56, 63, 63, 72]
    # orbits refine (here: equal) the element invariant classes
    for orbit in orbits:
        invs = {element_orbit_invariant(v, algebra(2)) for v in orbit}
        assert len(invs) == 1


def test_element_orbits_odd_p_respect_invariants():
    gens = all_alpha_generators(3)
    orbits = element_orbits(gens)
    assert sum(len(o) for o in orbits) == 3 ** 8 - 1
    for orbit in orbits:
        invs = {element_orbit_invariant(v, algebra(3)) for v in orbit}
        assert len(invs) == 1


def _two_transitive_on_lines(p: int) -> bool:
    """Whether the stabilizer maps of the plane (Fp0+Fn0)w act
    two-transitively on its p+1 lines."""
    ctx = algebra(p)
    lines = {}
    for coeffs in itertools.product(range(p), repeat=2):
        if coeffs != (0, 0):
            v = ctx.add(ctx.smul(coeffs[0], ctx.p0w),
                        ctx.smul(coeffs[1], ctx.n0w))
            lines.setdefault(span([v], p).rows, v)
    assert len(lines) == p + 1
    line_index = {key: i for i, key in enumerate(lines)}
    q_space = span([ctx.p0w, ctx.n0w], p)
    H = quaternion_table(p)
    pair_orbit = set()
    for s in itertools.product(range(p), repeat=4):
        if H.norm(s) != 1:
            continue
        a = alpha_st(H.inverse(s), (1, 0, 0, 1), p)
        assert a.apply_space(q_space).rows == q_space.rows
        perm = [line_index[span([a.apply(v)], p).rows] for v in lines.values()]
        pair_orbit.add((perm[0], perm[1]))
    # the orbit of the ordered pair (0, 1) must be every ordered distinct pair
    return pair_orbit == {(i, j) for i in range(p + 1) for j in range(p + 1) if i != j}


@pytest.mark.parametrize("p", [2, 3])
def test_two_transitive_on_singular_lines(p):
    assert _two_transitive_on_lines(p)


def test_group_cap(generators2):
    with pytest.raises(CapExceeded):
        generate_group(generators2, cap=100)


def test_automorphisms_preserve_labels(census2, generators2):
    from splitoct.classify import classify
    mover = generators2[-1]
    for r in census2[::97]:
        assert classify(mover.apply_space(r.space), algebra(2)) is r.label
