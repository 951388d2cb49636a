"""The packed orbit engine: short generating set, int8 group closure,
batched subspace orbits and index-permutation element and census orbits."""

import itertools

import numpy as np
import pytest

import oracle
from splitoct import autos
from splitoct.algebra import algebra
from splitoct.autos import (Automorphism, CapExceeded, all_alpha_generators,
                            automorphism_generators,
                            element_orbits, find_h_moving_extension,
                            generate_group, orbit_of_space, orbit_partition)
from splitoct.census import census_columns
from splitoct.classify import LABELS, Columns, OrbitLabel, element_orbit_invariant
from splitoct.constructions import rep
from splitoct.linalg import batch_rref, rref

G2_ORDER_F3 = 3 ** 6 * (3 ** 6 - 1) * (3 ** 2 - 1)


@pytest.fixture(scope="module")
def alpha3():
    return all_alpha_generators(3)


@pytest.fixture(scope="module")
def columns3():
    """The F_3 subalgebras of dimensions 1 and 2 (9,130 subspaces)."""
    return census_columns(algebra(3), (1, 2))


def _records(columns):
    """The records of the census ``columns``, for the record-based oracle."""
    return [r for cols in columns for r in cols.records()]


def test_short_generating_set_closes_to_full_group_f2(brute_count2):
    gens = automorphism_generators(2)
    assert gens[-1].key() == find_h_moving_extension(2).key()
    group = generate_group(gens)
    assert group.order == brute_count2 == 12096
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


def test_orbit_partition_same_for_both_generating_sets(columns2, generators2):
    assert (orbit_partition(columns2, automorphism_generators(2))
            == orbit_partition(columns2, generators2))


@pytest.mark.parametrize("p, maps, orbits", [(2, 3, 23), (2, 2, 336),
                                             (3, 3, 9), (3, 2, 175)])
def test_orbit_partition_matches_per_orbit_bfs(p, maps, orbits, columns2, columns3):
    """The components equal one subspace BFS per orbit, under the short
    generating set (one orbit per label) and under its two alpha maps
    alone, whose orbits split the label classes."""
    columns = columns2 if p == 2 else columns3
    gens = automorphism_generators(p)[:maps]
    rows = orbit_partition(columns, gens)
    assert rows == oracle.orbit_partition(_records(columns), gens)
    assert sum(row["orbit_count"] for row in rows) == orbits


def _with_fn_line(columns2, change):
    """The F_2 census with ``change(cols, i)`` in place of its stack of
    lines, i the index of the first Fn line there."""
    d = next(d for d, cols in enumerate(columns2) if cols.rows.shape[1] == 1)
    i = int(np.flatnonzero(columns2[d].label == LABELS.index(OrbitLabel.Fn))[0])
    return columns2[:d] + [change(columns2[d], i)] + columns2[d + 1:]


def test_orbit_partition_refuses_a_census_not_closed(columns2, generators2):
    columns = _with_fn_line(columns2, lambda cols, i: Columns(
        *(np.delete(col, i, axis=0) for col in cols[:-1]), cols.p))
    with pytest.raises(ArithmeticError, match="not closed"):
        orbit_partition(columns, generators2)


def test_orbit_partition_refuses_an_orbit_across_labels(columns2, generators2):
    def recode(cols, i):
        label = cols.label.copy()
        label[i] = LABELS.index(OrbitLabel.Fp)
        return cols._replace(label=label)

    with pytest.raises(ArithmeticError, match="left its label class"):
        orbit_partition(_with_fn_line(columns2, recode), generators2)


@pytest.mark.parametrize("dims", [(0, 8), (1,)])
def test_orbit_partition_refuses_columns_over_another_field(dims):
    """F_3 columns under F_2 generators are bad input: at dims 0 and 8 they
    would pass for one orbit each, and at dim 1 an F_3 line has no F_2
    image among them."""
    columns = census_columns(algebra(3), dims)
    with pytest.raises(ValueError, match="F_3"):
        orbit_partition(columns, automorphism_generators(2))
    assert {cols.p for cols in columns} == {3}


def test_orbit_partition_refuses_a_map_that_is_no_automorphism(columns2):
    swap = np.eye(8, dtype=np.int64)[[1, 0, 2, 3, 4, 5, 6, 7]]   # E11 <-> E12
    bijection = Automorphism(tuple(map(tuple, swap.tolist())), 2)
    with pytest.raises(ArithmeticError):
        orbit_partition(columns2, automorphism_generators(2)[:2] + [bijection])


@pytest.fixture
def rref_calls(monkeypatch):
    """The shape of every stack handed to autos.batch_rref."""
    shapes = []
    real = autos.batch_rref

    def recording(mats, p):
        shapes.append(mats.shape)
        return real(mats, p)

    monkeypatch.setattr(autos, "batch_rref", recording)
    return shapes


def test_orbit_partition_reduces_in_capped_blocks(rref_calls):
    """The 19,657 lines over F_5 take two blocks per generator, and no
    batched RREF gets more basis rows than the cap."""
    columns = census_columns(algebra(5), (1,))
    gens = automorphism_generators(5)
    rows = orbit_partition(columns, gens)
    assert [row["orbit_sizes"] for row in rows] == [[1], [3906], [15750]]
    assert len(rref_calls) == 2 * 3
    assert all(m * d <= autos.PARTITION_BLOCK_ROWS for m, d, _ in rref_calls)
    assert rows == oracle.orbit_partition(_records(columns), gens)


def test_orbit_partition_blocks_do_not_change_the_answer(columns2, census2,
                                                         rref_calls, monkeypatch):
    gens = automorphism_generators(2)[:2]
    want = oracle.orbit_partition(census2, gens)
    assert orbit_partition(columns2, gens) == want
    rref_calls.clear()
    monkeypatch.setattr(autos, "PARTITION_BLOCK_ROWS", 60)
    assert orbit_partition(columns2, gens) == want
    assert all(m * d <= 60 for m, d, _ in rref_calls)
    assert len(rref_calls) > 2 * 9


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
    assert element_orbits(generators2) == oracle.element_orbits(generators2, 2)
    gens = automorphism_generators(2)
    assert element_orbits(gens) == oracle.element_orbits(gens, 2)


def test_element_orbits_match_elementwise_bfs_f3(alpha3):
    assert element_orbits(alpha3) == oracle.element_orbits(alpha3, 3)


def test_element_orbits_read_the_field_of_the_generators():
    """The orbits live in F_p^8 for the p of the generators: over F_2 the
    unit and the (norm, trace) classes of sizes 56, 63, 63 and 72."""
    orbits = element_orbits(automorphism_generators(2))
    assert sorted(map(len, orbits)) == [1, 56, 63, 63, 72]
    assert all(max(v) <= 1 for orbit in orbits for v in orbit)


def test_orbits_refuse_a_field_the_generators_do_not_act_on():
    gens2, gens3 = automorphism_generators(2), automorphism_generators(3)
    with pytest.raises(ValueError, match="F_3"):
        orbit_of_space(rep(OrbitLabel.E, 3), gens2)
    for mixed in (gens2 + gens3, gens3[:1] + gens2):
        with pytest.raises(ValueError, match="one field"):
            generate_group(mixed)
        with pytest.raises(ValueError, match="one field"):
            element_orbits(mixed)
        with pytest.raises(ValueError, match="one field"):
            orbit_of_space(rep(OrbitLabel.E, 2), mixed)


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
    orbits = element_orbits(automorphism_generators(3))
    classes: dict = {}
    for v in itertools.product(range(3), repeat=8):
        if any(v):
            classes.setdefault(element_orbit_invariant(v, algebra(3)), set()).add(v)
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
