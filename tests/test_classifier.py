"""Labelling of closed subspaces and element-level invariants."""

import itertools
import re
from collections import Counter

import numpy as np
import pytest

from splitoct.algebra import Algebra, algebra
from splitoct.classify import (LABEL_DIM, LABELS, ClassificationError,
                               NotClosed, OrbitLabel, _associative,
                               _form_values, batch_columns, classify,
                               element_orbit_invariant, record_for)
from splitoct.constructions import UnreachableLabel, rep
from splitoct.field import SUPPORTED_PRIMES
from splitoct.lattice import subalgebras_inside
from splitoct.subspace import coefficient_vectors, span, substructure
from oracle import byte_tables, elements, isotropic, nonzero_elements

REACHABLE = [lab for lab in OrbitLabel if lab.reachable]
UNREACHABLE = [lab for lab in OrbitLabel if not lab.reachable]


def test_label_catalog_shape():
    assert len(list(OrbitLabel)) == 27
    assert len(REACHABLE) == 23
    assert {lab.value for lab in UNREACHABLE} == {"D", "H", "D+Q", "K"}
    # captions are unique and every label has a dimension
    assert len({lab.value for lab in OrbitLabel}) == 27
    assert set(LABEL_DIM) == set(OrbitLabel)
    for lab in OrbitLabel:
        assert OrbitLabel(lab.value) is lab
    with pytest.raises(ValueError):
        OrbitLabel("no-such-label")


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
@pytest.mark.parametrize("label", REACHABLE)
def test_representative_round_trip(p, label):
    space = rep(label, p)
    assert space.dim == LABEL_DIM[label]
    assert classify(space, algebra(p)) is label


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("label", UNREACHABLE)
def test_unreachable_labels_have_no_representative(p, label):
    with pytest.raises(UnreachableLabel):
        rep(label, p)


def test_classify_rejects_open_spaces():
    open_space = span([(0, 1, 0, 0, 0, 0, 0, 0),
                       (0, 0, 1, 0, 0, 0, 0, 0)], 2)
    with pytest.raises(NotClosed):
        classify(open_space, algebra(2))
    with pytest.raises(NotClosed):
        record_for(open_space, algebra(2))


def _componentwise(p):
    """F_p⁸ with componentwise products, a zero norm form and unit (1, ..., 1):
    not an octonion algebra, so its subalgebras need not fit the rules."""
    struct = np.zeros((8, 8, 8), dtype=np.int64)
    struct[range(8), range(8), range(8)] = 1
    return Algebra(struct, np.zeros((8, 8), dtype=np.int64), (1,) * 8, p)


def _zero_products(p):
    """F·1 ⊕ F⁷ with zero products on F⁷ and a zero norm form: again not an
    octonion algebra."""
    struct = np.zeros((8, 8, 8), dtype=np.int64)
    struct[0, range(8), range(8)] = struct[range(8), 0, range(8)] = 1
    return Algebra(struct, np.zeros((8, 8), dtype=np.int64), (1,) + (0,) * 7, p)


@pytest.mark.parametrize("p", [2, 3])
def test_rule_table_raises_unless_exactly_one_rule_fits(p):
    e = np.eye(8, dtype=np.int64)
    # span{e1, ..., e4} of the zero-product table is non-unital and singular,
    # and every element annihilates it on both sides: it fits the rules of
    # both nO and On
    four = ("closed subspace ((0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0), "
            "(0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 0)) fits 2 labels")
    for classify_stack in (batch_columns,
                           lambda rows, A: batch_columns(rows, A).records()):
        with pytest.raises(ClassificationError, match=re.escape(four)):
            classify_stack(e[None, 1:5], _zero_products(p))
        # span{e0, e1} of the componentwise table is non-unital and singular
        # with the two-sided identity e0 + e1, so it has no annihilator on
        # either side and nonzero products: no plane rule fits; nor does
        # any rule cover dimension 7
        for rows in (e[None, :2], e[None, :7]):
            with pytest.raises(ClassificationError, match="fits 0 labels"):
                classify_stack(rows, _componentwise(p))


def test_record_flags_match_element_level_bruteforce(ctx2):
    """Recompute every flag from scratch on all elements, via byte tables."""
    ctx, T = ctx2, byte_tables(ctx2)
    for label in REACHABLE:
        space = rep(label, 2)
        record = record_for(space, ctx)
        bytes_ = sorted(T.byte_of(v) for v in elements(space))
        arr = np.array(bytes_, dtype=np.intp)
        prod = T.mul_byte[np.ix_(arr, arr)]
        comm = bool(np.array_equal(prod, prod.T))
        assoc = bool(np.array_equal(
            T.mul_byte[prod[:, :, None], arr[None, None, :]],
            T.mul_byte[arr[:, None, None], prod[None, :, :]]))
        assert record.commutative == comm, label
        assert record.associative == assoc, label
        assert record.contains_one == (T.byte_of(ctx.unit) in bytes_)
        assert record.label is label
        assert record.dim == space.dim
        d = record.to_json_dict()
        assert set(d) == {"dim", "basis", "label", "flags", "R_dim", "Q_dim"}
        assert set(d["flags"]) == {"assoc", "comm", "unital"}
        assert d["label"] == label.value


def test_element_invariant_named_elements(ctx2):
    assert element_orbit_invariant(ctx2.unit, ctx2) == (1, 0, True)
    assert element_orbit_invariant(ctx2.n0, ctx2) == (0, 0, False)
    assert element_orbit_invariant(ctx2.p0, ctx2) == (0, 1, False)
    assert element_orbit_invariant(ctx2.w, ctx2) == (1, 0, False)
    assert element_orbit_invariant((0,) * 8, ctx2) == (0, 0, True)


def test_element_invariant_reads_coordinates_mod_p(ctx2, ctx3):
    """Unreduced coordinates name the same element: 3·1 over F_2 and −1
    over F_3 are central."""
    assert element_orbit_invariant((3, 0, 0, 3, 0, 0, 0, 0), ctx2) == (1, 0, True)
    assert element_orbit_invariant((-1, 0, 0, -1, 0, 0, 0, 0), ctx3) == (1, 1, True)
    assert (element_orbit_invariant((2, 4, 0, 5, 3, 0, -2, 1), ctx3)
            == element_orbit_invariant((2, 1, 0, 2, 0, 0, 1, 1), ctx3))


def test_element_invariant_class_sizes_f2(ctx2):
    T = byte_tables(ctx2)
    counts = Counter(
        element_orbit_invariant(T.coords_of_byte(b), ctx2)
        for b in range(1, 256))
    assert counts == {(1, 0, True): 1, (1, 1, False): 56, (0, 0, False): 63,
                      (1, 0, False): 63, (0, 1, False): 72}


def test_element_invariant_odd_p(ctx3):
    inv = element_orbit_invariant(ctx3.unit, ctx3)
    assert inv == (1, 2, True)
    two_one = tuple((2 * c) % 3 for c in ctx3.unit)
    assert element_orbit_invariant(two_one, ctx3) == (4 % 3, 4 % 3, True)


@pytest.mark.parametrize("p", [2, 3])
def test_classify_agrees_on_all_dim_one_spaces(p):
    # every line through a nonzero vector either is closed (labelled F, Fp
    # or Fn) or raises; cross-check the label against direct arithmetic
    ctx = algebra(p)
    seen = Counter()
    for v in itertools.product(range(p), repeat=8):
        if not any(v):
            continue
        line = span([v], p)
        sq = ctx.mul(v, v)
        if not line.contains(sq):
            with pytest.raises(NotClosed):
                classify(line, ctx)
            continue
        label = classify(line, ctx)
        seen[label] += 1
        if label is OrbitLabel.F:
            assert line.contains(ctx.unit)
        elif label is OrbitLabel.Fn:
            assert sq == (0,) * 8
        else:
            assert label is OrbitLabel.Fp
            # spanned by an idempotent: some multiple e of v has e² = e
            assert any(ctx.mul(e, e) == e for e in nonzero_elements(line))
    assert set(seen) == {OrbitLabel.F, OrbitLabel.Fn, OrbitLabel.Fp}


def _closed_stacks(p):
    """RREF bases of closed subspaces over F_p, one stack per dimension
    k ≥ 1: every representative and, over F_5, the 818 four-dimensional
    subalgebras of Qperp."""
    stacks = {}
    for lab in REACHABLE:
        space = rep(lab, p)
        if space.dim:
            stacks.setdefault(space.dim, []).append(space.matrix()[None])
    if p == 5:
        inside = list(subalgebras_inside(rep(OrbitLabel.Dim6, 5), algebra(5)))
        stacks[4].append(inside[3])
    return {k: np.concatenate(v) for k, v in stacks.items()}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_associativity_matmuls_match_every_triple(p):
    """The stacked matmuls against (b_i b_j) b_l = b_i (b_j b_l) tested one
    triple at a time on the structure constants; nO and On are not
    associative."""
    A, found = algebra(p), set()
    for k, rows in _closed_stacks(p).items():
        C = substructure(rows, A)
        want = [all(((c[i, j] @ c[:, l]) % p == (c[j, l] @ c[i]) % p).all()
                    for i, j, l in itertools.product(range(k), repeat=3)) for c in C]
        assert _associative(C, p).tolist() == want, k
        found.update(want)
    assert found == {True, False}
    for lab in (OrbitLabel.NO, OrbitLabel.ON):
        assert not _associative(substructure(rep(lab, p).matrix()[None], A), p)[0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_norm_form_values_match_the_norm_of_each_element(p):
    """N(Σ x_i b_i) from the basis norms and Gram matrix equals the norm of
    the element Σ x_i b_i, for every coefficient vector x.  The rules read
    it only over F_2, for dim Q at every k; at odd p the formula is checked
    for k ≤ 4."""
    A = algebra(p)
    for k, rows in _closed_stacks(p).items():
        if p > 2 and k > 4:
            continue
        X = coefficient_vectors(k, p)
        for block in np.array_split(rows, -(-len(rows) // 128)):
            gram = block @ A.gram @ block.transpose(0, 2, 1) % p
            got = _form_values(X, A.norms(block), gram, p)
            assert np.array_equal(got, A.norms(X @ block % p)), k


@pytest.mark.parametrize("p", [2, 3, 5])
def test_unital_nondegenerate_four_spaces_are_isotropic(p):
    """The F2x2 rule tests no isotropy: by Chevalley–Warning the norm, a
    quadratic form in 4 variables over F_p, has a nonzero zero on every
    unital 4-dimensional subalgebra with R = 0, found here by trying every
    element."""
    A = algebra(p)
    rows = _closed_stacks(p)[4]
    cols = batch_columns(rows, A)
    nondeg = (cols.unital == 1) & (cols.R == 0)
    assert nondeg.any()
    assert (cols.label[nondeg] == LABELS.index(OrbitLabel.SplitQuat)).all()
    assert isotropic(rows[nondeg], A).all()
