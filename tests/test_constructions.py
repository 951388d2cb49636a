"""Named subalgebra constructions and one-sided multiplication spaces."""

import pytest

from splitoct.algebra import algebra
from splitoct.classify import OrbitLabel, classify
from splitoct.constructions import (PreconditionFailed, UnreachableLabel,
                                    centralizer, companion_element,
                                    heisenberg, kernel_of_left_mul,
                                    left_mul_space, rep, right_ideal_double,
                                    right_mul_space, standard_quaternions,
                                    top_row_ideal, upper_triangular)
from splitoct.field import SUPPORTED_PRIMES
from splitoct.lattice import GRAPH_LABELS
from splitoct.subspace import closed_bases, intersect, perp, span, sum_spaces
from oracle import nonzero_elements

PRIMES = [2, 3, 5]


def _closed(space, A) -> bool:
    return bool(closed_bases(space.matrix()[None], A)[0])


@pytest.mark.parametrize("p", PRIMES)
def test_standard_pieces(p):
    ctx = algebra(p)
    q = standard_quaternions(p)
    assert q.dim == 4 and _closed(q, ctx)
    assert classify(q, ctx) is OrbitLabel.SplitQuat
    t = upper_triangular(p)
    assert t.dim == 3 and _closed(t, ctx)
    assert classify(t, ctx) is OrbitLabel.T
    l = top_row_ideal(p)
    assert l.dim == 2 and _closed(l, ctx)
    assert classify(l, ctx) is OrbitLabel.FnFp
    # the top row is a right ideal of the matrix part: L·H ⊆ L
    for u in l.rows:
        for v in q.rows:
            assert l.contains(ctx.mul(u, v))


@pytest.mark.parametrize("p", PRIMES)
def test_mul_spaces_are_product_spans(p):
    import numpy as np

    ctx = algebra(p)
    basis = [tuple(int(c) for c in row) for row in np.eye(8, dtype=int)]
    for a in (ctx.n0, ctx.n0w, ctx.p0, (1, 1, 0, 0, 0, 1, 0, 0)):
        lm = left_mul_space(a, ctx)
        rm = right_mul_space(a, ctx)
        assert lm == span([ctx.mul(a, v) for v in basis], p)
        assert rm == span([ctx.mul(v, a) for v in basis], p)
        rng = np.random.default_rng(p)
        for _ in range(60):
            x = tuple(int(c) for c in rng.integers(0, p, 8))
            assert lm.contains(ctx.mul(a, x))
            assert rm.contains(ctx.mul(x, a))


@pytest.mark.parametrize("p", [2, 3])
def test_singular_directional_spaces(p):
    ctx = algebra(p)
    n0 = ctx.n0
    lm = left_mul_space(n0, ctx)
    rm = right_mul_space(n0, ctx)
    # for a singular direction both one-sided spaces are 4-dimensional and
    # the kernel of left multiplication by k(a) recovers a·O
    assert lm.dim == 4 and rm.dim == 4
    ka = ctx.conj(n0)
    assert kernel_of_left_mul(ka, ctx) == lm
    # intersection a·O ∩ O·a for the same direction contains a
    assert intersect(lm, rm).contains(n0)
    # an invertible direction has full one-sided spaces and zero kernel
    assert left_mul_space(ctx.w, ctx).dim == 8
    assert kernel_of_left_mul(ctx.w, ctx).dim == 0


@pytest.mark.parametrize("p", PRIMES)
def test_right_ideal_double_examples(p):
    ctx = algebra(p)
    H = standard_quaternions(p)
    U = upper_triangular(p)
    R_top = top_row_ideal(p)
    one = span([ctx.unit], p)
    kappa_top = span([ctx.n0, ctx.pbar0], p)

    d6 = right_ideal_double(H, R_top, p)
    assert d6.dim == 6 and classify(d6, ctx) is OrbitLabel.Dim6

    d5 = right_ideal_double(U, kappa_top, p)
    assert d5.dim == 5 and classify(d5, ctx) is OrbitLabel.Dim5
    assert d5 == sum_spaces(left_mul_space(ctx.n0, ctx), right_mul_space(ctx.n0, ctx))

    d3 = right_ideal_double(one, R_top, p)
    assert d3.dim == 3 and classify(d3, ctx) is OrbitLabel.FplusQ

    d4 = right_ideal_double(span([ctx.unit, ctx.p0], p), R_top, p)
    assert d4.dim == 4 and classify(d4, ctx) is OrbitLabel.SplusQ

    d3b = right_ideal_double(R_top, span([ctx.n0], p), p)
    assert d3b.dim == 3 and classify(d3b, ctx) is OrbitLabel.mOcapOn


@pytest.mark.parametrize("p", [2, 3])
def test_right_ideal_double_preconditions(p):
    ctx = algebra(p)
    # R = span{nbar0} is a LEFT ideal slice for the upper triangulars, not
    # a right one: U·nbar0 ⊄ F·nbar0, so the construction must refuse
    with pytest.raises(PreconditionFailed):
        right_ideal_double(upper_triangular(p), span([ctx.nbar0], p), p)
    # A not closed under the matrix product
    with pytest.raises(PreconditionFailed, match="A is not closed under the matrix product"):
        right_ideal_double(span([ctx.n0, ctx.nbar0], p),
                           span([ctx.n0], p), p)


@pytest.mark.parametrize("p", PRIMES)
def test_heisenberg(p):
    ctx = algebra(p)
    h = heisenberg(ctx.n0, ctx.n0w, ctx)
    assert h.dim == 2  # n0·(n0·w) = 0: degenerate case
    h3 = heisenberg(ctx.n0, ctx.nbar0w, ctx)
    assert h3.dim == 3
    assert _closed(h3, ctx)
    assert classify(h3, ctx) is OrbitLabel.HeisNOcapOn
    with pytest.raises(PreconditionFailed):
        heisenberg(ctx.unit, ctx.n0w, ctx)    # not nilpotent
    with pytest.raises(PreconditionFailed):
        heisenberg(ctx.n0, ctx.n0, ctx)       # dependent
    with pytest.raises(PreconditionFailed):
        heisenberg(ctx.n0, ctx.nbar0, ctx)    # not orthogonal


@pytest.mark.parametrize("p", PRIMES)
def test_companion_element_generates_quadratic_field(p):
    ctx = algebra(p)
    c = companion_element(p)
    sq = ctx.mul(c, c)
    line = span([ctx.unit, c], p)
    assert line.contains(sq)
    assert classify(line, ctx) is OrbitLabel.E
    # no zero divisors: every nonzero element is invertible
    assert all(ctx.norm(v) != 0 for v in nonzero_elements(line))


@pytest.mark.parametrize("p", PRIMES)
def test_split_etale_pair(p):
    # the diagonal étale algebra F x F: spanned by 1 and an idempotent
    ctx = algebra(p)
    pair = span([ctx.unit, ctx.p0], p)
    assert classify(pair, ctx) is OrbitLabel.S
    # it contains a zero divisor, unlike the quadratic field extension
    assert any(ctx.norm(v) == 0 for v in nonzero_elements(pair))


@pytest.mark.parametrize("p", [2, 3])
def test_centralizer_examples(p):
    ctx = algebra(p)
    # central element: everything commutes
    assert centralizer(ctx.unit, ctx).dim == 8
    c_n0 = centralizer(ctx.n0, ctx)
    if p == 2:
        assert c_n0.dim == 6
        assert not _closed(c_n0, ctx)
    else:
        assert c_n0.dim == 4
        assert _closed(c_n0, ctx)
    # a separable non-central element has a 2-dimensional centralizer
    c = companion_element(p)
    assert centralizer(c, ctx) == span([ctx.unit, c], p)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_every_representative_lies_in_qperp(p):
    """The lattice scans only the subalgebra the representatives generate
    with 1.  It is rep(Qperp) = rep(Q)^⊥, because the n·O family is built
    on n0w, which lies in rep(Q) = ⟨p0w, n0w⟩."""
    A = algebra(p)
    qperp = rep(OrbitLabel.Dim6, p)
    assert qperp == perp(rep(OrbitLabel.Q, p), A)
    for lab in GRAPH_LABELS:
        assert all(qperp.contains(row) for row in rep(lab, p).rows), lab
    n_o, o_n = left_mul_space(A.n0w, A), right_mul_space(A.n0w, A)
    meet = intersect(n_o, o_n)
    assert rep(OrbitLabel.NO, p) == n_o
    assert rep(OrbitLabel.ON, p) == o_n
    assert rep(OrbitLabel.HeisNOcapOn, p) == meet
    assert rep(OrbitLabel.FplusHeis, p) == sum_spaces(span([A.unit], p), meet)
    assert rep(OrbitLabel.Dim5, p) == sum_spaces(n_o, o_n)


@pytest.mark.parametrize("p", PRIMES)
def test_rep_is_deterministic(p):
    for label in OrbitLabel:
        if not label.reachable:
            with pytest.raises(UnreachableLabel):
                rep(label, p)
            continue
        assert rep(label, p) == rep(label, p)
