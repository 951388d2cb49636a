"""Core algebra: multiplication, involution, norm, doubling."""

import itertools

import numpy as np
import pytest

from splitoct.algebra import (STRUCT_Z, algebra, double, field_table, mod,
                              products, quaternion_table)
from splitoct.classify import OrbitLabel
from splitoct.constructions import rep
from splitoct.field import SUPPORTED_PRIMES
from splitoct.subspace import substructure

PRIMES = [2, 3, 5]


# ---------------------------------------------------------------------------
# named elements and matrix-unit arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", PRIMES)
def test_named_elements(p):
    ctx = algebra(p)
    assert ctx.unit == (1, 0, 0, 1, 0, 0, 0, 0)
    assert ctx.w == (0, 0, 0, 0, 1, 0, 0, 1)
    assert ctx.p0 == (1, 0, 0, 0, 0, 0, 0, 0)
    assert ctx.n0 == (0, 1, 0, 0, 0, 0, 0, 0)
    assert ctx.nbar0 == (0, 0, 1, 0, 0, 0, 0, 0)
    assert ctx.pbar0 == (0, 0, 0, 1, 0, 0, 0, 0)
    assert ctx.p0w == ctx.mul(ctx.p0, ctx.w)
    assert ctx.n0w == ctx.mul(ctx.n0, ctx.w)
    assert ctx.nbar0w == ctx.mul(ctx.nbar0, ctx.w)
    assert ctx.pbar0w == ctx.mul(ctx.pbar0, ctx.w)


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_unit_products(p):
    ctx = algebra(p)
    # the 2x2-matrix part multiplies like matrix units E11,E12,E21,E22
    units = [ctx.p0, ctx.n0, ctx.nbar0, ctx.pbar0]
    idx = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    for a in range(4):
        for b in range(4):
            (i, j), (k, l) = idx[a], idx[b]
            expected = units[2 * i + l] if j == k else (0,) * 8
            assert ctx.mul(units[a], units[b]) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_doubling_unit_squares_to_one(p):
    ctx = algebra(p)
    assert ctx.mul(ctx.w, ctx.w) == ctx.unit
    assert ctx.norm(ctx.w) == (-1) % p
    # w anti-commutes with trace-zero matrix part: w·a = k(a)·w
    for a in (ctx.n0, ctx.nbar0):
        assert ctx.mul(ctx.w, a) == ctx.mul(ctx.conj(a), ctx.w)


@pytest.mark.parametrize("p", PRIMES)
def test_identity_element(p):
    ctx = algebra(p)
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = tuple(int(c) for c in rng.integers(0, p, 8))
        assert ctx.mul(ctx.unit, x) == x
        assert ctx.mul(x, ctx.unit) == x


# ---------------------------------------------------------------------------
# involution, norm, trace
# ---------------------------------------------------------------------------

def _random_elements(ctx, n, seed):
    rng = np.random.default_rng(seed)
    return [tuple(int(c) for c in row) for row in rng.integers(0, ctx.p, (n, 8))]


@pytest.mark.parametrize("p", PRIMES)
def test_involution_properties(p):
    ctx = algebra(p)
    xs = _random_elements(ctx, 40, seed=p)
    for x in xs:
        assert ctx.conj(ctx.conj(x)) == x
        # x + k(x) = tr(x)·1  and  x·k(x) = N(x)·1
        kx = ctx.conj(x)
        assert ctx.add(x, kx) == ctx.smul(ctx.trace(x), ctx.unit)
        assert ctx.mul(x, kx) == ctx.smul(ctx.norm(x), ctx.unit)
    for x in xs[:15]:
        for y in xs[:15]:
            assert ctx.conj(ctx.mul(x, y)) == ctx.mul(ctx.conj(y), ctx.conj(x))
            assert ctx.norm(ctx.mul(x, y)) == (ctx.norm(x) * ctx.norm(y)) % p


@pytest.mark.parametrize("p", PRIMES)
def test_polar_form_agrees_with_norm(p):
    ctx = algebra(p)
    xs = _random_elements(ctx, 20, seed=10 * p)
    for x in xs:
        for y in xs:
            expected = (ctx.norm(ctx.add(x, y)) - ctx.norm(x) - ctx.norm(y)) % p
            assert ctx.polar(x, y) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_degree_two_identity(p):
    ctx = algebra(p)
    for x in _random_elements(ctx, 60, seed=3 * p + 1):
        lhs = ctx.add(ctx.mul(x, x),
                      ctx.smul((-ctx.trace(x)) % p, x))
        assert lhs == ctx.smul((-ctx.norm(x)) % p, ctx.unit)


@pytest.mark.parametrize("p", PRIMES)
def test_inverse(p):
    ctx = algebra(p)
    count = 0
    for x in _random_elements(ctx, 80, seed=17 * p):
        if ctx.norm(x) == 0:
            with pytest.raises(ZeroDivisionError):
                ctx.inverse(x)
        else:
            count += 1
            assert ctx.mul(x, ctx.inverse(x)) == ctx.unit
            assert ctx.mul(ctx.inverse(x), x) == ctx.unit
    assert count > 10


# ---------------------------------------------------------------------------
# the batched product kernel
# ---------------------------------------------------------------------------

def _as_tuple(v):
    return tuple(int(c) for c in v)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_products_match_tuple_product(p):
    # 13, the largest supported prime, gives the largest float32 sums
    ctx = algebra(p)
    rng = np.random.default_rng(700 + p)
    X = rng.integers(0, p, (5, 3, 8))
    Y = rng.integers(0, p, (5, 4, 8))
    X[0] = Y[0, :3] = p - 1                 # the largest possible sums
    P = products(X, Y, ctx.struct, p)
    assert P.shape == (5, 3, 4, 8) and P.dtype == np.float32
    R = mod(P, p)
    for m, i, j in itertools.product(range(5), range(3), range(4)):
        assert _as_tuple(R[m, i, j]) == ctx.mul(X[m, i], Y[m, j])
    R = mod(products(X, X, ctx.struct, p), p)
    assert R.shape == (5, 3, 3, 8)
    for m, i, j in itertools.product(range(5), range(3), range(3)):
        assert _as_tuple(R[m, i, j]) == ctx.mul(X[m, i], X[m, j])


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_mod_matches_numpy_and_keeps_its_input(p):
    rng = np.random.default_rng(800 + p)
    x = rng.integers(-(2 ** 20) + 1, 2 ** 20, (64, 3, 3, 8)).astype(np.float32)
    x[0, 0, 0] = (-(2 ** 20) + 1, -p, -1, 0, 1, p, p + 1, 2 ** 20 - 1)
    before = x.copy()
    r = mod(x, p)
    assert r.dtype == np.float32 and r.shape == x.shape
    assert np.array_equal(r, np.mod(x, p))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
@pytest.mark.parametrize("label", [OrbitLabel.SplitQuat, OrbitLabel.NO])
def test_products_under_substructure_tensor(p, label):
    # coordinates in a 4-dimensional subalgebra's own basis multiply like
    # the octonions they stand for
    ctx = algebra(p)
    rows = rep(label, p).matrix()
    C = substructure(rows[None], ctx)[0]
    assert C.shape == (4, 4, 4)
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (20, 4))
    b = rng.integers(0, p, (20, 4))
    R = mod(products(a[:, None], b[:, None], C, p)[:, 0, 0], p)
    for i in range(20):
        want = ctx.mul(a[i] @ rows % p, b[i] @ rows % p)
        assert _as_tuple(R[i].astype(np.int64) @ rows % p) == want


def test_products_guard_float32_exactness():
    X = np.ones((1, 2, 8), dtype=np.int64)
    with pytest.raises(ValueError):
        products(X, X, STRUCT_Z % 29, 29)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_multiplication_matrices_match_tuple_product(p):
    ctx = algebra(p)
    basis = np.eye(8, dtype=np.int64)
    for a in _random_elements(ctx, 5, seed=p) + [(p - 1,) * 8]:
        left = ctx.mul_matrix(a, "left")
        right = ctx.mul_matrix(a, "right")
        assert [_as_tuple(r) for r in left] == [ctx.mul(a, e) for e in basis]
        assert [_as_tuple(r) for r in right] == [ctx.mul(e, a) for e in basis]


@pytest.mark.parametrize("A", [algebra(3), quaternion_table(3)], ids=["octonions", "quaternions"])
def test_scalar_operations_refuse_an_element_of_another_length(A):
    """Every scalar operation, fed an element one coordinate short or one
    too long in either place, raises ValueError instead of reading a
    truncated element."""
    u = (1, 2, 0, 1, 0, 1, 2, 1)[:A.dim]
    unary = (A.conj, A.norm, A.trace, A.inverse, lambda x: A.smul(2, x),
             lambda x: A.mul_matrix(x, "left"))
    for bad in (u[:-1], u + (0,)):
        calls = [(op, (bad,)) for op in unary]
        calls += [(op, args) for op in (A.mul, A.polar, A.add, A.subv)
                  for args in ((bad, u), (u, bad))]
        for op, args in calls:
            with pytest.raises(ValueError, match=f"has {A.dim} coordinates, got {len(bad)}"):
                op(*args)
    assert A.mul(u, u) == {8: (2, 1, 0, 2, 0, 2, 1, 2), 4: (1, 1, 0, 1)}[A.dim]


# ---------------------------------------------------------------------------
# doubling chain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", PRIMES)
def test_double_quaternions_gives_octonions(p):
    doubled = double(quaternion_table(p), (-1) % p)
    target = algebra(p)
    assert np.array_equal(doubled.struct, target.struct)
    assert np.array_equal(doubled.conj_mat, target.conj_mat)
    assert doubled.unit == target.unit


def _is_commutative(table):
    d = table.dim
    basis = np.eye(d, dtype=np.int64)
    return all(table.mul(basis[i], basis[j]) == table.mul(basis[j], basis[i])
               for i in range(d) for j in range(d))


def _is_associative(table):
    d = table.dim
    basis = np.eye(d, dtype=np.int64)
    for i, j, k in itertools.product(range(d), repeat=3):
        lhs = table.mul(table.mul(basis[i], basis[j]), basis[k])
        rhs = table.mul(basis[i], table.mul(basis[j], basis[k]))
        if lhs != rhs:
            return False
    return True


def _tables_isomorphic(t1, t2, base_change, p):
    """Does coords -> coords @ base_change turn t1-multiplication into t2?"""
    d = t1.dim
    B = np.array(base_change, dtype=np.int64)
    basis = np.eye(d, dtype=np.int64)
    for i in range(d):
        for j in range(d):
            img = np.array(t2.mul((basis[i] @ B) % p, (basis[j] @ B) % p),
                           dtype=np.int64)
            direct = (np.array(t1.mul(basis[i], basis[j]), dtype=np.int64)
                      @ B) % p
            if not np.array_equal(img % p, direct):
                return False
    return True


@pytest.mark.parametrize("p", [3, 5])
def test_double_field_twice_is_matrix_algebra_odd_p(p):
    # F -> F+F -> quaternions: associative at every step, second step
    # isomorphic to 2x2 matrices via an explicit base change
    once = double(field_table(p), (-1) % p)
    twice = double(once, (-1) % p)
    assert _is_associative(once) and _is_commutative(once)
    assert _is_associative(twice) and not _is_commutative(twice)
    b4 = [[1, 0, 0, 1],
          [1, 0, 0, -1],
          [0, 1, 1, 0],
          [0, 1, -1, 0]]
    assert _tables_isomorphic(twice, quaternion_table(p), b4, p)


@pytest.mark.parametrize("p", [3, 5])
def test_full_doubling_chain_odd_p(p):
    chain = field_table(p)
    for _ in range(3):
        chain = double(chain, (-1) % p)
    b4 = np.array([[1, 0, 0, 1],
                   [1, 0, 0, -1],
                   [0, 1, 1, 0],
                   [0, 1, -1, 0]], dtype=np.int64)
    b8 = np.zeros((8, 8), dtype=np.int64)
    b8[:4, :4] = b4
    b8[4:, 4:] = b4
    assert _tables_isomorphic(chain, algebra(p), b8 % p, p)


def test_double_field_stays_commutative_char2():
    # in characteristic 2 the involution on F+F is trivial, so repeated
    # doubling never leaves the commutative world and cannot reach the
    # 2x2 matrix algebra
    once = double(field_table(2), 1)
    twice = double(once, 1)
    assert _is_commutative(once)
    assert _is_commutative(twice)
    assert not _is_commutative(quaternion_table(2))
