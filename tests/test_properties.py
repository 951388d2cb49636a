"""Property-based tests: algebraic laws on randomized inputs."""

import pytest
from hypothesis import given, settings, strategies as st

from splitoct.algebra import algebra
from splitoct.autos import alpha_st
from splitoct.classify import classify
from splitoct.subspace import closure, intersect, perp, span, sum_spaces
from oracle import byte_tables

PRIMES = [2, 3, 5]


def octonions(p):
    return st.tuples(*[st.integers(0, p - 1)] * 8)


def invertible_2x2(p):
    return st.tuples(*[st.integers(0, p - 1)] * 4).filter(
        lambda s: (s[0] * s[3] - s[1] * s[2]) % p != 0)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=150, derandomize=True)
@given(data=st.data())
def test_norm_and_involution_laws(p, data):
    ctx = algebra(p)
    x = data.draw(octonions(p))
    y = data.draw(octonions(p))
    assert ctx.norm(ctx.mul(x, y)) == (ctx.norm(x) * ctx.norm(y)) % p
    assert ctx.conj(ctx.mul(x, y)) == ctx.mul(ctx.conj(y), ctx.conj(x))
    assert ctx.conj(ctx.conj(x)) == x
    assert ctx.mul(x, ctx.conj(x)) == ctx.smul(ctx.norm(x), ctx.unit)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=150, derandomize=True)
@given(data=st.data())
def test_moufang_laws(p, data):
    ctx = algebra(p)
    a = data.draw(octonions(p))
    x = data.draw(octonions(p))
    y = data.draw(octonions(p))
    ax, ya, xy = ctx.mul(a, x), ctx.mul(y, a), ctx.mul(x, y)
    assert ctx.mul(ax, ya) == ctx.mul(a, ctx.mul(xy, a))
    assert ctx.mul(a, ctx.mul(x, ctx.mul(a, y))) == ctx.mul(ctx.mul(ax, a), y)
    assert ctx.mul(x, ctx.mul(a, ya)) == ctx.mul(ctx.mul(ctx.mul(x, a), y), a)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=150, derandomize=True)
@given(data=st.data())
def test_degree_two_and_adjoint(p, data):
    ctx = algebra(p)
    x = data.draw(octonions(p))
    y = data.draw(octonions(p))
    c = data.draw(octonions(p))
    sq = ctx.mul(x, x)
    lin = ctx.smul(ctx.trace(x), x)
    assert ctx.subv(sq, lin) == ctx.smul((-ctx.norm(x)) % p, ctx.unit)
    assert ctx.polar(ctx.mul(c, x), y) == ctx.polar(x, ctx.mul(ctx.conj(c), y))
    assert ctx.polar(ctx.mul(x, c), y) == ctx.polar(x, ctx.mul(y, ctx.conj(c)))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=80, derandomize=True)
@given(data=st.data())
def test_closure_and_duality(p, data):
    gens = [data.draw(octonions(p)) for _ in range(2)]
    ctx = algebra(p)
    c = closure(gens, ctx)
    for g in gens:
        assert c.contains(g)
    assert closure(list(c.rows), ctx) == c
    assert perp(perp(c, ctx), ctx) == c


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=80, derandomize=True)
@given(data=st.data())
def test_modular_dimension_law(p, data):
    a = span([data.draw(octonions(p)) for _ in range(2)], p)
    b = span([data.draw(octonions(p)) for _ in range(2)], p)
    assert sum_spaces(a, b).dim + intersect(a, b).dim == a.dim + b.dim


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_labels_are_automorphism_invariants(p, data):
    gens = [data.draw(octonions(p)) for _ in range(2)]
    ctx = algebra(p)
    space = closure(gens, ctx)
    label = classify(space, ctx)
    s = data.draw(invertible_2x2(p))
    auto = alpha_st(s, s, p)
    assert classify(auto.apply_space(space), ctx) is label


@settings(max_examples=200, derandomize=True)
@given(x=st.integers(0, 255), y=st.integers(0, 255))
def test_byte_table_round_trip(x, y):
    ctx = algebra(2)
    T = byte_tables(ctx)
    cx, cy = T.coords_of_byte(x), T.coords_of_byte(y)
    assert T.byte_of(cx) == x
    assert int(T.mul_byte[x, y]) == T.byte_of(ctx.mul(cx, cy))
