"""Verification-suite plumbing: dispatch rules, result formatting."""

import importlib
import tracemalloc

import numpy as np
import pytest

from splitoct import autos, verify
from splitoct.algebra import check_float32_exact, double, field_table
from splitoct.field import SUPPORTED_PRIMES
from splitoct.verify import (SUITE_NAMES, CheckResult, SuiteResult, run_suite,
                             verify_centralizers)


def test_suite_names():
    assert SUITE_NAMES == ("identities", "singular", "centralizers",
                           "classification", "orbits", "all")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonesuch")


@pytest.mark.parametrize("suite", ["singular", "classification", "orbits"])
def test_f2_only_suites_reject_other_fields(suite):
    with pytest.raises(ValueError):
        run_suite(suite, 3)


def test_centralizers_field_restriction():
    with pytest.raises(ValueError):
        verify_centralizers(5)
    with pytest.raises(ValueError):
        run_suite("centralizers", 5)


def test_check_result_formatting():
    ok = CheckResult(name="thing", passed=True, checked=12,
                     counterexample=None)
    assert ok.line() == "  [ok] thing: 12 instances"
    bad = CheckResult(name="thing", passed=False, checked=3,
                      counterexample="x=0")
    assert "[FAIL]" in bad.line()
    assert "x=0" in bad.line()


def test_suite_result_aggregation():
    checks = [
        CheckResult(name="a", passed=True, checked=5, counterexample=None),
        CheckResult(name="b", passed=False, checked=2, counterexample="boom"),
    ]
    res = SuiteResult(suite="identities", field=2, checks=checks, elapsed=0.25)
    assert not res.passed
    assert res.total_checked == 7
    assert res.first_counterexample() == "b: boom"
    head = res.lines()[0]
    assert head.startswith("suite identities (field 2): FAIL")
    assert len(res.lines()) == 1 + len(checks)


def test_centralizers_suite_runs_quickly():
    results = run_suite("centralizers", 2)
    assert len(results) == 1
    (res,) = results
    assert res.passed
    assert res.field == 2
    assert res.total_checked > 250
    assert res.first_counterexample() is None


def test_the_count_tests_every_candidate_with_mismatches(monkeypatch):
    """The brute-force count checks its 32,256 candidate maps with the one
    homomorphism test, in blocks of at most 4,096."""
    blocks = []
    real = autos.mismatches

    def spy(B, *rest):
        blocks.append(len(B))
        return real(B, *rest)

    monkeypatch.setattr(autos, "mismatches", spy)
    assert verify.count_automorphisms(2) == 12096
    assert sum(blocks) == 32256 and max(blocks) <= 4096


# ---------------------------------------------------------------------------
# the F_2 byte tables and the flat byte reads of the identities suite
# ---------------------------------------------------------------------------

def test_byte_tables_match_tuple_arithmetic(ctx2):
    ctx, T = ctx2, verify.byte_tables(ctx2)
    for xb in range(256):
        x = T.coords_of_byte(xb)
        assert T.byte_of(x) == xb
        assert T.norm_byte[xb] == ctx.norm(x)
        assert T.trace_byte[xb] == ctx.trace(x)
        assert T.coords_of_byte(T.conj_byte[xb]) == ctx.conj(x)
    rng = np.random.default_rng(0)
    for _ in range(2000):
        xb, yb = int(rng.integers(256)), int(rng.integers(256))
        x, y = T.coords_of_byte(xb), T.coords_of_byte(yb)
        assert T.coords_of_byte(int(T.mul_byte[xb, yb])) == ctx.mul(x, y)
        assert T.polar_byte[xb, yb] == ctx.polar(x, y)
    for table in (T.mul_byte, T.polar_byte):
        assert table.dtype == np.uint8 and table.shape == (256, 256)
    coords = T.byte_coords
    assert np.array_equal(T.polar_byte, coords @ ctx.gram @ coords.T % 2)
    assert verify.byte_tables(ctx) is T                   # built once


def _byte_grids(E):
    """The full 256×256 grid (so x = y = 255, index 65,535), open and
    dense, and the open grids of ``chunks`` for one to three variables."""
    full = np.arange(256, dtype=np.uint8)
    yield np.ix_(full, full)
    yield np.meshgrid(full, full, indexing="ij")
    for nvars in (1, 2, 3):
        yield from E.chunks(nvars)


def test_byte_reads_equal_the_2d_tables():
    E = verify.byte_tables(verify.algebra(2))
    binary = {E.mul: E.mul_byte, E.polar: E.polar_byte}
    unary = {E.conj: E.conj_byte, E.norm: E.norm_byte, E.trace: E.trace_byte}
    for grid in _byte_grids(E):
        args = list(grid) + [E.one]                  # the 0-d unit with each
        for a in args:
            for op, table in unary.items():
                got = op(a)
                assert got.dtype == np.uint8 and got.shape == np.shape(a)
                assert np.array_equal(got, table[a])
            for b in args:
                for op, table in binary.items():
                    got = op(a, b)
                    assert got.dtype == np.uint8
                    assert got.shape == np.broadcast_shapes(np.shape(a), np.shape(b))
                    assert np.array_equal(got, table[a, b])


# ---------------------------------------------------------------------------
# identities: the coordinate planes of the odd fields
# ---------------------------------------------------------------------------

ODD_PRIMES = [p for p in SUPPORTED_PRIMES if p > 2]


def _assert_planes_agree(A, seed: int, m: int = 300):
    """The plane engine against the algebra's scalar operations on ``m``
    seeded random elements, the first of them all p − 1 (the largest sums)."""
    E = verify._Planes(A)
    rng = np.random.default_rng(seed)
    X, Y = rng.integers(0, A.p, size=(2, A.dim, m))
    X[:, 0] = Y[:, 0] = A.p - 1
    x, y = X.astype(np.float32), Y.astype(np.float32)

    def cols(planes):
        assert planes.dtype == np.float32 and planes.shape == (A.dim, m)
        return [tuple(int(c) for c in planes[:, i]) for i in range(m)]

    def values(scalars):
        assert scalars.dtype == np.float32 and scalars.shape == (m,)
        return [int(c) for c in scalars]

    xs, ys = cols(x), cols(y)
    assert cols(E.mul(x, y)) == [A.mul(u, v) for u, v in zip(xs, ys)]
    assert cols(E.conj(x)) == [A.conj(u) for u in xs]
    assert values(E.norm(x)) == [A.norm(u) for u in xs]
    assert values(E.trace(x)) == [A.trace(u) for u in xs]
    assert values(E.polar(x, y)) == [A.polar(u, v) for u, v in zip(xs, ys)]


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_planes_agree_with_the_scalar_operations(p):
    _assert_planes_agree(verify.algebra(p), seed=p)


@pytest.mark.parametrize("p", ODD_PRIMES[1:])
def test_planes_agree_on_a_mu_doubled_table(p):
    A = double(double(double(field_table(p), 2), 3), p - 2)
    coefficients = {c for terms in A._mul_terms for *_, c in terms}
    assert coefficients - {1, p - 1}              # not a ±1 table
    _assert_planes_agree(A, seed=100 + p)


def test_planes_refuse_a_size_float32_cannot_serve():
    check_float32_exact(8, 13)
    with pytest.raises(ValueError):
        check_float32_exact(64, 13)
    big = field_table(13)
    for mu in (2, 3, 5, 6, 7):                    # 32 coordinates
        big = double(big, mu)
    with pytest.raises(ValueError):
        verify._Planes(big)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_identities_pass_at_the_larger_primes(p):
    res = verify.verify_identities(p)
    assert res.passed and res.total_checked == 1_100_000


# ---------------------------------------------------------------------------
# identities: the failure path and the working set
# ---------------------------------------------------------------------------

#: First counterexamples with coordinate 0 of e_1·e_2 (= p0 in n0·nbar0)
#: raised by one: the suite's first, and the one of a three-variable law.
PERTURBED_COUNTEREXAMPLES = {
    2: ("norm multiplicativity N(xy)=N(x)N(y): "
        "x=(0, 1, 1, 0, 0, 0, 0, 0), y=(0, 1, 1, 0, 0, 0, 0, 0)",
        "c=(0, 1, 0, 0, 0, 0, 0, 0), x=(0, 0, 1, 0, 0, 0, 0, 0), "
        "y=(0, 0, 0, 1, 0, 0, 0, 0)"),
    3: ("norm multiplicativity N(xy)=N(x)N(y): "
        "x=(2, 1, 2, 0, 1, 1, 2, 1), y=(0, 2, 2, 2, 0, 1, 2, 2)",
        "c=(0, 1, 1, 1, 0, 1, 0, 1), x=(2, 2, 2, 1, 0, 2, 2, 2), "
        "y=(0, 0, 0, 1, 1, 1, 1, 2)"),
    5: ("norm multiplicativity N(xy)=N(x)N(y): "
        "x=(0, 3, 2, 3, 0, 3, 2, 4), y=(1, 2, 4, 0, 1, 4, 3, 1)",
        "c=(2, 2, 4, 3, 3, 4, 3, 3), x=(3, 3, 1, 1, 0, 2, 2, 3), "
        "y=(0, 1, 3, 0, 2, 4, 1, 2)"),
}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_identities_fail_on_perturbed_structure_tensor(p, monkeypatch):
    # the package exports the function algebra under the module's name
    algebra_mod = importlib.import_module("splitoct.algebra")
    broken = algebra_mod.STRUCT_Z.copy()
    broken[1, 2, 0] += 1
    monkeypatch.setattr(algebra_mod, "STRUCT_Z", broken)
    ctx = algebra_mod.SplitOctonions(p)           # uncached, built from it
    monkeypatch.setattr(verify, "algebra", lambda q: ctx)
    res = verify.verify_identities(p)
    first, adjoint = PERTURBED_COUNTEREXAMPLES[p]
    assert not res.passed
    assert res.first_counterexample() == first
    by_name = {c.name: c for c in res.checks}
    assert by_name["adjoint (cx|y)=(x|k(c)y)"].counterexample == adjoint
    assert res.total_checked == (84_083_456 if p == 2 else 1_100_000)


#: First counterexamples of the centralizer suite with the same entry raised,
#: as the element-by-element loop finds them
PERTURBED_CENTRALIZERS = {
    2: "v=(0, 0, 1, 0, 0, 0, 0, 1): dim 5, expected 6",
    3: "v=(0, 0, 0, 0, 0, 0, 1, 1): dim-4 centralizer is not a subalgebra",
}


@pytest.mark.parametrize("p", [2, 3])
def test_centralizers_fail_on_perturbed_structure_tensor(p, monkeypatch):
    algebra_mod = importlib.import_module("splitoct.algebra")
    broken = algebra_mod.STRUCT_Z.copy()
    broken[1, 2, 0] += 1
    monkeypatch.setattr(algebra_mod, "STRUCT_Z", broken)
    ctx = algebra_mod.SplitOctonions(p)
    monkeypatch.setattr(verify, "algebra", lambda q: ctx)
    law = verify.verify_centralizers(p).checks[0]
    assert not law.passed and law.checked == p ** 8
    assert law.counterexample == PERTURBED_CENTRALIZERS[p]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_identities_working_set_is_bounded(p):
    verify.algebra(p)
    tracemalloc.start()
    try:
        assert verify.verify_identities(p).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20
