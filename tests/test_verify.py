"""Verification-suite plumbing: dispatch rules, result formatting."""

import importlib
import re
import tracemalloc

import numpy as np
import pytest

import oracle
from splitoct import autos, verify
from splitoct.algebra import (SplitOctonions, check_float32_exact, double,
                              field_table)
from splitoct.field import SUPPORTED_PRIMES
from splitoct.verify import SUITE_NAMES, CheckResult, SuiteResult, run_suite
from test_tables import _change_basis, _random_basis


def test_suite_names():
    assert SUITE_NAMES == ("identities", "singular", "centralizers",
                           "classification", "orbits", "all")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonesuch")


#: the fields each suite accepts, which ``verify.SUITES`` states
ACCEPTED = {"identities": SUPPORTED_PRIMES, "singular": (2,), "centralizers": (2, 3),
            "classification": (2,), "orbits": (2,)}


class _Started(Exception):
    """A suite body began: it builds its algebra first."""


def _assert_the_table_is_the_contract(suite, monkeypatch):
    """Over 2, 3, 5, 7, 11, 13 and 4, ``run_suite(suite, p)`` and
    ``verify_<suite>(p)`` start the suite at exactly its accepted fields,
    and refuse every other with ValueError before the suite's body runs."""
    def started(p):
        raise _Started(p)

    monkeypatch.setattr(verify, "algebra", started)
    direct = getattr(verify, f"verify_{suite}")
    for p in (*SUPPORTED_PRIMES, 4):
        for run in (lambda: run_suite(suite, p), lambda: direct(p)):
            if p in ACCEPTED[suite]:
                with pytest.raises(_Started) as exc:
                    run()
                assert exc.value.args == (p,)
            else:
                with pytest.raises(ValueError):
                    run()


@pytest.mark.parametrize("suite", ["singular", "classification", "orbits"])
def test_f2_only_suites_reject_other_fields(suite, monkeypatch):
    _assert_the_table_is_the_contract(suite, monkeypatch)


def test_centralizers_field_restriction(monkeypatch):
    """The two suites that run beyond F_2 keep to their fields too."""
    for suite in ("centralizers", "identities"):
        _assert_the_table_is_the_contract(suite, monkeypatch)


def test_check_result_formatting():
    ok = CheckResult(name="thing", checked=12)
    assert ok.passed and ok.line() == "  [ok] thing: 12 instances"
    bad = CheckResult(name="thing", checked=3, counterexample="x=0")
    assert not bad.passed
    assert "[FAIL]" in bad.line()
    assert "x=0" in bad.line()


def test_suite_result_aggregation():
    checks = [
        CheckResult(name="a", checked=5, counterexample=None),
        CheckResult(name="b", checked=2, counterexample="boom"),
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
    assert verify.count_automorphisms() == 12096
    assert sum(blocks) == 32256 and max(blocks) <= 4096


# ---------------------------------------------------------------------------
# the oracle's F_2 byte tables and their flat byte reads
# ---------------------------------------------------------------------------

def test_byte_tables_match_tuple_arithmetic(ctx2):
    ctx, T = ctx2, oracle.byte_tables(ctx2)
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
    assert oracle.byte_tables(ctx) is T                   # built once


def _byte_grids():
    """The full 256×256 grid (so x = y = 255, index 65,535), open and
    dense, and open grids of one to three variables split along the
    first, 2¹⁴ instances a grid (one value of the first for three)."""
    full = np.arange(256, dtype=np.uint8)
    yield np.ix_(full, full)
    yield np.meshgrid(full, full, indexing="ij")
    for nvars in (1, 2, 3):
        step = max(1, (1 << 14) >> 8 * (nvars - 1))
        for lo in range(0, 256, step):
            yield np.ix_(full[lo:lo + step], *[full] * (nvars - 1))


def test_byte_reads_equal_the_2d_tables():
    E = oracle.byte_tables(verify.algebra(2))
    binary = {E.mul: E.mul_byte, E.polar: E.polar_byte}
    unary = {E.conj: E.conj_byte, E.norm: E.norm_byte, E.trace: E.trace_byte}
    for grid in _byte_grids():
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
# identities: the bitsliced planes of F_2
# ---------------------------------------------------------------------------

def _unpack(planes) -> np.ndarray:
    """Bit planes over the grid of a two-variable law as an array indexed
    [x, y, c] by the elements of the instance (x along the 256 words, y in
    their bits) and the coordinate."""
    words = np.broadcast_to(planes, (len(planes), 4, 1, 256))[:, :, 0]
    bits = (words[..., None] >> np.arange(64, dtype=np.uint64) & 1).astype(np.int64)
    return bits.transpose(2, 1, 3, 0).reshape(256, 256, -1)


def _f2_tables():
    """The canonical F_2 table and the same algebra in another basis."""
    A = verify.algebra(2)
    return [A, _change_basis(A, _random_basis(2, seed=21))]


@pytest.mark.parametrize("A", _f2_tables(), ids=["canonical", "changed-basis"])
def test_bits_agree_with_the_scalar_operations(A):
    """Every operation of the bit engine against the algebra's own, on all
    256 elements in both layouts of a variable and all 65,536 pairs."""
    E = verify._Bits(A)
    x, y = next(E.chunks(2))                      # (8, 1, 1, 256), (8, 4, 1, 1)
    grid = [tuple(int(c) for c in row) for row in verify._grid()]
    for u, along_x in ((x, True), (y, False)):
        def values(planes):
            got = _unpack(planes)
            return [tuple(map(int, c)) for c in (got[:, 0] if along_x else got[0])]
        assert values(E.conj(u)) == [A.conj(g) for g in grid]
        assert values(E.norm(u)) == [(A.norm(g),) for g in grid]
        assert values(E.trace(u)) == [(A.trace(g),) for g in grid]
    xy, yx, polar = _unpack(E.mul(x, y)), _unpack(E.mul(y, x)), _unpack(E.polar(x, y))
    for i, g in enumerate(grid):
        for j, h in enumerate(grid):
            assert tuple(xy[i, j]) == A.mul(g, h)
            assert tuple(yx[i, j]) == A.mul(h, g)
            assert polar[i, j, 0] == A.polar(g, h)


class _Scalars:
    """The element interface of ``LAWS`` on single coordinate tuples,
    through the algebra's scalar operations."""

    def __init__(self, A):
        self.A, self.one = A, A.unit
        self.mul, self.conj, self.add = A.mul, A.conj, A.add
        self.norm, self.trace, self.polar = A.norm, A.trace, A.polar

    def scale(self, c, x):
        return self.A.smul(c, x) if isinstance(x, tuple) else c * x % self.A.p

    def eq(self, u, v):
        return u == v


@pytest.mark.parametrize("row, at", [(0, 0), (5, 2), (7, 3), (None, 0), (None, 6)],
                         ids=["mul-0-0", "mul-5-2", "mul-7-3", "polar-0", "polar-6"])
def test_bits_find_a_dropped_term(row, at, monkeypatch):
    """A table with entry ``at`` of ``_mul_terms[row]`` (or, with no row,
    of ``_polar_terms``) dropped fails the F_2 suite, and each failing law
    fails on its counterexample in the algebra's scalar arithmetic, which
    reads the same term lists."""
    A = SplitOctonions(2)                         # uncached
    if row is None:
        A._polar_terms = A._polar_terms[:at] + A._polar_terms[at + 1:]
    else:
        rows = list(A._mul_terms)
        rows[row] = rows[row][:at] + rows[row][at + 1:]
        A._mul_terms = tuple(rows)
    monkeypatch.setattr(verify, "algebra", lambda q: A)
    res = verify.verify_identities(2)
    assert not res.passed and res.total_checked == 84_083_456
    laws = {name: law for name, _, law in verify.LAWS}
    for check in res.checks:
        if not check.passed:
            values = [tuple(map(int, v.split(", ")))
                      for v in re.findall(r"\w=\(([^)]*)\)", check.counterexample)]
            assert not laws[check.name](_Scalars(A), *values), check


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
        assert scalars.dtype == np.float32 and scalars.shape == (1, m)
        return [int(c) for c in scalars[0]]

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


def _perturb(monkeypatch, *primes: int) -> None:
    """Point the suites at the tables over F_p, p in ``primes``, with
    STRUCT_Z[1, 2, 0] raised."""
    # the package exports the function algebra under the module's name
    algebra_mod = importlib.import_module("splitoct.algebra")
    broken = algebra_mod.STRUCT_Z.copy()
    broken[1, 2, 0] += 1
    monkeypatch.setattr(algebra_mod, "STRUCT_Z", broken)
    ctx = {p: algebra_mod.SplitOctonions(p) for p in primes}  # uncached, built from it
    monkeypatch.setattr(verify, "algebra", ctx.__getitem__)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_identities_fail_on_perturbed_structure_tensor(p, monkeypatch):
    _perturb(monkeypatch, p)
    res = verify.verify_identities(p)
    first, adjoint = PERTURBED_COUNTEREXAMPLES[p]
    assert not res.passed
    assert res.first_counterexample() == first
    by_name = {c.name: c for c in res.checks}
    assert by_name["adjoint (cx|y)=(x|k(c)y)"].counterexample == adjoint
    assert res.total_checked == (84_083_456 if p == 2 else 1_100_000)


def test_forked_workers_see_the_perturbed_tables(monkeypatch):
    """Run in a pool of two forked workers, each field's identities fail
    on that field's perturbed table with its pinned counterexamples."""
    _perturb(monkeypatch, 2, 3, 5)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    results = run_suite("identities")
    assert [res.field for res in results] == [2, 3, 5]
    for res in results:
        first, adjoint = PERTURBED_COUNTEREXAMPLES[res.field]
        assert res.first_counterexample() == first
        by_name = {c.name: c for c in res.checks}
        assert by_name["adjoint (cx|y)=(x|k(c)y)"].counterexample == adjoint


def test_f2_results_do_not_depend_on_the_block(monkeypatch):
    """Blocks of 1, 4, 16 and 256 values of the first variable give the
    same counts, verdicts and first counterexamples on the perturbed table;
    with one value a chunk, the adjoint law's first failure (c = e_1) falls
    in the third chunk."""
    _perturb(monkeypatch, 2)
    results = []
    for block in (1, 4, 16, 256):
        monkeypatch.setattr(verify, "_BLOCK", block)
        res = verify.verify_identities(2)
        results.append([(c.name, c.passed, c.checked, c.counterexample)
                        for c in res.checks])
    assert all(r == results[0] for r in results)
    assert results[0][5][3] == PERTURBED_COUNTEREXAMPLES[2][1]


#: First counterexamples of the centralizer suite with the same entry raised,
#: as the element-by-element loop finds them
PERTURBED_CENTRALIZERS = {
    2: "v=(0, 0, 1, 0, 0, 0, 0, 1): dim 5, expected 6",
    3: "v=(0, 0, 0, 0, 0, 0, 1, 1): dim-4 centralizer is not a subalgebra",
}


@pytest.mark.parametrize("p", [2, 3])
def test_centralizers_fail_on_perturbed_structure_tensor(p, monkeypatch):
    _perturb(monkeypatch, p)
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
