"""Subalgebra census: golden counts over F_2 and F_3, budgets, output."""

import hashlib
import io
import json
import pickle
from collections import Counter

import numpy as np
import pytest

from splitoct import census
from splitoct.algebra import algebra, double, field_table
from splitoct.census import (CostLimitExceeded, census_columns, enumerate_subalgebras,
                             label_counts, quotient_dims, write_jsonl)
from splitoct.classify import Columns, OrbitLabel, batch_columns, classify
from splitoct.subspace import closed_bases, gaussian_binomial
from oracle import census_formula, dim_total, enumerate_subspaces, isotropic, radicals

# Golden census over F_2, cross-checked against an independent bitmask
# scan of all 417,199 subspaces of F_2^8.
F2_COUNTS = {
    (0, "0"): 1,
    (1, "F"): 1, (1, "Fn"): 63, (1, "Fp"): 72,
    (2, "E"): 28, (2, "F+Fn"): 63, (2, "Fn+Fp"): 252, (2, "Fn+Fpbar"): 252,
    (2, "Q"): 63, (2, "S"): 36,
    (3, "F+Q"): 63, (3, "T"): 252, (3, "mOcapOn"): 378, (3, "nOcapOn"): 63,
    (4, "E+Q"): 63, (4, "F+(nOcapOn)"): 63, (4, "F2x2"): 336, (4, "On"): 63,
    (4, "S+Q"): 189, (4, "nO"): 63,
    (5, "nO+On"): 63,
    (6, "Qperp"): 63,
    (8, "O"): 1,
}

F2_DIM_TOTALS = {0: 1, 1: 136, 2: 694, 3: 756, 4: 777, 5: 63, 6: 63, 8: 1}
F2_TOTAL = 2491


def test_f2_census_counts(columns2, census2):
    counts = label_counts(columns2)
    assert {cols.p for cols in columns2} == {2}
    assert sum(counts.values()) == F2_TOTAL
    assert counts == F2_COUNTS == census_formula(2)
    assert list(counts) == sorted(F2_COUNTS)
    for d, n in F2_DIM_TOTALS.items():
        assert dim_total(counts, d) == n
    # no closed subspace of dimension 7 exists
    assert dim_total(counts, 7) == 0
    assert not any(r.dim == 7 for r in census2)
    # the label codes count what the records' labels count
    assert Counter((r.dim, r.label.value) for r in census2) == counts


def test_columns_carry_their_prime():
    """Records read the prime from their columns, and a stack joins only
    stacks over one field."""
    full = {p: batch_columns(np.eye(8, dtype=np.int64)[None], algebra(p)) for p in (2, 3)}
    assert [full[p].records()[0].space.p for p in (2, 3)] == [2, 3]
    assert Columns.concat([full[3], full[3]]).p == 3
    with pytest.raises(ValueError, match="one field"):
        Columns.concat([full[2], full[3]])


def test_census_columns_have_no_empty_stack(columns2):
    """Quotient dimension 7 is scanned for dimensions 7 and 8 but yields no
    7-dimensional subalgebra: no stack stands for it."""
    assert [cols.rows.shape[1] for cols in columns2] == [0, 1, 2, 3, 4, 5, 6, 8]
    assert [len(cols.label) for cols in columns2] == list(F2_DIM_TOTALS.values())
    assert census_columns(algebra(2), [7]) == []


def test_f2_census_records_are_valid(census2):
    ctx = algebra(2)
    assert len(census2) == F2_TOTAL
    assert len({r.space.key() for r in census2}) == F2_TOTAL
    for r in census2[::17]:  # every 17th record: full recheck
        assert closed_bases(r.space.matrix()[None], ctx)[0]
        assert classify(r.space, ctx) is r.label
        rr, qq = radicals(r.space, ctx)
        assert (rr.dim, qq.dim) == (r.radical_R_dim, r.radical_Q_dim)


def test_f2_commutative_implies_associative(census2):
    comm_labels = set()
    for r in census2:
        if r.commutative:
            assert r.associative, r.label
            comm_labels.add(r.label)
    assert OrbitLabel.HeisNOcapOn in comm_labels   # characteristic-2 effect
    assert OrbitLabel.FplusHeis in comm_labels
    assert OrbitLabel.SplitQuat not in comm_labels


def test_f2_associativity_census(census2):
    # non-associative subalgebras occur exactly in dimensions >= 4
    by_label = {}
    for r in census2:
        by_label.setdefault(r.label, set()).add(r.associative)
    for label, flags in by_label.items():
        assert len(flags) == 1, f"{label} mixes associativity"
    non_assoc = {label.value for label, flags in by_label.items()
                 if flags == {False}}
    assert non_assoc == {"nO", "On", "nO+On", "Qperp", "O"}


def test_full_scan_budget_is_enforced():
    with pytest.raises(CostLimitExceeded):
        enumerate_subalgebras(algebra(3))     # 2,052,656 quotient bases > default
    with pytest.raises(CostLimitExceeded):
        enumerate_subalgebras(algebra(2), max_subspaces=1000)


def test_f3_lines_census():
    ctx = algebra(3)
    counts = label_counts(census_columns(ctx, [1]))
    # independent recount: scan all 3280 lines directly
    lines = np.array([sp.matrix() for sp in enumerate_subspaces(1, 3)])
    assert sum(counts.values()) == closed_bases(lines, ctx).sum()
    assert list(counts) == [(1, "F"), (1, "Fn"), (1, "Fp")]
    assert counts[1, "F"] == 1


def test_dims_filter(census2):
    records = enumerate_subalgebras(algebra(2), [5, 6, 8])
    assert sorted({r.dim for r in records}) == [5, 6, 8]
    expected = [r for r in census2 if r.dim in (5, 6, 8)]
    assert {r.space.key() for r in records} == {r.space.key() for r in expected}


@pytest.mark.parametrize("d", range(9))
def test_each_dimension_alone_is_the_census_filtered(census2, d):
    # a lone dimension runs quotient dimensions d − 1 and d only
    assert enumerate_subalgebras(algebra(2), [d]) == [r for r in census2 if r.dim == d]


@pytest.mark.parametrize("dims,quotient", [((1, 2), (0, 1, 2)),
                                           ((0, 1, 8), (0, 1, 7)),
                                           ((8,), (7,)), (range(9), range(8))])
def test_quotient_dims(dims, quotient):
    assert quotient_dims(dims) == tuple(quotient)


#: the full census over F_3, from the exhaustive scan of all 127,902,864
#: subspaces of F_3^8 (a run of several minutes outside the tests)
F3_FULL_SHA256 = "3d34421ef88091a97f4c56eed277d29b7333b1456b1ee5a14e77040fd0f538b6"
F3_DIM_TOTALS = [1, 1121, 8009, 8372, 11739, 364, 364, 0, 1]


def test_f3_full_census_and_the_papers_trichotomy():
    columns = census_columns(algebra(3), threads=2, max_subspaces=None)
    buf = io.StringIO()
    assert write_jsonl(columns, buf) == 29971
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == F3_FULL_SHA256
    counts = label_counts(columns)
    assert counts == census_formula(3)
    assert [dim_total(counts, d) for d in range(9)] == F3_DIM_TOTALS
    assoc = dict.fromkeys(range(9), 0)
    assoc.update({cols.rows.shape[1]: int(cols.assoc.sum()) for cols in columns})
    # every subalgebra of dimension < 4 is associative, none of dimension > 4
    # is, and dimension 4 has both
    assert all(assoc[d] == F3_DIM_TOTALS[d] for d in (1, 2, 3))
    assert assoc[4] == 11011 and F3_DIM_TOTALS[4] - assoc[4] == 728
    assert assoc[5] == assoc[6] == assoc[8] == 0
    # the theorem the F2x2 rule rests on (Chevalley–Warning): every unital
    # 4-dimensional subalgebra with R = 0 has a nonzero element of norm 0
    four = columns[4]
    nondeg = (four.unital == 1) & (four.R == 0)
    assert nondeg.sum() == counts[4, "F2x2"]
    assert isotropic(four.rows[nondeg], algebra(3)).all()


TABLES = {
    "F2": lambda: algebra(2),
    "F3": lambda: algebra(3),
    "F5": lambda: algebra(5),
    "mu3": lambda: double(double(double(field_table(3), 2), 1), 2),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dims", [(0, 8), (0, 1, 8)])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_scan_covers_zero_and_full_space(table, dims, threads):
    """The census finds the zero and the full space like any other: their
    records equal the ones built from their bases, and come first and
    last, around the proper dimensions.  The budget admits exactly the
    quotient bases: dimensions 0 and 7 of F_p^8 / F·1, and 1 for a line."""
    A = TABLES[table]()
    proper = [d for d in dims if 0 < d < 8]
    want = (batch_columns(np.zeros((1, 0, 8), dtype=np.int64), A).records()
            + enumerate_subalgebras(A, proper)
            + batch_columns(np.eye(8, dtype=np.int64)[None], A).records())
    quotient = (0, 1, 7) if 1 in dims else (0, 7)
    visited = sum(gaussian_binomial(7, e, A.p) for e in quotient)
    got = enumerate_subalgebras(A, dims, threads=threads, max_subspaces=visited)
    assert got == want
    assert [r.label.value for r in (got[0], got[-1])] == ["0", "O"]
    with pytest.raises(CostLimitExceeded):
        enumerate_subalgebras(A, dims, threads=threads, max_subspaces=visited - 1)


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that records ``max_workers``,
    checks that the pool would fork, and runs the tasks in this process,
    so no pool is ever started."""

    sizes: list = []

    def __init__(self, max_workers, mp_context):
        assert mp_context.get_start_method() == "fork"
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return [fn(*args) for args in zip(*iterables)]


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(census, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    return _InlinePool.sizes


@pytest.mark.parametrize("threads,dims,workers", [(64, (0, 8), [2]),
                                                  (3, (0, 1, 8), [3]),
                                                  (2, (8,), [])])
def test_pool_has_at_most_one_worker_per_task(inline_pool, threads, dims, workers):
    A = algebra(3)
    got = enumerate_subalgebras(A, dims, threads=threads)
    assert inline_pool == workers
    assert got == enumerate_subalgebras(A, dims)


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_rejected(inline_pool, threads):
    with pytest.raises(ValueError):
        enumerate_subalgebras(algebra(2), [8], threads=threads)
    assert inline_pool == []


def test_write_jsonl_shape_and_determinism(census2):
    """The JSONL rendered from the census columns is, line for line, the
    bytes of ``json.dumps`` of the records, at one and two processes."""
    for A, dims, total in ((algebra(2), None, 2491), (algebra(3), (1, 2), 9130)):
        for threads in (1, 2):
            columns = census_columns(A, dims, threads=threads)
            buf1, buf2 = io.StringIO(), io.StringIO()
            assert write_jsonl(columns, buf1) == write_jsonl(columns, buf2) == total
            assert buf1.getvalue() == buf2.getvalue()
            records = enumerate_subalgebras(A, dims, threads=threads)
            if A.p == 2:
                assert records == census2
            lines = buf1.getvalue().splitlines(keepends=True)
            assert len(lines) == len(records) == total
            for line, r in zip(lines, records):
                assert line == json.dumps(r.to_json_dict(), separators=(", ", ": ")) + "\n"
                assert set(json.loads(line)) == {"dim", "basis", "label", "flags",
                                                 "R_dim", "Q_dim"}


def test_records_pickle_as_dataclasses(census2):
    # records no longer cross the pool, and default pickling round-trips
    sample = census2[::97]
    assert pickle.loads(pickle.dumps(sample)) == sample
    assert pickle.loads(pickle.dumps(sample[3].space)) == sample[3].space
