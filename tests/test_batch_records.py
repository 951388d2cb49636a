"""Batched census records against the element-wise reference, over the
canonical table and another one, and the scan's independence from the
number of worker processes."""

import dataclasses
import hashlib
import importlib
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import splitoct
import oracle
from splitoct.algebra import algebra
from splitoct.autos import alpha_st
from splitoct.census import census_columns, enumerate_subalgebras
from splitoct.classify import LABEL_DIM, LABELS, Columns, OrbitLabel, batch_columns
from splitoct.cli import main
from splitoct.constructions import rep
from splitoct.lattice import GRAPH_LABELS, subalgebras_inside
from test_tables import _change_basis, _random_basis

#: sha256 of ``enumerate --field 3 --dims 1,2``, as recorded by the benchmark
F3_DIMS12_SHA256 = "41b4f77a87958af740763fe6bd108ce898f60eb778739b399f6dbaa35b32cb7e"


def _fields(record) -> dict:
    out = dataclasses.asdict(record)
    del out["space"]
    return out


def _assert_matches_oracle(records, A):
    for r in records:
        assert _fields(r) == oracle.record_fields(r.space, A), r.space


def test_f2_census_matches_elementwise_reference(census2):
    assert len(census2) == 2491
    _assert_matches_oracle(census2, algebra(2))


def test_f2_census_after_change_of_basis_matches_elementwise_reference():
    A = _change_basis(algebra(2), _random_basis(2, seed=2))
    records = enumerate_subalgebras(A)
    assert len(records) == 2491
    _assert_matches_oracle(records, A)


def test_f3_lines_and_planes_match_elementwise_reference():
    records = enumerate_subalgebras(algebra(3), [1, 2])
    assert len(records) == 9130
    _assert_matches_oracle(records, algebra(3))


def test_f5_representatives_match_elementwise_reference():
    reps = [rep(lab, 5) for lab in OrbitLabel if lab.reachable]
    records = [batch_columns(s.matrix()[None], algebra(5)).records()[0] for s in reps]
    _assert_matches_oracle(records, algebra(5))


def _stacks():
    """(algebra, RREF stack) for every F_5 lattice stack and every
    dimension of the F_2 census and the F_3 dims 1–2 census."""
    A = algebra(5)
    for lab in GRAPH_LABELS:
        for rows in subalgebras_inside(rep(lab, 5), A):
            yield A, rows
    for A, dims in ((algebra(2), None), (algebra(3), (1, 2))):
        for cols in census_columns(A, dims):
            yield A, cols.rows


def test_label_codes_decode_to_the_record_labels():
    stacks = 0
    for A, rows in _stacks():
        cols = batch_columns(rows, A)
        records = cols.records()
        k = rows.shape[1]
        assert cols.rows.dtype == cols.label.dtype == np.int8
        assert [LABELS[c] for c in cols.label.tolist()] == [r.label for r in records]
        assert all(LABEL_DIM[r.label] == k for r in records)
        assert [r.space.rows for r in records] == [tuple(map(tuple, b))
                                                  for b in cols.rows.tolist()]
        # the decoding, checked against the element-wise labeller
        if records:
            assert records[0].label is oracle.label(records[0].space, A)
            stacks += 1
    assert stacks == 41 + 8 + 2      # F_5 lattice, F_2 census, F_3 dims 1–2


def test_a_stack_in_blocks_classifies_as_its_rows_one_by_one(monkeypatch):
    """The 818 four-dimensional subalgebras of Qperp over F_5 take seven
    blocks in one call, and give the columns of 818 one-row calls."""
    A = algebra(5)
    rows = [s for s in subalgebras_inside(rep(OrbitLabel.Dim6, 5), A)
            if s.shape[1] == 4][0]
    classify, blocks = importlib.import_module("splitoct.classify"), []
    real = classify.substructure
    monkeypatch.setattr(classify, "substructure",
                        lambda rows, A: blocks.append(len(rows)) or real(rows, A))
    whole = batch_columns(rows, A)
    assert len(blocks) == 7 and sum(blocks) == len(rows) == 818
    one_by_one = Columns.concat([batch_columns(r[None], A) for r in rows])
    assert all(np.array_equal(a, b) for a, b in zip(whole[:-1], one_by_one[:-1]))


def test_records_working_set_is_bounded():
    # one call on all 818 four-dimensional subalgebras of Qperp over F_5;
    # in a single batch the associator and norm-form temporaries took 7.5 MB
    A = algebra(5)
    rows = [s for s in subalgebras_inside(rep(OrbitLabel.Dim6, 5), A)
            if s.shape[1] == 4][0]
    batch_columns(rows[:1], A).records()
    tracemalloc.start()
    try:
        records = batch_columns(rows, A).records()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 818
    assert peak < 2 * 2 ** 20


def test_f3_jsonl_independent_of_threads(tmp_path, monkeypatch):
    monkeypatch.delenv("OCT_THREADS", raising=False)
    outs = []
    for threads in ("1", "2"):
        path = tmp_path / f"f3-{threads}.jsonl"
        assert main(["enumerate", "--field", "3", "--dims", "1,2",
                     "--threads", threads, "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == F3_DIMS12_SHA256


def test_typed_errors_survive_optimize_flag():
    src = Path(splitoct.__file__).resolve().parents[1]
    script = """
from splitoct.algebra import algebra
from splitoct.census import enumerate_subalgebras
from splitoct.subspace import pivot_block
for call in (lambda: algebra(2).mul_matrix((1, 0, 0), "left"),
             lambda: pivot_block((0,), 2, 8, 0, 10 ** 6),
             lambda: enumerate_subalgebras(algebra(2), [9])):
    try:
        call()
    except ValueError as exc:
        print(type(exc).__name__)
    else:
        print("no error")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 3


def test_one_precondition_failed_class():
    assert splitoct.autos.PreconditionFailed is splitoct.PreconditionFailed
    with pytest.raises(splitoct.PreconditionFailed):
        alpha_st((1, 0, 0, 1), (2, 0, 0, 1), 3)       # det 1 vs det 2
