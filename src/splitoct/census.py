"""Exhaustive subalgebra census: scan every subspace, keep the closed ones.

The census runs over any table of the split octonions, an
:class:`splitoct.algebra.Algebra` of dimension 8; ``algebra(p)`` is the
canonical one.  Every kernel reads the product, norm, trace and unit from
that value, so a change of basis or another Cayley–Dickson doubling gives
the same per-label counts.

The scan walks subspaces partitioned by pivot-column set (deterministic
order) and splits each partition into index ranges, the tasks of one
process pool per call.  A task runs three batched steps on its range:

1. the closure mask (:func:`closed_block_mask`) over blocks of RREF bases:
   over F_2 the product of two packed rows is one lookup in the algebra's
   uint8 byte table;
   for odd p :func:`splitoct.subspace.closed_mask` runs the package's
   float32 product kernel (:func:`splitoct.algebra.products`), in blocks
   sized by working set;
2. the k×k×k structure constants of the survivors only
   (:func:`splitoct.subspace.substructure`);
3. their full records and orbit labels
   (:func:`splitoct.classify.batch_records`).

Records come back in task order, so the output does not depend on the
number of worker processes.  A pool worker receives the algebra once, when
it starts, and each task only its pivots and index range.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import DIM, Algebra
from .classify import OrbitLabel, SubalgebraRecord, batch_records
from .subspace import (block_rows, closed_mask, free_positions,
                       gaussian_binomial, pivot_block)


class CostLimitExceeded(RuntimeError):
    """Projected scan size exceeds the configured subspace budget."""


#: rows per F_2 byte-table block
_BLOCK = 1 << 13
#: subspaces per pool task; large partitions are split so workers balance
_TASK = 1 << 16


def _closed_block_mask_f2(mats: np.ndarray, pivots: tuple[int, ...],
                          mul_byte: np.ndarray) -> np.ndarray:
    """Boolean mask of multiplicatively closed row-spans, p = 2 byte path."""
    weights = (1 << np.arange(DIM)).astype(np.int64)
    B = (mats.astype(np.int64) * weights).sum(-1).astype(np.uint8)    # (M, k)
    P = mul_byte[B[:, :, None], B[:, None, :]].copy()                 # (M, k, k)
    for i, c in enumerate(pivots):
        bit = (P >> c) & 1
        P ^= bit * B[:, i, None, None]
    return (P == 0).all(axis=(1, 2))


def closed_block_mask(mats: np.ndarray, pivots: tuple[int, ...], A: Algebra) -> np.ndarray:
    """Boolean mask of the closed row-spans among RREF bases ``mats``."""
    if A.p == 2:
        return _closed_block_mask_f2(mats, pivots, A.mul_byte)
    return closed_mask(mats, pivots, A.struct, A.p)


def _scan_range(A: Algebra, pivots: tuple[int, ...], start: int,
                stop: int) -> list[SubalgebraRecord]:
    """Records of the closed subspaces among indices [start, stop) of one
    pivot partition."""
    p = A.p
    block = _BLOCK if p == 2 else block_rows(len(pivots), DIM)
    closed = []
    for lo in range(start, stop, block):
        mats = pivot_block(pivots, p, DIM, lo, min(lo + block, stop))
        closed.append(mats[closed_block_mask(mats, pivots, A)])
    return batch_records(np.concatenate(closed), A)


#: the algebra a pool worker scans, set once when the worker starts
_worker_algebra: Algebra | None = None


def _adopt(A: Algebra) -> None:
    global _worker_algebra
    _worker_algebra = A


def _worker_scan(task: tuple) -> list[SubalgebraRecord]:
    return _scan_range(_worker_algebra, *task)


def _tasks(dims, p: int) -> list[tuple]:
    """(pivots, start, stop) for every requested dimension, in scan order."""
    out = []
    for k in dims:
        for piv in itertools.combinations(range(DIM), k):
            total = p ** len(free_positions(piv))
            out.extend((piv, lo, min(lo + _TASK, total))
                       for lo in range(0, total, _TASK))
    return out


def check_scan(p: int, dims=None, *, max_subspaces: int | None = 2_000_000,
               threads: int = 1) -> tuple[int, ...]:
    """The sorted dimensions a census over F_p would scan, after the checks
    that need no work: every dimension in 0..8, at least one thread, and
    at most ``max_subspaces`` projected subspaces (None disables that
    bound; CostLimitExceeded otherwise)."""
    dims = tuple(sorted(set(range(DIM + 1) if dims is None else dims)))
    if not all(0 <= d <= DIM for d in dims):
        raise ValueError(f"dimensions must lie in 0..{DIM}, got {list(dims)}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    projected = sum(gaussian_binomial(DIM, k, p) for k in dims)
    if max_subspaces is not None and projected > max_subspaces:
        raise CostLimitExceeded(
            f"projected {projected} subspaces exceeds budget {max_subspaces}; "
            "raise --max-subspaces to proceed")
    return dims


def enumerate_subalgebras(A: Algebra, dims=None, *,
                          max_subspaces: int | None = 2_000_000,
                          threads: int = 1) -> list[SubalgebraRecord]:
    """Every multiplicatively closed subspace of the octonion algebra ``A``
    in the requested dimensions, as fully classified records, in
    deterministic scan order.

    The request is checked by :func:`check_scan` before any work is done.
    ``threads`` > 1 runs the scan in one pool of at most that many
    processes, one per task at most.  Closure of every record is checked
    while its structure constants are computed.
    """
    if A.dim != DIM:
        raise ValueError(f"the census needs an algebra of dimension {DIM}, "
                         f"not {A.dim}")
    dims = check_scan(A.p, dims, max_subspaces=max_subspaces, threads=threads)
    tasks = _tasks(dims, A.p)
    workers = min(threads, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_adopt,
                                 initargs=(A,)) as pool:
            results = list(pool.map(_worker_scan, tasks))
    else:
        results = [_scan_range(A, *t) for t in tasks]
    return [r for chunk in results for r in chunk]


@dataclass
class CensusSummary:
    """Per-(dimension, label) counts plus integrity tallies."""

    p: int
    scanned_dims: tuple[int, ...]
    closed_count: int
    counts: dict = dc_field(default_factory=dict)   # (dim, label str) -> int
    unlabeled: int = 0

    def count(self, dim: int, label: OrbitLabel) -> int:
        return self.counts.get((dim, label.value), 0)

    def dim_total(self, dim: int) -> int:
        return sum(v for (d, _), v in self.counts.items() if d == dim)

    def to_json_dict(self) -> dict:
        items = sorted(self.counts.items())
        return {
            "field": self.p,
            "dims": list(self.scanned_dims),
            "closed": self.closed_count,
            "unlabeled": self.unlabeled,
            "counts": [{"dim": d, "label": lab, "count": n} for (d, lab), n in items],
        }


def census_report(records) -> CensusSummary:
    """Aggregate records into per-(dim, label) counts; unlabeled must be 0."""
    records = list(records)
    if not records:
        return CensusSummary(p=0, scanned_dims=(), closed_count=0)
    summary = CensusSummary(
        p=records[0].space.p,
        scanned_dims=tuple(sorted({r.dim for r in records})),
        closed_count=len(records),
    )
    for r in records:
        if r.label is None:
            summary.unlabeled += 1
            continue
        key = (r.dim, r.label.value)
        summary.counts[key] = summary.counts.get(key, 0) + 1
    return summary


def write_jsonl(records, fh) -> int:
    """Write one JSON object per record; returns the number written."""
    n = 0
    for r in records:
        fh.write(json.dumps(r.to_json_dict(), separators=(", ", ": ")) + "\n")
        n += 1
    return n
