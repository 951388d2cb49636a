"""Subalgebra census: every closed subspace, from the pruned enumerator.

The census runs over any table of the split octonions, an
:class:`splitoct.algebra.Algebra` of dimension 8; ``algebra(p)`` is the
canonical one.  Every kernel reads the product, norm, trace and unit from
that value, so a change of basis or another Cayley–Dickson doubling gives
the same per-label counts.

Its subalgebras come from :func:`splitoct.subspace.closed_subspaces`,
which tests only what can be closed: the subspaces of the 7-dimensional
quotient by F·1, with 1 appended (the unital subalgebras), and the
hyperplanes avoiding 1 of each closed one whose rows square into them
(all the others).  A request
for dimensions D runs the quotient dimensions {d − 1, d : d ∈ D} only.
The quotient pivot sets are dealt into one task per process, which gets
the algebra with them.  A task reduces what it finds with
:func:`splitoct.linalg.batch_rref` and classifies it with
:func:`splitoct.classify.batch_columns`, and returns, per dimension, int8
:class:`splitoct.classify.Columns`: the RREF bases plus one small-int
column per invariant and a label code.  No record object crosses the
pool.  The parent joins each dimension's columns and sorts them with one
``np.lexsort`` by (pivots, rows), the order of
:meth:`splitoct.subspace.Subspace.key`, so the output does not depend on
the number of worker processes.

The columns are the census's one value, and they carry their prime.
:func:`write_jsonl` renders each JSON line from their arrays,
:func:`label_counts` counts them per (dimension, label) from the label
codes, and :func:`splitoct.autos.orbit_partition` partitions them, so no
census path builds a record.  :func:`enumerate_subalgebras` turns the
columns into records for the callers that want one object per
subalgebra.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from numbers import Integral

import numpy as np

from .algebra import DIM, Algebra
from .classify import LABELS, Columns, SubalgebraRecord, batch_columns
from .linalg import batch_rref
from .subspace import (closed_mask, closed_subspaces, free_positions,
                       gaussian_binomial)


class CostLimitExceeded(RuntimeError):
    """Projected quotient bases exceed the configured budget."""


def closed_block_mask(mats: np.ndarray, pivots: tuple[int, ...], A: Algebra) -> np.ndarray:
    """Boolean mask of the closed row-spans among RREF bases ``mats``.  The
    census does not call it; the bench tracer resolves this name until the
    in-code recorder (ROADMAP item 1) replaces it."""
    return closed_mask(mats, pivots, A.struct, A.p)


def quotient_dims(dims) -> tuple[int, ...]:
    """The quotient dimensions whose pivot sets yield the subalgebras of
    dimensions ``dims``: a unital one of dimension d has d − 1 quotient
    rows, and every other one of dimension d is lifted from d rows."""
    return tuple(sorted({e for d in dims for e in (d - 1, d) if 0 <= e < DIM}))


def _records(A: Algebra, pivot_sets, dims) -> dict[int, Columns]:
    """The closed subspaces of ``A`` of dimensions ``dims`` that the
    quotient pivot sets ``pivot_sets`` yield, classified, as int8
    :class:`Columns` per dimension, unsorted."""
    found = {}
    for mats in closed_subspaces(A.struct, A.unit, A.p, pivot_sets, dims):
        if len(mats):
            found.setdefault(mats.shape[1], []).append(mats)
    return {d: batch_columns(batch_rref(np.concatenate(stacks), A.p)[0], A)
            for d, stacks in found.items()}


def _sorted(cols: Columns) -> Columns:
    """The subspaces sorted by pivot columns, then every entry, the order
    of :meth:`splitoct.subspace.Subspace.key` within one dimension."""
    rows = cols.rows
    if len(rows) < 2:
        return cols
    keys = np.concatenate([(rows != 0).argmax(-1), rows.reshape(len(rows), -1)], 1)
    order = np.lexsort(keys.T[::-1])
    return Columns(*(col[order] for col in cols[:-1]), cols.p)


def _groups(dims, p: int, threads: int) -> list[list[tuple[int, ...]]]:
    """The quotient pivot sets for ``dims``, dealt into at most ``threads``
    groups of about equal bases: the largest set goes to the lightest
    group first."""
    def size(piv):
        return p ** len(free_positions(piv, DIM - 1))

    sets = [piv for e in quotient_dims(dims)
            for piv in itertools.combinations(range(DIM - 1), e)]
    groups = [[] for _ in range(min(threads, len(sets)))]
    loads = [0] * len(groups)
    for piv in sorted(sets, key=size, reverse=True):
        g = loads.index(min(loads))
        groups[g].append(piv)
        loads[g] += size(piv)
    return groups


def check_scan(p: int, dims=None, *, max_subspaces: int | None = 2_000_000,
               threads: int = 1) -> tuple[int, ...]:
    """The sorted dimensions a census over F_p would find, after the checks
    that need no work: every dimension an integer in 0..8, an integral
    number of threads, at least one, and at most ``max_subspaces``
    projected quotient bases, the exact count Σ [7, e]_p over
    :func:`quotient_dims` (None disables that bound; CostLimitExceeded
    otherwise).  The hyperplane lifts come on top."""
    dims = tuple(range(DIM + 1) if dims is None else dims)
    if not all(isinstance(d, Integral) and 0 <= d <= DIM for d in dims):
        raise ValueError(f"dimensions must be integers in 0..{DIM}, got {list(dims)}")
    if not isinstance(threads, Integral) or threads < 1:
        raise ValueError(f"threads must be an integer of at least 1, got {threads!r}")
    dims = tuple(sorted(set(dims)))
    check_budget(sum(gaussian_binomial(DIM - 1, e, p) for e in quotient_dims(dims)),
                 max_subspaces)
    return dims


def check_budget(projected: int, max_subspaces: int | None) -> None:
    """Raise CostLimitExceeded if ``projected`` quotient bases exceed
    ``max_subspaces``; None disables the bound."""
    if max_subspaces is not None and projected > max_subspaces:
        raise CostLimitExceeded(
            f"projected {projected:,} quotient bases exceeds budget "
            f"{max_subspaces:,}; raise --max-subspaces to proceed")


def census_columns(A: Algebra, dims=None, *,
                   max_subspaces: int | None = 2_000_000,
                   threads: int = 1) -> list[Columns]:
    """Every multiplicatively closed subspace of the octonion algebra ``A``
    in the requested dimensions, classified, as one :class:`Columns` per
    dimension found (no empty stack), by increasing dimension, each sorted
    by (pivots, rows).

    The request is checked by :func:`check_scan` before any work is done.
    ``threads`` > 1 runs the census in one pool of at most that many forked
    processes, one task of quotient pivot sets each; the tasks return
    int8 arrays, merged here with one sort per dimension.  Closure of
    every subspace is checked while its structure constants are computed.
    """
    if A.dim != DIM:
        raise ValueError(f"the census needs an algebra of dimension {DIM}, "
                         f"not {A.dim}")
    dims = check_scan(A.p, dims, max_subspaces=max_subspaces, threads=threads)
    groups = _groups(dims, A.p, threads)
    if len(groups) > 1:
        with ProcessPoolExecutor(len(groups), mp_context=get_context("fork")) as pool:
            results = list(pool.map(_records, itertools.repeat(A), groups,
                                    itertools.repeat(dims)))
    else:
        results = [_records(A, group, dims) for group in groups]
    return [_sorted(Columns.concat([res[d] for res in results if d in res]))
            for d in sorted({d for res in results for d in res})]


def enumerate_subalgebras(A: Algebra, dims=None, *,
                          max_subspaces: int | None = 2_000_000,
                          threads: int = 1) -> list[SubalgebraRecord]:
    """The subalgebras of :func:`census_columns` as records, sorted by
    (dim, pivots, rows)."""
    return [r for cols in census_columns(A, dims, max_subspaces=max_subspaces,
                                         threads=threads)
            for r in cols.records()]


def label_counts(columns) -> dict[tuple[int, str], int]:
    """The subalgebras per (dimension, label value) of the :class:`Columns`
    stacks ``columns``, sorted by key, read from the label codes (one
    ``np.bincount`` per stack, not ``np.unique``, which imports numpy.ma on
    first use)."""
    counts = {}
    for c in columns:
        for code, n in enumerate(np.bincount(c.label, minlength=len(LABELS)).tolist()):
            if n:
                key = (c.rows.shape[1], LABELS[code].value)
                counts[key] = counts.get(key, 0) + n
    return dict(sorted(counts.items()))


_FLAG = ("false", "true")
_LABEL_JSON = tuple(json.dumps(lab.value) for lab in LABELS)


def write_jsonl(columns, fh) -> int:
    """Write one JSON object per subspace of the :class:`Columns` stacks
    ``columns``, rendered from the arrays with the bytes of
    ``json.dumps(record.to_json_dict(), separators=(", ", ": "))``;
    returns the number written."""
    n = 0
    for c in columns:
        k = c.rows.shape[1]
        lines = [f'{{"dim": {k}, "basis": {basis}, "label": {_LABEL_JSON[label]}, '
                 f'"flags": {{"assoc": {_FLAG[assoc]}, "comm": {_FLAG[comm]}, '
                 f'"unital": {_FLAG[unital]}}}, "R_dim": {R}, "Q_dim": {Q}}}\n'
                 for basis, unital, R, Q, assoc, comm, label in zip(
                     *(col.tolist() for col in (c.rows, c.unital, c.R, c.Q,
                                                c.assoc, c.comm, c.label)))]
        fh.write("".join(lines))
        n += len(lines)
    return n
