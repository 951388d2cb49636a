"""Inclusion-up-to-orbit lattice of subalgebra labels, plus DOT/JSON emitters.

Containment between orbit labels is decided on representatives alone: a
label X embeds in a label Y exactly when the representative of Y contains
some subalgebra labelled X (any other Y-labelled subalgebra is an
automorphic image of the representative, so the answer is orbit-invariant).
The n·O family is built on n0w, which lies in rep(Q) = ⟨p0w, n0w⟩, so all
21 representatives lie in rep(Qperp) = rep(Q)^⊥, and
:func:`labels_inside` answers every containment from one scan of it by
:func:`splitoct.subspace.closed_subspaces`.  Over F_5 that scan tests
47,722 candidates in place of all 3,632,396 sub-subspaces of the
representatives: 42,176 quotient bases, and the 5,546 of 134,806
hyperplane lifts whose rows square into the lift.  The closure test
rejects most of those with three or more rows on the products of their
first row alone: 2,867 reach its second stage, which computes the other
rows' products, and 5,612 candidates are closed.  The quotient bases are
counted before any work, and bounded by the census's budget.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, algebra
from .census import check_budget
from .classify import LABEL_DIM, LABELS, OrbitLabel, batch_columns
from .constructions import rep
from .linalg import batch_rref, residues
from .subspace import (Subspace, check_space, closed_subspaces, closure,
                       gaussian_binomial, span, substructure)

#: Labels that appear as graph nodes: every reachable label of a proper,
#: nonzero subalgebra (dimensions 1 through 6).  The zero subalgebra and
#: the full algebra are omitted as the trivial bottom/top of the order.
GRAPH_LABELS: tuple[OrbitLabel, ...] = tuple(
    sorted((lab for lab in OrbitLabel
            if lab.reachable and 1 <= LABEL_DIM[lab] <= 6),
           key=lambda lab: (LABEL_DIM[lab], lab.value)))


@dataclass(frozen=True)
class LatticeNode:
    """One orbit label with its display flags."""
    label: OrbitLabel
    dim: int
    totally_singular: bool
    associative: bool
    commutative: bool
    maximal: bool

    def flags_dict(self) -> dict[str, bool]:
        return {"totally_singular": self.totally_singular,
                "associative": self.associative,
                "commutative": self.commutative,
                "maximal": self.maximal}


@dataclass(frozen=True)
class LatticeGraph:
    """Covering digraph of orbit labels ordered by inclusion up to orbit."""
    p: int
    nodes: tuple[LatticeNode, ...]
    edges: tuple[tuple[OrbitLabel, OrbitLabel], ...]

    def edge_values(self) -> list[tuple[str, str]]:
        return [(a.value, b.value) for a, b in self.edges]


def _generated(spaces: Sequence[Subspace], A: Algebra) -> Subspace:
    """The subalgebra of ``A`` that the spaces generate with 1."""
    for space in spaces:
        check_space(space, A)
    return closure([A.unit] + [row for space in spaces for row in space.rows], A)


#: bases per block of the reductions, classifications and residue tests of
#: the stacks, which bounds their int64 temporaries to a few MB
_BLOCK = 1 << 14


def _blockwise(f, stack: np.ndarray) -> np.ndarray:
    """``f`` of a stack of bases, taken in slices of at most ``_BLOCK``."""
    return np.concatenate([f(stack[lo:lo + _BLOCK]) for lo in range(0, len(stack), _BLOCK)])


def subalgebras_inside(space: Subspace, A: Algebra) -> Iterator[np.ndarray]:
    """RREF bases, in the coordinates of the octonion algebra ``A``, of
    every proper nonzero subalgebra of a closed subspace S, the closed
    subspaces of S + F·1 in S: one int8 stack (M, d, 8) per dimension d,
    by increasing d."""
    check_space(space, A)
    p, k, inner = A.p, space.dim, space.matrix()
    substructure(inner[None], A)                   # NotClosed unless S is
    hull = span(space.rows + (A.unit,), p, A.dim)
    basis, unit = hull.matrix(), np.array(A.unit)[list(hull.pivots)]
    stacks: list[list[np.ndarray]] = [[] for _ in range(k)]
    for mats in closed_subspaces(substructure(basis[None], A)[0], unit, p):
        rows = mats @ basis % p
        if 1 <= rows.shape[1] < k:
            if hull != space:                      # 1 ∉ S: keep what lies in S
                rows = rows[~residues(inner, rows, p).any((1, 2))]
            stacks[rows.shape[1]].append(rows.astype(np.int8))
    for d in range(1, k):
        yield _blockwise(lambda rows: batch_rref(rows, p)[0].astype(np.int8),
                         np.concatenate(stacks[d]))


def labels_inside(spaces: Sequence[Subspace], A: Algebra) -> list[set[OrbitLabel]]:
    """Labels of every proper nonzero subalgebra of each closed subspace of
    ``A`` in ``spaces``.

    Every such subalgebra lies in the subalgebra G that the spaces generate
    with 1.  So G is scanned once, by :func:`subalgebras_inside`, each
    dimension's stack is classified once, and S takes the labels of the
    subalgebras of G of smaller dimension that pass one residue test
    against S (none is needed when S is G).  The stacks stay int8, and
    every classification and residue test takes them in blocks of
    ``_BLOCK`` bases.
    """
    top = _generated(spaces, A)
    stacks = list(subalgebras_inside(top, A))
    codes = [_blockwise(lambda rows: batch_columns(rows, A).label, stack)
             for stack in stacks]
    found = []
    for space in spaces:
        inner = space.matrix()
        inside = [code if space == top else code[_blockwise(
                      lambda rows: ~residues(inner, rows, A.p).any((1, 2)), stack)]
                  for stack, code in zip(stacks, codes) if stack.shape[1] < space.dim]
        # a set of the codes, not np.unique, which imports numpy.ma on first use
        found.append({LABELS[c] for code in inside for c in set(code.tolist())})
    return found


def _quotient_bases(h: int, p: int) -> int:
    """Σ_e [h − 1, e]_p: the bases of every subspace of the quotient of an
    h-dimensional unital subalgebra by F·1."""
    return sum(gaussian_binomial(h - 1, e, p) for e in range(h))


def projected_bases(p: int) -> int:
    """The quotient bases :func:`build_lattice` tests over F_p: those of
    rep(Qperp), the subalgebra of dimension h = 6 that the representatives
    of ``GRAPH_LABELS`` generate with 1 (each lies in it, and it is one of
    them), which :func:`labels_inside` scans (42,176 over F_5; the
    hyperplane lifts come on top)."""
    return _quotient_bases(rep(OrbitLabel.Dim6, p).dim, p)


def build_lattice(p: int, *, max_subspaces: int | None = 2_000_000) -> LatticeGraph:
    """Compute the label-inclusion lattice over F_p and reduce to covers.

    Raises CostLimitExceeded before any work if :func:`projected_bases`
    exceeds ``max_subspaces`` (None disables the bound).  Each
    representative is built once, and rep(Qperp) gives the budget.
    """
    A = algebra(p)
    spaces = {lab: rep(lab, p) for lab in GRAPH_LABELS}
    check_budget(_quotient_bases(spaces[OrbitLabel.Dim6].dim, p), max_subspaces)
    flags = {}
    for d in sorted(set(LABEL_DIM[lab] for lab in GRAPH_LABELS)):
        labs = [lab for lab in GRAPH_LABELS if LABEL_DIM[lab] == d]
        cols = batch_columns(np.stack([spaces[lab].matrix() for lab in labs]), A)
        for lab, code, *flag in zip(labs, cols.label, cols.singular, cols.assoc, cols.comm):
            if LABELS[code] is not lab:
                raise ArithmeticError(f"representative of {lab.value} classified "
                                      f"as {LABELS[code].value}")
            flags[lab] = [bool(f) for f in flag]
    contains = dict(zip(spaces, labels_inside(list(spaces.values()), A)))
    for y, xs in contains.items():
        for z in xs:
            if not contains[z] <= xs:
                raise ArithmeticError(
                    f"containment not transitive at {z.value} inside {y.value}")
    edges = []
    for y, xs in contains.items():
        for x in xs:
            if not any(x in contains[z] for z in xs):
                edges.append((x, y))
    not_maximal = set().union(*contains.values()) if contains else set()
    nodes = tuple(LatticeNode(lab, LABEL_DIM[lab], *flags[lab], lab not in not_maximal)
                  for lab in GRAPH_LABELS)
    edges.sort(key=lambda e: (LABEL_DIM[e[0]], e[0].value,
                              LABEL_DIM[e[1]], e[1].value))
    return LatticeGraph(p, nodes, tuple(edges))


def _dot_bool(b: bool) -> str:
    return "true" if b else "false"


def emit_dot(graph: LatticeGraph) -> str:
    """Deterministic Graphviz digraph; byte-stable for a fixed graph.

    Styling: grey font marks totally singular (equivalently, non-unital)
    labels, double pen width marks labels maximal among proper subalgebras;
    all four flags are also emitted as machine-readable attributes.
    """
    lines = [f"digraph subalgebra_lattice_f{graph.p} {{",
             "  rankdir=BT;",
             "  node [shape=box, fontname=\"Helvetica\"];"]
    for n in graph.nodes:
        font = "gray40" if n.totally_singular else "black"
        pen = 2 if n.maximal else 1
        lines.append(
            f'  "{n.label.value}" [label="{n.label.value}\\ndim {n.dim}", '
            f"fontcolor={font}, penwidth={pen}, "
            f"singular={_dot_bool(n.totally_singular)}, "
            f"assoc={_dot_bool(n.associative)}, "
            f"comm={_dot_bool(n.commutative)}, "
            f"maximal={_dot_bool(n.maximal)}];")
    for a, b in graph.edges:
        lines.append(f'  "{a.value}" -> "{b.value}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_json(graph: LatticeGraph) -> str:
    """Deterministic JSON: {nodes: [{label, dim, flags}], edges: [[X, Y]]}."""
    obj = {
        "nodes": [{"label": n.label.value, "dim": n.dim,
                   "flags": n.flags_dict()} for n in graph.nodes],
        "edges": [[a.value, b.value] for a, b in graph.edges],
    }
    return json.dumps(obj, indent=2) + "\n"
