"""Inclusion-up-to-orbit lattice of subalgebra labels, plus DOT/JSON emitters.

Containment between orbit labels is decided on representatives alone: a
label X embeds in a label Y exactly when the representative of Y contains
some subalgebra labelled X (any other Y-labelled subalgebra is an
automorphic image of the representative, so the answer is orbit-invariant).
The subalgebras of a representative S are the closed subspaces of its
hull S + F·1 that lie in S, from :func:`splitoct.subspace.closed_subspaces`.
The 21 representatives have 12 distinct hulls, each a representative
itself, and :func:`labels_inside` scans each hull once.  Over F_5 the
scan tests 50,037 candidates in place of all 3,632,396 sub-subspaces of
the representatives: the 43,575 quotient bases of the hulls, and the
6,462 of their 146,467 hyperplane lifts whose rows square into the lift.
The closure test rejects most of those with three or more rows on the
products of their first row alone: 3,182 reach its second stage, which
computes the other rows' products, and 7,067 candidates are closed.  The
quotient bases are counted before any work, and bounded by the census's
budget.
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
from .subspace import (Subspace, check_space, closed_subspaces,
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


def _hull(space: Subspace, A: Algebra) -> Subspace:
    """S + F·1, closed when S is."""
    return span(space.rows + (A.unit,), A.p, A.dim)


def subalgebras_inside(space: Subspace, A: Algebra) -> Iterator[np.ndarray]:
    """RREF bases, in the coordinates of the octonion algebra ``A``, of
    every proper nonzero subalgebra of a closed subspace S: one stack
    (M, d, 8) per dimension d, by increasing d."""
    check_space(space, A)
    p, k, inner = A.p, space.dim, space.matrix()
    substructure(inner[None], A)                   # NotClosed unless S is
    hull = _hull(space, A)
    basis, unit = hull.matrix(), np.array(A.unit)[list(hull.pivots)]
    stacks: list[list[np.ndarray]] = [[] for _ in range(k)]
    for mats in closed_subspaces(substructure(basis[None], A)[0], unit, p):
        rows = mats @ basis % p
        if 1 <= rows.shape[1] < k:
            inside = ~residues(inner, rows, p).any((1, 2))
            stacks[rows.shape[1]].append(rows[inside].astype(np.int8))
    for d in range(1, k):
        yield batch_rref(np.concatenate(stacks[d]), p)[0]


def labels_inside(spaces: Sequence[Subspace], A: Algebra) -> list[set[OrbitLabel]]:
    """Labels of every proper nonzero subalgebra of each closed subspace of
    ``A`` in ``spaces``.

    The subalgebras of S are those of its hull S + F·1 that lie in S and
    have a smaller dimension.  So each distinct hull is scanned once, by
    :func:`subalgebras_inside`, each dimension's stack is classified once
    across all hulls, and S takes the labels of its hull's subalgebras
    of smaller dimension, which for S ∌ 1 must pass one residue test
    against S, zero-padded to a common width.
    """
    hulls: dict[Subspace, list[Subspace]] = {}
    for space in spaces:
        check_space(space, A)
        hulls.setdefault(_hull(space, A), []).append(space)
    stacks = [(h, rows.astype(np.int8)) for h, hull in enumerate(hulls)
              for rows in subalgebras_inside(hull, A)]
    if not stacks:
        return [set() for _ in spaces]
    width = max(rows.shape[1] for _, rows in stacks)
    padded = np.concatenate([np.pad(rows, ((0, 0), (0, width - rows.shape[1]), (0, 0)))
                             for _, rows in stacks])
    dim = np.concatenate([np.full(len(rows), rows.shape[1]) for _, rows in stacks])
    hull_of = np.concatenate([np.full(len(rows), h) for h, rows in stacks])
    code = np.empty(len(padded), dtype=np.int8)
    for d in range(1, width + 1):
        code[dim == d] = batch_columns(padded[dim == d, :d], A).label
    found = {}
    for h, (hull, members) in enumerate(hulls.items()):
        for space in members:
            at = np.flatnonzero((hull_of == h) & (dim < space.dim))
            if space != hull:                      # 1 ∉ S: keep what lies in S
                at = at[~residues(space.matrix(), padded[at], A.p).any((1, 2))]
            # a set of the codes, not np.unique, which imports numpy.ma on first use
            found[space] = {LABELS[c] for c in set(code[at].tolist())}
    return [found[space] for space in spaces]


def projected_bases(p: int) -> int:
    """The quotient bases :func:`build_lattice` tests over F_p: Σ_e [h − 1,
    e]_p summed over the distinct hulls S + F·1 of dimension h of the
    representatives S of ``GRAPH_LABELS`` (43,575 over F_5; the hyperplane
    lifts come on top)."""
    A = algebra(p)
    hulls = {_hull(rep(lab, p), A) for lab in GRAPH_LABELS}
    return sum(gaussian_binomial(h.dim - 1, e, p) for h in hulls for e in range(h.dim))


def build_lattice(p: int, *, max_subspaces: int | None = 2_000_000) -> LatticeGraph:
    """Compute the label-inclusion lattice over F_p and reduce to covers.

    Raises CostLimitExceeded before any work if :func:`projected_bases`
    exceeds ``max_subspaces`` (None disables the bound).
    """
    check_budget(projected_bases(p), max_subspaces)
    A = algebra(p)
    spaces = {lab: rep(lab, p) for lab in GRAPH_LABELS}
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
