"""Inclusion-up-to-orbit lattice of subalgebra labels, plus DOT/JSON emitters.

Containment between orbit labels is decided on representatives alone: a
label X embeds in a label Y exactly when the representative of Y contains
some subalgebra labelled X (any other Y-labelled subalgebra is an
automorphic image of the representative, so the answer is orbit-invariant).
The subalgebras of a representative S are the closed subspaces of S + F·1
that lie in S, from :func:`splitoct.subspace.closed_subspaces`: over F_5
it tests 213,217 candidates in place of all 3,632,396 sub-subspaces.  The
closure test rejects most of those with three or more rows on the
products of their first row alone: 10,220 reach its second stage, which
computes the other rows' products.  9,480 candidates are closed.  The quotient bases among the candidates
are counted before any work, and bounded by the census's budget.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
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


def subalgebras_inside(space: Subspace, A: Algebra) -> Iterator[np.ndarray]:
    """RREF bases, in the coordinates of the octonion algebra ``A``, of
    every proper nonzero subalgebra of a closed subspace S: one stack
    (M, d, 8) per dimension d, by increasing d."""
    check_space(space, A)
    p, k, inner = A.p, space.dim, space.matrix()
    substructure(inner[None], A)                   # NotClosed unless S is
    hull = span(space.rows + (A.unit,), p, A.dim)
    basis, unit = hull.matrix(), np.array(A.unit)[list(hull.pivots)]
    stacks: list[list[np.ndarray]] = [[] for _ in range(k)]
    for mats in closed_subspaces(substructure(basis[None], A)[0], unit, p):
        rows = mats @ basis % p
        if 1 <= rows.shape[1] < k:
            inside = ~residues(inner, rows, p).any((1, 2))
            stacks[rows.shape[1]].append(rows[inside].astype(np.int8))
    for d in range(1, k):
        yield batch_rref(np.concatenate(stacks[d]), p)[0]


def labels_inside(space: Subspace, A: Algebra) -> set[OrbitLabel]:
    """Labels of every proper nonzero subalgebra of a closed subspace of ``A``."""
    # a set of the codes, not np.unique, which imports numpy.ma on first use
    return {LABELS[code] for rows in subalgebras_inside(space, A)
            for code in set(batch_columns(rows, A).label.tolist())}


def projected_bases(p: int) -> int:
    """The quotient bases :func:`build_lattice` tests over F_p: Σ_e [h − 1,
    e]_p summed over ``GRAPH_LABELS``, where h = dim(S + F·1) for the
    representative S (45,971 over F_5; the hyperplane lifts come on top)."""
    total = 0
    for lab in GRAPH_LABELS:
        h = span(rep(lab, p).rows + (algebra(p).unit,), p).dim
        total += sum(gaussian_binomial(h - 1, e, p) for e in range(h))
    return total


def build_lattice(p: int, *, max_subspaces: int | None = 2_000_000) -> LatticeGraph:
    """Compute the label-inclusion lattice over F_p and reduce to covers.

    Raises CostLimitExceeded before any work if :func:`projected_bases`
    exceeds ``max_subspaces`` (None disables the bound).
    """
    check_budget(projected_bases(p), max_subspaces)
    A = algebra(p)
    contains: dict[OrbitLabel, set[OrbitLabel]] = {}
    flags = {}
    for lab in GRAPH_LABELS:
        space = rep(lab, p)
        cols = batch_columns(space.matrix()[None], A)
        got = LABELS[cols.label[0]]
        if got is not lab:
            raise ArithmeticError(f"representative of {lab.value} classified "
                                  f"as {got.value}")
        flags[lab] = [bool(col[0]) for col in (cols.singular, cols.assoc, cols.comm)]
        inside = labels_inside(space, A)
        inside.discard(OrbitLabel.Zero)
        inside.discard(lab)
        contains[lab] = inside
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
