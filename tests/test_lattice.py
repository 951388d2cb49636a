"""Label-inclusion lattice: fixture edges, flags, deterministic rendering."""

import json
import pathlib
import subprocess
import sys

import pytest

import oracle
from splitoct import lattice, subspace
from splitoct.algebra import algebra
from splitoct.classify import LABEL_DIM, LABELS, OrbitLabel, batch_columns
from splitoct.constructions import rep
from splitoct.lattice import (GRAPH_LABELS, build_lattice, emit_dot, emit_json,
                              subalgebras_inside)
from splitoct.verify import LATTICE_FIXTURE_EDGES

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module", params=[2, 3])
def graph(request):
    return build_lattice(request.param)


def test_node_set(graph):
    # all reachable labels of dimensions 1..6; the zero space and the full
    # algebra are omitted as trivial bottom and top
    assert len(graph.nodes) == 21
    labels = {n.label for n in graph.nodes}
    expected = {lab for lab in OrbitLabel
                if lab.reachable and 1 <= LABEL_DIM[lab] <= 6}
    assert labels == expected
    for n in graph.nodes:
        assert n.dim == LABEL_DIM[n.label]


def test_edge_fixture(graph):
    # same 40 covering pairs for p = 2 and p = 3: the label graph is
    # field-independent
    assert len(graph.edges) == 40
    assert set(graph.edge_values()) == set(LATTICE_FIXTURE_EDGES)
    assert len(set(graph.edge_values())) == 40


def test_edges_are_covering_relations(graph):
    vals = set(graph.edge_values())
    dims = {n.label.value: n.dim for n in graph.nodes}
    for a, b in vals:
        assert dims[a] < dims[b]
    # covering: no edge factors through an intermediate node
    reach = {v: {w for (u, w) in vals if u == v} for v in dims}
    for a, b in vals:
        for mid in reach[a]:
            assert b not in reach.get(mid, set()) or mid == b


def test_unique_maximal_node(graph):
    maximal = [n for n in graph.nodes if n.maximal]
    assert len(maximal) == 1
    assert maximal[0].label is OrbitLabel.Dim6      # caption "Qperp"
    # in particular the 4-dimensional matrix algebra is NOT maximal: it
    # embeds into the 6-dimensional orbit
    split_quat = next(n for n in graph.nodes if n.label is OrbitLabel.SplitQuat)
    assert not split_quat.maximal
    assert ("F2x2", "Qperp") in set(graph.edge_values())


def test_flags(graph):
    flags = {n.label: n for n in graph.nodes}
    assert flags[OrbitLabel.SplitQuat].associative
    assert not flags[OrbitLabel.SplitQuat].commutative
    assert not flags[OrbitLabel.NO].associative
    assert not flags[OrbitLabel.Dim6].associative
    assert flags[OrbitLabel.Q].totally_singular
    assert flags[OrbitLabel.Q].commutative
    assert not flags[OrbitLabel.F].totally_singular
    d = flags[OrbitLabel.Q].flags_dict()
    assert set(d) == {"totally_singular", "associative", "commutative",
                      "maximal"}


def test_dot_golden_bytes(graph):
    golden = (DATA / f"lattice_f{graph.p}.dot").read_text()
    assert emit_dot(graph) == golden
    assert emit_dot(build_lattice(graph.p)) == golden


def test_json_golden_bytes(graph):
    golden = (DATA / f"lattice_f{graph.p}.json").read_text()
    assert emit_json(graph) == golden
    parsed = json.loads(golden)
    assert set(parsed) == {"nodes", "edges"}
    assert len(parsed["nodes"]) == 21 and len(parsed["edges"]) == 40
    for node in parsed["nodes"]:
        assert set(node) == {"label", "dim", "flags"}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_subalgebras_inside_match_every_subspace_scan(p):
    # the pruned scan finds the same closed sub-subspaces as testing every
    # subspace of the representative; at F_5 the 6-dimensional Qperp (3.6 M
    # subspaces) is left to the total below
    A = algebra(p)
    total = 0
    for lab in GRAPH_LABELS:
        space = rep(lab, p)
        stacks = list(subalgebras_inside(space, A))
        dims = [s.shape[1] for s in stacks]
        assert dims == sorted(dims) and set(dims) == set(range(1, space.dim))
        got = [tuple(map(tuple, m)) for s in stacks for m in s.tolist()]
        assert len(got) == len(set(got)), lab
        total += len(got)
        if p < 5 or space.dim <= 5:
            assert set(got) == oracle.closed_inside(space, A), lab
    assert total == {2: 619, 3: 1688, 5: 7876}[p]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_scan_per_hull_finds_each_representatives_labels(p, monkeypatch):
    """``labels_inside`` scans each of the 12 distinct hulls S + F·1 of the
    21 representatives once.  Every representative gets the labels of an
    independent scan of S alone: the whole containment map, which the
    maximal flags read, not only its covers."""
    A = algebra(p)
    spaces = [rep(lab, p) for lab in GRAPH_LABELS]
    want = [{LABELS[c] for rows in subalgebras_inside(space, A)
             for c in batch_columns(rows, A).label.tolist()} for space in spaces]
    real, scans = lattice.closed_subspaces, []
    monkeypatch.setattr(lattice, "closed_subspaces",
                        lambda *a: scans.append(a) or real(*a))
    assert lattice.labels_inside(spaces, A) == want
    assert len(scans) == 12
    assert lattice.labels_inside(spaces[::-1], A) == want[::-1]
    assert lattice.labels_inside([rep(OrbitLabel.F, p)], A) == [set()]
    graph = build_lattice(p)
    assert {n.label for n in graph.nodes if not n.maximal} == set().union(*want)


def test_lattice_f7():
    # the label graph is field-independent: the F_3 goldens with the
    # graph renamed (which is also the F_5 output)
    graph = build_lattice(7)
    golden = (DATA / "lattice_f3.dot").read_text()
    assert emit_dot(graph) == golden.replace("lattice_f3", "lattice_f7")
    assert emit_json(graph) == (DATA / "lattice_f3.json").read_text()


def test_lattice_f5_scan_stays_pruned(monkeypatch):
    # every sub-subspace of the 21 representatives would be 3,632,396
    # bases; one scan per hull, with the lifts filtered by their squares,
    # hands the closure kernel 50,037
    kernel = subspace.closed_mask
    rows = []

    def counting(mats, *args):
        rows.append(len(mats))
        return kernel(mats, *args)

    monkeypatch.setattr(subspace, "closed_mask", counting)
    build_lattice(5)
    assert sum(rows) == 50_037


def test_lattice_command_leaves_numpy_ma_unimported():
    """A cold ``splitoct lattice`` does not import numpy.ma, which
    ``np.unique`` imports on first use at a cost of milliseconds."""
    src = pathlib.Path(subspace.__file__).resolve().parents[1]
    script = ("import sys\nfrom splitoct.cli import main\n"
              "rc = main(['lattice', '--field', '3'])\n"
              "print(rc, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
