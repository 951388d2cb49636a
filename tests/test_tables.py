"""One algebra value: the derived tables against the README formulas, the
doubled norm on μ-tables, a census that does not depend on the table, and
per-space answers that read the table they are given."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import oracle
import splitoct
from splitoct.algebra import Algebra, algebra, double, field_table, mod, products
from splitoct.census import census_columns, enumerate_subalgebras, label_counts
from splitoct.classify import OrbitLabel, classify, record_for
from splitoct.constructions import rep
from splitoct.field import SUPPORTED_PRIMES
from splitoct.linalg import mat_inv, rank
from splitoct.subspace import perp

#: Per-label counts of the F_3 census in dimensions 1 and 2.
F3_DIMS12_COUNTS = {"F": 1, "Fn": 364, "Fp": 756, "E": 351, "F+Fn": 364,
                    "Fn+Fp": 3276, "Fn+Fpbar": 3276, "Q": 364, "S": 378}


def _mu_table(p: int, mus) -> Algebra:
    table = field_table(p)
    for mu in mus:
        table = double(table, mu)
    return table


def _change_basis(A: Algebra, T: np.ndarray) -> Algebra:
    """The same algebra in coordinates y = x·T (row vectors)."""
    p = A.p
    Ti = mat_inv(T, p)
    struct = np.einsum("ia,jb,abc,cd->ijd", Ti, Ti, A.struct, T) % p
    M = Ti @ A.norm_form @ Ti.T
    norm_form = np.triu(M) + np.triu(M.T, 1)
    return Algebra(struct, norm_form, np.array(A.unit) @ T % p, p)


def _random_basis(p: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    while True:
        T = rng.integers(0, p, (8, 8))
        if rank(T, p) == 8:
            return T


def _label_counts(A: Algebra, dims=None) -> dict:
    counts = label_counts(census_columns(A, dims))
    return {label: n for (_dim, label), n in counts.items()}


# ---------------------------------------------------------------------------
# derived data against independent formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_canonical_tables_match_readme_formulas(p):
    A = algebra(p)
    E = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    for i, j in itertools.product(range(8), repeat=2):
        assert tuple(A.struct[i, j]) == oracle.octonion_mul(E[i], E[j], p)
        e = tuple(a + b for a, b in zip(E[i], E[j]))
        polar = (oracle.octonion_norm(e, p) - oracle.octonion_norm(E[i], p)
                 - oracle.octonion_norm(E[j], p)) % p
        assert A.gram[i, j] == polar
    for i in range(8):
        assert tuple(A.conj_mat[i]) == oracle.octonion_conj(E[i], p)
    X = np.random.default_rng(p).integers(0, p, (200, 8))
    assert A.norms(X).tolist() == [oracle.octonion_norm(x, p) for x in X]
    assert A.traces(X).tolist() == [oracle.octonion_trace(x, p) for x in X]
    for x, y in zip(X[:50].tolist(), X[50:100].tolist()):
        assert A.mul(x, y) == oracle.octonion_mul(x, y, p)
        assert A.conj(x) == oracle.octonion_conj(x, p)
        assert A.norm(x) == oracle.octonion_norm(x, p)
        assert A.trace(x) == oracle.octonion_trace(x, p)


@pytest.mark.parametrize("p", [3, 5])
def test_mu_tables_compose_their_doubled_norm(p):
    # x·κ(x) = N(x)·1 and N(xy) = N(x)N(y) for the norm form built by
    # doubling, N(a + xv) = N(a) + μN(x), on every μ-triple
    rng = np.random.default_rng(50 + p)
    X = rng.integers(0, p, (300, 8))
    Y = rng.integers(0, p, (300, 8))
    for mus in itertools.product(range(1, p), repeat=3):
        A = _mu_table(p, mus)
        kX = X @ A.conj_mat % p
        xkx = mod(products(X[:, None], kX[:, None], A.struct, p)[:, 0, 0], p)
        assert np.array_equal(xkx, np.outer(A.norms(X), A.unit) % p), mus
        XY = mod(products(X[:, None], Y[:, None], A.struct, p)[:, 0, 0], p)
        assert np.array_equal(A.norms(XY.astype(np.int64)),
                              A.norms(X) * A.norms(Y) % p), mus


#: (owner module, names no other module may import or read as attributes):
#: the canonical tables over Z
TABLE_OWNERS = (
    ("algebra.py", ("STRUCT_Z", "GRAM_Z", "CONJ_Z")),
)


def test_only_the_algebra_module_reads_the_canonical_tables():
    package = Path(splitoct.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, owned in TABLE_OWNERS:
            if path.name == owner:
                continue
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                found += [f"{path.name}:{node.lineno} {n}" for n in names
                          if n in owned]
    assert not found


#: the F_2 byte tables, which only the tests' oracle builds
BYTE_NAMES = frozenset({"_Bytes", "byte_tables", "_build_byte_tables", "byte_coords",
                        "mul_byte", "polar_byte", "conj_byte", "norm_byte",
                        "trace_byte", "mul_flat", "polar_flat", "byte_of",
                        "coords_of_byte"})


def _byte_names(path: Path) -> list[str]:
    """Every name of ``BYTE_NAMES`` a module defines, imports, reads or
    passes as a keyword, with its line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        for attr in ("id", "attr", "name", "arg"):
            name = getattr(node, attr, None)
            if name in BYTE_NAMES:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    return found


def test_no_module_names_a_byte_table():
    package = Path(splitoct.__file__).resolve().parent
    assert not [hit for path in sorted(package.glob("*.py")) for hit in _byte_names(path)]
    assert _byte_names(Path(oracle.__file__))         # the walk sees them where they are


def _private_helpers(trees: dict) -> dict:
    """The top-level ``_``-prefixed functions and classes of the parsed
    modules, each with the number of times a name or attribute in any of
    them refers to it."""
    helpers = {node.name: 0 for tree in trees.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in helpers:
                helpers[name] += 1
    return helpers


def test_every_private_helper_has_a_caller():
    package = Path(splitoct.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    helpers = _private_helpers(trees)
    assert len(helpers) > 40                          # the walk finds them
    assert not [name for name, uses in helpers.items() if not uses]
    # a helper left behind with no caller is caught
    trees["orphan.py"] = ast.parse("def _reduce(U, W):\n    return W\n")
    assert _private_helpers(trees)["_reduce"] == 0


#: modules that work in whatever table they are handed
GENERIC_MODULES = ("subspace.py", "classify.py", "census.py", "linalg.py")


def test_generic_modules_never_reach_for_the_canonical_table():
    package = Path(splitoct.__file__).resolve().parent
    found = []
    for name in GENERIC_MODULES:
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                hits = [a.name for a in node.names if a.name == "algebra"]
            elif isinstance(node, ast.Call):
                f = node.func
                hits = [n for n in (getattr(f, "id", None), getattr(f, "attr", None))
                        if n == "algebra"]
            else:
                hits = []
            found += [f"{name}:{node.lineno}" for _ in hits]
    assert not found


def test_no_duck_typed_element_inputs():
    # every element is a coordinate tuple of an explicit algebra
    package = Path(splitoct.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in ("coords", "p")):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


# ---------------------------------------------------------------------------
# the census does not depend on the table
# ---------------------------------------------------------------------------

def test_f2_census_independent_of_basis(columns2):
    A = _change_basis(algebra(2), _random_basis(2, seed=2))
    assert not np.array_equal(A.struct, algebra(2).struct)
    assert label_counts(census_columns(A)) == label_counts(columns2)


@pytest.mark.parametrize("basis_seed", [None, 3])
def test_f3_census_over_mu_table(basis_seed):
    # 2 is a non-square mod 3
    A = _mu_table(3, (2, 1, 2))
    if basis_seed is not None:
        A = _change_basis(A, _random_basis(3, basis_seed))
    assert _label_counts(A, [1, 2]) == F3_DIMS12_COUNTS


def test_per_space_answers_read_the_given_table():
    """Over a μ-table the labels, records and radicals of its own census
    come back from the one-space functions, which read that table and no
    other."""
    T = _mu_table(3, (2, 1, 2))
    records = enumerate_subalgebras(T, [1, 2])
    assert len(records) == 9130
    for r in records:
        assert classify(r.space, T) is r.label
        assert record_for(r.space, T) == r
        R, Q = oracle.radicals(r.space, T)
        assert (R.dim, Q.dim) == (r.radical_R_dim, r.radical_Q_dim)
    wrong_field = rep(OrbitLabel.F, 5)
    for call in (classify, record_for, oracle.radicals, perp):
        with pytest.raises(ValueError):
            call(wrong_field, T)
