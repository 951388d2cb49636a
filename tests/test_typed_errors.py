"""Argument and precondition checks raise typed errors that survive
``python -O``; the package holds no ``assert`` statement and raises no
``AssertionError``."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np

import splitoct
from splitoct.algebra import algebra

PACKAGE = Path(splitoct.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert not found


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_typed_errors_survive_optimize_flag():
    script = """
import numpy as np
from splitoct.algebra import algebra, quaternion_table
from splitoct.autos import (automorphism_generators, doubling_extension,
                            generate_group, orbit_of_space, orbit_partition)
from splitoct.census import census_columns
from splitoct.classify import OrbitLabel
from splitoct.constructions import PreconditionFailed, heisenberg, rep
from splitoct.linalg import mat_inv
from splitoct.subspace import intersect, perp, span, sum_spaces
from splitoct.verify import _Bits
u = (1, 2, 0, 1, 0, 1, 2, 1)
calls = (
    lambda: doubling_extension(np.eye(8, dtype=np.int64)[:3], (0,) * 8, 2),
    lambda: generate_group([]),
    lambda: generate_group(automorphism_generators(2) + automorphism_generators(3)),
    lambda: orbit_of_space(rep(OrbitLabel.E, 3), automorphism_generators(2)),
    lambda: _Bits(algebra(3)),
    lambda: _Bits(quaternion_table(2)),
    lambda: perp(span([(1,) * 8], 3), algebra(2)),
    lambda: mat_inv(np.ones((2, 3), dtype=np.int64), 2),
    lambda: sum_spaces(span([(1,) * 8], 2), span([(1,) * 8], 3)),
    lambda: intersect(span([(1,) * 8], 2), span([(1,) * 8], 3)),
    lambda: perp(span([(1, 0, 0, 0)], 2, 4), algebra(2)),
    lambda: span([(1, 0, 0, 1, 0, 0, 0, 0)], 2).contains((0, 0, 0)),
    lambda: span([(0, 0, 0, 0, 1, 0, 0, 0)], 2).contains((1, 0, 0)),
    lambda: heisenberg((0, 1), (0, 0, 1), algebra(2)),
    lambda: orbit_partition(census_columns(algebra(3), [0, 8]),
                            automorphism_generators(2)),
    lambda: algebra(3).mul(u[:7], u),
    lambda: algebra(3).mul(u, u + (0,)),
    lambda: algebra(3).conj(u + (0,)),
    lambda: algebra(3).norm(u[:7]),
    lambda: algebra(3).trace(u[:7]),
    lambda: algebra(3).polar(u, u + (0,)),
    lambda: algebra(3).add(u[:7], u),
    lambda: algebra(3).norm((0.5,) * 8),
    lambda: algebra(3).add(u, (1.0,) + u[1:]),
    lambda: algebra(3).mul(u, u[:7] + (np.float64(2),)),
    lambda: algebra(3).conj(np.array(u, dtype=np.float32)),
    lambda: span([(0.5,) * 8], 3),
    lambda: span([(1, 0, 0, 1, 0, 0, 0, 0)], 3).contains((1.5, 0, 0, 1, 0, 0, 0, 0)),
    lambda: census_columns(algebra(2), dims=[1.5]),
    lambda: census_columns(algebra(2), dims=[8], threads=1.5),
)
for call in calls:
    try:
        call()
    except PreconditionFailed:
        print("PreconditionFailed")
    except ValueError:
        print("ValueError")
    else:
        print("no error")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=PACKAGE.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["PreconditionFailed"] + ["ValueError"] * 29


def test_numpy_integer_coordinates_pass_the_element_check():
    """Only the type of a coordinate is checked: numpy integers of any
    width pass, and give the products of the equal Python integers."""
    A, u = algebra(3), (1, 2, 0, 1, 0, 1, 2, 1)
    for wide in (np.array(u, dtype=np.int8), tuple(np.int64(c) for c in u)):
        assert A.mul(wide, u) == A.mul(u, u)
        assert A.norm(wide) == A.norm(u) and A.add(u, wide) == A.add(u, u)
