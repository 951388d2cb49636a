"""Argument and precondition checks raise typed errors that survive
``python -O``; the package holds no ``assert`` statement."""

import ast
import subprocess
import sys
from pathlib import Path

import splitoct

PACKAGE = Path(splitoct.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def test_typed_errors_survive_optimize_flag():
    script = """
import numpy as np
from splitoct.algebra import Octonion, algebra
from splitoct.autos import count_automorphisms, doubling_extension, generate_group
from splitoct.constructions import PreconditionFailed
from splitoct.linalg import mat_inv
from splitoct.subspace import enumerate_subspaces, intersect, perp, span, sum_spaces
calls = (
    lambda: doubling_extension(np.eye(8, dtype=np.int64)[:3], (0,) * 8, 2),
    lambda: generate_group([]),
    lambda: count_automorphisms(3),
    lambda: algebra(3).byte_of((1,) * 8),
    lambda: algebra(3).coords_of_byte(1),
    lambda: Octonion((1,) * 8, 2) + Octonion((1,) * 8, 3),
    lambda: mat_inv(np.ones((2, 3), dtype=np.int64), 2),
    lambda: sum_spaces(span([(1,) * 8], 2), span([(1,) * 8], 3)),
    lambda: intersect(span([(1,) * 8], 2), span([(1,) * 8], 3)),
    lambda: perp(span([(1, 0, 0, 0)], 2, 4)),
    lambda: next(enumerate_subspaces(9, 2)),
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
    assert proc.stdout.split() == ["PreconditionFailed"] + ["ValueError"] * 10
