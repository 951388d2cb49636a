"""Exact split-octonion algebra over small prime fields.

The package builds the split octonions as 2x2 matrix pairs, enumerates every
multiplication-closed subspace, labels each one by its isomorphism type,
verifies the structural theorems by brute force, and reports the orbit and
inclusion structure of the result.

Highlights
----------
- :class:`splitoct.algebra.Algebra` — one algebra value: structure tensor,
  norm form and unit, with the involution, trace and operations derived;
  ``field_table``, ``quaternion_table`` and ``double`` build it by
  Cayley–Dickson doubling.
- :func:`splitoct.algebra.algebra` — the canonical split octonions over F_p.
- :func:`splitoct.census.census_columns` — the census of every
  subalgebra, over any table of the split octonions, as int8 columns
  that carry their prime; :func:`splitoct.census.label_counts` counts
  them per (dimension, label).
- :func:`splitoct.classify.classify` — the isomorphism-type labeller.
- :mod:`splitoct.autos` — automorphisms, group closure, orbit partitions.
- :mod:`splitoct.verify` — the brute-force verification suites.
- :mod:`splitoct.lattice` — the label-inclusion lattice with DOT/JSON output.
- ``splitoct`` console script — the command-line front end.
"""

from .algebra import (Algebra, SplitOctonions, algebra, double, field_table,
                      quaternion_table)
from .autos import (Automorphism, CapExceeded, all_alpha_generators, alpha_st,
                    automorphism_generators, doubling_extension,
                    element_orbits, find_h_moving_extension, generate_group,
                    orbit_of_space, orbit_partition)
from .census import (CostLimitExceeded, census_columns, enumerate_subalgebras,
                     label_counts, write_jsonl)
from .classify import (ClassificationError, NotClosed, OrbitLabel,
                       SubalgebraRecord, classify, element_orbit_invariant,
                       record_for)
from .constructions import (PreconditionFailed, UnreachableLabel, centralizer,
                            companion_element, heisenberg, kernel_of_left_mul,
                            left_mul_space, rep, right_ideal_double,
                            right_mul_space, standard_quaternions,
                            top_row_ideal, upper_triangular)
from .field import FieldError, check_prime
from .lattice import LatticeGraph, LatticeNode, build_lattice, emit_dot, emit_json
from .subspace import (Subspace, closure, gaussian_binomial, intersect, perp,
                       span, sum_spaces)
from .verify import (SUITE_NAMES, CheckResult, SuiteResult,
                     count_automorphisms, run_suite)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "Automorphism", "CapExceeded", "CheckResult",
    "ClassificationError", "CostLimitExceeded", "FieldError", "LatticeGraph",
    "LatticeNode", "NotClosed", "OrbitLabel", "PreconditionFailed",
    "SUITE_NAMES", "SplitOctonions", "SubalgebraRecord", "Subspace",
    "SuiteResult", "UnreachableLabel", "algebra", "all_alpha_generators",
    "alpha_st", "automorphism_generators", "build_lattice", "census_columns",
    "centralizer", "check_prime", "classify", "closure", "companion_element",
    "count_automorphisms", "double", "doubling_extension", "element_orbits",
    "element_orbit_invariant", "emit_dot", "emit_json",
    "enumerate_subalgebras", "field_table",
    "find_h_moving_extension", "gaussian_binomial", "generate_group",
    "heisenberg", "intersect", "kernel_of_left_mul", "label_counts",
    "left_mul_space", "orbit_of_space", "orbit_partition", "perp",
    "quaternion_table", "record_for", "rep", "right_ideal_double",
    "right_mul_space", "run_suite", "span", "standard_quaternions",
    "sum_spaces", "top_row_ideal", "upper_triangular", "write_jsonl",
]
