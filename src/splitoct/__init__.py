"""Exact split-octonion algebra over small prime fields.

The package builds the split octonions as 2x2 matrix pairs, enumerates every
multiplication-closed subspace, labels each one by its isomorphism type,
verifies the structural theorems by brute force, and reports the orbit and
inclusion structure of the result.

Highlights
----------
- :func:`splitoct.algebra.algebra` — the algebra context for a prime ``p``
  (multiplication, involution, norm, trace, named elements, byte tables).
- :func:`splitoct.census.enumerate_subalgebras` — the exhaustive census.
- :func:`splitoct.classify.classify` — the isomorphism-type labeller.
- :mod:`splitoct.autos` — automorphisms, group closure, orbit partitions.
- :mod:`splitoct.verify` — the brute-force verification suites.
- :mod:`splitoct.lattice` — the label-inclusion lattice with DOT/JSON output.
- ``splitoct`` console script — the command-line front end.
"""

from .algebra import Isotope, Octonion, SplitOctonions, Table, algebra, double
from .autos import (Automorphism, CapExceeded, all_alpha_generators, alpha_st,
                    alpha_subgroup_order_formula, automorphism_generators,
                    conjugation_flip,
                    count_automorphisms, doubling_extension, element_orbits,
                    find_h_moving_extension, generate_group, orbit_of_space,
                    orbit_partition, two_transitive_on_lines)
from .census import (CensusSummary, CostLimitExceeded, census_report,
                     enumerate_subalgebras, write_jsonl)
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
from .subspace import (Subspace, closure, enumerate_subspaces,
                       gaussian_binomial, intersect, is_closed, perp, radicals,
                       span, sum_spaces)
from .verify import SUITE_NAMES, CheckResult, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "Automorphism", "CapExceeded", "CensusSummary", "CheckResult",
    "ClassificationError", "CostLimitExceeded", "FieldError", "Isotope",
    "LatticeGraph", "LatticeNode", "NotClosed", "Octonion", "OrbitLabel",
    "PreconditionFailed", "SUITE_NAMES", "SplitOctonions", "SubalgebraRecord",
    "Subspace", "SuiteResult", "Table", "UnreachableLabel", "algebra",
    "all_alpha_generators", "alpha_st", "alpha_subgroup_order_formula",
    "automorphism_generators", "build_lattice", "census_report",
    "centralizer", "check_prime",
    "classify", "closure", "companion_element", "conjugation_flip",
    "count_automorphisms", "double", "doubling_extension", "element_orbits",
    "element_orbit_invariant", "emit_dot", "emit_json",
    "enumerate_subalgebras", "enumerate_subspaces", "find_h_moving_extension",
    "gaussian_binomial", "generate_group", "heisenberg", "intersect",
    "is_closed", "kernel_of_left_mul", "left_mul_space", "orbit_of_space",
    "orbit_partition", "perp", "radicals", "record_for", "rep",
    "right_ideal_double", "right_mul_space", "run_suite", "span",
    "standard_quaternions", "sum_spaces", "top_row_ideal",
    "two_transitive_on_lines", "upper_triangular", "write_jsonl",
]
