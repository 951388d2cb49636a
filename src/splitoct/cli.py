"""Command-line interface.

Subcommands
-----------
- ``enumerate``  every subalgebra over F_p as JSON lines
- ``classify``   label one subspace given by a JSON list of basis rows
- ``verify``     run verification suites; exit 1 on the first failure
- ``orbits``     orbit partition of the census under the automorphism group
- ``lattice``    label-inclusion lattice as DOT or JSON

Configuration precedence: command-line flags, then ``OCT_*`` environment
variables, then built-in defaults (field 2, threads 1, a budget of
2,000,000 quotient bases, see :func:`splitoct.census.check_scan` and
:func:`splitoct.lattice.projected_bases`; ``lattice --field 11`` needs a
larger one).  One census process is the default because a second one
does not make the full F_2 census faster end to end: ``enumerate --field
2`` took a median 0.169 s at one process and 0.162 s at two (two faster
in 7 of 12 alternating runs, 2-vCPU VM), for 0.17 against 0.25 s of CPU.
``verify`` takes no thread setting: each (suite, field) run of a request
gets its own forked process, up to the usable CPUs, and a single run
forks nothing (:func:`splitoct.verify.run_suite`); ``--suite
identities`` took 0.28 s against 0.37 s one run after another.

Exit codes: 0 success; 1 verification failure (first counterexample is
printed); 2 usage, input, output or resource-budget errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .algebra import algebra
from .autos import automorphism_generators, orbit_partition
from .census import CostLimitExceeded, census_columns, check_scan, write_jsonl
from .classify import classify
from .field import check_prime
from .lattice import build_lattice, emit_dot, emit_json
from .subspace import span
from . import verify as verify_mod

DEFAULT_FIELD = 2
DEFAULT_THREADS = 1
DEFAULT_MAX_SUBSPACES = 2_000_000


def _env_int(name: str) -> int | None:
    raw = os.environ.get(f"OCT_{name}")
    try:
        return None if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"OCT_{name} must be an integer, got {raw!r}") from None


def _resolve_int(flag_value: int | None, env_name: str, default: int | None) -> int | None:
    if flag_value is not None:
        return flag_value
    env = _env_int(env_name)
    return env if env is not None else default


def _field(args) -> int:
    """The prime of --field, OCT_FIELD or the default, checked."""
    p = _resolve_int(args.field, "FIELD", DEFAULT_FIELD)
    check_prime(p)
    return p


def _census_args(args):
    """(p, dims, budget, threads) of a census command."""
    return (_field(args), _parse_dims(args.dims),
            _resolve_int(args.max_subspaces, "MAX_SUBSPACES", DEFAULT_MAX_SUBSPACES),
            _resolve_int(args.threads, "THREADS", DEFAULT_THREADS))


def _parse_dims(raw: str | None):
    if raw is None:
        return None
    try:
        dims = sorted({int(t) for t in raw.split(",") if t.strip() != ""})
    except ValueError as exc:
        raise ValueError(f"bad --dims value {raw!r}: {exc}") from exc
    if not dims:
        raise ValueError(f"--dims must list at least one dimension, got {raw!r}")
    return dims


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="splitoct",
        description="Exact split-octonion subalgebra census over small prime fields.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--field", type=int, default=None,
                       help="prime order of the scalar field (default 2)")

    def add_budget(p, what):
        p.add_argument("--max-subspaces", type=int, default=None,
                       help=f"abort if {what} would enumerate more bases "
                            f"of a quotient by F·1, lifts not counted "
                            f"(default {DEFAULT_MAX_SUBSPACES})")

    def add_budgets(p):
        add_budget(p, "the census")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker processes for the census "
                            f"(default {DEFAULT_THREADS})")

    p_enum = sub.add_parser("enumerate",
                            help="emit every closed subspace as JSON lines")
    add_field(p_enum)
    p_enum.add_argument("--dims", type=str, default=None,
                        help="comma-separated dimensions to find (default all)")
    p_enum.add_argument("--out", type=str, default="-",
                        help="output path (default stdout)")
    add_budgets(p_enum)

    p_cls = sub.add_parser("classify", help="label one subspace")
    add_field(p_cls)
    p_cls.add_argument("--basis", type=str, required=True,
                       help="JSON list of 8-coordinate basis rows")

    p_ver = sub.add_parser("verify", help="run verification suites")
    add_field(p_ver)
    p_ver.add_argument("--suite", choices=verify_mod.SUITE_NAMES,
                       default="all",
                       help="suite to run (default all)")

    p_orb = sub.add_parser("orbits",
                           help="orbit partition of the census by (dim, label)")
    add_field(p_orb)
    p_orb.add_argument("--dims", type=str, default=None,
                       help="comma-separated dimensions (default all)")
    add_budgets(p_orb)

    p_lat = sub.add_parser("lattice", help="emit the label-inclusion lattice")
    add_field(p_lat)
    p_lat.add_argument("--format", choices=("dot", "json"), default="dot",
                       help="output format (default dot)")
    add_budget(p_lat, "the lattice")
    return top


def _cmd_enumerate(args) -> int:
    p, dims, budget, threads = _census_args(args)
    # checks first, then the file, then the census: a refused request leaves
    # an existing --out as it was, and a bad path costs no work
    check_scan(p, dims, max_subspaces=budget, threads=threads)
    with (contextlib.nullcontext(sys.stdout) if args.out == "-"
          else open(args.out, "w", encoding="utf-8")) as fh:
        write_jsonl(census_columns(algebra(p), dims, max_subspaces=budget,
                                   threads=threads), fh)
    return 0


def _cmd_classify(args) -> int:
    p = _field(args)
    rows = json.loads(args.basis)
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and len(r) == 8
                       and all(type(t) is int for t in r) for r in rows)):
        raise ValueError("--basis must be a JSON list of rows of 8 integers")
    space = span([tuple(t % p for t in r) for r in rows], p)
    label = classify(space, algebra(p))
    print(label.value)
    return 0


def _cmd_verify(args) -> int:
    field = _resolve_int(args.field, "FIELD", None)
    results = verify_mod.run_suite(args.suite, field)
    failed = False
    for r in results:
        print("\n".join(r.lines()))
        failed = failed or not r.passed
    if failed:
        for r in results:
            ce = r.first_counterexample()
            if ce is not None:
                print(f"FIRST COUNTEREXAMPLE ({r.suite}): {ce}")
                break
        return 1
    return 0


def _cmd_orbits(args) -> int:
    p, dims, budget, threads = _census_args(args)
    columns = census_columns(algebra(p), dims, max_subspaces=budget,
                             threads=threads)
    for row in orbit_partition(columns, automorphism_generators(p)):
        print(json.dumps(row))
    return 0


def _cmd_lattice(args) -> int:
    graph = build_lattice(_field(args), max_subspaces=_resolve_int(
        args.max_subspaces, "MAX_SUBSPACES", DEFAULT_MAX_SUBSPACES))
    text = emit_dot(graph) if args.format == "dot" else emit_json(graph)
    sys.stdout.write(text)
    return 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "orbits": _cmd_orbits,
    "lattice": _cmd_lattice,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CostLimitExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
