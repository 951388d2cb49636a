"""Command-line interface.

Subcommands
-----------
- ``enumerate``  scan every subspace over F_p, emit closed ones as JSON lines
- ``classify``   label one subspace given by a JSON list of basis rows
- ``verify``     run verification suites; exit 1 on the first failure
- ``orbits``     orbit partition of the census under the automorphism group
- ``lattice``    label-inclusion lattice as DOT or JSON

Configuration precedence: command-line flags, then ``OCT_*`` environment
variables, then built-in defaults (field 2, threads 1, subspace budget
2,000,000, group cap 20,000).  One scan process is the default because a
second one did not make the full F_2 census faster end to end.

Exit codes: 0 success; 1 verification failure (first counterexample is
printed); 2 usage or resource-budget errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .autos import (CapExceeded, all_alpha_generators, automorphism_generators,
                    generate_group, orbit_partition)
from .census import CostLimitExceeded, enumerate_subalgebras, write_jsonl
from .classify import NotClosed, classify
from .field import FieldError, check_prime
from .lattice import build_lattice, emit_dot, emit_json
from .subspace import span
from . import verify as verify_mod

DEFAULT_FIELD = 2
DEFAULT_THREADS = 1
DEFAULT_MAX_SUBSPACES = 2_000_000
DEFAULT_GROUP_CAP = 20_000


def _env_int(name: str) -> int | None:
    raw = os.environ.get(f"OCT_{name}")
    return int(raw) if raw is not None else None


def _resolve_int(flag_value: int | None, env_name: str, default: int | None) -> int | None:
    if flag_value is not None:
        return flag_value
    env = _env_int(env_name)
    return env if env is not None else default


def _parse_dims(raw: str | None):
    if raw is None:
        return None
    try:
        dims = sorted({int(t) for t in raw.split(",") if t.strip() != ""})
    except ValueError as exc:
        raise ValueError(f"bad --dims value {raw!r}: {exc}") from exc
    if not dims or not all(0 <= d <= 8 for d in dims):
        raise ValueError(f"--dims must list integers in 0..8, got {raw!r}")
    return dims


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="splitoct",
        description="Exact split-octonion subalgebra census over small prime fields.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--field", type=int, default=None,
                       help="prime order of the scalar field (default 2)")

    def add_budgets(p):
        p.add_argument("--max-subspaces", type=int, default=None,
                       help=f"abort if the scan would visit more subspaces "
                            f"(default {DEFAULT_MAX_SUBSPACES})")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker processes for the scan "
                            f"(default {DEFAULT_THREADS})")

    p_enum = sub.add_parser("enumerate",
                            help="emit every closed subspace as JSON lines")
    add_field(p_enum)
    p_enum.add_argument("--dims", type=str, default=None,
                        help="comma-separated dimensions to scan (default all)")
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
    p_ver.add_argument("--group-cap", type=int, default=None,
                       help=f"automorphism closure size cap "
                            f"(default {DEFAULT_GROUP_CAP})")

    p_orb = sub.add_parser("orbits",
                           help="orbit partition of the census by (dim, label)")
    add_field(p_orb)
    p_orb.add_argument("--dims", type=str, default=None,
                       help="comma-separated dimensions (default all)")
    p_orb.add_argument("--group-cap", type=int, default=None,
                       help=f"automorphism closure size cap "
                            f"(default {DEFAULT_GROUP_CAP})")
    add_budgets(p_orb)

    p_lat = sub.add_parser("lattice", help="emit the label-inclusion lattice")
    add_field(p_lat)
    p_lat.add_argument("--format", choices=("dot", "json"), default="dot",
                       help="output format (default dot)")
    return top


def _cmd_enumerate(args) -> int:
    p = _resolve_int(args.field, "FIELD", DEFAULT_FIELD)
    check_prime(p)
    dims = _parse_dims(args.dims)
    budget = _resolve_int(args.max_subspaces, "MAX_SUBSPACES",
                          DEFAULT_MAX_SUBSPACES)
    threads = _resolve_int(args.threads, "THREADS", DEFAULT_THREADS)
    records = enumerate_subalgebras(p, dims, max_subspaces=budget,
                                    threads=threads)
    if args.out == "-":
        write_jsonl(records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_jsonl(records, fh)
    return 0


def _cmd_classify(args) -> int:
    p = _resolve_int(args.field, "FIELD", DEFAULT_FIELD)
    check_prime(p)
    rows = json.loads(args.basis)
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and len(r) == 8 for r in rows)):
        raise ValueError("--basis must be a JSON list of 8-coordinate rows")
    space = span([tuple(int(t) for t in r) for r in rows], p)
    label = classify(space)
    print(label.value)
    return 0


def _cmd_verify(args) -> int:
    field = _resolve_int(args.field, "FIELD", None)
    cap = _resolve_int(args.group_cap, "GROUP_CAP", DEFAULT_GROUP_CAP)
    results = verify_mod.run_suite(args.suite, field, group_cap=cap)
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
    p = _resolve_int(args.field, "FIELD", DEFAULT_FIELD)
    check_prime(p)
    dims = _parse_dims(args.dims)
    budget = _resolve_int(args.max_subspaces, "MAX_SUBSPACES",
                          DEFAULT_MAX_SUBSPACES)
    threads = _resolve_int(args.threads, "THREADS", DEFAULT_THREADS)
    cap = _resolve_int(args.group_cap, "GROUP_CAP", DEFAULT_GROUP_CAP)
    records = enumerate_subalgebras(p, dims, max_subspaces=budget,
                                    threads=threads)
    # odd p: only the matrix-part stabilizer, since G2(p) exceeds the cap
    gens = automorphism_generators(2) if p == 2 else all_alpha_generators(p)
    generate_group(gens, cap=cap)        # enforce the cap before orbit work
    for row in orbit_partition(records, gens):
        print(json.dumps(row))
    return 0


def _cmd_lattice(args) -> int:
    p = _resolve_int(args.field, "FIELD", DEFAULT_FIELD)
    check_prime(p)
    graph = build_lattice(p)
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
    except (FieldError, ValueError, NotClosed, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CostLimitExceeded, CapExceeded) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
