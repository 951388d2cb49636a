"""The benchmark's workloads, their input-size guard and their output checks.

Each workload is one CLI command with fixed arguments.  The inputs are set
by the paper's census and hold no randomness; the identities suite seeds
itself.  Expected outputs were recorded from the CLI and are checked on
every command: any mismatch is a failed command.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    #: Fields whose algebra context set-up builds.
    primes: tuple[int, ...]
    #: (p, dims) of the census scan the command runs, or None.
    census: tuple[int, tuple[int, ...]] | None
    #: sha256 of the command's standard output, or None if it holds timings.
    stdout_sha256: str | None
    #: Number of output lines.
    lines: int


WORKLOADS = {w.name: w for w in (
    Workload("census-f3", ("enumerate", "--field", "3", "--dims", "1,2",
                           "--threads", "2"),
             (3,), (3, (1, 2)),
             "41b4f77a87958af740763fe6bd108ce898f60eb778739b399f6dbaa35b32cb7e",
             9130),
    Workload("orbits-f2", ("orbits", "--field", "2", "--threads", "1"),
             (2,), (2, tuple(range(9))),
             "35183818b824259c26248bdd34789467018d33675224ff2cbe3ef4e2e9c20494",
             23),
    Workload("lattice-f5", ("lattice", "--field", "5"),
             (5,), None,
             "0281bef8723f839c34e4e2e622e2fc477f4cc755b2b34ad95bebab9b26cbb6fd",
             65),
    Workload("identities", ("verify", "--suite", "identities"),
             (2, 3, 5), None, None, 36),
)}

#: identities: per-suite instance totals, and the digest of the output
#: with its wall-time text removed.
IDENTITY_CHECKS = {2: 84_083_456, 3: 1_100_000, 5: 1_100_000}
IDENTITIES_STRIPPED_SHA256 = (
    "c6da877d826a1d731dc59bae6efadfc14bd87d8cb178b8a11dc0f029de5e53d8")

_TIMING = re.compile(r" in \d+\.\ds$", re.M)
_SUITE_HEAD = re.compile(
    r"^suite identities \(field (\d+)\): (PASS|FAIL) — (\d+) checks$", re.M)
_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)";$', re.M)


def strip_timings(text: str) -> str:
    """Suite output without its ``in X.Xs`` wall times."""
    return _TIMING.sub("", text)


def projected_subspaces(w: Workload, splitoct) -> int:
    """Subspaces the workload's scan visits, from gaussian_binomial.

    ``splitoct`` is the imported package; the census count is what the
    CLI compares with its ``--max-subspaces`` budget, the lattice count
    is the sub-subspaces of every label representative.
    """
    gb = splitoct.subspace.gaussian_binomial
    if w.census is not None:
        p, dims = w.census
        return sum(gb(8, k, p) for k in dims)
    if w.argv[0] == "lattice":
        p = int(w.argv[w.argv.index("--field") + 1])
        lat = splitoct.lattice
        return sum(gb(lat.LABEL_DIM[lab], r, p) for lab in lat.GRAPH_LABELS
                   for r in range(1, lat.LABEL_DIM[lab]))
    return 0


def check_output(w: Workload, text: str, fixture_edges) -> list[str]:
    """Problems with one command's standard output; empty when correct.

    ``fixture_edges`` is ``splitoct.verify.LATTICE_FIXTURE_EDGES``, the
    lattice's covering edges recorded independently of this benchmark.
    """
    problems = []
    n = text.count("\n")
    if n != w.lines:
        problems.append(f"{n} output lines, expected {w.lines}")
    if w.stdout_sha256 is not None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != w.stdout_sha256:
            problems.append(f"stdout sha256 {digest[:12]}…, "
                            f"expected {w.stdout_sha256[:12]}…")
    if w.argv[0] == "lattice":
        edges = set(_DOT_EDGE.findall(text))
        if edges != set(fixture_edges):
            problems.append(f"lattice edges differ from the fixture: "
                            f"{sorted(edges ^ set(fixture_edges))[:4]}")
    if w.argv[0] == "verify":
        stripped = strip_timings(text)
        heads = {int(p): (verdict, int(c))
                 for p, verdict, c in _SUITE_HEAD.findall(stripped)}
        want = {p: ("PASS", c) for p, c in IDENTITY_CHECKS.items()}
        if heads != want:
            problems.append(f"suite verdicts {heads}, expected {want}")
        digest = hashlib.sha256(stripped.encode()).hexdigest()
        if digest != IDENTITIES_STRIPPED_SHA256:
            problems.append(f"stripped suite output sha256 {digest[:12]}…, "
                            f"expected {IDENTITIES_STRIPPED_SHA256[:12]}…")
    return problems
