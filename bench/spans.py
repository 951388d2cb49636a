"""Span recorder for traced benchmark runs, and the per-layer analysis.

Tracing happens from outside the program: :func:`install` replaces public
functions of the ``splitoct`` modules with wrappers that record a span
(name, start, end, parent, command id) or only a call count.  The hot
modules import their collaborators by name (``census.record_for``,
``lattice.classify``, ``cli.enumerate_subalgebras``), so each wrapper is
installed in every ``splitoct`` namespace that holds the original object.

Spans stay in memory and are written out at the end.  A process forked
from the traced one (the census process pool) cannot be relied on to run
exit hooks, so it appends each span to its own file as the span closes,
together with the counts it made since its previous span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Functions that get a span, with the attributes read from their
#: arguments and result.  Keys are (module, attribute).
SPANNED = {
    ("cli", "main"): None,
    ("census", "enumerate_subalgebras"): None,
    ("census", "closed_block_mask"):
        lambda a, kw, r: {"n": int(a[0].shape[0]), "k": int(a[0].shape[1]),
                          "closed": int(r.sum())},
    ("census", "write_jsonl"): None,
    ("classify", "record_for"): None,
    ("classify", "classify"): None,
    ("subspace", "pivot_block"): lambda a, kw, r: {"n": int(r.shape[0])},
    ("autos", "generate_group"): lambda a, kw, r: {"elements": r.order},
    ("autos", "orbit_partition"): None,
    ("autos", "orbit_of_space"): lambda a, kw, r: {"images": len(r)},
    ("lattice", "build_lattice"): None,
    ("lattice", "labels_inside"): None,
    ("verify", "run_suite"): None,
    ("verify", "verify_identities"):
        lambda a, kw, r: {"p": r.field, "checks": r.total_checked},
}

#: Functions that are only counted, without a span, because they run too
#: often or too briefly for one.  Those marked True are also timed in total.
COUNTED = {
    ("algebra", "SplitOctonions.mul"): ("algebra.mul", False),
    ("algebra", "algebra"): ("algebra.algebra", True),
    ("subspace", "span"): ("subspace.span", False),
    ("linalg", "rref"): ("linalg.rref", False),
}

#: Modules whose spans make up the layers of the report, besides ``cli``.
LAYERS = ("census", "classify", "subspace", "autos", "lattice", "verify")


class Recorder:
    """Collects spans and counts for one traced process and its forks."""

    def __init__(self, spill_dir: str | os.PathLike):
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        self.command = "setup"
        self.spans: list[dict] = []
        self.counts: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._spilled: dict[str, tuple] = {}
        self._stack: list[str] = []
        self._next = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # The child starts counting from what it inherited.
        self.spans = []
        self._spilled = {k: tuple(v) for k, v in self.counts.items()}

    def _open(self) -> tuple[str, str | None]:
        self._next += 1
        sid = f"{os.getpid()}.{self._next}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: str, parent: str | None, name: str,
               start: float, end: float, attrs: dict | None) -> None:
        self._stack.pop()
        span = {"id": sid, "parent": parent, "name": name, "cmd": self.command,
                "pid": os.getpid(), "start": start, "end": end,
                "attrs": attrs or {}}
        if os.getpid() == self.pid:
            self.spans.append(span)
            return
        # A forked pool worker: write through, carrying its new counts.
        new = {}
        for k, (n, secs) in self.counts.items():
            n0, s0 = self._spilled.get(k, (0, 0.0))
            if n > n0:
                new[k] = [n - n0, secs - s0]
            self._spilled[k] = (n, secs)
        span["counts"] = new
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")

    def spanned(self, name: str, fn, attrs_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
                return result
            finally:
                self._close(sid, parent, name, start, time.perf_counter(), attrs)
        return wrapper

    def counted(self, name: str, fn, timed: bool):
        cell = self.counts[name]
        if not timed:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return count_only

        @functools.wraps(fn)
        def count_and_time(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += time.perf_counter() - start
        return count_and_time

    def write(self, path: str | os.PathLike) -> None:
        """Write this process's spans and its count totals as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def install(recorder: Recorder, package: str = "splitoct") -> None:
    """Wrap every SPANNED and COUNTED function of ``package``.

    Raises LookupError if a target is missing, so a renamed function
    cannot silently drop out of the trace.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for key in [*SPANNED, *COUNTED]:
        mod_name, attr = key
        mod = sys.modules.get(f"{package}.{mod_name}")
        if mod is None:
            raise LookupError(f"module {package}.{mod_name} is not imported")
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(mod, owner) if owner else mod
        orig = getattr(holder, leaf, None)
        if orig is None:
            raise LookupError(f"{package}.{mod_name}.{attr} not found")
        if key in COUNTED:
            name, timed = COUNTED[key]
            new = recorder.counted(name, orig, timed)
        else:
            new = recorder.spanned(f"{mod_name}.{leaf}", orig, SPANNED[key])
        if owner:
            setattr(holder, leaf, new)
        else:
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, new)


def read_spans(paths) -> tuple[list[dict], dict[str, list]]:
    """Merge span files into one span list and one count table."""
    spans: list[dict] = []
    counts: dict[str, list] = defaultdict(lambda: [0, 0.0])

    def add(table):
        for k, (n, s) in table.items():
            counts[k][0] += n
            counts[k][1] += s

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if "id" in obj:
                    add(obj.pop("counts", {}))
                    spans.append(obj)
                else:
                    add(obj["counts"])
    return spans, counts


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its same-process children cover.

    Children run one after another inside their parent, so their
    durations add up.  A child in another process (a pool worker) runs
    alongside its parent and is not subtracted.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    pid_of = {s["id"]: s["pid"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent in out and pid_of[parent] == s["pid"]:
            out[parent] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict], counts: dict, traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command: name -> (value, unit).

    ``spans`` holds the command's spans (setup spans are ignored);
    ``counts`` cover the traced process from set-up on, so
    ``algebra.algebra.s`` includes building the algebra contexts.  A layer
    that the command never entered reports 0.  Layer self times
    (``<layer>.self_s``) cover the command's own process only, so with
    ``cli.main.self_s`` they add up to the root span; pool-worker time
    shows in the busy-time totals of the spans that ran there.
    """
    spans = [s for s in spans if s["cmd"] == "cmd"]
    selfs = self_times(spans)
    by: dict[str, list] = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur(group):
        return sum(s["end"] - s["start"] for s in group)

    def attr(group, key):
        return sum(s["attrs"].get(key, 0) for s in group)

    def per(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def count(name):
        return counts.get(name, (0, 0.0))

    cbm = by["census.closed_block_mask"]
    scanned = attr(cbm, "n")
    put("census.closed_block_mask.calls", len(cbm), "count")
    put("census.closed_block_mask.s", dur(cbm), "s")
    put("census.closed_block_mask.subspaces", scanned, "count")
    put("census.closed_block_mask.subspaces_per_s", per(scanned, dur(cbm)), "1/s")
    for k in range(1, 8):
        at_k = [s for s in cbm if s["attrs"]["k"] == k]
        put(f"census.closed_block_mask.k{k}.subspaces_per_s",
            per(attr(at_k, "n"), dur(at_k)), "1/s")
    put("census.closed_frac", per(attr(cbm, "closed"), scanned), "ratio")
    put("census.write_jsonl.s", dur(by["census.write_jsonl"]), "s")

    rec = by["classify.record_for"]
    put("classify.record_for.calls", len(rec), "count")
    put("classify.record_for.s", dur(rec), "s")
    put("classify.record_for.us_per_record", per(dur(rec), len(rec)) * 1e6, "us")
    put("classify.classify.calls", len(by["classify.classify"]), "count")
    put("classify.classify.s", dur(by["classify.classify"]), "s")

    put("subspace.pivot_block.calls", len(by["subspace.pivot_block"]), "count")
    put("subspace.pivot_block.s", dur(by["subspace.pivot_block"]), "s")
    put("subspace.span.calls", count("subspace.span")[0], "count")
    put("linalg.rref.calls", count("linalg.rref")[0], "count")
    put("algebra.mul.calls", count("algebra.mul")[0], "count")
    put("algebra.algebra.s", count("algebra.algebra")[1], "s")

    gg = by["autos.generate_group"]
    put("autos.generate_group.s", dur(gg), "s")
    put("autos.generate_group.elements", attr(gg, "elements"), "count")
    put("autos.generate_group.elements_per_s",
        per(attr(gg, "elements"), dur(gg)), "1/s")
    put("autos.orbit_partition.s", dur(by["autos.orbit_partition"]), "s")
    oos = by["autos.orbit_of_space"]
    put("autos.orbit_of_space.calls", len(oos), "count")
    put("autos.orbit_of_space.s", dur(oos), "s")
    put("autos.orbit_of_space.images", attr(oos, "images"), "count")

    put("lattice.build_lattice.s", dur(by["lattice.build_lattice"]), "s")
    li = by["lattice.labels_inside"]
    li_ids = {s["id"] for s in li}
    inner = sum(s["attrs"]["n"] for s in by["subspace.pivot_block"]
                if s["parent"] in li_ids)
    found = sum(1 for s in by["classify.classify"] if s["parent"] in li_ids)
    put("lattice.labels_inside.calls", len(li), "count")
    put("lattice.labels_inside.self_s", sum(selfs[s["id"]] for s in li), "s")
    put("lattice.labels_inside.subspaces", inner, "count")
    put("lattice.labels_inside.subspaces_per_s", per(inner, dur(li)), "1/s")
    put("lattice.closed_frac", per(found, inner), "ratio")

    for p in (2, 3, 5):
        vi = [s for s in by["verify.verify_identities"] if s["attrs"]["p"] == p]
        put(f"verify.verify_identities.f{p}.s", dur(vi), "s")
        put(f"verify.verify_identities.f{p}.checks", attr(vi, "checks"), "count")
        put(f"verify.verify_identities.f{p}.checks_per_s",
            per(attr(vi, "checks"), dur(vi)), "1/s")

    roots = by["cli.main"]
    main_pids = {s["pid"] for s in roots}
    mine = [s for s in spans if s["pid"] in main_pids]
    put("cli.main.self_s", sum(selfs[s["id"]] for s in roots), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", sum(selfs[s["id"]] for s in mine
                                   if s["name"].startswith(layer + ".")), "s")
    put("trace.wall_s", traced_wall_s, "s")
    put("trace.overhead_s", traced_wall_s - untraced_wall_s, "s")
    put("trace.accounted_frac",
        per(sum(selfs[s["id"]] for s in mine), traced_wall_s), "ratio")
    return out


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return list(layer_metrics([], {}, 1.0, 1.0))
