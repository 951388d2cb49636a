"""Run one splitoct command in this fresh process and report what it cost.

Usage: ``python3 bench/worker.py SPEC_JSON`` where the spec names

- ``src``: the directory that holds the ``splitoct`` package;
- ``primes``: the fields whose algebra context set-up builds;
- ``argv``: the CLI arguments, or null to time set-up alone;
- ``result``: the path this process writes its JSON report to;
- ``trace_dir``: null, or a directory for the spans of a traced command.

Set-up is the import of ``splitoct.cli`` plus ``algebra(p)`` for each
prime, which a CLI user pays on every invocation.  The command then runs
in-process through ``splitoct.cli.main(argv)``, writing to this process's
standard output, which the caller points at a file.  Wall time, user+sys
CPU time of this process and its children (the census pool workers), and
the peak RSS of each are taken around that call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import splitoct.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"splitoct imported from {cli.__file__}, not {src}")
    recorder = None
    if spec.get("trace_dir"):
        import spans
        recorder = spans.Recorder(spec["trace_dir"])
        spans.install(recorder)
    algebra_mod = sys.modules["splitoct.algebra"]
    for p in spec["primes"]:
        algebra_mod.algebra(p)
    report = {"setup_s": time.perf_counter() - t0}
    if spec.get("argv") is None:
        return report

    if recorder is not None:
        recorder.command = "cmd"
    self0 = _cpu(resource.RUSAGE_SELF)
    kids0 = _cpu(resource.RUSAGE_CHILDREN)
    t1 = time.perf_counter()
    try:
        rc = cli.main(list(spec["argv"]))
    except SystemExit as exc:               # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                       # report, and count as a failure
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    wall = time.perf_counter() - t1
    report.update(
        rc=rc,
        wall_s=wall,
        cpu_s=(_cpu(resource.RUSAGE_SELF) - self0)
        + (_cpu(resource.RUSAGE_CHILDREN) - kids0),
        rss_self_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        rss_children_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    )
    if recorder is not None:
        recorder.write(Path(spec["trace_dir"]) / "spans-main.jsonl")
    return report


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    report = main(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
