"""splitoct benchmark: the CLI's workloads, end to end and layer by layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each command runs alone in a
fresh worker process (``bench/worker.py``), which pays the CLI's set-up and
then calls ``splitoct.cli.main(argv)`` in-process; the next command starts
when it has ended.  The only other processes are the pool workers of the
census scan when a command asks for ``--threads 2``.  The commands' inputs
are fixed, so ``--seed`` only sets the order of the set-up samples, of the
primes each set-up builds, and (with ``all``) of the workloads.

``--trace 0`` keeps starting the workload's command while the next one is
expected to end within ``--seconds``, with at least one, and times extra
set-ups alone.  It prints the end-to-end metrics: medians of wall time, CPU
time (process plus children), peak RSS (larger of process and children)
and set-up time.  ``--trace 1`` runs the command once plain and once with
spans recorded (see ``bench/spans.py``) and prints the per-layer metrics.
Every command's output is checked; a non-zero exit or a mismatch is a
failed command.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results
and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import WORKLOADS, check_output, projected_subspaces  # noqa: E402

#: Set-up samples taken by workers that run no command, per timed run.
SETUP_ALONE = 7
#: A command that has not ended by then is killed and counted as failed.
COMMAND_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def load_config() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text(encoding="utf-8"))


def import_splitoct():
    """Import the package from the checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "splitoct" / "cli.py").is_file():
        raise BenchError("src/splitoct is missing; run from a source checkout")
    sys.path.insert(0, str(src))
    import splitoct.cli
    import splitoct.verify
    if not Path(splitoct.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"splitoct imported from {splitoct.__file__}")
    return splitoct


def machine_record() -> dict:
    """What the numbers were measured on; read only."""
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
        with open("/proc/loadavg", encoding="utf-8") as fh:
            loadavg = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        loadavg = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": loadavg}


def guard(config: dict, name: str, splitoct) -> int:
    """Projected subspace count of a workload, refused if over budget.

    The count must also be the one stated in the workload's ``why`` in
    BENCHMARK.json, so the file and the code cannot drift apart.
    """
    w = WORKLOADS[name]
    projected = projected_subspaces(w, splitoct)
    budget = splitoct.cli.DEFAULT_MAX_SUBSPACES
    if w.census is not None and projected > budget:
        raise BenchError(f"{name} projects {projected:,} subspaces, over the "
                         f"CLI budget of {budget:,}")
    why = next(x["why"] for x in config["workloads"] if x["name"] == name)
    if projected and f"{projected:,}" not in why:
        raise BenchError(f"the why of {name} in BENCHMARK.json does not "
                         f"state its projected {projected:,} subspaces")
    return projected


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few samples for a percentile"
    q = 100 * (n - 10) // n
    return f"n={n}, p{q}={sorted(values)[n - 11]:.4f}"


class Runner:
    """Starts worker processes one at a time and checks their output."""

    def __init__(self, out_dir: Path, rng: random.Random, fixture):
        self.out_dir = out_dir
        self.rng = rng
        self.fixture = fixture
        self.n = 0

    def worker(self, w, argv, trace_dir=None) -> dict:
        self.n += 1
        stem = self.out_dir / f"w{self.n}"
        spec = {"src": str(ROOT / "src"), "argv": argv,
                "primes": self.rng.sample(w.primes, len(w.primes)),
                "result": f"{stem}.json",
                "trace_dir": str(trace_dir) if trace_dir else None}
        with open(f"{stem}.out", "wb") as out:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                stdin=subprocess.DEVNULL, stdout=out, cwd=ROOT,
                start_new_session=True)
            try:
                proc.wait(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        report = {"rc": f"worker exit {proc.returncode}"}
        if proc.returncode == 0:
            report = json.loads(Path(f"{stem}.json").read_text())
        if argv is not None:
            problems = []
            if report.get("rc") != 0:
                problems.append(f"exit code {report.get('rc')}")
            else:
                text = Path(f"{stem}.out").read_text(encoding="utf-8")
                problems = check_output(w, text, self.fixture)
            report["problems"] = problems
        for suffix in (".out", ".json"):
            Path(f"{stem}{suffix}").unlink(missing_ok=True)
        return report


def timed_run(runner: Runner, w, seconds: float, rng: random.Random):
    """Commands until ``seconds`` are spent, set-ups alone around them."""
    before = rng.randint(0, SETUP_ALONE)
    setups = [runner.worker(w, None) for _ in range(before)]
    commands = []
    start = time.perf_counter()
    while True:
        commands.append(runner.worker(w, list(w.argv)))
        walls = [c["wall_s"] for c in commands if "wall_s" in c]
        elapsed = time.perf_counter() - start
        if not walls or elapsed + statistics.median(walls) > seconds:
            break
    setups += [runner.worker(w, None) for _ in range(SETUP_ALONE - before)]
    return setups, commands


def end_to_end(setups, commands) -> tuple[dict, dict]:
    """Medians of the timed commands (failed ones only if all failed) and
    of every set-up; also the sample count behind each metric."""
    good = [c for c in commands if not c["problems"]] or commands
    good = [c for c in good if "wall_s" in c]
    setup = [s["setup_s"] for s in setups + commands if "setup_s" in s]

    def med(values):
        return statistics.median(values) if values else 0.0

    return {
        "wall_s": (med([c["wall_s"] for c in good]), "s"),
        "cpu_s": (med([c["cpu_s"] for c in good]), "s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (med([max(c["rss_self_mb"], c["rss_children_mb"])
                             for c in good]), "MB"),
    }, {"wall_s": percentile_note([c["wall_s"] for c in good]),
        "cpu_s": f"n={len(good)}", "peak_rss_mb": f"n={len(good)}",
        "setup_s": f"n={len(setup)}"}


def traced_run(runner: Runner, w, rng: random.Random, spans_path: Path):
    """One plain and one traced command, in seed order; per-layer metrics."""
    trace_dir = runner.out_dir / "trace"
    trace_dir.mkdir()
    order = [False, True]
    rng.shuffle(order)
    done = {traced: runner.worker(w, list(w.argv), trace_dir if traced else None)
            for traced in order}
    files = sorted(trace_dir.glob("spans-*.jsonl"))
    all_spans, counts = spans.read_spans(files) if files else ([], {})
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in all_spans:
            fh.write(json.dumps(s) + "\n")
    shutil.rmtree(trace_dir)
    metrics = spans.layer_metrics(all_spans, counts,
                                  done[True].get("wall_s", 0.0),
                                  done[False].get("wall_s", 0.0))
    return [done[False], done[True]], metrics, span_table(all_spans)


def span_table(all_spans: list[dict]) -> list[str]:
    """Calls, busy time and self time per span name, for the report."""
    selfs = spans.self_times(all_spans)
    rows: dict[str, list] = {}
    for s in all_spans:
        if s["cmd"] != "cmd":
            continue
        row = rows.setdefault(s["name"], [0, 0.0, 0.0, set()])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += selfs[s["id"]]
        row[3].add(s["pid"])
    lines = [f"  {'span':34} {'calls':>8} {'busy_s':>9} {'self_s':>9} procs"]
    for name, (n, busy, own, pids) in sorted(rows.items()):
        lines.append(f"  {name:34} {n:8d} {busy:9.3f} {own:9.3f} {len(pids)}")
    return lines


def run_one(name, projected, seed, seconds, trace, out_root, splitoct) -> dict:
    w = WORKLOADS[name]
    rng = random.Random(f"{seed}:{name}")
    out_dir = out_root / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = Runner(out_dir, rng, splitoct.verify.LATTICE_FIXTURE_EDGES)
    print(f"workload {name}: splitoct {' '.join(w.argv)}")
    print(f"  projected subspaces {projected:,} (CLI budget "
          f"{splitoct.cli.DEFAULT_MAX_SUBSPACES:,})")
    if trace:
        spans_path = out_root / f"{name}-seed{seed}-spans.jsonl"
        commands, metrics, table = traced_run(runner, w, rng, spans_path)
        notes = {}
        print("\n".join(table))
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    else:
        setups, commands = timed_run(runner, w, seconds, rng)
        metrics, notes = end_to_end(setups, commands)
    failed = sum(1 for c in commands if c["problems"])
    for c in commands:
        for problem in c["problems"]:
            print(f"  FAILED: {problem}")
    for metric, (value, unit) in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:48} {value:14.6f} {unit}{note}")
    print(f"  failed_frac {failed}/{len(commands)} = "
          f"{failed / len(commands):.3f}")
    shutil.rmtree(out_dir)
    return {"correct": failed == 0, "attempted": len(commands),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "commands": commands}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload != "all" else \
        random.Random(args.seed).sample(list(WORKLOADS), len(WORKLOADS))
    try:
        config = load_config()
        splitoct = import_splitoct()
        projected = {name: guard(config, name, splitoct) for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    machine = machine_record()
    print("machine: " + json.dumps(machine))
    results = {name: run_one(name, projected[name], args.seed, args.seconds,
                             bool(args.trace), out_root, splitoct)
               for name in names}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_root / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "args": vars(args),
                   "results": results}, fh, indent=1)
    for r in results.values():
        del r["commands"]
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {n: r["metrics"] for n, r in results.items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
