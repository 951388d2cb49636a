"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import (IDENTITY_CHECKS, WORKLOADS, Workload,  # noqa: E402
                       check_output, strip_timings)

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN_DOT = ROOT / "tests" / "data" / "lattice_f2.dot"


def _lattice_f2(digest: str) -> Workload:
    text = GOLDEN_DOT.read_text()
    return Workload("lattice-f2", ("lattice", "--field", "2"), (2,), None,
                    digest, text.count("\n"))


def _fixture():
    import splitoct.verify
    return splitoct.verify.LATTICE_FIXTURE_EDGES


# -- output checks ----------------------------------------------------------

def test_golden_output_passes_and_corrupted_line_fails():
    text = GOLDEN_DOT.read_text()
    w = _lattice_f2(hashlib.sha256(text.encode()).hexdigest())
    assert check_output(w, text, _fixture()) == []
    lines = text.splitlines(keepends=True)
    lines[5] = lines[5].replace("dim", "dlm", 1)
    assert check_output(w, "".join(lines), _fixture())
    edge = next(i for i, s in enumerate(lines) if "->" in s)
    dropped = lines[:edge] + lines[edge + 1:]
    problems = check_output(w, "".join(dropped), _fixture())
    assert any("edges" in p for p in problems)


def test_mismatching_command_counts_as_failed(tmp_path):
    """A command whose output differs from the recorded digest fails."""
    fixture = _fixture()
    good = _lattice_f2(hashlib.sha256(GOLDEN_DOT.read_bytes()).hexdigest())
    bad = _lattice_f2("0" * 64)
    runner = run.Runner(tmp_path, random.Random(0), fixture)
    assert runner.worker(good, list(good.argv))["problems"] == []
    report = runner.worker(bad, list(bad.argv))
    assert report["problems"] and "sha256" in report["problems"][0]
    assert list(tmp_path.iterdir()) == []


def test_identities_check_ignores_timings_only():
    heads = [f"suite identities (field {p}): PASS — {n} checks in 1.{p}s"
             for p, n in IDENTITY_CHECKS.items()]
    text = "\n".join(heads) + "\n"
    assert "in 1." not in strip_timings(text)
    assert strip_timings(text) == strip_timings(text.replace("1.2s", "9.9s"))
    w = WORKLOADS["identities"]
    wrong = text.replace("1100000", "1099999", 1)
    assert any("verdicts" in p for p in check_output(w, wrong, ()))


# -- metric names -----------------------------------------------------------

def test_end_to_end_names_match_benchmark_json():
    cmd = {"wall_s": 1.0, "cpu_s": 1.0, "rss_self_mb": 1.0,
           "rss_children_mb": 0.0, "setup_s": 0.1, "problems": []}
    metrics, _ = run.end_to_end([{"setup_s": 0.1}], [cmd])
    declared = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: u for k, (_, u) in metrics.items()} == declared


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    produced = spans.layer_metrics([], {}, 1.0, 1.0)
    assert {k: u for k, (_, u) in produced.items()} == declared


def test_whys_state_projected_counts_within_budget():
    import splitoct.cli
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        run.guard(CONFIG, name, splitoct)
    tiny = types.SimpleNamespace(
        cli=types.SimpleNamespace(DEFAULT_MAX_SUBSPACES=1000),
        subspace=splitoct.subspace, lattice=splitoct.lattice)
    with pytest.raises(run.BenchError, match="over the CLI budget"):
        run.guard(CONFIG, "census-f3", tiny)


def test_percentile_needs_ten_samples_above():
    assert "too few" in run.percentile_note([1.0] * 10)
    assert run.percentile_note([float(i) for i in range(20)]) == "n=20, p50=9.0000"


# -- spans ------------------------------------------------------------------

def _toy(recorder):
    def leaf(t):
        time.sleep(t)
        return t

    leaf = recorder.spanned("toy.leaf", leaf)

    def middle():
        time.sleep(0.01)
        return leaf(0.02) + leaf(0.01)

    middle = recorder.spanned("toy.middle", middle)

    def root():
        time.sleep(0.005)
        return middle() + leaf(0.005)

    return recorder.spanned("cli.main", root)


def test_toy_spans_nest_and_self_times_sum(tmp_path):
    recorder = spans.Recorder(tmp_path)
    recorder.command = "cmd"
    _toy(recorder)()
    by_id = {s["id"]: s for s in recorder.spans}
    (root,) = [s for s in recorder.spans if s["parent"] is None]
    assert root["name"] == "cli.main"
    for s in recorder.spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    selfs = spans.self_times(recorder.spans)
    for s in recorder.spans:
        kids = [c for c in recorder.spans if c["parent"] == s["id"]]
        total = selfs[s["id"]] + sum(c["end"] - c["start"] for c in kids)
        assert total == pytest.approx(s["end"] - s["start"], abs=1e-9)
    assert sum(selfs.values()) == pytest.approx(root["end"] - root["start"])
    assert selfs[root["id"]] >= 0.004


def test_forked_child_spills_spans_under_the_open_parent(tmp_path):
    recorder = spans.Recorder(tmp_path)
    recorder.command = "cmd"
    leaf = recorder.spanned("toy.leaf", time.sleep)
    counted = recorder.counted("toy.count", abs, timed=False)

    def parent():
        counted(-1)
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=lambda: (counted(-2), leaf(0.001)))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0

    recorder.spanned("cli.main", parent)()
    recorder.write(tmp_path / "spans-main.jsonl")
    all_spans, counts = spans.read_spans(sorted(tmp_path.glob("spans-*.jsonl")))
    (child,) = [s for s in all_spans if s["name"] == "toy.leaf"]
    (root,) = [s for s in all_spans if s["name"] == "cli.main"]
    assert child["parent"] == root["id"] and child["pid"] != root["pid"]
    assert counts["toy.count"][0] == 2
    # A child in another process runs alongside, so it is not subtracted.
    assert spans.self_times(all_spans)[root["id"]] == pytest.approx(
        root["end"] - root["start"])


def test_install_reaches_every_namespace(tmp_path):
    import splitoct.cli  # noqa: F401  (imports every module install wraps)
    names = [m for m in sys.modules if m == "splitoct" or m.startswith("splitoct.")]
    saved = {m: dict(vars(sys.modules[m])) for m in names}
    cls = sys.modules["splitoct.algebra"].SplitOctonions
    mul = cls.mul
    try:
        spans.install(spans.Recorder(tmp_path))
        mods = {m.rpartition(".")[2]: sys.modules[m] for m in names}
        for mod, name in [("census", "record_for"), ("cli", "enumerate_subalgebras"),
                          ("lattice", "classify"), ("census", "closed_block_mask"),
                          ("subspace", "span"), ("classify", "span")]:
            assert hasattr(getattr(mods[mod], name), "__wrapped__"), (mod, name)
        assert cls.mul is not mul
    finally:
        cls.mul = mul
        for m, d in saved.items():
            vars(sys.modules[m]).update(d)


# -- the benchmark's contract ------------------------------------------------

def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "census-f3", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_run_prints_declared_metrics():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "census-f3", "--seed", "7", "--seconds", "1",
                           "--trace", "0"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
    assert all(m["value"] > 0 for m in final["metrics"].values())
