"""Command-line interface: subcommands, exit codes, configuration."""

import hashlib
import importlib
import json
import os
import pathlib
import re
import shutil
import subprocess

import pytest

from splitoct import census, lattice, subspace, verify
from splitoct.algebra import algebra
from splitoct.classify import LABELS, OrbitLabel
from splitoct.cli import main
from splitoct.verify import CheckResult, SuiteResult

DATA = pathlib.Path(__file__).parent / "data"

ENV_VARS = ("OCT_FIELD", "OCT_THREADS", "OCT_MAX_SUBSPACES")


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)


def test_lattice_dot_matches_golden(capsys):
    assert main(["lattice", "--field", "2", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "lattice_f2.dot").read_text()


def test_lattice_json(capsys):
    assert main(["lattice", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert len(parsed["nodes"]) == 21
    assert len(parsed["edges"]) == 40


def test_classify_prints_label(capsys):
    rc = main(["classify", "--basis", "[[0,1,0,0,0,0,0,0]]"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "Fn"
    rc = main(["classify", "--field", "3",
               "--basis", "[[1,0,0,1,0,0,0,0],[1,0,0,2,0,0,0,0]]"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "S"


def test_classify_rejects_open_space(capsys):
    rc = main(["classify", "--basis",
               "[[0,1,0,0,0,0,0,0],[0,0,1,0,0,0,0,0]]"])
    assert rc == 2
    assert "not closed" in capsys.readouterr().err


@pytest.mark.parametrize("basis", ["not json", "[[1,2,3]]", "[]", "[1,2]",
                                   "[[1.7,0,0,0,0,0,0,0]]",
                                   "[[true,false,0,1,0,0,0,0]]"])
def test_classify_rejects_bad_basis(basis, capsys):
    assert main(["classify", "--basis", basis]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_enumerate_to_file(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    rc = main(["enumerate", "--dims", "5,6,8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 127
    label_counts = {}
    for line in lines:
        d = json.loads(line)
        label_counts[d["label"]] = label_counts.get(d["label"], 0) + 1
    assert label_counts == {"nO+On": 63, "Qperp": 63, "O": 1}


def test_enumerate_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "records.jsonl"
    assert main(["enumerate", "--dims", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.fixture
def scans(monkeypatch):
    """Calls of the census's enumerator, which is replaced by one that
    finds nothing."""
    calls = []
    monkeypatch.setattr(census, "closed_subspaces",
                        lambda *a: calls.append(a) or iter(()))
    return calls


def test_enumerate_checks_out_path_before_scanning(tmp_path, scans, capsys):
    out = tmp_path / "missing" / "records.jsonl"
    assert main(["enumerate", "--field", "3", "--dims", "1,2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert scans == []


def test_enumerate_budget_failure_keeps_existing_out(tmp_path, scans, capsys):
    out = tmp_path / "records.jsonl"
    out.write_bytes(b"earlier output\n")
    assert main(["enumerate", "--field", "3", "--max-subspaces", "1000",
                 "--out", str(out)]) == 2
    assert "resource limit" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier output\n"
    assert scans == []


def test_full_f3_census_needs_a_larger_budget(scans, capsys):
    # Σ_e [7, e]_3 over e = 0..7 quotient bases, over the default 2,000,000
    assert main(["enumerate", "--field", "3"]) == 2
    err = capsys.readouterr().err
    assert "2,052,656" in err and "--max-subspaces" in err
    assert scans == []


@pytest.mark.parametrize("command", ["enumerate", "orbits"])
@pytest.mark.parametrize("flag,env", [("0", None), ("-3", None), (None, "0")])
def test_threads_below_one_is_usage_error(command, flag, env, scans, monkeypatch,
                                          capsys):
    if env is not None:
        monkeypatch.setenv("OCT_THREADS", env)
    argv = [command, "--dims", "8"] + (["--threads", flag] if flag else [])
    assert main(argv) == 2
    assert "threads" in capsys.readouterr().err
    assert scans == []


def test_enumerate_stdout_deterministic(capsys):
    assert main(["enumerate", "--dims", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["enumerate", "--dims", "8"]) == 0
    assert capsys.readouterr().out == first


def test_enumerate_budget_exit_code(capsys):
    rc = main(["enumerate", "--field", "3", "--max-subspaces", "1000"])
    assert rc == 2
    assert "resource limit" in capsys.readouterr().err


def test_enumerate_bad_dims(capsys):
    assert main(["enumerate", "--dims", "9"]) == 2
    assert main(["enumerate", "--dims", "a,b"]) == 2
    capsys.readouterr()


def test_bad_field_rejected(capsys):
    assert main(["lattice", "--field", "4"]) == 2
    assert "error:" in capsys.readouterr().err


IDENTITIES_F2 = """\
suite identities (field 2): PASS — 84083456 checks
  [ok] norm multiplicativity N(xy)=N(x)N(y): 65536 instances
  [ok] involution anti-automorphism k(xy)=k(y)k(x): 65536 instances
  [ok] involution is involutory k(k(x))=x: 256 instances
  [ok] norm recovery x*k(x)=N(x)*1: 256 instances
  [ok] polar recovery x*k(y)+y*k(x)=(x|y)*1: 65536 instances
  [ok] adjoint (cx|y)=(x|k(c)y): 16777216 instances
  [ok] adjoint (xc|y)=(x|y k(c)): 16777216 instances
  [ok] Moufang (ax)(ya)=a((xy)a): 16777216 instances
  [ok] Moufang a(x(ay))=((ax)a)y: 16777216 instances
  [ok] Moufang x(a(ya))=((xa)y)a: 16777216 instances
  [ok] degree-2 identity x^2-tr(x)x+N(x)=0: 256 instances
"""


def test_verify_identities_pass(capsys):
    rc = main(["verify", "--suite", "identities", "--field", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.sub(r" in \d+\.\ds", "", out) == IDENTITIES_F2


#: sha256 of the report of ``verify --suite identities``, times stripped
IDENTITIES_SHA256 = "c6da877d826a1d731dc59bae6efadfc14bd87d8cb178b8a11dc0f029de5e53d8"


def test_verify_identities_all_fields_pinned(capsys):
    # the digest bench/workloads.py checks for the identities workload
    assert main(["verify", "--suite", "identities"]) == 0
    out = re.sub(r" in \d+\.\ds", "", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == IDENTITIES_SHA256


#: sha256 of the report of ``verify --suite NAME``, times stripped
SUITE_SHA256 = {
    "singular": "06a2ddaa513b200e8591d259cbee83852ff0193a8fdbc9fff8503681f57e161f",
    "orbits": "512aa74443a616648ab75fee926477cc8bc98550ebfa1c38448f378633ab8ae2",
    "classification": "e4f222a40bd386864bd3ea5a6c207f660c07abe8b65ef79f7cfed58b0111ba18",
    "all": "3d4f9ada91072ac202dc808b25f1a27f8f86264b54aee38341b957ba814f16d2",
}


@pytest.mark.parametrize("suite", SUITE_SHA256)
def test_verify_suite_stdout_is_pinned(suite, capsys):
    assert main(["verify", "--suite", suite]) == 0
    out = re.sub(r" in \d+\.\ds", "", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_SHA256[suite]


def _stripped_sha256(results) -> str:
    """The digest of the CLI's report of ``results``, times stripped."""
    out = "".join("\n".join(r.lines()) + "\n" for r in results)
    return hashlib.sha256(re.sub(r" in \d+\.\ds", "", out).encode()).hexdigest()


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_suite_pool_changes_no_output(cpus, monkeypatch):
    """In-process (one usable CPU) and in a pool of two forked workers, the
    three identities runs and the five F_2 suites report the pinned lines."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    assert _stripped_sha256(verify.run_suite("identities")) == IDENTITIES_SHA256
    results = verify.run_suite("all", 2)
    assert _stripped_sha256(results) == (
        "81cf54f71406c1a03f8287cad4267259381abf8a986ab5b9f8b116197587e247")
    pinned = [r for r in results if r.suite in SUITE_SHA256]
    assert [r.suite for r in pinned] == ["singular", "classification", "orbits"]
    for res in pinned:
        assert _stripped_sha256([res]) == SUITE_SHA256[res.suite]


@pytest.mark.parametrize("column, check", [
    ("assoc", "associativity census"),
    ("comm", "commutativity census"),
    ("label", "every closed subspace receives a label"),
], ids=["assoc", "comm", "label"])
def test_classification_suite_fails_on_a_flipped_census_column(
        column, check, columns2, monkeypatch, capsys):
    """The census checks of the classification suite compare the census
    columns: one flipped entry of a plane fails its check, exit 1, and the
    counterexample names that plane's rows."""
    planes, i = columns2[2], 100
    flipped = getattr(planes, column).copy()
    flipped[i] = LABELS.index(OrbitLabel.F) if column == "label" else 1 - flipped[i]
    columns = columns2[:2] + [planes._replace(**{column: flipped})] + columns2[3:]
    monkeypatch.setattr(verify, "census_columns", lambda A: columns)
    assert main(["verify", "--suite", "classification"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"FIRST COUNTEREXAMPLE (classification): {check}")
    assert f"rows {tuple(map(tuple, planes.rows[i].tolist()))}" in last


#: the first counterexample of each F_2 suite over the table with
#: STRUCT_Z[1, 2, 0] raised; "orbits+autos" also builds the generators from it
PERTURBED_FIRST = {
    "singular": "aO equals ker of left multiplication by k(a): a=(0, 1, 0, 0, 0, 0, 0, 0)",
    "classification": "suite runs to completion: ClassificationError: closed subspace",
    "orbits": "group closure order 12096 equals brute-forced count 0 equals 12096: "
              "closure 12096, brute 0",
    "orbits+autos": "suite runs to completion: PreconditionFailed: map is not "
                    "multiplicative at basis pair (1,0)",
}


def _perturb(monkeypatch, autos_too: bool) -> None:
    """Point the suites (and with ``autos_too`` the automorphism
    generators) at the F_2 table with STRUCT_Z[1, 2, 0] raised."""
    algebra_mod = importlib.import_module("splitoct.algebra")
    algebra_mod.algebra(2)                        # the canonical table stays cached
    broken = algebra_mod.STRUCT_Z.copy()
    broken[1, 2, 0] += 1
    monkeypatch.setattr(algebra_mod, "STRUCT_Z", broken)
    ctx = algebra_mod.SplitOctonions(2)
    monkeypatch.setattr("splitoct.verify.algebra", lambda q: ctx)
    if autos_too:
        monkeypatch.setattr("splitoct.autos.algebra", lambda q: ctx)


@pytest.mark.parametrize("case", sorted(PERTURBED_FIRST))
def test_verify_fails_on_a_perturbed_table(case, monkeypatch, capsys):
    """A broken table is a verification failure (exit 1 and the first
    counterexample), not a usage error or a traceback."""
    suite, _, also = case.partition("+")
    _perturb(monkeypatch, bool(also))
    assert main(["verify", "--suite", suite]) == 1
    out = capsys.readouterr().out
    assert f"FIRST COUNTEREXAMPLE ({suite}): {PERTURBED_FIRST[case]}" in out


def test_a_suite_that_raises_keeps_the_checks_it_made(monkeypatch, capsys):
    """Over the broken table the orbits suite makes its group-order check,
    then stops on a ClassificationError: the report lists both."""
    _perturb(monkeypatch, False)
    assert main(["verify", "--suite", "orbits"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if "[" in line] == [
        "  [FAIL] group closure order 12096 equals brute-forced count 0 equals 12096",
        "  [FAIL] suite runs to completion"]
    assert lines[-2].startswith("         first counterexample: ClassificationError: "
                                "closed subspace")


def test_verify_field_restriction(capsys):
    # the exhaustive geometry suite only exists over F_2
    rc = main(["verify", "--suite", "singular", "--field", "3"])
    assert rc == 2
    capsys.readouterr()


@pytest.fixture
def suite_calls(monkeypatch, tmp_path):
    """Replace every suite by a stub that records its (suite, field), with
    two usable CPUs, so that the stubs run in forked workers.  A stub
    appends its call to a log file, which reaches this process from any
    worker; the fixture returns the reader of that log."""
    log = tmp_path / "calls"
    log.touch()

    def stub(suite):
        def run(p):
            with open(log, "a") as fh:
                fh.write(f"{suite} {p}\n")
            return SuiteResult(suite, p)
        return run

    for suite in verify.SUITES:
        monkeypatch.setattr(f"splitoct.verify.verify_{suite}", stub(suite))
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    return lambda: [(s, int(p)) for s, p in map(str.split, log.read_text().splitlines())]


def _heads(out: str) -> list[tuple[str, int]]:
    """(suite, field) of every printed suite head, in print order."""
    return [(s, int(p)) for s, p in re.findall(r"^suite (\w+) \(field (\d+)\)", out, re.M)]


def test_verify_all_at_f2_only(suite_calls, capsys):
    assert main(["verify", "--suite", "all", "--field", "2"]) == 0
    want = [(s, 2) for s in ("identities", "singular", "centralizers",
                             "classification", "orbits")]
    # each stub ran once, in either worker, and the results come back in order
    assert sorted(suite_calls()) == sorted(want)
    assert _heads(capsys.readouterr().out) == want


@pytest.mark.parametrize("argv, env", [
    (["verify", "--suite", "all", "--field", "3"], None),
    (["verify", "--suite", "all", "--field", "4"], None),
    (["verify"], "3"),
])
def test_verify_all_rejects_other_fields(argv, env, suite_calls, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("OCT_FIELD", env)

    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected request constructed a pool")

    monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
    assert main(argv) == 2
    assert suite_calls() == []
    assert capsys.readouterr().err.startswith("error:")


def test_an_error_in_a_worker_reaches_the_caller(suite_calls, monkeypatch, capsys):
    """A ValueError raised by a suite in a forked worker is raised again by
    run_suite as a ValueError, and the CLI turns it into exit 2."""
    parent = os.getpid()

    def broken(p):
        raise ValueError(f"suite broken in process {os.getpid()}")

    monkeypatch.setattr(verify, "verify_singular", broken)
    with pytest.raises(ValueError, match="suite broken in process") as exc:
        verify.run_suite("all", 2)
    assert str(exc.value) != f"suite broken in process {parent}"
    assert main(["verify", "--suite", "all", "--field", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: suite broken in process")


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = SuiteResult(
        suite="identities", field=2,
        checks=[CheckResult(name="demo check", checked=7, counterexample="x=(0,...,0)")],
        elapsed=0.0)
    monkeypatch.setattr("splitoct.verify.run_suite",
                        lambda *a, **k: [failing])
    rc = main(["verify", "--suite", "identities", "--field", "2"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "FIRST COUNTEREXAMPLE" in out
    assert "x=(0,...,0)" in out


def test_orbits_restricted_dims(capsys):
    rc = main(["orbits", "--dims", "5,6"])
    assert rc == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        {"dim": 5, "label": "nO+On", "orbit_count": 1, "orbit_sizes": [63]},
        {"dim": 6, "label": "Qperp", "orbit_count": 1, "orbit_sizes": [63]},
    ]


def _g2_order(p):
    """|G2(p)| = p^6 (p^6 - 1)(p^2 - 1)."""
    return p ** 6 * (p ** 6 - 1) * (p ** 2 - 1)


@pytest.mark.parametrize("p, dims, sizes", [
    (3, "1,2", {(1, "F"): 1, (1, "Fn"): 364, (1, "Fp"): 756,
                (2, "E"): 351, (2, "F+Fn"): 364, (2, "Fn+Fp"): 3276,
                (2, "Fn+Fpbar"): 3276, (2, "Q"): 364, (2, "S"): 378}),
    (5, "1", {(1, "F"): 1, (1, "Fn"): 3906, (1, "Fp"): 15750}),
])
def test_orbits_odd_p_one_orbit_per_label(p, dims, sizes, capsys):
    """Over odd p every label is one G2(p) orbit, and each orbit size
    divides |G2(p)| (orbit-stabilizer)."""
    assert main(["orbits", "--field", str(p), "--dims", dims]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows == [{"dim": d, "label": lab, "orbit_count": 1,
                     "orbit_sizes": [n]} for (d, lab), n in sizes.items()]
    for row in rows:
        for size in row["orbit_sizes"]:
            assert _g2_order(p) % size == 0, row


@pytest.mark.parametrize("argv, sha256", [
    (["enumerate", "--field", "2"],
     "083b940961063dbae47da4ff7bc027f71247c1163e37ddb0fb6604e4c46c9c59"),
    (["enumerate", "--field", "5", "--dims", "1"],
     "150433f4514b9fdd42dc8b6389c44faaf233ca83828d3faa02aa0ed8a34c0f08"),
    (["orbits", "--field", "2"],
     "35183818b824259c26248bdd34789467018d33675224ff2cbe3ef4e2e9c20494"),
    (["orbits", "--field", "3", "--dims", "1,2"],
     "64cc15fd91ba362528a5a6ed58fd357b034025dc9f2a87796490dfab8a58955e"),
    (["lattice", "--field", "5"],
     "0281bef8723f839c34e4e2e622e2fc477f4cc755b2b34ad95bebab9b26cbb6fd"),
], ids=["enumerate-f2", "enumerate-f5-dims-1", "orbits-f2", "orbits-f3-dims-1-2",
        "lattice-f5"])
def test_stdout_is_pinned(argv, sha256, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


class _RecordBuilt(Exception):
    pass


@pytest.mark.parametrize("argv, sha256", [
    (["enumerate", "--field", "3", "--dims", "1,2", "--threads", "2"],
     "41b4f77a87958af740763fe6bd108ce898f60eb778739b399f6dbaa35b32cb7e"),
    (["orbits", "--field", "2"],
     "35183818b824259c26248bdd34789467018d33675224ff2cbe3ef4e2e9c20494"),
    (["verify", "--suite", "orbits"],
     "512aa74443a616648ab75fee926477cc8bc98550ebfa1c38448f378633ab8ae2"),
    (["verify", "--suite", "classification"],
     "e4f222a40bd386864bd3ea5a6c207f660c07abe8b65ef79f7cfed58b0111ba18"),
], ids=["enumerate-f3-dims-1-2", "orbits-f2", "verify-orbits", "verify-classification"])
def test_census_commands_build_no_record_objects(argv, sha256, monkeypatch, capsys):
    """The census commands read the census columns: with the record and
    subspace constructors made to raise, here and in the forked pool
    workers, each still prints its pinned output (suite timings
    stripped)."""
    def refuse(*args, **kwargs):
        raise _RecordBuilt
    # the package exports the function ``classify`` under the module's name
    classify = importlib.import_module("splitoct.classify")
    monkeypatch.setattr(classify, "SubalgebraRecord", refuse)
    monkeypatch.setattr(classify, "Subspace", refuse)
    with pytest.raises(_RecordBuilt):
        census.enumerate_subalgebras(algebra(3), [1])
    assert main(argv) == 0
    out = re.sub(r" in \d+\.\ds", "", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.fixture
def lattice_scans(monkeypatch):
    """Calls of the lattice's enumerator, which is replaced by one that
    finds nothing."""
    calls = []
    monkeypatch.setattr(lattice, "closed_subspaces",
                        lambda *a: calls.append(a) or iter(()))
    return calls


def test_lattice_budget_is_checked_before_any_work(lattice_scans, capsys):
    assert main(["lattice", "--field", "13"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "resource limit" in err and "10,619,207" in err
    assert lattice_scans == []


def test_lattice_budget_one_below_the_projection_fails(lattice_scans, monkeypatch,
                                                     capsys):
    assert main(["lattice", "--field", "3", "--max-subspaces", "3006"]) == 2
    assert "3,007" in capsys.readouterr().err
    monkeypatch.setenv("OCT_MAX_SUBSPACES", "3006")
    assert main(["lattice", "--field", "3"]) == 2
    capsys.readouterr()
    assert lattice_scans == []


def test_lattice_budget_at_the_projection_passes(monkeypatch, capsys):
    monkeypatch.setenv("OCT_MAX_SUBSPACES", "3007")
    assert main(["lattice", "--field", "3"]) == 0
    assert capsys.readouterr().out == (DATA / "lattice_f3.dot").read_text()


def test_lattice_projection_counts_the_quotient_bases(monkeypatch):
    rows = []
    real = subspace.pivot_block

    def counting(*args):
        block = real(*args)
        rows.append(len(block))
        return block

    monkeypatch.setattr(subspace, "pivot_block", counting)
    lattice.build_lattice(3)
    assert sum(rows) == lattice.projected_bases(3) == 3007
    assert lattice.projected_bases(5) == 43575


def test_env_configuration(monkeypatch, capsys):
    monkeypatch.setenv("OCT_FIELD", "3")
    assert main(["lattice"]) == 0
    assert "lattice_f3" in capsys.readouterr().out
    # explicit flag wins over the environment
    assert main(["lattice", "--field", "2"]) == 0
    assert "lattice_f2" in capsys.readouterr().out
    monkeypatch.setenv("OCT_MAX_SUBSPACES", "1000")
    assert main(["enumerate", "--field", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("var", ENV_VARS)
def test_non_integer_environment_value_names_its_variable(var, scans, monkeypatch,
                                                          capsys):
    monkeypatch.setenv(var, "x")
    assert main(["enumerate", "--dims", "8"]) == 2
    assert capsys.readouterr().err == f"error: {var} must be an integer, got 'x'\n"
    assert scans == []


def test_console_script_installed():
    exe = shutil.which("splitoct")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "classify", "--basis", "[[0,1,0,0,0,0,0,0]]"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Fn"
