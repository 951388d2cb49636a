"""What the benchmark harness under ``bench/`` relies on in the package.

``bench/spans.py`` wraps named functions of ``splitoct`` and raises
LookupError on a missing one, and ``bench/workloads.py`` projects each
workload's scan from package attributes.  A rename or deletion in
``src/`` that breaks either fails here, in tier-1.  The check runs in a
subprocess because ``spans.install`` rebinds module attributes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib.util
import sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))
import splitoct
import splitoct.cli
import splitoct.verify
if not Path(splitoct.__file__).resolve().is_relative_to((root / "src").resolve()):
    raise SystemExit(f"splitoct imported from {splitoct.__file__}")


def load(name):
    spec = importlib.util.spec_from_file_location(name, root / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


spans, workloads = load("spans"), load("workloads")
spans.install(spans.Recorder(sys.argv[2]))
for name, w in workloads.WORKLOADS.items():
    print(name, workloads.projected_subspaces(w, splitoct))
"""


def test_bench_installs_and_projects_every_workload(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    projected = dict(line.split() for line in proc.stdout.splitlines())
    assert sorted(projected) == ["census-f3", "identities", "lattice-f5", "orbits-f2"]
    assert all(int(n) >= 0 for n in projected.values())
