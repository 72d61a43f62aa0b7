"""The benchmark's worker still runs against the current API.

perfbench/worker.py calls stageq directly (its traced mode rebuilds the
audit loop from public calls), so an API change in src/ can break the
benchmark without failing any other test.  Each case runs one traced
repetition of a workload in a fresh interpreter, about 1.3 s each, and
checks its output digests against the ones recorded for seed 0.  Nothing
is written under perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_worker_reproduces_recorded_digests(name, tmp_path):
    recorded = json.loads((BENCH / "digests.json").read_text())["digests"][name]["0"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), name, "0",
                           "trace", str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["digests"] == recorded
