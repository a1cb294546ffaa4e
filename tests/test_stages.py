"""The per-stage timer ``benchmarks/stages.py`` runs every workload on this
checkout and reports one set of output digests per copy."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

STAGES = Path(__file__).resolve().parents[1] / "benchmarks" / "stages.py"


@pytest.mark.parametrize("workload", ["campaign", "corpus", "dynamics"])
def test_every_workload_runs(workload):
    # in a subprocess: the harness drops the xstates modules it imported
    proc = subprocess.run(
        [sys.executable, str(STAGES), "--workload", workload, "--repeats", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["workload"], result["repeats"]) == (workload, 2)
    (run,) = result["runs"].values()
    assert run["digests"] and all(len(d) == 64 for d in run["digests"].values())
    assert all(q["p25"] <= q["median"] <= q["p75"] for q in run["stages"].values())
    if workload == "campaign":
        assert run["calls"]["state_entropies"] > 0
