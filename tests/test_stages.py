"""The per-stage timer ``benchmarks/stages.py`` runs every workload on this
checkout and reports one set of output digests per copy."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

STAGES = Path(__file__).resolve().parents[1] / "benchmarks" / "stages.py"
# the env block's keys when no kernel-selecting variable is set
ENV_KEYS = {"python", "numpy", "machine", "cpu_count", "kernel_path", "simd_baseline",
            "simd_found", "blas", "blas_version"}


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
    assert ENV_KEYS <= set(result["env"])


def test_environment_names_simd_blas_and_kernel_variables(monkeypatch):
    spec = importlib.util.spec_from_file_location("stages", STAGES)
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    for name in stages.KERNEL_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    env = stages.environment()
    assert set(env) == ENV_KEYS
    assert isinstance(env["simd_baseline"], list) and isinstance(env["blas"], str)
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX512F")
    env = stages.environment()
    assert (env["OPENBLAS_CORETYPE"], env["NPY_DISABLE_CPU_FEATURES"]) == ("Haswell", "AVX512F")


def test_campaign_states_option(tmp_path):
    # the campaign benchmark's 256-state call, paired with a second copy
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, str(STAGES), "--workload", "campaign", "--n", "256", "--repeats", "2",
         "--baseline", str(src)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["n"], result["same_bytes"]) == (256, True)
    stats = result["runs"]["this"]["stages"]
    assert stats["sampling"]["median"] > 0 and stats["approx_discord"]["median"] > 0
    proc = subprocess.run(
        [sys.executable, str(STAGES), "--workload", "corpus", "--n", "256", "--repeats", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2 and "--n applies only to --workload campaign" in proc.stderr
