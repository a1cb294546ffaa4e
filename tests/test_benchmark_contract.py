"""The benchmark's output contract: each workload in ``perfbench/`` checks
its reference calls (repeat 0 at seeds 1 and 2) against
``perfbench/references.json``, and none of those checks may fail. This
catches a dropped manifest key or a changed answer before the benchmark
runs."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["campaign", "corpus", "dynamics"])
def test_reference_calls_pass_their_checks(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child

    ledger = child.Ledger()
    child.reference_checks({"workload": workload, "work": str(tmp_path)}, ledger)
    assert ledger.attempted == len(child.REFERENCE_SEEDS)
    assert ledger.failed == 0, ledger.problems
