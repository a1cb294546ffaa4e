"""The benchmark's output contract: each workload in ``perfbench/`` checks
its reference calls (repeat 0 at seeds 1 and 2) against
``perfbench/references.json``, and none of those checks may fail. This
catches a dropped manifest key or a changed answer before the benchmark
runs. A call traced by ``perfbench/tracer.py`` must pass its checks too and
write the bytes of an untraced call, so a result field the tracer reads
cannot be dropped unseen."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ["campaign", "corpus", "dynamics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_calls_pass_their_checks(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child

    ledger = child.Ledger()
    child.reference_checks({"workload": workload, "work": str(tmp_path)}, ledger)
    assert ledger.attempted == len(child.REFERENCE_SEEDS)
    assert ledger.failed == 0, ledger.problems


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_equals_untraced_call(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import workloads
    from tracer import Tracer

    work = workloads.WORKLOADS[workload](tmp_path, 1)
    work.prepare()
    ledger = child.Ledger()
    tracer = Tracer()
    tracer.install()
    try:
        _, _, traced = child.run_op(work, 0, ledger)
    finally:
        tracer.uninstall()
    _, _, plain = child.run_op(work, 0, ledger)
    assert ledger.failed == 0, ledger.problems
    assert traced.digest == plain.digest
    if workload == "campaign":
        assert tracer.stats()["oracle.discord_oracle.refine_iters"] > 0
