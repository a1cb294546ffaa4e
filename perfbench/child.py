"""One fresh interpreter that runs one workload as a closed loop: a single
caller makes one call after another, with no threads or pools.

    python3 perfbench/child.py '<json spec>'

``run.py`` starts it; the spec names the workload, seed, work directory, the
parent's clock reading at spawn, and the mode:

* ``timed``: warm up with one small call, then repeat timed calls until the
  time budget is spent, checking each call's outputs outside the timed part.
* ``trace``: warm up, then make a fixed number of calls twice each, once
  with spans and once without, alternating which goes first, and compare
  their outputs.

With ``references`` set it finally checks repeat 0 at the reference seeds
against ``references.json``. The last line on stdout is one JSON object.

In timed mode ``speed_probe`` also runs right after set-up and between
calls, so that ``run.py`` can scale every timing to one reference host speed.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MAX_REPEATS = 10_000
REFERENCE_SEEDS = (1, 2)  # the default seed and a second one


_PROBE_MATRIX = np.eye(4, dtype=complex) * 0.5 + 0.1j


def speed_probe() -> float:
    """Seconds taken by a fixed slice of work like the package's own: scalar
    float and complex arithmetic in the interpreter plus small 4x4 arrays."""
    started = time.perf_counter()
    total = 0.0
    for i in range(1, 4000):
        x = (i * 0.001, math.sqrt(i), math.log2(i + 1.0))
        total += max(x[0] * x[1] - x[2], 0.0) + abs(complex(x[0], x[1]))
        if i % 8 == 0:
            m = _PROBE_MATRIX @ _PROBE_MATRIX + 0.5 * (_PROBE_MATRIX - _PROBE_MATRIX.conj().T)
            total += float(np.abs(m).max())
    return time.perf_counter() - started


class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)


def run_op(workload, r: int, ledger: Ledger):
    """One call and its check. Returns (seconds, items completed, outcome);
    a call that raises or exits non-zero completes no items, and a failed
    check leaves no outcome. Only the call itself is timed."""
    ledger.attempted += 1
    started = time.perf_counter()
    try:
        items, code = workload.call(r)
    except Exception as exc:  # a crashing call is a failed operation, not the end of the run
        ledger.fail(f"{workload.name} repeat {r}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - started, 0, None
    seconds = time.perf_counter() - started
    if code != 0:
        ledger.fail(f"{workload.name} repeat {r}: exit code {code}")
        return seconds, 0, None
    try:
        return seconds, items, workload.check(r)
    except Exception as exc:  # malformed output fails the check in whatever way it breaks it
        ledger.fail(f"{workload.name} repeat {r}: check failed: {type(exc).__name__}: {exc}")
        return seconds, items, None


def reference_checks(spec: dict, ledger: Ledger) -> None:
    from workloads import WORKLOADS, compare_summary

    references = json.loads((HERE / "references.json").read_text())[spec["workload"]]
    for seed in REFERENCE_SEEDS:
        workload = WORKLOADS[spec["workload"]](Path(spec["work"]) / f"ref{seed}", seed,
                                               reference=True)
        workload.work.mkdir(exist_ok=True)
        workload.prepare()
        _, _, outcome = run_op(workload, 0, ledger)
        if outcome is None:
            continue
        diffs = compare_summary(outcome.summary, references[str(seed)], f"seed {seed}")
        if diffs:
            ledger.fail("; ".join(diffs[:3]))


def main() -> int:
    spec = json.loads(sys.argv[1])
    import xstates
    from workloads import WORKLOADS

    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[spec["workload"]](work, spec["seed"])
    workload.prepare()
    ledger = Ledger()
    warm_started = time.monotonic()
    warm_call_s, _, _ = run_op(workload, -1, ledger)
    now = time.monotonic()
    # set-up ends at the first timed call; the warm-up's check is not program time
    setup_s = now - spec["t_spawn"] - (now - warm_started - warm_call_s)
    out = {"setup_s": setup_s,
           "backend": xstates.backend() if hasattr(xstates, "backend") else "numpy"}

    if spec["mode"] == "timed":
        probe = out["setup_probe_s"] = speed_probe()
        deadline = time.monotonic() + spec["budget_s"]
        seconds, items, probes = [], [], []
        r = 0
        while r == 0 or (time.monotonic() < deadline and r < MAX_REPEATS):
            s, n, _ = run_op(workload, r, ledger)
            after = speed_probe()
            seconds.append(s)
            items.append(n)
            probes.append(0.5 * (probe + after))
            probe = after
            r += 1
        out.update(seconds=seconds, items=items, probes=probes)
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run_op(workload, -1, ledger)
        tracer.uninstall()
        tracer.reset()
        plain_s = traced_s = 0.0
        bytes_written = 0
        for r in range(spec["repeats"]):
            outcomes = {}
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                s, _, outcomes[traced] = run_op(workload, r, ledger)
                tracer.uninstall()
                if traced:
                    traced_s += s
                else:
                    plain_s += s
            if outcomes[True] is not None and outcomes[False] is not None:
                bytes_written += outcomes[True].bytes_written
                if outcomes[True].digest != outcomes[False].digest:
                    ledger.fail(f"repeat {r}: traced and untraced outputs differ")
        tracer.save(work / "spans.npz")
        out.update(plain_s=plain_s, traced_s=traced_s, bytes_written=bytes_written,
                   layers=tracer.stats(), present=tracer.names)

    if spec["references"]:
        reference_checks(spec, ledger)
    out.update(attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
