"""Benchmark of the xstates batch workloads.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each workload (see ``workloads.py``) runs in
fresh single-threaded interpreters (``child.py``), each a closed loop of one
caller. The metric names and units come from ``BENCHMARK.json``.

``--trace 0`` runs ``CHILDREN`` interpreters one after another, splitting
``--seconds`` between them, and reports the end-to-end metrics:

* ``setup_s``: from starting the interpreter to its first timed call, which
  covers importing ``xstates``, writing the input files and one small
  warm-up call; median over the interpreters.
* ``items_per_s``: items per second of one call (states for ``campaign`` and
  ``corpus``, integration steps for ``dynamics``); median over every timed
  call of every interpreter.
* ``peak_rss_mb``: the interpreters' ``ru_maxrss``, median.

Both timings are scaled to a reference host speed. On a shared 2-vCPU
2 GHz Xeon virtual machine, other tenants swing the speed by up to a factor
of two within seconds: over ten runs of 20 s, the interquartile range of the
unscaled run medians was 18-38% of their median, against 3-5% scaled. Each
child times a fixed probe (``child.speed_probe``) after set-up and between
calls, and each timing is scaled by the probe time around it over
``REFERENCE_PROBE_S``, the probe time when the host is not slowed. The
unscaled medians are printed in the detail lines.

``--trace 1`` runs one interpreter that makes each call once with spans and
once without, and reports the per-layer metrics, the tracing overhead
(traced minus untraced time of the same calls) and how many functions named
in ``BENCHMARK.json`` the package no longer has.

Every call's outputs are checked, and every run also checks repeat 0 at the
reference seeds against ``references.json``. A failed call or check counts
in ``failed``. Details and the environment go to stdout before the last
line, which is the JSON result; files go to ``.perfbench/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "corpus", "dynamics")
CHILDREN = 4
# one call with and one without spans, in seconds on a 2 GHz Xeon; sets how
# many calls a traced run replays so that it fills about --seconds
TRACE_PAIR_S = {"campaign": 0.7, "corpus": 1.2, "dynamics": 0.9}
DEADLINE_S = 170  # the whole run, children included
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
REFERENCE_PROBE_S = 0.006  # child.speed_probe on an unslowed 2 GHz Xeon


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(backend: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "kernel_path": backend,
        **THREAD_ENV,
    }


def run_child(spec: dict, deadline: float) -> dict:
    """Start one interpreter, wait for it, and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_ENV)
    spec = dict(spec, t_spawn=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list) -> str:
    """Median, quartiles and count, for the detail lines."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median={statistics.median(values):.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def timed_run(args, work: Path, deadline: float):
    results = []
    for k in range(CHILDREN):
        results.append(run_child({
            "workload": args.workload, "seed": args.seed, "work": str(work / f"child{k}"),
            "mode": "timed", "budget_s": args.seconds / CHILDREN,
            "references": k == CHILDREN - 1,
        }, deadline))
    calls = [c for r in results for c in zip(r["items"], r["seconds"], r["probes"]) if c[0]]
    if not calls:
        raise RuntimeError("no timed call completed")
    seconds = sorted(s for _, s, _ in calls)
    samples = {
        "setup_s": [r["setup_s"] * REFERENCE_PROBE_S / r["setup_probe_s"] for r in results],
        "items_per_s": [n / s * p / REFERENCE_PROBE_S for n, s, p in calls],
        "peak_rss_mb": [r["rss_mb"] for r in results],
        "unscaled_setup_s": [r["setup_s"] for r in results],
        "unscaled_items_per_s": [n / s for n, s, _ in calls],
    }
    for name, values in samples.items():
        print(f"{args.workload} {name} {spread(values)}")
    # the slowest call with at least ten calls beyond it
    tail = max(0.5, 1.0 - 10.0 / len(seconds))
    print(f"{args.workload} call_s median={statistics.median(seconds):.6g} "
          f"p{100 * tail:.0f}={seconds[int(tail * (len(seconds) - 1))]:.6g} n={len(seconds)}")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return results, metrics


def trace_run(args, work: Path, deadline: float, per_layer: list):
    repeats = max(2, round(args.seconds / TRACE_PAIR_S[args.workload]))
    result = run_child({
        "workload": args.workload, "seed": args.seed, "work": str(work / "trace"),
        "mode": "trace", "repeats": repeats, "references": True,
    }, deadline)
    layers = result["layers"]
    present = set(result["present"])
    named = {m["name"].rsplit(".", 1)[0] for m in per_layer if m["name"].count(".") == 2}
    absent = sorted(named - present)
    overhead = result["traced_s"] - result["plain_s"]
    print(f"{args.workload} trace repeats={repeats} untraced_s={result['plain_s']:.6g} "
          f"traced_s={result['traced_s']:.6g} overhead_s={overhead:.6g}")
    if absent:
        print(f"{args.workload} absent functions: {', '.join(absent)}")
    metrics = {"trace.overhead_s": overhead, "trace.absent": len(absent),
               "fileio.bytes_written": result["bytes_written"]}
    for metric in per_layer:
        name = metric["name"]
        if name not in metrics:
            # a function that is absent or never called on this workload did no work
            metrics[name] = layers.get(name, 0)
    return [result], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "xstates" / "__init__.py").is_file():
        print(f"perfbench: no xstates package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            results, values = trace_run(args, work, deadline, spec["per_layer"])
        else:
            results, values = timed_run(args, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = environment(results[0]["backend"])
    print("env " + json.dumps(env))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for problem in [p for r in results for p in r["problems"]][:5]:
        print(f"{args.workload} failure: {problem}")
    print(f"{args.workload} fail_frac={failed / attempted:.6g} ({failed} of {attempted})")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "children": results, "metrics": metrics}
    (work / "run.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
