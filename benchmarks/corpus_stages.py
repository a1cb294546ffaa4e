"""Per-stage timings of the corpus route, in ms per 1000 states.

    python3 benchmarks/corpus_stages.py --repeats 40
    python3 benchmarks/corpus_stages.py --repeats 40 --baseline /path/to/other/src

Each repeat runs the stages of the ``corpus`` benchmark workload once on the
1000 states of seed 1, in order:

* ``random_xstates``: sampling the states of ``xstates gen``;
* ``gen_write``: writing them as a JSONL corpus, as ``xstates gen`` does;
* ``load_corpus``: reading the corpus back;
* ``report``, ``to_dict``, ``dumps``: the measure report of each state, as
  a dict, as a JSON line;
* ``jsonl_write``: writing the report lines to one file.

``xstates`` is imported from the ``src`` directory of this file's checkout.
``--baseline`` imports a second copy of the package from another source
directory. Each repeat then runs both copies, one after the other in
alternating order, so that the slow and fast spells of a shared host fall
on both alike, and their times in one repeat make a pair. Two untimed
repeats come first.

The last line printed is one JSON object: per copy and stage the median and
quartiles over the repeats, and the sha256 of the corpus and of the report
lines (equal digests mean equal output bytes); with a baseline, per stage
the median over pairs of this checkout's time over the baseline's, and the
number of pairs this checkout won; and the environment. The timings are the
wall time of one single-threaded process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

STAGES = ("random_xstates", "gen_write", "load_corpus", "report", "to_dict", "dumps",
          "jsonl_write")
N, SEED, WARMUP = 1000, 1, 2  # N states per repeat: ms per call are ms per 1000 states


def import_package(src: Path) -> SimpleNamespace:
    """The ``xstates`` package and its ``fileio`` module imported from
    ``src``, independent of any other copy: the modules leave
    ``sys.modules`` afterwards, and their functions keep their own."""
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("xstates")
        fileio = importlib.import_module("xstates.fileio")
    finally:
        sys.path.remove(str(src))
        for name in [m for m in sys.modules if m == "xstates" or m.startswith("xstates.")]:
            del sys.modules[name]
    return SimpleNamespace(xs=package, fileio=fileio, src=str(src), writes_batch=True)


def writes_batch(pkg) -> bool:
    """Whether ``save_corpus`` of ``pkg`` takes a batch; one that takes only a
    sequence of states fails on a batch with TypeError."""
    with tempfile.TemporaryDirectory() as work:
        try:
            pkg.fileio.save_corpus(os.path.join(work, "probe.jsonl"),
                                   pkg.xs.random_xstates(SEED, 0, 1))
        except TypeError:
            return False
    return True


def gen_write(pkg, path: str, batch) -> None:
    """The corpus write of ``xstates gen``: the batch, or its states for a
    copy whose ``save_corpus`` takes only those, as its ``gen`` gave."""
    pkg.fileio.save_corpus(path, batch if pkg.writes_batch else pkg.xs.unstack(batch))


def run_once(pkg, work: str) -> tuple:
    """One pass over the stages: (seconds per stage, corpus bytes, report bytes)."""
    xs, fileio = pkg.xs, pkg.fileio
    corpus, reports = os.path.join(work, "corpus.jsonl"), os.path.join(work, "reports.jsonl")
    clock = time.perf_counter
    t0 = clock()
    batch = xs.random_xstates(SEED, 0, N)
    t1 = clock()
    gen_write(pkg, corpus, batch)
    t2 = clock()
    states = fileio.load_corpus(corpus)
    t3 = clock()
    reps = [xs.report(x) for x in states]
    t4 = clock()
    dicts = [r.to_dict() for r in reps]
    t5 = clock()
    lines = [fileio.dumps(d) for d in dicts]
    t6 = clock()
    fileio.atomic_write(reports, "\n".join(lines) + "\n")
    t7 = clock()
    times = (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6)
    with open(corpus, "rb") as fh_c, open(reports, "rb") as fh_r:
        return times, fh_c.read(), fh_r.read()


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "median": median, "p75": q3}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="source directory of a second xstates to interleave with")
    args = parser.parse_args(argv)
    copies = {"this": import_package(Path(__file__).resolve().parent.parent / "src")}
    if args.baseline is not None:
        copies["baseline"] = import_package(args.baseline.resolve())
        copies["baseline"].writes_batch = writes_batch(copies["baseline"])
    samples = {name: {stage: [] for stage in STAGES} for name in copies}
    digests = {name: set() for name in copies}
    order = list(copies)
    with tempfile.TemporaryDirectory() as work:
        for r in range(WARMUP + args.repeats):
            for name in (order if r % 2 == 0 else order[::-1]):
                times, corpus, reports = run_once(copies[name], work)
                digests[name].add((hashlib.sha256(corpus).hexdigest(),
                                   hashlib.sha256(reports).hexdigest()))
                if r >= WARMUP:
                    for stage, t in zip(STAGES, times):
                        samples[name][stage].append(t * 1000.0)
    runs = {}
    for name, pkg in copies.items():
        if len(digests[name]) != 1:
            raise SystemExit(f"the repeats of {pkg.src} wrote different bytes")
        (corpus_digest, reports_digest), = digests[name]
        totals = [sum(column) for column in zip(*samples[name].values())]
        runs[name] = {
            "src": pkg.src,
            "stages": {stage: quartiles(v) for stage, v in samples[name].items()},
            "total": quartiles(totals),
            "digests": {"corpus": corpus_digest, "reports": reports_digest},
        }
    result = {"unit": "ms per 1000 states", "n": N, "seed": SEED,
              "repeats": args.repeats, "runs": runs}
    if "baseline" in copies:
        paired = {}
        for stage in STAGES + ("total",):
            if stage == "total":
                this, base = ([sum(c) for c in zip(*samples[k].values())] for k in copies)
            else:
                this, base = samples["this"][stage], samples["baseline"][stage]
            ratios = [t / b for t, b in zip(this, base)]
            paired[stage] = {"ratio_median": statistics.median(ratios),
                             "wins": sum(t < b for t, b in zip(this, base))}
        result["paired"] = paired
        result["same_bytes"] = runs["this"]["digests"] == runs["baseline"]["digests"]
    result["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "kernel_path": "numpy",
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
