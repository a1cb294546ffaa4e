"""Per-stage timings of a benchmark workload's route, paired against a
second copy of the package.

    python3 benchmarks/stages.py --workload corpus --repeats 40
    python3 benchmarks/stages.py --workload dynamics --repeats 40 --baseline /path/to/other/src
    python3 benchmarks/stages.py --workload campaign --n 256 --repeats 40

``--repeats`` must be at least 2, since the quartiles need two values.

``--workload campaign`` runs ``approx_error_campaign(n, seed=1, grid=64)``,
the ``validate-approx --n`` campaign, once per repeat, in ms per 1000
states. ``--n`` sets the states, 10000 by default; 256 is the call of the
``campaign`` benchmark workload. The stages are:

* ``sampling``: ``random_xstates``;
* ``scan``: the conditional-entropy evaluations on the grid's cached
  angles, the scan of every state (in blocks, since ``SCAN_BLOCK``);
* ``keeps_endpoint``: the endpoint test that decides which states are
  rescanned;
* ``rescans``: the evaluations on computed angles, the rescans of those
  states;
* ``state_entropies``: ``_state_entropies``, whose calls are counted under
  ``calls``;
* ``approx_discord``: the approximate discord from the oracle's entropies
  (``_approx``; in a checkout from before they were shared,
  ``approx_discord`` outside its state entropies);
* ``oracle``: the time of ``discord_oracle`` outside its other stages: the
  minimisation's own glue and the correlations;
* ``stats``: the time of ``approx_error_campaign`` outside its other
  stages: the errors and their statistics.

``--workload corpus`` runs the stages of the ``corpus`` benchmark workload
once per repeat on the 1000 states of seed 1, in ms per 1000 states:

* ``random_xstates``: sampling the states of ``xstates gen``;
* ``gen_write``: writing them as a JSONL corpus, as ``xstates gen`` does;
* ``load_corpus``: reading the corpus back;
* ``report``, ``to_dict``, ``dumps``: the measure report of each state, as
  a dict, as a JSON line;
* ``jsonl_write``: writing the report lines to one file.

``--workload dynamics`` runs ``xstates evolve`` through ``cli.main`` once per
repeat on each of the ``dynamics`` workload's three kinds of config (the
README's Bell state under ZI dephasing, which never dies, and two damped
Werner states, which die), in us per evolve run. The stages are:

* ``config_load``: ``fileio.load_dynamics_config``;
* ``superoperator_verdict``: the Liouvillian, its leak ratio and the
  preservation verdict;
* ``x_block_expm``: the generator G and the propagators ``expm`` that
  ``evolve`` builds;
* ``sample_loop``: the time of ``evolve`` outside its other stages, which
  is its sample loop and the glue around it;
* ``checked_samples``: ``_checked_samples``;
* ``measures``: the recorded measures on the samples;
* ``esd_time``: the sudden-death scan and the search for the crossing;
* ``csv``: ``trajectory_to_csv``;
* ``writes``: ``atomic_write`` of the CSV and the manifest;
* ``cli``: the time of ``cli.main`` outside its other stages: argument
  parsing and the manifest.

For ``campaign`` and ``dynamics`` the package's functions are wrapped by
timers, and a call is timed as its own stage only when made from outside
every stage or from a container stage (``stats``, ``oracle`` and
``approx_discord``; ``cli`` and ``sample_loop``); a nested call counts in
the stage that made it. A wrapped function is replaced by name in the
module that defines it. The timers add about a microsecond per wrapped
call, to both copies alike.

``xstates`` is imported from the ``src`` directory of this file's checkout.
``--baseline`` imports a second copy of the package from another source
directory. Each repeat then runs both copies, one after the other in
alternating order, so that the slow and fast spells of a shared host fall
on both alike, and their times in one repeat make a pair. Two untimed
repeats come first.

The last line printed is one JSON object: per copy and stage the median and
quartiles over the repeats, the sha256 of the output files (equal
digests mean equal output bytes; a manifest's ``duration_s`` and the
run's directory are blanked) and any call counts of one repeat;
with a baseline, per stage the median over pairs of this checkout's time
over the baseline's (null if the baseline's stage never took any time), and
the number of pairs this checkout won; and the
environment, numpy's SIMD targets and BLAS included (see ``environment``).
The timings are the wall time of one single-threaded process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

WARMUP = 2
_DURATION = re.compile(rb'"duration_s": [^,}]+')


def import_package(src: Path) -> SimpleNamespace:
    """The ``xstates`` package and its modules imported from ``src``,
    independent of any other copy: the modules leave ``sys.modules``
    afterwards, and their functions keep their own."""
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(f"xstates.{name}")
                   for name in ("cli", "dynamics", "fileio", "measures", "oracle")}
        package = importlib.import_module("xstates")
    finally:
        sys.path.remove(str(src))
        for name in [m for m in sys.modules if m == "xstates" or m.startswith("xstates.")]:
            del sys.modules[name]
    return SimpleNamespace(xs=package, src=str(src), **modules)


class Corpus:
    """The stages of the ``corpus`` workload on N states of one seed."""

    STAGES = ("random_xstates", "gen_write", "load_corpus", "report", "to_dict", "dumps",
              "jsonl_write")
    UNIT = "ms per 1000 states"
    N, SEED = 1000, 1  # ms per call are ms per 1000 states
    SCALE = 1000.0

    def __init__(self, pkg, work: str):
        self.pkg, self.work = pkg, work

    def run_once(self) -> tuple:
        """One pass over the stages: (seconds per stage, {output: bytes})."""
        xs, fileio = self.pkg.xs, self.pkg.fileio
        corpus = os.path.join(self.work, "corpus.jsonl")
        reports = os.path.join(self.work, "reports.jsonl")
        clock = time.perf_counter
        t0 = clock()
        batch = xs.random_xstates(self.SEED, 0, self.N)
        t1 = clock()
        fileio.save_corpus(corpus, batch)
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
        return times, {"corpus": Path(corpus).read_bytes(), "reports": Path(reports).read_bytes()}


def _lowering(qubit: int) -> list:
    """|1><0| on one qubit as a nested [re, im] 4x4 matrix."""
    m = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
    for other in (0, 1):
        src = (0, other) if qubit == 0 else (other, 0)
        dst = (1, other) if qubit == 0 else (other, 1)
        m[2 * dst[0] + dst[1]][2 * src[0] + src[1]] = [1.0, 0.0]
    return m


def _werner(eps: float) -> dict:
    return {"a": (1 + eps) / 4, "b": (1 - eps) / 4, "c": (1 - eps) / 4, "d": (1 + eps) / 4,
            "w": {"re": eps / 2, "im": 0.0}}


class Timed:
    """A workload whose stages are timed by wrapping the package's
    functions. ``CONTAINERS`` are the stages whose direct calls get stages
    of their own; ``calls`` counts calls of one repeat."""

    CONTAINERS = ()

    def __init__(self, pkg, work: str):
        self.pkg, self.work = pkg, work
        self.seconds = dict.fromkeys(self.STAGES, 0.0)
        self.open = []  # [stage, seconds spent in timed calls below it]
        self.calls = {}

    def _timed(self, fn, stage: str):
        """``fn``, adding its time to ``stage`` when it is called from a
        container stage or from outside every stage; a container's own
        time leaves out the calls timed below it."""
        open_, seconds, clock = self.open, self.seconds, time.perf_counter

        def timed(*args, **kwargs):
            if open_ and open_[-1][0] not in self.CONTAINERS:
                return fn(*args, **kwargs)
            frame = [stage, 0.0]
            open_.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_.pop()
                seconds[stage] += elapsed - frame[1]
                if open_:
                    open_[-1][1] += elapsed

        return timed

    def _wrap(self, module, name: str, stage: str) -> None:
        setattr(module, name, self._timed(getattr(module, name), stage))

    def _reset(self) -> None:
        for stage in self.seconds:
            self.seconds[stage] = 0.0
        for name in self.calls:
            self.calls[name] = 0


class Campaign(Timed):
    """The stages of ``approx_error_campaign``: the ``campaign`` workload's
    route at ``validate-approx --n 10000 --grid 64``."""

    STAGES = ("sampling", "scan", "keeps_endpoint", "rescans", "state_entropies",
              "approx_discord", "oracle", "stats")
    UNIT = "ms per 1000 states"
    N, SEED, GRID = 10000, 1, 64
    SCALE = 1e6 / N
    CONTAINERS = ("stats", "oracle", "approx_discord")

    def __init__(self, pkg, work: str, n: int = N):
        super().__init__(pkg, work)
        self.N, self.SCALE = n, 1e6 / n
        oracle, measures = pkg.oracle, pkg.measures
        self.campaign = self._timed(oracle.approx_error_campaign, "stats")
        self._wrap(oracle, "random_xstates", "sampling")
        self._wrap(oracle, "_approx" if hasattr(oracle, "_approx") else "approx_discord",
                   "approx_discord")
        self._wrap(oracle, "_keeps_endpoint", "keeps_endpoint")
        self._wrap(oracle, "discord_oracle", "oracle")
        scan = self._timed(oracle._conditional_entropy_sums, "scan")
        rescan = self._timed(oracle._conditional_entropy_sums, "rescans")

        def scan_or_rescan(*args):
            # the scan's angles are the read-only cached grid, a rescan's are computed
            return (rescan if args[-1].flags.writeable else scan)(*args)

        oracle._conditional_entropy_sums = scan_or_rescan
        # the oracle and approx_discord each call it through their own module
        entropies = self._timed(measures._state_entropies, "state_entropies")
        self.calls["state_entropies"] = 0

        def counted(*args, **kwargs):
            self.calls["state_entropies"] += 1
            return entropies(*args, **kwargs)

        oracle._state_entropies = measures._state_entropies = counted

    def run_once(self) -> tuple:
        """One campaign: (seconds per stage, {output: bytes})."""
        self._reset()
        stats = self.campaign(self.N, seed=self.SEED, grid=self.GRID)
        stats_json = self.pkg.fileio.dumps(stats.to_dict()).encode()
        return tuple(self.seconds[stage] for stage in self.STAGES), {"stats": stats_json}


class Dynamics(Timed):
    """The stages of ``xstates evolve`` on the ``dynamics`` workload's
    kinds of config, through ``cli.main``."""

    STAGES = ("config_load", "superoperator_verdict", "x_block_expm", "sample_loop",
              "checked_samples", "measures", "esd_time", "csv", "writes", "cli")
    UNIT = "us per evolve run"
    SEED = None
    RUN = {"dt": 1e-3, "sample_every": 10, "measures": ["concurrence", "negativity"]}
    CONFIGS = {
        "readme": {"initial_state": {"a": 0.5, "b": 0.0, "c": 0.0, "d": 0.5, "w": 0.5},
                   "operators": ["ZI"], "rates": [1.0], "t_max": 1.0},
        "damping0": {"initial_state": _werner(0.6), "operators": [_lowering(0), _lowering(1)],
                     "rates": [1.2, 1.2], "t_max": 1.2},
        "damping1": {"initial_state": _werner(0.8), "operators": [_lowering(0), _lowering(1)],
                     "rates": [1.4, 1.4], "t_max": 1.2},
    }
    N = len(CONFIGS)
    SCALE = 1e6 / N
    CONTAINERS = ("cli", "sample_loop")

    def __init__(self, pkg, work: str):
        super().__init__(pkg, work)
        for name, cfg in self.CONFIGS.items():
            Path(work, f"{name}.json").write_text(json.dumps({**cfg, **self.RUN}))
        cli, dynamics, fileio = pkg.cli, pkg.dynamics, pkg.fileio
        self.main = self._timed(cli.main, "cli")
        self._wrap(cli, "evolve", "sample_loop")
        self._wrap(cli, "esd_time", "esd_time")
        for module, name, stage in (
            (fileio, "load_dynamics_config", "config_load"),
            (dynamics, "superoperator", "superoperator_verdict"),
            (dynamics, "_leak_ratio", "superoperator_verdict"),
            (dynamics, "_verdict", "superoperator_verdict"),
            (dynamics, "_x_block", "x_block_expm"),
            (dynamics, "_expm", "x_block_expm"),
            (dynamics, "_checked_samples", "checked_samples"),
            (fileio, "trajectory_to_csv", "csv"),
            (fileio, "atomic_write", "writes"),
        ):
            self._wrap(module, name, stage)
        table = dynamics._TRAJECTORY_MEASURES
        for name in table:
            table[name] = self._timed(table[name], "measures")

    def run_once(self) -> tuple:
        """One evolve run per config: (seconds per stage, {output: bytes})."""
        self._reset()
        outputs = {}
        for name in self.CONFIGS:
            out = os.path.join(self.work, f"{name}.csv")
            code = self.main(["evolve", "--in", os.path.join(self.work, f"{name}.json"),
                              "--out", out])
            if code != 0:
                raise SystemExit(f"{self.pkg.src}: evolve of {name} exited {code}")
            # the manifest names the run's paths, which differ between copies
            manifest = Path(out + ".manifest.json").read_bytes().replace(
                self.work.encode(), b"<work>")
            outputs[name] = Path(out).read_bytes() + _DURATION.sub(b'"duration_s": null',
                                                                    manifest)
        return tuple(self.seconds[stage] for stage in self.STAGES), outputs


WORKLOADS = {"campaign": Campaign, "corpus": Corpus, "dynamics": Dynamics}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "median": median, "p75": q3}


# environment variables that change which numpy and BLAS kernels run
KERNEL_VARIABLES = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def environment() -> dict:
    """The interpreter, numpy's SIMD targets (its baseline and the targets
    it found on this CPU) and BLAS, as ``np.show_config`` reports them, and
    those of ``KERNEL_VARIABLES`` that are set."""
    config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "kernel_path": "numpy",
        "simd_baseline": simd.get("baseline"),
        "simd_found": simd.get("found"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }
    env.update((name, os.environ[name]) for name in KERNEL_VARIABLES if name in os.environ)
    return env


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="source directory of a second xstates to interleave with")
    parser.add_argument("--n", type=int, default=None,
                        help=f"states of the campaign workload (default {Campaign.N})")
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    options = {}
    if args.n is not None:
        if args.workload != "campaign":
            parser.error("--n applies only to --workload campaign")
        if args.n < 1:
            parser.error("--n must be at least 1")
        options["n"] = args.n
    workload = WORKLOADS[args.workload]
    sources = {"this": Path(__file__).resolve().parent.parent / "src"}
    if args.baseline is not None:
        sources["baseline"] = args.baseline.resolve()
    samples = {name: {stage: [] for stage in workload.STAGES} for name in sources}
    digests = {name: set() for name in sources}
    order = list(sources)
    with tempfile.TemporaryDirectory() as work:
        routes = {}
        for name, src in sources.items():
            os.mkdir(os.path.join(work, name))
            routes[name] = workload(import_package(src), os.path.join(work, name), **options)
        scale = routes["this"].SCALE
        for r in range(WARMUP + args.repeats):
            for name in (order if r % 2 == 0 else order[::-1]):
                times, outputs = routes[name].run_once()
                digests[name].add(tuple((key, hashlib.sha256(raw).hexdigest())
                                        for key, raw in outputs.items()))
                if r >= WARMUP:
                    for stage, t in zip(workload.STAGES, times):
                        samples[name][stage].append(t * scale)
    runs = {}
    for name, src in sources.items():
        if len(digests[name]) != 1:
            raise SystemExit(f"the repeats of {src} wrote different bytes")
        (output_digests,) = digests[name]
        totals = [sum(column) for column in zip(*samples[name].values())]
        runs[name] = {
            "src": str(src),
            "stages": {stage: quartiles(v) for stage, v in samples[name].items()},
            "total": quartiles(totals),
            "digests": dict(output_digests),
        }
        if getattr(routes[name], "calls", None):
            runs[name]["calls"] = dict(routes[name].calls)
    result = {"workload": args.workload, "unit": workload.UNIT, "n": routes["this"].N,
              "seed": workload.SEED, "repeats": args.repeats, "runs": runs}
    if "baseline" in sources:
        paired = {}
        for stage in workload.STAGES + ("total",):
            if stage == "total":
                this, base = ([sum(c) for c in zip(*samples[k].values())] for k in sources)
            else:
                this, base = samples["this"][stage], samples["baseline"][stage]
            # a stage may take no time at all, such as the rescans of a call without any
            ratios = [t / b for t, b in zip(this, base) if b > 0]
            paired[stage] = {"ratio_median": statistics.median(ratios) if ratios else None,
                             "wins": sum(t < b for t, b in zip(this, base))}
        result["paired"] = paired
        result["same_bytes"] = runs["this"]["digests"] == runs["baseline"]["digests"]
    result["env"] = environment()
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
