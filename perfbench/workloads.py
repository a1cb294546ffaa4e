"""The three benchmark workloads.

Each workload makes its inputs from the benchmark seed, performs one timed
call per repeat through the ``xstates`` CLI and public functions, and checks
that call's outputs. Program functions are looked up as module attributes at
call time, so the spans that ``tracer`` installs are seen.

Why these workloads:

* ``campaign``: ``validate-approx --grid 64``, the paper's check of the
  approximate discord against the brute-force oracle. Almost all of its time
  is ``oracle.discord_oracle``; it never touches ``dynamics`` and barely
  touches ``fileio``.
* ``corpus``: ``gen``, ``fileio.load_corpus``, then ``measures.report`` and
  ``fileio.dumps`` per state and one JSONL write. Bulk closed-form work and
  serialisation, with no oracle and no dynamics.
* ``dynamics``: ``evolve`` on the README dephasing config (no entanglement
  sudden death, so no bisection) and on two-qubit amplitude damping of
  Werner states (sudden death, so ``esd_time`` bisects). No oracle, no
  ``report``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from xstates import cli, fileio, measures

# Relative tolerance (absolute below 1) for values compared with the stored
# references: loose enough for reordered floating-point arithmetic, tight
# enough to catch a changed answer.
REFERENCE_RTOL = 1e-9


class CheckFailed(Exception):
    """An output of one call is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(x: float, ref: float, tol: float = REFERENCE_RTOL) -> bool:
    return abs(x - ref) <= tol * max(1.0, abs(ref))


def _reject_constant(token):
    raise CheckFailed(f"non-finite number {token} in output")


def strict_json(text: str):
    """Parse JSON text, refusing NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def compare_summary(summary, reference, where: str = "") -> list:
    """Differences between a call's summary and its stored reference."""
    if isinstance(reference, dict):
        if not isinstance(summary, dict) or summary.keys() != reference.keys():
            return [f"{where}: keys differ from the reference"]
        out = []
        for key in reference:
            out += compare_summary(summary[key], reference[key], f"{where}.{key}")
        return out
    if isinstance(reference, list):
        if not isinstance(summary, list) or len(summary) != len(reference):
            return [f"{where}: length differs from the reference"]
        out = []
        for i, (s, r) in enumerate(zip(summary, reference)):
            out += compare_summary(s, r, f"{where}[{i}]")
        return out
    if reference is None:
        return [] if summary is None else [f"{where}: {summary!r} != None"]
    if summary is None or not close(summary, reference):
        return [f"{where}: {summary!r} differs from reference {reference!r}"]
    return []


@dataclass
class Outcome:
    """What one checked call produced."""

    digest: str  # hash of the deterministic output bytes
    summary: dict  # the values compared with the stored references
    bytes_written: int  # size of every file the call wrote


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _manifest_bytes(path: Path) -> bytes:
    # the manifest's duration is a timing, so it is left out of the digest
    manifest = strict_json(path.read_text())
    manifest.pop("duration_s", None)
    return json.dumps(manifest, sort_keys=True).encode()


class Workload:
    """Inputs from ``seed`` in ``work``; ``reference`` marks the call checked
    against ``references.json``. Repeat -1 is a small warm-up call."""

    name = ""

    def __init__(self, work: Path, seed: int, reference: bool = False):
        self.work = work
        self.seed = seed
        self.reference = reference

    def prepare(self) -> None:
        """Writes the input files; most workloads have none."""

    def program_seed(self, r: int) -> int:
        return self.seed * 100_000 + (r % 100_000)


class Campaign(Workload):
    name = "campaign"
    STATES = 256
    WARMUP_STATES = 8
    # Only about one state in 1500 has an interior optimum and so a visible
    # error; the reference call is long enough to contain some at seeds 1 and 2.
    REFERENCE_STATES = 2500
    GRID = 64
    # The worst-case absolute error of the approximate discord that the source
    # paper states, about 2e-3 (0.0021). Acceptance criterion 1 uses 1e-3, a
    # maximum over one sample of 10^4 states; random campaigns exceed it
    # (program seed 1400009, index 211: 1.88e-3, confirmed with dense numpy).
    MAX_ERR = 2.1e-3
    THRESHOLDS = ("1e3", "1e4", "1e5", "1e6", "1e7")

    def __init__(self, work: Path, seed: int, reference: bool = False):
        super().__init__(work, seed, reference)
        self.out = work / "stats.json"

    def _n(self, r: int) -> int:
        if r < 0:
            return self.WARMUP_STATES
        return self.REFERENCE_STATES if self.reference else self.STATES

    def call(self, r: int):
        """Returns (items, exit code). Repeat -1 is the small warm-up call."""
        n = self._n(r)
        code = cli.main([
            "validate-approx", "--n", str(n), "--seed", str(self.program_seed(r)),
            "--grid", str(self.GRID), "--out", str(self.out),
        ])
        return n, code

    def check(self, r: int) -> Outcome:
        n = self._n(r)
        raw = self.out.read_bytes()
        stats = strict_json(raw.decode())
        require(stats["n"] == n and stats["grid"] == self.GRID
                and stats["seed"] == self.program_seed(r), "stats echo wrong n/seed/grid")
        max_err, mean_err = stats["max_err"], stats["mean_err"]
        require(0.0 <= mean_err <= max_err <= n * mean_err * (1 + 1e-12),
                f"mean_err {mean_err!r} and max_err {max_err!r} are inconsistent")
        require(max_err <= self.MAX_ERR, f"max_err {max_err!r} exceeds {self.MAX_ERR}")
        fracs = [stats[f"frac_gt_{t}"] for t in self.THRESHOLDS]
        for t, frac in zip(self.THRESHOLDS, fracs):
            thr = 10.0 ** -int(t[2:])
            require(0.0 <= frac <= 1.0 and abs(frac * n - round(frac * n)) < 1e-6,
                    f"frac_gt_{t} = {frac!r} is not a count over {n}")
            require((frac > 0.0) == (max_err > thr), f"frac_gt_{t} disagrees with max_err")
            require(mean_err >= frac * thr, f"frac_gt_{t} disagrees with mean_err")
        require(fracs == sorted(fracs), "fractions must not fall as the threshold falls")
        manifest = self.out.with_name(self.out.name + ".manifest.json")
        summary = {"max_err": max_err, "mean_err": mean_err, "fractions": fracs}
        return Outcome(
            digest=_digest(raw, _manifest_bytes(manifest)),
            summary=summary,
            bytes_written=len(raw) + manifest.stat().st_size,
        )


REPORT_FLOATS = (
    "concurrence", "negativity", "fef", "fef_fidelity",
    "geometric_discord_general", "geometric_discord_paper", "approx_discord",
    "classical_correlation", "mutual_information", "mid",
)
REPORT_KEYS = set(REPORT_FLOATS) | {"schmidt_values", "schmidt_number", "mmm_discord", "side"}


def _dense(state: dict) -> np.ndarray:
    z = complex(state["z"]["re"], state["z"]["im"])
    w = complex(state["w"]["re"], state["w"]["im"])
    return np.array([
        [state["a"], 0, 0, w],
        [0, state["b"], z, 0],
        [0, z.conjugate(), state["c"], 0],
        [w.conjugate(), 0, 0, state["d"]],
    ], dtype=np.complex128)


def _entropy_bits(values) -> float:
    p = np.asarray(values, dtype=float)
    p = p[p > 1e-300]
    return float(-(p * np.log2(p)).sum())


_BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)


class Corpus(Workload):
    name = "corpus"
    STATES = 1000
    WARMUP_STATES = 16
    DENSE_CHECKS = 16  # states re-derived from dense matrices in numpy

    def __init__(self, work: Path, seed: int, reference: bool = False):
        super().__init__(work, seed, reference)
        self.corpus = work / "corpus.jsonl"
        self.reports = work / "reports.jsonl"

    def _n(self, r: int) -> int:
        return self.WARMUP_STATES if r < 0 else self.STATES

    def call(self, r: int):
        n = self._n(r)
        code = cli.main(["gen", "--n", str(n), "--seed", str(self.program_seed(r)),
                         "--out", str(self.corpus)])
        if code:
            return n, code
        states = fileio.load_corpus(str(self.corpus))
        lines = [fileio.dumps(measures.report(x).to_dict()) for x in states]
        fileio.atomic_write(str(self.reports), "\n".join(lines) + "\n")
        return n, 0

    def check(self, r: int) -> Outcome:
        n = self._n(r)
        corpus_raw = self.corpus.read_bytes()
        reports_raw = self.reports.read_bytes()
        states = [strict_json(line) for line in corpus_raw.decode().splitlines()]
        reports = [strict_json(line) for line in reports_raw.decode().splitlines()]
        require(len(states) == n and len(reports) == n, "corpus or report count is wrong")
        for i, (s, rep) in enumerate(zip(states, reports)):
            pops = (s["a"], s["b"], s["c"], s["d"])
            zabs = math.hypot(s["z"]["re"], s["z"]["im"])
            wabs = math.hypot(s["w"]["re"], s["w"]["im"])
            require(min(pops) >= 0.0 and abs(sum(pops) - 1.0) <= 1e-12
                    and zabs <= math.sqrt(s["b"] * s["c"]) * (1 + 1e-12)
                    and wabs <= math.sqrt(s["a"] * s["d"]) * (1 + 1e-12),
                    f"state {i} is not a valid X state")
            require(rep.keys() == REPORT_KEYS and rep["side"] == "B", f"report {i} keys")
            require(0.0 <= rep["concurrence"] <= 1.0 and rep["negativity"] >= 0.0
                    and (rep["concurrence"] > 1e-12) == (rep["negativity"] > 1e-12),
                    f"report {i}: concurrence and negativity disagree")
            require(abs(rep["approx_discord"] + rep["classical_correlation"]
                        - rep["mutual_information"]) <= 1e-12,
                    f"report {i}: Q + C != I")
            require(abs(rep["fef_fidelity"] - 0.5 * (rep["fef"] + 1.0)) <= 1e-12
                    and 1 <= rep["schmidt_number"] <= 4, f"report {i}: fef or Schmidt rank")
        for s, rep in zip(states[: self.DENSE_CHECKS], reports):
            self._dense_check(s, rep)
        manifest = self.corpus.with_name(self.corpus.name + ".manifest.json")
        return Outcome(
            digest=_digest(corpus_raw, reports_raw, _manifest_bytes(manifest)),
            summary=self._checksum(reports),
            bytes_written=len(corpus_raw) + len(reports_raw) + manifest.stat().st_size,
        )

    @staticmethod
    def _dense_check(state: dict, rep: dict) -> None:
        """Recompute report fields from the dense matrix with numpy alone."""
        rho = _dense(state)
        a, b, c, d = state["a"], state["b"], state["c"], state["d"]
        s_ab = _entropy_bits(np.linalg.eigvalsh(rho))
        s_a = _entropy_bits([a + b, c + d])
        s_b = _entropy_bits([a + c, b + d])
        pt = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        ev_pt = np.linalg.eigvalsh(pt)
        fidelity = max(float(np.real(v @ rho @ v)) for v in _BELL)
        purity = float(np.real(np.trace(rho @ rho)))
        expected = {
            "mutual_information": s_a + s_b - s_ab,
            "mid": _entropy_bits([a, b, c, d]) - s_ab,
            "negativity": float(-ev_pt[ev_pt < 0].sum()),
            "fef_fidelity": fidelity,
        }
        for key, value in expected.items():
            require(abs(rep[key] - value) <= 1e-9, f"{key} {rep[key]!r} != dense {value!r}")
        schmidt_sq = sum(v * v for v in rep["schmidt_values"])
        require(abs(schmidt_sq - purity) <= 1e-9, "Schmidt values do not square-sum to purity")

    @staticmethod
    def _checksum(reports: list) -> dict:
        """Per field, the plain and the index-weighted sum over the corpus."""
        n = len(reports)
        weights = [(i + 1) / n for i in range(n)]
        out = {}
        for key in REPORT_FLOATS + ("schmidt_number",):
            values = [rep[key] for rep in reports]
            out[key] = [math.fsum(values), math.fsum(w * v for w, v in zip(weights, values))]
        schmidt = [sum(rep["schmidt_values"]) for rep in reports]
        out["schmidt_values"] = [math.fsum(schmidt),
                                 math.fsum(w * v for w, v in zip(weights, schmidt))]
        mmm = [rep["mmm_discord"] for rep in reports if rep["mmm_discord"] is not None]
        out["mmm_discord"] = [len(mmm), math.fsum(mmm)]
        return out


def _lowering(qubit: int) -> list:
    """|1><0| on one qubit as a nested [re, im] 4x4 matrix (|0> decays to |1>)."""
    m = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
    for other in (0, 1):
        src = (0, other) if qubit == 0 else (other, 0)
        dst = (1, other) if qubit == 0 else (other, 1)
        m[2 * dst[0] + dst[1]][2 * src[0] + src[1]] = [1.0, 0.0]
    return m


def _damping_final(state: dict, gamma: float, t: float) -> dict:
    """Closed form of independent amplitude damping on both qubits: each
    excited population survives with s = exp(-2 gamma t), coherences scale
    by s, and the decayed population moves one excitation down."""
    s = math.exp(-2.0 * gamma * t)
    p = 1.0 - s
    a, b, c, d = state["a"], state["b"], state["c"], state["d"]
    return {
        "a": a * s * s, "b": b * s + a * s * p, "c": c * s + a * s * p,
        "d": d + (b + c) * p + a * p * p,
        "z": state["z"] * s, "w": state["w"] * s,
    }


def _damping_esd(state: dict, gamma: float) -> float:
    """Sudden-death time of a Werner-type state (b = c, z = 0) under the
    damping above: |w(t)| = sqrt(b(t) c(t)) at decay probability (w - b)/a."""
    p = (state["w"] - state["b"]) / state["a"]
    return -math.log(1.0 - p) / (2.0 * gamma)


def _dephasing_final(state: dict, gamma: float, t: float) -> dict:
    """``ZI`` dephasing at rate gamma: both coherences decay as exp(-4 gamma t)."""
    k = math.exp(-4.0 * gamma * t)
    return dict(state, z=state["z"] * k, w=state["w"] * k)


class Dynamics(Workload):
    name = "dynamics"
    DT = 1e-3
    SAMPLE_EVERY = 10
    DAMPING_CONFIGS = 2
    DAMPING_T_MAX = 1.2  # past the latest sudden death (0.91) plus the confirm samples
    POOL = 32  # distinct input sets written at set-up; repeat r uses r % POOL
    # the README config: Bell state under ZI dephasing, which never kills it
    README = {"a": 0.5, "b": 0.0, "c": 0.0, "d": 0.5, "z": 0.0, "w": 0.5}
    README_GAMMA = 1.0
    README_T_MAX = 1.0
    ATOL = 1e-9

    def configs(self, r: int) -> list:
        """(name, initial state, kind, gamma, t_max) for repeat r; -1 is the warm-up."""
        if r < 0:
            eps, gamma = 0.4, 1.0
            return [("warmup", self._werner(eps), "damping", gamma, 0.2)]
        rng = np.random.default_rng([self.seed, r % self.POOL])
        eps = rng.uniform(0.5, 0.85, self.DAMPING_CONFIGS)
        gammas = rng.uniform(1.0, 1.5, self.DAMPING_CONFIGS)
        out = [("readme", dict(self.README), "dephasing", self.README_GAMMA, self.README_T_MAX)]
        for k in range(self.DAMPING_CONFIGS):
            out.append((f"damping{k}", self._werner(float(eps[k])), "damping",
                        float(gammas[k]), self.DAMPING_T_MAX))
        return out

    @staticmethod
    def _werner(eps: float) -> dict:
        return {"a": (1 + eps) / 4, "b": (1 - eps) / 4, "c": (1 - eps) / 4,
                "d": (1 + eps) / 4, "z": 0.0, "w": eps / 2}

    def _steps(self, t_max: float) -> int:
        return max(1, int(round(t_max / self.DT)))  # as evolve rounds it

    def _path(self, r: int, name: str) -> Path:
        return self.work / f"r{r % self.POOL if r >= 0 else 'w'}-{name}.json"

    def _out(self, name: str) -> Path:
        return self.work / f"{name}.csv"

    def _write_config(self, r: int, name, state, kind, gamma, t_max) -> None:
        ops = ["ZI"] if kind == "dephasing" else [_lowering(0), _lowering(1)]
        cfg = {
            "initial_state": {
                "a": state["a"], "b": state["b"], "c": state["c"], "d": state["d"],
                "z": {"re": state["z"], "im": 0.0}, "w": {"re": state["w"], "im": 0.0},
            },
            "hamiltonian": None,
            "operators": ops,
            "rates": [gamma] * len(ops),
            "dt": self.DT, "t_max": t_max, "sample_every": self.SAMPLE_EVERY,
            "measures": ["concurrence", "negativity"],
        }
        self._path(r, name).write_text(json.dumps(cfg))

    def prepare(self) -> None:
        """Writes the evolve configs of every repeat."""
        for r in [-1] + list(range(self.POOL)):
            for cfg in self.configs(r):
                self._write_config(r, *cfg)

    def call(self, r: int):
        steps = 0
        for name, _, _, _, t_max in self.configs(r):
            code = cli.main(["evolve", "--in", str(self._path(r, name)),
                             "--out", str(self._out(name))])
            if code:
                return steps, code
            steps += self._steps(t_max)
        return steps, 0

    def check(self, r: int) -> Outcome:
        chunks, summary, written = [], {}, 0
        for name, state, kind, gamma, t_max in self.configs(r):
            out = self._out(name)
            raw = out.read_bytes()
            manifest_path = out.with_name(out.name + ".manifest.json")
            manifest = strict_json(manifest_path.read_text())
            chunks += [raw, _manifest_bytes(manifest_path)]
            written += len(raw) + manifest_path.stat().st_size
            lines = raw.decode().splitlines()
            header = lines[0].split(",")
            last = dict(zip(header, (float(v) for v in lines[-1].split(","))))
            t_end = self._steps(t_max) * self.DT
            require(close(last["time"], t_end), f"{name}: trajectory ends at {last['time']!r}")
            require(len(lines) == 2 + self._steps(t_max) // self.SAMPLE_EVERY,
                    f"{name}: {len(lines) - 1} samples")
            final = [last[k] for k in ("a", "b", "c", "d", "z_re", "z_im", "w_re", "w_im")]
            if kind == "damping":
                exact = _damping_final(state, gamma, t_end)
                esd_exact = _damping_esd(state, gamma)
            else:
                exact = _dephasing_final(state, gamma, t_end)
                esd_exact = None
            expected = [exact["a"], exact["b"], exact["c"], exact["d"],
                        exact["z"], 0.0, exact["w"], 0.0]
            require(all(abs(f - e) <= self.ATOL for f, e in zip(final, expected)),
                    f"{name}: final state {final} differs from the closed form {expected}")
            esd = manifest.get("esd_time")
            require((esd is None) == (esd_exact is None)
                    and (esd is None or abs(esd - esd_exact) <= self.ATOL),
                    f"{name}: esd_time {esd!r}, closed form {esd_exact!r}")
            require(0.0 <= manifest["max_leakage"] <= 1e-10, f"{name}: leakage")
            summary[name] = {"final": final, "esd_time": esd}
        return Outcome(digest=_digest(*chunks), summary=summary, bytes_written=written)


WORKLOADS = {w.name: w for w in (Campaign, Corpus, Dynamics)}
