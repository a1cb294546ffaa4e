"""Golden outputs: the sha256 of the bytes each CLI path writes.

Each digest covers the output file and its manifest with the manifest's
``duration_s`` value blanked, since that is a timing. The runs use paths
relative to a temporary working directory, so the manifests' ``outputs`` are
the same in every run. A changed digest means changed output bytes: a value
that moved in its last bit, a reordered key or a different float format.

The digests were made with numpy 2.4.6 on x86-64 with AVX-512, where numpy's
``log2`` rounds as its SIMD kernel does; another platform may round some
entropies differently in the last bit and so give other digests.
"""

import hashlib
import json
import math
import re

import pytest

import xstates as xs
from xstates import fileio
from xstates.cli import main

GEN_DIGEST = "0f17a79d09543e21a33e39a1f0bfeb2347db8a3ed58beb5a731dea6ce08ed91b"
REPORT_DIGESTS = {
    "A": "c70b82652e65d60398d312b967d9696580b59a7db9f125356cc696d3e0aa470c",
    "B": "bd39562b6edb2225622ff94aeefeb72be95726727948a044cdb395d51d0f9f5d",
}
EDGE_REPORT_DIGESTS = {
    "A": "cf4e3d7ae1effb4e455aaa2ab6aa2ee05008359cde787ade47e46ccc2d35cb87",
    "B": "7e841494823ef08124f8dd5314706df37fe728fb1fe0387176d9b3cab3c1851f",
}
CAMPAIGN_DIGEST = "41e0145501e77c02dd264072e5011c5214837abf4ca9bc44649f66064a43f378"
EVOLVE_DIGEST = "8d2b4ac1b8f931e93ba13c3cb8ca3a0fdac1e4f26444c842f79c4881027c57ec"
EVOLVE_ROTATED_DIGEST = "7dfcb3540d80033c84e9fc8ddca48734377c0e50de0468107801dfa46f0f3f4e"

_DURATION = re.compile(rb'"duration_s": [^,}]+')


def digest(*paths) -> str:
    """sha256 over the files, with every manifest's duration blanked."""
    h = hashlib.sha256()
    for path in paths:
        raw = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            raw, count = _DURATION.subn(b'"duration_s": null', raw)
            assert count == 1
        h.update(raw)
    return h.hexdigest()


def _lowering(qubit: int) -> list:
    """|1><0| on one qubit as a nested [re, im] 4x4 matrix."""
    m = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
    for other in (0, 1):
        src = (0, other) if qubit == 0 else (other, 0)
        dst = (1, other) if qubit == 0 else (other, 1)
        m[2 * dst[0] + dst[1]][2 * src[0] + src[1]] = [1.0, 0.0]
    return m


DAMPED_WERNER = {
    # Werner state at eps = 0.8 under amplitude damping of both qubits: its
    # entanglement dies at t = 0.75, so the manifest carries an esd_time
    "initial_state": {"a": 0.45, "b": 0.05, "c": 0.05, "d": 0.45,
                      "w": {"re": 0.4, "im": 0.0}},
    "operators": [_lowering(0), _lowering(1)],
    "rates": [1.0, 1.0],
    "dt": 0.01,
    "t_max": 1.0,
    "sample_every": 5,
    "measures": ["concurrence", "negativity"],
}


ROTATED_DEPHASING = {
    # {ZI, XI} dephasing at equal rates written in the rotated operator set
    # {0.6 ZI + 0.8 XI, 0.8 ZI - 0.6 XI}, under an X-shaped Hamiltonian, from a
    # state with complex coherences. The operators mix the two support
    # patterns and their cross terms cancel only to rounding, so the
    # Liouvillian's off <- X block is a rounding-sized share of it and
    # max_leakage is a nonzero float. 73 steps sampled every 5 end on a
    # short interval of 3 steps.
    "initial_state": {"a": 0.4, "b": 0.15, "c": 0.1, "d": 0.35,
                      "z": {"re": 0.05, "im": -0.08}, "w": {"re": 0.2, "im": 0.25}},
    "operators": [{"ZI": 0.6, "XI": 0.8}, {"ZI": 0.8, "XI": -0.6}],
    "rates": [0.7, 0.7],
    "hamiltonian": {"ZZ": 0.5, "XX": 0.3, "YX": -0.2, "IZ": 0.1},
    "dt": 0.01,
    "t_max": 0.73,
    "sample_every": 5,
    "measures": ["concurrence", "negativity", "purity"],
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_gen(workdir):
    assert main(["gen", "--n", "200", "--seed", "5", "--out", "corpus.jsonl"]) == 0
    assert digest(workdir / "corpus.jsonl", workdir / "corpus.jsonl.manifest.json") == GEN_DIGEST


@pytest.mark.parametrize("side", ["A", "B"])
def test_corpus_reports(workdir, side):
    # the gen corpus, which has real coherences, and as many states with
    # complex ones
    assert main(["gen", "--n", "200", "--seed", "5", "--out", "corpus.jsonl"]) == 0
    states = fileio.load_corpus("corpus.jsonl")
    states += [xs.random_xstate(5, i, complex_phases=True) for i in range(200)]
    lines = [fileio.dumps(xs.report(x, side=side).to_dict()) for x in states]
    fileio.atomic_write("reports.jsonl", "\n".join(lines) + "\n")
    assert digest(workdir / "reports.jsonl") == REPORT_DIGESTS[side]


def edge_states() -> list:
    """States on the ties, zeros and bounds of the closed forms, which random
    states never reach: where a max or min of two equal values picks one of
    them, a negative zero can appear in the output."""
    states = [xs.bell(i) for i in range(4)]
    states += [xs.werner(eps) for eps in (0.0, 1 / 3, 0.5, 1.0)]
    states += [xs.validate(1, 0, 0, 0), xs.validate(0.5, 0.5, 0, 0)]
    states += [xs.validate(*p) for p in ((0, 0, 0, 1), (0.25, 0.25, 0.25, 0.25),
                                         (0.4, 0.1, 0.1, 0.4), (0.1, 0.2, 0.3, 0.4))]
    # Bell-diagonal, where mmm_discord is defined: |C_i| ties and corners
    states += [xs.bell_diagonal(*c) for c in ((0.5, -0.5, 0.5), (0.3, 0.3, 0.3),
                                              (-1 / 3, -1 / 3, -1 / 3), (0.5, 0.5, 0.0),
                                              (0.0, 0.0, -1.0), (0.2, -0.4, 0.1))]
    for a, b, c, d in ((0.1, 0.3, 0.2, 0.4), (0.25, 0.25, 0.25, 0.25), (0.0, 0.5, 0.5, 0.0)):
        zb, wb = math.sqrt(b * c), math.sqrt(a * d)
        states += [xs.validate(a, b, c, d, z=zb), xs.validate(a, b, c, d, z=zb, w=wb),
                   xs.validate(a, b, c, d, z=-1j * zb, w=-wb)]
    # one zero population
    states += [xs.validate(0.0, 0.3, 0.3, 0.4, z=0.3), xs.validate(0.2, 0.3, 0.5, 0.0, z=0.1),
               xs.validate(0.5, 0.0, 0.25, 0.25, w=0.25), xs.validate(0.3, 0.3, 0.0, 0.4)]
    return states


@pytest.mark.parametrize("side", ["A", "B"])
def test_edge_reports(side):
    lines = [fileio.dumps(xs.report(x, side=side).to_dict()) for x in edge_states()]
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == EDGE_REPORT_DIGESTS[side]


def test_validate_approx(workdir):
    assert main(["validate-approx", "--n", "300", "--seed", "5", "--out", "stats.json"]) == 0
    assert digest(workdir / "stats.json", workdir / "stats.json.manifest.json") == CAMPAIGN_DIGEST


def test_evolve_damped_werner(workdir):
    (workdir / "config.json").write_text(json.dumps(DAMPED_WERNER))
    assert main(["evolve", "--in", "config.json", "--out", "traj.csv"]) == 0
    manifest = json.loads((workdir / "traj.csv.manifest.json").read_text())
    assert manifest["esd_time"] is not None
    assert digest(workdir / "traj.csv", workdir / "traj.csv.manifest.json") == EVOLVE_DIGEST


def test_evolve_rotated_dephasing(workdir):
    (workdir / "config.json").write_text(json.dumps(ROTATED_DEPHASING))
    assert main(["evolve", "--in", "config.json", "--out", "traj.csv"]) == 0
    manifest = json.loads((workdir / "traj.csv.manifest.json").read_text())
    assert manifest["max_leakage"] > 0.0
    rows = (workdir / "traj.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows[-2:]] == [0.7000000000000001, 0.73]
    traj_digest = digest(workdir / "traj.csv", workdir / "traj.csv.manifest.json")
    assert traj_digest == EVOLVE_ROTATED_DIGEST
