"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.

Run ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
inline; they bypass capture either way).
"""

import math
import time

import numpy as np
import pytest

import xstates as xs
from xstates.dynamics import Grade, pauli_string_matrix
from test_dynamics import SM, damping_kraus_pair
from test_measures import WERNER_HALF_DISCORD

N_CORPUS = 10_000
SEED = 1


def announce(capsys, criterion: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus():
    return [xs.random_xstate(SEED, i) for i in range(N_CORPUS)]


def bell_diagonal_corpus(n: int, seed: int = 2):
    states = []
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        p = rng.standard_exponential(4)
        p0, p1, p2, p3 = p / p.sum()
        states.append(
            xs.bell_diagonal(
                p0 + p1 - p2 - p3,
                -p0 + p1 - p2 + p3,
                p0 - p1 - p2 + p3,
            )
        )
    return states


def test_criterion_1_approx_discord_accuracy(capsys):
    started = time.monotonic()
    stats = xs.approx_error_campaign(N_CORPUS, seed=SEED, grid=64)
    elapsed = time.monotonic() - started
    frac_1e4 = stats.fractions[1]
    ok = stats.max_err <= 1e-3 and frac_1e4 <= 1e-3 and elapsed <= 600.0
    announce(
        capsys, 1, ok,
        f"max|Q_approx - Q_oracle| = {stats.max_err:.3e} (<= 1e-3), "
        f"frac > 1e-4: {frac_1e4:.4%} (<= 0.1%), "
        f"reported percentiles >1e-5/1e-6/1e-7: "
        f"{stats.fractions[2]:.4%}/{stats.fractions[3]:.4%}/{stats.fractions[4]:.4%}, "
        f"runtime {elapsed:.1f}s ({stats.n} states)",
    )


def test_criterion_2_werner_closed_forms(capsys):
    worst = 0.0
    for eps in (0.0, 1.0 / 3.0, 0.5, 1.0):
        x = xs.werner(eps)
        expected = {
            "concurrence": max(0.0, (3 * eps - 1) / 2),
            "negativity": max(0.0, (3 * eps - 1) / 4),
            "fef": (3 * eps - 1) / 2,
            "purity": (1 + 3 * eps * eps) / 4,
        }
        worst = max(
            worst,
            abs(xs.concurrence(x) - expected["concurrence"]),
            abs(xs.negativity(x) - expected["negativity"]),
            abs(xs.fef(x) - expected["fef"]),
            abs(xs.purity(x) - expected["purity"]),
        )
    x = xs.werner(0.5)
    discords = {
        "mmm": xs.mmm_discord(x),
        "approx": xs.approx_discord(x).q,
        "mid": xs.mid(x),
        "oracle": xs.discord_oracle(x).q_min,
    }
    disc_err = max(abs(v - WERNER_HALF_DISCORD) for v in discords.values())
    ok = worst <= 1e-10 and disc_err <= 1e-5
    announce(
        capsys, 2, ok,
        f"closed-form worst error {worst:.2e} (<= 1e-10); discord(eps=0.5) by "
        f"mmm/approx/mid/oracle within {disc_err:.2e} (<= 1e-5) of "
        f"{WERNER_HALF_DISCORD:.9f}",
    )


def test_criterion_3_zero_set_and_single_negative_eigenvalue(capsys, corpus):
    mismatches = 0
    worst_negatives = 0
    for x in corpus:
        if (xs.concurrence(x) <= 1e-10) != (xs.negativity(x) <= 1e-10):
            mismatches += 1
        negs = int((xs.partial_transpose(x).eigenvalues < -1e-10).sum())
        worst_negatives = max(worst_negatives, negs)
    ok = mismatches == 0 and worst_negatives <= 1
    announce(
        capsys, 3, ok,
        f"concurrence=0 <-> negativity=0 mismatches: {mismatches}/{len(corpus)}; "
        f"max negative PT eigenvalues per state: {worst_negatives} (<= 1)",
    )


def test_criterion_4_fef_concurrence_bounds(capsys, corpus):
    violations = 0
    applicable = 0
    for x in corpus:
        e = xs.fef(x)
        if e < 0:
            continue
        applicable += 1
        c = xs.concurrence(x)
        if not (e - 1e-9 <= c <= 0.5 * (e + 1.0) + 1e-9):
            violations += 1
    ok = violations == 0
    announce(
        capsys, 4, ok,
        f"E <= C <= (E+1)/2 violations: {violations}/{applicable} states with E >= 0",
    )


def test_criterion_5_operator_schmidt(capsys, corpus):
    worst = 0.0
    for x in corpus:
        ss = xs.schmidt_spectrum(x)
        worst = max(worst, abs(float((ss.values**2).sum()) - xs.purity(x)))
    product = xs.schmidt_number(xs.schmidt_spectrum(xs.validate(1, 0, 0, 0)))
    bell_numbers = []
    bell_err = 0.0
    for i in range(4):
        ss = xs.schmidt_spectrum(xs.normalize_phases(xs.bell(i)).state)
        bell_numbers.append(xs.schmidt_number(ss))
        if i == 0:
            bell_err = float(np.abs(ss.values - 0.5).max())
    ok = (
        worst <= 1e-10
        and product == 1
        and all(n == 4 for n in bell_numbers)
        and bell_err <= 1e-12
    )
    announce(
        capsys, 5, ok,
        f"max |sum s_i^2 - purity| = {worst:.2e} (<= 1e-10); product-state Schmidt "
        f"number {product} (= 1); Bell numbers {bell_numbers} (= 4) with phi_0 values "
        f"within {bell_err:.1e} of 1/2",
    )


def test_criterion_6_spectral_oracle_equivalence(capsys, corpus):
    worst = 0.0
    for x in corpus:
        closed = np.sort(xs.eigenvalues(x))[::-1]
        numeric = np.linalg.eigvalsh(x.to_matrix())[::-1]
        worst = max(worst, float(np.abs(closed - numeric).max()))
    ok = worst <= 1e-10
    announce(
        capsys, 6, ok,
        f"max |closed-form - dense eigvalsh| over {len(corpus)} states: "
        f"{worst:.2e} (<= 1e-10)",
    )


def test_criterion_7_mmm_discord_and_geometric(capsys, corpus):
    bd = bell_diagonal_corpus(1000)
    worst_mmm = 0.0
    for x in bd:
        worst_mmm = max(worst_mmm, abs(xs.mmm_discord(x) - xs.discord_oracle(x).q_min))
    worst_gd = 0.0
    for x in corpus[:2000] + bd:
        f = xs.to_fano(xs.normalize_phases(x).state)
        for side, x3 in (("A", f.A3), ("B", f.B3)):
            closed = 0.25 * min(
                f.C2**2 + f.C3**2 + x3**2,
                f.C1**2 + f.C3**2 + x3**2,
                f.C1**2 + f.C2**2,
            )
            worst_gd = max(worst_gd, abs(xs.geometric_discord(x, side=side) - closed))
    worst_werner = max(
        abs(xs.geometric_discord(xs.werner(e)) - e * e / 2) for e in (0.1, 0.5, 0.9, 1.0)
    )
    witness = xs.FanoParams(A3=0.0, B3=0.0, C1=0.9, C2=0.1, C3=0.8)
    g_w = xs.geometric_discord_fano(witness, variant="general")
    p_w = xs.geometric_discord_fano(witness, variant="paper")
    ok = (
        worst_mmm <= 1e-6
        and worst_gd <= 1e-12
        and worst_werner <= 1e-10
        and abs(g_w - 0.1625) < 1e-12
        and abs(p_w - 0.205) < 1e-12
    )
    announce(
        capsys, 7, ok,
        f"max |mmm_discord - oracle| on 1000 Bell-diagonal states: {worst_mmm:.2e} "
        f"(<= 1e-6); geometric general vs k_max construction: {worst_gd:.2e} "
        f"(<= 1e-12); Werner eps^2/2 error {worst_werner:.2e} (<= 1e-10); "
        f"variant discrepancy witness (C=(0.9,0.1,0.8)): general {g_w}, paper {p_w}",
    )


def test_criterion_8_candidate_measurement_semantics(capsys):
    from xstates.oracle import MeasurementBasis

    worst1 = worst2 = 0.0
    for i in range(1000):
        x = xs.random_xstate(SEED + 100, i)
        r = xs.approx_discord(x)
        ce1 = xs.conditional_entropy(x, MeasurementBasis(math.pi / 4, 0.0))
        ce2 = xs.conditional_entropy(x, MeasurementBasis(math.pi / 2, 0.0))
        worst1 = max(worst1, abs(ce1 - r.n1))
        worst2 = max(worst2, abs(ce2 - r.n2))
    ok = worst1 <= 1e-10 and worst2 <= 1e-10
    announce(
        capsys, 8, ok,
        f"max |CE(pi/4,0) - N1| = {worst1:.2e}, max |CE(pi/2,0) - N2| = {worst2:.2e} "
        f"(both <= 1e-10, 1000 states)",
    )


def test_criterion_9_dynamics(capsys):
    # grading closure over all 16x16 Pauli products
    labels = [p + q for p in "IXYZ" for q in "IXYZ"]
    closure_ok = True
    for la in labels:
        for lb in labels:
            ga = xs.grade(pauli_string_matrix(la)).grade
            gb = xs.grade(pauli_string_matrix(lb)).grade
            gp = xs.grade(pauli_string_matrix(la) @ pauli_string_matrix(lb)).grade
            if gp is not (Grade.X if ga == gb else Grade.OFF_X):
                closure_ok = False
    # dephasing trajectory vs z(t) = z(0) exp(-4 gamma t) at gamma t = 1
    gamma = 1.0
    spec = xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [gamma])
    x0 = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2, w=0.15)
    traj = xs.evolve(spec, x0, dt=1e-3, t_max=1.0, sample_every=1000)
    deph_err = abs(complex(traj.states[-1].z).real - 0.2 * math.exp(-4.0))
    # leakage: preserving generators, 100 random initial states, 1000 steps
    # of the full 16x16 propagation, whose off-pattern part evolve never forms
    leak_ok = True
    damping = xs.LindbladSpec.from_rates(
        [np.kron(SM, np.eye(2)), np.kron(np.eye(2), SM)], [0.7, 1.3]
    )
    for i in range(100):
        gen = spec if i % 2 == 0 else damping
        _, leak = xs.propagate(gen, xs.random_xstate(7, i).to_matrix(), 1e-3, 1000)
        leak_ok = leak_ok and leak <= 1e-10
    control = xs.LindbladSpec(
        operators=(pauli_string_matrix("ZI"), pauli_string_matrix("XI")),
        coupling=np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex),
    )
    _, control_leak = xs.propagate(control, xs.werner(0.8).to_matrix(), 1e-3, 1000)
    # classification of the named generators and channels
    k0, k1 = damping_kraus_pair(0.35)
    ad_kraus = xs.check_kraus(
        xs.KrausSet((np.kron(k0, np.eye(2)), np.kron(k1, np.eye(2))))
    ).preserving
    ad_lindblad = xs.check_lindblad(
        xs.LindbladSpec.from_rates(
            [np.kron(SM, np.eye(2)), np.kron(np.eye(2), SM)], [1.0, 1.0]
        )
    ).preserving
    h2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    hadamard = xs.check_kraus(xs.KrausSet((np.kron(h2, np.eye(2)),))).preserving
    ok = (
        closure_ok
        and deph_err <= 1e-8
        and leak_ok
        and control_leak > 1e-3
        and ad_kraus
        and ad_lindblad
        and not hadamard
    )
    announce(
        capsys, 9, ok,
        f"16x16 closure {'ok' if closure_ok else 'BROKEN'}; dephasing error at "
        f"gamma t = 1: {deph_err:.2e} (<= 1e-8); preserving leakage <= 1e-10: "
        f"{leak_ok}; cross-grade control leakage {control_leak:.2e} (> 1e-3); "
        f"damping Kraus/Lindblad preserving: {ad_kraus}/{ad_lindblad}; "
        f"Hadamard preserving: {hadamard} (expected False)",
    )


def test_criterion_10_dephasing_limit(capsys):
    worst = 0.0
    for i in range(100):
        psi = xs.random_pure(SEED + 200, i)
        x = xs.from_matrix(xs.dephase_average(psi, 50.0))
        lim = xs.x_limit(psi)
        worst = max(
            worst,
            abs(x.a - lim.a), abs(x.b - lim.b), abs(x.c - lim.c), abs(x.d - lim.d),
            abs(complex(x.z) - complex(lim.z)), abs(complex(x.w)),
        )
    ok = worst <= 1e-8
    announce(
        capsys, 10, ok,
        f"max |dephased(t/T2=50) - x_limit| over 100 pure states: {worst:.2e} (<= 1e-8)",
    )
