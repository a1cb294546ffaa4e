"""The brute-force discord oracle: conditional entropies, minimization,
and the approximation-error campaign."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xstates as xs
from xstates import fileio, measures, oracle
from xstates.oracle import CAMPAIGN_THRESHOLDS, MeasurementBasis
from conftest import (
    brute_force_min_conditional_entropy,
    dense_conditional_entropy,
    random_states,
)
from test_measures import WERNER_HALF_DISCORD, werner_discord
from test_output_bytes import edge_states

HARD_INTERIOR = xs.validate(
    0.8436606148068005, 0.05924944035589033,
    0.010118788096960044, 0.08697115674034903,
    z=0.023585058477367974, w=0.20574278137330584,
)

# sigma_z and sigma_x give the same conditional entropy within 2e-15, and the
# optimum lies between them (a search over states found its approximate
# discord's largest error here)
TIED_CANDIDATES = xs.validate(
    0.0289972371599611, 0.943110617484378, 0.027503475642149514, 0.0003886697135111858,
    z=0.14135527749366156, w=4.12215082702831e-05,
)


@st.composite
def phase_normalized_states(draw):
    """Populations on the simplex, real non-negative coherences as
    fractions of their positivity bounds."""
    pops = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    total = sum(pops)
    if total < 1e-3:
        pops, total = [1.0, 1.0, 1.0, 1.0], 4.0
    a, b, c, d = (p / total for p in pops)
    fz, fw = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    return xs.validate(a, b, c, d, z=fz * math.sqrt(b * c), w=fw * math.sqrt(a * d))


ANGLE_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


class TestMeasurementBasis:
    def test_projectors_complete(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
            p0, p1 = basis.projectors()
            assert np.abs(p0 + p1 - np.eye(2)).max() < 1e-14
            assert np.abs(p0 @ p0 - p0).max() < 1e-14


class TestConditionalEntropy:
    def test_product_state_gives_marginal_entropy(self):
        # conditioning on B cannot change A for a product state
        pa, pb = 0.3, 0.8
        x = xs.validate(pa * pb, pa * (1 - pb), (1 - pa) * pb, (1 - pa) * (1 - pb))
        s_a = -(pa * math.log2(pa) + (1 - pa) * math.log2(1 - pa))
        rng = np.random.default_rng(11)
        for _ in range(20):
            basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
            assert xs.conditional_entropy(x, basis) == pytest.approx(s_a, abs=1e-12)

    def test_bell_sigma_z_basis(self):
        assert xs.conditional_entropy(xs.bell(0), MeasurementBasis(0.0, 0.0)) == 0.0

    def test_werner_at_candidate_point(self):
        ce = xs.conditional_entropy(xs.werner(0.5), MeasurementBasis(math.pi / 4, 0.0))
        assert ce == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_matches_dense_construction(self, corpus_small):
        # independent reference: explicit projectors, partial trace, eigh
        rng = np.random.default_rng(3)
        for x in corpus_small[:40]:
            basis = MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
            p0, p1 = basis.projectors()
            m = x.to_matrix()
            expected = 0.0
            for proj in (p0, p1):
                big = np.kron(np.eye(2), proj)
                sub = big @ m @ big
                p = float(np.trace(sub).real)
                if p < 1e-14:
                    continue
                conditioned = np.trace(
                    (sub / p).reshape(2, 2, 2, 2), axis1=1, axis2=3
                )
                ev = np.linalg.eigvalsh(conditioned)
                ev = ev[ev > 1e-15]
                expected += p * float(-(ev * np.log2(ev)).sum())
            got = xs.conditional_entropy(x, basis)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_rare_outcome_counts(self):
        # the sigma_z outcome |1> on B has probability b + d = 1e-12, above
        # the 1e-14 cut, and adds about 1e-12 bits
        a, b = 0.6, 5e-13
        x = xs.validate(a, b, 1 - a - 2 * b, b, z=0.5 * math.sqrt(b * (1 - a - 2 * b)),
                        w=0.3 * math.sqrt(a * b))
        dense = float(dense_conditional_entropy(x.to_matrix(), 0.0, 0.0))
        assert abs(xs.conditional_entropy(x, MeasurementBasis(0.0, 0.0)) - dense) <= 1e-14

    def test_candidate_points_match_approx_entropies(self):
        # theta = pi/4 reproduces N1, theta = pi/2 reproduces N2
        for x in random_states(300, seed=19):
            r = xs.approx_discord(x)
            n1 = xs.conditional_entropy(x, MeasurementBasis(math.pi / 4, 0.0))
            n2 = xs.conditional_entropy(x, MeasurementBasis(math.pi / 2, 0.0))
            assert n1 == pytest.approx(r.n1, abs=1e-10)
            assert n2 == pytest.approx(r.n2, abs=1e-10)


def one_line_entropy_sums(t, dd, e, f, q, theta):
    """The expression that :func:`oracle._conditional_entropy_sums`
    evaluates in place, written as one line of temporaries."""
    c2 = np.multiply.outer(np.array([1.0, -1.0]), np.cos(2.0 * theta))
    s2 = np.sin(2.0 * theta)
    pp = t + c2 * dd
    n = e + c2 * f
    lam = np.minimum(0.5 + 0.5 * np.sqrt(n * n + q * (s2 * s2)) / np.maximum(pp, 1e-300), 1.0)
    rest = 1.0 - lam
    h = -(lam * np.log2(lam) + rest * np.log2(np.maximum(rest, 1e-300)))
    return 0.5 * np.where(pp < 2e-14, 0.0, pp * h).sum(axis=0)


def scan_sums(batch):
    """The oracle's sums of a batch, one state per row."""
    a, b, c, d, zw = (np.asarray(v, dtype=float).reshape(-1, 1)
                      for v in (batch.a, batch.b, batch.c, batch.d, batch.abs_z + batch.abs_w))
    return oracle._sums(a, b, c, d, zw * zw)


# populations with b = d: at theta = 0 outcome |1> of B has pp = 2 (b + d),
# exactly 0 for b = d = 0 and 1.2e-14, inside the cut, for b = d = 3e-15
RARE_OUTCOME_STATES = xs.stack([
    xs.validate(a, b, 1.0 - a - 2.0 * b, b, z=0.5 * math.sqrt(b * (1.0 - a - 2.0 * b)))
    for a in (0.3, 0.6) for b in (0.0, 3e-15)
])


class TestInPlaceKernel:
    """The in-place evaluation gives the bits of the one-line expression."""

    @staticmethod
    def assert_same_bits(*args):
        with np.errstate(all="raise", under="ignore"):  # as the CLI runs it
            got = oracle._conditional_entropy_sums(*args)
            want = one_line_entropy_sums(*args)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 100, 256])
    @pytest.mark.parametrize("grid", [2, 64])
    def test_grid_scans(self, n, grid):
        sums = scan_sums(xs.random_xstates(13, 0, n))
        self.assert_same_bits(*sums, oracle._scan_angles(grid)[None])

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_rescans_with_per_state_angles(self, n):
        sums = scan_sums(xs.random_xstates(17, 0, n))
        theta = np.random.default_rng(n).uniform(0.0, math.pi / 4, (n, oracle.REFINE_POINTS))
        self.assert_same_bits(*sums, theta)

    @pytest.mark.parametrize("block", [1, 64 * 7, oracle.SCAN_BLOCK, 64 * 1000])
    def test_scan_blocks_keep_the_bits(self, monkeypatch, block):
        # 300 states: whole blocks, a short last one, and one block of all
        states = xs.random_xstates(19, 0, 300)
        want = xs.discord_oracle(states)
        calls, kernel = [], oracle._conditional_entropy_sums
        monkeypatch.setattr(oracle, "SCAN_BLOCK", block)
        monkeypatch.setattr(oracle, "_conditional_entropy_sums",
                            lambda *args: calls.append(args[0].shape[0]) or kernel(*args))
        got = xs.discord_oracle(states)
        rows = max(1, block // 64)
        assert calls[:-(-300 // rows)] == [min(rows, 300 - i) for i in range(0, 300, rows)]
        for name in ("q_min", "theta", "refined", "min_conditional_entropy"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_impossible_and_rare_outcomes(self):
        sums = scan_sums(RARE_OUTCOME_STATES)
        t, dd = sums[0][:, 0], sums[1][:, 0]
        assert list(t - dd == 0.0) == [True, False, True, False]
        assert all((0.0 < p < 2e-14) for p in (t - dd)[1::2])
        self.assert_same_bits(*sums, oracle._scan_angles(64)[None])
        self.assert_same_bits(*sums, np.tile([0.0, 1e-9, 0.3], (4, 1)))

    def test_scalar_conditional_entropy(self, monkeypatch):
        calls = []
        kernel = oracle._conditional_entropy_sums
        monkeypatch.setattr(oracle, "_conditional_entropy_sums",
                            lambda *args: calls.append(args) or kernel(*args))
        states = random_states(20, seed=23, complex_phases=True) + xs.unstack(
            RARE_OUTCOME_STATES)
        rng = np.random.default_rng(5)
        for x in states:
            for basis in (MeasurementBasis(0.0, 0.0),
                          MeasurementBasis(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))):
                with np.errstate(all="raise", under="ignore"):
                    got = xs.conditional_entropy(x, basis)
                want = one_line_entropy_sums(*calls[-1])
                assert type(got) is type(want) and got.tobytes() == want.tobytes()


class TestConditionalEntropyBatch:
    """A batch measured in one basis gives one value per state, the bits of
    each state's own call."""

    @pytest.mark.parametrize("n", [1, 2, 3, 257])
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("complex_phases", [False, True])
    def test_batch_equals_each_state(self, n, side, complex_phases):
        batch = xs.random_xstates(1, 0, n, complex_phases)
        for basis in (MeasurementBasis(0.3, 0.0), MeasurementBasis(1.1, 2.5)):
            got = xs.conditional_entropy(batch, basis, side)
            want = np.array([xs.conditional_entropy(x, basis, side) for x in xs.unstack(batch)])
            assert got.shape == (n,)
            assert got.tobytes() == want.tobytes()


class TestDiscordOracle:
    def test_classical_product_state(self):
        assert xs.discord_oracle(xs.validate(1, 0, 0, 0)).q_min == pytest.approx(
            0.0, abs=1e-9
        )

    def test_bell(self):
        assert xs.discord_oracle(xs.bell(0)).q_min == pytest.approx(1.0, abs=1e-9)

    def test_werner_against_closed_form(self):
        res = xs.discord_oracle(xs.werner(0.5))
        assert res.q_min == pytest.approx(WERNER_HALF_DISCORD, abs=1e-6)
        for eps in (0.2, 0.7, 0.95):
            assert xs.discord_oracle(xs.werner(eps)).q_min == pytest.approx(
                werner_discord(eps), abs=1e-6
            )

    def test_diagonal_states_have_zero_discord(self):
        for x in (xs.validate(0.4, 0.3, 0.2, 0.1), xs.validate(0.7, 0.1, 0.15, 0.05)):
            assert xs.discord_oracle(x).q_min == pytest.approx(0.0, abs=1e-9)

    def test_q_nonnegative(self, corpus_small):
        for x in corpus_small[:50]:
            assert xs.discord_oracle(x).q_min >= -1e-9

    def test_grid_refinement_monotone(self):
        for x in random_states(20, seed=29):
            q32 = xs.discord_oracle(x, grid=32).q_min
            q64 = xs.discord_oracle(x, grid=64).q_min
            q128 = xs.discord_oracle(x, grid=128).q_min
            assert q64 <= q32 + 1e-10
            assert q128 <= q64 + 1e-10

    @pytest.mark.parametrize("grid", [2, 3, 8])
    def test_precision_independent_of_grid(self, grid):
        # the grid only seeds the search; the rescans run to a fixed spacing
        for x in random_states(30, seed=31) + [HARD_INTERIOR]:
            coarse = xs.discord_oracle(x, grid=grid)
            fine = xs.discord_oracle(x, grid=64)
            assert coarse.q_min == pytest.approx(fine.q_min, abs=1e-12)
            assert coarse.refinement_iterations >= fine.refinement_iterations

    @pytest.mark.parametrize("grid", [2, 64])
    def test_interior_minimum_resolved_to_rounding(self, grid):
        # Brent's method to 1e-12 rad around the oracle's angle, on the same
        # objective: the scan's fixed final spacing must leave nothing to gain
        from scipy.optimize import minimize_scalar

        res = xs.discord_oracle(HARD_INTERIOR, grid=grid)

        def objective(theta):
            return xs.conditional_entropy(HARD_INTERIOR, MeasurementBasis(theta, 0.0))

        brent = minimize_scalar(objective, method="bounded",
                                bounds=(res.theta - 1e-3, res.theta + 1e-3),
                                options={"xatol": 1e-12})
        assert res.min_conditional_entropy <= brent.fun + 4e-15

    def test_min_never_beats_candidate_entropies(self, corpus_small):
        for x in corpus_small[:100]:
            r = xs.approx_discord(x)
            res = xs.discord_oracle(x)
            assert min(r.n1, r.n2) >= res.min_conditional_entropy - 1e-9

    def test_side_swap_consistency(self):
        for x in random_states(20, seed=37):
            qa = xs.discord_oracle(x, side="A").q_min
            qb = xs.discord_oracle(x.swap_qubits(), side="B").q_min
            assert qa == pytest.approx(qb, abs=1e-9)

    def test_interior_optimum_found(self):
        # at these parameters the best measurement sits strictly between
        # the two candidate angles; the scan must catch the gap
        r = xs.approx_discord(HARD_INTERIOR)
        res = xs.discord_oracle(HARD_INTERIOR)
        gap = min(r.n1, r.n2) - res.min_conditional_entropy
        assert gap > 1e-4
        assert 0.0 < res.theta < math.pi / 4
        assert res.phi == 0.0

    def test_phase_invariance(self):
        for x in random_states(20, seed=43, complex_phases=True):
            q_complex = xs.discord_oracle(x).q_min
            q_real = xs.discord_oracle(xs.normalize_phases(x).state).q_min
            assert q_complex == pytest.approx(q_real, abs=1e-9)

    def test_matches_independent_global_optimizer(self):
        # third route: scipy's annealer on the same objective
        from scipy.optimize import dual_annealing

        for x in random_states(8, seed=47) + [HARD_INTERIOR, xs.werner(0.7)]:
            res = xs.discord_oracle(x)

            def objective(p, state=x):
                return xs.conditional_entropy(state, MeasurementBasis(p[0], p[1]))

            annealed = dual_annealing(
                objective, bounds=[(0.0, math.pi / 2), (0.0, 2 * math.pi)],
                seed=1, maxiter=300,
            )
            assert res.min_conditional_entropy <= annealed.fun + 1e-9
            assert res.min_conditional_entropy >= annealed.fun - 1e-7

    def test_matches_brute_force_2d_reference(self):
        # the one-angle search is exact: never above the two-angle dense
        # reference, and below it only by the reference's own inaccuracy
        for x in random_states(200, seed=53) + [HARD_INTERIOR]:
            ref = brute_force_min_conditional_entropy(x)
            got = xs.discord_oracle(x).min_conditional_entropy
            assert ref - 1e-9 <= got <= ref + 1e-12


# the angles of a dense scan of [0, pi/4] at phi = 0
DENSE_THETAS = np.linspace(0.0, math.pi / 4, 2001)


def edge_and_flat_states():
    """:func:`edge_states` (Bell, Werner with the maximally mixed state,
    diagonal, zero populations, coherences at their bounds) plus a = c,
    b = d and pure states."""
    return edge_states() + [
        xs.validate(0.3, 0.2, 0.3, 0.2, z=0.1, w=0.05),
        xs.validate(0.4, 0.15, 0.3, 0.15, z=0.1, w=0.2),
        xs.validate(0.3, 0.0, 0.0, 0.7, w=math.sqrt(0.21)),
        xs.validate(0.0, 0.2, 0.8, 0.0, z=0.4),
    ]


class TestSkipRule:
    """The scan's endpoint is kept unless the optimum can be interior."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(phase_normalized_states(), st.sampled_from([2, 3, 64]))
    # interior optima, which drawn states seldom have; grid 2 scans only the
    # endpoints, so there the slope alone must send the state on
    @example(HARD_INTERIOR, 2)
    @example(TIED_CANDIDATES, 3)
    @example(xs.random_xstate(4, 15818), 2)
    def test_unrefined_endpoint_is_the_minimum(self, x, grid):
        res = xs.discord_oracle(x, grid=grid)
        dense = xs.conditional_entropy(x, MeasurementBasis(DENSE_THETAS, 0.0))
        assert res.min_conditional_entropy <= dense.min() + 1e-14
        if not res.refined:
            assert res.theta in (0.0, math.pi / 4)
            assert dense.min() >= res.min_conditional_entropy - 1e-14

    @pytest.mark.parametrize("grid", [2, 3, 64])
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_edge_states(self, grid, side):
        for x in edge_and_flat_states():
            with np.errstate(all="raise", under="ignore"):  # as the CLI runs it
                res = xs.discord_oracle(x, side=side, grid=grid)
            fine = xs.discord_oracle(x, side=side, grid=64)
            assert res.q_min == pytest.approx(fine.q_min, abs=1e-12)
            st_ = xs.normalize_phases(x if side == "B" else x.swap_qubits()).state
            dense = xs.conditional_entropy(st_, MeasurementBasis(DENSE_THETAS, 0.0))
            assert res.min_conditional_entropy <= dense.min() + 1e-14
            if not res.refined:
                assert res.theta in (0.0, math.pi / 4)
                assert dense.min() >= res.min_conditional_entropy - 1e-14


class TestOneAngleReduction:
    """The two facts that reduce the oracle's search to theta in [0, pi/4]
    at phi = 0, on phase-normalised states."""

    @ANGLE_PROPERTY
    @given(phase_normalized_states(), st.floats(0.0, math.pi / 2),
           st.floats(0.0, 2 * math.pi))
    def test_phase_zero_is_optimal(self, x, theta, phi):
        at_phi = xs.conditional_entropy(x, MeasurementBasis(theta, phi))
        at_zero = xs.conditional_entropy(x, MeasurementBasis(theta, 0.0))
        assert at_phi >= at_zero - 1e-12

    @ANGLE_PROPERTY
    @given(phase_normalized_states(), st.floats(0.0, math.pi / 2))
    def test_mirror_symmetric_in_theta(self, x, theta):
        ce = xs.conditional_entropy(x, MeasurementBasis(theta, 0.0))
        mirrored = xs.conditional_entropy(x, MeasurementBasis(math.pi / 2 - theta, 0.0))
        assert ce == pytest.approx(mirrored, abs=1e-12)


class TestClassicalCorrelation:
    def test_bell(self):
        assert xs.discord_oracle(xs.bell(0)).classical_correlation == pytest.approx(1.0, abs=1e-9)

    def test_uniform_diagonal(self):
        assert xs.discord_oracle(xs.werner(0.0)).classical_correlation == pytest.approx(
            0.0, abs=1e-9
        )

    def test_werner(self):
        assert xs.discord_oracle(xs.werner(0.5)).classical_correlation == pytest.approx(
            0.18872187554086717, abs=1e-6
        )

    def test_additivity_with_discord(self, corpus_small):
        for x in corpus_small[:30]:
            res = xs.discord_oracle(x)
            assert res.q_min + res.classical_correlation == pytest.approx(
                res.mutual_information, abs=1e-12
            )


class TestCampaign:
    def test_bell_state_error_tiny(self):
        err = abs(xs.approx_discord(xs.bell(0)).q - xs.discord_oracle(xs.bell(0)).q_min)
        assert err < 1e-9

    def test_small_campaign_statistics(self):
        stats = xs.approx_error_campaign(200, seed=1)
        assert stats.max_err <= 1e-3
        assert stats.mean_err < 1e-4
        d = stats.to_dict()
        assert d["n"] == 200
        assert set(d) == {
            "n", "seed", "grid", "max_err", "mean_err",
            "worst_index", "worst_theta", "refined_fraction",
            "frac_gt_1e3", "frac_gt_1e4", "frac_gt_1e5", "frac_gt_1e6", "frac_gt_1e7",
        }
        fracs = [d[k] for k in ("frac_gt_1e3", "frac_gt_1e4", "frac_gt_1e5",
                                "frac_gt_1e6", "frac_gt_1e7")]
        assert fracs == sorted(fracs)  # thresholds tighten monotonically

    def test_campaign_names_the_worst_state(self):
        # frozen values of the search that rescanned every state; a state
        # refined or not may move by rounding only, 1e-14 in q_min
        with np.errstate(all="raise", under="ignore"):  # as the CLI runs it
            stats = xs.approx_error_campaign(30_000, seed=4)
        assert stats.max_err == pytest.approx(1.6518837961440186e-3, abs=1e-14)
        assert stats.mean_err == pytest.approx(9.391864919724239e-08, abs=1e-14)
        assert stats.fractions == (1 / 30_000, 4 / 30_000, 11 / 30_000, 12 / 30_000,
                                   12 / 30_000)
        # the error is nonzero only at an interior optimum, which was rescanned
        # and kept its bits
        assert stats.worst_index == 15818
        assert stats.worst_theta == 0.33653651348957253
        worst = xs.random_xstate(4, stats.worst_index)
        err = abs(xs.approx_discord(worst).q - xs.discord_oracle(worst).q_min)
        assert err == pytest.approx(stats.max_err, abs=1e-14)
        assert 12 / 30_000 <= stats.refined_fraction < 1e-3

    def test_campaign_deterministic(self):
        s1 = xs.approx_error_campaign(50, seed=9)
        s2 = xs.approx_error_campaign(50, seed=9)
        assert s1 == s2

    def test_progress_every_thousand_states(self):
        done = []
        stats = xs.approx_error_campaign(2500, seed=3, progress=done.append)
        assert done == [1000, 2000]
        assert stats.n == 2500

    def test_bytes_independent_of_chunk(self, monkeypatch):
        # the chunk only sets the batch size; 7 leaves a short last batch
        outputs = set()
        for chunk in (1, 7, 100, 500, 1000):
            monkeypatch.setattr(oracle, "CAMPAIGN_CHUNK", chunk)
            outputs.add(fileio.dumps(xs.approx_error_campaign(1000, seed=2).to_dict()))
        assert len(outputs) == 1

    def test_one_entropy_pass_per_chunk(self, monkeypatch):
        sizes, entropies = [], measures._state_entropies

        def counted(x, side):
            sizes.append(x.a.size)
            return entropies(x, side)

        for module in (oracle, measures):
            monkeypatch.setattr(module, "_state_entropies", counted)
        xs.approx_error_campaign(1256, seed=2)
        assert sizes == [500, 500, 256]

    def test_oracle_result_carries_its_entropies(self):
        batch = xs.random_xstates(5, 0, 50, complex_phases=True)
        for side in "AB":
            res = xs.discord_oracle(batch, side=side)
            want = measures._state_entropies(batch, side)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(res.entropies, want))
            approx = measures._approx(res.entropies, side).q
            assert approx.tobytes() == xs.approx_discord(batch, side).q.tobytes()
        # the entropies take no part in equality or repr
        one = xs.discord_oracle(xs.werner(0.5))
        assert one == dataclasses.replace(one, entropies=None)
        assert "entropies" not in repr(one)

    def test_thresholds_fixed(self):
        assert CAMPAIGN_THRESHOLDS == (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
