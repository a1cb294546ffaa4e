"""Correlation quantifiers against brute-force dense references and the
frozen closed-form spot values."""

import math

import numpy as np
import pytest

import xstates as xs
from xstates.errors import NotMMM, UnnormalizedPhases
from conftest import (
    dense_concurrence,
    dense_fef,
    dense_negativity,
    dense_schmidt_values,
    haar_unitary_2x2,
    random_states,
)

# Werner(eps = 1/2) discord; closed form
# (1-e)/4 log2(1-e) + (1+3e)/4 log2(1+3e) - (1+e)/2 log2(1+e)
WERNER_HALF_DISCORD = 0.26248318376373436


def werner_discord(eps: float) -> float:
    return (
        (1 - eps) / 4 * math.log2(1 - eps)
        + (1 + 3 * eps) / 4 * math.log2(1 + 3 * eps)
        - (1 + eps) / 2 * math.log2(1 + eps)
    )


class TestConcurrence:
    def test_bell(self):
        assert xs.concurrence(xs.bell(0)) == 1.0

    def test_werner_closed_form(self):
        assert xs.concurrence(xs.werner(0.5)) == pytest.approx(0.25, abs=1e-15)
        assert xs.concurrence(xs.werner(1 / 3)) == pytest.approx(0.0, abs=1e-15)
        assert xs.concurrence(xs.werner(0.2)) == 0.0

    def test_matches_wootters_spin_flip(self, corpus_small):
        for x in corpus_small[:300]:
            assert xs.concurrence(x) == pytest.approx(
                dense_concurrence(x.to_matrix()), abs=1e-10
            )


class TestNegativity:
    def test_product_state(self):
        assert xs.negativity(xs.validate(1, 0, 0, 0)) == 0.0

    def test_bell(self):
        assert xs.negativity(xs.bell(0)) == pytest.approx(0.5, abs=1e-15)

    def test_werner(self):
        assert xs.negativity(xs.werner(0.5)) == pytest.approx(0.125, abs=1e-15)

    def test_matches_dense_partial_transpose(self, corpus_small):
        for x in corpus_small[:300]:
            assert xs.negativity(x) == pytest.approx(
                dense_negativity(x.to_matrix()), abs=1e-10
            )

    def test_zero_set_equivalence(self, corpus_small):
        # PPT iff separable for two qubits: both measures vanish together
        for x in corpus_small:
            assert (xs.concurrence(x) <= 1e-10) == (xs.negativity(x) <= 1e-10)


class TestFef:
    def test_bell(self):
        assert xs.fef(xs.bell(0)) == 1.0

    def test_maximally_mixed(self):
        assert xs.fef(xs.werner(0.0)) == pytest.approx(-0.5)

    def test_werner(self):
        assert xs.fef(xs.werner(0.5)) == pytest.approx(0.25, abs=1e-15)

    def test_matches_dense_bell_overlaps(self, corpus_small):
        for x in corpus_small[:300]:
            assert xs.fef(x) == pytest.approx(dense_fef(x.to_matrix()), abs=1e-10)

    def test_concurrence_bounds(self, corpus_small):
        for x in corpus_small:
            e = xs.fef(x)
            if e < 0:
                continue
            c = xs.concurrence(x)
            assert e - 1e-9 <= c <= 0.5 * (e + 1.0) + 1e-9

    def test_dominates_sampled_maximally_entangled_overlaps(self):
        # 1000 random maximally entangled vectors probed against 100 states
        rng = np.random.default_rng(2024)
        phi0 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        probes = np.stack([
            np.kron(haar_unitary_2x2(rng), haar_unitary_2x2(rng)) @ phi0
            for _ in range(1000)
        ])
        for x in random_states(100, seed=41, complex_phases=True):
            m = x.to_matrix()
            fidelity = 0.5 * (xs.fef(x) + 1.0)
            overlaps = np.einsum("ij,jk,ik->i", probes.conj(), m, probes).real
            assert fidelity >= float(overlaps.max()) - 1e-9


class TestSchmidt:
    def test_product_basis_state(self):
        ss = xs.schmidt_spectrum(xs.validate(1, 0, 0, 0))
        assert ss.values == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)
        assert xs.schmidt_number(ss) == 1

    def test_bell_states_saturate(self):
        for i in range(4):
            ss = xs.schmidt_spectrum(xs.normalize_phases(xs.bell(i)).state)
            assert ss.values == pytest.approx([0.5] * 4, abs=1e-12)
            assert xs.schmidt_number(ss) == 4

    def test_werner(self):
        ss = xs.schmidt_spectrum(xs.werner(0.5))
        assert ss.values == pytest.approx([0.5, 0.25, 0.25, 0.25], abs=1e-12)
        assert xs.schmidt_number(ss) == 4

    def test_square_sum_is_purity(self, corpus_small):
        for x in corpus_small:
            ss = xs.schmidt_spectrum(x)
            assert float((ss.values**2).sum()) == pytest.approx(xs.purity(x), abs=1e-10)

    def test_matches_dense_svd(self, corpus_small):
        for x in corpus_small[:300]:
            ours = xs.schmidt_spectrum(x).values
            dense = dense_schmidt_values(x.to_matrix())
            assert np.abs(ours - dense).max() < 1e-10

    def test_complex_coherences_rejected(self):
        x = xs.validate(0.25, 0.25, 0.25, 0.25, z=0.1j)
        with pytest.raises(UnnormalizedPhases):
            xs.schmidt_spectrum(x)

    @pytest.mark.parametrize("dz, number", [(1e-9, 4), (1e-11, 3)])
    def test_threshold_boundary(self, dz, number):
        # the least singular value is |z| - |w|, and the literal values pin
        # SCHMIDT_THRESHOLD = 1e-10 from both sides
        x = xs.validate(0.3, 0.2, 0.2, 0.3, z=0.1 + dz, w=0.1)
        assert xs.schmidt_number(xs.schmidt_spectrum(x)) == number


class TestGeometricDiscord:
    def test_diagonal_states_vanish(self):
        x = xs.validate(0.3, 0.2, 0.3, 0.2)
        for variant in ("general", "paper"):
            assert xs.geometric_discord(x, variant=variant) == 0.0

    def test_werner_equals_eps_squared_half(self):
        for eps in (0.1, 0.3, 0.5, 0.9):
            assert xs.geometric_discord(xs.werner(eps)) == pytest.approx(
                eps * eps / 2.0, abs=1e-10
            )
        assert xs.geometric_discord(xs.werner(0.5), variant="paper") == pytest.approx(
            0.125, abs=1e-12
        )

    def test_variant_discrepancy_witness_coordinates(self):
        # the printed two-branch formula and the eigenvalue construction
        # disagree at these correlation coordinates
        f = xs.FanoParams(A3=0.0, B3=0.0, C1=0.9, C2=0.1, C3=0.8)
        assert xs.geometric_discord_fano(f, variant="general") == pytest.approx(0.1625)
        assert xs.geometric_discord_fano(f, variant="paper") == pytest.approx(0.205)

    def test_variant_discrepancy_on_physical_state(self):
        x = xs.bell_diagonal(0.8, 0.05, 0.1)
        general = xs.geometric_discord(x, variant="general")
        paper = xs.geometric_discord(x, variant="paper")
        assert general == pytest.approx(0.25 * (0.05**2 + 0.1**2), abs=1e-12)
        assert paper == pytest.approx(0.25 * (0.8**2 + 0.05**2), abs=1e-12)
        assert paper - general > 0.1

    def test_general_equals_total_minus_kmax(self, corpus_small):
        # closed-form three-branch minimum against the eigenvalue route
        for x in corpus_small[:200]:
            f = xs.to_fano(xs.normalize_phases(x).state)
            for side, x3 in (("A", f.A3), ("B", f.B3)):
                branches = (
                    f.C2**2 + f.C3**2 + x3**2,
                    f.C1**2 + f.C3**2 + x3**2,
                    f.C1**2 + f.C2**2,
                )
                assert xs.geometric_discord(x, side=side) == pytest.approx(
                    0.25 * min(branches), abs=1e-12
                )

    def test_zero_iff_diagonal_iff_two_schmidt_values(self, corpus_small):
        # on generic random states plus constructed diagonal ones
        for x in corpus_small[:200]:
            diagonal = abs(x.z) <= 1e-10 and abs(x.w) <= 1e-10
            gd = xs.geometric_discord(x)
            nsv = xs.schmidt_number(xs.schmidt_spectrum(x))
            assert (gd <= 1e-10) == diagonal
            assert (nsv <= 2) == diagonal
        for a, b, c, d in ((0.4, 0.3, 0.2, 0.1), (0.25, 0.25, 0.25, 0.25)):
            x = xs.validate(a, b, c, d)
            assert xs.geometric_discord(x) == 0.0
            assert xs.schmidt_number(xs.schmidt_spectrum(x)) <= 2


class TestMMMDiscord:
    def test_maximally_mixed(self):
        assert xs.mmm_discord(xs.werner(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_bell(self):
        assert xs.mmm_discord(xs.bell(0)) == pytest.approx(1.0, abs=1e-12)

    def test_werner_half_frozen_value(self):
        assert xs.mmm_discord(xs.werner(0.5)) == pytest.approx(
            WERNER_HALF_DISCORD, abs=1e-12
        )

    def test_werner_family_closed_form(self):
        for eps in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert xs.mmm_discord(xs.werner(eps)) == pytest.approx(
                werner_discord(eps), abs=1e-12
            )

    def test_non_mmm_rejected(self):
        with pytest.raises(NotMMM):
            xs.mmm_discord(xs.validate(0.4, 0.3, 0.2, 0.1))

    @pytest.mark.parametrize("a3, mmm", [(1e-8, False), (1e-12, True)])
    def test_tolerance_boundary(self, a3, mmm):
        # B3 = 0 and A3 from the literal values, which pin MMM_TOL = 1e-10
        # from both sides
        x = xs.validate((1 + a3) / 4, (1 + a3) / 4, (1 - a3) / 4, (1 - a3) / 4, z=0.1, w=0.05)
        assert (xs.report(x).mmm_discord is not None) == mmm

    def test_spectral_form_equals_signed_four_term_expression(self):
        # the four-term Bell-weight expression with signed coefficients is
        # an algebraic rewrite of 1 + H((1+c)/2) - S; with moduli instead it
        # goes outside the log domain (Werner 1/2 already has 1 - 3|C| < 0)
        rng = np.random.default_rng(15)
        for _ in range(200):
            p = rng.standard_exponential(4)
            p0, p1, p2, p3 = p / p.sum()
            c1 = p0 + p1 - p2 - p3
            c2 = -p0 + p1 - p2 + p3
            c3 = p0 - p1 - p2 + p3
            x = xs.bell_diagonal(c1, c2, c3)
            terms = (
                (1 - c1 - c2 - c3), (1 - c1 + c2 + c3),
                (1 + c1 - c2 + c3), (1 + c1 + c2 - c3),
            )
            four_term = 0.25 * sum(t * math.log2(t) for t in terms if t > 0)
            cmax = max(abs(c1), abs(c2), abs(c3))
            tail = sum(
                -0.5 * (1 + s * cmax) * math.log2(1 + s * cmax)
                for s in (-1, 1) if 1 + s * cmax > 0
            )
            assert xs.mmm_discord(x) == pytest.approx(four_term + tail, abs=1e-10)
        assert 1 - 3 * 0.5 < 0  # moduli version is undefined there


class TestApproxDiscord:
    def test_uniform_diagonal(self):
        r = xs.approx_discord(xs.werner(0.0))
        assert r.q == pytest.approx(0.0, abs=1e-12)
        assert min(r.n1, r.n2) == pytest.approx(1.0, abs=1e-12)

    def test_bell(self):
        r = xs.approx_discord(xs.bell(0))
        assert r.q == pytest.approx(1.0, abs=1e-12)
        assert r.classical_correlation == pytest.approx(1.0, abs=1e-12)
        assert (r.n1, r.n2) == (0.0, 0.0)

    def test_werner_half_frozen_values(self):
        r = xs.approx_discord(xs.werner(0.5))
        assert r.n1 == pytest.approx(0.8112781244591328, abs=1e-12)
        assert r.n2 == pytest.approx(0.8112781244591328, abs=1e-12)
        assert r.q == pytest.approx(WERNER_HALF_DISCORD, abs=1e-12)
        assert r.classical_correlation == pytest.approx(0.18872187554086717, abs=1e-12)
        assert r.mutual_information == pytest.approx(0.45120505930460153, abs=1e-12)

    def test_additivity_identity(self, corpus_small):
        for x in corpus_small[:200]:
            r = xs.approx_discord(x)
            assert r.q + r.classical_correlation == pytest.approx(
                r.mutual_information, abs=1e-12
            )
            assert r.q >= -2e-3

    def test_side_a_is_swapped_problem(self, corpus_small):
        for x in corpus_small[:50]:
            ra = xs.approx_discord(x, side="A")
            rb = xs.approx_discord(x.swap_qubits(), side="B")
            assert ra.q == pytest.approx(rb.q, abs=1e-12)
            assert ra.n1 == pytest.approx(rb.n1, abs=1e-12)

    def test_pure_state_radicand_clamp(self):
        # boundary pure state: the N1 square root argument rounds above 1
        x = xs.validate(0.5, 0.0, 0.0, 0.5, w=0.5)
        r = xs.approx_discord(x)
        assert r.n1 == 0.0
        assert r.q == pytest.approx(1.0, abs=1e-12)


class TestMid:
    def test_bell(self):
        assert xs.mid(xs.bell(0)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_state(self):
        assert xs.mid(xs.validate(0.4, 0.3, 0.2, 0.1)) == pytest.approx(0.0, abs=1e-12)

    def test_werner_half_frozen_value(self):
        assert xs.mid(xs.werner(0.5)) == pytest.approx(WERNER_HALF_DISCORD, abs=1e-10)

    def test_equals_approx_discord_on_werner_family(self):
        for eps in np.arange(0.1, 0.95, 0.1):
            x = xs.werner(float(eps))
            assert xs.mid(x) == pytest.approx(xs.approx_discord(x).q, abs=1e-9)

    def test_equals_approx_discord_on_pure_states(self):
        # pure X states: either w = 0 with bc = z^2 or z = 0 with ad = w^2
        rng = np.random.default_rng(77)
        for _ in range(100):
            p = rng.uniform(0.05, 0.95)
            if rng.random() < 0.5:
                x = xs.validate(p, 0, 0, 1 - p, w=math.sqrt(p * (1 - p)))
            else:
                x = xs.validate(0, p, 1 - p, 0, z=math.sqrt(p * (1 - p)))
            assert xs.mid(x) == pytest.approx(xs.approx_discord(x).q, abs=1e-9)


class TestReport:
    def test_bell_report(self):
        r = xs.report(xs.bell(0))
        assert r.concurrence == 1.0
        assert r.negativity == pytest.approx(0.5)
        assert r.fef == 1.0
        assert r.fef_fidelity == 1.0
        assert r.approx_discord == pytest.approx(1.0, abs=1e-12)
        assert r.mid == pytest.approx(1.0, abs=1e-12)
        assert r.mmm_discord == pytest.approx(1.0, abs=1e-12)
        assert r.schmidt_number == 4

    def test_maximally_mixed_report(self):
        r = xs.report(xs.werner(0.0))
        assert r.concurrence == r.negativity == 0.0
        assert r.fef == pytest.approx(-0.5)
        assert r.approx_discord == pytest.approx(0.0, abs=1e-12)
        assert r.mid == pytest.approx(0.0, abs=1e-12)
        assert r.geometric_discord_general == 0.0

    def test_mmm_field_absent_for_generic_state(self):
        r = xs.report(xs.validate(0.4, 0.3, 0.2, 0.1, z=0.1))
        assert r.mmm_discord is None

    def test_report_is_immutable(self):
        r = xs.report(xs.werner(0.5))
        with pytest.raises(AttributeError):
            r.concurrence = 0.0

    def test_single_state_dict_holds_python_values(self, corpus_small):
        for x in corpus_small[:20] + [xs.werner(0.5), xs.bell(1)]:
            r = xs.report(x)
            d = r.to_dict()
            assert list(d) == [
                "concurrence", "negativity", "fef", "fef_fidelity",
                "schmidt_values", "schmidt_number", "geometric_discord_general",
                "geometric_discord_paper", "approx_discord",
                "classical_correlation", "mutual_information", "mid",
                "mmm_discord", "side",
            ]
            assert d["side"] == "B"
            values = d.pop("schmidt_values")
            assert type(values) is list and len(values) == 4
            assert all(type(v) is float for v in values)
            assert all(v is None or type(v) in (float, int, str) for v in d.values())
            values.append(1.0)  # a fresh list: the report keeps its tuple
            assert type(r.schmidt_values) is tuple and len(r.schmidt_values) == 4
            assert r.to_dict()["schmidt_values"] == values[:4]

    def test_ranges_and_serialization(self, corpus_small):
        for x in corpus_small[:100]:
            r = xs.report(x)
            for value in (r.concurrence, r.negativity, r.mid, r.approx_discord):
                assert -2e-3 <= value <= 1.0 + 1e-9
            assert r.schmidt_number in (1, 2, 3, 4)
            d = r.to_dict()
            assert set(d) == {
                "concurrence", "negativity", "fef", "fef_fidelity",
                "schmidt_values", "schmidt_number", "geometric_discord_general",
                "geometric_discord_paper", "approx_discord",
                "classical_correlation", "mutual_information", "mid",
                "mmm_discord", "side",
            }
