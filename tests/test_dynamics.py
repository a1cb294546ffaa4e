"""Operator grading, superoperators and the preservation rule, channels,
exact propagation, and entanglement-sudden-death detection."""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xstates as xs
from xstates import dynamics, fileio
from xstates.cli import main
from xstates.core import X_MASK
from xstates.dynamics import Grade, pauli_string_matrix, pauli_tensor
from xstates.errors import (
    CompletenessViolated,
    InvalidCoupling,
    NonOrthonormalOperators,
    NotHermitian,
    NotPreserving,
    StepRejected,
)
from conftest import random_states

SM = np.array([[0, 1], [0, 0]], dtype=complex)  # lowering operator |0><1|

# the eight Pauli strings supported on the X pattern
X_STRINGS = {"II", "ZI", "IZ", "XX", "YY", "ZZ", "XY", "YX"}


def damping_kraus_pair(g: float):
    k0 = np.diag([1.0, math.sqrt(1.0 - g)]).astype(complex)
    k1 = math.sqrt(g) * SM
    return k0, k1


def double_damping_channel(g: float) -> xs.KrausSet:
    k0, k1 = damping_kraus_pair(g)
    return xs.KrausSet(tuple(np.kron(p, q) for p in (k0, k1) for q in (k0, k1)))


def damping_spec(g_a: float = 1.0, g_b: float = 1.0) -> xs.LindbladSpec:
    return xs.LindbladSpec.from_rates(
        [np.kron(SM, np.eye(2)), np.kron(np.eye(2), SM)], [g_a, g_b]
    )


def rotated_damping_on_a(g: float) -> xs.KrausSet:
    """Damping on qubit A with its Kraus pair rotated to (K0 +- K1)/sqrt(2):
    the same channel, but each operator now has both support patterns."""
    k0, k1 = (np.kron(k, np.eye(2)) for k in damping_kraus_pair(g))
    return xs.KrausSet(((k0 + k1) / math.sqrt(2), (k0 - k1) / math.sqrt(2)))


def rotated_zi_xi_spec(gamma: float = 1.0) -> xs.LindbladSpec:
    """{ZI, XI} at equal rates rewritten as {(ZI +- XI)/sqrt(2)}: the same
    generator, with mixed-pattern operators."""
    zi, xi = pauli_string_matrix("ZI"), pauli_string_matrix("XI")
    return xs.LindbladSpec.from_rates(
        [(zi + xi) / math.sqrt(2), (zi - xi) / math.sqrt(2)], [gamma, gamma]
    )


def dense_generator(spec: xs.LindbladSpec, rho: np.ndarray) -> np.ndarray:
    """The master equation's right-hand side, written out term by term."""
    out = np.zeros((4, 4), dtype=complex)
    if spec.hamiltonian is not None:
        h = spec.hamiltonian
        out += -1j * (h @ rho - rho @ h)
    for n, ln in enumerate(spec.operators):
        for m, lm in enumerate(spec.operators):
            lmd = lm.conj().T
            out += spec.coupling[n, m] * (2 * ln @ rho @ lmd - rho @ lmd @ ln - lmd @ ln @ rho)
    return out


def random_unitary(entries) -> np.ndarray:
    """Q of the QR factorisation of a square matrix of (re, im) pairs."""
    k = math.isqrt(len(entries))
    g = np.array([complex(re, im) for re, im in entries]).reshape(k, k)
    return np.linalg.qr(g)[0]


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


class TestGrading:
    def test_examples(self):
        assert xs.grade(pauli_string_matrix("XX")).grade is Grade.X
        assert xs.grade(pauli_string_matrix("XI")).grade is Grade.OFF_X
        mixed = pauli_string_matrix("XX") + pauli_string_matrix("XI")
        assert xs.grade(mixed).grade is Grade.MIXED
        assert xs.grade(np.zeros((4, 4))).grade is Grade.ZERO

    def test_parts_partition_matrix(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = xs.grade(m)
        assert np.abs(g.x_part + g.off_part - m).max() == 0.0
        assert np.abs(np.where(xs.dynamics.X_MASK, 0.0, g.x_part)).max() == 0.0
        assert np.abs(np.where(xs.dynamics.X_MASK, g.off_part, 0.0)).max() == 0.0

    def test_pauli_coefficients_reconstruct(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = xs.grade(m)
        rec = sum(
            g.pauli[mu, nu] * pauli_tensor(mu, nu) for mu in range(4) for nu in range(4)
        )
        assert np.abs(rec - m).max() < 1e-12

    def test_pauli_basis_split_is_eight_eight(self):
        labels = [p + q for p in "IXYZ" for q in "IXYZ"]
        x_graded = {
            lab for lab in labels
            if xs.grade(pauli_string_matrix(lab)).grade is Grade.X
        }
        assert x_graded == X_STRINGS
        assert {dynamics.PAULI_STRINGS[k] for k in np.flatnonzero(dynamics._X_PAULI)} == X_STRINGS

    def test_grading_closure_exhaustive(self):
        # the support split multiplies as a Z2 grading over all 16x16 products
        labels = [p + q for p in "IXYZ" for q in "IXYZ"]
        for la in labels:
            for lb in labels:
                ga = xs.grade(pauli_string_matrix(la)).grade
                gb = xs.grade(pauli_string_matrix(lb)).grade
                prod = pauli_string_matrix(la) @ pauli_string_matrix(lb)
                gp = xs.grade(prod).grade
                expected = Grade.X if ga == gb else Grade.OFF_X
                assert gp is expected, f"{la} . {lb} -> {gp}"


class TestHamiltonianCheck:
    def test_zz_preserving(self):
        assert xs.check_hamiltonian(pauli_string_matrix("ZZ")).preserving

    def test_xi_not_preserving(self):
        v = xs.check_hamiltonian(pauli_string_matrix("XI"))
        assert not v.preserving
        assert "XI" in v.offenders

    def test_offenders_are_the_off_pattern_pauli_components(self):
        h = (pauli_string_matrix("ZZ") + 0.5 * pauli_string_matrix("XI")
             + 0.25 * pauli_string_matrix("YZ") + 0.125 * pauli_string_matrix("XY"))
        assert xs.check_hamiltonian(h).offenders == ("XI", "YZ")

    def test_zi_preserving_with_phase_rotation(self):
        # H = sigma_z (x) I rotates z by e^{-2 i t} and keeps populations
        spec = xs.LindbladSpec(operators=(), coupling=np.zeros((0, 0)),
                               hamiltonian=pauli_string_matrix("ZI"))
        x0 = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2, w=0.1)
        t = 0.3
        traj = xs.evolve(spec, x0, dt=1e-3, t_max=t, sample_every=300, record=())
        zf = complex(traj.states[-1].z)
        assert zf == pytest.approx(0.2 * np.exp(-2j * t), abs=1e-8)
        assert traj.states[-1].a == pytest.approx(0.4, abs=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            xs.check_hamiltonian(np.triu(np.ones((4, 4))))


class TestLindbladCheck:
    def test_pure_dephasing_preserving(self):
        spec = xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [0.5])
        assert xs.check_lindblad(spec).preserving

    def test_double_damping_preserving(self):
        spec = xs.LindbladSpec.from_rates(
            [np.kron(SM, np.eye(2)), np.kron(np.eye(2), SM)], [1.0, 2.0]
        )
        assert xs.check_lindblad(spec).preserving

    def test_cross_grade_coupling_rejected(self):
        spec = xs.LindbladSpec(
            operators=(pauli_string_matrix("ZI"), pauli_string_matrix("XI")),
            coupling=np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex),
        )
        v = xs.check_lindblad(spec)
        assert not v.preserving
        # offenders name Pauli transfers from an X-pattern input to an
        # off-pattern output, e.g. ZI -> XI through the h[0, 1] coupling
        assert "ZI->XI" in v.offenders
        for name in v.offenders:
            source, target = name.split("->")
            assert source in X_STRINGS and target not in X_STRINGS

    def test_same_grade_coupling_allowed(self):
        spec = xs.LindbladSpec(
            operators=(np.kron(SM, np.eye(2)), np.kron(np.eye(2), SM)),
            coupling=np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex),
        )
        assert xs.check_lindblad(spec).preserving

    def test_mixed_operator_rejected(self):
        mixed = pauli_string_matrix("XX") + pauli_string_matrix("XI")
        spec = xs.LindbladSpec.from_rates([mixed], [1.0])
        assert not xs.check_lindblad(spec).preserving

    def test_non_psd_coupling_rejected(self):
        spec = xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [-1.0])
        with pytest.raises(InvalidCoupling):
            xs.check_lindblad(spec)

    def test_non_hermitian_coupling_rejected(self):
        spec = xs.LindbladSpec(
            operators=(pauli_string_matrix("ZI"), pauli_string_matrix("IZ")),
            coupling=np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
        )
        with pytest.raises(InvalidCoupling):
            xs.check_lindblad(spec)

    def test_non_orthogonal_operators_rejected(self):
        spec = xs.LindbladSpec.from_rates(
            [pauli_string_matrix("ZI"), pauli_string_matrix("ZI")], [1.0, 1.0]
        )
        with pytest.raises(NonOrthonormalOperators):
            xs.check_lindblad(spec)

    def test_identity_component_rejected(self):
        spec = xs.LindbladSpec.from_rates([np.eye(4, dtype=complex)], [1.0])
        with pytest.raises(NonOrthonormalOperators):
            xs.check_lindblad(spec)

    def test_full_operator_basis_accepted_but_not_more(self):
        # all 15 traceless Paulis with diagonal coupling: preserving
        basis = [pauli_string_matrix(p + q) for p in "IXYZ" for q in "IXYZ"][1:]
        assert xs.check_lindblad(xs.LindbladSpec.from_rates(basis, [0.1] * 15)).preserving
        with pytest.raises(NonOrthonormalOperators):
            xs.check_lindblad(xs.LindbladSpec.from_rates(basis + [basis[0]], [0.1] * 16))

    def test_hamiltonian_part_checked(self):
        spec = xs.LindbladSpec(
            operators=(), coupling=np.zeros((0, 0)),
            hamiltonian=pauli_string_matrix("XI"),
        )
        assert not xs.check_lindblad(spec).preserving

    def test_rotated_operator_basis_preserving(self):
        # the same generator as {ZI, XI} at equal rates, which preserves
        assert xs.check_lindblad(rotated_zi_xi_spec()).preserving
        plain = xs.LindbladSpec.from_rates(
            [pauli_string_matrix("ZI"), pauli_string_matrix("XI")], [1.0, 1.0]
        )
        assert xs.check_lindblad(plain).preserving
        diff = xs.superoperator(rotated_zi_xi_spec()) - xs.superoperator(plain)
        assert np.abs(diff).max() < 1e-14

    def test_nan_coupling_rejected(self):
        spec = xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [float("nan")])
        with pytest.raises(InvalidCoupling):
            xs.check_lindblad(spec)


class TestKrausCheck:
    def test_identity_channel(self):
        assert xs.check_kraus(xs.KrausSet((np.eye(4, dtype=complex),))).preserving

    def test_single_qubit_damping_on_a(self):
        k0, k1 = damping_kraus_pair(0.3)
        channel = xs.KrausSet((np.kron(k0, np.eye(2)), np.kron(k1, np.eye(2))))
        verdict = xs.check_kraus(channel)
        assert verdict.preserving
        assert xs.grade(channel.operators[0]).grade is Grade.X
        assert xs.grade(channel.operators[1]).grade is Grade.OFF_X

    def test_hadamard_channel_not_preserving(self):
        h2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        verdict = xs.check_kraus(xs.KrausSet((np.kron(h2, np.eye(2)),)))
        assert not verdict.preserving

    def test_completeness_enforced(self):
        with pytest.raises(CompletenessViolated):
            xs.check_kraus(xs.KrausSet((0.5 * np.eye(4, dtype=complex),)))

    def test_completeness_rejects_nan(self):
        k0, k1 = (np.kron(k, np.eye(2)) for k in damping_kraus_pair(0.3))
        k1[0, 2] = np.nan
        with pytest.raises(CompletenessViolated):
            xs.check_kraus(xs.KrausSet((k0, k1)))

    def test_rotated_damping_pair_preserving(self):
        rotated = rotated_damping_on_a(0.3)
        k0, k1 = (np.kron(k, np.eye(2)) for k in damping_kraus_pair(0.3))
        for x in random_states(5, seed=9):
            m = x.to_matrix()
            same = xs.apply_channel(rotated, m) - xs.apply_channel(xs.KrausSet((k0, k1)), m)
            assert np.abs(same).max() < 1e-15
        assert xs.grade(rotated.operators[0]).grade is Grade.MIXED
        assert xs.check_kraus(rotated).preserving

    def test_offenders_name_pauli_transfers(self):
        h2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        verdict = xs.check_kraus(xs.KrausSet((np.kron(h2, np.eye(2)),)))
        # the Hadamard on A sends ZI to XI
        assert "ZI->XI" in verdict.offenders


class TestSuperoperator:
    def test_liouvillian_matches_dense_generator(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        spec = xs.LindbladSpec(
            operators=(np.kron(SM, np.eye(2)), pauli_string_matrix("XY"),
                       pauli_string_matrix("ZZ")),
            coupling=g @ g.conj().T,
            hamiltonian=pauli_string_matrix("ZZ") + 0.3 * pauli_string_matrix("XY"),
        )
        liouvillian = xs.superoperator(spec)
        for _ in range(5):
            r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = r @ r.conj().T
            got = (liouvillian @ rho.reshape(16)).reshape(4, 4)
            assert np.abs(got - dense_generator(spec, rho)).max() < 1e-12

    def test_kraus_superoperator_matches_apply_channel(self):
        channel = double_damping_channel(0.4)
        sup = xs.superoperator(channel)
        rng = np.random.default_rng(12)
        for _ in range(5):
            rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            got = (sup @ rho.reshape(16)).reshape(4, 4)
            assert np.abs(got - xs.apply_channel(channel, rho)).max() < 1e-14

    def test_off_block_of_preserving_maps_is_zero(self):
        off_from_x = np.ix_(~xs.dynamics.X_VEC, xs.dynamics.X_VEC)
        assert np.abs(xs.superoperator(damping_spec(0.7, 1.3))[off_from_x]).max() == 0.0
        assert np.abs(xs.superoperator(double_damping_channel(0.3))[off_from_x]).max() == 0.0

    @PROPERTY
    @given(st.integers(1, 4), st.booleans(), st.data())
    def test_lindblad_verdict_independent_of_operator_basis(self, k, full, data):
        labels = data.draw(st.lists(st.sampled_from(xs.dynamics.PAULI_STRINGS[1:]),
                                    min_size=k, max_size=k, unique=True))
        ops = np.array([pauli_string_matrix(lab) for lab in labels])
        pair = st.tuples(st.floats(-1, 1), st.floats(-1, 1))
        g = np.array([complex(re, im) for re, im in
                      data.draw(st.lists(pair, min_size=k * k, max_size=k * k))])
        g = g.reshape(k, k)
        # a full coupling may join the two patterns; a diagonal one never does
        coupling = g @ g.conj().T if full else np.diag(np.abs(np.diag(g)) ** 2)
        u = random_unitary(data.draw(st.lists(pair, min_size=k * k, max_size=k * k)))
        spec = xs.LindbladSpec(tuple(ops), coupling.astype(complex))
        # L'_a = sum_n conj(U[a, n]) L_n with h' = U h U^dag is the same generator
        mixed = xs.LindbladSpec(
            tuple(np.einsum("an,nij->aij", u.conj(), ops)), u @ spec.coupling @ u.conj().T
        )
        a, b = xs.superoperator(spec), xs.superoperator(mixed)
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(a).max())
        assert xs.check_lindblad(mixed).preserving == xs.check_lindblad(spec).preserving

    @PROPERTY
    @given(st.sampled_from(["damping", "double", "flip", "hadamard", "rotation"]),
           st.floats(0.05, 0.95), st.data())
    def test_kraus_verdict_independent_of_operator_basis(self, family, p, data):
        k0, k1 = damping_kraus_pair(p)
        eye = np.eye(2)
        rot = math.cos(p) * np.eye(4) - 1j * math.sin(p) * pauli_string_matrix("XI")
        ops = {
            "damping": [np.kron(k0, eye), np.kron(k1, eye)],
            "double": list(double_damping_channel(p).operators),
            "flip": [math.sqrt(1 - p) * np.eye(4), math.sqrt(p) * pauli_string_matrix("XX")],
            "hadamard": [np.kron(np.array([[1, 1], [1, -1]]) / math.sqrt(2), eye)],
            "rotation": [rot],
        }[family]
        k = len(ops)
        pair = st.tuples(st.floats(-1, 1), st.floats(-1, 1))
        u = random_unitary(data.draw(st.lists(pair, min_size=k * k, max_size=k * k)))
        channel = xs.KrausSet(tuple(ops))
        mixed = xs.KrausSet(tuple(np.einsum("an,nij->aij", u, np.array(ops))))
        assert np.abs(xs.superoperator(channel) - xs.superoperator(mixed)).max() < 1e-12
        assert xs.check_kraus(mixed).preserving == xs.check_kraus(channel).preserving


class TestExpm:
    @staticmethod
    def rel_err(a):
        from scipy.linalg import expm  # test-only reference

        expected = expm(a)
        return np.linalg.norm(dynamics._expm(a) - expected) / np.linalg.norm(expected)

    def test_damping_liouvillian(self):
        assert self.rel_err(xs.superoperator(damping_spec(0.7, 1.3))) < 1e-12

    def test_defective_jordan_block(self):
        jordan = -np.eye(16) + np.diag(np.ones(15), 1)
        assert self.rel_err(jordan) < 1e-12

    def test_large_norm(self):
        liouvillian = xs.superoperator(
            xs.LindbladSpec(damping_spec(0.7, 1.3).operators, np.diag([0.7, 1.3]),
                            hamiltonian=pauli_string_matrix("ZZ"))
        )
        assert self.rel_err(50.0 * liouvillian) < 1e-12

    @pytest.mark.parametrize("family", ["damping", "rotated_dephasing", "strong_hamiltonian"])
    @pytest.mark.parametrize("block", ["liouvillian", "x_block"])
    def test_generator_families_across_scales(self, family, block):
        # the 16x16 complex L and the real 8x8 G it is on X states, from a
        # scale whose series is three terms long to ones that take over ten
        # squarings
        ham = {"ZZ": 40.0, "XX": 30.0, "YY": 30.0}
        spec = {
            "damping": lambda: damping_spec(0.7, 1.3),
            "rotated_dephasing": rotated_zi_xi_spec,
            "strong_hamiltonian": lambda: xs.LindbladSpec(
                damping_spec().operators, np.diag([2.0, 3.0]).astype(complex),
                sum(c * pauli_string_matrix(p) for p, c in ham.items())),
        }[family]()
        liouvillian = xs.superoperator(spec)
        m = liouvillian if block == "liouvillian" else dynamics._x_block(liouvillian)
        for scale in (1e-8, 1e-2, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3):
            assert self.rel_err(scale * m) <= 1e-12, scale

    @pytest.mark.parametrize("scale", [100.0, 1e3])
    @pytest.mark.parametrize("block", ["liouvillian", "x_block"])
    def test_squarings_against_a_60_digit_reference(self, block, scale):
        # the exponential of this generator tends to a projector; squaring
        # expm itself lost about 1e-13 at these scales, squaring expm - I
        # loses nothing measurable
        mpmath = pytest.importorskip("mpmath")
        liouvillian = xs.superoperator(rotated_zi_xi_spec())
        m = scale * (liouvillian if block == "liouvillian" else dynamics._x_block(liouvillian))
        with mpmath.workdps(60):
            ref = mpmath.expm(mpmath.matrix(m.tolist()))
            expected = np.array(ref.tolist(), dtype=complex)
        err = np.linalg.norm(dynamics._expm(m) - expected) / np.linalg.norm(expected)
        assert err <= 1e-14

    @pytest.mark.parametrize("norm", [1.0 - 1e-15, 1.0, 1.0 + 1e-15])
    def test_norms_next_to_the_taylor_span(self, norm):
        # just below and at TAYLOR_SPAN the series is summed unscaled, just
        # above it the matrix is halved once and the sum squared
        m = 0.1 * np.random.default_rng(4).uniform(-1.0, 1.0, size=(8, 8))
        m[:, 0] = 0.0
        m[5, 0] = -norm  # every other column sums to at most 0.8
        assert np.abs(m).sum(axis=0).max() == norm
        assert self.rel_err(m) < 1e-15

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_gives_the_identity_exactly(self, dtype):
        out = dynamics._expm(np.zeros((16, 16), dtype=dtype))
        assert out.dtype == dtype
        assert np.array_equal(out, np.eye(16))

    def test_nilpotent(self):
        n = np.diag([1.0, 2.0, 3.0], 1)  # n^4 = 0, and ||n||_1 = 3 takes two squarings
        n2 = n @ n
        expected = np.eye(4) + n + n2 / 2.0 + n2 @ n / 6.0
        assert np.abs(dynamics._expm(n) - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("dtype, expected", [
        (np.int64, np.float64), (np.float32, np.float64), (np.float64, np.float64),
        (np.complex64, np.complex128), (np.complex128, np.complex128),
    ])
    def test_result_dtype(self, dtype, expected):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]]).astype(dtype)
        assert dynamics._expm(m).dtype == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        m = -np.eye(4)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="1-norm"):
            dynamics._expm(m)

    def test_propagate_rejects_a_nan_step(self):
        rho = xs.werner(0.5).to_matrix()
        with pytest.raises(ValueError, match="1-norm"):
            xs.propagate(damping_spec(), rho, float("nan"), 1)

    def test_taylor_terms_stop_below_unit_roundoff(self):
        # a column-stochastic matrix: ||a||_1 = 1 and a^k keeps an eigenvalue
        # of modulus 1, so no term of the series is small before 1/k! is; that
        # bound first drops below 2^-53 at k = 19, and a series cut at 17 terms
        # is off by 1e-15
        mpmath = pytest.importorskip("mpmath")
        stochastic = np.array([[0.25, 0.5, 0.0], [0.375, 0.25, 0.5], [0.375, 0.25, 0.5]])
        assert 1.0 / math.factorial(18) >= 2.0**-53 > 1.0 / math.factorial(19)
        for a in (stochastic, -stochastic):
            assert np.abs(a).sum(axis=0).max() == dynamics.TAYLOR_SPAN
            with mpmath.workdps(60):
                ref = mpmath.expm(mpmath.matrix(a.tolist()))
                expected = np.array(ref.tolist(), dtype=float)
            err = np.linalg.norm(dynamics._expm(a) - expected) / np.linalg.norm(expected)
            assert err <= 4e-16

    def test_runtime_imports_no_scipy(self):
        code = ("import sys, xstates; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestApplyChannel:
    def test_identity(self):
        m = xs.werner(0.7).to_matrix()
        out = xs.apply_channel(xs.KrausSet((np.eye(4, dtype=complex),)), m)
        assert np.abs(out - m).max() == 0.0

    def test_full_dephasing_on_bell(self):
        projectors = tuple(
            np.diag(row).astype(complex)
            for row in np.eye(4)
        )
        out = xs.apply_channel(xs.KrausSet(projectors), xs.bell(0).to_matrix())
        assert np.abs(out - np.diag([0.5, 0, 0, 0.5])).max() < 1e-15

    def test_full_damping_fixed_point(self):
        channel = double_damping_channel(1.0)
        for x in random_states(10, seed=3):
            out = xs.apply_channel(channel, x.to_matrix())
            expected = np.zeros((4, 4), dtype=complex)
            expected[0, 0] = 1.0
            assert np.abs(out - expected).max() < 1e-12

    def test_trace_and_positivity_on_random_channels(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
            q, _ = np.linalg.qr(g)
            channel = xs.KrausSet((q[:4], q[4:]))
            xs.check_kraus(channel)  # raises if the pair is not trace preserving
            x = xs.random_xstate(4, int(rng.integers(1000)))
            out = xs.apply_channel(channel, x.to_matrix())
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10


class TestEvolve:
    def test_zero_generator_constant(self):
        spec = xs.LindbladSpec(operators=(), coupling=np.zeros((0, 0)))
        x0 = xs.werner(0.6)
        traj = xs.evolve(spec, x0, dt=1e-2, t_max=0.5, sample_every=10)
        for s in traj.states:
            assert s.a == pytest.approx(x0.a, abs=1e-13)
            assert complex(s.w) == pytest.approx(complex(x0.w), abs=1e-13)

    def test_dephasing_matches_closed_form(self):
        gamma = 1.0
        spec = xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [gamma])
        x0 = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2, w=0.15)
        traj = xs.evolve(spec, x0, dt=1e-3, t_max=1.0, sample_every=100,
                         record=("concurrence",))
        for t, s in zip(traj.times, traj.states):
            decay = math.exp(-4.0 * gamma * t)
            assert complex(s.z).real == pytest.approx(0.2 * decay, abs=1e-8)
            assert complex(s.w).real == pytest.approx(0.15 * decay, abs=1e-8)
            assert s.a == pytest.approx(0.4, abs=1e-10)

    def test_dt_independence(self):
        # the propagator is exact, so the step only sets where samples fall
        spec = xs.LindbladSpec(
            damping_spec(0.7, 1.3).operators, np.diag([0.7, 1.3]).astype(complex),
            hamiltonian=pauli_string_matrix("ZZ") + 0.5 * pauli_string_matrix("XX"),
        )
        x0 = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2, w=0.15)
        coarse = xs.evolve(spec, x0, dt=1e-2, t_max=1.0, sample_every=10, record=())
        fine = xs.evolve(spec, x0, dt=1e-3, t_max=1.0, sample_every=100, record=())
        assert coarse.times == pytest.approx(fine.times, abs=1e-15)
        for a, b in zip(coarse.states, fine.states):
            assert np.abs(a.to_matrix() - b.to_matrix()).max() < 1e-12

    def test_double_damping_matches_exact_channel(self):
        gamma, t = 0.8, 0.6
        spec = xs.LindbladSpec.from_rates(
            [np.kron(SM, np.eye(2)), np.kron(np.eye(2), SM)], [gamma, gamma]
        )
        x0 = xs.werner(0.9)
        traj = xs.evolve(spec, x0, dt=1e-3, t_max=t, sample_every=200)
        p = 1.0 - math.exp(-2.0 * gamma * t)
        exact = xs.from_matrix(
            xs.apply_channel(double_damping_channel(p), x0.to_matrix())
        )
        final = traj.states[-1]
        assert final.a == pytest.approx(exact.a, abs=1e-9)
        assert final.b == pytest.approx(exact.b, abs=1e-9)
        assert complex(final.w) == pytest.approx(complex(exact.w), abs=1e-9)

    def test_unitary_evolution_matches_exponential(self):
        h = pauli_string_matrix("ZZ") + 0.5 * pauli_string_matrix("XX")
        spec = xs.LindbladSpec(operators=(), coupling=np.zeros((0, 0)), hamiltonian=h)
        x0 = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2, w=0.15)
        t = 1.0
        traj = xs.evolve(spec, x0, dt=1e-3, t_max=t, sample_every=1000)
        evals, vecs = np.linalg.eigh(h)
        u = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
        expected = u @ x0.to_matrix() @ u.conj().T
        assert np.abs(traj.states[-1].to_matrix() - expected).max() < 1e-8

    def test_preserving_specs_leak_below_tolerance(self):
        specs = [
            xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [1.0]),
            xs.LindbladSpec.from_rates(
                [np.kron(SM, np.eye(2)), np.kron(np.eye(2), SM)], [0.7, 1.3]
            ),
        ]
        for spec in specs:
            for x in random_states(10, seed=53):
                _, leak = xs.propagate(spec, x.to_matrix(), 1e-3, 1000)
                assert leak <= 1e-10
                traj = xs.evolve(spec, x, dt=1e-3, t_max=1.0, sample_every=100)
                assert traj.max_leakage <= dynamics.PRESERVE_RTOL

    def test_cross_grade_generator_leaks(self):
        spec = xs.LindbladSpec(
            operators=(pauli_string_matrix("ZI"), pauli_string_matrix("XI")),
            coupling=np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex),
        )
        _, leak = xs.propagate(spec, xs.werner(0.8).to_matrix(), 1e-3, 1000)
        assert leak > 1e-3

    def test_rotated_spec_matches_unrotated_trajectory(self):
        plain = xs.LindbladSpec.from_rates(
            [pauli_string_matrix("ZI"), pauli_string_matrix("XI")], [1.0, 1.0]
        )
        x0 = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2, w=0.15)
        a = xs.evolve(plain, x0, dt=1e-3, t_max=0.5, sample_every=50)
        b = xs.evolve(rotated_zi_xi_spec(), x0, dt=1e-3, t_max=0.5, sample_every=50)
        for sa, sb in zip(a.states, b.states):
            assert np.abs(sa.to_matrix() - sb.to_matrix()).max() < 1e-12
        assert b.measures["concurrence"] == pytest.approx(a.measures["concurrence"], abs=1e-12)

    def test_non_finite_times_rejected(self):
        spec = xs.LindbladSpec(operators=(), coupling=np.zeros((0, 0)))
        for dt, t_max in ((float("nan"), 1.0), (float("inf"), 1.0), (1e-3, float("inf"))):
            with pytest.raises(ValueError):
                xs.evolve(spec, xs.werner(0.5), dt=dt, t_max=t_max)

    def test_homogeneous_off_x_dissipator_is_preserving(self):
        # bit-flip noise on A: off-X grade, but off.X.off lands back on X
        spec = xs.LindbladSpec.from_rates([pauli_string_matrix("XI")], [1.0])
        traj = xs.evolve(spec, xs.werner(0.5), dt=1e-3, t_max=0.2, sample_every=50)
        assert traj.max_leakage <= 1e-10

    def test_not_preserving_rejected_up_front(self):
        mixed = pauli_string_matrix("XX") + pauli_string_matrix("XI")
        spec = xs.LindbladSpec.from_rates([mixed], [1.0])
        with pytest.raises(NotPreserving):
            xs.evolve(spec, xs.werner(0.5), dt=1e-3, t_max=0.1)

    def test_unknown_measure_rejected(self):
        spec = xs.LindbladSpec(operators=(), coupling=np.zeros((0, 0)))
        with pytest.raises(ValueError):
            xs.evolve(spec, xs.werner(0.5), dt=1e-3, t_max=0.1, record=("nope",))

    def test_measures_recorded(self):
        spec = xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [1.0])
        traj = xs.evolve(spec, xs.bell(0), dt=1e-3, t_max=0.2, sample_every=50,
                         record=("concurrence", "purity", "negativity"))
        assert set(traj.measures) == {"concurrence", "purity", "negativity"}
        assert traj.measures["concurrence"][0] == pytest.approx(1.0)
        assert len(traj.measures["purity"]) == len(traj.times)

    def test_states_view_the_samples(self):
        spec = xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [1.0])
        traj = xs.evolve(spec, xs.werner(0.7), dt=1e-2, t_max=0.5, sample_every=10)
        assert isinstance(traj.states, tuple) and len(traj.states) == len(traj.times) == 6
        for i, s in enumerate(traj.states):
            assert s == xs.XState(*(getattr(traj.samples, k)[i] for k in "abcdzw"))

    def test_bad_step_counts_rejected(self, monkeypatch):
        spec = xs.LindbladSpec(operators=(), coupling=np.zeros((0, 0)))
        for dt, t_max in ((1e-3, -5.0), (1e-300, 1e300), (1e-3, 1e6)):
            with pytest.raises(ValueError):
                xs.evolve(spec, xs.werner(0.5), dt=dt, t_max=t_max)
        # 10 steps sampled every 3 give the initial state and 4 samples
        monkeypatch.setattr(dynamics, "MAX_SAMPLES", 5)
        assert len(xs.evolve(spec, xs.werner(0.5), dt=0.1, t_max=1.0, sample_every=3).times) == 5
        with pytest.raises(ValueError, match="10 steps sampled every 2 give 6 samples"):
            xs.evolve(spec, xs.werner(0.5), dt=0.1, t_max=1.0, sample_every=2)

    @pytest.mark.parametrize("faults, message", [
        (("drift", "negative"), "sample at t = 0.2: trace drifted to 1.5"),
        (("negative", "drift"), "sample at t = 0.2: sampled state failed validation: "
                                "population b = -1e-09 is negative"),
        ((None, "negative"), "sample at t = 0.3: sampled state failed validation: "
                             "population b = -1e-09 is negative"),
    ])
    def test_rejection_names_the_first_failing_sample(self, faults, message):
        rows = []
        for fault in (None,) + faults:
            x = dynamics._coords(xs.bell(0))
            if fault == "drift":
                x[0] += 0.5
            elif fault == "negative":
                x[1] -= 1e-9
                x[0] += 1e-9
            rows.append(x)
        with pytest.raises(StepRejected) as info:
            dynamics._checked_samples(np.array(rows), np.array([0.1, 0.2, 0.3]))
        assert str(info.value).startswith(message)


    # sample_every 4: no full interval, one, 8 and 16 (powers of two), 9 and
    # 17 (one more), 9 with a short last interval of 3 steps, and 1000
    # (ten squarings of hop), alone and with a short last interval
    @pytest.mark.parametrize("steps", [3, 4, 32, 36, 39, 64, 68, 4000, 4003])
    def test_samples_by_doubling_match_sequential_products(self, steps):
        spec = xs.LindbladSpec(
            damping_spec(0.7, 1.3).operators, np.diag([0.7, 1.3]).astype(complex),
            hamiltonian=pauli_string_matrix("ZZ") + 0.5 * pauli_string_matrix("XX"),
        )
        x0 = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2 - 0.1j, w=0.15 + 0.05j)
        dt, every = 0.01, 4
        traj = xs.evolve(spec, x0, dt=dt, t_max=steps * dt, sample_every=every, record=())
        hop = dynamics._expm(traj.generator * (dt * every))
        x = dynamics._coords(x0)
        expected = [x]
        for _ in range(steps // every):
            x = hop @ x
            expected.append(x)
        if steps % every:
            expected.append(dynamics._expm(traj.generator * (dt * (steps % every))) @ x)
        assert len(traj.states) == len(expected) == 1 - (-steps // every)
        assert traj.times[-1] == pytest.approx(steps * dt, abs=1e-15)
        # hop's eigenvalue 1 (the steady state) is rounded, so both loops
        # drift from the exact hop^i x0 by O(i eps): about 2.7e-14 for the
        # sequential products and 5.5e-14 for the doubling at i = 1000, and
        # 3.4e-14 between them
        for i, (state, row) in enumerate(zip(traj.states, expected)):
            bound = max(1e-14, 1e-16 * i) * np.linalg.norm(row)
            assert np.linalg.norm(dynamics._coords(state) - row) <= bound

    @pytest.mark.parametrize("drift, rejected", [(1e-8, True), (1e-10, False)])
    def test_trace_drift_bound(self, drift, rejected):
        # TRACE_DRIFT_TOL = 1e-9 lies between the two drifts
        x = dynamics._coords(xs.bell(0))
        x[0] += drift
        if rejected:
            with pytest.raises(StepRejected, match="trace drifted to 1.00000001"):
                dynamics._checked_samples(np.array([x]), np.array([0.1]))
        else:
            states = dynamics._checked_samples(np.array([x]), np.array([0.1]))
            assert states.a[0] + states.d[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("eps, rejected", [(1e-10, True), (1e-13, False)])
    def test_preserve_rtol_bound(self, eps, rejected, tmp_path, capsys):
        # damping on A plus eps XI leaks a ratio 0.63 eps of the Liouvillian,
        # on either side of PRESERVE_RTOL = 1e-12
        spec = xs.LindbladSpec.from_rates([np.kron(SM, np.eye(2))], [1.0],
                                          hamiltonian=eps * pauli_string_matrix("XI"))
        ratio = dynamics._leak_ratio(dynamics.superoperator(spec))
        assert ratio == pytest.approx(0.6325 * eps, rel=1e-3)
        nested = [[[[v.real, v.imag] for v in row] for row in m]
                  for m in (spec.operators[0], spec.hamiltonian)]
        path = tmp_path / "check.json"
        path.write_text(json.dumps({"lindblad": {"operators": nested[:1], "rates": [1.0],
                                                 "hamiltonian": nested[1]}}))
        code = main(["check", "--in", str(path)])
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert xs.check_lindblad(spec).preserving is not rejected
        if rejected:
            assert code == 1 and verdict.startswith("not preserving: ")
            with pytest.raises(NotPreserving, match="generator mixes the two support patterns"):
                xs.evolve(spec, xs.werner(0.6), dt=1e-2, t_max=0.1)
        else:
            assert code == 0 and verdict.startswith("preserving: ")
            traj = xs.evolve(spec, xs.werner(0.6), dt=1e-2, t_max=0.1)
            assert traj.max_leakage == ratio


class TestXBlock:
    """The real 8x8 generator G that evolve propagates with."""

    @PROPERTY
    @given(st.sampled_from(["hamiltonian", "rotated", "damping"]), st.data())
    def test_generator_is_the_x_block_of_the_liouvillian(self, family, data):
        # coefficients and rates far from underflow, where 1e-15 ||L|| is exact
        coeff, rate = st.floats(-1, 1).map(lambda v: round(v, 9)), st.floats(1e-3, 3)
        if family == "hamiltonian":
            coeffs = data.draw(st.lists(coeff, min_size=8, max_size=8))
            h = sum(c * pauli_string_matrix(p) for p, c in zip(sorted(X_STRINGS), coeffs))
            spec = xs.LindbladSpec(operators=(), coupling=np.zeros((0, 0)), hamiltonian=h)
        elif family == "rotated":
            # {ZI, XI} at one rate, rewritten as {c ZI + s XI, s ZI - c XI}: the
            # operators mix the two patterns and their cross terms cancel only
            # to rounding
            angle, gamma = data.draw(st.floats(0, math.pi)), data.draw(rate)
            zi, xi = pauli_string_matrix("ZI"), pauli_string_matrix("XI")
            c, s = math.cos(angle), math.sin(angle)
            spec = xs.LindbladSpec.from_rates([c * zi + s * xi, s * zi - c * xi], [gamma, gamma])
        else:
            spec = damping_spec(data.draw(rate), data.draw(rate))
        liouvillian = xs.superoperator(spec)
        assert xs.check_lindblad(spec).preserving
        generator = dynamics._x_block(liouvillian)
        assert generator.dtype == np.float64 and generator.shape == (8, 8)
        scale = 1e-15 * np.linalg.norm(liouvillian)
        start = data.draw(st.integers(0, 10**6))
        for i in range(start, start + 5):
            x = xs.random_xstate(31, i, complex_phases=True)
            out = liouvillian @ x.to_matrix().reshape(16)
            # the X entries a, b, c, d, z = rho[1, 2] and w = rho[0, 3]
            entries = [out[0].real, out[5].real, out[10].real, out[15].real,
                       out[6].real, out[6].imag, out[3].real, out[3].imag]
            assert np.abs(generator @ dynamics._coords(x) - entries).max() <= scale

    @pytest.mark.parametrize("name", ["DAMPED_WERNER", "ROTATED_DEPHASING"])
    def test_samples_match_projected_full_propagation(self, tmp_path, name):
        traj = golden_trajectory(tmp_path, name)
        rho0 = traj.states[0].to_matrix()
        for t, sample in zip(traj.times, traj.states):
            full, _ = xs.propagate(traj.spec, rho0, traj.dt, round(t / traj.dt))
            assert np.abs(sample.to_matrix() - np.where(X_MASK, full, 0.0)).max() <= 1e-13


def frozen_esd_trajectory(eps, g_a, g_b, j, dt, every) -> xs.Trajectory:
    """The run of one FROZEN_ESD entry: a Werner state under amplitude damping
    at rates g_a, g_b and the Hamiltonian j (XX + YY) + ZZ / 2, if j."""
    ham = None
    if j:
        ham = j * (pauli_string_matrix("XX") + pauli_string_matrix("YY"))
        ham = ham + 0.5 * pauli_string_matrix("ZZ")
    spec = xs.LindbladSpec(damping_spec().operators, np.diag([g_a, g_b]).astype(complex), ham)
    return xs.evolve(spec, xs.werner(eps), dt=dt, t_max=3.0, sample_every=every)


def golden_trajectory(tmp_path, name: str) -> xs.Trajectory:
    """The run of one golden ``evolve`` config of test_output_bytes."""
    import test_output_bytes

    path = tmp_path / "config.json"
    path.write_text(json.dumps(getattr(test_output_bytes, name)))
    cfg = fileio.load_dynamics_config(str(path))
    return xs.evolve(cfg["spec"], cfg["initial_state"], cfg["dt"], cfg["t_max"],
                     cfg["sample_every"], record=cfg["measures"])


# (eps, gamma_a, gamma_b, j, dt, sample_every, esd_time). The values were
# first made by bisection with a fresh expm(G tau) at each midpoint, and all
# 24 were re-recorded when samples came by doubling and the crossing by
# safeguarded Newton on a cached piecewise Taylor action: they moved by at
# most 1.04e-12 relative, within the search's resolution of 1e-12 * t. They
# were re-recorded again when each Newton point became _expm(G tau) @ x:
# 20 of 24 moved, by at most 2.6e-15 relative. With the resolution at
# 1e-9 * t, 7 of them change
FROZEN_ESD = [
    (0.5, 0.6, 0.5, 0.0, 0.001, 10, 0.3698466021135192),
    (0.52, 0.7, 0.65, 0.0, 0.01, 3, 0.3406008362922244),
    (0.54, 0.8, 0.8, 0.0, 0.005, 7, 0.3219775158528675),
    (0.56, 0.9, 0.95, 0.0, 0.001, 10, 0.30958545502825885),
    (0.58, 1.0, 1.1, 0.0, 0.01, 3, 0.30121902220261854),
    (0.6, 0.6, 1.25, 0.0, 0.005, 7, 0.4046135143848842),
    (0.62, 0.7, 1.4, 0.0, 0.001, 10, 0.3875868195033615),
    (0.64, 0.8, 0.5, 0.0, 0.01, 3, 0.6560530277484696),
    (0.66, 0.9, 0.65, 0.0, 0.005, 7, 0.586181596200494),
    (0.6799999999999999, 1.0, 0.8, 0.0, 0.001, 10, 0.5409115338341081),
    (0.7, 0.6, 0.95, 0.0, 0.01, 3, 0.6988012706306193),
    (0.72, 0.7, 1.1, 0.0, 0.005, 7, 0.6487270316967032),
    (0.74, 0.8, 1.25, 0.25, 0.001, 10, 0.6042383851879296),
    (0.76, 0.9, 1.4, 0.5, 0.01, 3, 0.5612486294624278),
    (0.78, 1.0, 0.5, 0.75, 0.005, 7, 0.8157339029165142),
    (0.8, 0.6, 0.65, 1.0, 0.001, 10, 1.203085783892474),
    (0.8200000000000001, 0.7, 0.8, 1.25, 0.01, 3, 1.0803235046804127),
    (0.8400000000000001, 0.8, 0.95, 1.5, 0.005, 7, 0.9995580134600971),
    (0.86, 0.9, 1.1, 1.75, 0.001, 10, 0.9467928636435653),
    (0.88, 1.0, 1.25, 2.0, 0.01, 3, 0.9145941910396634),
    (0.9, 0.6, 1.4, 2.25, 0.005, 7, 1.0517453810616524),
    (0.9199999999999999, 0.7, 0.5, 2.5, 0.001, 10, 2.0676764668521352),
    (0.94, 0.8, 0.65, 2.75, 0.01, 3, 1.9165444034145482),
    (0.96, 0.9, 0.8, 3.0, 0.005, 7, 1.8798447885976426),
]


# two more brackets, (rates, Hamiltonian, dt, sample_every, the range of
# ||G||_1 * bracket), each from a Werner state at eps = 0.95: under unit
# damping the span is 0.8, so _expm sums every Newton point's series
# unscaled; under strong damping and a strong Hamiltonian it is about 122,
# so _expm halves and squares
ESD_BRACKETS = {
    "UNIT_DAMPING": ((1.0, 1.0), None, 1e-2, 10, (0.5, dynamics.TAYLOR_SPAN)),
    "STRONG_HAMILTONIAN": (
        (2.0, 3.0), {"ZZ": 40.0, "XX": 30.0, "YY": 30.0}, 0.1, 5, (50.0, math.inf)),
}


class TestEsd:
    def test_initially_separable_state(self):
        spec = xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [1.0])
        traj = xs.evolve(spec, xs.werner(0.2), dt=1e-3, t_max=0.2, sample_every=10)
        assert xs.esd_time(traj) == 0.0

    def test_exponential_decay_never_dies(self):
        spec = xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [1.0])
        traj = xs.evolve(spec, xs.bell(0), dt=1e-3, t_max=1.0, sample_every=100)
        assert xs.esd_time(traj) is None

    def test_damped_werner_death_time_matches_closed_form(self):
        gamma = 1.0
        spec = xs.LindbladSpec.from_rates(
            [np.kron(SM, np.eye(2)), np.kron(np.eye(2), SM)], [gamma, gamma]
        )
        x0 = xs.werner(0.9)
        # concurrence dies when (1-p) [w0 - (b0 + p d0)] hits zero
        p_star = (0.45 - 0.025) / 0.475
        t_exact = -math.log(1.0 - p_star) / (2.0 * gamma)
        traj = xs.evolve(spec, x0, dt=1e-3, t_max=2.0, sample_every=10)
        t1 = xs.esd_time(traj)
        assert t1 == pytest.approx(t_exact, abs=1e-6)
        traj_half = xs.evolve(spec, x0, dt=5e-4, t_max=2.0, sample_every=20)
        t2 = xs.esd_time(traj_half)
        assert abs(t1 - t2) < 1e-4

    @pytest.mark.parametrize(
        "case", list(range(len(FROZEN_ESD))) + ["ROTATED_DEPHASING", *ESD_BRACKETS])
    def test_matches_an_independent_root(self, tmp_path, case):
        from scipy.linalg import expm  # test-only reference
        from scipy.optimize import brentq

        if case == "ROTATED_DEPHASING":
            traj = golden_trajectory(tmp_path, case)
        elif case in ESD_BRACKETS:
            rates, hamiltonian, dt, every, spans = ESD_BRACKETS[case]
            ham = None
            if hamiltonian:
                ham = sum(c * pauli_string_matrix(p) for p, c in hamiltonian.items())
            spec = xs.LindbladSpec(damping_spec().operators, np.diag(rates).astype(complex), ham)
            traj = xs.evolve(spec, xs.werner(0.95), dt=dt, t_max=3.0, sample_every=every)
        else:
            traj = frozen_esd_trajectory(*FROZEN_ESD[case][:-1])
        got = xs.esd_time(traj)
        dead = traj.measures["concurrence"] <= dynamics.ESD_TOL
        hit = next(i for i in range(len(dead)) if dead[i : i + 1 + dynamics.ESD_CONFIRM].all())
        lo_t, hi_t = traj.times[hit - 1], traj.times[hit]
        if case in ESD_BRACKETS:
            span = np.abs(traj.generator).sum(axis=0).max() * (hi_t - lo_t)
            assert spans[0] < span <= spans[1]
        s = traj.states[hit - 1]
        x = np.array([s.a, s.b, s.c, s.d, s.z.real, s.z.imag, s.w.real, s.w.imag])

        def gap(tau):
            a, b, c, d, zr, zi, wr, wi = expm(traj.generator * tau) @ x
            a, b, c, d = (max(v, 0.0) for v in (a, b, c, d))
            return max(math.hypot(zr, zi) - math.sqrt(a * d), math.hypot(wr, wi) - math.sqrt(b * c))

        root = lo_t + brentq(gap, 0.0, hi_t - lo_t, xtol=1e-15)
        assert abs(got - root) <= 1e-12 * max(1.0, root)

    def test_a_dead_stretch_that_revives_is_no_death(self):
        # three dead samples, one short of the 1 + ESD_CONFIRM that confirm a
        # death, and alive again after them
        never = xs.evolve(xs.LindbladSpec.from_rates([pauli_string_matrix("ZI")], [1.0]),
                          xs.bell(0), dt=1e-3, t_max=1.0, sample_every=100)
        dies = frozen_esd_trajectory(*FROZEN_ESD[0][:-1])
        for traj, expected in ((never, None), (dies, xs.esd_time(dies))):
            conc = traj.measures["concurrence"].copy()
            assert (conc[1:6] > 0.0).all()
            conc[2:5] = 0.0
            faked = dataclasses.replace(traj, measures={"concurrence": conc})
            assert xs.esd_time(faked) == expected

    def test_damped_werner_matches_frozen_values(self):
        # esd_time on damped Werner states without and with an X-shaped
        # Hamiltonian j (XX + YY) + ZZ / 2: the samples and the Newton points,
        # each an _expm(G tau) @ x, must reach the same bits
        for *config, expected in FROZEN_ESD:
            assert xs.esd_time(frozen_esd_trajectory(*config)) == expected, config
