"""Closed-form eigenvalues against dense numerical routes, entropies, marginals
and partial transposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xstates as xs
from conftest import dense_entropy, dense_partial_transpose, random_states
from xstates import measures


def spectrum(x) -> np.ndarray:
    """The closed-form eigenvalues in descending order."""
    return np.sort(xs.eigenvalues(x))[::-1]


def block_eigenvectors(x, lam) -> np.ndarray:
    """Unit eigenvectors, as columns in the order of ``lam``, of the blocks
    [[a, w], [w*, d]] on span{|00>, |11>} and [[b, z], [z*, c]] on
    span{|01>, |10>}, for the eigenvalues ``lam`` of each block: of the two
    solutions (q, l - p) and (l - s, q*) of [[p, q], [q*, s]] v = l v the
    longer; a block that is a multiple of the identity takes the basis."""
    v = np.zeros((4, 4), dtype=np.complex128)
    for cols, rows, (p, s, q) in (
        ((0, 1), (0, 3), (x.a, x.d, x.w)),
        ((2, 3), (1, 2), (x.b, x.c, x.z)),
    ):
        for k, col in enumerate(cols):
            l = lam[col]
            u = max((np.array([q, l - p]), np.array([l - s, np.conj(q)])), key=np.linalg.norm)
            n = np.linalg.norm(u)
            u = u / n if n > 1e-14 else np.eye(2)[k]
            v[list(rows), col] = u
    return v


class TestEigendecompose:
    """The closed-form eigenvalues (the spectrum; no eigenvectors)."""

    def test_bell_spectrum(self):
        assert spectrum(xs.bell(0)) == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_werner_spectrum(self):
        lam = xs.eigenvalues(xs.werner(0.5))
        assert np.sort(lam)[::-1] == pytest.approx([0.625, 0.125, 0.125, 0.125], abs=1e-15)
        # block order: span{|00>, |11>} first
        assert lam[0] == pytest.approx(0.625, abs=1e-15)

    def test_no_degenerate_formula_cancellation(self):
        # w = 0 but a != d: the ad block returns the populations themselves
        x = xs.validate(0.6, 0.1, 0.1, 0.2, z=0.05)
        assert xs.eigenvalues(x)[:2] == pytest.approx([0.6, 0.2], abs=1e-15)

    def test_complex_coherence_matches_dense(self):
        for x in random_states(100, seed=31, complex_phases=True):
            numeric = np.linalg.eigvalsh(x.to_matrix())[::-1]
            assert np.abs(spectrum(x) - numeric).max() < 1e-10

    def test_reconstruction_and_orthonormality(self, corpus_small):
        # eigenvectors built from the closed-form eigenvalues, block by block
        # in the documented order, must rebuild the state and be orthonormal
        for x in corpus_small[:200]:
            lam = xs.eigenvalues(x)
            v = block_eigenvectors(x, lam)
            rec = (v * lam) @ v.conj().T
            assert np.abs(rec - x.to_matrix()).max() < 1e-10
            assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-10
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            assert lam.min() >= -1e-12

    def test_matches_dense_eigvalsh(self, corpus_small):
        for x in corpus_small[:200]:
            lam = xs.eigenvalues(x)
            numeric = np.linalg.eigvalsh(x.to_matrix())[::-1]
            assert np.abs(np.sort(lam)[::-1] - numeric).max() < 1e-10


# weights that land on 0, 1/2 and 1 as often as anywhere else
_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


def _signed_zero(draw, v: float) -> float:
    """``v``, or a zero of either sign if ``v`` is a zero."""
    return math.copysign(0.0, draw(st.sampled_from([1.0, -1.0]))) if v == 0.0 else v


def _turn(draw, r: float) -> complex:
    """r e^{2 pi i t} for a drawn t, each zero part of either sign."""
    t = 2.0 * math.pi * draw(_WEIGHTS)
    return complex(_signed_zero(draw, r * math.cos(t)), _signed_zero(draw, r * math.sin(t)))


@st.composite
def entropy_states(draw):
    """A general, pure or Bell-diagonal (maximally mixed marginals) state,
    with zero populations, zero coherences and zeros of both signs drawn as
    often as anything else."""
    kind = draw(st.sampled_from(["general", "pure", "bell_diagonal"]))
    if kind == "pure":
        # sqrt(t) |00> + e^{i phi} sqrt(1 - t) |11>, or the same on |01>, |10>
        t = draw(_WEIGHTS)
        p, q, zero = _signed_zero(draw, t), _signed_zero(draw, 1.0 - t), _signed_zero(draw, 0.0)
        coh = _turn(draw, math.sqrt(t * (1.0 - t)))
        if draw(st.booleans()):
            return xs.validate(p, zero, zero, q, w=coh)
        return xs.validate(zero, p, q, zero, z=coh)
    weights = [draw(_WEIGHTS) for _ in range(4)]
    total = sum(weights)
    l0, l1, l2, l3 = (w / total for w in weights) if total else (0.25,) * 4
    if kind == "bell_diagonal":
        # the Bell-state mixture l0 Phi+ + l1 Phi- + l2 Psi+ + l3 Psi-
        a, b = 0.5 * (l0 + l1), 0.5 * (l2 + l3)
        z = complex(_signed_zero(draw, 0.5 * (l2 - l3)), _signed_zero(draw, 0.0))
        w = complex(_signed_zero(draw, 0.5 * (l0 - l1)), _signed_zero(draw, 0.0))
        return xs.validate(a, b, b, a, z=z, w=w)
    a, b, c, d = (_signed_zero(draw, v) for v in (l0, l1, l2, l3))
    z = _turn(draw, draw(_WEIGHTS) * math.sqrt(b * c))
    w = _turn(draw, draw(_WEIGHTS) * math.sqrt(a * d))
    return xs.validate(a, b, c, d, z=z, w=w)


class TestEntropyPurity:
    def test_bell_entropy_zero(self):
        assert xs.entropy(xs.eigenvalues(xs.bell(2))) == 0.0

    def test_maximally_mixed_entropy_two(self):
        assert xs.entropy(xs.eigenvalues(xs.werner(0.0))) == pytest.approx(2.0, abs=1e-12)

    def test_werner_entropy(self):
        s = xs.entropy(xs.eigenvalues(xs.werner(0.5)))
        assert s == pytest.approx(1.5487949406953985, abs=1e-12)

    def test_entropy_matches_dense(self, corpus_small):
        for x in corpus_small[:100]:
            s = xs.entropy(xs.eigenvalues(x))
            assert s == pytest.approx(dense_entropy(x.to_matrix()), abs=1e-9)

    def test_entropy_invariant_under_qubit_swap(self, corpus_small):
        for x in corpus_small[:100]:
            assert xs.entropy(xs.eigenvalues(x)) == pytest.approx(
                xs.entropy(xs.eigenvalues(x.swap_qubits())), abs=1e-12
            )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(entropy_states(), min_size=1, max_size=4), st.sampled_from("AB"))
    def test_state_route_has_the_batch_bits(self, states, side):
        # one state's entropies (Python floats, no zero pads) have the bits
        # of its element of the batch, signed zeros included
        batch = measures._state_entropies(xs.stack(states), side)
        for i, x in enumerate(states):
            one = measures._state_entropies(x, side)
            assert all(type(v) is float for v in one)
            assert [v.hex() for v in one] == [float(v[i]).hex() for v in batch]

    def test_purity_values(self):
        assert xs.purity(xs.bell(1)) == pytest.approx(1.0)
        assert xs.purity(xs.werner(0.0)) == pytest.approx(0.25)
        assert xs.purity(xs.werner(0.5)) == pytest.approx(0.4375)

    def test_purity_equals_spectrum_square_sum(self, corpus_small):
        for x in corpus_small[:200]:
            lam = xs.eigenvalues(x)
            assert xs.purity(x) == pytest.approx(float((lam**2).sum()), abs=1e-12)


class TestMarginals:
    def test_bell_marginals_maximally_mixed(self):
        ra, rb = xs.marginals(xs.bell(0))
        assert np.abs(ra.matrix - np.eye(2) / 2).max() < 1e-15
        assert np.abs(rb.matrix - np.eye(2) / 2).max() < 1e-15

    def test_product_state(self):
        ra, rb = xs.marginals(xs.validate(1.0, 0.0, 0.0, 0.0))
        assert ra.matrix[0, 0] == 1.0 and rb.matrix[0, 0] == 1.0

    def test_partial_trace_sums(self):
        ra, rb = xs.marginals(xs.validate(0.4, 0.3, 0.2, 0.1, z=0.2, w=0.15))
        assert np.diag(ra.matrix).real == pytest.approx([0.7, 0.3])
        assert np.diag(rb.matrix).real == pytest.approx([0.6, 0.4])

    def test_bloch_components_match_fano(self, corpus_small):
        for x in corpus_small[:50]:
            ra, rb = xs.marginals(x)
            f = xs.to_fano(x)
            assert ra.bloch_z == pytest.approx(f.A3, abs=1e-12)
            assert rb.bloch_z == pytest.approx(f.B3, abs=1e-12)

    def test_marginals_match_dense_partial_trace(self, corpus_small):
        for x in corpus_small[:50]:
            m = x.to_matrix().reshape(2, 2, 2, 2)
            ra, rb = xs.marginals(x)
            assert np.abs(ra.matrix - np.trace(m, axis1=1, axis2=3)).max() < 1e-14
            assert np.abs(rb.matrix - np.trace(m, axis1=0, axis2=2)).max() < 1e-14


class TestPartialTranspose:
    def test_symmetric_coherences_fixed_point(self):
        x = xs.validate(0.3, 0.25, 0.25, 0.2, z=0.1, w=0.1)
        pt = xs.partial_transpose(x)
        assert (pt.z, pt.w) == (0.1 + 0j, 0.1 + 0j)

    def test_bell_spectrum(self):
        pt = xs.partial_transpose(xs.bell(0))
        assert np.sort(pt.eigenvalues)[::-1] == pytest.approx([0.5, 0.5, 0.5, -0.5], abs=1e-15)

    def test_diagonal_state_unchanged_and_positive(self):
        x = xs.validate(0.4, 0.3, 0.2, 0.1)
        pt = xs.partial_transpose(x)
        assert pt.eigenvalues.min() >= 0.0

    def test_involution(self, corpus_small):
        for x in corpus_small[:50]:
            pt = xs.partial_transpose(x)
            assert complex(pt.z).conjugate() == complex(x.w)
            assert complex(pt.w).conjugate() == complex(x.z)

    def test_spectrum_matches_dense(self, corpus_small):
        for x in corpus_small[:200]:
            pt = xs.partial_transpose(x)
            dense = np.linalg.eigvalsh(dense_partial_transpose(x.to_matrix()))[::-1]
            assert np.abs(np.sort(pt.eigenvalues)[::-1] - dense).max() < 1e-10

    def test_at_most_one_negative_eigenvalue(self, corpus_small):
        for x in corpus_small:
            pt = xs.partial_transpose(x)
            assert int((pt.eigenvalues < -1e-10).sum()) <= 1
