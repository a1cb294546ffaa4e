"""Shared brute-force reference routes for the test suite.

Everything here works on dense 4x4 matrices through numpy's linear algebra,
deliberately independent of the closed forms under test.
"""

import numpy as np
import pytest

import xstates as xs

SY2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SYSY = np.kron(SY2, SY2)

BELL_VECTORS = (
    np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    np.array([0, 1j, -1j, 0], dtype=complex) / np.sqrt(2),
    np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
)


def dense_concurrence(m: np.ndarray) -> float:
    """Wootters concurrence from the spin-flipped product spectrum."""
    mt = m @ SYSY @ m.conj() @ SYSY
    ev = np.sqrt(np.abs(np.sort(np.linalg.eigvals(mt).real)[::-1]))
    return max(0.0, ev[0] - ev[1] - ev[2] - ev[3])


def dense_partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose of the first qubit's indices."""
    return m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def dense_negativity(m: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(dense_partial_transpose(m))
    return float(-ev[ev < 0].sum())


def dense_fef(m: np.ndarray) -> float:
    """Rescaled max Bell fidelity, 2 max <phi|rho|phi> - 1."""
    best = max(float(np.real(v.conj() @ m @ v)) for v in BELL_VECTORS)
    return 2.0 * best - 1.0


def dense_entropy(m: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(m)
    ev = ev[ev > 1e-15]
    return float(-(ev * np.log2(ev)).sum())


def dense_schmidt_values(m: np.ndarray) -> np.ndarray:
    """Singular values of the normalized Pauli correlation matrix."""
    paulis = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
              SY2, np.diag([1.0, -1.0]).astype(complex)]
    gamma = np.empty((4, 4))
    for mu in range(4):
        for nu in range(4):
            gamma[mu, nu] = np.real(np.trace(m @ np.kron(paulis[mu], paulis[nu]))) / 2.0
    return np.linalg.svd(gamma, compute_uv=False)


def _xlog2(t):
    return np.where(t > 0.0, t * np.log2(np.where(t > 0.0, t, 1.0)), 0.0)


def dense_conditional_entropy(m: np.ndarray, theta, phi):
    """Measured conditional entropy of qubit A after measuring qubit B of
    the dense state ``m`` in the basis cos(theta)|0> + e^{i phi} sin(theta)|1>
    and its complement, for broadcastable angle arrays: explicit
    projections and batched ``eigvalsh``."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    ct, st, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    # isometries I (x) |m_k>, k = 0, 1, shaped (..., k, 4, 2)
    iso = np.zeros(theta.shape + (2, 4, 2), dtype=complex)
    for k, vec in enumerate(((ct, st * e), (-st * e.conj(), ct))):
        for bit, amp in enumerate(vec):
            iso[..., k, bit, 0] = amp
            iso[..., k, 2 + bit, 1] = amp
    sigma = iso.conj().swapaxes(-1, -2) @ m @ iso  # unnormalised conditioned states
    ev = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)
    # p H(ev / p) with p = sum(ev), summed over the outcomes
    return (_xlog2(ev.sum(-1)) - _xlog2(ev).sum(-1)).sum(-1)


def brute_force_min_conditional_entropy(x) -> float:
    """Minimum of :func:`dense_conditional_entropy` over both angles: a
    32 x 32 mesh of [0, pi/2] x [0, 2 pi), then Nelder-Mead from the two
    best cells."""
    from scipy.optimize import minimize

    m = x.to_matrix()
    th, ph = np.meshgrid(np.linspace(0.0, np.pi / 2, 32),
                         np.linspace(0.0, 2 * np.pi, 32, endpoint=False), indexing="ij")
    vals = dense_conditional_entropy(m, th, ph)
    best = float(vals.min())
    for k in np.argsort(vals, axis=None)[:2]:
        res = minimize(lambda p: float(dense_conditional_entropy(m, p[0], p[1])),
                       [th.flat[k], ph.flat[k]], method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-13, "maxiter": 2000})
        best = min(best, float(res.fun))
    return best


def haar_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_states(n: int, seed: int = 1, complex_phases: bool = False):
    return [xs.random_xstate(seed, i, complex_phases=complex_phases) for i in range(n)]


@pytest.fixture(scope="session")
def corpus_small():
    """500 deterministic random states for module-level property tests."""
    return random_states(500, seed=1)
