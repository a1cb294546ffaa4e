"""Closed-form spectral analysis of X states: eigendecomposition, entropy,
purity, marginals and the partial transpose."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import XState


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition of an X state.

    ``eigenvalues`` are descending; column ``vectors[:, i]`` is the
    eigenvector for ``eigenvalues[i]``; ``blocks[i]`` tags whether the pair
    lives on span{|00>, |11>} ("ad") or span{|01>, |10>} ("bc").
    ``u_plus/u_minus`` and ``r_plus/r_minus`` are the half sums/differences
    (a +/- d)/2 and (b +/- c)/2 entering the closed forms.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    blocks: tuple
    u_plus: float
    u_minus: float
    r_plus: float
    r_minus: float


@dataclass(frozen=True)
class QubitState:
    """Reduced single-qubit state; diagonal for X-state marginals."""

    matrix: np.ndarray
    bloch_z: float


@dataclass(frozen=True)
class PartialTransposeResult:
    """Partial transpose over the first qubit: z and w exchanged (and
    conjugated). May fail positivity, so it is returned as raw parameters
    plus its spectrum instead of an :class:`XState`."""

    a: float
    b: float
    c: float
    d: float
    z: complex
    w: complex
    eigenvalues: np.ndarray


def _block_eigen(p: float, r: float, q: complex):
    """Eigenpairs of the Hermitian block [[p, q], [conj(q), r]].

    Returns (lam_hi, lam_lo, v_hi, v_lo) with exactly orthonormal 2-vectors.
    For q == 0 the computational basis is returned directly, which also
    covers the degenerate p == r case where the generic formula vanishes.
    """
    m = 0.5 * (p + r)
    hd = 0.5 * (p - r)
    s = math.hypot(hd, abs(q))
    lam_hi, lam_lo = m + s, m - s
    if q == 0:
        if p >= r:
            v_hi = np.array([1.0, 0.0], dtype=np.complex128)
        else:
            v_hi = np.array([0.0, 1.0], dtype=np.complex128)
    else:
        # pick the representation that avoids cancellation in hd - s
        if hd >= 0.0:
            v_hi = np.array([hd + s, np.conj(q)], dtype=np.complex128)
        else:
            v_hi = np.array([q, s - hd], dtype=np.complex128)
        v_hi = v_hi / np.linalg.norm(v_hi)
    v_lo = np.array([-np.conj(v_hi[1]), np.conj(v_hi[0])], dtype=np.complex128)
    return lam_hi, lam_lo, v_hi, v_lo


def eigendecompose(x: XState) -> SpectralDecomposition:
    """Closed-form eigenvalues and eigenvectors of an X state.

    The spectrum splits into two 2x2 blocks:
    u+ +/- sqrt(u-^2 + |w|^2) on span{|00>, |11>} and
    r+ +/- sqrt(r-^2 + |z|^2) on span{|01>, |10>}.
    """
    up, um = 0.5 * (x.a + x.d), 0.5 * (x.a - x.d)
    rp, rm = 0.5 * (x.b + x.c), 0.5 * (x.b - x.c)
    ad_hi, ad_lo, ad_vhi, ad_vlo = _block_eigen(x.a, x.d, complex(x.w))
    bc_hi, bc_lo, bc_vhi, bc_vlo = _block_eigen(x.b, x.c, complex(x.z))
    pairs = []
    for lam, v2 in ((ad_hi, ad_vhi), (ad_lo, ad_vlo)):
        v = np.zeros(4, dtype=np.complex128)
        v[0], v[3] = v2
        pairs.append((lam, "ad", v))
    for lam, v2 in ((bc_hi, bc_vhi), (bc_lo, bc_vlo)):
        v = np.zeros(4, dtype=np.complex128)
        v[1], v[2] = v2
        pairs.append((lam, "bc", v))
    pairs.sort(key=lambda t: -t[0])
    eigenvalues = np.array([p[0] for p in pairs])
    vectors = np.column_stack([p[2] for p in pairs])
    blocks = tuple(p[1] for p in pairs)
    return SpectralDecomposition(eigenvalues, vectors, blocks, up, um, rp, rm)


def _entropy_bits(values) -> float:
    s = 0.0
    for lam in np.asarray(values, dtype=float).ravel():
        if lam > 0.0:
            s -= lam * math.log2(lam)
    return s


def entropy(dec: SpectralDecomposition) -> float:
    """Von Neumann entropy in bits, with 0 log 0 := 0."""
    s = _entropy_bits(dec.eigenvalues)
    return min(max(s, 0.0), 2.0)


def purity(x: XState) -> float:
    """tr(rho^2) = a^2 + b^2 + c^2 + d^2 + 2|w|^2 + 2|z|^2."""
    return (
        x.a * x.a + x.b * x.b + x.c * x.c + x.d * x.d
        + 2.0 * abs(x.w) ** 2 + 2.0 * abs(x.z) ** 2
    )


def marginals(x: XState):
    """Reduced states (rho_A, rho_B); both are diagonal with Bloch-z
    components A3 = (a+b)-(c+d) and B3 = (a+c)-(b+d)."""
    pa = x.a + x.b
    pb = x.a + x.c
    rho_a = QubitState(np.diag([pa, 1.0 - pa]).astype(np.complex128), 2.0 * pa - 1.0)
    rho_b = QubitState(np.diag([pb, 1.0 - pb]).astype(np.complex128), 2.0 * pb - 1.0)
    return rho_a, rho_b


def partial_transpose(x: XState) -> PartialTransposeResult:
    """Partial transpose over qubit A; spectrum via the closed forms with
    z and w exchanged."""
    z_new = complex(x.w).conjugate()
    w_new = complex(x.z).conjugate()
    up, um = 0.5 * (x.a + x.d), 0.5 * (x.a - x.d)
    rp, rm = 0.5 * (x.b + x.c), 0.5 * (x.b - x.c)
    su = math.hypot(um, abs(w_new))
    sr = math.hypot(rm, abs(z_new))
    eigenvalues = np.sort(np.array([up + su, up - su, rp + sr, rp - sr]))[::-1]
    return PartialTransposeResult(x.a, x.b, x.c, x.d, z_new, w_new, eigenvalues)
