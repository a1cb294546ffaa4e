"""Closed-form spectral analysis of X states: eigenvalues, entropy,
purity, marginals and the partial transpose. Every function takes a state
or a batch (an :class:`XState` with array fields)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import XState, _hypot


@dataclass(frozen=True)
class QubitState:
    """Reduced single-qubit state; diagonal for X-state marginals."""

    matrix: np.ndarray
    bloch_z: float


@dataclass(frozen=True)
class PartialTransposeResult:
    """Partial transpose over the first qubit: z and w exchanged (and
    conjugated). May fail positivity, so it is returned as raw parameters
    plus its spectrum (in the order of :func:`eigenvalues`) instead of an
    :class:`XState`."""

    a: float
    b: float
    c: float
    d: float
    z: complex
    w: complex
    eigenvalues: np.ndarray


def _block_spectrum(a, b, c, d, z_abs, w_abs) -> tuple:
    up, rp = 0.5 * (a + d), 0.5 * (b + c)
    su = _hypot(0.5 * (a - d), w_abs)
    sr = _hypot(0.5 * (b - c), z_abs)
    return up + su, up - su, rp + sr, rp - sr


def eigenvalues(x: XState) -> np.ndarray:
    """Closed-form eigenvalues of an X state, block by block:
    u+ +/- sqrt(u-^2 + |w|^2) on span{|00>, |11>} and
    r+ +/- sqrt(r-^2 + |z|^2) on span{|01>, |10>}, with u+/- = (a +/- d)/2
    and r+/- = (b +/- c)/2. Shape ``(4,)`` plus the shape of a batch.
    """
    return np.array(_block_spectrum(x.a, x.b, x.c, x.d, x.abs_z, x.abs_w))


def entropy(p) -> np.ndarray:
    """Shannon entropy in bits, -sum p log2 p with 0 log 0 := 0, of the
    probabilities along axis 0 of ``p``; of :func:`eigenvalues` it is the
    von Neumann entropy. Entries <= 0 contribute nothing.

    One state's entropies take a float route with the bits of this one
    (``measures._entropies``): one ``np.log2`` call on the list of their
    populated entries, each column then summed in Python in the order of
    numpy's axis-0 reduction, from its identity +0.0."""
    p = np.asarray(p, dtype=float)
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=0)


def purity(x: XState):
    """tr(rho^2) = a^2 + b^2 + c^2 + d^2 + 2|w|^2 + 2|z|^2."""
    # products, as a batch squares (see core._hypot)
    return (
        x.a * x.a + x.b * x.b + x.c * x.c + x.d * x.d
        + 2.0 * (x.abs_w * x.abs_w) + 2.0 * (x.abs_z * x.abs_z)
    )


def marginals(x: XState):
    """Reduced states (rho_A, rho_B); both are diagonal with Bloch-z
    components A3 = (a+b)-(c+d) and B3 = (a+c)-(b+d)."""
    return _qubit(x.a + x.b), _qubit(x.a + x.c)


def _qubit(p0) -> QubitState:
    m = np.zeros(np.shape(p0) + (2, 2), dtype=np.complex128)
    m[..., 0, 0], m[..., 1, 1] = p0, 1.0 - p0
    return QubitState(m, 2.0 * p0 - 1.0)


def partial_transpose(x: XState) -> PartialTransposeResult:
    """Partial transpose over qubit A; its spectrum is the closed form of
    :func:`eigenvalues` with |z| and |w| exchanged."""
    spectrum = np.array(_block_spectrum(x.a, x.b, x.c, x.d, x.abs_w, x.abs_z))
    return PartialTransposeResult(
        x.a, x.b, x.c, x.d, x.w.conjugate(), x.z.conjugate(), spectrum
    )
