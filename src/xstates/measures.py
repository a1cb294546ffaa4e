"""Closed-form correlation quantifiers for X states: concurrence,
negativity, fully entangled fraction, operator-Schmidt spectrum, geometric
discord, the maximally-mixed-marginals discord, an approximate discord with
classical correlations, and the measurement-induced disturbance."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .core import FanoParams, XState, normalize_phases, to_fano
from .errors import NotMMM, UnnormalizedPhases
from .spectral import eigenvalues, entropy, partial_transpose

SCHMIDT_THRESHOLD = 1e-10
MMM_TOL = 1e-10


def concurrence(x: XState):
    """Wootters concurrence, 2 max{0, |z| - sqrt(ad), |w| - sqrt(bc)}."""
    gap = np.maximum(x.abs_z - np.sqrt(x.a * x.d), x.abs_w - np.sqrt(x.b * x.c))
    return 2.0 * np.maximum(gap, 0.0)


def negativity(x: XState):
    """Sum of |negative eigenvalues| of the partial transpose, of which
    there is at most one.

    Zero exactly when |z| <= sqrt(ad) and |w| <= sqrt(bc), i.e. when the
    state is separable.
    """
    return np.maximum(-partial_transpose(x).eigenvalues.min(axis=0), 0.0)


def fef(x: XState):
    """Rescaled fully entangled fraction, max over the four Bell states.

    Returns E in [-1, 1]; the corresponding best Bell-state fidelity is
    (E + 1)/2.
    """
    return np.maximum(
        x.a + x.d + 2.0 * x.abs_w - 1.0,
        x.b + x.c + 2.0 * x.abs_z - 1.0,
    )


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Operator-Schmidt singular values (descending along axis 0) of the
    Pauli correlation matrix, normalized so sum(s_i^2) equals the purity."""

    values: np.ndarray
    threshold: float = SCHMIDT_THRESHOLD


def schmidt_spectrum(x: XState) -> SchmidtSpectrum:
    """Singular values of the normalized Pauli correlation matrix.

    Requires real coherences (phase-normalize first); complex ones raise
    :class:`UnnormalizedPhases`.
    """
    if np.any(abs(np.imag(x.z)) > 1e-12) or np.any(abs(np.imag(x.w)) > 1e-12):
        raise UnnormalizedPhases("schmidt_spectrum needs real coherences")
    return _schmidt(to_fano(x))


def _schmidt(f: FanoParams) -> SchmidtSpectrum:
    q = 1.0 + f.A3 * f.A3 + f.B3 * f.B3 + f.C3 * f.C3
    root = np.sqrt(np.maximum(q * q - 4.0 * (f.C3 - f.A3 * f.B3) ** 2, 0.0))
    s = np.array([
        0.5 * abs(f.C1),
        0.5 * abs(f.C2),
        np.sqrt(np.maximum(q + root, 0.0)) / (2.0 * np.sqrt(2.0)),
        np.sqrt(np.maximum(q - root, 0.0)) / (2.0 * np.sqrt(2.0)),
    ])
    return SchmidtSpectrum(np.sort(s, axis=0)[::-1])


def schmidt_number(spectrum: SchmidtSpectrum):
    """Count of singular values above threshold; 4 means the state can
    drive ancilla-assisted process tomography."""
    return (spectrum.values > spectrum.threshold).sum(axis=0)


def geometric_discord_fano(f: FanoParams, side: str = "A", variant: str = "general"):
    """Geometric discord evaluated directly on correlation coordinates.

    ``variant="general"`` uses the eigenvalue construction
    (x.x + tr T T^t - k_max)/4, where k_max is the largest eigenvalue of
    the diagonal matrix diag(C1^2, C2^2, C3^2 + X3^2);
    ``variant="paper"`` evaluates the printed two-branch minimum
    min{C1^2 + C2^2, C1^2 + C3^2 + X3^2}/4, which disagrees with the
    eigenvalue construction on part of the parameter space (see tests).
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    x3 = f.A3 if side == "A" else f.B3
    if variant == "paper":
        return 0.25 * np.minimum(
            f.C1 * f.C1 + f.C2 * f.C2,
            f.C1 * f.C1 + f.C3 * f.C3 + x3 * x3,
        )
    if variant != "general":
        raise ValueError(f"variant must be 'general' or 'paper', got {variant!r}")
    k_max = np.maximum(np.maximum(f.C1 * f.C1, f.C2 * f.C2), f.C3 * f.C3 + x3 * x3)
    total = x3 * x3 + f.C1 * f.C1 + f.C2 * f.C2 + f.C3 * f.C3
    return 0.25 * np.maximum(total - k_max, 0.0)


def geometric_discord(x: XState, side: str = "A", variant: str = "general"):
    """Squared Hilbert-Schmidt distance to the nearest zero-discord state
    (measurement on ``side``)."""
    f = to_fano(normalize_phases(x).state)
    return geometric_discord_fano(f, side=side, variant=variant)


class _Entropies(NamedTuple):
    full: float  # S(rho)
    diag: float  # S(diag(a, b, c, d))
    a: float  # S(rho_A)
    b: float  # S(rho_B)


def _entropies(x: XState) -> _Entropies:
    """The four entropies the discord family needs, from one -p log2 p pass
    over the padded distributions (terms on axis 0, distributions on axis 1)."""
    pa, pb, zero = x.a + x.b, x.a + x.c, 0.0 * x.a
    return _Entropies(*entropy(np.array([
        eigenvalues(x),
        [x.a, x.b, x.c, x.d],
        [pa, 1.0 - pa, zero, zero],
        [pb, 1.0 - pb, zero, zero],
    ]).swapaxes(0, 1)))


def _correlations(ent: _Entropies, side: str, ce):
    """Discord Q, classical correlation C and mutual information I when
    ``side`` is measured, from the state's entropies and the measured
    conditional entropy ``ce`` of the other qubit; Q + C = I exactly."""
    s_measured, s_other = (ent.b, ent.a) if side == "B" else (ent.a, ent.b)
    return s_measured - ent.full + ce, s_other - ce, s_other + s_measured - ent.full


def _check_side(side: str) -> None:
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def _is_mmm(f: FanoParams):
    return (abs(f.A3) <= MMM_TOL) & (abs(f.B3) <= MMM_TOL)


def _mmm(f: FanoParams, ent: _Entropies):
    c = np.maximum(np.maximum(abs(f.C1), abs(f.C2)), abs(f.C3))
    return 1.0 + entropy([0.5 * (1.0 + c), 0.5 * (1.0 - c)]) - ent.full


def mmm_discord(x: XState):
    """Discord of a state with maximally mixed marginals.

    Evaluated in the spectral form 1 + H((1 + c)/2) - S(rho) with
    c = max|C_i|, which stays well defined on the whole Bell-diagonal set.
    Raises :class:`NotMMM` unless A3 and B3 vanish (for every state of a
    batch).
    """
    f = to_fano(normalize_phases(x).state)
    if not np.all(_is_mmm(f)):
        raise NotMMM(f"marginals not maximally mixed: A3={f.A3!r}, B3={f.B3!r}")
    return _mmm(f, _entropies(x))


class ApproxDiscord(NamedTuple):
    q: float
    n1: float
    n2: float
    classical_correlation: float
    mutual_information: float
    side: str


def approx_discord(x: XState, side: str = "B") -> ApproxDiscord:
    """Approximate discord with measurement on ``side``, plus the classical
    correlations and mutual information.

    Uses the two candidate measurement entropies
    N1 = H(1/2 + 1/2 sqrt((a-d+b-c)^2 + 4(|z|+|w|)^2)) and
    N2 = -sum_x x log2(x / marginal) = S(diag rho) - S(measured marginal);
    the identity Q + C = I holds exactly by construction. Accurate to a few
    1e-4 in the worst case.
    """
    _check_side(side)
    return _approx(x, side, _entropies(x))


def _approx(x: XState, side: str, ent: _Entropies) -> ApproxDiscord:
    bc = x.b - x.c if side == "B" else x.c - x.b
    root = np.minimum(np.sqrt((x.a - x.d + bc) ** 2 + 4.0 * (x.abs_z + x.abs_w) ** 2), 1.0)
    n1 = entropy([0.5 + 0.5 * root, 0.5 - 0.5 * root])
    n2 = ent.diag - (ent.b if side == "B" else ent.a)
    q, cc, mi = _correlations(ent, side, np.minimum(n1, n2))
    return ApproxDiscord(q, n1, n2, cc, mi, side)


def mid(x: XState):
    """Measurement-induced disturbance with projectors in the sigma_z
    eigenbasis of the marginals: S(diag(a, b, c, d)) - S(rho)."""
    ent = _entropies(x)
    return ent.diag - ent.full


@dataclass(frozen=True)
class MeasureReport:
    """Every closed-form quantifier for one state, or for each state of a
    batch (array fields; ``schmidt_values`` has the values on axis 0).

    ``mmm_discord`` is None for a state whose marginals are not maximally
    mixed (a batch holds an object array of floats and None); ``side``
    records which subsystem the discord-family measures condition on.
    """

    concurrence: float
    negativity: float
    fef: float
    fef_fidelity: float
    schmidt_values: np.ndarray
    schmidt_number: int
    geometric_discord_general: float
    geometric_discord_paper: float
    approx_discord: float
    classical_correlation: float
    mutual_information: float
    mid: float
    mmm_discord: Optional[float]
    side: str

    def to_dict(self) -> dict:
        """Plain Python values (lists over the states for a batch)."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


def report(x: XState, side: str = "B") -> MeasureReport:
    """Aggregate every measure for a state or a batch; the entropies and
    the Fano coordinates are computed once."""
    _check_side(side)
    f = to_fano(normalize_phases(x).state)
    ent = _entropies(x)
    ad = _approx(x, side, ent)
    ss = _schmidt(f)
    e = fef(x)
    return MeasureReport(
        concurrence=concurrence(x),
        negativity=negativity(x),
        fef=e,
        fef_fidelity=0.5 * (e + 1.0),
        schmidt_values=ss.values,
        schmidt_number=schmidt_number(ss),
        geometric_discord_general=geometric_discord_fano(f, side=side, variant="general"),
        geometric_discord_paper=geometric_discord_fano(f, side=side, variant="paper"),
        approx_discord=ad.q,
        classical_correlation=ad.classical_correlation,
        mutual_information=ad.mutual_information,
        mid=ent.diag - ent.full,
        mmm_discord=np.where(_is_mmm(f), _mmm(f, ent), None)[()],
        side=side,
    )
