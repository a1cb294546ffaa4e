"""Closed-form correlation quantifiers for X states: concurrence,
negativity, fully entangled fraction, operator-Schmidt spectrum, geometric
discord, the maximally-mixed-marginals discord, an approximate discord with
classical correlations, and the measurement-induced disturbance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import FanoParams, XState, normalize_phases, to_fano
from .errors import NotMMM, UnnormalizedPhases
from .spectral import _entropy_bits, eigendecompose, entropy, purity

SCHMIDT_THRESHOLD = 1e-10
MMM_TOL = 1e-10


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def concurrence(x: XState) -> float:
    """Wootters concurrence, 2 max{0, |z| - sqrt(ad), |w| - sqrt(bc)}."""
    return 2.0 * max(
        0.0,
        abs(x.z) - math.sqrt(x.a * x.d),
        abs(x.w) - math.sqrt(x.b * x.c),
    )


def negativity(x: XState) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    Zero exactly when |z| <= sqrt(ad) and |w| <= sqrt(bc), i.e. when the
    state is separable.
    """
    up, um = 0.5 * (x.a + x.d), 0.5 * (x.a - x.d)
    rp, rm = 0.5 * (x.b + x.c), 0.5 * (x.b - x.c)
    return -min(
        0.0,
        up - math.hypot(um, abs(x.z)),
        rp - math.hypot(rm, abs(x.w)),
    )


def fef(x: XState) -> float:
    """Rescaled fully entangled fraction, max over the four Bell states.

    Returns E in [-1, 1]; the corresponding best Bell-state fidelity is
    (E + 1)/2.
    """
    return max(
        x.a + x.d + 2.0 * abs(x.w) - 1.0,
        x.b + x.c + 2.0 * abs(x.z) - 1.0,
    )


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Operator-Schmidt singular values (descending) of the Pauli
    correlation matrix, normalized so sum(s_i^2) equals the purity."""

    values: np.ndarray
    threshold: float = SCHMIDT_THRESHOLD


def schmidt_spectrum(x: XState) -> SchmidtSpectrum:
    """Singular values of the normalized Pauli correlation matrix.

    Requires real coherences (phase-normalize first); complex ones raise
    :class:`UnnormalizedPhases`.
    """
    if abs(complex(x.z).imag) > 1e-12 or abs(complex(x.w).imag) > 1e-12:
        raise UnnormalizedPhases("schmidt_spectrum needs real coherences")
    f = to_fano(x)
    q = 1.0 + f.A3 * f.A3 + f.B3 * f.B3 + f.C3 * f.C3
    disc = max(q * q - 4.0 * (f.C3 - f.A3 * f.B3) ** 2, 0.0)
    root = math.sqrt(disc)
    s = np.array([
        0.5 * abs(f.C1),
        0.5 * abs(f.C2),
        math.sqrt(max(q + root, 0.0)) / (2.0 * math.sqrt(2.0)),
        math.sqrt(max(q - root, 0.0)) / (2.0 * math.sqrt(2.0)),
    ])
    return SchmidtSpectrum(np.sort(s)[::-1])


def schmidt_number(spectrum: SchmidtSpectrum) -> int:
    """Count of singular values above threshold; 4 means the state can
    drive ancilla-assisted process tomography."""
    return int((spectrum.values > spectrum.threshold).sum())


def geometric_discord_fano(
    f: FanoParams, side: str = "A", variant: str = "general"
) -> float:
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
        return 0.25 * min(
            f.C1 * f.C1 + f.C2 * f.C2,
            f.C1 * f.C1 + f.C3 * f.C3 + x3 * x3,
        )
    if variant != "general":
        raise ValueError(f"variant must be 'general' or 'paper', got {variant!r}")
    k_max = max(f.C1 * f.C1, f.C2 * f.C2, f.C3 * f.C3 + x3 * x3)
    total = x3 * x3 + f.C1 * f.C1 + f.C2 * f.C2 + f.C3 * f.C3
    return 0.25 * max(total - k_max, 0.0)


def geometric_discord(x: XState, side: str = "A", variant: str = "general") -> float:
    """Squared Hilbert-Schmidt distance to the nearest zero-discord state
    (measurement on ``side``)."""
    f = to_fano(normalize_phases(x).state)
    return geometric_discord_fano(f, side=side, variant=variant)


def mmm_discord(x: XState) -> float:
    """Discord of a state with maximally mixed marginals.

    Evaluated in the spectral form 1 + H((1 + c)/2) - S(rho) with
    c = max|C_i|, which stays well defined on the whole Bell-diagonal set.
    Raises :class:`NotMMM` unless A3 and B3 vanish.
    """
    f = to_fano(normalize_phases(x).state)
    if abs(f.A3) > MMM_TOL or abs(f.B3) > MMM_TOL:
        raise NotMMM(f"marginals not maximally mixed: A3={f.A3!r}, B3={f.B3!r}")
    c = max(abs(f.C1), abs(f.C2), abs(f.C3))
    return 1.0 + _h2(0.5 * (1.0 + c)) - entropy(eigendecompose(x))


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
    N1 = H(1/2 + 1/2 sqrt((a-d+b-c)^2 + 4(z+w)^2)) and
    N2 = -sum_x x log2(x / marginal); the identity Q + C = I holds exactly
    by construction. Accurate to a few 1e-4 in the worst case.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    st = x if side == "B" else x.swap_qubits()
    st = normalize_phases(st).state
    a, b, c, d = st.a, st.b, st.c, st.d
    z, w = complex(st.z).real, complex(st.w).real
    root = min(math.sqrt((a - d + b - c) ** 2 + 4.0 * (z + w) ** 2), 1.0)
    n1 = _h2(0.5 + 0.5 * root)
    n2 = 0.0
    for pop, marg in ((a, a + c), (b, b + d), (c, a + c), (d, b + d)):
        if pop > 0.0:
            n2 -= pop * math.log2(pop / marg)
    s_full = entropy(eigendecompose(st))
    s_measured = _h2(a + c)
    s_other = _h2(a + b)
    best = min(n1, n2)
    q = s_measured - s_full + best
    cc = s_other - best
    mi = s_other + s_measured - s_full
    return ApproxDiscord(q, n1, n2, cc, mi, side)


def mid(x: XState) -> float:
    """Measurement-induced disturbance with projectors in the sigma_z
    eigenbasis of the marginals: S(diag(a, b, c, d)) - S(rho)."""
    return _entropy_bits([x.a, x.b, x.c, x.d]) - entropy(eigendecompose(x))


@dataclass(frozen=True)
class MeasureReport:
    """Every closed-form quantifier for one state.

    ``mmm_discord`` is populated only when the marginals are maximally
    mixed; ``side`` records which subsystem the discord-family measures
    condition on.
    """

    concurrence: float
    negativity: float
    fef: float
    fef_fidelity: float
    schmidt_values: tuple
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
        out = {
            "concurrence": self.concurrence,
            "negativity": self.negativity,
            "fef": self.fef,
            "fef_fidelity": self.fef_fidelity,
            "schmidt_values": list(self.schmidt_values),
            "schmidt_number": self.schmidt_number,
            "geometric_discord_general": self.geometric_discord_general,
            "geometric_discord_paper": self.geometric_discord_paper,
            "approx_discord": self.approx_discord,
            "classical_correlation": self.classical_correlation,
            "mutual_information": self.mutual_information,
            "mid": self.mid,
            "mmm_discord": self.mmm_discord,
            "side": self.side,
        }
        return out


def report(x: XState, side: str = "B") -> MeasureReport:
    """Aggregate every measure for one state."""
    normalized = normalize_phases(x).state
    e = fef(x)
    ss = schmidt_spectrum(normalized)
    ad = approx_discord(x, side=side)
    try:
        mmm = mmm_discord(x)
    except NotMMM:
        mmm = None
    return MeasureReport(
        concurrence=concurrence(x),
        negativity=negativity(x),
        fef=e,
        fef_fidelity=0.5 * (e + 1.0),
        schmidt_values=tuple(float(s) for s in ss.values),
        schmidt_number=schmidt_number(ss),
        geometric_discord_general=geometric_discord(x, side=side, variant="general"),
        geometric_discord_paper=geometric_discord(x, side=side, variant="paper"),
        approx_discord=ad.q,
        classical_correlation=ad.classical_correlation,
        mutual_information=ad.mutual_information,
        mid=mid(x),
        mmm_discord=mmm,
        side=side,
    )
