"""Closed-form correlation quantifiers for X states: concurrence,
negativity, fully entangled fraction, operator-Schmidt spectrum, geometric
discord, the maximally-mixed-marginals discord, an approximate discord with
classical correlations, and the measurement-induced disturbance."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import FanoParams, XState, _max, _min, _sqrt, _where, to_fano
from .errors import NotMMM, UnnormalizedPhases
from .spectral import _block_spectrum, _entropy_columns, entropy

SCHMIDT_THRESHOLD = 1e-10
MMM_TOL = 1e-10
_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


def _moduli(x: XState) -> XState:
    """``x`` with each coherence replaced by its modulus. Every measure here
    is unchanged by local phases, so it reads only these six numbers; on
    one state they are Python floats, so later moduli cost no np.hypot."""
    return XState(x.a, x.b, x.c, x.d, x.abs_z, x.abs_w)


def concurrence(x: XState):
    """Wootters concurrence, 2 max{0, |z| - sqrt(ad), |w| - sqrt(bc)}."""
    gap = _max(x.abs_z - _sqrt(x.a * x.d), x.abs_w - _sqrt(x.b * x.c))
    return 2.0 * _max(gap, 0.0)


def negativity(x: XState):
    """Sum of |negative eigenvalues| of the partial transpose, of which
    there is at most one.

    Zero exactly when |z| <= sqrt(ad) and |w| <= sqrt(bc), i.e. when the
    state is separable.
    """
    # the spectrum of spectral.partial_transpose (|z| and |w| exchanged);
    # its least eigenvalue is the lesser of the two blocks' lower ones
    _, u_minus, _, r_minus = _block_spectrum(x.a, x.b, x.c, x.d, x.abs_w, x.abs_z)
    return _max(-_min(u_minus, r_minus), 0.0)


def fef(x: XState):
    """Rescaled fully entangled fraction, max over the four Bell states.

    Returns E in [-1, 1]; the corresponding best Bell-state fidelity is
    (E + 1)/2.
    """
    return _max(
        x.a + x.d + 2.0 * x.abs_w - 1.0,
        x.b + x.c + 2.0 * x.abs_z - 1.0,
    )


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Operator-Schmidt singular values (descending along axis 0) of the
    Pauli correlation matrix, normalized so sum(s_i^2) equals the purity.

    ``values`` is a float array: shape ``(4,)`` for one state and ``(4, n)``
    for a batch of ``n``."""

    values: np.ndarray


def schmidt_spectrum(x: XState) -> SchmidtSpectrum:
    """Singular values of the normalized Pauli correlation matrix.

    Requires real coherences (phase-normalize first); complex ones raise
    :class:`UnnormalizedPhases`.
    """
    if np.any(abs(np.imag(x.z)) > 1e-12) or np.any(abs(np.imag(x.w)) > 1e-12):
        raise UnnormalizedPhases("schmidt_spectrum needs real coherences")
    return SchmidtSpectrum(np.asarray(_schmidt(to_fano(x))))


def _schmidt(f: FanoParams):
    """The operator-Schmidt values in descending order: a tuple of four
    Python floats for one state, an array with the values on axis 0 for a
    batch."""
    q = 1.0 + f.A3 * f.A3 + f.B3 * f.B3 + f.C3 * f.C3
    t = f.C3 - f.A3 * f.B3
    root = _sqrt(_max(q * q - 4.0 * (t * t), 0.0))
    s = [
        0.5 * abs(f.C1),
        0.5 * abs(f.C2),
        _sqrt(_max(q + root, 0.0)) / _TWO_SQRT2,
        _sqrt(_max(q - root, 0.0)) / _TWO_SQRT2,
    ]
    if type(root) is float:
        return tuple(sorted(s, reverse=True))
    return np.sort(np.array(s), axis=0)[::-1]


def schmidt_number(spectrum: SchmidtSpectrum):
    """Count of singular values above ``SCHMIDT_THRESHOLD``; 4 means the
    state can drive ancilla-assisted process tomography."""
    return _rank(spectrum.values)


def _rank(values):
    # a count over one state's tuple of Python floats, a sum along axis 0 else
    if type(values) is tuple:
        return sum(v > SCHMIDT_THRESHOLD for v in values)
    return (values > SCHMIDT_THRESHOLD).sum(axis=0)


def geometric_discord_fano(f: FanoParams, side: str = "A", variant: str = "general"):
    """Geometric discord evaluated directly on correlation coordinates.

    ``variant="general"`` uses the eigenvalue construction
    (x.x + tr T T^t - k_max)/4, where k_max is the largest eigenvalue of
    the diagonal matrix diag(C1^2, C2^2, C3^2 + X3^2);
    ``variant="paper"`` evaluates the printed two-branch minimum
    min{C1^2 + C2^2, C1^2 + C3^2 + X3^2}/4, which disagrees with the
    eigenvalue construction on part of the parameter space (see tests).
    """
    _check_side(side)
    x3 = f.A3 if side == "A" else f.B3
    if variant == "paper":
        return 0.25 * _min(
            f.C1 * f.C1 + f.C2 * f.C2,
            f.C1 * f.C1 + f.C3 * f.C3 + x3 * x3,
        )
    if variant != "general":
        raise ValueError(f"variant must be 'general' or 'paper', got {variant!r}")
    k_max = _max(_max(f.C1 * f.C1, f.C2 * f.C2), f.C3 * f.C3 + x3 * x3)
    total = x3 * x3 + f.C1 * f.C1 + f.C2 * f.C2 + f.C3 * f.C3
    return 0.25 * _max(total - k_max, 0.0)


def geometric_discord(x: XState, side: str = "A", variant: str = "general"):
    """Squared Hilbert-Schmidt distance to the nearest zero-discord state
    (measurement on ``side``)."""
    return geometric_discord_fano(to_fano(_moduli(x)), side=side, variant=variant)


class _Entropies(NamedTuple):
    full: float  # S(rho)
    diag: float  # S(diag(a, b, c, d))
    a: float  # S(rho_A)
    b: float  # S(rho_B)
    n1: float  # N1 of approx_discord for the measured side
    mmm: float  # H((1 + c)/2) of mmm_discord, c = max|C_i|


def _entropies(m: XState, f: FanoParams, side: str) -> _Entropies:
    """Every entropy the discord family needs, of the state ``m`` from
    :func:`_moduli` with Fano coordinates ``f`` and ``side`` measured, from
    one -p log2 p pass over the zero-padded distributions (one per column)."""
    bc = m.b - m.c if side == "B" else m.c - m.b
    u, v = m.a - m.d + bc, m.abs_z + m.abs_w
    root = _min(_sqrt(u * u + 4.0 * (v * v)), 1.0)
    c = _max(_max(abs(f.C1), abs(f.C2)), abs(f.C3))
    pa, pb, zero = m.a + m.b, m.a + m.c, 0.0 * m.a
    l0, l1, l2, l3 = _block_spectrum(m.a, m.b, m.c, m.d, m.abs_z, m.abs_w)
    rows = [
        # rho  diag  rho_A     rho_B     N1                MMM
        (l0,   m.a,  pa,       pb,       0.5 + 0.5 * root, 0.5 * (1.0 + c)),
        (l1,   m.b,  1.0 - pa, 1.0 - pb, 0.5 - 0.5 * root, 0.5 * (1.0 - c)),
        (l2,   m.c,  zero,     zero,     zero,             zero),
        (l3,   m.d,  zero,     zero,     zero,             zero),
    ]
    if type(l0) is float:
        return _Entropies(*_entropy_columns(rows))
    return _Entropies(*entropy(np.array(rows)))


def _state_entropies(x: XState, side: str) -> _Entropies:
    m = _moduli(x)
    return _entropies(m, to_fano(m), side)


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


def _mmm(ent: _Entropies):
    return 1.0 + ent.mmm - ent.full


def mmm_discord(x: XState):
    """Discord of a state with maximally mixed marginals.

    Evaluated in the spectral form 1 + H((1 + c)/2) - S(rho) with
    c = max|C_i|, which stays well defined on the whole Bell-diagonal set.
    Raises :class:`NotMMM` unless A3 and B3 vanish (for every state of a
    batch).
    """
    m = _moduli(x)
    f = to_fano(m)
    if not np.all(_is_mmm(f)):
        raise NotMMM(f"marginals not maximally mixed: A3={f.A3!r}, B3={f.B3!r}")
    return _mmm(_entropies(m, f, "B"))


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
    the identity Q + C = I holds exactly by construction. Against the
    brute-force oracle the error of random samples stays near 1e-4 to 1e-3
    bits; a search found 2.938e-3 bits at a = 0.0289972371599611,
    b = 0.943110617484378, c = 0.027503475642149514,
    d = 0.0003886697135111858, z = 0.14135527749366156,
    w = 4.12215082702831e-05, where the optimal angle is interior.
    """
    _check_side(side)
    return _approx(_state_entropies(x, side), side)


def _approx(ent: _Entropies, side: str) -> ApproxDiscord:
    n2 = ent.diag - (ent.b if side == "B" else ent.a)
    q, cc, mi = _correlations(ent, side, _min(ent.n1, n2))
    return ApproxDiscord(q, ent.n1, n2, cc, mi, side)


def mid(x: XState):
    """Measurement-induced disturbance with projectors in the sigma_z
    eigenbasis of the marginals: S(diag(a, b, c, d)) - S(rho)."""
    ent = _state_entropies(x, "B")
    return ent.diag - ent.full


class MeasureReport(NamedTuple):
    """Every closed-form quantifier for one state, or for each state of a
    batch, as an immutable record.

    For one state (an :class:`XState` with Python float and complex
    fields) every measure is a Python float, ``schmidt_values`` a tuple of
    four Python floats in descending order and ``schmidt_number`` an int.
    For a batch the fields are arrays over the states, and
    ``schmidt_values`` has the values on axis 0. ``mmm_discord`` is None
    for a state whose marginals are not maximally mixed (a batch holds an
    object array of floats and None); ``side`` records which subsystem the
    discord-family measures condition on.
    """

    concurrence: float
    negativity: float
    fef: float
    fef_fidelity: float
    schmidt_values: tuple | np.ndarray
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
        """The fields in their order as plain Python values,
        ``schmidt_values`` as a list (lists over the states for a batch)."""
        out = dict(zip(self._fields, self))
        if type(self.schmidt_values) is tuple:  # one state: Python values already
            out["schmidt_values"] = list(self.schmidt_values)
            return out
        return {k: v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v
                for k, v in out.items()}


def report(x: XState, side: str = "B") -> MeasureReport:
    """Aggregate every measure for a state or a batch; the coherence moduli,
    the Fano coordinates and the entropies are computed once."""
    _check_side(side)
    m = _moduli(x)
    f = to_fano(m)
    ent = _entropies(m, f, side)
    ad = _approx(ent, side)
    values = _schmidt(f)
    e = fef(m)
    return MeasureReport(
        concurrence=concurrence(m),
        negativity=negativity(m),
        fef=e,
        fef_fidelity=0.5 * (e + 1.0),
        schmidt_values=values,
        schmidt_number=_rank(values),
        geometric_discord_general=geometric_discord_fano(f, side=side, variant="general"),
        geometric_discord_paper=geometric_discord_fano(f, side=side, variant="paper"),
        approx_discord=ad.q,
        classical_correlation=ad.classical_correlation,
        mutual_information=ad.mutual_information,
        mid=ent.diag - ent.full,
        mmm_discord=_where(_is_mmm(f), _mmm(ent), None),
        side=side,
    )
