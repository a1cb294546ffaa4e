"""Brute-force discord by numerical minimization of the measured
conditional entropy over rank-1 projective measurements.

This module is the independent check for every analytic or approximate
discord expression in :mod:`xstates.measures`: its minimisation shares no
code with them. Only the final bookkeeping, Q, C and I from the state's
entropies and the minimal conditional entropy, is the same helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .core import XState, random_xstates
from .measures import _check_side, _correlations, _state_entropies, approx_discord


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective basis |m0> = cos(theta)|0> + e^{i phi} sin(theta)|1> and
    its orthogonal complement."""

    theta: float
    phi: float

    def projectors(self):
        ct, st = math.cos(self.theta), math.sin(self.theta)
        m0 = np.array([ct, st * np.exp(1j * self.phi)], dtype=np.complex128)
        m1 = np.array([-st * np.exp(-1j * self.phi), ct], dtype=np.complex128)
        return np.outer(m0, m0.conj()), np.outer(m1, m1.conj())


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one conditional-entropy minimization (for a batch, the
    float fields are arrays over the states). ``theta`` and
    ``phi`` give the optimal basis for the phase-normalised state, so
    ``phi`` is 0.0; ``refined`` marks a state whose optimum could be interior,
    which gets ``refinement_iterations`` (:func:`_kernels.scan_levels`) scans."""

    q_min: float
    theta: float
    phi: float
    grid: int
    refinement_iterations: int
    refined: bool
    min_conditional_entropy: float
    classical_correlation: float
    mutual_information: float
    side: str


def conditional_entropy(x: XState, basis: MeasurementBasis, side: str = "B"):
    """Average post-measurement entropy of the unmeasured qubit (bits).

    Measures ``side`` in ``basis``; outcomes with probability below 1e-14
    contribute nothing.
    """
    _check_side(side)
    st = x if side == "B" else x.swap_qubits()
    return _kernels.conditional_entropy(
        st.a, st.b, st.c, st.d, st.z.real, st.z.imag, st.w.real, st.w.imag,
        basis.theta, basis.phi,
    )


def discord_oracle(x: XState, side: str = "B", grid: int = 64) -> OracleResult:
    """Discord from exhaustive search over projective measurements, for a
    state or, with one batched minimisation, for each state of a batch.

    After phase normalisation the search is exactly one-dimensional: theta
    in [0, pi/4] at phi = 0 (see :func:`_kernels.min_conditional_entropy`),
    whose endpoints are the sigma_z and sigma_x candidates of the
    approximate discord; a state keeps its endpoint unless the optimum can
    be interior. Deterministic for fixed parameters. Measuring side A is the
    b <-> c swapped problem.
    """
    _check_side(side)
    st = x if side == "B" else x.swap_qubits()
    # local phases shift the optimal phi but not the minimum
    ce, theta, refined = _kernels.min_conditional_entropy(
        st.a, st.b, st.c, st.d, st.abs_z, st.abs_w, grid=grid
    )
    q, cc, mi = _correlations(_state_entropies(x, side), side, ce)
    return OracleResult(
        q_min=q,
        theta=theta,
        phi=0.0,
        grid=grid,
        refinement_iterations=_kernels.scan_levels(grid),
        refined=refined,
        min_conditional_entropy=ce,
        classical_correlation=cc,
        mutual_information=mi,
        side=side,
    )


CAMPAIGN_THRESHOLDS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
# states per batch: batches this small keep the oracle scan's
# (states x grid) arrays in cache; must divide the progress interval, 1000
CAMPAIGN_CHUNK = 100


@dataclass(frozen=True)
class CampaignStats:
    """Error statistics of the approximate discord against the oracle."""

    n: int
    seed: int
    grid: int
    max_err: float
    mean_err: float
    fractions: tuple  # fraction of states with error above each threshold
    worst_index: int  # random_xstate(seed, worst_index) has the error max_err
    worst_theta: float  # the oracle's optimal angle theta for that state
    refined_fraction: float  # share of states whose optimum could be interior

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "fractions"}
        for thr, frac in zip(CAMPAIGN_THRESHOLDS, self.fractions):
            out[f"frac_gt_1e{round(math.log10(thr))}".replace("-", "")] = frac
        return out


def approx_error_campaign(n: int, seed: int = 1, grid: int = 64, progress=None) -> CampaignStats:
    """|approx_discord - discord_oracle| over ``n`` random states.

    Deterministic per seed. ``progress``, if given, is called with the
    number of finished states every 1000 states.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    errs, thetas, refined = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for start in range(0, n, CAMPAIGN_CHUNK):
        stop = min(start + CAMPAIGN_CHUNK, n)
        states = random_xstates(seed, start, stop)
        res = discord_oracle(states, grid=grid)
        errs[start:stop] = abs(approx_discord(states).q - res.q_min)
        thetas[start:stop], refined[start:stop] = res.theta, res.refined
        if progress is not None and stop % 1000 == 0:
            progress(stop)
    fractions = tuple(float((errs > t).mean()) for t in CAMPAIGN_THRESHOLDS)
    worst = int(errs.argmax())
    return CampaignStats(
        n=n,
        seed=seed,
        grid=grid,
        max_err=float(errs[worst]),
        mean_err=float(errs.mean()),
        fractions=fractions,
        worst_index=worst,
        worst_theta=float(thetas[worst]),
        refined_fraction=float(refined.mean()),
    )
