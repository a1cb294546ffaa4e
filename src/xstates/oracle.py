"""Brute-force discord by numerical minimization of the measured
conditional entropy over rank-1 projective measurements.

This module is the independent check for every analytic or approximate
discord expression in :mod:`xstates.measures`: its minimisation shares no
code with them. Only the final bookkeeping, Q, C and I from the state's
entropies and the minimal conditional entropy, is the same helper.

The measured conditional entropy sums both outcomes in closed form
(:func:`_conditional_entropy_sums`), and :func:`_min_conditional_entropy`
minimises it for a batch of states: one scan of the angle theta, the
endpoint test :func:`_keeps_endpoint`, and rescans around the states whose
optimum can be interior.

:func:`approx_error_campaign` samples, minimises and compares one batch of
up to ``CAMPAIGN_CHUNK`` states at a time. The approximate discord it checks
is computed from the entropies the oracle's result carries
(``OracleResult.entropies``), so each batch takes one entropy pass; the two
routes still differ in the measured conditional entropy, the one quantity
under test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import XState, random_xstates
from .measures import _approx, _check_side, _correlations, _Entropies, _state_entropies

# angles of each rescan of a state whose optimum can be interior; each one
# narrows the angle spacing (REFINE_POINTS - 1) / 2 = 20-fold
REFINE_POINTS = 41
# the rescans stop once the angle spacing is this fine: below the square
# root of the double epsilon the entropy is flat to rounding around a minimum
THETA_TOL = 1e-8
_REFINE_FRAC = np.linspace(0.0, 1.0, REFINE_POINTS)
# (state, angle) pairs per block of the scan: each of the kernel's
# (2, states, angles) buffers then takes 64 KiB, below glibc's 128-KiB mmap
# threshold. Larger buffers cost page faults on every call; a larger
# MALLOC_TOP_PAD_ removes the difference. At grid 64 on a 2-CPU x86-64 host,
# relative to one block, 256-state campaigns took 0.80x with this block and
# 0.89x with 8192 pairs, and 10^4-state ones 0.74x and 0.72x
SCAN_BLOCK = 4096
# outcome signs: axis 0 of an evaluation holds the outcomes |m0>, |m1>
_OUTCOMES = np.array([1.0, -1.0])


def _sums(a, b, c, d, oo):
    return a + b + c + d, a + c - b - d, a - c + b - d, a - c - b + d, 4.0 * oo


def _conditional_entropy_sums(t, dd, e, f, q, theta):
    """:func:`conditional_entropy` from the state's sums ``t = a+b+c+d``,
    ``dd = a+c-b-d``, ``e = a-c+b-d``, ``f = a-c-b+d`` and
    ``q = 4 |e^{i phi} w + e^{-i phi} z|^2`` (see :func:`_sums`).

    Outcome k has probability p = (t +- cos(2 theta) dd) / 2 and leaves A
    with the larger eigenvalue
    1/2 + sqrt((e +- cos(2 theta) f)^2 + q sin^2(2 theta)) / (4 p).
    """
    # in place on four buffers, operation by operation (+ and * commute bit for bit),
    # 0.5 sum(where(pp < 2e-14, 0, pp -(lam log2(lam) + rest log2(max(rest, 1e-300)))))
    c2 = np.multiply.outer(_OUTCOMES, np.cos(2.0 * theta))
    s2 = np.sin(2.0 * theta)
    pp = np.multiply(c2, dd)
    pp += t  # twice the outcome probabilities
    lam = np.multiply(c2, f)
    lam += e  # n
    lam *= lam
    lam += q * (s2 * s2)
    lam = np.multiply(np.sqrt(lam, out=lam), 0.5, out=lam)
    rest = np.maximum(pp, 1e-300)
    lam /= rest
    lam += 0.5
    lam = np.minimum(lam, 1.0, out=lam)
    rest = np.subtract(1.0, lam, out=rest)
    h = np.log2(lam)
    h *= lam
    h += np.multiply(np.log2(np.maximum(rest, 1e-300, out=lam), out=lam), rest, out=lam)
    h = np.multiply(np.negative(h, out=h), pp, out=h)
    h[pp < 2e-14] = 0.0
    return 0.5 * h.sum(axis=0)


def _scan_levels(grid: int) -> int:
    """Number of scans :func:`_min_conditional_entropy` makes at ``grid``."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    step = 0.25 * math.pi / (grid - 1)
    levels = 1
    while step > THETA_TOL:
        step *= 2.0 / (REFINE_POINTS - 1)
        levels += 1
    return levels


@functools.lru_cache(maxsize=8)
def _scan_angles(grid: int) -> np.ndarray:
    """The first scan's ``grid`` angles over [0, pi/4], read-only: calls share them."""
    theta = 0.25 * math.pi * np.linspace(0.0, 1.0, grid)
    theta.flags.writeable = False
    return theta


def _keeps_endpoint(t, dd, e, f, q, at_zero):
    """True where the entropy S rises by a finite slope into [0, pi/4] from
    the best endpoint, theta = 0 where ``at_zero``, else pi/4 (where S, even
    in x = cos(2 theta), has S'(0) = 0 and S''(0) decides). Outcome k adds
    pp h(u / pp) / 2, with pp = t +- x dd, n = e +- x f, u, w = (pp +- R) / 2,
    R = sqrt(n^2 + q (1 - x^2)), and d(pp h)/dx = -u' log2(u/pp) - w' log2(w/pp).
    """
    sign = _OUTCOMES[:, None]
    with np.errstate(all="ignore"):
        # dS/dx at x = 1, where R = |n| and R' = (n n' - q) / R
        pp, dpp, n = t + sign * dd, sign * dd, e + sign * f
        dr = (sign * n * f - q) / np.abs(n)
        lam = (pp + np.abs(n)) / (2.0 * pp)
        slope = -0.25 * ((dpp + dr) * np.log2(lam) + (dpp - dr) * np.log2(1.0 - lam)).sum(axis=0)
        # S''(0) = -R'' log2(u / w) / 2 - (u'^2 / u + w'^2 / w - dd^2 / t) / ln 2,
        # where R R'' = f^2 - q - R'^2
        r = np.sqrt(e * e + q)
        dr = e * f / r
        u, w, du, dw = (t + r) / 2, (t - r) / 2, (dd + dr) / 2, (dd - dr) / 2
        curv = (-0.5 * (f * f - q - dr * dr) / r * np.log2(u / w)
                - (du * du / u + dw * dw / w - dd * dd / t) / math.log(2.0))
        rise = np.where(at_zero, -slope, curv)
    return np.isfinite(rise) & (rise > 0.0)


def _min_conditional_entropy(a, b, c, d, z, w, grid=64):
    """Minimum of the measured conditional entropy of phase-normalised
    states, where ``a, b, c, d`` and the real, non-negative coherences
    ``z, w`` are floats or equal-shape arrays.

    For such states the minimum over phi lies at phi = 0, and the entropy is
    symmetric under theta -> pi/2 - theta, so only theta in [0, pi/4] is
    searched: a scan of ``grid`` evenly spaced angles, in blocks of
    ``SCAN_BLOCK`` (state, angle) pairs. A state whose best angle
    is interior, or whose entropy does not rise from its best endpoint
    (:func:`_keeps_endpoint`), gets scans of ``REFINE_POINTS`` angles around
    the best one so far until their spacing is below ``THETA_TOL``; the others
    keep that endpoint, a sigma_z or sigma_x candidate. ``grid`` thus sets
    which basin the search settles in, not how precisely it resolves it.
    Returns the minima, their angles theta and whether each state was refined.
    """
    levels = _scan_levels(grid)
    shape = np.shape(a)
    # one state per row; the angles of each scan run along the last axis
    a, b, c, d, z, w = (np.asarray(p, dtype=float).reshape(-1, 1) for p in (a, b, c, d, z, w))
    # conditional_entropy at phi = 0, where the coherence term is (z + w)^2
    sums = _sums(a, b, c, d, (z + w) ** 2)
    theta = _scan_angles(grid)
    vals, rows = np.empty((a.shape[0], grid)), max(1, SCAN_BLOCK // grid)
    for i in range(0, a.shape[0], rows):
        vals[i:i + rows] = _conditional_entropy_sums(*(s[i:i + rows] for s in sums), theta[None])
    k = np.argmin(vals, axis=-1)
    best_v, best_t = vals[np.arange(k.size), k], theta[k]
    refine = ((k > 0) & (k < grid - 1)) | ~_keeps_endpoint(*(s[:, 0] for s in sums), k == 0)
    if refine.any():
        sums = tuple(s[refine] for s in sums)
        v, t, step = best_v[refine], best_t[refine], 0.25 * math.pi / (grid - 1)
        for _ in range(levels - 1):
            lo = np.maximum(t - step, 0.0)
            width = np.minimum(t + step, 0.25 * math.pi) - lo
            theta = lo[:, None] + width[:, None] * _REFINE_FRAC
            vals = _conditional_entropy_sums(*sums, theta)
            k = np.argmin(vals, axis=-1)[:, None]
            level_v = np.take_along_axis(vals, k, axis=-1)[:, 0]
            # keep the best so far: a rescan may miss the bracket's centre
            better = level_v < v
            v = np.where(better, level_v, v)
            t = np.where(better, np.take_along_axis(theta, k, axis=-1)[:, 0], t)
            step = width / (REFINE_POINTS - 1)
        best_v[refine], best_t[refine] = v, t
    return best_v.reshape(shape)[()], best_t.reshape(shape)[()], refine.reshape(shape)[()]


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
    which gets ``refinement_iterations`` (:func:`_scan_levels`) scans.
    ``entropies`` are the state's entropies the correlations came from,
    which the campaign's approximate discord reuses."""

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
    entropies: _Entropies = field(compare=False, repr=False)


def conditional_entropy(x: XState, basis: MeasurementBasis, side: str = "B"):
    """Average post-measurement entropy of the unmeasured qubit (bits), for
    a state or, one value per state, for each state of a batch.

    Measures ``side`` in ``basis``, whose ``theta`` may be an array of
    angles that broadcasts against the states; outcomes with probability
    below 1e-14 contribute nothing.
    """
    _check_side(side)
    st = x if side == "B" else x.swap_qubits()
    zr, zi, wr, wi = st.z.real, st.z.imag, st.w.real, st.w.imag
    cp = np.cos(basis.phi)
    sp = np.sin(basis.phi)
    # |e^{i phi} w + e^{-i phi} z|^2, the coherence both outcomes leave on A
    oo = (cp * (wr + zr) + sp * (zi - wi)) ** 2 + (sp * (wr - zr) + cp * (wi + zi)) ** 2
    # one angle per state; an array of angles broadcasts against the batch
    theta = np.broadcast_arrays(basis.theta, st.a)[0]
    return _conditional_entropy_sums(*_sums(st.a, st.b, st.c, st.d, oo), theta)


def discord_oracle(x: XState, side: str = "B", grid: int = 64) -> OracleResult:
    """Discord from exhaustive search over projective measurements, for a
    state or, with one batched minimisation, for each state of a batch.

    After phase normalisation the search is exactly one-dimensional: theta
    in [0, pi/4] at phi = 0 (see :func:`_min_conditional_entropy`),
    whose endpoints are the sigma_z and sigma_x candidates of the
    approximate discord; a state keeps its endpoint unless the optimum can
    be interior. Deterministic for fixed parameters. Measuring side A is the
    b <-> c swapped problem.
    """
    _check_side(side)
    st = x if side == "B" else x.swap_qubits()
    # local phases shift the optimal phi but not the minimum
    ce, theta, refined = _min_conditional_entropy(
        st.a, st.b, st.c, st.d, st.abs_z, st.abs_w, grid=grid
    )
    ent = _state_entropies(x, side)
    q, cc, mi = _correlations(ent, side, ce)
    return OracleResult(
        q_min=q,
        theta=theta,
        phi=0.0,
        grid=grid,
        refinement_iterations=_scan_levels(grid),
        refined=refined,
        min_conditional_entropy=ce,
        classical_correlation=cc,
        mutual_information=mi,
        side=side,
        entropies=ent,
    )


CAMPAIGN_THRESHOLDS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
# states per batch; it must divide the progress interval, 1000. 500 is the
# least such size that takes a 256-state call in one batch. In paired timings
# of approx_error_campaign(10000) on a 2-CPU x86-64 host, relative to 100,
# 250 took 0.72x, 500 0.59x and 1000 0.51x (medians of 20 pairs each)
CAMPAIGN_CHUNK = 500


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
    """|approx_discord - discord_oracle| over ``n`` random states, in
    batches of ``CAMPAIGN_CHUNK`` with one entropy pass each.

    Deterministic per seed, whatever the batch size. ``progress``, if
    given, is called with the number of finished states every 1000 states.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    errs, thetas, refined = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for start in range(0, n, CAMPAIGN_CHUNK):
        stop = min(start + CAMPAIGN_CHUNK, n)
        states = random_xstates(seed, start, stop)
        res = discord_oracle(states, grid=grid)
        # the approximate discord of the oracle's entropies: one pass per chunk
        errs[start:stop] = abs(_approx(res.entropies, "B").q - res.q_min)
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
