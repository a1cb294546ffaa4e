"""Hot numeric kernels: the measured conditional entropy with its
minimisation over measurement angles, and a cyclic Jacobi eigensolver."""

from __future__ import annotations

import math

import numpy as np

# angles of each refinement scan in min_conditional_entropy; each one
# narrows the angle spacing (REFINE_POINTS - 1) / 2 = 20-fold
REFINE_POINTS = 41
# the search stops once the angle spacing is this fine: below the square
# root of the double epsilon the entropy is flat to rounding around a minimum
THETA_TOL = 1e-8
_REFINE_FRAC = np.linspace(0.0, 1.0, REFINE_POINTS)
# outcome signs: axis 0 of an evaluation holds the outcomes |m0>, |m1>
_OUTCOMES = np.array([1.0, -1.0])


def conditional_entropy(a, b, c, d, zr, zi, wr, wi, theta, phi):
    """Measured conditional entropy (bits) of qubit A after measuring qubit
    B in the basis |m0> = cos(theta)|0> + e^{i phi} sin(theta)|1> and its
    complement.

    Vectorised over broadcastable parameter and angle arrays. Outcomes with
    probability below 1e-14 contribute nothing.
    """
    cp = np.cos(phi)
    sp = np.sin(phi)
    # |e^{i phi} w + e^{-i phi} z|^2, the coherence both outcomes leave on A
    oo = (cp * (wr + zr) + sp * (zi - wi)) ** 2 + (sp * (wr - zr) + cp * (wi + zi)) ** 2
    return _conditional_entropy_sums(*_sums(a, b, c, d, oo), theta)


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
    c2 = np.multiply.outer(_OUTCOMES, np.cos(2.0 * theta))
    s2 = np.sin(2.0 * theta)
    pp = t + c2 * dd  # twice the outcome probabilities
    n = e + c2 * f
    lam = np.minimum(0.5 + 0.5 * np.sqrt(n * n + q * (s2 * s2)) / np.maximum(pp, 1e-300), 1.0)
    rest = 1.0 - lam
    h = -(lam * np.log2(lam) + rest * np.log2(np.maximum(rest, 1e-300)))
    return 0.5 * np.where(pp < 2e-14, 0.0, pp * h).sum(axis=0)


def scan_levels(grid: int) -> int:
    """Number of scans :func:`min_conditional_entropy` makes at ``grid``."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    step = 0.25 * math.pi / (grid - 1)
    levels = 1
    while step > THETA_TOL:
        step *= 2.0 / (REFINE_POINTS - 1)
        levels += 1
    return levels


def min_conditional_entropy(a, b, c, d, z, w, grid=64):
    """Minimum of the measured conditional entropy of phase-normalised
    states, where ``a, b, c, d`` and the real, non-negative coherences
    ``z, w`` are arrays of shape ``(n,)``.

    For such states the minimum over phi lies at phi = 0, and the entropy is
    symmetric under theta -> pi/2 - theta, so only theta in [0, pi/4] is
    searched: a scan of ``grid`` evenly spaced angles, then scans of
    ``REFINE_POINTS`` angles across the bracket of neighbouring angles
    around the best one so far, until the spacing is below ``THETA_TOL``
    (:func:`scan_levels` scans in all). ``grid`` thus sets which basin the
    search settles in, not how precisely it resolves it. Returns the minima
    and their angles theta, both of shape ``(n,)``.
    """
    levels = scan_levels(grid)
    a, b, c, d, z, w = (np.asarray(p, dtype=float)[:, None] for p in (a, b, c, d, z, w))
    # conditional_entropy at phi = 0, where the coherence term is (z + w)^2
    sums = _sums(a, b, c, d, (z + w) ** 2)
    rows = np.arange(a.shape[0])
    lo = np.zeros_like(a)
    width = np.full_like(a, 0.25 * math.pi)
    best_v = np.full(a.shape[0], np.inf)
    best_t = np.zeros(a.shape[0])
    frac = np.linspace(0.0, 1.0, grid)
    for _ in range(levels):
        theta = lo + width * frac
        vals = _conditional_entropy_sums(*sums, theta)
        k = np.argmin(vals, axis=1)
        level_v = vals[rows, k]
        # keep the best so far: a rescan may miss the bracket's centre
        better = level_v < best_v
        best_v = np.where(better, level_v, best_v)
        best_t = np.where(better, theta[rows, k], best_t)
        step = width[:, 0] / (frac.size - 1)
        new_lo = np.maximum(best_t - step, 0.0)
        width = (np.minimum(best_t + step, 0.25 * math.pi) - new_lo)[:, None]
        lo = new_lo[:, None]
        frac = _REFINE_FRAC
    return best_v, best_t


# ---------------------------------------------------------------------------
# cyclic Jacobi eigensolver for small Hermitian matrices
# ---------------------------------------------------------------------------


def _jacobi_cycle(H, V, n):
    for p in range(n - 1):
        for q in range(p + 1, n):
            hpq = H[p, q]
            mag = abs(hpq)
            if mag < 1e-300:
                continue
            f = hpq / mag  # e^{i arg}
            app = H[p, p].real
            aqq = H[q, q].real
            tau = (aqq - app) / (2.0 * mag)
            if tau >= 0.0:
                t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
            cc = 1.0 / math.sqrt(1.0 + t * t)
            ss = t * cc
            # columns: H <- H J with J = [[c, s], [-conj(f) s, conj(f) c]]
            for k in range(n):
                hkp = H[k, p]
                hkq = H[k, q]
                H[k, p] = cc * hkp - np.conj(f) * ss * hkq
                H[k, q] = ss * hkp + np.conj(f) * cc * hkq
            # rows: H <- J^dag H
            for k in range(n):
                hpk = H[p, k]
                hqk = H[q, k]
                H[p, k] = cc * hpk - f * ss * hqk
                H[q, k] = ss * hpk + f * cc * hqk
            for k in range(n):
                vkp = V[k, p]
                vkq = V[k, q]
                V[k, p] = cc * vkp - np.conj(f) * ss * vkq
                V[k, q] = ss * vkp + np.conj(f) * cc * vkq


def _jacobi_offnorm(H, n):
    s = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            s += (H[i, j].real * H[i, j].real + H[i, j].imag * H[i, j].imag)
    return math.sqrt(2.0 * s)


def _jacobi_run(A, tol, max_sweeps):
    n = A.shape[0]
    H = A.copy()
    V = np.eye(n, dtype=np.complex128)
    sweeps = 0
    while sweeps < max_sweeps:
        if _jacobi_offnorm(H, n) < tol:
            break
        _jacobi_cycle(H, V, n)
        sweeps += 1
    evals = np.empty(n)
    for i in range(n):
        evals[i] = H[i, i].real
    return evals, V, sweeps


def jacobi_eigh(A: np.ndarray, tol_scale: float = 1e-13, max_sweeps: int = 60):
    """Eigenvalues (descending) and column eigenvectors of Hermitian ``A``.

    Cyclic-by-rows Jacobi rotations, iterated until the off-diagonal
    Frobenius norm drops below ``tol_scale * max(1, ||A||_F)``.
    """
    A = np.ascontiguousarray(A, dtype=np.complex128)
    norm = float(np.linalg.norm(A))
    tol = tol_scale * max(1.0, norm)
    evals, vecs, _ = _jacobi_run(A, tol, max_sweeps)
    order = np.argsort(-evals, kind="stable")
    return evals[order], vecs[:, order]
