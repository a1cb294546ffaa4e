"""Hot numeric kernels: the measured conditional entropy with its
minimisation over measurement angles, and the matrix exponential and its
action on a vector from one truncated Taylor series."""

from __future__ import annotations

import math

import numpy as np

# angles of each rescan of a state whose optimum can be interior; each one
# narrows the angle spacing (REFINE_POINTS - 1) / 2 = 20-fold
REFINE_POINTS = 41
# the rescans stop once the angle spacing is this fine: below the square
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


def min_conditional_entropy(a, b, c, d, z, w, grid=64):
    """Minimum of the measured conditional entropy of phase-normalised
    states, where ``a, b, c, d`` and the real, non-negative coherences
    ``z, w`` are floats or equal-shape arrays.

    For such states the minimum over phi lies at phi = 0, and the entropy is
    symmetric under theta -> pi/2 - theta, so only theta in [0, pi/4] is
    searched: a scan of ``grid`` evenly spaced angles. A state whose best angle
    is interior, or whose entropy does not rise from its best endpoint
    (:func:`_keeps_endpoint`), gets scans of ``REFINE_POINTS`` angles around
    the best one so far until their spacing is below ``THETA_TOL``; the others
    keep that endpoint, a sigma_z or sigma_x candidate. ``grid`` thus sets
    which basin the search settles in, not how precisely it resolves it.
    Returns the minima, their angles theta and whether each state was refined.
    """
    levels = scan_levels(grid)
    shape = np.shape(a)
    # one state per row; the angles of each scan run along the last axis
    a, b, c, d, z, w = (np.asarray(p, dtype=float).reshape(-1, 1) for p in (a, b, c, d, z, w))
    # conditional_entropy at phi = 0, where the coherence term is (z + w)^2
    sums = _sums(a, b, c, d, (z + w) ** 2)
    theta = 0.25 * math.pi * np.linspace(0.0, 1.0, grid)
    vals = _conditional_entropy_sums(*sums, theta[None])
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


# ---------------------------------------------------------------------------
# matrix exponential for the exact propagators in dynamics
# ---------------------------------------------------------------------------

# expm sums the series of a matrix scaled to at most this 1-norm, and the
# action in dynamics.esd_time cuts its bracket into pieces of at most this
# much ||G||_1 tau
TAYLOR_SPAN = 1.0


def taylor_terms(a: np.ndarray, v: np.ndarray, norm: float) -> np.ndarray:
    """The terms a^k v / k!, k = 0, 1, ..., of the series of expm(a) v,
    stacked on axis 0; ``v`` is a vector or a matrix.

    ``norm`` bounds the 1-norm of ``a``, so norm^k / k! bounds the k-th term
    relative to v. Terms are kept while that bound is at least 2^-53, the
    first one below it ends the series (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)).
    """
    count, bound = 1, norm  # terms kept, and the bound of the next one
    while bound >= 2.0**-53:
        count += 1
        bound *= norm / count
    terms = np.empty((count,) + np.shape(v), dtype=np.result_type(a, v))
    terms[0] = v
    for k in range(1, count):
        np.matmul(a, terms[k - 1], out=terms[k])
        terms[k] /= k
    return terms


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix by scaling and squaring.

    ``a`` is halved s times until its 1-norm is at most ``TAYLOR_SPAN``, and
    the :func:`taylor_terms` of the scaled matrix on the identity are summed.
    With s > 0 the sum Y of all terms but the identity is squared s times as
    Y <- 2Y + Y Y, and the result is I + Y. Defective matrices need no
    special treatment; expm(0) is the identity exactly. A real matrix has a
    real exponential, computed in real arithmetic. Raises ValueError for a
    matrix whose 1-norm is not finite.
    """
    a = np.asarray(a)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError(f"cannot exponentiate a matrix of 1-norm {norm}")
    squarings = 0
    while norm > TAYLOR_SPAN:
        norm *= 0.5
        squarings += 1
    eye = np.eye(a.shape[0], dtype=a.dtype)
    terms = taylor_terms(a * 0.5**squarings, eye, norm)
    if squarings == 0:
        return terms.sum(axis=0)
    # (I + Y)^2 = I + (2Y + Y Y): squaring Y keeps the low bits that a sum
    # I + Y near the identity would round away before every squaring
    y = terms[1:].sum(axis=0)
    for _ in range(squarings):
        y = 2.0 * y + y @ y
    return eye + y
