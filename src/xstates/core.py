"""X-state value types, parameterizations, canonical constructors, random
sampling, batching, and the ensemble-averaged dephasing channel."""

from __future__ import annotations

import contextlib
import functools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CoherenceBoundViolated,
    InfeasibleState,
    NegativePopulation,
    NotHermitian,
    NotPositive,
    NotXShaped,
    TraceError,
    ValidationError,
)

TRACE_TOL = 1e-12
POPULATION_TOL = 1e-14
COHERENCE_TOL = 1e-12
X_PATTERN_RTOL = 1e-10

# matrix positions carrying X-state data, basis order |00>,|01>,|10>,|11>:
# entry (i, j) is on the X pattern iff the labels i and j differ in an even
# number of bits, the +1 eigenspace of conjugation by sigma_z (x) sigma_z
X_MASK = np.array([[bin(i ^ j).count("1") % 2 == 0 for j in range(4)] for i in range(4)])


@dataclass(frozen=True)
class XState:
    """Two-qubit density matrix supported on the diagonal and anti-diagonal.

    Populations ``a, b, c, d`` act on |00>, |01>, |10>, |11>; the coherences
    are ``z = <01|rho|10>`` and ``w = <00|rho|11>``. Instances are immutable;
    build them through :func:`validate` (or the canonical constructors),
    which enforces unit trace, non-negative populations, and the positivity
    bounds |z| <= sqrt(b c), |w| <= sqrt(a d).

    A batch of states is one instance whose fields are equal-shape arrays
    (see :func:`stack`); every measure accepts either form and returns
    floats or arrays of the fields' shape.
    """

    a: float
    b: float
    c: float
    d: float
    z: complex
    w: complex

    def to_matrix(self) -> np.ndarray:
        """The density matrix, of shape ``(..., 4, 4)`` for a batch."""
        m = np.zeros(np.shape(self.a) + (4, 4), dtype=np.complex128)
        m[..., 0, 0], m[..., 1, 1], m[..., 2, 2], m[..., 3, 3] = self.a, self.b, self.c, self.d
        m[..., 1, 2] = self.z
        m[..., 2, 1] = np.conj(self.z)
        m[..., 0, 3] = self.w
        m[..., 3, 0] = np.conj(self.w)
        return m

    def swap_qubits(self) -> "XState":
        """Exchange the two qubits: b <-> c and z -> conj(z)."""
        return XState(self.a, self.c, self.b, self.d, self.z.conjugate(), self.w)

    @property
    def abs_z(self):
        """|z|, rounded as Python's ``abs`` rounds a complex, for a state and
        for a batch alike."""
        return abs(self.z) if type(self.z) is float else _hypot(self.z.real, self.z.imag)

    @property
    def abs_w(self):
        """|w|, rounded as :attr:`abs_z`."""
        return abs(self.w) if type(self.w) is float else _hypot(self.w.real, self.w.imag)


class FanoParams(NamedTuple):
    """Correlation-tensor coordinates of an X state, an immutable record.

    ``A3, B3`` are the local sigma_z components, ``C1, C2, C3`` the
    coefficients of sigma_i (x) sigma_i. Complex coherences additionally
    populate ``C12, C21`` (sigma_1 (x) sigma_2 and sigma_2 (x) sigma_1);
    both vanish after phase normalization. Convention: sigma_3 = diag(+1, -1)
    on (|0>, |1>).
    """

    A3: float
    B3: float
    C1: float
    C2: float
    C3: float
    C12: float = 0.0
    C21: float = 0.0


@dataclass(frozen=True)
class PureCoefficients:
    """Amplitudes of a pure two-qubit state alpha|00>+beta|01>+gamma|10>+delta|11>."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        n = (
            abs(self.alpha) ** 2
            + abs(self.beta) ** 2
            + abs(self.gamma) ** 2
            + abs(self.delta) ** 2
        )
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"coefficients not normalized: |psi|^2 = {n!r}")

    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta], dtype=np.complex128)


@dataclass(frozen=True)
class PhaseNormalized:
    """An X state with real non-negative coherences plus the absorbed phases."""

    state: XState
    z_phase: float
    w_phase: float

    def restore(self) -> XState:
        """Undo the local phase absorption, recovering the original state."""
        s = self.state
        return XState(
            s.a, s.b, s.c, s.d,
            s.abs_z * np.exp(1j * self.z_phase),
            s.abs_w * np.exp(1j * self.w_phase),
        )


def _hypot(x, y):
    """sqrt(x^2 + y^2), rounded as libm's ``hypot``, which np.hypot and
    Python's ``abs`` of a complex both call (``np.abs`` of a complex array
    differs in the last bit for about a third of all values).

    The closed forms' primitives ``_hypot``, ``_max``, ``_min``, ``_sqrt``
    and ``_where`` are plain expressions on Python floats (and a bool
    condition) and ufuncs otherwise, with the same bits, so one formula
    serves a state cheaply and a batch. On a tie a ufunc returns its second
    argument (np.maximum(-0.0, 0.0) is 0.0, ``max`` gives -0.0). ``log2``
    stays numpy's: ``math.log2`` differs from its SIMD kernel in the last
    bit on 0.2% of inputs. So one state's entropies take one ``np.log2``
    call on the list of their table's 16 populated entries
    (``measures._entropies``); each column is then summed in Python in the
    order of numpy's axis-0 reduction, from its identity +0.0, without the
    batch's zero pads, which move no bit of a sum started at +0.0.
    The products and sums are IEEE-exact and ``np.log2`` rounds an entry
    alike wherever it sits, so the bits are the batch's, signed zeros
    included. Squares are written ``x * x``: on a float ``x ** 2`` is libm's
    pow, an ulp off on 0.1% of inputs. So a state and its batch element
    agree bit for bit in every measure."""
    if type(x) is float and type(y) is float:
        return abs(complex(x, y))
    return np.hypot(x, y)


def _max(x, y):
    return (x if x > y else y) if type(x) is type(y) is float else np.maximum(x, y)


def _min(x, y):
    return (x if x < y else y) if type(x) is type(y) is float else np.minimum(x, y)


def _sqrt(x):
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def _where(cond, x, y):
    # [()] unwraps the 0-d array of a numpy scalar condition
    return (x if cond else y) if type(cond) is bool else np.where(cond, x, y)[()]


def _complex(re, im):
    """re + i im with the bits of both parts, for numbers or equal-shape arrays."""
    if not isinstance(re, np.ndarray):
        return complex(re, im)
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def validate(a, b, c, d, z=0j, w=0j) -> XState:
    """Check raw parameters and return a valid :class:`XState`.

    The parameters are numbers, or equal-shape arrays for a batch (see
    :func:`stack`). Values within tolerance of the feasible set are clamped
    to its boundary; anything farther out raises :class:`TraceError`,
    :class:`NegativePopulation`, or :class:`CoherenceBoundViolated`, and a
    NaN or infinite value raises :class:`ValidationError`. One formula,
    written with the primitives of the closed forms, serves a state and a
    batch, so every batch element gets the bits its parameters give alone.
    A batch raises the error its first failing element (in C order) raises
    alone, with that element's flat index as the error's ``index``.
    """
    batch = isinstance(a, np.ndarray)
    if not batch:
        a, b, c, d, z, w = float(a), float(b), float(c), float(d), complex(z), complex(w)
    # a failing batch element may hold anything, so numpy must not warn
    with np.errstate(all="ignore") if batch else contextlib.nullcontext():
        abs_z, abs_w = _hypot(z.real, z.imag), _hypot(w.real, w.imag)
        total = a + b + c + d
        pa, pb, pc, pd = _max(0.0, a), _max(0.0, b), _max(0.0, c), _max(0.0, d)
        zb, wb = _sqrt(pb * pc), _sqrt(pa * pd)
        # in the order of the errors: finite, trace, populations, z, w
        checks = (
            abs(total + abs_z + abs_w) < math.inf, abs(total - 1.0) <= TRACE_TOL,
            a >= -POPULATION_TOL, b >= -POPULATION_TOL, c >= -POPULATION_TOL,
            d >= -POPULATION_TOL, abs_z <= zb + COHERENCE_TOL, abs_w <= wb + COHERENCE_TOL,
        )
        # a coherence past its bound becomes v * (bound / |v|)
        over_z, over_w = abs_z > zb, abs_w > wb
        state = XState(
            pa, pb, pc, pd,
            _where(over_z, z * (zb / _where(over_z, abs_z, 1.0)), z),
            _where(over_w, w * (wb / _where(over_w, abs_w, 1.0)), w),
        )
    if batch:
        ok = np.logical_and.reduce(checks)
        if ok.all():
            return state
        i = int(np.argmin(ok))
        params = (np.broadcast_to(p, ok.shape).flat[i].item() for p in (a, b, c, d, z, w))
        try:
            validate(*params)
        except ValidationError as exc:
            exc.index = i
            raise
        raise AssertionError(f"element {i} fails in its batch but not alone")
    if all(checks):
        return state
    finite, trace, *nonnegative, z_ok, _ = checks
    if not finite:
        raise ValidationError(f"parameters must be finite, got {(a, b, c, d, z, w)}")
    if not trace:
        raise TraceError(f"populations sum to {total!r}, not 1")
    for name, p, ok in zip("abcd", (a, b, c, d), nonnegative):
        if not ok:
            raise NegativePopulation(f"population {name} = {p!r} is negative")
    if not z_ok:
        raise CoherenceBoundViolated("z", abs_z, zb)
    raise CoherenceBoundViolated("w", abs_w, wb)


def normalize_phases(x: XState) -> PhaseNormalized:
    """Absorb the phases of z and w into local basis redefinitions.

    The returned state has real non-negative coherences; every correlation
    measure is unchanged. The recorded phases rebuild the original state via
    :meth:`PhaseNormalized.restore`.
    """
    state = XState(x.a, x.b, x.c, x.d, x.abs_z + 0j, x.abs_w + 0j)
    return PhaseNormalized(state, _phase(x.z), _phase(x.w))


def _phase(v):
    # a vanishing coherence has no phase to absorb; [()] unwraps 0-d arrays
    return np.where(v == 0, 0.0, np.angle(v))[()]


def stack(states) -> XState:
    """One :class:`XState` whose fields are arrays of shape ``(n,)`` over the
    ``n`` already validated ``states``; every measure takes it as a batch."""
    return XState(
        *(np.array([getattr(s, k) for s in states], dtype=float) for k in "abcd"),
        *(np.array([getattr(s, k) for s in states], dtype=np.complex128) for k in "zw"),
    )


def unstack(batch: XState) -> list:
    """The states of a batch, each with Python float and complex fields;
    the inverse of :func:`stack`."""
    return [XState(*f) for f in zip(*(getattr(batch, k).tolist() for k in "abcdzw"))]


def from_matrix(m: np.ndarray) -> XState:
    """Extract X-state parameters from a 4x4 density matrix.

    Succeeds only if every off-pattern entry is below
    ``1e-10 * ||m||_F``; otherwise raises :class:`NotXShaped` reporting the
    worst offender. Positivity failures raise :class:`NotPositive`, and
    non-finite entries :class:`ValidationError`.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    herm = np.abs(m - m.conj().T).max()
    if herm > 1e-12:
        raise NotHermitian(f"matrix deviates from Hermiticity by {herm:.3g}")
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"trace is {tr!r}, not 1")
    threshold = X_PATTERN_RTOL * float(np.linalg.norm(m))
    off = np.where(X_MASK, 0.0, np.abs(m))
    k = int(off.argmax())
    if off.flat[k] > threshold:
        raise NotXShaped(divmod(k, 4), float(off.flat[k]), threshold)
    try:
        return validate(
            m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real, m[1, 2], m[0, 3]
        )
    except (NegativePopulation, CoherenceBoundViolated) as exc:
        raise NotPositive(str(exc)) from exc


def to_fano(x: XState) -> FanoParams:
    """Correlation-tensor coordinates of ``x``."""
    z, w = x.z, x.w
    return FanoParams(
        A3=(x.a + x.b) - (x.c + x.d),
        B3=(x.a + x.c) - (x.b + x.d),
        C1=2.0 * (z.real + w.real),
        C2=2.0 * (z.real - w.real),
        C3=(x.a + x.d) - (x.b + x.c),
        C12=2.0 * (z.imag - w.imag),
        C21=-2.0 * (z.imag + w.imag),
    )


def from_fano(f: FanoParams) -> XState:
    """Inverse of :func:`to_fano`, for a state or a batch whose fields are
    arrays; raises :class:`InfeasibleState` when the coordinates do not
    describe a physical state, for a batch with the first failing element's
    ``index`` (see :func:`validate`)."""
    if any(isinstance(v, np.ndarray) for v in f):
        f = FanoParams(*np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in f)))
    a = 0.25 * (1.0 + f.A3 + f.B3 + f.C3)
    b = 0.25 * (1.0 + f.A3 - f.B3 - f.C3)
    c = 0.25 * (1.0 - f.A3 + f.B3 - f.C3)
    d = 0.25 * (1.0 - f.A3 - f.B3 + f.C3)
    z = _complex(0.25 * (f.C1 + f.C2), 0.25 * (f.C12 - f.C21))
    w = _complex(0.25 * (f.C1 - f.C2), -0.25 * (f.C12 + f.C21))
    try:
        return validate(a, b, c, d, z, w)
    except (TraceError, NegativePopulation, CoherenceBoundViolated) as exc:
        err = InfeasibleState(str(exc))
        err.index = exc.index
        raise err from exc


_BELL_PARAMS = (
    (0.5, 0.0, 0.0, 0.5, 0.0 + 0j, 0.5 + 0j),   # (|00>+|11>)/sqrt(2)
    (0.0, 0.5, 0.5, 0.0, 0.5 + 0j, 0.0 + 0j),   # (|01>+|10>)/sqrt(2)
    (0.0, 0.5, 0.5, 0.0, -0.5 + 0j, 0.0 + 0j),  # (|01>-|10>)/sqrt(2) up to phase
    (0.5, 0.0, 0.0, 0.5, 0.0 + 0j, -0.5 + 0j),  # (|00>-|11>)/sqrt(2)
)


def bell(index: int) -> XState:
    """The four maximally entangled Bell states, |phi_i> = (I (x) sigma_i)|phi_0>."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"bell index must be 0..3, got {index}")
    return XState(*_BELL_PARAMS[index])


def werner(epsilon: float, bell_index: int = 0) -> XState:
    """Mixture (1 - eps) I/4 + eps |phi_i><phi_i| of white noise and a Bell state."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    q = bell(bell_index)
    base = (1.0 - epsilon) * 0.25
    return XState(
        base + epsilon * q.a,
        base + epsilon * q.b,
        base + epsilon * q.c,
        base + epsilon * q.d,
        epsilon * q.z,
        epsilon * q.w,
    )


def bell_diagonal(c1: float, c2: float, c3: float) -> XState:
    """State with maximally mixed marginals and correlations (c1, c2, c3).

    Feasible iff the four Bell-state weights
    (1 -/+ c1 +/- c2 -/+ c3)/4 are all non-negative.
    """
    weights = (
        0.25 * (1.0 - c1 - c2 - c3),
        0.25 * (1.0 - c1 + c2 + c3),
        0.25 * (1.0 + c1 - c2 + c3),
        0.25 * (1.0 + c1 + c2 - c3),
    )
    for k, p in enumerate(weights):
        if p < -1e-12:
            raise InfeasibleState(
                f"Bell-basis weight {k} = {p!r} is negative for "
                f"(c1, c2, c3) = ({c1}, {c2}, {c3})"
            )
    # weights down to -1e-12 are admitted, so clamp the populations and
    # renormalize here rather than in validate (whose window is tighter)
    a = max(0.25 * (1.0 + c3), 0.0)
    b = max(0.25 * (1.0 - c3), 0.0)
    s = 2.0 * (a + b)
    a /= s
    b /= s
    return validate(
        a, b, b, a, complex(0.25 * (c1 + c2) / s), complex(0.25 * (c1 - c2) / s)
    )


def _streams(seed: int, indices):
    """For each index, the generator at the start of the Philox stream with
    key [seed, index] and counter 0: every random draw here is defined by
    these streams. One generator is re-keyed for each index, so draw from it
    before taking the next. Raises ValueError for a seed outside [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    bits = np.random.Philox(0)  # its state is replaced before every draw
    rng = np.random.Generator(bits)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # the buffer is spent, so the next draw starts at counter 0
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in indices:
        state["state"]["key"] = (seed, index)
        bits.state = state  # the setter copies the values, so one dict serves every index
        yield rng


# Philox4x64-10 (Salmon et al., SC '11) as numpy's Philox runs it: the
# multipliers of words 0 and 2 and the key bumps of words 0 and 1, one per row
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)


def _philox_words(seed: int, start: int, n: int) -> np.ndarray:
    """The first eight words of the Philox stream of key [seed, i] for
    ``start <= i < start + n``, shape ``(8, n)``: the stream starts at
    counter 0 and increments it before each block, so words 0-3 are the
    block of counter 1 and words 4-7 that of counter 2. Both counters run
    side by side, and the 64 x 64 -> 128-bit products are built from 32-bit
    halves."""
    key = np.empty((2, 2, n), dtype=np.uint64)  # (key word, counter, index)
    key[0] = seed
    key[1] = np.arange(n, dtype=np.uint64) + np.uint64(start)
    key = key.reshape(2, 2 * n)
    # the multiplied words 0 and 2, and words 1 and 3, of both counters
    x, y = np.zeros((2, 2 * n), dtype=np.uint64), np.zeros((2, 2 * n), dtype=np.uint64)
    x[0, :n], x[0, n:] = 1, 2
    m_lo, m_hi = _PHILOX_M & _LOW32, _PHILOX_M >> 32
    for r in range(10):
        if r:
            key += _PHILOX_W
        # the high word of x m: each partial sum below stays under 2^64
        x_lo, x_hi = x & _LOW32, x >> 32
        mid = x_lo * m_lo
        mid >>= 32
        mid += x_hi * m_lo
        low = x_lo * m_hi
        low += mid & _LOW32
        low >>= 32
        mid >>= 32
        hi = x_hi * m_hi
        hi += mid
        hi += low
        # words 0, 2 <- hi(w2) ^ w1 ^ k0, hi(w0) ^ w3 ^ k1; words 1, 3 <- lo(w2), lo(w0)
        y ^= key
        hi ^= y[::-1]
        x, y = hi[::-1], (x * _PHILOX_M)[::-1]
    words = np.stack((x[0], y[0], x[1], y[1])).reshape(4, 2, n)
    return words.transpose(1, 0, 2).reshape(8, n)


# below this many states the per-index streams are the cheaper sampler: on a
# 2-CPU x86-64 host the whole-array draws took 1.09x the streams' time at 100
# states, 0.99x at 120 and 0.88x at 150 (medians of 30 paired timings)
SAMPLING_CROSSOVER = 120
# an exponential's fast-path threshold is known to within a few units, so a
# draw this close to it goes to the per-index stream
_ZIGGURAT_MARGIN = 2**16
# the fixed key and indices of the first-use check of the fast path
_CHECK_SEED, _CHECK_N = 2**64 - 1, 256


def _exponentials(words: np.ndarray, ziggurat):
    """numpy's ``standard_exponential`` of each Philox word ``r`` on its
    ziggurat fast path, ri we[box] with ri = r >> 11 and box = (r >> 3) & 0xFF,
    and where that path surely takes the word alone: ri < ke[box], less
    the margin (see :func:`_ziggurat`)."""
    we, accept = ziggurat
    ri, box = words >> 11, (words >> 3) & 0xFF
    return ri * we[box], ri < accept[box]


def _draws(seed: int, start: int, stop: int, complex_phases: bool, ziggurat=None):
    """The draws of :func:`random_xstates`: per index four exponentials, two
    uniforms and, with ``complex_phases``, two more uniforms, as arrays of
    shape (n, 4), (n, 2) and (n, 2). Per index from its stream, or, given
    :func:`_ziggurat`'s tables, from the whole-array Philox words where
    every exponential takes numpy's ziggurat fast path."""
    n = stop - start
    e, u, turns = np.empty((n, 4)), np.empty((n, 2)), np.empty((n, 2))
    slow = range(n)
    if ziggurat is not None:
        words = _philox_words(seed, start, n)
        exponentials, fast = _exponentials(words[:4], ziggurat)
        e[:] = exponentials.T
        # random() is (r >> 11) 2^-53
        uniforms = ((words[4:] >> 11) * 2.0**-53).T
        u[:], turns[:] = uniforms[:, :2], uniforms[:, 2:]
        slow = np.flatnonzero(~fast.all(axis=0)).tolist()
    for k, rng in zip(slow, _streams(seed, (start + k for k in slow))):
        rng.standard_exponential(out=e[k])
        rng.random(out=u[k])
        if complex_phases:
            rng.random(out=turns[k])
    return e, u, turns


@functools.cache
def _ziggurat():
    """numpy's exponential ziggurat, read on first use: per box the width
    ``we`` and a bound below which the fast path surely accepts ``ri``, its
    threshold ``ke`` less ``_ZIGGURAT_MARGIN`` (0 in boxes 0 and 1, which
    always go to the stream). Each ``we[box]`` is the draw of a Philox
    buffer holding ri = 1 in that box, and ``ke[box]`` is within a few units
    of 2^53 we[box - 1] / we[box]. None, logged once, if the fast path then
    differs from the per-index streams on a fixed set of indices."""
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    state = bits.state
    we = np.empty(256)
    for box in range(256):
        # box 1 accepts no ri; its rejection test takes the next word, u = 0,
        # and then returns ri we[1]
        state["buffer"], state["buffer_pos"] = ((1 << 11) | (box << 3), 0, 0, 0), 0
        bits.state = state
        we[box] = rng.standard_exponential()
    accept = np.zeros(256, dtype=np.uint64)
    for box in range(2, 256):
        accept[box] = max(int(2.0**53 * we[box - 1] / we[box]) - _ZIGGURAT_MARGIN, 0)
    we.flags.writeable = accept.flags.writeable = False  # every caller shares them
    tables = (we, accept)
    fast = _draws(_CHECK_SEED, 0, _CHECK_N, True, tables)
    loop = _draws(_CHECK_SEED, 0, _CHECK_N, True)
    if all(f.tobytes() == s.tobytes() for f, s in zip(fast, loop)):
        return tables
    logging.getLogger("xstates").warning(
        "whole-array sampling differs from the per-index streams; sampling per index")
    return None


def random_xstates(seed: int, start: int, stop: int, complex_phases: bool = False) -> XState:
    """The states :func:`random_xstate` gives for ``(seed, i)``,
    ``start <= i < stop``, as one batch (see :func:`stack`), bit for bit.

    Each index draws four exponentials, two uniforms and, with
    ``complex_phases``, two more uniforms from its own stream. From
    ``SAMPLING_CROSSOVER`` states on, the streams' first eight words are
    computed for every index at once (Philox is counter-based) and turned
    into the draws by numpy's own formulas: the uniforms'
    (r >> 11) 2^-53 and the ziggurat fast path of the exponentials, whose
    tables are read on first use. An index whose exponentials leave the
    fast path, about one in ten, is drawn from its stream. The
    normalisation and the coherence scaling run on whole arrays. Raises
    ValueError for a seed or an index outside [0, 2**64) and for
    ``stop < start``.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    if stop < start:
        raise ValueError(f"index range [{start}, {stop}) has stop < start")
    if start < 0 or stop > 2**64:
        raise ValueError(f"index range [{start}, {stop}) is outside [0, 2**64)")
    ziggurat = _ziggurat() if stop - start >= SAMPLING_CROSSOVER else None
    e, u, turns = _draws(seed, start, stop, complex_phases, ziggurat)
    a, b, c, d = (e / e.sum(axis=1, keepdims=True)).T.copy()
    zb, wb = np.sqrt(b * c), np.sqrt(a * d)
    z, w = (u[:, 0] * zb).astype(complex), (u[:, 1] * wb).astype(complex)
    if complex_phases:
        turns = turns * 2.0 * math.pi
        z, w = z * np.exp(1j * turns[:, 0]), w * np.exp(1j * turns[:, 1])
        # a modulus that rounds past its bound is clamped
        return validate(a, b, c, d, z, w)
    # real coherences are u * bound with u < 1 and so within their bounds
    return XState(a, b, c, d, z, w)


def random_xstate(seed: int, index: int, complex_phases: bool = False) -> XState:
    """Deterministic random X state for the pair ``(seed, index)``.

    Populations are uniform on the probability simplex (normalized
    exponentials); each coherence is a uniform fraction of its positivity
    bound. With ``complex_phases`` the coherences get uniform phases.
    A batch of one of :func:`random_xstates`.
    """
    (x,) = unstack(random_xstates(seed, index, index + 1, complex_phases))
    return x


def random_pure(seed: int, index: int) -> PureCoefficients:
    """Deterministic Haar-random pure two-qubit state for ``(seed, index)``."""
    if not 0 <= index < 2**64:
        raise ValueError(f"index {index} is outside [0, 2**64)")
    rng = next(_streams(seed, (index,)))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return PureCoefficients(*(complex(c) for c in v))


# phase winding numbers of the basis states under a collective z-type shift
_PHASE_COUNT = (0, 1, 1, 2)


def dephase_average(psi: PureCoefficients, t_over_t2: float) -> np.ndarray:
    """Ensemble-averaged density matrix of ``psi`` under random collective
    dephasing of strength ``t_over_t2`` (Gaussian phase, variance t/T2).

    Coherence (i, j) is attenuated by exp(-(n_i - n_j)^2 t / (2 T2)) with
    n = (0, 1, 1, 2), so the |01><10| coherence survives and the state
    converges to an X state as t >> T2.
    """
    if t_over_t2 < 0:
        raise ValueError(f"t_over_t2 must be >= 0, got {t_over_t2}")
    v = psi.vector()
    rho = np.outer(v, v.conj())
    decay = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            n = _PHASE_COUNT[i] - _PHASE_COUNT[j]
            decay[i, j] = math.exp(-0.5 * n * n * t_over_t2)
    return rho * decay


def x_limit(psi: PureCoefficients) -> XState:
    """The t -> infinity limit of :func:`dephase_average`."""
    a = abs(psi.alpha) ** 2
    b = abs(psi.beta) ** 2
    c = abs(psi.gamma) ** 2
    d = abs(psi.delta) ** 2
    z = psi.beta * complex(psi.gamma).conjugate()
    return validate(a, b, c, d, z, 0j)
