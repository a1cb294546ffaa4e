"""X-state value types, parameterizations, canonical constructors, random
sampling, batching, and the ensemble-averaged dephasing channel."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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

# matrix positions carrying X-state data, basis order |00>,|01>,|10>,|11>
X_PATTERN = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1))
X_MASK = np.zeros((4, 4), dtype=bool)
X_MASK[tuple(zip(*X_PATTERN))] = True


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
        return _hypot(self.z.real, self.z.imag)

    @property
    def abs_w(self):
        """|w|, rounded as :attr:`abs_z`."""
        return _hypot(self.w.real, self.w.imag)

    @property
    def is_phase_normalized(self) -> bool:
        z, w = complex(self.z), complex(self.w)
        return (
            abs(z.imag) <= COHERENCE_TOL
            and abs(w.imag) <= COHERENCE_TOL
            and z.real >= -COHERENCE_TOL
            and w.real >= -COHERENCE_TOL
        )


@dataclass(frozen=True)
class FanoParams:
    """Correlation-tensor coordinates of an X state.

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
    """sqrt(x^2 + y^2) for numbers or arrays, rounded as libm's ``hypot``,
    which np.hypot and Python's ``abs`` of a complex both call (``np.abs``
    of a complex array differs in the last bit for about a third of all
    values). On two Python floats ``abs(complex(x, y))`` is the cheap route."""
    if type(x) is float and type(y) is float:
        return abs(complex(x, y))
    return np.hypot(x, y)


def validate(a, b, c, d, z=0j, w=0j) -> XState:
    """Check raw parameters and return a valid :class:`XState`.

    Values within tolerance of the feasible set are clamped to its boundary;
    anything farther out raises :class:`TraceError`,
    :class:`NegativePopulation`, or :class:`CoherenceBoundViolated`, and a
    NaN or infinite value raises :class:`ValidationError`.
    """
    a, b, c, d = float(a), float(b), float(c), float(d)
    z, w = complex(z), complex(w)
    # a NaN or an infinity anywhere makes this sum NaN or infinite
    if not math.isfinite(a + b + c + d + abs(z) + abs(w)):
        raise ValidationError(f"parameters must be finite, got {(a, b, c, d, z, w)}")
    total = a + b + c + d
    if abs(total - 1.0) > TRACE_TOL:
        raise TraceError(f"populations sum to {total!r}, not 1")
    pops = []
    for name, p in (("a", a), ("b", b), ("c", c), ("d", d)):
        if p < -POPULATION_TOL:
            raise NegativePopulation(f"population {name} = {p!r} is negative")
        pops.append(max(p, 0.0))
    a, b, c, d = pops
    zb = math.sqrt(b * c)
    wb = math.sqrt(a * d)
    if abs(z) > zb + COHERENCE_TOL:
        raise CoherenceBoundViolated("z", abs(z), zb)
    if abs(w) > wb + COHERENCE_TOL:
        raise CoherenceBoundViolated("w", abs(w), wb)
    if abs(z) > zb:
        z = z * (zb / abs(z))
    if abs(w) > wb:
        w = w * (wb / abs(w))
    return XState(a, b, c, d, z, w)


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
    """Inverse of :func:`to_fano`; raises :class:`InfeasibleState` when the
    coordinates do not describe a physical state."""
    a = 0.25 * (1.0 + f.A3 + f.B3 + f.C3)
    b = 0.25 * (1.0 + f.A3 - f.B3 - f.C3)
    c = 0.25 * (1.0 - f.A3 + f.B3 - f.C3)
    d = 0.25 * (1.0 - f.A3 - f.B3 + f.C3)
    z = complex(0.25 * (f.C1 + f.C2), 0.25 * (f.C12 - f.C21))
    w = complex(0.25 * (f.C1 - f.C2), -0.25 * (f.C12 + f.C21))
    try:
        return validate(a, b, c, d, z, w)
    except (TraceError, NegativePopulation, CoherenceBoundViolated) as exc:
        raise InfeasibleState(str(exc)) from exc


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
    for index in indices:
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (seed, index)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # the buffer is spent, so the next draw starts at counter 0
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def random_xstates(seed: int, start: int, stop: int, complex_phases: bool = False) -> XState:
    """The states :func:`random_xstate` gives for ``(seed, i)``,
    ``start <= i < stop``, as one batch (see :func:`stack`), bit for bit.

    Each index draws four exponentials, two uniforms and, with
    ``complex_phases``, two more uniforms from its own stream; the
    normalisation and the coherence scaling run on whole arrays.
    """
    n = stop - start
    e, u, turns = np.empty((n, 4)), np.empty((n, 2)), np.empty((n, 2))
    for k, rng in enumerate(_streams(seed, range(start, stop))):
        rng.standard_exponential(out=e[k])
        rng.random(out=u[k])
        if complex_phases:
            rng.random(out=turns[k])
    a, b, c, d = (e / e.sum(axis=1, keepdims=True)).T.copy()
    zb, wb = np.sqrt(b * c), np.sqrt(a * d)
    z, w = (u[:, 0] * zb).astype(complex), (u[:, 1] * wb).astype(complex)
    if complex_phases:
        turns = turns * 2.0 * math.pi
        z, w = _rotated(z, turns[:, 0], zb), _rotated(w, turns[:, 1], wb)
    # real coherences are u * bound with u < 1 and so within their bounds
    return XState(a, b, c, d, z, w)


def _rotated(v, turns, bound) -> np.ndarray:
    """v e^{i turns}, one complex product per element as in Python, with a
    modulus that rounds past ``bound`` clamped as :func:`validate` does."""
    out = []
    for x, t, b in zip(v.tolist(), turns.tolist(), bound.tolist()):
        x *= cmath.exp(1j * t)
        out.append(x * (b / abs(x)) if abs(x) > b else x)
    return np.array(out, dtype=complex)


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
