"""X-pattern grading of operators, pattern preservation for Hamiltonians,
Lindblad generators and Kraus channels, channel application, and exact
propagation of pattern-preserving master equations.

Every map is written as a 16x16 superoperator on row-major
vec(rho) = rho.reshape(16), for which vec(A rho B) = (A (x) B^T) vec(rho)
(Havel, J. Math. Phys. 44, 534 (2003)). One rule decides preservation: the
block of that matrix from X-pattern to off-pattern entries must vanish.
A map that passes it moves an X state through its X <- X block alone,
which on the eight real coordinates (a, b, c, d, Re z, Im z, Re w, Im w)
is a real 8x8 matrix G. :func:`evolve` propagates with expm(G t), taking
its samples by doubling in log2(n) rounds of products, and
:func:`esd_time` finds the sudden-death crossing by safeguarded Newton
steps on expm(G tau) x; :func:`propagate` applies the full expm(L t) to a
4x4 matrix, leakage included, for maps that need not preserve the
pattern. Every one of these exponentials is :func:`_expm`, a truncated
Taylor series with scaling and squaring.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import measures, spectral
from .core import X_MASK, XState, _hypot, unstack, validate
from .errors import (
    CompletenessViolated,
    InvalidCoupling,
    NonOrthonormalOperators,
    NotHermitian,
    NotPreserving,
    StepRejected,
    ValidationError,
)

GRADE_RTOL = 1e-12
# a superoperator preserves the X pattern when its off-X <- X block is
# below this fraction of its Frobenius norm
PRESERVE_RTOL = 1e-12

SIGMA = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
PAULI_LABELS = "IXYZ"

X_VEC = X_MASK.reshape(16)  # the X pattern in vec(rho) coordinates
_I4 = np.eye(4, dtype=np.complex128)


def pauli_tensor(mu: int, nu: int) -> np.ndarray:
    """sigma_mu (x) sigma_nu with index order (I, X, Y, Z)."""
    return np.kron(SIGMA[mu], SIGMA[nu])


# the 16 two-qubit Pauli strings in (mu, nu) order, as vec(P) rows, and
# which of them lie on the X pattern: those that flip both qubits or neither
PAULI_STRINGS = tuple(p + q for p in PAULI_LABELS for q in PAULI_LABELS)
_PAULI_VECS = np.array([pauli_tensor(mu, nu).reshape(16) for mu in range(4) for nu in range(4)])
_X_PAULI = np.array([(p in "XY") == (q in "XY") for p, q in PAULI_STRINGS])


def pauli_string_matrix(label: str) -> np.ndarray:
    """Two-letter Pauli string like ``"ZI"`` or ``"XX"`` as a 4x4 matrix."""
    if len(label) != 2 or any(ch not in PAULI_LABELS for ch in label):
        raise ValueError(f"expected a two-letter string over IXYZ, got {label!r}")
    return pauli_tensor(PAULI_LABELS.index(label[0]), PAULI_LABELS.index(label[1]))


class Grade(Enum):
    X = "x"
    OFF_X = "off_x"
    MIXED = "mixed"
    ZERO = "zero"


@dataclass(frozen=True)
class GradedOperator:
    """A 4x4 operator split into its X-pattern and off-pattern parts.

    The two support patterns multiply like a Z2 grading: X.X = X,
    X.off = off, off.off = X. The grade only names offenders; the
    preservation verdicts come from the superoperator.
    """

    matrix: np.ndarray
    x_part: np.ndarray
    off_part: np.ndarray
    grade: Grade
    pauli: np.ndarray  # coefficients over sigma_mu (x) sigma_nu

    def offending_paulis(self) -> list:
        """Labels of Pauli components living on the off-X pattern."""
        tol = 1e-12 * max(1.0, float(np.linalg.norm(self.matrix)))
        return [PAULI_STRINGS[k]
                for k in np.flatnonzero(~_X_PAULI & (np.abs(self.pauli.reshape(16)) > tol))]


def grade(matrix: np.ndarray) -> GradedOperator:
    """Split an operator by support pattern and classify it."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    x_part = np.where(X_MASK, m, 0.0)
    off_part = m - x_part
    norm = float(np.linalg.norm(m))
    pauli = (_PAULI_VECS.conj() @ m.reshape(16) / 4.0).reshape(4, 4)
    if norm == 0.0:
        g = Grade.ZERO
    elif float(np.linalg.norm(off_part)) <= GRADE_RTOL * norm:
        g = Grade.X
    elif float(np.linalg.norm(x_part)) <= GRADE_RTOL * norm:
        g = Grade.OFF_X
    else:
        g = Grade.MIXED
    return GradedOperator(m, x_part, off_part, g, pauli)


@dataclass(frozen=True)
class Verdict:
    preserving: bool
    message: str
    offenders: tuple = ()

    def __bool__(self) -> bool:
        return self.preserving


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 4x4 matrices, the same products without its
    reshaping overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(16, 16)


def _commutator_generator(h) -> np.ndarray:
    """The superoperator of rho -> -i [H, rho] for a Hermitian 4x4 ``h``."""
    m = np.asarray(h, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 Hamiltonian, got shape {m.shape}")
    dev = float(np.abs(m - m.conj().T).max())
    if not dev <= 1e-10 * max(1.0, float(np.linalg.norm(m))):
        raise NotHermitian(f"Hamiltonian deviates from Hermiticity by {dev:.3g}")
    return -1j * (_kron(m, _I4) - _kron(_I4, m.T))


def _leak_ratio(superop: np.ndarray) -> float:
    """||S_off<-X||_F / ||S||_F: the share of a superoperator that sends
    X-pattern entries off the pattern, 0 for S = 0."""
    norm = float(np.linalg.norm(superop))
    return float(np.linalg.norm(superop[~X_VEC][:, X_VEC])) / norm if norm else 0.0


def _leaks(superop: np.ndarray) -> tuple:
    """The one preservation rule: a map keeps X states X shaped iff the
    block of its superoperator from X-pattern to off-pattern entries is
    zero, to ``PRESERVE_RTOL`` of the whole. Returns () for such maps and
    otherwise names the leaking Pauli transfers ``"P->Q"``, from an
    X-pattern input P to an off-pattern output Q."""
    if _leak_ratio(superop) <= PRESERVE_RTOL:
        return ()
    # transfer[q, p] = <Q, S(P)> / 4; the Pauli basis / 2 is orthonormal, so
    # the block keeps its norm and some entry exceeds tol / 8
    tol = PRESERVE_RTOL * float(np.linalg.norm(superop))
    transfer = _PAULI_VECS.conj() @ superop @ _PAULI_VECS.T / 4.0
    return tuple(
        f"{PAULI_STRINGS[p]}->{PAULI_STRINGS[q]}"
        for p in np.flatnonzero(_X_PAULI)
        for q in np.flatnonzero(~_X_PAULI)
        if abs(transfer[q, p]) > tol / 8.0
    )


def check_hamiltonian(h: np.ndarray) -> Verdict:
    """An X-shaped Hamiltonian (and only such) keeps X states X shaped.
    Offenders are the Hamiltonian's off-pattern Pauli components."""
    leaks = _leaks(_commutator_generator(h))
    if not leaks:
        return Verdict(True, "Hamiltonian is X shaped")
    offenders = tuple(grade(h).offending_paulis()) or leaks
    return Verdict(False, "Hamiltonian has off-pattern support", offenders)


@dataclass(frozen=True)
class LindbladSpec:
    """Master-equation data: Hamiltonian, dissipation operators, and the
    Hermitian PSD coupling matrix h (rates, units 1/time with hbar = 1).

    The dissipator is 2 L_n rho L_m^dag - rho L_m^dag L_n - L_m^dag L_n rho
    summed against h[n, m]. Operators must be mutually orthogonal in the
    Hilbert-Schmidt inner product and orthogonal to the identity; their
    norms are free (rescaling an operator rescales the matching h entries).
    """

    operators: tuple
    coupling: np.ndarray
    hamiltonian: Optional[np.ndarray] = None

    @classmethod
    def from_rates(cls, operators, rates, hamiltonian=None) -> "LindbladSpec":
        ops = tuple(np.asarray(op, dtype=np.complex128) for op in operators)
        return cls(ops, np.diag(np.asarray(rates, dtype=float)).astype(complex), hamiltonian)


@dataclass(frozen=True)
class KrausSet:
    """Operator-sum channel rho -> sum_i X_i rho X_i^dag."""

    operators: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "operators",
            tuple(np.asarray(op, dtype=np.complex128) for op in self.operators),
        )


def _lindblad_superoperator(spec: LindbladSpec) -> np.ndarray:
    k = len(spec.operators)
    if k > 15:  # identity-free operator space of a 4x4 system
        raise NonOrthonormalOperators(f"{k} operators cannot be orthogonal and traceless")
    ops = np.array([np.asarray(op) for op in spec.operators] or np.zeros((0, 4, 4)),
                   dtype=np.complex128)
    if ops.shape != (k, 4, 4):
        raise ValueError(f"operators must be 4x4 matrices, got shape {ops.shape[1:]}")
    h = np.asarray(spec.coupling, dtype=np.complex128)
    if h.shape != (k, k):
        raise InvalidCoupling(f"coupling shape {h.shape} does not match {k} operators")
    if k:
        scale = 1e-10 * max(1.0, float(np.linalg.norm(h)))
        if not np.abs(h - h.conj().T).max() <= scale:
            raise InvalidCoupling("coupling matrix is not Hermitian")
        low = np.linalg.eigvalsh(h)[0]
        if low < -scale:
            raise InvalidCoupling(f"coupling matrix has negative eigenvalue {low:.3g}")
    for i in range(k):
        ni = float(np.linalg.norm(ops[i]))
        if not ni > 0.0:
            raise NonOrthonormalOperators(f"operator {i} is zero or not finite")
        if not abs(ops[i].trace()) <= 1e-10 * ni:
            raise NonOrthonormalOperators(f"operator {i} is not traceless")
        for j in range(i + 1, k):
            nj = float(np.linalg.norm(ops[j]))
            inner = abs(np.vdot(ops[i], ops[j]))
            if inner > 1e-10 * ni * nj:
                raise NonOrthonormalOperators(
                    f"operators {i} and {j} are not orthogonal (|<Li,Lj>| = {inner:.3g})"
                )
    out = np.zeros((16, 16), dtype=np.complex128)
    if spec.hamiltonian is not None:
        out += _commutator_generator(spec.hamiltonian)
    # sum h_nm (2 L_n (x) conj(L_m) - M (x) I - I (x) M^T), M = sum h_nm L_m^dag L_n
    jump = np.einsum("nm,nij,mkl->ikjl", h, ops, ops.conj()).reshape(16, 16)
    m = np.einsum("nm,mji,njk->ik", h, ops.conj(), ops)
    return out + 2.0 * jump - _kron(m, _I4) - _kron(_I4, m.T)


def _kraus_superoperator(channel: KrausSet) -> np.ndarray:
    total = sum((op.conj().T @ op for op in channel.operators), np.zeros((4, 4)))
    dev = float(np.abs(total - np.eye(4)).max())
    if not dev <= 1e-10:
        raise CompletenessViolated(dev)
    return sum(_kron(op, op.conj()) for op in channel.operators)


def superoperator(obj) -> np.ndarray:
    """The 16x16 matrix acting on row-major vec(rho) = rho.reshape(16),
    with vec(A rho B) = (A (x) B^T) vec(rho).

    For a :class:`LindbladSpec` it is the Liouvillian (Hamiltonian part plus
    the h-weighted dissipator); for a :class:`KrausSet` it is
    sum_i X_i (x) conj(X_i). The inputs are checked first: Hermitian
    Hamiltonian, Hermitian PSD coupling, traceless mutually orthogonal
    operators, complete Kraus set.
    """
    if isinstance(obj, KrausSet):
        return _kraus_superoperator(obj)
    return _lindblad_superoperator(obj)


def _verdict(superop: np.ndarray, noun: str) -> Verdict:
    """The preservation verdict on a superoperator, naming it ``noun``."""
    leaks = _leaks(superop)
    if leaks:
        return Verdict(False, f"{noun} mixes the two support patterns", leaks)
    return Verdict(True, f"{noun} preserves the X pattern")


def check_lindblad(spec: LindbladSpec) -> Verdict:
    """A generator preserves the X pattern iff its Liouvillian sends no
    X-pattern matrix off the pattern."""
    return _verdict(superoperator(spec), "generator")


def check_kraus(channel: KrausSet) -> Verdict:
    """A channel preserves the X pattern iff its superoperator sends no
    X-pattern matrix off the pattern. Trace preservation
    sum(X_i^dag X_i) = I is enforced first."""
    return _verdict(superoperator(channel), "channel")


def apply_channel(channel: KrausSet, rho: np.ndarray) -> np.ndarray:
    """sum_i X_i rho X_i^dag."""
    rho = np.asarray(rho, dtype=np.complex128)
    out = np.zeros_like(rho)
    for op in channel.operators:
        out += op @ rho @ op.conj().T
    return out


def off_pattern_norm(m: np.ndarray) -> float:
    """Frobenius norm of the off-pattern part of a 4x4 matrix."""
    return float(np.linalg.norm(np.where(X_MASK, 0.0, np.asarray(m))))


# _expm halves a matrix until its 1-norm is at most this, then sums its series
TAYLOR_SPAN = 1.0


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix by scaling and squaring.

    ``a`` is halved s times until its 1-norm is at most ``TAYLOR_SPAN``, and
    the terms a^k / k! of the scaled matrix's series are kept while the
    bound norm^k / k! on the k-th term is at least 2^-53; the first one
    below it ends the series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
    488 (2011)). With s > 0 the sum Y of all terms but the identity is
    squared s times as Y <- 2Y + Y Y, and the result is I + Y. Defective
    matrices need no special treatment; expm(0) is the identity exactly. A
    real matrix has a real exponential, computed in real arithmetic. Raises
    ValueError for a matrix whose 1-norm is not finite.
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
    a = a * 0.5**squarings
    count, bound = 1, norm  # terms kept, and the bound of the next one
    while bound >= 2.0**-53:
        count += 1
        bound *= norm / count
    terms = np.empty((count,) + a.shape, dtype=a.dtype)
    terms[0] = np.eye(a.shape[0], dtype=a.dtype)
    for k in range(1, count):
        np.matmul(a, terms[k - 1], out=terms[k])
        terms[k] /= k
    if squarings == 0:
        return terms.sum(axis=0)
    # (I + Y)^2 = I + (2Y + Y Y): squaring Y keeps the low bits that a sum
    # I + Y near the identity would round away before every squaring
    y = terms[1:].sum(axis=0)
    for _ in range(squarings):
        y = 2.0 * y + y @ y
    return terms[0] + y


def propagate(spec: LindbladSpec, rho0: np.ndarray, dt: float, steps: int):
    """Raw exact propagation of the master equation: ``steps`` applications
    of expm(L dt) to the full 4x4 matrix.

    No projection, no preservation check. Returns the final matrix and the
    largest off-pattern norm seen, which is the honest leakage measure for
    generators that do *not* preserve the pattern.
    """
    prop = _expm(superoperator(spec) * dt)
    rho = np.asarray(rho0, dtype=np.complex128)
    max_leak = off_pattern_norm(rho)
    vec = rho.reshape(16)
    for _ in range(steps):
        vec = prop @ vec
        max_leak = max(max_leak, off_pattern_norm(vec.reshape(4, 4)))
    return vec.reshape(4, 4), max_leak


_TRAJECTORY_MEASURES = {
    "concurrence": measures.concurrence,
    "negativity": measures.negativity,
    "purity": spectral.purity,
    "entropy": lambda x: spectral.entropy(spectral.eigenvalues(x)),
    "fef": measures.fef,
    "mid": measures.mid,
    "approx_discord": lambda x: measures.approx_discord(x).q,
}


# an evolve run holds every sample in memory at once, its coordinates and
# the arrays that check them; at this bound a run and its trajectory CSV
# (about 120 bytes a row) peak near 150 MB
MAX_SAMPLES = 100_000
# the largest |trace - 1| a propagated sample may show before it is normalised
TRACE_DRIFT_TOL = 1e-9
# esd_time: a concurrence at or below ESD_TOL is dead, it must stay dead for
# ESD_CONFIRM more samples, and the crossing gets at most ESD_ITERATIONS
# Newton or bisection points
ESD_TOL = 1e-12
ESD_CONFIRM = 3
ESD_ITERATIONS = 40

# vec(rho) of an X state from its coordinates x = (a, b, c, d, Re z, Im z,
# Re w, Im w) is _FROM_COORDS @ x, with z = rho[1, 2] at 6, conj(z) at 9,
# w = rho[0, 3] at 3 and conj(w) at 12; x is Re(_TO_COORDS @ vec)
_FROM_COORDS = np.zeros((16, 8), dtype=np.complex128)
_FROM_COORDS[[0, 5, 10, 15, 6, 6, 9, 9, 3, 3, 12, 12], [0, 1, 2, 3, 4, 5, 4, 5, 6, 7, 6, 7]] = (
    [1, 1, 1, 1, 1, 1j, 1, -1j, 1, 1j, 1, -1j])
_TO_COORDS = np.zeros((8, 16), dtype=np.complex128)
_TO_COORDS[range(8), [0, 5, 10, 15, 6, 6, 3, 3]] = 1, 1, 1, 1, 1, -1j, 1, -1j


def _x_block(superop: np.ndarray) -> np.ndarray:
    """The real 8x8 matrix G that a pattern-preserving superoperator is on
    the coordinates of an X state: its X <- X block."""
    return (_TO_COORDS @ superop @ _FROM_COORDS).real


def _coords(x: XState) -> np.ndarray:
    """The eight real coordinates of one state."""
    return np.array([x.a, x.b, x.c, x.d, x.z.real, x.z.imag, x.w.real, x.w.imag])


@dataclass(frozen=True)
class Trajectory:
    """Sampled X states and measures along one propagation run.

    ``samples`` is one batch of states (see :func:`core.stack`), sample ``i``
    taken at ``times[i]``; ``states`` shows them as a read-only tuple of
    single states. Each recorded measure maps to an array over the samples.
    ``generator`` is the real 8x8 matrix G that propagated them, and
    ``max_leakage`` the preservation rule's ratio ||L_off<-X||_F / ||L||_F
    of the Liouvillian L of ``spec``, at most ``PRESERVE_RTOL``.
    """

    times: np.ndarray
    samples: XState
    measures: dict
    max_leakage: float
    spec: LindbladSpec
    dt: float
    sample_every: int
    generator: np.ndarray

    @functools.cached_property
    def states(self) -> tuple:
        return tuple(unstack(self.samples))


def evolve(
    spec: LindbladSpec,
    x0: XState,
    dt: float,
    t_max: float,
    sample_every: int = 1,
    record: tuple = ("concurrence",),
) -> Trajectory:
    """Propagate a pattern-preserving master equation from ``x0``.

    The generator G, the X <- X block of the Liouvillian, acts on the eight
    real coordinates of the state. Sample i is hop^i x0, with the exact
    propagator hop = expm(G dt sample_every), and the samples come by
    doubling: the first m samples times hop^m give the next m, and hop^m is
    squared for the next round, so n samples take about log2(n) rounds of
    products. The run takes ``round(t_max / dt)`` steps (at least one);
    when ``sample_every`` does not divide them, the last interval is
    r < ``sample_every`` steps and uses expm(G dt r).

    Every sample is propagated first and then checked in one batched pass:
    its trace must stay within ``TRACE_DRIFT_TOL`` of one, and, normalised,
    it must pass :func:`validate`, whose clamping it gets. The first sample
    that fails raises :class:`StepRejected` naming its time. The requested
    measures are then recorded on the batch.

    Raises :class:`NotPreserving` when the generator fails
    :func:`check_lindblad`, and ValueError for a negative ``t_max``, a step
    count that is not finite, or more than ``MAX_SAMPLES`` samples (the
    initial state included).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < 0.0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if not math.isfinite(t_max / dt):
        raise ValueError(f"t_max / dt = {t_max} / {dt} is not a finite step count")
    steps = max(1, int(round(t_max / dt)))
    count = 1 - (-steps // sample_every)
    if count > MAX_SAMPLES:
        raise ValueError(
            f"{steps} steps sampled every {sample_every} give {count} samples, "
            f"more than {MAX_SAMPLES}"
        )
    for name in record:
        if not isinstance(name, str) or name not in _TRAJECTORY_MEASURES:
            raise ValueError(
                f"unknown measure {name!r}; available: {sorted(_TRAJECTORY_MEASURES)}"
            )
    liouvillian = superoperator(spec)
    leakage = _leak_ratio(liouvillian)
    if leakage > PRESERVE_RTOL:  # _verdict names the leaking transfers
        verdict = _verdict(liouvillian, "generator")
        raise NotPreserving(f"{verdict.message}: {', '.join(verdict.offenders)}")
    generator = _x_block(liouvillian)
    full, rest = divmod(steps, sample_every)
    coords = np.empty((full + (rest > 0), 8))
    x = _coords(x0)
    if full:
        # row i is hop^(i+1) x; the first `done` rows times hop^done give
        # the next ones, so the rows double in each round
        power = _expm(generator * (dt * sample_every))
        coords[0] = power @ x
        done = 1
        while done < full:
            k = min(done, full - done)
            coords[done : done + k] = coords[:k] @ power.T
            done += k
            if done < full:
                power = power @ power
        x = coords[full - 1]
    if rest:  # the short last interval
        coords[full] = _expm(generator * (dt * rest)) @ x
    times = np.array([0.0] + [n * dt for n in (*range(sample_every, steps, sample_every), steps)])
    checked = _checked_samples(coords, times[1:])
    samples = XState(*(np.concatenate(([getattr(x0, k)], getattr(checked, k))) for k in "abcdzw"))
    return Trajectory(
        times=times,
        samples=samples,
        measures={name: _TRAJECTORY_MEASURES[name](samples) for name in record},
        max_leakage=leakage,
        spec=spec,
        dt=dt,
        sample_every=sample_every,
        generator=generator,
    )


def _checked_samples(coords: np.ndarray, times: np.ndarray) -> XState:
    """The propagated coordinates ``coords``, one row per sample taken at
    ``times``, normalised by their trace (summed pairwise) and validated as
    one batch. Raises :class:`StepRejected` for the first sample whose trace
    is more than ``TRACE_DRIFT_TOL`` from one or that fails validation.
    """
    # the rows past a rejected one may hold anything; none of them is kept
    with np.errstate(all="ignore"):
        tr = (coords[:, 0] + coords[:, 1]) + (coords[:, 2] + coords[:, 3])
    # the first drifted row, or len(tr) when none drifted
    i = int(np.argmin(np.append(np.abs(tr - 1.0) <= TRACE_DRIFT_TOL, False)))
    x = coords[:i] / tr[:i, None]
    # (Re z, Im z, Re w, Im w) is the memory layout of (z, w)
    z, w = np.ascontiguousarray(x[:, 4:]).view(np.complex128).T
    try:
        states = validate(*x[:, :4].T, z, w)
    except ValidationError as exc:
        i, reason = exc.index, f"sampled state failed validation: {exc}"
    else:
        if i == len(tr):
            return states
        reason = f"trace drifted to {float(tr[i])!r}"
    raise StepRejected(f"sample at t = {float(times[i])!r}: {reason}")


def _concurrence_gap(x: np.ndarray, dx: np.ndarray) -> tuple:
    """The signed distance of the coordinates ``x`` to entanglement death,
    concurrence / 2 before clipping, and its derivative along ``dx``: the
    slope of the active branch |z| - sqrt(a d) or |w| - sqrt(b c), nan
    where that branch's modulus or root is zero."""
    a, b, c, d, zr, zi, wr, wi = x.tolist()
    a, b, c, d = max(a, 0.0), max(b, 0.0), max(c, 0.0), max(d, 0.0)
    z_mod, z_root = _hypot(zr, zi), math.sqrt(a * d)
    w_mod, w_root = _hypot(wr, wi), math.sqrt(b * c)
    da, db, dc, dd, dzr, dzi, dwr, dwi = dx.tolist()
    if z_mod - z_root >= w_mod - w_root:
        mod, root, dmod, droot = z_mod, z_root, zr * dzr + zi * dzi, da * d + a * dd
    else:
        mod, root, dmod, droot = w_mod, w_root, wr * dwr + wi * dwi, db * c + b * dc
    slope = dmod / mod - droot / (2.0 * root) if mod and root else math.nan
    return mod - root, slope


def esd_time(traj: Trajectory) -> Optional[float]:
    """First time the concurrence dies and stays dead.

    Scans the sampled concurrence for the first value <= ``ESD_TOL`` that is
    followed by ``ESD_CONFIRM`` equally dead samples, then finds the
    crossing between that sample and the one before by safeguarded Newton
    steps on the concurrence gap (:func:`_concurrence_gap`). The state at
    each point is _expm(G tau) @ x on the coordinates x of the earlier
    sample, tau after it, and its derivative is G times that state.
    Each point narrows the sign bracket; a Newton point outside the bracket,
    or one from a zero or non-finite slope, is replaced by the bracket's
    midpoint. The search stops when the bracket is narrower than 1e-12
    max(1, t) or a step is below a quarter of that, after at most
    ``ESD_ITERATIONS`` points, and returns the last point. Returns None when
    the concurrence never vanishes on the horizon.
    """
    if "concurrence" in traj.measures:
        conc = traj.measures["concurrence"]
    else:
        conc = measures.concurrence(traj.samples)
    dead = (conc <= ESD_TOL).tolist()
    window = 1 + ESD_CONFIRM
    hit = next((i for i in range(len(dead) - ESD_CONFIRM) if all(dead[i : i + window])), None)
    if hit is None:
        return None
    if hit == 0:
        return 0.0
    lo_t = float(traj.times[hit - 1])
    hi_t = float(traj.times[hit])
    lo_x = _coords(XState(*(getattr(traj.samples, k)[hit - 1] for k in "abcdzw")))
    generator = traj.generator
    gap, slope = _concurrence_gap(lo_x, generator @ lo_x)
    if gap <= 0.0:
        return lo_t
    lo, hi, t = lo_t, hi_t, lo_t
    resolution = 1e-12 * max(1.0, hi_t)
    for _ in range(ESD_ITERATIONS):
        step = -gap / slope if slope and math.isfinite(slope) else math.nan
        if lo <= t + step <= hi:  # False for a NaN step
            t += step
            if abs(step) < 0.25 * resolution:
                break
        else:
            t = 0.5 * (lo + hi)
        x = _expm(generator * (t - lo_t)) @ lo_x
        gap, slope = _concurrence_gap(x, generator @ x)
        if gap > 0.0:
            lo = t
        else:
            hi = t
        if hi - lo < resolution:
            break
    return t
