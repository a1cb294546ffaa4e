"""X-pattern grading of operators, pattern preservation for Hamiltonians,
Lindblad generators and Kraus channels, channel application, and exact
propagation of pattern-preserving master equations.

Every map is written as a 16x16 superoperator on row-major
vec(rho) = rho.reshape(16), for which vec(A rho B) = (A (x) B^T) vec(rho)
(Havel, J. Math. Phys. 44, 534 (2003)). One rule decides preservation: the
block of that matrix from X-pattern to off-pattern entries must vanish.
The Liouvillian exponentiated, expm(L t), propagates the master equation in
:func:`evolve`, :func:`esd_time` and :func:`propagate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import _kernels, measures, spectral
from .core import X_MASK, XState, from_matrix, stack
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
# which of them lie on the X pattern
PAULI_STRINGS = tuple(p + q for p in PAULI_LABELS for q in PAULI_LABELS)
_PAULI_VECS = np.array([pauli_tensor(mu, nu).reshape(16) for mu in range(4) for nu in range(4)])
_X_PAULI = ~(_PAULI_VECS[:, ~X_VEC] != 0).any(axis=1)


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
        coeff = _PAULI_VECS.conj() @ self.off_part.reshape(16) / 4.0
        tol = 1e-12 * max(1.0, float(np.linalg.norm(self.matrix)))
        return [PAULI_STRINGS[k] for k in np.flatnonzero(np.abs(coeff) > tol)]


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


def _commutator_generator(h) -> np.ndarray:
    """The superoperator of rho -> -i [H, rho] for a Hermitian 4x4 ``h``."""
    m = np.asarray(h, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 Hamiltonian, got shape {m.shape}")
    dev = float(np.abs(m - m.conj().T).max())
    if not dev <= 1e-10 * max(1.0, float(np.linalg.norm(m))):
        raise NotHermitian(f"Hamiltonian deviates from Hermiticity by {dev:.3g}")
    return -1j * (np.kron(m, _I4) - np.kron(_I4, m.T))


def _leaks(superop: np.ndarray) -> tuple:
    """The one preservation rule: a map keeps X states X shaped iff the
    block of its superoperator from X-pattern to off-pattern entries is
    zero, to ``PRESERVE_RTOL`` of the whole. Returns () for such maps and
    otherwise names the leaking Pauli transfers ``"P->Q"``, from an
    X-pattern input P to an off-pattern output Q."""
    tol = PRESERVE_RTOL * float(np.linalg.norm(superop))
    if float(np.linalg.norm(superop[~X_VEC][:, X_VEC])) <= tol:
        return ()
    # transfer[q, p] = <Q, S(P)> / 4; the Pauli basis / 2 is orthonormal, so
    # the block keeps its norm and some entry exceeds tol / 8
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
    return out + 2.0 * jump - np.kron(m, _I4) - np.kron(_I4, m.T)


def _kraus_superoperator(channel: KrausSet) -> np.ndarray:
    total = sum((op.conj().T @ op for op in channel.operators), np.zeros((4, 4)))
    dev = float(np.abs(total - np.eye(4)).max())
    if not dev <= 1e-10:
        raise CompletenessViolated(dev)
    return sum(np.kron(op, op.conj()) for op in channel.operators)


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


def check_lindblad(spec: LindbladSpec) -> Verdict:
    """A generator preserves the X pattern iff its Liouvillian sends no
    X-pattern matrix off the pattern."""
    leaks = _leaks(superoperator(spec))
    if leaks:
        return Verdict(False, "generator mixes the two support patterns", leaks)
    return Verdict(True, "generator preserves the X pattern")


def check_kraus(channel: KrausSet) -> Verdict:
    """A channel preserves the X pattern iff its superoperator sends no
    X-pattern matrix off the pattern. Trace preservation
    sum(X_i^dag X_i) = I is enforced first."""
    leaks = _leaks(superoperator(channel))
    if leaks:
        return Verdict(False, "channel mixes the two support patterns", leaks)
    return Verdict(True, "channel preserves the X pattern")


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


def propagate(spec: LindbladSpec, rho0: np.ndarray, dt: float, steps: int):
    """Raw exact propagation of the master equation: ``steps`` applications
    of expm(L dt) to the full 4x4 matrix.

    No projection, no preservation check. Returns the final matrix and the
    largest off-pattern norm seen, which is the honest leakage measure for
    generators that do *not* preserve the pattern.
    """
    prop = _kernels.expm(superoperator(spec) * dt)
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


@dataclass(frozen=True)
class Trajectory:
    """Sampled X states and measures along one propagation run."""

    times: np.ndarray
    states: tuple
    measures: dict
    max_leakage: float
    spec: LindbladSpec
    dt: float
    sample_every: int


def _project_sample(rho: np.ndarray, leakage_tol: float):
    sym = 0.5 * (rho + rho.conj().T)
    tr = float(sym.trace().real)
    if not abs(tr - 1.0) <= 1e-9:
        raise StepRejected(f"trace drifted to {tr!r}")
    sym = sym / tr
    leak = off_pattern_norm(sym)
    if leak > leakage_tol:
        raise StepRejected(
            f"off-pattern leakage {leak:.3g} exceeds {leakage_tol:.3g}; "
            "the generator is probably not pattern preserving"
        )
    projected = np.where(X_MASK, sym, 0.0)
    try:
        return from_matrix(projected), leak
    except ValidationError as exc:
        raise StepRejected(f"sampled state failed validation: {exc}") from exc


def evolve(
    spec: LindbladSpec,
    x0: XState,
    dt: float,
    t_max: float,
    sample_every: int = 1,
    record: tuple = ("concurrence",),
    leakage_tol: float = 1e-10,
) -> Trajectory:
    """Propagate a pattern-preserving master equation from ``x0``.

    The exact step propagator P = expm(L dt) of the Liouvillian L acts on the
    full 4x4 matrix; between samples its ``sample_every``-th power is
    applied, so a sample at ``step * dt`` is P^step applied to ``x0``. At
    each sample the trace must stay within 1e-9 of one and the off-pattern
    leakage below ``leakage_tol`` (raises :class:`StepRejected` otherwise);
    the sample is projected onto the X pattern. The requested measures are
    then recorded on all samples as one batch. Raises :class:`NotPreserving`
    when the generator fails :func:`check_lindblad`.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    for name in record:
        if not isinstance(name, str) or name not in _TRAJECTORY_MEASURES:
            raise ValueError(
                f"unknown measure {name!r}; available: {sorted(_TRAJECTORY_MEASURES)}"
            )
    verdict = check_lindblad(spec)
    if not verdict.preserving:
        raise NotPreserving(f"{verdict.message}: {', '.join(verdict.offenders)}")
    prop = _kernels.expm(superoperator(spec) * dt)
    hop = np.linalg.matrix_power(prop, sample_every)
    steps = max(1, int(round(t_max / dt)))
    vec = x0.to_matrix().reshape(16)
    times = [0.0]
    states = [x0]
    max_leak = 0.0
    done = 0
    for n in [*range(sample_every, steps, sample_every), steps]:
        # P^sample_every between samples; the last interval may be shorter
        power = hop if n - done == sample_every else np.linalg.matrix_power(prop, n - done)
        vec = power @ vec
        done = n
        state, leak = _project_sample(vec.reshape(4, 4), leakage_tol)
        max_leak = max(max_leak, leak)
        times.append(n * dt)
        states.append(state)
    samples = stack(states)
    return Trajectory(
        times=np.array(times),
        states=tuple(states),
        measures={name: _TRAJECTORY_MEASURES[name](samples) for name in record},
        max_leakage=max_leak,
        spec=spec,
        dt=dt,
        sample_every=sample_every,
    )


def _concurrence_gap(m: np.ndarray) -> float:
    # signed distance of an X-shaped matrix to entanglement death:
    # concurrence/2 before clipping
    a, b, c, d = np.maximum(np.diagonal(m).real, 0.0)
    return max(abs(m[1, 2]) - np.sqrt(a * d), abs(m[0, 3]) - np.sqrt(b * c))


def esd_time(
    traj: Trajectory, tol: float = 1e-12, confirm: int = 3, refine_iterations: int = 40
) -> Optional[float]:
    """First time the concurrence dies and stays dead.

    Scans the sampled concurrence for the first value <= ``tol`` that is
    followed by ``confirm`` equally dead samples, then refines the crossing
    by bisection, propagating the preceding sample exactly with
    expm(L tau) to each midpoint. Returns None when the concurrence never
    vanishes on the horizon.
    """
    if "concurrence" in traj.measures:
        conc = traj.measures["concurrence"]
    else:
        conc = measures.concurrence(stack(traj.states))
    n = len(conc)
    hit = None
    for i in range(n):
        if conc[i] <= tol and i + confirm < n and np.all(conc[i + 1 : i + 1 + confirm] <= tol):
            hit = i
            break
    if hit is None:
        return None
    if hit == 0:
        return 0.0
    lo_t = float(traj.times[hit - 1])
    hi_t = float(traj.times[hit])
    lo_rho = traj.states[hit - 1].to_matrix()
    if _concurrence_gap(lo_rho) <= 0.0:
        return lo_t
    liouvillian = superoperator(traj.spec)
    lo_vec = lo_rho.reshape(16)
    lo, hi = lo_t, hi_t
    for _ in range(refine_iterations):
        mid_t = 0.5 * (lo + hi)
        rho = (_kernels.expm(liouvillian * (mid_t - lo_t)) @ lo_vec).reshape(4, 4)
        if _concurrence_gap(rho) > 0.0:
            lo = mid_t
        else:
            hi = mid_t
        if hi - lo < 1e-12 * max(1.0, hi_t):
            break
    return 0.5 * (lo + hi)
