"""Exception types shared across the package."""


class XStatesError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(XStatesError, ValueError):
    """Parameters or a matrix do not describe a physical X state. For a
    batch, ``index`` is the failing element."""

    index = None


class TraceError(ValidationError):
    """Populations do not sum to one within tolerance."""


class NegativePopulation(ValidationError):
    """A diagonal entry is negative beyond tolerance."""


class CoherenceBoundViolated(ValidationError):
    """|z| > sqrt(b c) or |w| > sqrt(a d) beyond tolerance."""

    def __init__(self, which: str, value: float, bound: float):
        self.which = which
        self.value = value
        self.bound = bound
        super().__init__(
            f"|{which}| = {value:.6g} exceeds its positivity bound "
            f"{bound:.6g} by {value - bound:.3g}"
        )


class NotXShaped(ValidationError):
    """A 4x4 matrix has support outside the diagonal/anti-diagonal pattern."""

    def __init__(self, entry: tuple, magnitude: float, threshold: float):
        self.entry = entry
        self.magnitude = magnitude
        self.threshold = threshold
        super().__init__(
            f"off-pattern entry {entry} has magnitude {magnitude:.3g} "
            f"(threshold {threshold:.3g})"
        )


class NotPositive(ValidationError):
    """A matrix that should be positive semidefinite is not."""


class NotHermitian(ValidationError):
    """A matrix that should be Hermitian is not."""


class InfeasibleState(ValidationError):
    """Requested parameters lie outside the physical state set."""


class UnnormalizedPhases(ValidationError):
    """An operation requiring real non-negative coherences got complex ones."""


class NotMMM(ValidationError):
    """State marginals are not maximally mixed."""


class DynamicsError(XStatesError):
    """Base class for generator/channel errors."""


class InvalidCoupling(DynamicsError):
    """Coupling matrix is not Hermitian positive semidefinite."""


class NonOrthonormalOperators(DynamicsError):
    """Dissipation operators are not mutually orthogonal / identity-free."""


class CompletenessViolated(DynamicsError):
    """Kraus operators do not satisfy sum(X_i^dag X_i) = I."""

    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"||sum(X_i^dag X_i) - I|| = {deviation:.3g}")


class NotPreserving(DynamicsError):
    """A generator or channel does not preserve the X pattern."""


class StepRejected(DynamicsError):
    """A sampled state drifted in trace or failed validation."""
