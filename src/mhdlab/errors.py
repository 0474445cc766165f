"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """Invalid state, wavevector or parameter for the requested analysis."""


class UnsupportedModelError(DomainError):
    """Operation not defined for this model (e.g. vacuum side of an Euler flow)."""


class ResonanceError(DomainError):
    """A denominator of an amplitude relation vanishes at this frequency."""


class BranchPointError(DomainError):
    """The radicand of a spatial-exponent square root is singular here."""


class NotARootError(ValueError):
    """The interface matrix is numerically full rank at the supplied frequency."""


class FitError(RuntimeError):
    """Scaling fit could not be formed; names the first mode index without an admissible root."""

    def __init__(self, message, failing_n=()):
        super().__init__(message)
        self.failing_n = tuple(failing_n)


class ConflictError(RuntimeError):
    """Analytic and numeric classifications disagree; carries both sides."""

    def __init__(self, message, analytic=None, fits=()):
        super().__init__(message)
        self.analytic = analytic
        self.fits = tuple(fits)


class GridError(ValueError):
    """Evaluation grid violates resolution or truncation requirements."""


class ConfigError(ValueError):
    """Configuration file problem; message is line-anchored where possible."""
