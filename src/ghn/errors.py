"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter falls outside an identity's hypotheses (e.g. hits a pole)."""


class OutOfValidityRangeError(ValueError):
    """A power-weighted transform formula was requested outside its p <= n range."""


class CompositionDomainError(ValueError):
    """Series composition requires the inner series to have zero constant term."""


class SeqSpecError(ValueError):
    """Malformed or unknown sequence specification."""
