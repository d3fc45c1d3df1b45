"""Exception types shared across the package."""


class FrkitError(Exception):
    """Base class for all frkit errors."""


class StructuralError(FrkitError, ValueError):
    """Shape, length, or index-layout mismatch."""


class ModeError(FrkitError, TypeError):
    """Operation applied to a spectral vector of the wrong mode."""


class DegenerateInputError(FrkitError, ValueError):
    """Input is identically zero where a nonzero norm is required."""


class DomainError(FrkitError, ValueError):
    """Parameter outside its admissible range."""


class DataError(FrkitError, ValueError):
    """Evaluator produced non-finite or otherwise unusable data."""


class PeriodicityError(StructuralError):
    """Function failed the periodic boundary spot check."""


class CertificationError(DomainError):
    """Pipeline requires a certified bound hypothesis and got none."""


class InfeasibleCandidateError(FrkitError, ValueError):
    """Candidate solution violates the data-fidelity constraint."""
