"""Exception and warning types shared across the package."""


class InvslError(Exception):
    """Base class for all package-specific errors."""


class NormalizationViolation(InvslError):
    """Boundary polynomial pair violates the required leading-coefficient normalization."""


class CommonRoot(InvslError):
    """Boundary polynomials share a root (pair is not coprime)."""


class DimensionMismatch(InvslError):
    """Operands live on different grids or carry different scalar-block sizes."""


class ParityMismatch(InvslError):
    """Requested construction is inconsistent with the parity of the boundary degree p."""


class StepFailure(InvslError):
    """ODE propagation produced non-finite values (lambda or sigma out of range)."""


class RootLoss(InvslError):
    """Eigenvalues were lost or could not be certified.

    Raised when fewer roots are found than requested, when an index bracket
    or the duplicate/residual screen would change eigenvalue indices, when
    the cells are too coarse to count oscillations, and when the argument
    principle disagrees with the refined roots.
    """


class PoleProximity(InvslError):
    """Weyl function evaluated too close to a pole (denominator below tolerance)."""


class IllConditioned(InvslError):
    """A least-squares design matrix is numerically singular beyond the allowed tolerance."""


class DuplicateEigenvalue(InvslError):
    """Subspectrum contains coinciding eigenvalues (simplicity requirement violated)."""


class SchemaError(InvslError):
    """Input file does not match the published JSON schema."""


class NonUniqueWarning(UserWarning):
    """Reconstruction data are insufficient to determine the solution uniquely."""
