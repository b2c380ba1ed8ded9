"""Exception types shared across the package."""


class SymlaxError(Exception):
    """Base class for all package errors."""


class NonTerminating(SymlaxError):
    """A rewrite iteration exceeded its cap (bad rule set)."""


class DerivativeOrderOverflow(SymlaxError):
    """A multi-index exceeded the configured total-order cap."""


class UnboundField(SymlaxError):
    """A field has no linearization rule and no prolongation path."""


class UnknownConnection(SymlaxError):
    """Requested covariant-derivative slot is not declared."""


class IncompatibleSystem(SymlaxError):
    """Cross-derivative compatibility residue of a BT system is nonzero."""

    def __init__(self, msg, residue=None, level=None):
        super().__init__(msg)
        self.residue = residue
        self.level = level


class InverseOfComposite(SymlaxError):
    """Inverse applied to anything but a bare field atom."""


class ZeroLambda(SymlaxError):
    """Spectral parameter must be nonzero."""


class SingularLambda(SymlaxError):
    """Spectral value where the Lax elimination's determinant is near 0 or not finite."""


class PathInconsistent(SymlaxError):
    """Line-integration result depends on the path (off-shell input)."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class GridTooSmall(SymlaxError):
    """Not enough interior points for central differences."""


class DimensionMismatch(SymlaxError):
    """Matrix dimensions disagree."""


class UnboundAtom(SymlaxError):
    """A symbolic atom has no value in the evaluation environment."""


class NonMonotone(SymlaxError):
    """Residuals do not decrease with h; convergence claim is broken."""

    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


class ConfigInvalid(SymlaxError):
    """Run configuration failed validation."""


class IoFailure(SymlaxError):
    """A report could not be written, or a file could not be read back."""
