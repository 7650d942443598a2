"""Exception types shared across the package."""


class PhaseboundError(ValueError):
    """Base class for domain errors raised by this package."""


class InvalidInputError(PhaseboundError):
    """Input violates a documented precondition (non-finite values, bad shape, ...)."""


class DivergenceError(PhaseboundError):
    """A requested integral does not converge (e.g. constant profile on the plane)."""


class UnattainedBoundError(PhaseboundError):
    """p = 1 with no sup constraint: the optimal constant equals B but is not attained.

    Carries the unattained supremum in ``supremum``.
    """

    def __init__(self, supremum: float):
        self.supremum = float(supremum)
        super().__init__(
            f"no extremal weight exists for p=1 without a sup constraint; "
            f"the supremum {self.supremum} is not attained"
        )


class RegimeError(PhaseboundError):
    """Operation called outside its regime (contract violation)."""


class AliasingError(PhaseboundError):
    """Time sampling too coarse for the requested frequency range."""


class BasisTruncationError(PhaseboundError):
    """Requested basis size leaks mass outside the truncation box."""

    def __init__(self, message: str, suggested_half_width: float):
        self.suggested_half_width = suggested_half_width
        super().__init__(message)
