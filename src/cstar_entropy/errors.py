"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input fails a structural or numerical precondition."""


class NotAStateError(ValidationError):
    """A functional violates positivity or normalization and is not a state."""


class DisconnectedSectorsError(ValidationError):
    """Vectors (or pure states) live in different irreducible sectors."""


class DecompositionError(RuntimeError):
    """Block-structure discovery failed verification.

    Carries the residual norm of the best attempt, which usually signals a
    tolerance that is too tight or too loose for the input.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
