"""Exception hierarchy shared across the package.

Exit-code contract of the CLI: 0 = all checks pass, 1 = statistical
failure, 2 = structural inconsistency, 3 = input error.
"""


class FinevoError(Exception):
    """Base class for all package errors."""


class InputError(FinevoError):
    """Malformed or inconsistent user input (law files, configs, arguments)."""

    exit_code = 3


class ResourceLimitError(FinevoError):
    """A configurable resource cap was exceeded (e.g. closure element cap)."""

    exit_code = 3


class StructuralInconsistencyError(FinevoError):
    """An algebraic invariant that must hold by construction failed.

    Raised when a verified structural fact (group axioms, bijectivity of
    product maps, coset partitions, ...) does not hold; signals a bug
    upstream rather than bad input.
    """

    exit_code = 2


class ClassificationError(FinevoError):
    """A measure could not be decomposed into the expected family form.

    Carries the residual (element -> (got, want)) so callers can report
    exactly where the decomposition failed.
    """

    exit_code = 2

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual or {}

