"""The package's one error hierarchy.

Every failure mpvesd raises on purpose derives from ``MpvesdError``.  An
``InputError`` rejects a caller's argument or config field and maps to
exit code 2; a ``NumericalError`` reports a solver that failed on valid
input and maps to exit code 1.  This module imports nothing.
"""


class MpvesdError(Exception):
    """Root of every error the package raises on purpose."""


class InputError(MpvesdError, ValueError):
    """An argument, config field or command option is invalid."""


class NumericalError(MpvesdError, RuntimeError):
    """A solver or factorization failed on valid input."""
