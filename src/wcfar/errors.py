"""The package's two exception classes, which the command line client maps to exit codes.

A bad file raises ParseError, a ValueError like every other input problem
(exit code 1); a numerical routine that cannot produce a trustworthy result
raises NumericError (exit code 2).
"""


class ParseError(ValueError):
    """A score file could not be parsed; the message starts with ``line N:`` when a line is at fault."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class NumericError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""
