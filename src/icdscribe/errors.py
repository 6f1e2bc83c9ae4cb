"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """A documented precondition of an operation was violated."""


class ValidationError(ValueError):
    """Input data failed a consistency check (duplicates, mismatched vocabularies, bad versions)."""


class ParseError(ValueError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ParseError):
    """A JSON config or artifact is malformed: bad syntax or version, unknown keys, wrong types."""
