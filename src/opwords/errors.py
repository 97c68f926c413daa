"""Exception types shared across the package."""


class OpwordsError(Exception):
    pass


class ArityError(OpwordsError):
    """Source/target arities do not chain, or a value is out of range."""


class UnknownGeneratorError(OpwordsError):
    """A generator name is not declared in the alphabet."""


class AssignmentError(OpwordsError):
    """A generator assignment is missing or has mismatched arities."""


class ParseError(OpwordsError):
    """Syntax error in the expression DSL or a structured text file."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EvaluationSizeError(OpwordsError):
    """A table would have more rows than ``endo.MAX_ROWS``."""


class ReplayError(OpwordsError):
    """A certificate step does not apply where it claims to."""
