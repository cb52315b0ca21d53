"""Exception types shared across the package."""


class AfrobError(Exception):
    """Base class for all domain errors raised by this package."""


class UnknownArgument(AfrobError):
    """An operation referenced an argument that is not in the framework."""


class UnsupportedSemantics(AfrobError):
    """The requested semantics is not available for this operation."""


class ArgumentSetMismatch(AfrobError):
    """Two frameworks were compared that do not share an argument set."""


class SizeLimit(AfrobError):
    """The framework exceeds the exhaustive-enumeration guardrail."""


class ParseError(AfrobError):
    """A malformed line in an apx document."""

    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")


class UndeclaredArgument(AfrobError):
    """An attack endpoint in an apx document was never declared."""

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        super().__init__(f"line {line}: attack endpoint '{name}' is never declared")
