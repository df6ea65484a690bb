"""Exception types shared across the package."""


class FuzzysummError(Exception):
    """Base class for all package errors."""


class SchemaError(FuzzysummError):
    """Schema/vocabulary inconsistency (unknown label, bad attribute, ...)."""


class ConfigurationError(FuzzysummError):
    """A valid schema used in a way it does not support."""


class DataError(FuzzysummError):
    """Malformed dataset, context, or hierarchy input."""


class ClusteringError(FuzzysummError):
    """Clustering cannot run on the given input (too few values, ...)."""


class ParseError(FuzzysummError):
    """Query text rejected by the parser; carries line/column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SemanticError(FuzzysummError):
    """Query parsed but is not evaluable against the schema."""


class UsageError(FuzzysummError):
    """An operation was called outside its contract."""
