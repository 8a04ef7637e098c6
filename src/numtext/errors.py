"""Shared exception types."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ToolkitError, ValueError):
    """A configuration value violates its contract."""


class ValidationError(ToolkitError, ValueError):
    """A record or argument failed validation."""


class ParseError(ToolkitError, ValueError):
    """Unparseable input, carrying the failure position when known."""

    def __init__(self, message, *, offset=None, line=None, column=None):
        parts = [message]
        if offset is not None:
            parts.append(f"(byte offset {offset})")
        if line is not None:
            parts.append(f"(line {line})")
        if column is not None:
            parts.append(f"(column {column})")
        super().__init__(" ".join(parts))
        self.offset = offset
        self.line = line
        self.column = column


class SelfCheckError(ToolkitError, AssertionError):
    """A generated gold answer disagrees with its independent re-computation."""


class SimulationError(ToolkitError, ValueError):
    """A world-state update is impossible (e.g. removing more than held)."""


class StreamError(ToolkitError, RuntimeError):
    """A sampling stream cannot continue (e.g. exhausted source)."""
