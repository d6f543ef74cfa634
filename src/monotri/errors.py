"""Exception hierarchy shared by all monotri modules."""


class MonotriError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(MonotriError, ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(MonotriError, RuntimeError):
    """A computation exceeds its configured size guard."""


class ParseError(MonotriError, ValueError):
    """Input bytes/words cannot be parsed; the message carries a location."""


class InternalError(MonotriError, RuntimeError):
    """An arithmetic self-check failed; indicates a bug, not bad input."""
