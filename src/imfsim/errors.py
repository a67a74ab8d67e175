"""Exception types shared across the package."""


class ImfsimError(Exception):
    """Base class for all package errors."""


class MalformedLineError(ImfsimError):
    """An event-stream line could not be parsed. Carries the 1-based line number."""

    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        msg = f"malformed event line {line_no}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NonMonotonicTimestampError(ImfsimError):
    """Event timestamps must be non-decreasing. Carries the offending 1-based
    line number, or event index for events already in memory."""

    def __init__(self, line_no: int, where: str = "event line"):
        self.line_no = line_no
        super().__init__(f"timestamp decreases at {where} {line_no}")


class OutOfBoundsError(ImfsimError):
    """An event lies outside the configured sensor dimensions."""


class InvalidParamsError(ImfsimError):
    """A configuration or parameter object violates its invariants."""


class DimensionMismatchError(ImfsimError):
    """Array or geometry dimensions are incompatible with the requested operation."""


def shown(value: object, limit: int = 40) -> str:
    """repr(value) for an error message; a string longer than `limit` shows
    only its first `limit` characters and its length."""
    if not isinstance(value, str) or len(value) <= limit:
        return repr(value)
    return f"{value[:limit]!r}... ({len(value)} characters)"
