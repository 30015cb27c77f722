"""Shared exception types for the package, the JSON file reader that maps
every decoding failure onto ValueError, and the shape test its decoders share."""

import json
from pathlib import Path


class DdqError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DdqError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PreconditionError(DdqError, ValueError):
    """A checked precondition failed; the message names the failing condition."""


class ParseError(DdqError, ValueError):
    """Malformed textual input; carries the zero-based column of the offence."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (column {position + 1})"
        super().__init__(message)
        self.position = position


class SearchExhausted(DdqError, RuntimeError):
    """A bounded witness search finished without reaching a verdict.

    Nothing in the package raises it any more: `find_nondiagonal_below`
    constructs its witness.  The name stays public for existing callers.
    """


def read_json(path: str | Path):
    """Decode a JSON file.  Malformed JSON raises json.JSONDecodeError and
    nesting too deep for the decoder a ValueError, never RecursionError."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _rows_of(value, ok) -> bool:
    """Whether a decoded value is a list of rows (lists) whose entries pass ok."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(ok(v) for v in row) for row in value
    )
