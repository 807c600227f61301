"""Exception types shared across the package, and the JSON input checks
that raise them."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition or invariant."""


class SolverFailure(RuntimeError):
    """Raised when the dispatch solver cannot deliver a usable solution."""


def read_json(path: Path) -> Any:
    """Parse a JSON file; invalid JSON raises a ValidationError naming it."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path.name}: invalid JSON: {exc}") from None


def require_keys(entry: dict, keys: Iterable[str], where: str) -> None:
    """Raise a ValidationError naming the first of ``keys`` missing from ``entry``."""
    missing = [key for key in keys if key not in entry]
    if missing:
        raise ValidationError(f"{where} has no {missing[0]!r}")


def json_int(value: Any, what: str, positive: bool = False) -> int:
    """``value`` if it is a JSON integer (and >= 1 when ``positive``)."""
    # bool is an int subclass; a JSON true is not a number.
    if type(value) is not int or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ValidationError(f"{what} must be {kind}, got {value!r}")
    return value
