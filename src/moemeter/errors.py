"""Shared exception types and the strict JSON reader that raises them."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any


class ValidationError(ValueError):
    """An input document or argument violates one of the package's contracts.

    ``field`` names the offending field, record, or line so that callers can
    surface it in machine-readable error reports.
    """

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field


def load_json(path: str | Path) -> Any:
    """Read a JSON file as strict JSON: malformed text, NaN and Infinity
    literals, and numbers too large for a double are validation errors
    naming the file."""

    def reject_constant(literal: str):
        raise ValidationError(f"{path}: {literal} is not a JSON number", field="document")

    def finite_float(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValidationError(f"{path}: number {text} overflows a double", field="document")
        return value

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject_constant, parse_float=finite_float)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})", field="document") from None
