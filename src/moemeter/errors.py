"""Shared exception types and the package's strict edges: the JSON reader,
the one reader that turns a JSON object into a record dataclass, and the
report renderers, which refuse a non-finite number naming ``report``."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence


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
    literals, and numbers (integers too) too large for a double are
    validation errors naming the file."""

    def reject_constant(literal: str):
        raise ValidationError(f"{path}: {literal} is not a JSON number", field="document")

    def overflow(text: str):
        shown = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
        raise ValidationError(f"{path}: number {shown} overflows a double", field="document")

    def finite_float(text: str) -> float:
        value = float(text)
        return value if math.isfinite(value) else overflow(text)

    def finite_int(text: str) -> int:
        if len(text) > 310:  # overflows whatever its digits (and int() refuses 4300)
            overflow(text)
        value = int(text)
        return value if abs(value) <= sys.float_info.max else overflow(text)

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject_constant, parse_float=finite_float, parse_int=finite_int)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})", field="document") from None


def json_text(doc: Any, name: str) -> str:
    """``doc`` as the text of the JSON report file ``name``: indented, keys
    sorted, newline-terminated, with no NaN or Infinity."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        # inputs are finite, but extreme ones can still overflow a derived figure
        raise ValidationError(
            f"{name} would hold a non-finite number; an input is out of range", field="report"
        ) from None


def csv_text(columns: Sequence[str], rows: Iterable[Sequence[Any]], header_comment: str | None = None) -> str:
    """An RFC 4180 CSV report: an optional ``# header_comment`` line, the
    ``columns`` header, then ``rows``, each cell quoted where it needs it and
    each float written by ``repr``. A non-finite float is refused."""
    import csv
    import io

    buf = io.StringIO()
    buf.write(f"# {header_comment}\n" if header_comment else "")
    writer = csv.writer(buf, lineterminator="\n")  # which writes a float by its repr
    writer.writerow(columns)
    for row in rows:
        for column, value in zip(columns, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"column {column} would hold a non-finite number", field="report")
        writer.writerow(row)
    return buf.getvalue()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The JSON type each record-field annotation admits: a description for
# messages and a check. A field annotated ``T | None`` also admits null.
JSON_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "float": ("a number", _is_number),
    "tuple[bool, ...]": (
        "a list of true/false", lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, bool) for x in v)
    ),
    "tuple[int, ...]": ("a list of integers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
    "dict[str, float]": ("an object of numbers", lambda v: isinstance(v, dict) and all(map(_is_number, v.values()))),
}


def record_from_json(cls, doc: Any, field: str):
    """Build the dataclass ``cls`` from the JSON object ``doc``.

    Every key must be a field, every field without a default must be
    present, and each value must have the JSON type its field's annotation
    names in :data:`JSON_TYPES` (``true`` is not a number). Lists become
    tuples. Range and cross-field checks stay in the class. ``field`` names
    the document in messages and is the error's field when ``doc`` is not an
    object; otherwise the field is the offending key.
    """
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{field} must be a JSON object, got {json.dumps(doc, default=repr)}", field=field)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in fields:
            raise ValidationError(f"{field}: unknown key {key!r}", field=key)
    kwargs = {}
    for name, f in fields.items():
        if name not in doc:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValidationError(f"{field}: missing required field {name!r}", field=name)
            continue
        value = doc[name]
        if value is not None or not f.type.endswith(" | None"):
            kind, check = JSON_TYPES[f.type.removesuffix(" | None")]
            if not check(value):
                shown = json.dumps(value, default=repr)
                raise ValidationError(f"{field}: {name} must be {kind}, got {shown}", field=name)
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)

