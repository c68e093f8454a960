"""Shared exception types, the ``record`` decorator that makes every record
class a frozen one, and the package's strict edges: the JSON reader, the one
reader that turns a JSON object into a record, and the report renderers,
which refuse a non-finite number naming ``report``."""

from __future__ import annotations

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


# --------------------------------------------------------------------------
# Records
# --------------------------------------------------------------------------
# Record classes are not dataclasses: ``dataclasses`` imports ``inspect``,
# ``ast``, ``dis`` and ``tokenize`` and exec-compiles about five methods per
# class, some 30 ms of start-up per command on a 2-core x86-64 host, where a
# ``metrics`` run does about 10 ms of work. ``record`` compiles only
# ``__init__``; the other methods are shared functions over the field tuple.


MISSING = object()  # the default of a field that has none


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class Field:
    """One record field: its ``name``, its annotation string ``type``, and
    its ``default`` (else :data:`MISSING`)."""

    __slots__ = ("name", "type", "default")

    def __init__(self, name: str, type: str, default=MISSING):
        self.name, self.type, self.default = name, type, default


def fields(rec) -> tuple[Field, ...]:
    """The fields of a record class or instance, in declaration order."""
    return rec.__record_fields__


def asdict(rec) -> dict:
    """A record as a dict of its fields, recursing into records, lists,
    tuples and mappings (each rendered as a dict); other values are shared,
    not copied."""
    return {f.name: _plain(getattr(rec, f.name)) for f in rec.__record_fields__}


def _plain(value):
    if hasattr(type(value), "__record_fields__"):
        return asdict(value)
    if type(value) in (list, tuple):
        return type(value)(map(_plain, value))
    if isinstance(value, Mapping):
        return {_plain(k): _plain(v) for k, v in value.items()}
    return value


def _values(rec) -> tuple:
    return tuple([getattr(rec, f.name) for f in rec.__record_fields__])


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self):
    return hash(_values(self))


def _repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__)
    return f"{type(self).__qualname__}({shown})"


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record: every annotated name is a field, in order.

    Used as ``@record``. The class gets an ``__init__`` taking the fields
    (those with defaults last), which sets them and then calls
    ``__post_init__`` if the class has one; ``__eq__``, ``__hash__`` and
    ``__repr__`` over the fields; and a ``__setattr__`` and ``__delattr__``
    that raise :class:`FrozenRecordError`, so a ``__post_init__`` sets a
    normalized field with ``object.__setattr__``. A record holding a dict, a
    list or a read-only view of a dict is unhashable. Instances keep a
    ``__dict__``, so ``functools.cached_property`` works on them.
    """
    record_fields = []
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        record_fields.append(Field(name, annotation, cls.__dict__.get(name, MISSING)))
    # Fields are set one by one through object.__setattr__: that keeps
    # CPython's compact per-instance values, which a write through
    # self.__dict__ would turn into a full dict (64 more bytes for a 15-field
    # record on CPython 3.11).
    # A class body mangles names that start with __, so no field clashes
    # with the `__set` and `__default_` globals.
    namespace = {"__set": object.__setattr__}
    params, body = [], []
    for f in record_fields:
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"__default_{f.name}"] = f.default
            params.append(f"{f.name}=__default_{f.name}")
        body.append(f"__set(self, {f.name!r}, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body)
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__record_fields__ = tuple(record_fields)
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def load_json(path: str | Path) -> Any:
    """Read a JSON file as strict JSON: malformed text, NaN and Infinity
    literals, and numbers (integers too) too large for a double are
    validation errors naming the file, and a key given twice in one object
    is one naming that key."""

    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise ValidationError(f"{path}: key {key!r} appears twice in one object", field=key)
        return doc

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
            return json.load(
                fh, object_pairs_hook=unique_keys, parse_constant=reject_constant,
                parse_float=finite_float, parse_int=finite_int,
            )
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
    "Mapping[str, float]": ("an object of numbers", lambda v: isinstance(v, dict) and all(map(_is_number, v.values()))),
}


def record_from_json(cls, doc: Any, field: str):
    """Build the record ``cls`` from the JSON object ``doc``.

    Every key must be a field, every field without a default must be
    present, and each value must have the JSON type its field's annotation
    names in :data:`JSON_TYPES` (``true`` is not a number). Lists become
    tuples. Range and cross-field checks stay in the class. ``field`` names
    the document in messages and is the error's field when ``doc`` is not an
    object; otherwise the field is the offending key.
    """
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{field} must be a JSON object, got {json.dumps(doc, default=repr)}", field=field)
    by_name = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in by_name:
            raise ValidationError(f"{field}: unknown key {key!r}", field=key)
    kwargs = {}
    for name, f in by_name.items():
        if name not in doc:
            if f.default is MISSING:
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

