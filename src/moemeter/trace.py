"""Activation sheets: the per-pass expert-activation record and its file format.

An activation sheet is the runtime realization of the per-layer expert
indicator: for every forward pass it records which routed experts each MoE
layer touched, together with batch size, token count and wall time. Sheets
come either from an external profiler (parsed here) or from the routing
simulator in ``routing``. This module holds only the sheet: its records,
validation against a descriptor, and parse/load/serialize. It never loads
numpy or ``routing``, so commands that only read traces stay light.

Trace file format (line-delimited, UTF-8, ``#`` starts a comment line)::

    model=<descriptor name>
    pass_id,phase,batch_size,tokens_processed,latency_s,kv_bytes_read,L:HEX;L:HEX;...

Each non-comment line after the ``model=`` header is one forward pass. The
final field lists one ``layer:bitmap`` entry per MoE layer, layers
ascending; the bitmap is lowercase hex, zero-padded to ceil(n_expert/4)
nibbles, and expert 0 is the least-significant bit of the last hex char.
Shared experts are never recorded (they are active by definition); metric
code adds them analytically.

In memory a pass holds the same numbers: one packed Python ``int`` per MoE
layer, routed expert i at bit i. Parsing is ``int(hex, 16)``, validation is
``bit_length``/``bit_count``, and accounting is a popcount times the expert
size (the sizes of the set bits when expert sizes differ). The integer
fields and layer indices must be bare ASCII digits and the latency may
hold no ``_`` or non-ASCII character: ``int`` and ``float`` alone would
also read ``1_0`` as 10 and an Arabic-Indic ``٣`` as 3.

The routing names that used to live here (``RoutingDistribution``,
``simulate_routing``, ``expected_distinct_experts`` and the rest) still
resolve as ``trace.<name>``: the module ``__getattr__`` at the end loads
``routing`` on first access to one of them.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .errors import ValidationError, record
from .models import ModelDescriptor, expert_indices

PHASES = ("prefill", "decode")


@record
class ForwardPassRecord:
    """One forward pass: batch geometry, wall time, and one activation
    bitmap per MoE layer (routed expert i at bit i).

    ``bitmaps`` also takes an iterable of expert indices per layer, packed
    once here into a new dict, which the record holds behind a read-only
    view. ``activated`` unpacks the bitmaps into index sets on access, for
    readers; validation and accounting work on the bitmaps.
    """

    pass_id: int
    phase: str
    batch_size: int
    tokens_processed: int
    latency_s: float
    kv_bytes_read: int
    bitmaps: Mapping[int, int]

    def __post_init__(self):
        self._check_geometry()
        try:
            bitmaps = {
                int(layer): b if type(b) is int and b >= 0 else sum(1 << i for i in {operator.index(i) for i in b})
                for layer, b in self.bitmaps.items()
            }
        except (TypeError, ValueError):
            raise ValidationError(
                f"pass {self.pass_id}: activations must be bitmaps or non-negative integer expert indices",
                field="activated",
            ) from None
        object.__setattr__(self, "bitmaps", MappingProxyType(bitmaps))

    @classmethod
    def _from_packed(
        cls, pass_id: int, phase: str, batch_size: int, tokens_processed: int, latency_s: float,
        kv_bytes_read: int, bitmaps: dict[int, int],
    ) -> ForwardPassRecord:
        """A record that holds ``bitmaps`` unrepacked, behind a read-only view:
        a new dict from int layer to non-negative int bitmap, such as the
        parser and ``simulate`` build. It skips the repacking (about 70 % of
        building an r1 record) and runs every other check."""
        rec = cls.__new__(cls)
        set_ = object.__setattr__
        set_(rec, "pass_id", pass_id)
        set_(rec, "phase", phase)
        set_(rec, "batch_size", batch_size)
        set_(rec, "tokens_processed", tokens_processed)
        set_(rec, "latency_s", latency_s)
        set_(rec, "kv_bytes_read", kv_bytes_read)
        set_(rec, "bitmaps", MappingProxyType(bitmaps))
        rec._check_geometry()
        return rec

    def _check_geometry(self):
        if self.phase not in PHASES:
            raise ValidationError(
                f"pass {self.pass_id}: phase must be one of {PHASES}, got {self.phase!r}",
                field="phase",
            )
        if self.batch_size < 1:
            raise ValidationError(f"pass {self.pass_id}: batch_size must be >= 1", field="batch_size")
        if not 0 < self.latency_s < math.inf:
            raise ValidationError(f"pass {self.pass_id}: latency_s must be finite and > 0", field="latency_s")
        if not 0 <= self.kv_bytes_read <= sys.float_info.max:
            raise ValidationError(
                f"pass {self.pass_id}: kv_bytes_read must be >= 0 and fit a double", field="kv_bytes_read"
            )
        if self.phase == "decode" and self.tokens_processed != self.batch_size:
            raise ValidationError(
                f"pass {self.pass_id}: decode pass must have tokens_processed == batch_size",
                field="tokens_processed",
            )
        if self.phase == "prefill" and self.tokens_processed < self.batch_size:
            raise ValidationError(
                f"pass {self.pass_id}: prefill pass must have tokens_processed >= batch_size",
                field="tokens_processed",
            )

    @property
    def activated(self) -> Mapping[int, frozenset[int]]:
        return MappingProxyType({layer: frozenset(expert_indices(b)) for layer, b in self.bitmaps.items()})


@record
class ActivationSheet:
    model_name: str
    passes: tuple[ForwardPassRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "passes", tuple(self.passes))
        if not self.passes:
            raise ValidationError("activation sheet must contain at least one pass", field="passes")


def validate_sheet(sheet: ActivationSheet, desc: ModelDescriptor) -> None:
    """Check a sheet against a descriptor: layer/expert index ranges, MoE
    layer coverage, and per-layer activation cardinality bounds."""
    if sheet.model_name != desc.name:
        raise ValidationError(
            f"sheet is for model {sheet.model_name!r}, descriptor is {desc.name!r}",
            field="model_name",
        )
    moe_layers = set(desc.moe_layers)
    n_expert = desc.n_expert
    lower = min(desc.top_k, n_expert)
    for rec in sheet.passes:
        if rec.bitmaps.keys() != moe_layers:
            raise ValidationError(
                f"pass {rec.pass_id}: activated layers {sorted(rec.bitmaps)} do not match "
                f"the model's MoE layers {sorted(moe_layers)}",
                field="activated",
            )
        # prefill passes have no bound beyond n_expert, which the range check enforces
        upper = min(n_expert, rec.batch_size * desc.top_k) if rec.phase == "decode" else n_expert
        for layer, bitmap in rec.bitmaps.items():
            if bitmap.bit_length() > n_expert:
                raise ValidationError(
                    f"pass {rec.pass_id}: expert index {bitmap.bit_length() - 1} out of range for "
                    f"{n_expert}-expert layer {layer}",
                    field="activated",
                )
            count = bitmap.bit_count()
            if count < lower:
                raise ValidationError(
                    f"pass {rec.pass_id}: layer {layer} activates {count} experts, "
                    f"fewer than one token requires ({lower})",
                    field="activated",
                )
            if count > upper:
                raise ValidationError(
                    f"pass {rec.pass_id}: layer {layer} activates {count} experts, "
                    f"more than batch_size*top_k allows ({upper})",
                    field="activated",
                )


# --------------------------------------------------------------------------
# Trace file parsing / serialization
# --------------------------------------------------------------------------

# bare hex digits only: int(s, 16) alone would also take signs, 0x, _ and spaces
_BARE_HEX = re.compile(r"[0-9a-fA-F]+")
# a whole activation field, layer:hex entries joined by ';'; the layer is
# ASCII digits, which int() alone would widen to signs, _ and other scripts
_ACTIVATIONS = re.compile(r"(?:[0-9]+:[0-9a-fA-F]+;)*[0-9]+:[0-9a-fA-F]+")


def _digits(text: str) -> int:
    """A count field or layer index: bare ASCII digits."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"expected bare decimal digits, got {text!r}")


def _decimal(text: str) -> float:
    """The latency field: float() less the _ and non-ASCII digits it takes."""
    if "_" in text or not text.isascii():
        raise ValueError(f"expected an ASCII decimal number, got {text!r}")
    return float(text)


def _parse_activations(text: str, pass_id: int) -> dict[int, int]:
    """The layer -> bitmap dict of one activation field.

    A well-formed field is checked by one pattern and split at once; any
    other is read entry by entry, which names its first faulty entry."""
    if _ACTIVATIONS.fullmatch(text):
        tokens = iter(text.replace(";", ":").split(":"))
        bitmaps = {int(layer): int(hexstr, 16) for layer, hexstr in zip(tokens, tokens)}
        if len(bitmaps) == text.count(";") + 1:
            return bitmaps
    bitmaps = {}
    for entry in text.split(";") if text else ():
        layer_str, colon, hexstr = entry.partition(":")
        if not colon:
            raise ValidationError(f"pass {pass_id}: malformed layer entry {entry!r}", field="activated")
        try:
            layer = _digits(layer_str)
        except ValueError:
            raise ValidationError(
                f"pass {pass_id}: malformed layer index {layer_str!r}", field="activated"
            ) from None
        if layer in bitmaps:
            raise ValidationError(f"pass {pass_id}: duplicate layer {layer} in bitmap list", field="activated")
        if not _BARE_HEX.fullmatch(hexstr):
            raise ValidationError(f"pass {pass_id}: malformed bitmap {hexstr!r}", field="activated")
        bitmaps[layer] = int(hexstr, 16)
    return bitmaps


def parse_activation_sheet(source: str, desc: ModelDescriptor | None = None) -> ActivationSheet:
    """Parse the text of a trace document.

    If ``desc`` is given, the sheet is additionally validated against the
    model. Violations are rejected with the offending line or pass id.
    """
    model_name: str | None = None
    passes: list[ForwardPassRecord] = []
    for lineno, raw in enumerate(source.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if model_name is None:
            if not line.startswith("model="):
                raise ValidationError(
                    f"line {lineno}: expected 'model=<name>' header before pass records",
                    field="model",
                )
            model_name = line[len("model="):]
            if not model_name:
                raise ValidationError(f"line {lineno}: empty model name", field="model")
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 7:
            raise ValidationError(
                f"line {lineno}: expected 7 comma-separated fields, got {len(parts)}",
                field="record",
            )
        try:
            pass_id = _digits(parts[0])
            phase = parts[1]
            batch_size = _digits(parts[2])
            tokens = _digits(parts[3])
            latency_s = _decimal(parts[4])
            kv_bytes = _digits(parts[5])
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: malformed field ({exc})", field="record") from None
        bitmaps = _parse_activations(parts[6], pass_id)
        passes.append(ForwardPassRecord._from_packed(pass_id, phase, batch_size, tokens, latency_s, kv_bytes, bitmaps))
    if model_name is None:
        raise ValidationError("trace has no 'model=' header", field="model")
    sheet = ActivationSheet(model_name=model_name, passes=passes)
    if desc is not None:
        validate_sheet(sheet, desc)
    return sheet


def load_activation_sheet(path: str | Path, desc: ModelDescriptor | None = None) -> ActivationSheet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_activation_sheet(fh.read(), desc)


def serialize_activation_sheet(sheet: ActivationSheet, desc: ModelDescriptor) -> str:
    """Canonical text form of a sheet (the exact format parse accepts)."""
    hex_format = f"0{max(1, math.ceil(desc.n_expert / 4))}x"
    out = [f"model={sheet.model_name}"]
    for rec in sheet.passes:
        bitmaps = ";".join(f"{layer}:{rec.bitmaps[layer]:{hex_format}}" for layer in sorted(rec.bitmaps))
        out.append(
            f"{rec.pass_id},{rec.phase},{rec.batch_size},{rec.tokens_processed},"
            f"{rec.latency_s!r},{rec.kv_bytes_read},{bitmaps}"
        )
    out.append("")  # the trailing newline, without copying the joined text again
    return "\n".join(out)


def __getattr__(name: str):
    """Resolve a name that moved to ``routing`` (PEP 562), loading it on
    first use. Dunder names are not forwarded: ``from .trace import X``
    probes ``__path__``, and forwarding that would load routing into every
    command that reads a trace."""
    if not name.startswith("__"):
        from . import routing

        if hasattr(routing, name):
            value = globals()[name] = getattr(routing, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
