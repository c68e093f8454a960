"""Device capability catalog: peak bandwidth, FLOPS, TDP, price, memory.

Catalog files are JSON lists, one record per device. The shipped
``catalog/default.json`` covers edge, low-power, workstation and datacenter
classes; vendor figures there are data with per-entry source notes, not
claims this package asserts. Multi-GPU systems appear as single entries
with summed bandwidth/TDP and ``aggregate: true``.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError, asdict, json_text, load_json, record, record_from_json

DEVICE_CLASSES = ("edge", "low_power", "workstation", "datacenter")
MEMORY_TIERS = ("HBM", "DRAM", "SSD")
_EMPTY: Mapping = MappingProxyType({})  # the shared default of the mapping fields, copied per spec


@record
class HardwareSpec:
    name: str
    device_class: str
    peak_bandwidth_gbps: float
    tdp_watts: float
    price_usd: float
    peak_flops_by_precision: Mapping[str, float] = _EMPTY
    memory_gb: Mapping[str, float] = _EMPTY
    offload_bandwidth_gbps: float | None = None
    aggregate: bool = False
    source_note: str = ""

    def __post_init__(self):
        # a spec's own read-only copies: no later edit, to its document or to
        # the spec, changes a validated figure
        object.__setattr__(self, "peak_flops_by_precision", MappingProxyType(dict(self.peak_flops_by_precision)))
        object.__setattr__(self, "memory_gb", MappingProxyType(dict(self.memory_gb)))
        if "|" in self.name:  # the batch sweep CSV joins feasible device names with it
            raise ValidationError(f"device {self.name!r}: name must not contain '|'", field="name")
        if self.device_class not in DEVICE_CLASSES:
            raise ValidationError(
                f"device {self.name!r}: device_class must be one of {DEVICE_CLASSES}",
                field="device_class",
            )
        for fname in ("peak_bandwidth_gbps", "tdp_watts", "price_usd"):
            if not 0 <= getattr(self, fname) < math.inf:
                raise ValidationError(f"device {self.name!r}: {fname} must be finite and >= 0", field=fname)
        for prec, flops in self.peak_flops_by_precision.items():
            if not 0 <= flops < math.inf:
                raise ValidationError(
                    f"device {self.name!r}: peak FLOPS for {prec!r} must be finite and >= 0",
                    field="peak_flops_by_precision",
                )
        for tier, gb in self.memory_gb.items():
            if tier not in MEMORY_TIERS:
                raise ValidationError(
                    f"device {self.name!r}: unknown memory tier {tier!r}", field="memory_gb"
                )
            if not 0 <= gb < math.inf:
                raise ValidationError(
                    f"device {self.name!r}: memory size for {tier!r} must be finite and >= 0", field="memory_gb"
                )
        if self.offload_bandwidth_gbps is not None:
            if not 0 <= self.offload_bandwidth_gbps < math.inf:
                raise ValidationError(
                    f"device {self.name!r}: offload bandwidth must be finite and >= 0",
                    field="offload_bandwidth_gbps",
                )
            if self.offload_bandwidth_gbps > self.peak_bandwidth_gbps:
                raise ValidationError(
                    f"device {self.name!r}: offload bandwidth exceeds peak bandwidth",
                    field="offload_bandwidth_gbps",
                )


def load_catalog(source: str | Path | Sequence[Mapping]) -> list[HardwareSpec]:
    """Load and validate a catalog; duplicate device names are rejected."""
    if isinstance(source, (str, Path)):
        doc = load_json(source)
    else:
        doc = list(source)
    if not isinstance(doc, list):
        raise ValidationError("catalog must be a JSON list of device records", field="catalog")
    specs = [record_from_json(HardwareSpec, rec, "record") for rec in doc]
    seen: set[str] = set()
    for spec in specs:
        if spec.name in seen:
            raise ValidationError(f"duplicate device name {spec.name!r}", field="name")
        seen.add(spec.name)
    return specs


def serialize_catalog(specs: Iterable[HardwareSpec]) -> str:
    return json_text([asdict(s) for s in specs], "catalog")


def get_device(catalog: Sequence[HardwareSpec], name: str) -> HardwareSpec:
    for spec in catalog:
        if spec.name == name:
            return spec
    raise ValidationError(f"device {name!r} not in catalog", field="device")
