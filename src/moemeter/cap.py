"""Cost / accuracy / performance trade-off analysis.

Builds radar-chart datasets over three axes (cost, accuracy, performance),
classifies systems by which axis they sacrifice, and answers deployment
queries against an editable decision-rule table.

Normalization is min-max per axis with direction applied so 1.0 is always
best and 0.0 worst within the compared cohort; a degenerate axis (all
values equal) maps everyone to 1.0. Classification is relative to the
cohort, not absolute: the sacrificed axis is the one where a system has its
minimum normalized coordinate, which makes labels invariant under positive
affine rescaling of any raw axis.

Accuracy is always an externally supplied number; this package never runs
model evaluations.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ValidationError, csv_text, load_json, record, record_from_json

# Axis -> each metric kind it accepts -> that kind's natural direction,
# which a record may override.
METRIC_KINDS = {
    "cost": {"purchase_usd": "lower_better", "power_watts": "lower_better", "cost_per_token_usd": "lower_better"},
    "accuracy": {"exact_match": "higher_better", "f1": "higher_better", "win_rate": "higher_better"},
    "performance": {
        "tpot_s": "lower_better", "throughput_tps": "higher_better", "s_mbu": "higher_better", "s_mfu": "higher_better"
    },
}

AXES = tuple(METRIC_KINDS)

# Axis -> prefix of the record fields that describe it (perf_value, perf_kind, ...).
_FIELD_PREFIX = {"cost": "cost", "accuracy": "accuracy", "performance": "perf"}

# Sacrificed axis -> label naming the two axes the system favors.
LABEL_BY_SACRIFICED = {"cost": "PA", "accuracy": "PC", "performance": "CA"}


@record
class CapRecord:
    """One system's raw (cost, accuracy, performance) triple."""

    system_name: str
    cost_value: float
    cost_kind: str
    accuracy_value: float
    accuracy_kind: str
    perf_value: float
    perf_kind: str
    cost_direction: str | None = None
    accuracy_direction: str | None = None
    perf_direction: str | None = None

    def __post_init__(self):
        for axis, prefix in _FIELD_PREFIX.items():
            kind = getattr(self, f"{prefix}_kind")
            if not isinstance(kind, str) or kind not in METRIC_KINDS[axis]:  # a list is unhashable
                raise ValidationError(f"unknown {prefix}_kind {kind!r}", field=f"{prefix}_kind")
        for fname in ("cost_value", "accuracy_value", "perf_value"):
            if not math.isfinite(getattr(self, fname)):
                raise ValidationError(f"{fname} must be finite", field=fname)
        if not 0.0 <= self.accuracy_value <= 1.0:
            raise ValidationError(
                f"accuracy_value must be in [0, 1] for kind {self.accuracy_kind!r}",
                field="accuracy_value",
            )
        for axis, prefix in _FIELD_PREFIX.items():
            direction = getattr(self, f"{prefix}_direction")
            if direction is None:
                kind = getattr(self, f"{prefix}_kind")
                object.__setattr__(self, f"{prefix}_direction", METRIC_KINDS[axis][kind])
            elif direction not in ("higher_better", "lower_better"):
                raise ValidationError(
                    f"{prefix}_direction must be higher_better or lower_better, got {direction!r}",
                    field=f"{prefix}_direction",
                )


@record
class RadarDataset:
    """Normalized three-axis coordinates (1.0 = best) plus the raw values
    and per-axis normalization bounds."""

    systems: tuple[str, ...]
    axis_kinds: dict[str, str]
    axis_directions: dict[str, str]
    normalized: dict[str, dict[str, float]]
    raw: dict[str, dict[str, float]]
    bounds: dict[str, tuple[float, float]]


def normalize_radar(records: Sequence[CapRecord]) -> RadarDataset:
    """Min-max normalize a cohort of records onto [0, 1] per axis."""
    if len(records) < 2:
        raise ValidationError("radar normalization needs at least 2 records", field="records")
    names = [r.system_name for r in records]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate system names in radar records", field="system_name")
    axis_kinds: dict[str, str] = {}
    axis_directions: dict[str, str] = {}
    for axis, prefix in _FIELD_PREFIX.items():
        kinds = {getattr(r, f"{prefix}_kind") for r in records}
        if len(kinds) != 1:
            raise ValidationError(
                f"all records must share one {prefix}_kind on the {axis} axis, got {sorted(kinds)}",
                field=f"{prefix}_kind",
            )
        directions = {getattr(r, f"{prefix}_direction") for r in records}
        if len(directions) != 1:
            raise ValidationError(
                f"all records must share one {prefix}_direction on the {axis} axis", field=f"{prefix}_direction"
            )
        axis_kinds[axis] = kinds.pop()
        axis_directions[axis] = directions.pop()

    raw = {
        r.system_name: {axis: float(getattr(r, f"{prefix}_value")) for axis, prefix in _FIELD_PREFIX.items()}
        for r in records
    }
    bounds = {}
    normalized: dict[str, dict[str, float]] = {name: {} for name in names}
    for axis in AXES:
        values = [raw[name][axis] for name in names]
        lo, hi = min(values), max(values)
        bounds[axis] = (lo, hi)
        for name in names:
            v = raw[name][axis]
            if hi == lo:
                coord = 1.0
            elif axis_directions[axis] == "higher_better":
                coord = (v - lo) / (hi - lo)
            else:
                coord = (hi - v) / (hi - lo)
            normalized[name][axis] = coord
    return RadarDataset(
        systems=tuple(names),
        axis_kinds=axis_kinds,
        axis_directions=axis_directions,
        normalized=normalized,
        raw=raw,
        bounds=bounds,
    )


def classify_tradeoff(dataset: RadarDataset) -> dict[str, str]:
    """Label each system PA, PC or CA by its sacrificed axis (the argmin of
    its normalized coordinates; ties go to the earlier axis in cost <
    accuracy < performance order)."""
    labels = {}
    for name in dataset.systems:
        coords = dataset.normalized[name]
        sacrificed = min(AXES, key=lambda axis: (coords[axis], AXES.index(axis)))
        labels[name] = LABEL_BY_SACRIFICED[sacrificed]
    return labels


def load_cap_records(path: str | Path) -> list[CapRecord]:
    doc = load_json(path)
    if not isinstance(doc, list):
        raise ValidationError("cap records file must be a JSON list", field="records")
    return [record_from_json(CapRecord, rec, "records") for rec in doc]


def radar_to_dict(dataset: RadarDataset, labels: Mapping[str, str]) -> dict:
    return {
        "axes": [
            {
                "name": axis,
                "kind": dataset.axis_kinds[axis],
                "direction": dataset.axis_directions[axis],
                "bounds": list(dataset.bounds[axis]),
            }
            for axis in AXES
        ],
        "systems": [
            {
                "name": name,
                "raw": dataset.raw[name],
                "normalized": dataset.normalized[name],
                "label": labels[name],
            }
            for name in dataset.systems
        ],
    }


def radar_to_csv(dataset: RadarDataset, labels: Mapping[str, str], header_comment: str | None = None) -> str:
    """Flat CSV: one row per system, its raw and normalized axes and its label."""
    columns = ("system", *(f"{axis}_raw" for axis in AXES), *(f"{axis}_norm" for axis in AXES), "label")
    rows = (
        (name, *(dataset.raw[name][a] for a in AXES), *(dataset.normalized[name][a] for a in AXES), labels[name])
        for name in dataset.systems
    )
    return csv_text(columns, rows, header_comment)


# --------------------------------------------------------------------------
# Decision rules
# --------------------------------------------------------------------------

@record
class DecisionRule:
    """One if-then deployment rule: under a hardware tier, batch range and
    constraint pair, recommend a system and configuration."""

    hardware_tier: str
    batch_min: int
    batch_max: int | None  # None = unbounded
    primary_constraint: str
    secondary_constraint: str
    recommended_system: str
    configuration: str
    reason: str
    example_use_case: str = ""

    def __post_init__(self):
        if self.batch_min < 1:
            raise ValidationError("batch_min must be >= 1", field="batch_min")
        if self.batch_max is not None and self.batch_max < self.batch_min:
            raise ValidationError("batch_max must be >= batch_min", field="batch_max")

    def matches(self, tier: str, batch: int, primary: str, secondary: str) -> bool:
        return (
            self.hardware_tier == tier
            and self.primary_constraint == primary
            and self.secondary_constraint == secondary
            and self.batch_min <= batch
            and (self.batch_max is None or batch <= self.batch_max)
        )


@record
class RecommendResult:
    matched: DecisionRule | None
    nearest: tuple[DecisionRule, ...]


def validate_rules(rules: Sequence[DecisionRule]) -> None:
    """Reject rule tables with overlapping batch ranges inside one
    (tier, primary, secondary) key."""
    by_key: dict[tuple[str, str, str], list[DecisionRule]] = {}
    for rule in rules:
        by_key.setdefault(
            (rule.hardware_tier, rule.primary_constraint, rule.secondary_constraint), []
        ).append(rule)
    for key, group in by_key.items():
        group = sorted(group, key=lambda r: r.batch_min)
        for a, b in zip(group, group[1:]):
            a_max = a.batch_max if a.batch_max is not None else math.inf
            if b.batch_min <= a_max:
                raise ValidationError(
                    f"overlapping batch ranges for key {key}: "
                    f"[{a.batch_min}, {a.batch_max}] and [{b.batch_min}, {b.batch_max}]",
                    field="batch_min",
                )


def load_decision_rules(path: str | Path) -> list[DecisionRule]:
    doc = load_json(path)
    if not isinstance(doc, list):
        raise ValidationError("rules file must be a JSON list", field="rules")
    rules = [record_from_json(DecisionRule, rec, "rules") for rec in doc]
    validate_rules(rules)
    return rules


def recommend(
    rules: Sequence[DecisionRule], tier: str, batch: int, primary: str, secondary: str
) -> RecommendResult:
    """Find the unique rule matching a query; on no match, return the
    nearest rules (same tier or same constraint pair) for context."""
    if batch < 1:
        raise ValidationError("batch must be >= 1", field="batch")
    hits = [r for r in rules if r.matches(tier, batch, primary, secondary)]
    if len(hits) > 1:
        raise ValidationError(
            f"ambiguous recommendation: {len(hits)} rules match "
            f"({tier!r}, batch={batch}, {primary!r}, {secondary!r})",
            field="rules",
        )
    if hits:
        return RecommendResult(matched=hits[0], nearest=())
    nearest = tuple(
        r
        for r in rules
        if r.hardware_tier == tier
        or (r.primary_constraint == primary and r.secondary_constraint == secondary)
    )
    return RecommendResult(matched=None, nearest=nearest)
