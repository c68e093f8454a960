from __future__ import annotations

import math
import random

import pytest

from moemeter.cap import (
    CapRecord,
    DecisionRule,
    classify_tradeoff,
    load_cap_records,
    load_decision_rules,
    normalize_radar,
    radar_to_dict,
    recommend,
    validate_rules,
)
from moemeter.errors import ValidationError

from conftest import REPO_ROOT


def record(name, cost, acc, tpot, **overrides):
    base = dict(
        system_name=name,
        cost_value=cost,
        cost_kind="purchase_usd",
        accuracy_value=acc,
        accuracy_kind="exact_match",
        perf_value=tpot,
        perf_kind="tpot_s",
    )
    base.update(overrides)
    return CapRecord(**base)


@pytest.fixture(scope="module")
def serving_records():
    return load_cap_records(REPO_ROOT / "bundles" / "radar_serving_systems.json")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_latency_extremes_map_to_unit_interval():
    records = [record("fast", 100, 0.9, 0.058), record("slow", 100, 0.9, 0.15)]
    dataset = normalize_radar(records)
    assert dataset.normalized["fast"]["performance"] == 1.0
    assert dataset.normalized["slow"]["performance"] == 0.0


def test_degenerate_axis_maps_to_one():
    records = [record("a", 100, 0.9, 0.1), record("b", 200, 0.9, 0.2)]
    dataset = normalize_radar(records)
    assert dataset.normalized["a"]["accuracy"] == 1.0
    assert dataset.normalized["b"]["accuracy"] == 1.0


def test_accuracy_minmax_arithmetic():
    records = [
        record("x", 100, 0.911, 0.1),
        record("y", 100, 0.922, 0.1),
        record("z", 100, 0.900, 0.1),
    ]
    dataset = normalize_radar(records)
    assert dataset.normalized["x"]["accuracy"] == pytest.approx(0.5, rel=1e-9)
    assert dataset.normalized["y"]["accuracy"] == 1.0
    assert dataset.normalized["z"]["accuracy"] == 0.0


def test_mixed_kinds_on_axis_rejected():
    records = [
        record("a", 100, 0.9, 0.1),
        record("b", 100, 0.9, 50.0, perf_kind="throughput_tps"),
    ]
    with pytest.raises(ValidationError, match="performance"):
        normalize_radar(records)


KIND_FIELDS = ("cost_kind", "accuracy_kind", "perf_kind")


@pytest.mark.parametrize("value", ["watts", ["tpot_s"]])
@pytest.mark.parametrize("key", KIND_FIELDS)
def test_unknown_kind_is_the_first_error(key, value):
    # this kind and every later one are unknown, and every value check would fail too
    later = KIND_FIELDS[KIND_FIELDS.index(key):]
    overrides = {"cost_value": math.nan, "accuracy_value": 2.0, "perf_direction": "sideways"}
    with pytest.raises(ValidationError) as exc:
        record("a", 1.0, 0.5, 0.1, **overrides, **dict.fromkeys(later, value))
    assert (exc.value.field, str(exc.value)) == (key, f"unknown {key} {value!r}")


def test_fewer_than_two_records_rejected():
    with pytest.raises(ValidationError, match="2"):
        normalize_radar([record("only", 1, 0.5, 0.1)])


def test_normalization_idempotent(serving_records):
    dataset = normalize_radar(serving_records)
    renorm_records = [
        CapRecord(
            system_name=name,
            cost_value=dataset.normalized[name]["cost"],
            cost_kind="purchase_usd",
            cost_direction="higher_better",
            accuracy_value=dataset.normalized[name]["accuracy"],
            accuracy_kind="exact_match",
            perf_value=dataset.normalized[name]["performance"],
            perf_kind="tpot_s",
            perf_direction="higher_better",
        )
        for name in dataset.systems
    ]
    renorm = normalize_radar(renorm_records)
    for name in dataset.systems:
        for axis in ("cost", "accuracy", "performance"):
            assert renorm.normalized[name][axis] == pytest.approx(
                dataset.normalized[name][axis], abs=1e-12
            )


def test_accuracy_out_of_range_rejected():
    with pytest.raises(ValidationError, match="accuracy_value"):
        record("bad", 100, 91.1, 0.1)  # percentages must be given as fractions


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_serving_systems_labels(serving_records):
    dataset = normalize_radar(serving_records)
    labels = classify_tradeoff(dataset)
    assert labels == {"sglang": "PA", "k-transformers": "PC", "moe-infinity": "CA"}


def test_labels_invariant_under_record_order(serving_records):
    shuffled = list(serving_records)
    rng = random.Random(5)
    for _ in range(10):
        rng.shuffle(shuffled)
        labels = classify_tradeoff(normalize_radar(shuffled))
        assert labels == {"sglang": "PA", "k-transformers": "PC", "moe-infinity": "CA"}


def test_labels_invariant_under_affine_rescaling(serving_records):
    rng = random.Random(99)
    for _ in range(50):
        a_c, a_a, a_p = (rng.uniform(0.01, 100) for _ in range(3))
        b_c, b_p = rng.uniform(-5, 5), rng.uniform(-0.5, 0.5)
        rescaled = [
            CapRecord(
                system_name=r.system_name,
                cost_value=a_c * r.cost_value + b_c,
                cost_kind=r.cost_kind,
                accuracy_value=min(1.0, max(0.0, a_a * 0.01 * r.accuracy_value)),
                accuracy_kind=r.accuracy_kind,
                perf_value=a_p * r.perf_value + abs(b_p),
                perf_kind=r.perf_kind,
            )
            for r in serving_records
        ]
        labels = classify_tradeoff(normalize_radar(rescaled))
        assert labels == {"sglang": "PA", "k-transformers": "PC", "moe-infinity": "CA"}


def test_tie_breaking_uses_axis_order():
    # both sacrificed axes at 0: cost comes first in the fixed order
    records = [record("tied", 200, 0.80, 0.2), record("other", 100, 0.90, 0.1)]
    labels = classify_tradeoff(normalize_radar(records))
    assert labels["tied"] == "PA"


def test_radar_to_dict_shape(serving_records):
    dataset = normalize_radar(serving_records)
    doc = radar_to_dict(dataset, classify_tradeoff(dataset))
    assert [a["name"] for a in doc["axes"]] == ["cost", "accuracy", "performance"]
    assert {s["name"] for s in doc["systems"]} == set(dataset.systems)
    assert all("label" in s for s in doc["systems"])


# ---------------------------------------------------------------------------
# Decision rules
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def shipped_rules():
    return load_decision_rules(REPO_ROOT / "rules" / "decision_matrix.json")


def test_shipped_rule_table_is_total(shipped_rules):
    validate_rules(shipped_rules)  # no overlaps
    assert len(shipped_rules) == 6


def test_recommend_workstation_cost_latency(shipped_rules):
    result = recommend(shipped_rules, "workstation_gpu_a5000", 4, "cost", "latency")
    assert result.matched is not None
    assert result.matched.recommended_system == "K-Transformers"
    assert result.matched.configuration == "Quantization"


def test_recommend_datacenter_throughput_accuracy(shipped_rules):
    result = recommend(shipped_rules, "datacenter_gpu_h20", 32, "performance_throughput", "accuracy")
    assert result.matched is not None
    assert result.matched.recommended_system == "SGLang/vLLM"
    assert result.matched.configuration == "FP16"


def test_recommend_missing_tier_returns_nearest(shipped_rules):
    result = recommend(shipped_rules, "edge_soc", 2, "cost", "latency")
    assert result.matched is None
    assert result.nearest  # same constraint pair exists on another tier
    assert all(r.hardware_tier != "edge_soc" for r in result.nearest)


def test_boundary_batch_disambiguated_by_constraints(shipped_rules):
    low = recommend(shipped_rules, "workstation_gpu_a5000", 8, "cost", "latency")
    high = recommend(shipped_rules, "workstation_gpu_a5000", 8, "performance_latency", "accuracy")
    assert low.matched.recommended_system == "K-Transformers"
    assert high.matched.recommended_system == "SGLang/vLLM"


def test_overlapping_rules_rejected():
    mk = lambda lo, hi: DecisionRule(
        hardware_tier="t",
        batch_min=lo,
        batch_max=hi,
        primary_constraint="cost",
        secondary_constraint="latency",
        recommended_system="s",
        configuration="c",
        reason="r",
    )
    with pytest.raises(ValidationError, match="overlap"):
        validate_rules([mk(1, 8), mk(8, None)])


def test_ambiguous_match_is_configuration_error():
    overlapping = [
        DecisionRule("t", 1, 10, "cost", "latency", "A", "c", "r"),
        DecisionRule("t", 5, None, "cost", "latency", "B", "c", "r"),
    ]
    with pytest.raises(ValidationError, match="ambiguous"):
        recommend(overlapping, "t", 7, "cost", "latency")


def test_rule_batch_range_validation():
    with pytest.raises(ValidationError, match="batch_max"):
        DecisionRule("t", 8, 4, "cost", "latency", "s", "c", "r")
