"""The ``errors.record`` decorator every record class is built with; the one
reader of JSON input documents, ``errors.record_from_json``, and the
documents it turns away at the command line; the strict renderers of
reports, ``errors.json_text`` and ``errors.csv_text``."""

from __future__ import annotations

import csv
import io
import json
import math
from types import MappingProxyType
from typing import Mapping

import pytest

from conftest import REPO_ROOT
from moemeter import cap, catalog, costing, metrics, models, planner, routing, trace
from moemeter.cap import CapRecord, DecisionRule
from moemeter.catalog import HardwareSpec
from moemeter.costing import BillOfMaterials, DeploymentEconomics, PowerProfile
from moemeter.errors import (
    JSON_TYPES,
    ValidationError,
    asdict,
    csv_text,
    fields,
    json_text,
    load_json,
    record_from_json,
)
from moemeter.models import ModelDescriptor

RECORD_CLASSES = (
    ModelDescriptor, HardwareSpec, BillOfMaterials, PowerProfile, DeploymentEconomics, CapRecord, DecisionRule
)
MODELS = REPO_ROOT / "models"
CATALOG = REPO_ROOT / "catalog" / "default.json"
RADAR = REPO_ROOT / "bundles" / "radar_serving_systems.json"
RULES = REPO_ROOT / "rules" / "decision_matrix.json"


# every record class in the package, found by the attribute `record` sets
RECORD_CLASSES_ALL = sorted(
    {
        c
        for module in (models, trace, routing, metrics, catalog, planner, costing, cap)
        for c in vars(module).values()
        if isinstance(c, type) and "__record_fields__" in vars(c)
    },
    key=lambda c: (c.__module__, c.__name__),
)


@pytest.fixture(scope="module")
def record_examples() -> dict:
    """One instance of every record class, made by the code that makes it
    in a command where there is one."""
    toy = models.load_model_descriptor(MODELS / "toy-4x2.json")
    sheet = trace.load_activation_sheet(REPO_ROOT / "traces" / "sample_decode.trace", toy)
    devices = catalog.load_catalog(CATALOG)
    int8, slo = models.Precision(1.0), planner.SloSpec(0.1)
    zipf = routing.RoutingDistribution.zipf(1.1)
    requirement = planner.plan_requirement(toy, int8, slo, "trace", sheet=sheet, include_ops=True)
    report = metrics.compute_metric_report(sheet, toy, int8, 3.35e12, 1.979e15)
    records = cap.load_cap_records(RADAR)
    rules = cap.load_decision_rules(RULES)
    rule = rules[0]
    examples = [
        int8,
        toy,
        sheet.passes[0],
        sheet,
        zipf,
        routing.expected_distinct_experts(toy.n_expert, toy.top_k, 2, zipf),
        metrics.activated_fraction(sheet, toy),
        report,
        report.passes[0],
        devices[0],
        slo,
        requirement,
        planner.feasibility(requirement, devices)[0],
        planner.batch_sweep(toy, zipf, [2], slo, int8, devices)[0],
        BillOfMaterials(8000, 1000, 500, 300, 200, hbm_usd=100),
        PowerProfile(400, 100),
        DeploymentEconomics(8760, 0.1, 1000),
        records[0],
        cap.normalize_radar(records),
        rule,
        cap.recommend(rules, rule.hardware_tier, rule.batch_min, rule.primary_constraint, rule.secondary_constraint),
    ]
    return {type(rec): rec for rec in examples}


def _assert_plain(value, original):
    """``value`` is ``original`` with every record turned into a new dict of
    its fields, every list and tuple into a new one of its type, and every
    mapping (a dict or a read-only view of one) into a new dict; any other
    value is shared."""
    if hasattr(type(original), "__record_fields__"):
        assert type(value) is dict and list(value) == [f.name for f in fields(original)]
        for f in fields(original):
            _assert_plain(value[f.name], getattr(original, f.name))
    elif type(original) in (list, tuple) or isinstance(original, Mapping):
        assert type(value) is (dict if isinstance(original, Mapping) else type(original))
        assert len(value) == len(original)
        assert value is not original or original == ()  # () is a singleton
        if isinstance(original, Mapping):
            assert list(value) == list(original)
            value, original = list(value.values()), list(original.values())
        for v, o in zip(value, original):
            _assert_plain(v, o)
    else:
        assert value is original


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_every_record_annotation_has_a_json_type(cls):
    # a field type the reader cannot check would fail a user's command with exit 1
    for f in fields(cls):
        assert f.type.removesuffix(" | None") in JSON_TYPES, (cls.__name__, f.name, f.type)


@pytest.mark.parametrize("cls", RECORD_CLASSES_ALL, ids=lambda cls: cls.__name__)
def test_record_classes_compare_hash_freeze_and_convert_by_their_fields(record_examples, cls):
    assert len(RECORD_CLASSES_ALL) == 21
    rec = record_examples[cls]
    names = [f.name for f in fields(cls)]
    # fields keep declaration order and the annotation strings
    assert [(f.name, f.type) for f in fields(cls)] == list(vars(cls)["__annotations__"].items())
    assert fields(rec) == fields(cls)
    values = {name: getattr(rec, name) for name in names}
    # equality goes by the fields: a copy is equal, and a change to any field is not
    copy = cls.__new__(cls)
    vars(copy).update(values)
    assert copy == rec and not copy != rec
    assert rec != type("Other", (), values)()
    for name in names:
        changed = cls.__new__(cls)
        vars(changed).update(values, **{name: object()})
        assert changed != rec, name
    try:
        by_fields = hash(tuple(values.values()))
    except TypeError:  # a field holding a dict, a list or a read-only view of a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
    else:
        assert hash(copy) == hash(rec) == by_fields
    # every record is frozen, the sheet and its passes too
    for target in (rec, copy):
        for name in names:
            with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
                setattr(target, name, values[name])
            with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
                delattr(target, name)
    assert vars(copy) == values
    assert {name: getattr(rec, name) for name in names} == values
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in values.items()) + ")"
    # asdict recurses into nested records, lists, tuples and dicts
    _assert_plain(asdict(rec), rec)


def test_hardware_spec_keeps_its_figures_when_the_callers_dicts_change():
    doc = json.loads(CATALOG.read_text())[0]
    flops, memory = dict(doc["peak_flops_by_precision"]), dict(doc["memory_gb"])
    assert flops and memory
    built = HardwareSpec(**doc)
    loaded = catalog.load_catalog([doc])[0]
    assert built == loaded
    doc["peak_flops_by_precision"]["fp16"] = math.nan
    doc["memory_gb"].clear()
    for spec in (built, loaded):
        assert spec.peak_flops_by_precision == flops and spec.memory_gb == memory
    # the mapping fields default to an empty read-only view of the spec's own
    required = {k: v for k, v in doc.items() if k not in ("peak_flops_by_precision", "memory_gb")}
    first, second = HardwareSpec(**required), HardwareSpec(**required)
    assert first.peak_flops_by_precision == {} and type(first.memory_gb) is MappingProxyType
    assert first.peak_flops_by_precision is not second.peak_flops_by_precision


def test_validated_records_refuse_edits_to_their_containers():
    doc = json.loads(CATALOG.read_text())[0]
    toy = models.load_model_descriptor(MODELS / "toy-4x2.json")
    parsed = trace.load_activation_sheet(REPO_ROOT / "traces" / "sample_decode.trace", toy)
    built = trace.ActivationSheet(toy.name, [trace.ForwardPassRecord(0, "decode", 1, 1, 0.01, 0, {0: {0, 1}, 1: {2}})])
    for spec in (catalog.load_catalog([doc])[0], HardwareSpec(**doc)):
        with pytest.raises(TypeError, match="does not support item assignment"):
            spec.peak_flops_by_precision["fp16"] = math.nan
        with pytest.raises(TypeError, match="does not support item assignment"):
            spec.memory_gb["HBM"] = 0.0
        assert spec == HardwareSpec(**doc)
    for sheet in (parsed, built):  # bitmaps held as parsed, and as packed from index sets
        count = len(sheet.passes)
        with pytest.raises(TypeError, match="does not support item assignment"):
            sheet.passes[0].bitmaps[0] = 1 << 300
        with pytest.raises(AttributeError, match="clear"):
            sheet.passes.clear()
        assert len(sheet.passes) == count and max(sheet.passes[0].bitmaps.values()) < 1 << toy.n_expert
    trace.validate_sheet(parsed, toy)


def _rule(**overrides):
    doc = {"hardware_tier": "edge", "batch_min": 1, "batch_max": None, "primary_constraint": "cost",
           "secondary_constraint": "latency", "recommended_system": "s", "configuration": "c", "reason": "r"}
    return {**doc, **overrides}


@pytest.mark.parametrize(
    "doc, field, message",
    [
        ([_rule()], "rules", "must be a JSON object"),
        (_rule(surprise=1), "surprise", "unknown key 'surprise'"),
        ({k: v for k, v in _rule().items() if k != "reason"}, "reason", "missing required field 'reason'"),
        (_rule(batch_min=True), "batch_min", "must be an integer, got true"),
        (_rule(batch_min=1.0), "batch_min", "must be an integer, got 1.0"),
        (_rule(reason=None), "reason", "must be a string, got null"),
        (_rule(batch_max="8"), "batch_max", "must be an integer"),
    ],
)
def test_reader_names_the_offending_field(doc, field, message):
    with pytest.raises(ValidationError, match=message) as exc:
        record_from_json(DecisionRule, doc, "rules")
    assert exc.value.field == field


def test_reader_fills_defaults_keeps_null_optionals_and_makes_tuples():
    rule = record_from_json(DecisionRule, _rule(), "rules")
    assert rule.batch_max is None and rule.example_use_case == ""
    doc = json.loads((MODELS / "toy-4x2.json").read_text())
    desc = record_from_json(ModelDescriptor, {**doc, "params_expert_by_index": [1, 2, 3, 4]}, "document")
    assert desc.moe_layer_mask == (True, True) and desc.params_expert_by_index == (1, 2, 3, 4)


def test_reader_counts_no_boolean_as_a_number():
    doc = {"runtime_hours": 1, "energy_price_usd_per_kwh": 0.1, "token_throughput_tps": True}
    with pytest.raises(ValidationError, match="must be a number, got true") as exc:
        record_from_json(DeploymentEconomics, doc, "economics")
    assert exc.value.field == "token_throughput_tps"


@pytest.mark.parametrize("literal", ["1" + "0" * 400, "1" * 5000, "-" + "9" * 309])
def test_integers_beyond_a_double_are_rejected(tmp_path, literal):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"n": {literal}}}')
    with pytest.raises(ValidationError, match="overflows a double") as exc:
        load_json(path)
    assert exc.value.field == "document"
    path.write_text(f'{{"n": {"9" * 308}}}')
    assert load_json(path) == {"n": int("9" * 308)}


def _cost_inputs(**economics):
    bom = {"gpu_usd": 8000, "cpu_usd": 1000, "motherboard_usd": 500, "dram_usd": 300, "ssd_usd": 200}
    econ = {"runtime_hours": 8760, "energy_price_usd_per_kwh": 0.1, "token_throughput_tps": 1000}
    power = {"gpu_watts": 400, "cpu_watts": 100}
    return {"bill_of_materials": bom, "power_profile": power, "economics": {**econ, **economics}}


def _descriptor(**fields):
    return {**json.loads((MODELS / "toy-4x2.json").read_text()), **fields}


def _catalog(**fields):
    devices = json.loads(CATALOG.read_text())
    return [{**devices[0], **fields}, *devices[1:]]


def _twice(kind: str, doc, key: str, value, inside=lambda doc: doc):
    """A case whose document is the JSON text of ``doc`` with ``key`` given
    a second time, as ``value``, in the object ``inside(doc)``."""
    marker = "@duplicate"
    inside(doc)[marker] = value
    text = json.dumps(doc).replace(json.dumps(marker), json.dumps(key))
    return pytest.param(kind, text, key, id=f"{kind}-{key}-twice")


@pytest.mark.parametrize(
    "kind, doc, field",
    [
        ("model", _descriptor(moe_layer_mask=5), "moe_layer_mask"),
        ("model", _descriptor(moe_layer_mask=None), "moe_layer_mask"),
        ("model", _descriptor(params_expert_by_index=5), "params_expert_by_index"),
        ("model", _descriptor(name=[1]), "name"),
        ("catalog", _catalog(memory_gb="x"), "memory_gb"),
        ("catalog", _catalog(peak_flops_by_precision=[1]), "peak_flops_by_precision"),
        ("catalog", _catalog(name=[1]), "name"),
        ("cost", 5, "document"),
        ("cost", _cost_inputs(token_throughput_tps=True), "token_throughput_tps"),
        # a duplicate key would otherwise pass: the reader kept the last value
        _twice("model", _descriptor(), "n_expert", 8),
        _twice("catalog", _catalog(), "tdp_watts", 1.0, lambda doc: doc[0]),
        _twice("cost", _cost_inputs(), "runtime_hours", 1, lambda doc: doc["economics"]),
        _twice("radar", json.loads(RADAR.read_text()), "system_name", "other", lambda doc: doc[0]),
        _twice("rules", json.loads(RULES.read_text()), "reason", "other", lambda doc: doc[0]),
    ],
)
def test_malformed_document_exits_2_naming_its_field(tmp_path, capsys, kind, doc, field):
    from moemeter.cli import main

    path = tmp_path / f"{kind}.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "model": ["plan", "--model", path, "--catalog", CATALOG, "--output-dir", out],
        "catalog": ["plan", "--model", MODELS / "toy-4x2.json", "--catalog", path, "--output-dir", out],
        "cost": ["cost", "--inputs", path, "--output-dir", out],
        "radar": ["radar", "--records", path, "--output-dir", out],
        "rules": ["recommend", "--rules", path, "--tier", "edge", "--batch", 1, "--primary", "cost",
                  "--secondary", "accuracy", "--output-dir", out],
    }[kind]
    assert main([str(a) for a in argv]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "validation" and err["field"] == field
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("field", ["params_expert", "params_attn_layer"])
def test_counts_whose_sums_overflow_a_double_exit_2(tmp_path, capsys, field):
    from moemeter.cli import main

    path = tmp_path / "model.json"
    path.write_text(json.dumps(_descriptor(**{field: 10**308})))
    out = tmp_path / "out"
    assert main(["plan", "--model", str(path), "--catalog", str(CATALOG), "--output-dir", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == "report"
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"note": "x"}, "note"),
        ({"economics": None}, "economics"),
    ],
)
def test_cost_inputs_sections_are_exact(tmp_path, extra, field):
    from moemeter.costing import load_cost_inputs

    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({**_cost_inputs(), **extra}))
    with pytest.raises(ValidationError) as exc:
        load_cost_inputs(path)
    assert exc.value.field == field


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_renderers_refuse_non_finite_numbers(value):
    with pytest.raises(ValidationError) as info:
        json_text({"x": [1.0, value]}, "report.json")
    assert info.value.field == "report" and "report.json" in str(info.value)
    with pytest.raises(ValidationError) as info:
        csv_text(("name", "x"), [("a", 1.0), ("b", value)], "inputs z")
    assert info.value.field == "report" and "column x" in str(info.value)


_TOY = models.load_model_descriptor(MODELS / "toy-4x2.json")


def energy_cost_kwh(power: PowerProfile, runtime_hours: float) -> float:
    """The energy ``cost_report`` charges for ``power`` over ``runtime_hours``;
    ``DeploymentEconomics`` checks the runtime."""
    econ = DeploymentEconomics(runtime_hours, 0.1, 1.0)
    return costing.cost_report(BillOfMaterials(0, 0, 0, 0, 0), power, econ)["energy_kwh"]


# (function, the argument under test, the other arguments)
_NUMERIC_ARGUMENTS = [
    (metrics.s_mfu, "throughput_tokens_per_s", dict(desc=_TOY, seq_len=1, hw_peak_flops=1e15)),
    (metrics.vanilla_mfu, "throughput_tokens_per_s", dict(desc=_TOY, seq_len=1, hw_peak_flops=1e15)),
    (energy_cost_kwh, "runtime_hours", dict(power=PowerProfile(400, 100))),
    (DeploymentEconomics, "energy_price_usd_per_kwh", dict(runtime_hours=1.0, token_throughput_tps=1.0)),
    (DeploymentEconomics, "token_throughput_tps", dict(runtime_hours=1.0, energy_price_usd_per_kwh=0.1)),
    (models.kv_cache_bytes, "seq_len", dict(desc=_TOY, batch=1, prec=models.Precision(1.0))),
    (models.kv_cache_bytes, "batch", dict(desc=_TOY, seq_len=1, prec=models.Precision(1.0))),
    (models.sparse_flops_per_token, "seq_len", dict(desc=_TOY)),
    (models.dense_flops_per_token, "seq_len", dict(desc=_TOY)),
]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "function, name, others", _NUMERIC_ARGUMENTS, ids=[f"{f.__name__}-{name}" for f, name, _ in _NUMERIC_ARGUMENTS]
)
def test_public_functions_refuse_non_finite_arguments(function, name, others, value):
    with pytest.raises(ValidationError) as info:
        function(**others, **{name: value})
    assert info.value.field == name


def test_json_text_sorts_indents_and_ends_with_a_newline():
    assert json_text({"b": 0.1, "a": [1]}, "r.json") == '{\n  "a": [\n    1\n  ],\n  "b": 0.1\n}\n'


def test_csv_text_quotes_cells_and_writes_floats_by_repr():
    rows = [('vllm, fp8 "tuned"', 0.1, 3, ""), ("line\nbreak", 1e-300, 10**20, "a|b")]
    text = csv_text(("name", "x", "n", "devices"), rows, "inputs z")
    assert text.splitlines()[:3] == ["# inputs z", "name,x,n,devices", '"vllm, fp8 ""tuned""",0.1,3,']
    comment, header, *parsed = csv.reader(io.StringIO(text))
    assert parsed == [[str(cell) for cell in row] for row in rows]  # str(float) is its repr
    assert csv_text(("name",), [], None) == "name\n"
