from __future__ import annotations

import pytest

from moemeter.catalog import (
    HardwareSpec,
    get_device,
    load_catalog,
    serialize_catalog,
)
from moemeter.cap import load_cap_records, load_decision_rules
from moemeter.costing import load_cost_inputs
from moemeter.errors import ValidationError
from moemeter.models import load_model_descriptor
from moemeter.planner import DeploymentRequirement, feasibility


@pytest.fixture(scope="module")
def shipped(catalog_path):
    return load_catalog(catalog_path)


# conftest fixtures are function-scoped via session; re-expose for module scope
@pytest.fixture(scope="module")
def catalog_path():
    from conftest import REPO_ROOT

    return REPO_ROOT / "catalog" / "default.json"


def test_shipped_catalog_carries_quoted_tdps(shipped):
    dgx = get_device(shipped, "DGX-H100")
    assert dgx.tdp_watts == 10_200.0
    assert dgx.device_class == "datacenter"
    assert dgx.aggregate
    rtx = get_device(shipped, "RTX-4090")
    assert rtx.tdp_watts == 450.0
    assert rtx.device_class == "workstation"


def test_every_entry_has_source_note(shipped):
    assert all(s.source_note for s in shipped)


def test_duplicate_names_rejected(shipped):
    doc = [
        {"name": "OrinNX", "device_class": "edge", "peak_bandwidth_gbps": 100, "tdp_watts": 25, "price_usd": 700},
        {"name": "OrinNX", "device_class": "edge", "peak_bandwidth_gbps": 100, "tdp_watts": 25, "price_usd": 700},
    ]
    with pytest.raises(ValidationError, match="duplicate"):
        load_catalog(doc)


def test_negative_field_rejected():
    with pytest.raises(ValidationError, match="tdp_watts"):
        HardwareSpec(name="x", device_class="edge", peak_bandwidth_gbps=10, tdp_watts=-1, price_usd=0)


def test_offload_cannot_exceed_peak():
    with pytest.raises(ValidationError, match="offload"):
        HardwareSpec(
            name="x",
            device_class="edge",
            peak_bandwidth_gbps=10,
            tdp_watts=10,
            price_usd=0,
            offload_bandwidth_gbps=20,
        )


def test_pipe_in_device_name_rejected():
    # the batch sweep CSV joins feasible device names with '|'
    with pytest.raises(ValidationError) as info:
        HardwareSpec(name="H100|SXM", device_class="datacenter", peak_bandwidth_gbps=1, tdp_watts=1, price_usd=1)
    assert info.value.field == "name"


def test_unknown_class_rejected():
    with pytest.raises(ValidationError, match="device_class"):
        HardwareSpec(name="x", device_class="mainframe", peak_bandwidth_gbps=1, tdp_watts=1, price_usd=1)


def _requirement(bandwidth_gbps: float) -> DeploymentRequirement:
    return DeploymentRequirement(
        model_name="toy",
        activation_mode="batch1_analytic",
        tpot_s=0.1,
        bytes_per_param=1.0,
        kv_bytes=0.0,
        theoretical_bandwidth_gbps=bandwidth_gbps,
        practical_bandwidth_gbps=bandwidth_gbps,
        efficiency_mbu=1.0,
    )


def test_filter_absurd_bandwidth_empty(shipped):
    verdicts = feasibility(_requirement(1e30), shipped)
    assert sorted(v.name for v in verdicts) == sorted(s.name for s in shipped)
    assert not any(v.satisfied or v.bandwidth_ok for v in verdicts)


def test_filter_low_power_returns_only_edge_classes(shipped):
    under_60w = [s for s in shipped if s.tdp_watts <= 60.0]
    assert {s.device_class for s in under_60w} == {"edge"}
    assert {s.name for s in under_60w} == {"Orin-AGX", "Orin-NX"}


def test_filters_return_subsets_in_stable_order(shipped):
    # a wider margin admits a superset of devices, and the verdicts keep
    # one per device in (TDP, price) order whatever the margin
    previous: set[str] = set()
    for margin in (0.0, 0.05, 0.5, 0.9):
        verdicts = feasibility(_requirement(1000.0), shipped, margin=margin)
        assert [(v.tdp_watts, v.price_usd) for v in verdicts] == sorted((s.tdp_watts, s.price_usd) for s in shipped)
        passing = {v.name for v in verdicts if v.satisfied}
        assert previous <= passing
        previous = passing
    assert previous == {s.name for s in shipped}


def test_catalog_roundtrip_byte_stable(catalog_path):
    raw = catalog_path.read_text(encoding="utf-8")
    specs = load_catalog(catalog_path)
    assert serialize_catalog(specs) == raw


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1,"])
@pytest.mark.parametrize(
    "loader", [load_catalog, load_model_descriptor, load_cost_inputs, load_cap_records, load_decision_rules]
)
def test_loaders_reject_non_finite_or_malformed_json(tmp_path, loader, literal):
    path = tmp_path / "doc.json"
    path.write_text(f'[{{"peak_bandwidth_gbps": {literal}}}]')
    with pytest.raises(ValidationError, match="doc.json") as exc:
        loader(path)
    assert exc.value.field == "document"


@pytest.mark.parametrize("field", ["peak_bandwidth_gbps", "tdp_watts", "price_usd"])
def test_spec_rejects_non_finite_figures(field):
    doc = dict(name="x", device_class="edge", peak_bandwidth_gbps=100.0, tdp_watts=10.0, price_usd=1.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite") as exc:
            HardwareSpec(**{**doc, field: value})
        assert exc.value.field == field
