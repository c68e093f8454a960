from __future__ import annotations

import pytest

from moemeter.catalog import load_catalog
from moemeter.errors import ValidationError
from moemeter.models import Precision, active_param_bytes_analytic, total_param_bytes
from moemeter.planner import (
    DeploymentRequirement,
    SloSpec,
    bandwidth_power_map,
    batch_sweep,
    feasibility,
    plan_requirement,
    practical_bandwidth,
    practical_ops,
    sweep_to_csv,
    theoretical_bandwidth_gbps,
)
from moemeter.trace import ActivationSheet, ForwardPassRecord, RoutingDistribution, simulate_routing

from conftest import REPO_ROOT, make_desc

INT8 = Precision(1.0)
SLO = SloSpec(0.1)


@pytest.fixture(scope="module")
def shipped_catalog():
    return load_catalog(REPO_ROOT / "catalog" / "default.json")


# ---------------------------------------------------------------------------
# Theoretical bandwidth
# ---------------------------------------------------------------------------

def test_theoretical_batch1_deepseek_r1(r1_desc):
    value = theoretical_bandwidth_gbps(r1_desc, INT8, SLO, "batch1_analytic")
    assert value == pytest.approx(370.0, rel=0.01)
    assert value == pytest.approx(active_param_bytes_analytic(r1_desc, INT8) / 0.1 / 1e9, rel=1e-12)


def test_theoretical_full_activation_deepseek_r1(r1_desc):
    value = theoretical_bandwidth_gbps(r1_desc, INT8, SLO, "full_activation")
    assert value == pytest.approx(6710.0, rel=0.05)
    assert value == pytest.approx(total_param_bytes(r1_desc, INT8) / 0.1 / 1e9, rel=1e-12)


def test_slo_inverse_proportionality(r1_desc):
    base = theoretical_bandwidth_gbps(r1_desc, INT8, SloSpec(0.1), "batch1_analytic")
    doubled = theoretical_bandwidth_gbps(r1_desc, INT8, SloSpec(0.2), "batch1_analytic")
    assert doubled == pytest.approx(base / 2, rel=1e-12)
    # requirement * tpot is independent of tpot
    assert base * 0.1 == pytest.approx(doubled * 0.2, rel=1e-12)


def test_trace_mode_requires_sheet(toy_desc):
    with pytest.raises(ValidationError, match="sheet"):
        theoretical_bandwidth_gbps(toy_desc, INT8, SLO, "trace")


def test_trace_mode_rejects_expert_beyond_model(toy_desc):
    # expert 40 of a 4-expert model; planner trace mode does not run validate_sheet
    rec = ForwardPassRecord(0, "decode", 2, 2, 0.01, 0, {0: 0b11 | 1 << 40, 1: 0b11})
    with pytest.raises(ValidationError) as info:
        theoretical_bandwidth_gbps(toy_desc, INT8, SLO, "trace", sheet=ActivationSheet("toy-4x2", [rec]))
    assert info.value.field == "activated"


def test_expected_mode_requires_batch_and_dist(toy_desc):
    with pytest.raises(ValidationError, match="batch"):
        theoretical_bandwidth_gbps(toy_desc, INT8, SLO, "expected")


def test_trace_mode_mean_bytes(toy_desc):
    sheet = simulate_routing(toy_desc, 2, RoutingDistribution.uniform(), 10, seed=4)
    value = theoretical_bandwidth_gbps(toy_desc, INT8, SLO, "trace", sheet=sheet)
    from moemeter.metrics import activated_bytes_for_pass

    mean_bytes = sum(activated_bytes_for_pass(r, toy_desc, INT8) for r in sheet.passes) / len(
        sheet.passes
    )
    assert value == pytest.approx(mean_bytes / 0.1 / 1e9, rel=1e-12)


# ---------------------------------------------------------------------------
# Practical requirements
# ---------------------------------------------------------------------------

def test_practical_bandwidth_headline_values(r1_desc):
    batch1 = practical_bandwidth(
        theoretical_bandwidth_gbps(r1_desc, INT8, SLO, "batch1_analytic"), 0.3558
    )
    assert batch1 == pytest.approx(1040.0, rel=0.01)
    full = practical_bandwidth(
        theoretical_bandwidth_gbps(r1_desc, INT8, SLO, "full_activation"), 0.3558
    )
    assert full == pytest.approx(18_901.0, rel=0.01)


def test_practical_bandwidth_half_efficiency_doubles():
    assert practical_bandwidth(400.0, 0.5) == 800.0


def test_practical_ops_arithmetic():
    assert practical_ops(1e12, 0.5) == 2e12
    assert practical_ops(3.3e13, 1.0) == 3.3e13


def test_practical_ops_from_sparse_flops(toy_desc):
    from moemeter.models import sparse_flops_per_token

    req = plan_requirement(
        toy_desc, INT8, SLO, "batch1_analytic", include_ops=True, efficiency_mfu=0.25
    )
    theoretical = sparse_flops_per_token(toy_desc, 1) / SLO.tpot_s
    assert req.theoretical_ops == pytest.approx(theoretical, rel=1e-12)
    assert req.practical_ops == pytest.approx(4 * theoretical, rel=1e-12)


def test_efficiency_domain_errors():
    with pytest.raises(ValidationError):
        practical_bandwidth(100.0, 0.0)
    with pytest.raises(ValidationError):
        practical_bandwidth(100.0, 1.2)
    with pytest.raises(ValidationError):
        practical_ops(100.0, -0.1)


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

def test_full_activation_needs_aggregated_datacenter(r1_desc, shipped_catalog):
    req = plan_requirement(r1_desc, INT8, SLO, "full_activation", efficiency_mbu=0.3558)
    verdicts = feasibility(req, shipped_catalog)
    passing = [v.name for v in verdicts if v.satisfied]
    assert passing == ["DGX-H100"]


def test_batch1_feasible_on_consumer_gpu_with_small_margin(r1_desc, shipped_catalog):
    req = plan_requirement(r1_desc, INT8, SLO, "batch1_analytic", efficiency_mbu=0.3558)
    strict = {v.name for v in feasibility(req, shipped_catalog) if v.satisfied}
    # the consumer card's 1008 GB/s datasheet bandwidth sits ~3% under the
    # 1040 GB/s requirement; a documented 5% margin admits it
    assert "RTX-4090" not in strict
    assert strict == {"A100-PCIe-80G", "H20", "H100-SXM", "DGX-H100"}
    relaxed = {v.name for v in feasibility(req, shipped_catalog, margin=0.05) if v.satisfied}
    assert "RTX-4090" in relaxed


def test_zero_requirement_passes_everywhere(toy_desc, shipped_catalog):
    req = DeploymentRequirement(
        model_name="toy",
        activation_mode="batch1_analytic",
        tpot_s=0.1,
        bytes_per_param=1.0,
        kv_bytes=0.0,
        theoretical_bandwidth_gbps=0.0,
        practical_bandwidth_gbps=0.0,
        efficiency_mbu=1.0,
    )
    verdicts = feasibility(req, shipped_catalog)
    assert all(v.satisfied for v in verdicts)
    tdps = [v.tdp_watts for v in verdicts]
    assert tdps == sorted(tdps)


def test_offload_verdicts_use_offload_bandwidth(shipped_catalog, toy_desc):
    req = DeploymentRequirement(
        model_name="toy",
        activation_mode="batch1_analytic",
        tpot_s=0.1,
        bytes_per_param=1.0,
        kv_bytes=0.0,
        theoretical_bandwidth_gbps=50.0,
        practical_bandwidth_gbps=50.0,
        efficiency_mbu=1.0,
    )
    verdicts = {v.name: v for v in feasibility(req, shipped_catalog, use_offload=True)}
    rtx = verdicts["RTX-4090"]
    assert rtx.used_offload and rtx.bandwidth_gbps == 32.0 and not rtx.satisfied
    m3 = verdicts["Apple-M3-Max"]  # no offload entry: falls back to peak
    assert not m3.used_offload and m3.satisfied


def test_scale_invariance_of_verdicts(shipped_catalog):
    req = DeploymentRequirement(
        model_name="toy",
        activation_mode="batch1_analytic",
        tpot_s=0.1,
        bytes_per_param=1.0,
        kv_bytes=0.0,
        theoretical_bandwidth_gbps=500.0,
        practical_bandwidth_gbps=500.0,
        efficiency_mbu=1.0,
    )
    c = 7.5
    scaled_req = DeploymentRequirement(
        model_name="toy",
        activation_mode="batch1_analytic",
        tpot_s=0.1,
        bytes_per_param=1.0,
        kv_bytes=0.0,
        theoretical_bandwidth_gbps=500.0 * c,
        practical_bandwidth_gbps=500.0 * c,
        efficiency_mbu=1.0,
    )
    from dataclasses import replace

    scaled_catalog = [
        replace(
            s,
            peak_bandwidth_gbps=s.peak_bandwidth_gbps * c,
            offload_bandwidth_gbps=None
            if s.offload_bandwidth_gbps is None
            else s.offload_bandwidth_gbps * c,
        )
        for s in shipped_catalog
    ]
    base = {v.name: v.satisfied for v in feasibility(req, shipped_catalog)}
    scaled = {v.name: v.satisfied for v in feasibility(scaled_req, scaled_catalog)}
    assert base == scaled


def test_empty_catalog_rejected(toy_desc):
    req = plan_requirement(toy_desc, INT8, SLO, "batch1_analytic")
    with pytest.raises(ValidationError, match="catalog"):
        feasibility(req, [])


# ---------------------------------------------------------------------------
# Batch sweep
# ---------------------------------------------------------------------------

def test_sweep_batch1_matches_analytic(toy_desc):
    points = batch_sweep(toy_desc, RoutingDistribution.uniform(), [1], SLO, INT8, efficiency_mbu=0.5)
    analytic = practical_bandwidth(
        theoretical_bandwidth_gbps(toy_desc, INT8, SLO, "batch1_analytic"), 0.5
    )
    assert points[0].practical_bandwidth_gbps == pytest.approx(analytic, rel=1e-12)


def test_sweep_monotone_and_bounded(r1_desc):
    points = batch_sweep(
        r1_desc, RoutingDistribution.uniform(), [1, 2, 4, 8, 16, 64, 1024], SLO, INT8
    )
    bws = [p.practical_bandwidth_gbps for p in points]
    assert bws == sorted(bws)
    lo = practical_bandwidth(theoretical_bandwidth_gbps(r1_desc, INT8, SLO, "batch1_analytic"), 0.3558)
    hi = practical_bandwidth(theoretical_bandwidth_gbps(r1_desc, INT8, SLO, "full_activation"), 0.3558)
    assert all(lo - 1e-9 <= b <= hi + 1e-9 for b in bws)


def test_sweep_large_batch_approaches_full_activation(toy_desc):
    points = batch_sweep(toy_desc, RoutingDistribution.uniform(), [4096], SLO, INT8, efficiency_mbu=1.0)
    full = theoretical_bandwidth_gbps(toy_desc, INT8, SLO, "full_activation")
    assert points[0].practical_bandwidth_gbps == pytest.approx(full, rel=1e-9)


def test_sweep_fraction_closed_form_routed_only():
    # all bytes in routed experts: fraction at batch 8 for E=64, k=8 is
    # exactly 1 - (1 - 1/8)^8
    desc = make_desc(
        n_layer=1,
        moe_layer_mask=(True,),
        n_expert=64,
        top_k=8,
        params_expert=10**6,
        params_router=0,
        params_attn_layer=0,
        params_embed=0,
        d_model=0,
    )
    points = batch_sweep(desc, RoutingDistribution.uniform(), [8], SLO, INT8)
    expected = 1 - (1 - 8 / 64) ** 8
    assert points[0].expected_activated_fraction == pytest.approx(expected, rel=1e-12)
    assert points[0].expected_activated_fraction == pytest.approx(0.6564, abs=5e-5)


def test_sweep_csv_rows_round_trip(r1_desc, shipped_catalog):
    points = batch_sweep(r1_desc, RoutingDistribution.zipf(1.1), [1, 4], SLO, INT8, catalog=shipped_catalog)
    lines = sweep_to_csv(points, header_comment="inputs x").splitlines()
    assert lines[:2] == [
        "# inputs x",
        "batch,expected_distinct_per_layer,expected_activated_fraction,theoretical_gbps,practical_gbps,feasible_devices",
    ]
    for line, p in zip(lines[2:], points, strict=True):
        batch, distinct, fraction, theoretical, practical, devices = line.split(",")
        assert int(batch) == p.batch
        assert float(distinct) == p.expected_distinct_per_layer
        assert float(fraction) == p.expected_activated_fraction
        assert (float(theoretical), float(practical)) == (p.theoretical_bandwidth_gbps, p.practical_bandwidth_gbps)
        assert devices == "|".join(p.feasible_devices)
    assert sweep_to_csv(points).splitlines() == lines[1:]


def test_sweep_requires_sorted_batches(toy_desc):
    with pytest.raises(ValidationError, match="sorted"):
        batch_sweep(toy_desc, RoutingDistribution.uniform(), [4, 2], SLO, INT8)


def test_expected_mode_rejects_heterogeneous_experts():
    desc = make_desc(params_expert_by_index=(1, 2, 3, 4))
    with pytest.raises(ValidationError, match="uniform"):
        theoretical_bandwidth_gbps(
            desc, INT8, SLO, "expected", batch=2, dist=RoutingDistribution.uniform()
        )


def test_sweep_feasible_devices_with_catalog(toy_desc, shipped_catalog):
    points = batch_sweep(
        toy_desc,
        RoutingDistribution.uniform(),
        [1, 4],
        SLO,
        INT8,
        efficiency_mbu=1.0,
        catalog=shipped_catalog,
    )
    # toy model is tiny: every device passes
    assert all(len(p.feasible_devices) == len(shipped_catalog) for p in points)


# ---------------------------------------------------------------------------
# Bandwidth-vs-power map
# ---------------------------------------------------------------------------

def test_bandwidth_power_map_shape(r1_desc, shipped_catalog):
    doc = bandwidth_power_map(r1_desc, INT8, SLO, shipped_catalog)
    assert doc["model"] == "deepseek-r1"
    modes = {line["activation_mode"] for line in doc["requirement_lines"]}
    assert modes == {"batch1_analytic", "full_activation"}
    assert len(doc["devices"]) == len(shipped_catalog)
    assert doc["assumptions"]["efficiency_mbu"] == pytest.approx(0.3558)
    for dev in doc["devices"]:
        assert {"name", "tdp_watts", "peak_bandwidth_gbps"} <= set(dev)
