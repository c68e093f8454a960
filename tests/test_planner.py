from __future__ import annotations

import itertools
import math

import pytest

from moemeter.catalog import load_catalog
from moemeter.errors import ValidationError
from moemeter.models import (
    Precision,
    active_param_bytes_analytic,
    load_model_descriptor,
    total_param_bytes,
    without_embedding,
)
from moemeter.planner import (
    FIG2_MODES,
    DeploymentRequirement,
    SloSpec,
    bandwidth_power_map,
    batch_sweep,
    feasibility,
    plan_requirement,
    sweep_to_csv,
    theoretical_bandwidth_gbps,
)
from moemeter.routing import RoutingDistribution, simulate_routing
from moemeter.trace import ActivationSheet, ForwardPassRecord, load_activation_sheet

from conftest import REPO_ROOT, make_desc, rebuild

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
    # expert 40 of a 4-expert model, caught by validate_sheet at the library entry point
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


# sample_decode.trace on toy-4x2 at 1 byte/param: the passes activate 5, 4
# and 7 routed experts of 1e6 parameters, over 8.02e6 always-read ones, and
# record 0, 4096 and 8192 KV bytes.
SAMPLE_ACT_BYTES = (10.02e6, 9.02e6, 12.02e6)


@pytest.mark.parametrize(
    "recorded, kv_flag, charged",
    [
        (True, 0.0, (0, 4096, 8192)),
        # the flag fills in only where no KV was recorded: 0.10357763 GB/s, where
        # charging it on top of every pass's KV gave 0.10358429 GB/s
        (True, 1000.0, (1000, 4096, 8192)),
        (False, 0.0, (0, 0, 0)),
        (False, 1000.0, (1000, 1000, 1000)),
    ],
)
def test_trace_mode_kv_rule(toy_desc, traces_dir, recorded, kv_flag, charged):
    sheet = load_activation_sheet(traces_dir / "sample_decode.trace")
    if not recorded:
        sheet = ActivationSheet(sheet.model_name, [rebuild(rec, kv_bytes_read=0) for rec in sheet.passes])
    req = plan_requirement(toy_desc, INT8, SLO, "trace", kv_bytes=kv_flag, sheet=sheet)
    step = sum(a + kv for a, kv in zip(SAMPLE_ACT_BYTES, charged)) / 3
    assert req.theoretical_bandwidth_gbps == pytest.approx(step / 0.1 / 1e9, rel=1e-12)
    assert req.theoretical_bandwidth_gbps == theoretical_bandwidth_gbps(
        toy_desc, INT8, SLO, "trace", kv_bytes=kv_flag, sheet=sheet
    )
    assert req.kv_bytes == pytest.approx(sum(charged) / 3, rel=1e-12)


def _rename(sheet):
    return ActivationSheet("other-model", sheet.passes)


def _zero_expert_layer(sheet):
    return ActivationSheet(sheet.model_name, [rebuild(sheet.passes[0], bitmaps={0: 0, 1: 0b11})])


def _prefill_only(sheet):
    return ActivationSheet(sheet.model_name, [rebuild(sheet.passes[0], phase="prefill")])


@pytest.mark.parametrize(
    "corrupt, field",
    [(_rename, "model_name"), (_zero_expert_layer, "activated"), (_prefill_only, "sheet")],
)
def test_trace_mode_rejects_invalid_sheet(toy_desc, traces_dir, corrupt, field):
    sheet = corrupt(load_activation_sheet(traces_dir / "sample_decode.trace"))
    with pytest.raises(ValidationError) as info:
        plan_requirement(toy_desc, INT8, SLO, "trace", sheet=sheet)
    assert info.value.field == field


def test_trace_mode_averages_decode_passes_only(toy_desc, traces_dir):
    sheet = load_activation_sheet(traces_dir / "sample_decode.trace")
    prefill = ForwardPassRecord(9, "prefill", 4, 64, 0.05, 1 << 20, {0: 0b1111, 1: 0b1111})
    mixed = ActivationSheet(sheet.model_name, [sheet.passes[0], prefill, *sheet.passes[1:]])
    expected = plan_requirement(toy_desc, INT8, SLO, "trace", sheet=sheet, include_ops=True)
    assert plan_requirement(toy_desc, INT8, SLO, "trace", sheet=mixed, include_ops=True) == expected


def test_trace_mode_ops_use_mean_tokens_per_decode_pass(toy_desc, traces_dir):
    from moemeter.models import sparse_flops_per_token

    sheet = load_activation_sheet(traces_dir / "sample_decode.trace")
    req = plan_requirement(toy_desc, INT8, SLO, "trace", sheet=sheet, include_ops=True, efficiency_mfu=0.5)
    # the passes decode 2, 1 and 4 tokens; batch 1 would give 160,405,120 FLOP/s
    assert sparse_flops_per_token(toy_desc, 1) / SLO.tpot_s == 160_405_120.0
    assert req.theoretical_ops == pytest.approx(160_405_120.0 * 7 / 3, rel=1e-12)
    assert req.practical_ops == pytest.approx(2 * req.theoretical_ops, rel=1e-12)


# ---------------------------------------------------------------------------
# Practical requirements
# ---------------------------------------------------------------------------

def test_practical_bandwidth_headline_values(r1_desc):
    batch1 = plan_requirement(r1_desc, INT8, SLO, "batch1_analytic", efficiency_mbu=0.3558)
    assert batch1.practical_bandwidth_gbps == pytest.approx(1040.0, rel=0.01)
    full = plan_requirement(r1_desc, INT8, SLO, "full_activation", efficiency_mbu=0.3558)
    assert full.practical_bandwidth_gbps == pytest.approx(18_901.0, rel=0.01)


def test_practical_bandwidth_half_efficiency_doubles(toy_desc):
    req = plan_requirement(toy_desc, INT8, SLO, "batch1_analytic", efficiency_mbu=0.5)
    assert req.practical_bandwidth_gbps == 2 * req.theoretical_bandwidth_gbps


def test_practical_ops_arithmetic(toy_desc):
    half = plan_requirement(toy_desc, INT8, SLO, "batch1_analytic", include_ops=True, efficiency_mfu=0.5)
    assert half.practical_ops == 2 * half.theoretical_ops
    whole = plan_requirement(toy_desc, INT8, SLO, "batch1_analytic", include_ops=True, efficiency_mfu=1.0)
    assert whole.practical_ops == whole.theoretical_ops


def test_practical_ops_from_sparse_flops(toy_desc):
    from moemeter.models import sparse_flops_per_token

    req = plan_requirement(
        toy_desc, INT8, SLO, "batch1_analytic", include_ops=True, efficiency_mfu=0.25
    )
    theoretical = sparse_flops_per_token(toy_desc, 1) / SLO.tpot_s
    assert req.theoretical_ops == pytest.approx(theoretical, rel=1e-12)
    assert req.practical_ops == pytest.approx(4 * theoretical, rel=1e-12)


def test_efficiency_domain_errors(toy_desc):
    # each is refused at entry, naming the argument, with or without OPS:
    # expected mode lacks its batch and distribution, which it would name later
    for plan, field in [
        (dict(efficiency_mbu=0.0), "efficiency_mbu"),
        (dict(efficiency_mbu=1.2), "efficiency_mbu"),
        (dict(efficiency_mbu=math.nan), "efficiency_mbu"),
        (dict(efficiency_mfu=-0.1), "efficiency_mfu"),
        (dict(efficiency_mfu=-0.1, include_ops=True), "efficiency_mfu"),
    ]:
        with pytest.raises(ValidationError, match="must be in \\(0, 1\\]") as info:
            plan_requirement(toy_desc, INT8, SLO, "expected", **plan)
        assert info.value.field == field


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
    
    scaled_catalog = [
        rebuild(
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
    analytic = plan_requirement(toy_desc, INT8, SLO, "batch1_analytic", efficiency_mbu=0.5)
    assert points[0].practical_bandwidth_gbps == pytest.approx(analytic.practical_bandwidth_gbps, rel=1e-12)


def test_sweep_monotone_and_bounded(r1_desc):
    points = batch_sweep(
        r1_desc, RoutingDistribution.uniform(), [1, 2, 4, 8, 16, 64, 1024], SLO, INT8
    )
    bws = [p.practical_bandwidth_gbps for p in points]
    assert bws == sorted(bws)
    lo = plan_requirement(r1_desc, INT8, SLO, "batch1_analytic", efficiency_mbu=0.3558).practical_bandwidth_gbps
    hi = plan_requirement(r1_desc, INT8, SLO, "full_activation", efficiency_mbu=0.3558).practical_bandwidth_gbps
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


def test_zipf_sweep_runs_the_quadrature_once(r1_desc, monkeypatch):
    import moemeter.routing as routing

    dist = RoutingDistribution.zipf(1.1)
    batches = [1, 2, 4, 8, 16, 32, 64]
    uncached = []
    for batch in batches:
        routing._inclusion_probs.cache_clear()
        uncached.append(routing.expected_distinct_experts(r1_desc.n_expert, r1_desc.top_k, batch, dist).value)

    quadrature = routing._topk_inclusion_probs
    calls = []

    def counted(p, k):
        calls.append(k)
        return quadrature(p, k)

    monkeypatch.setattr(routing, "_topk_inclusion_probs", counted)
    routing._inclusion_probs.cache_clear()
    try:
        points = batch_sweep(r1_desc, dist, batches, SLO, INT8)
        r = routing._inclusion_probs(r1_desc.n_expert, r1_desc.top_k, dist)
    finally:
        routing._inclusion_probs.cache_clear()
    assert calls == [r1_desc.top_k]
    assert [p.expected_distinct_per_layer for p in points] == uncached
    with pytest.raises(ValueError, match="read-only"):
        r[0] = 0.0


@pytest.mark.parametrize("dist", [RoutingDistribution.uniform(), RoutingDistribution.zipf(1.1)])
def test_sweep_points_are_the_expected_mode_plan(shipped_catalog, dist):
    desc = load_model_descriptor(REPO_ROOT / "models" / "mixtral-8x7b.json")
    prec, slo = Precision(0.5), SloSpec(0.02)
    plan = dict(efficiency_mbu=0.5, kv_bytes=5e8, include_ops=True, efficiency_mfu=0.2, seq_len=4096)
    batches = [1, 8, 64]
    points = batch_sweep(desc, dist, batches, slo, prec, catalog=shipped_catalog, margin=0.1, **plan)
    assert [p.batch for p in points] == batches
    for point in points:
        req = plan_requirement(desc, prec, slo, "expected", batch=point.batch, dist=dist, **plan)
        assert point.theoretical_bandwidth_gbps == req.theoretical_bandwidth_gbps
        assert point.practical_bandwidth_gbps == req.practical_bandwidth_gbps
        verdicts = feasibility(req, shipped_catalog, margin=0.1)
        assert point.feasible_devices == tuple(v.name for v in verdicts if v.satisfied)
    # at batch 64 the OPS requirement leaves out a device whose bandwidth suffices
    assert any(v.bandwidth_ok and not v.satisfied for v in verdicts)


def test_sweep_requires_sorted_batches(toy_desc):
    with pytest.raises(ValidationError, match="sorted"):
        batch_sweep(toy_desc, RoutingDistribution.uniform(), [4, 2], SLO, INT8)


def _brute_force_routed_params(sizes, probs, top_k, batch):
    """Expected routed parameters of one MoE layer: the sizes of the experts a
    batch activates, summed over every batch of ordered top-k draws."""
    draws = []
    for seq in itertools.permutations(range(len(probs)), top_k):
        prob, left = 1.0, 1.0
        for i in seq:
            prob *= probs[i] / left
            left -= probs[i]
        draws.append((prob, set(seq)))
    total = 0.0
    for batch_draws in itertools.product(draws, repeat=batch):
        hit = set().union(*(chosen for _, chosen in batch_draws))
        total += math.prod(prob for prob, _ in batch_draws) * sum(sizes[i] for i in hit)
    return total


def test_expected_mode_supports_heterogeneous_experts():
    sizes = (100, 2_000, 30_000, 400_000, 5_000_000)
    desc = make_desc(
        n_layer=3, moe_layer_mask=(False, True, True), n_expert=5, top_k=2, params_expert_by_index=sizes,
        n_shared=1, params_shared_expert=7_000, params_dense_ffn=50_000,
    )
    dists = (
        RoutingDistribution.uniform(),
        RoutingDistribution.zipf(1.1),
        RoutingDistribution.empirical([0.5, 0.1, 0.25, 0.05, 0.1]),
    )
    for dist in dists:
        for batch in (1, 2, 3):
            routed = _brute_force_routed_params(sizes, dist.probabilities(5).tolist(), 2, batch)
            for include_embed in (True, False):
                always_read = 3 * desc.params_attn_layer + 50_000 + 2 * (desc.params_router + 7_000)
                embed = desc.params_embed if include_embed else 0
                expected_bytes = (embed + always_read + 2 * routed) * INT8.bytes_per_param
                view = desc if include_embed else without_embedding(desc)
                req = plan_requirement(view, INT8, SLO, "expected", batch=batch, dist=dist)
                assert req.theoretical_bandwidth_gbps * SLO.tpot_s * 1e9 == pytest.approx(expected_bytes, rel=1e-12)
                [point] = batch_sweep(view, dist, [batch], SLO, INT8)
                assert point.theoretical_bandwidth_gbps == req.theoretical_bandwidth_gbps
                total = embed + always_read + 2 * sum(sizes)
                assert point.expected_activated_fraction == pytest.approx(expected_bytes / total, rel=1e-12)


def test_indexed_sizes_of_one_value_set_the_routed_size():
    # params_expert is only nominal once params_expert_by_index is given
    desc = make_desc(params_expert_by_index=(5,) * 4, params_expert=7)
    ref = make_desc(params_expert=5)
    for mode in ("batch1_analytic", "full_activation", "expected"):
        kwargs = dict(batch=3, dist=RoutingDistribution.zipf(1.1), include_ops=True)
        assert plan_requirement(desc, INT8, SLO, mode, **kwargs) == plan_requirement(ref, INT8, SLO, mode, **kwargs)


@pytest.mark.parametrize("include_embed", [True, False])
def test_sweep_fraction_is_one_when_every_expert_is_read(toy_desc, include_embed):
    desc = toy_desc if include_embed else without_embedding(toy_desc)
    [point] = batch_sweep(desc, RoutingDistribution.uniform(), [64], SLO, INT8)
    assert point.expected_distinct_per_layer == toy_desc.n_expert
    assert point.expected_activated_fraction == 1.0


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
    lines = [plan_requirement(r1_desc, INT8, SLO, mode) for mode in FIG2_MODES]
    doc = bandwidth_power_map(lines, shipped_catalog)
    assert doc["model"] == "deepseek-r1"
    modes = {line["activation_mode"] for line in doc["requirement_lines"]}
    assert modes == {"batch1_analytic", "full_activation"}
    assert len(doc["devices"]) == len(shipped_catalog)
    assert doc["assumptions"]["efficiency_mbu"] == pytest.approx(0.3558)
    # the map states the flag as the bool it was read as
    assert doc["assumptions"]["include_embed"] is True
    for flag, want in ((0, False), (None, False), ("yes", True)):
        assert bandwidth_power_map(lines, shipped_catalog, include_embed=flag)["assumptions"]["include_embed"] is want
    for dev in doc["devices"]:
        assert {"name", "tdp_watts", "peak_bandwidth_gbps"} <= set(dev)


@pytest.mark.parametrize(
    "model, bpp, tpot_s, efficiency",
    [("toy", 1.0, 0.1, None), ("r1", 2.0, 0.1, None), ("r1", 1.0, 0.05, None), ("r1", 1.0, 0.1, 0.5)],
    ids=["model", "precision", "target", "efficiency"],
)
def test_bandwidth_power_map_rejects_lines_of_different_plans(
    r1_desc, toy_desc, shipped_catalog, model, bpp, tpot_s, efficiency
):
    first = plan_requirement(r1_desc, INT8, SLO, "batch1_analytic")
    desc = toy_desc if model == "toy" else r1_desc
    plan = {} if efficiency is None else dict(efficiency_mbu=efficiency)
    other = plan_requirement(desc, Precision(bpp), SloSpec(tpot_s), "full_activation", **plan)
    for lines in ([first, other], []):
        with pytest.raises(ValidationError, match="share one model") as exc:
            bandwidth_power_map(lines, shipped_catalog)
        assert exc.value.field == "requirement_lines"


@pytest.mark.parametrize("kv_bytes", [0.0, 1.5e6])
@pytest.mark.parametrize("bpp", [0.5, 2.0])
def test_trace_mode_charges_the_decode_mean_of_pass_bytes(view_case, bpp, kv_bytes):
    from moemeter.models import pass_bytes

    desc, sheet = view_case
    prec = Precision(bpp)
    req = plan_requirement(desc, prec, SLO, "trace", kv_bytes=kv_bytes, sheet=sheet)
    kv = [pass_bytes(rec, desc, prec, kv_bytes=kv_bytes)[1] for rec in sheet.passes if rec.phase == "decode"]
    assert req.kv_bytes == sum(kv) / len(kv)
