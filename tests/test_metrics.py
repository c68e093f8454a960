from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moemeter.errors import ValidationError
from moemeter.metrics import (
    activated_bytes_for_pass,
    compute_metric_report,
    overestimation,
    report_to_csv,
    report_to_dict,
    s_mbu_aggregate,
    s_mbu_per_pass,
    s_mfu,
    vanilla_mbu,
    vanilla_mfu,
)
from moemeter.models import ModelDescriptor, Precision, total_param_bytes
from moemeter.trace import ActivationSheet, ForwardPassRecord, simulate_routing, RoutingDistribution

from conftest import make_desc

INT8 = Precision(1.0)


def one_pass_sheet(desc, activated, batch=1, latency=0.01, kv=0):
    rec = ForwardPassRecord(0, "decode", batch, batch, latency, kv, activated)
    return ActivationSheet(desc.name, [rec])


# ---------------------------------------------------------------------------
# Vanilla MBU
# ---------------------------------------------------------------------------

def test_vanilla_mbu_direct_substitution():
    # S_model = 100 GB, S_kv = 0, TPOT = 0.1 s, peak = 2000 GB/s -> 0.5
    desc = make_desc(
        params_embed=100 * 10**9,
        params_expert=0,
        params_attn_layer=0,
        params_router=0,
    )
    assert vanilla_mbu(desc, INT8, 2000e9, 0.1) == pytest.approx(0.5)


def test_vanilla_mbu_saturation_identity():
    desc = make_desc(params_embed=10**9, params_expert=0, params_attn_layer=0, params_router=0)
    tpot = total_param_bytes(desc, INT8) / 500e9
    assert vanilla_mbu(desc, INT8, 500e9, tpot) == pytest.approx(1.0, rel=1e-12)


def test_vanilla_mbu_input_validation(toy_desc):
    with pytest.raises(ValidationError):
        vanilla_mbu(toy_desc, INT8, 1e9, 0.0)
    with pytest.raises(ValidationError):
        vanilla_mbu(toy_desc, INT8, 0.0, 0.1)


# ---------------------------------------------------------------------------
# Routing-scenario ratios, exact rational arithmetic
# ---------------------------------------------------------------------------

def _ff_only_desc(n_expert, top_k, n_shared, expert_size):
    return make_desc(
        n_layer=1,
        moe_layer_mask=(True,),
        n_expert=n_expert,
        top_k=top_k,
        n_shared=n_shared,
        params_expert=expert_size,
        params_shared_expert=expert_size,
        params_router=0,
        params_attn_layer=0,
        params_embed=0,
        d_model=0,
    )


def test_three_expert_top1_ratio_exactly_3x():
    # Two tokens routed to the same expert in a 3-expert top-1 layer: the
    # routing-blind accounting reads 3S where only S was touched.
    S = 7_340_032
    desc = _ff_only_desc(3, 1, 0, S)
    sheet = one_pass_sheet(desc, {0: frozenset({1})}, batch=2)
    sparse = activated_bytes_for_pass(sheet.passes[0], desc, INT8)
    full = total_param_bytes(desc, INT8)
    assert Fraction(int(full), int(sparse)) == Fraction(3, 1)
    v = vanilla_mbu(desc, INT8, 1e12, 0.01)
    s = s_mbu_per_pass(sheet.passes[0], desc, INT8, 1e12)
    assert overestimation(v, s) == pytest.approx(3.0, rel=1e-12)


def test_shared_expert_ratio_exactly_1_5x():
    # One shared plus two routed experts of equal size, both tokens hitting
    # the same routed expert: the layer reads 2S of the 3S the vanilla
    # accounting charges.
    S = 5_242_880
    desc = _ff_only_desc(2, 1, 1, S)
    sheet = one_pass_sheet(desc, {0: frozenset({0})}, batch=2)
    sparse = activated_bytes_for_pass(sheet.passes[0], desc, INT8)
    full = total_param_bytes(desc, INT8)
    assert Fraction(int(full), int(sparse)) == Fraction(3, 2)


def test_full_activation_collapses_to_vanilla(toy_desc):
    sheet = one_pass_sheet(toy_desc, {0: frozenset(range(4)), 1: frozenset(range(4))}, batch=4)
    v = vanilla_mbu(toy_desc, Precision(2.0), 1e12, 0.01)
    s = s_mbu_per_pass(sheet.passes[0], toy_desc, Precision(2.0), 1e12)
    assert s == pytest.approx(v, rel=1e-15)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _bytes_desc():
    # 3 experts of 10 GB each at 1 byte/param; nothing else
    return make_desc(
        n_layer=1,
        moe_layer_mask=(True,),
        n_expert=3,
        top_k=1,
        params_expert=10 * 10**9,
        params_router=0,
        params_attn_layer=0,
        params_embed=0,
        d_model=0,
    )


def test_aggregate_equals_per_pass_for_identical_passes(toy_desc):
    rec = {0: frozenset({0, 1}), 1: frozenset({2, 3})}
    sheet = ActivationSheet(
        toy_desc.name,
        [
            ForwardPassRecord(0, "decode", 2, 2, 0.004, 0, rec),
            ForwardPassRecord(1, "decode", 2, 2, 0.004, 0, rec),
        ],
    )
    agg = s_mbu_aggregate(sheet, toy_desc, Precision(2.0), 1e12)
    per = s_mbu_per_pass(sheet.passes[0], toy_desc, Precision(2.0), 1e12)
    assert agg == pytest.approx(per, rel=1e-12)


def test_aggregate_hand_computed():
    # bytes (10, 30) GB, latencies (1, 1) s, peak 40 GB/s -> (40/2)/40 = 0.5
    desc = _bytes_desc()
    sheet = ActivationSheet(
        desc.name,
        [
            ForwardPassRecord(0, "decode", 1, 1, 1.0, 0, {0: frozenset({0})}),
            ForwardPassRecord(1, "decode", 3, 3, 1.0, 0, {0: frozenset({0, 1, 2})}),
        ],
    )
    assert s_mbu_aggregate(sheet, desc, INT8, 40e9) == pytest.approx(0.5, rel=1e-12)


def test_aggregate_is_latency_weighted_not_mean():
    # bytes (10, 30) GB, latencies (1, 2) s, peak 10 GB/s:
    # aggregate = (40/3)/10 != mean((10/1)/10, (30/2)/10) = 1.25
    desc = _bytes_desc()
    passes = [
        ForwardPassRecord(0, "decode", 1, 1, 1.0, 0, {0: frozenset({0})}),
        ForwardPassRecord(1, "decode", 3, 3, 2.0, 0, {0: frozenset({0, 1, 2})}),
    ]
    sheet = ActivationSheet(desc.name, passes)
    with pytest.warns(RuntimeWarning):
        agg = s_mbu_aggregate(sheet, desc, INT8, 10e9)
    assert agg == pytest.approx(40 / 3 / 10, rel=1e-12)
    with pytest.warns(RuntimeWarning):
        mean = (
            s_mbu_per_pass(passes[0], desc, INT8, 10e9)
            + s_mbu_per_pass(passes[1], desc, INT8, 10e9)
        ) / 2
    assert mean == pytest.approx(1.25, rel=1e-12)
    assert agg != pytest.approx(mean, rel=1e-3)


def test_aggregate_oracle_identity(toy_desc):
    sheet = simulate_routing(toy_desc, 3, RoutingDistribution.uniform(), 40, seed=2)
    peak = 123e9
    agg = s_mbu_aggregate(sheet, toy_desc, Precision(2.0), peak)
    total_bytes = sum(
        activated_bytes_for_pass(rec, toy_desc, Precision(2.0)) for rec in sheet.passes
    )
    total_latency = sum(rec.latency_s for rec in sheet.passes)
    assert agg * peak * total_latency == pytest.approx(total_bytes, rel=1e-9)


# ---------------------------------------------------------------------------
# S-MFU
# ---------------------------------------------------------------------------

def test_s_mfu_substitution():
    desc = make_desc(
        n_layer=1,
        moe_layer_mask=(True,),
        d_model=0,
        n_expert=3,
        top_k=2,
        n_shared=1,
        params_expert=10_000_000,
        params_shared_expert=10_000_000,
        params_router=1_000_000,
        params_attn_layer=500_000_000,
        params_embed=0,
    )
    assert s_mfu(100.0, desc, 1, 1e15) == pytest.approx(1.062e-4, rel=1e-12)


def test_s_mfu_linear_in_throughput(toy_desc):
    assert s_mfu(200.0, toy_desc, 1, 1e15) == pytest.approx(2 * s_mfu(100.0, toy_desc, 1, 1e15))


def test_mixtral_batch1_smfu_analytic(mixtral7b_desc, bundles_dir):
    import json

    bundle = json.loads((bundles_dir / "mixtral8x7b_smfu_inputs.json").read_text())
    value = s_mfu(
        bundle["throughput_tokens_per_s"],
        mixtral7b_desc,
        bundle["seq_len"],
        bundle["peak_flops"],
    )
    assert f"{value * 100:.2f}" == "0.06"


def test_overestimation_basic():
    assert overestimation(0.9, 0.3) == pytest.approx(3.0)
    assert overestimation(0.4, 0.4) == 1.0
    with pytest.raises(ValidationError):
        overestimation(0.5, 0.0)


def test_skewed_trace_overestimates_memory_well_past_2_6x(mixtral7b_desc):
    # every pass hits the same two experts: the routing-blind accounting
    # inflates memory by total/active, comfortably above 2.6x
    activated = {l: frozenset({0, 1}) for l in mixtral7b_desc.moe_layers}
    sheet = one_pass_sheet(mixtral7b_desc, activated, batch=1, latency=0.05)
    report = compute_metric_report(sheet, mixtral7b_desc, Precision(2.0), 2e12, 312e12)
    assert report.aggregate_overestimation_mbu > 2.6


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@st.composite
def sheet_and_desc(draw):
    n_layer = draw(st.integers(1, 4))
    mask = tuple(draw(st.lists(st.booleans(), min_size=n_layer, max_size=n_layer)))
    n_expert = draw(st.integers(1, 8))
    top_k = draw(st.integers(1, n_expert))
    desc = ModelDescriptor(
        name="hyp",
        n_layer=n_layer,
        moe_layer_mask=mask,
        d_model=draw(st.integers(0, 128)),
        n_heads=2,
        n_kv_heads=1,
        head_dim=8,
        n_expert=n_expert,
        top_k=top_k,
        n_shared=draw(st.integers(0, 2)),
        params_expert=draw(st.integers(1, 10**7)),
        params_shared_expert=draw(st.integers(0, 10**7)),
        params_router=draw(st.integers(0, 10**4)),
        params_attn_layer=draw(st.integers(0, 10**7)),
        params_dense_ffn=draw(st.integers(0, 10**7)),
        params_embed=draw(st.integers(0, 10**7)),
    )
    batch = draw(st.integers(1, 8))
    upper = min(n_expert, batch * top_k)
    lower = min(top_k, n_expert)
    activated = {}
    for layer in desc.moe_layers:
        size = draw(st.integers(lower, upper))
        idxs = draw(
            st.sets(st.integers(0, n_expert - 1), min_size=size, max_size=size)
        )
        activated[layer] = frozenset(idxs)
    latency = draw(st.floats(1e-4, 10.0, allow_nan=False, allow_infinity=False))
    rec = ForwardPassRecord(0, "decode", batch, batch, latency, 0, activated)
    return desc, ActivationSheet("hyp", [rec])


@given(sheet_and_desc())
@settings(max_examples=150, deadline=None)
def test_sandwich_property(pair):
    desc, sheet = pair
    rec = sheet.passes[0]
    peak = 1e12
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        s = s_mbu_per_pass(rec, desc, INT8, peak)
        v = vanilla_mbu(desc, INT8, peak, rec.latency_s)
        sm = s_mfu(10.0, desc, 1, 1e15)
        vm = vanilla_mfu(10.0, desc, 1, 1e15)
    assert s <= v + 1e-15 * v
    assert sm <= vm + 1e-15 * vm
    fully_activated = all(len(rec.activated[l]) == desc.n_expert for l in desc.moe_layers)
    if fully_activated:
        assert s == pytest.approx(v, rel=1e-12)


@given(st.floats(0.5, 4.0), st.integers(1, 100))
@settings(max_examples=50, deadline=None)
def test_unit_sanity_scale_invariance(scale, seed):
    # scaling peak bandwidth and achieved bytes/s by the same factor leaves
    # the utilization ratio unchanged
    desc = make_desc()
    rec = ForwardPassRecord(
        0, "decode", 2, 2, 0.01, 0, {0: frozenset({0, 1}), 1: frozenset({1, 2})}
    )
    base = s_mbu_per_pass(rec, desc, INT8, 1e12)
    scaled_rec = ForwardPassRecord(
        0, "decode", 2, 2, 0.01 / scale, 0, {0: frozenset({0, 1}), 1: frozenset({1, 2})}
    )
    assert s_mbu_per_pass(scaled_rec, desc, INT8, 1e12 * scale) == pytest.approx(base, rel=1e-12)


def test_values_above_one_warn_not_clamp(toy_desc):
    rec = ForwardPassRecord(0, "decode", 1, 1, 1e-9, 0, {0: frozenset({0, 1}), 1: frozenset({0, 1})})
    with pytest.warns(RuntimeWarning, match="exceeds 1.0"):
        value = s_mbu_per_pass(rec, toy_desc, INT8, 1.0)
    assert value > 1.0


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def test_dense_descriptor_report_ratios_exactly_one():
    desc = make_desc(n_expert=1, top_k=1, d_model=0)
    activated = {l: frozenset({0}) for l in desc.moe_layers}
    sheet = one_pass_sheet(desc, activated)
    report = compute_metric_report(sheet, desc, INT8, 1e12, 1e15)
    assert report.aggregate_overestimation_mbu == pytest.approx(1.0, rel=1e-12)
    assert report.aggregate_overestimation_mfu == pytest.approx(1.0, rel=1e-12)
    for p in report.passes:
        assert p.overestimation_mbu == pytest.approx(1.0, rel=1e-12)
        assert p.overestimation_mfu == pytest.approx(1.0, rel=1e-12)


def test_heterogeneous_expert_sizes_flagged_and_counted():
    desc = make_desc(
        n_expert=3,
        top_k=1,
        params_expert=100,
        params_expert_by_index=(100, 200, 700),
        params_router=0,
        params_attn_layer=0,
        params_embed=0,
        d_model=0,
        n_layer=1,
        moe_layer_mask=(True,),
    )
    assert desc.heterogeneous_experts
    rec = ForwardPassRecord(0, "decode", 2, 2, 0.01, 0, {0: frozenset({0, 2})})
    assert activated_bytes_for_pass(rec, desc, INT8) == 800.0
    report = compute_metric_report(ActivationSheet(desc.name, [rec]), desc, INT8, 1e12, 1e15)
    assert report.heterogeneous_experts


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["hw_peak_bandwidth", "hw_peak_flops"])
def test_report_rejects_nonpositive_or_nonfinite_peaks(toy_desc, traces_dir, field, bad):
    from moemeter.trace import load_activation_sheet

    sheet = load_activation_sheet(traces_dir / "sample_decode.trace", toy_desc)
    peaks = {"hw_peak_bandwidth": 1e12, "hw_peak_flops": 1e15, field: bad}
    with pytest.raises(ValidationError) as info:
        compute_metric_report(sheet, toy_desc, INT8, **peaks)
    assert info.value.field == field


def test_kv_fallback_formula_opt_in(toy_desc):
    rec = ForwardPassRecord(0, "decode", 2, 2, 0.01, 0, {0: frozenset({0, 1}), 1: frozenset({1, 2})})
    without = s_mbu_per_pass(rec, toy_desc, INT8, 1e12)
    with_kv = s_mbu_per_pass(rec, toy_desc, INT8, 1e12, kv_seq_len=128)
    from moemeter.models import kv_cache_bytes

    expected_kv = kv_cache_bytes(toy_desc, 128, 2, INT8)
    assert with_kv - without == pytest.approx(expected_kv / 0.01 / 1e12, rel=1e-9)
    # recorded KV wins over the fallback
    rec_kv = ForwardPassRecord(0, "decode", 2, 2, 0.01, 4096, {0: frozenset({0, 1}), 1: frozenset({1, 2})})
    assert s_mbu_per_pass(rec_kv, toy_desc, INT8, 1e12, kv_seq_len=128) == pytest.approx(
        without + 4096 / 0.01 / 1e12, rel=1e-9
    )


def test_aggregate_mixes_prefill_and_decode(toy_desc):
    sets = {0: frozenset({0, 1}), 1: frozenset({2, 3})}
    passes = [
        ForwardPassRecord(0, "decode", 2, 2, 0.004, 0, sets),
        ForwardPassRecord(1, "prefill", 2, 256, 0.050, 0, sets),
    ]
    sheet = ActivationSheet(toy_desc.name, passes)
    agg = s_mbu_aggregate(sheet, toy_desc, Precision(2.0), 1e12)
    per_bytes = activated_bytes_for_pass(passes[0], toy_desc, Precision(2.0))
    assert agg == pytest.approx(2 * per_bytes / 0.054 / 1e12, rel=1e-12)


def test_report_serializers(toy_desc):
    sheet = simulate_routing(toy_desc, 2, RoutingDistribution.uniform(), 3, seed=1)
    report = compute_metric_report(sheet, toy_desc, Precision(2.0), 1e12, 1e15)
    doc = report_to_dict(report)
    assert doc["model_name"] == "toy-4x2"
    assert len(doc["passes"]) == 3
    csv_text = report_to_csv(report, header_comment="inputs test")
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].startswith("row,")
    assert len(lines) == 2 + 3 + 1  # comment + header + passes + aggregate
    assert lines[-1].startswith("aggregate")
