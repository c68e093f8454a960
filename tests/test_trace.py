from __future__ import annotations

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moemeter.errors import ValidationError
from moemeter.trace import (
    ActivationSheet,
    ForwardPassRecord,
    RoutingDistribution,
    activated_fraction,
    expected_distinct_experts,
    load_activation_sheet,
    parse_activation_sheet,
    serialize_activation_sheet,
    simulate_routing,
    validate_sheet,
    _mc_distinct_counts,
    _parse_dist_spec,
    _topk_inclusion_probs,
)

from conftest import make_desc


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def test_parse_single_pass_roundtrip():
    desc = make_desc(n_expert=8, top_k=1)
    text = "model=test-model\n0,decode,2,2,0.01,0,0:08;1:28\n"
    sheet = parse_activation_sheet(text, desc)
    assert sheet.model_name == "test-model"
    rec = sheet.passes[0]
    assert rec.activated[0] == frozenset({3})
    assert rec.activated[1] == frozenset({3, 5})
    assert len(rec.activated[0]) == 1
    assert serialize_activation_sheet(sheet, desc) == text


def test_parse_rejects_out_of_range_expert():
    desc = make_desc(n_expert=256, top_k=1, n_layer=1, moe_layer_mask=(True,))
    # bit 300 set: value 1 << 300
    bitmap = format(1 << 300, "x")
    text = f"model=test-model\n7,decode,1,1,0.01,0,0:{bitmap}\n"
    with pytest.raises(ValidationError, match="pass 7"):
        parse_activation_sheet(text, desc)


def test_shipped_sample_roundtrips_byte_for_byte(traces_dir, toy_desc):
    raw = (traces_dir / "sample_decode.trace").read_text(encoding="utf-8")
    sheet = parse_activation_sheet(raw, toy_desc)
    assert serialize_activation_sheet(sheet, toy_desc) == raw


def test_commented_trace_parses_to_same_sheet(traces_dir, toy_desc):
    canonical = load_activation_sheet(traces_dir / "sample_decode.trace", toy_desc)
    commented = load_activation_sheet(traces_dir / "sample_with_comments.trace", toy_desc)
    assert serialize_activation_sheet(commented, toy_desc) == serialize_activation_sheet(
        canonical, toy_desc
    )


def test_parse_malformed_line_names_line():
    with pytest.raises(ValidationError, match="line 2"):
        parse_activation_sheet("model=m\n0,decode,not-a-number,1,0.01,0,0:1\n")


def test_parse_nonpositive_latency_rejected():
    with pytest.raises(ValidationError, match="latency"):
        parse_activation_sheet("model=m\n0,decode,1,1,0.0,0,0:1\n")


def test_parse_missing_header():
    with pytest.raises(ValidationError, match="model"):
        parse_activation_sheet("0,decode,1,1,0.01,0,0:1\n")


@st.composite
def sheets(draw):
    desc = make_desc(n_expert=8, top_k=2)
    passes = []
    for pass_id in range(draw(st.integers(1, 5))):
        batch = draw(st.integers(1, 6))
        upper = min(8, batch * 2)
        activated = {}
        for layer in (0, 1):
            size = draw(st.integers(2, upper))
            activated[layer] = frozenset(
                draw(st.sets(st.integers(0, 7), min_size=size, max_size=size))
            )
        passes.append(
            ForwardPassRecord(
                pass_id,
                "decode",
                batch,
                batch,
                draw(st.floats(1e-6, 100.0, allow_nan=False)),
                draw(st.integers(0, 10**9)),
                activated,
            )
        )
    return desc, ActivationSheet("test-model", passes)


@given(sheets())
@settings(max_examples=100, deadline=None)
def test_serialize_parse_roundtrip_property(pair):
    desc, sheet = pair
    text = serialize_activation_sheet(sheet, desc)
    reparsed = parse_activation_sheet(text, desc)
    assert serialize_activation_sheet(reparsed, desc) == text
    for a, b in zip(sheet.passes, reparsed.passes):
        assert a.activated == b.activated
        assert a.latency_s == b.latency_s
        assert a.kv_bytes_read == b.kv_bytes_read


@pytest.mark.parametrize("idxs", [{-1}, {0.5}, {"1"}, -4, True])
def test_record_rejects_bad_expert_indices(idxs):
    with pytest.raises(ValidationError) as info:
        ForwardPassRecord(0, "decode", 1, 1, 0.01, 0, {0: idxs})
    assert info.value.field == "activated"


def test_record_packs_index_sets_into_bitmaps():
    rec = ForwardPassRecord(0, "decode", 2, 2, 0.01, 0, {0: [3, 0, 3], 1: 0b101, 2: range(70, 72)})
    assert rec.bitmaps == {0: 0b1001, 1: 0b101, 2: 3 << 70}
    assert rec.activated == {0: {0, 3}, 1: {0, 2}, 2: {70, 71}}


# SHA-256 of `moemeter simulate` output, computed before activations were
# stored as bitmaps: the representation must not change a single byte.
@pytest.mark.parametrize(
    "model, args, digest",
    [
        ("deepseek-r1", ["--batch", "64", "--dist", "zipf:1.1", "--passes", "3", "--seed", "11"],
         "1372391bdbe63f5db2c2c6b9cbc141c0e64dd6994c8a6499f11d55319577b20e"),
        ("mixtral-8x7b", ["--batch", "3", "--dist", "uniform", "--passes", "20", "--seed", "5"],
         "b95f8429c4628eff9f6c35db525daf61338a5e9596300ecb32e3de8f9ce5a02a"),
        ("toy-4x2", ["--batch", "1", "--dist", "uniform", "--passes", "50", "--seed", "0"],
         "7007ec1c870b56034b447e53fde92f1b3e00f7563393dca0da02033edfea5879"),
        ("deepseek-v2-lite", ["--batch", "2", "--dist", "zipf:0.8", "--passes", "4", "--seed", "7",
                              "--phase", "prefill", "--tokens-per-pass", "48"],
         "920b188acc56362e3cc0032101458b3ce8021775aae9513dd1cbe17138302180"),
        ("qwen1_5-moe-a2_7b", ["--batch", "5", "--dist", "empirical:0.5," + ",".join([repr(0.5 / 59)] * 59),
                               "--passes", "3", "--seed", "2"],
         "905f438a9cfb6e442208622b08cbb283e7c9fa634b36daffab5ec5105cc9ab31"),
    ],
)
def test_simulate_output_is_pinned_and_round_trips(tmp_path, models_dir, model, args, digest):
    from moemeter.cli import main
    from moemeter.models import load_model_descriptor

    out = tmp_path / "sim.trace"
    assert main(["simulate", "--model", str(models_dir / f"{model}.json"), *args, "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == digest
    desc = load_model_descriptor(models_dir / f"{model}.json")
    assert serialize_activation_sheet(parse_activation_sheet(raw.decode(), desc), desc).encode() == raw


def test_decode_tokens_must_equal_batch():
    with pytest.raises(ValidationError, match="tokens_processed"):
        ForwardPassRecord(0, "decode", 2, 3, 0.01, 0, {0: frozenset({0})})


def test_prefill_tokens_at_least_batch():
    rec = ForwardPassRecord(0, "prefill", 2, 10, 0.01, 0, {0: frozenset({0, 1})})
    assert rec.tokens_processed == 10
    with pytest.raises(ValidationError, match="tokens_processed"):
        ForwardPassRecord(0, "prefill", 4, 3, 0.01, 0, {0: frozenset({0})})


def test_validate_sheet_cardinality_bounds():
    desc = make_desc(n_expert=8, top_k=2, n_layer=1, moe_layer_mask=(True,))
    # fewer than one token requires
    low = ActivationSheet("test-model", [ForwardPassRecord(0, "decode", 1, 1, 0.01, 0, {0: frozenset({1})})])
    with pytest.raises(ValidationError, match="fewer"):
        validate_sheet(low, desc)
    # more than batch*top_k allows for decode
    high = ActivationSheet(
        "test-model", [ForwardPassRecord(0, "decode", 1, 1, 0.01, 0, {0: frozenset({0, 1, 2})})]
    )
    with pytest.raises(ValidationError, match="more"):
        validate_sheet(high, desc)


def test_validate_sheet_requires_all_moe_layers():
    desc = make_desc()
    sheet = ActivationSheet(
        "test-model", [ForwardPassRecord(0, "decode", 1, 1, 0.01, 0, {0: frozenset({0, 1})})]
    )
    with pytest.raises(ValidationError, match="MoE layers"):
        validate_sheet(sheet, desc)


def test_validate_sheet_model_mismatch(toy_desc):
    sheet = ActivationSheet(
        "other-model", [ForwardPassRecord(0, "decode", 1, 1, 0.01, 0, {0: frozenset({0, 1}), 1: frozenset({0, 1})})]
    )
    with pytest.raises(ValidationError, match="other-model"):
        validate_sheet(sheet, toy_desc)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_simulate_batch1_activates_exactly_top_k(toy_desc):
    sheet = simulate_routing(toy_desc, 1, RoutingDistribution.uniform(), 50, seed=3)
    for rec in sheet.passes:
        for idxs in rec.activated.values():
            assert len(idxs) == toy_desc.top_k


def test_simulate_deterministic(toy_desc):
    a = simulate_routing(toy_desc, 4, RoutingDistribution.zipf(1.1), 20, seed=42)
    b = simulate_routing(toy_desc, 4, RoutingDistribution.zipf(1.1), 20, seed=42)
    assert serialize_activation_sheet(a, toy_desc) == serialize_activation_sheet(b, toy_desc)


def test_simulate_pass_prefix_independent_of_n_passes(toy_desc):
    # per-pass seeds come from a splittable scheme, so pass i is the same
    # whatever the total pass count (parallelism independence)
    short = simulate_routing(toy_desc, 2, RoutingDistribution.uniform(), 3, seed=7)
    long = simulate_routing(toy_desc, 2, RoutingDistribution.uniform(), 6, seed=7)
    for i in range(3):
        assert short.passes[i].activated == long.passes[i].activated


def test_simulate_degenerate_empirical(toy_desc):
    dist = RoutingDistribution.empirical([0.5, 0.5, 0.0, 0.0])
    sheet = simulate_routing(toy_desc, 8, dist, 20, seed=5)
    for rec in sheet.passes:
        for idxs in rec.activated.values():
            assert idxs == frozenset({0, 1})


def test_simulate_respects_cardinality_bounds(toy_desc):
    for batch in (1, 2, 5):
        sheet = simulate_routing(toy_desc, batch, RoutingDistribution.uniform(), 30, seed=9)
        lower = min(toy_desc.top_k, toy_desc.n_expert)
        upper = min(toy_desc.n_expert, batch * toy_desc.top_k)
        for rec in sheet.passes:
            for idxs in rec.activated.values():
                assert lower <= len(idxs) <= upper


def test_simulate_nesting_monotonicity(toy_desc):
    uni = RoutingDistribution.uniform()
    b2 = simulate_routing(toy_desc, 2, uni, 10, seed=11)
    b4 = simulate_routing(toy_desc, 4, uni, 10, seed=11)
    b8 = simulate_routing(toy_desc, 8, uni, 10, seed=11)
    for p2, p4, p8 in zip(b2.passes, b4.passes, b8.passes):
        for layer in p2.activated:
            assert p2.activated[layer] <= p4.activated[layer] <= p8.activated[layer]


def test_simulate_uniform_mean_matches_closed_form():
    desc = make_desc(n_layer=1, moe_layer_mask=(True,), n_expert=64, top_k=8)
    sheet = simulate_routing(desc, 8, RoutingDistribution.uniform(), 10_000, seed=0)
    counts = np.array([len(rec.activated[0]) for rec in sheet.passes])
    closed = 64 * (1 - (1 - 8 / 64) ** 8)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - closed) <= 3 * se


def test_simulate_insufficient_support_rejected(toy_desc):
    dist = RoutingDistribution.empirical([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match="positive weight"):
        simulate_routing(toy_desc, 2, dist, 5, seed=1)


def test_empirical_wrong_length_rejected(toy_desc):
    dist = RoutingDistribution.empirical([0.5, 0.5])
    with pytest.raises(ValidationError, match="length"):
        simulate_routing(toy_desc, 2, dist, 5, seed=1)


@pytest.mark.filterwarnings("error")
def test_zipf_weights_underflow_to_zero_without_overflow_warning():
    p = RoutingDistribution.zipf(200.0).probabilities(256)
    # 35**200 is the first rank power above the float range
    finite = 1.0 / np.arange(1, 35, dtype=float) ** 200.0
    assert np.array_equal(p[:34], finite / finite.sum())
    assert not p[34:].any()
    assert expected_distinct_experts(256, 8, 4, RoutingDistribution.zipf(200.0)).value >= 8


def test_dist_spec_parsing():
    assert _parse_dist_spec("uniform").kind == "uniform"
    assert _parse_dist_spec("zipf:1.5").zipf_s == 1.5
    assert _parse_dist_spec("empirical:0.25,0.25,0.25,0.25").weights == (0.25,) * 4
    with pytest.raises(ValidationError):
        _parse_dist_spec("gaussian")
    for bad in ("zipf:abc", "zipf:", "zipf:1,2", "empirical:0.5,x"):
        with pytest.raises(ValidationError) as exc:
            _parse_dist_spec(bad)
        assert exc.value.field == "dist"


def test_empirical_weights_must_sum_to_one():
    with pytest.raises(ValidationError, match="sum to 1"):
        RoutingDistribution.empirical([0.5, 0.4])


# ---------------------------------------------------------------------------
# Expected distinct experts
# ---------------------------------------------------------------------------

def test_expected_uniform_batch1_exact():
    out = expected_distinct_experts(8, 2, 1, RoutingDistribution.uniform())
    assert out.value == 2.0
    assert out.method == "closed_form"


def test_expected_uniform_closed_form():
    out = expected_distinct_experts(8, 2, 4, RoutingDistribution.uniform())
    assert out.value == pytest.approx(8 * (1 - 0.75**4))
    assert out.value == pytest.approx(5.46875)


def test_expected_full_support_limit():
    uni = expected_distinct_experts(8, 2, 10_000, RoutingDistribution.uniform())
    assert uni.value == pytest.approx(8.0, abs=1e-9)
    emp = expected_distinct_experts(
        8, 2, 10_000, RoutingDistribution.empirical([0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    )
    assert emp.value == pytest.approx(8.0, abs=1e-6)


def _brute_force_inclusion(p, k):
    """r_i as the total probability of the ordered top-k draws containing i,
    summing every sequence of k distinct experts; the mass left at each
    draw is summed afresh, so tiny weights are never lost to cancellation."""
    terms = [[] for _ in p]
    for seq in itertools.permutations(range(len(p)), k):
        prob = 1.0
        for n, i in enumerate(seq):
            prob *= p[i] / math.fsum(p[j] for j in range(len(p)) if j not in seq[:n])
        for i in seq:
            terms[i].append(prob)
    return [math.fsum(t) for t in terms]


_ORACLE_WEIGHTS = [
    (1 / np.arange(1, 9) ** 1.1).tolist(),  # mixtral-8x7b geometry at zipf:1.1
    [0.4, 0.3, 0.2, 0.1, 1e-100, 0.0, 0.0],
    [0.5, 0.25, 0.25, 0.0, 0.0],
    [0.05, 0.3, 0.0, 0.15, 0.2, 0.1, 0.12, 0.08],
    [1 / 6] * 6,
]


@pytest.mark.parametrize("weights", _ORACLE_WEIGHTS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadrature_matches_brute_force_oracle(weights, k):
    dist = RoutingDistribution.empirical(np.asarray(weights) / sum(weights))
    p = dist.probabilities(len(weights))
    want = _brute_force_inclusion(p.tolist(), k)
    got = _topk_inclusion_probs(p, k)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0.0)
    for batch in range(1, 65):
        truth = math.fsum(1.0 if r == 1 else -math.expm1(batch * math.log1p(-r)) for r in want)
        out = expected_distinct_experts(len(weights), k, batch, dist)
        assert out.method == "quadrature"
        assert out.value == pytest.approx(truth, rel=1e-12)


@pytest.mark.parametrize("n_expert, k", [(256, 8), (64, 6)])
def test_quadrature_sum_rule_at_model_scale(n_expert, k):
    r = _topk_inclusion_probs(RoutingDistribution.zipf(1.1).probabilities(n_expert), k)
    assert abs(r.sum() - k) <= 1e-12 * k


def test_quadrature_spans_subnormal_weights_without_overflow():
    # a grid reaching 1/p_min ~ 1e320 would overflow if p*t were formed directly
    p = np.array([0.5, 0.5 - 1e-320, 1e-320, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = _topk_inclusion_probs(p, 2)
        out = expected_distinct_experts(4, 2, 3, RoutingDistribution.empirical(p))
    assert r[:2] == pytest.approx([1.0, 1.0], rel=1e-14)
    assert 0 < r[2] < 1e-318 and r[3] == 0
    assert out.value == pytest.approx(2.0, rel=1e-14)


def test_expected_rejects_fewer_positive_weights_than_top_k():
    one_hot = RoutingDistribution.empirical([1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValidationError, match="positive weight"):
        expected_distinct_experts(8, 2, 2, one_hot)
    for s in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="zipf"):
            RoutingDistribution.zipf(s)


def test_enumeration_matches_closed_form_on_uniform_weights():
    # empirical with equal weights must agree with the uniform closed form
    dist = RoutingDistribution.empirical([1 / 8] * 8)
    enum = expected_distinct_experts(8, 3, 5, dist)
    closed = 8 * (1 - (1 - 3 / 8) ** 5)
    assert enum.method == "quadrature"
    assert enum.value == pytest.approx(closed, rel=1e-12)


def test_enumeration_exclusion_probs_sum_rule():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    for k in (1, 2, 3):
        q = 1 - _topk_inclusion_probs(p, k)
        assert np.sum(1 - q) == pytest.approx(k, rel=1e-12)
        assert np.all((0 <= q) & (q <= 1))


def test_expected_quadrature_agrees_with_monte_carlo():
    dist = RoutingDistribution.zipf(1.0)
    out = expected_distinct_experts(64, 4, 8, dist)
    assert out.method == "quadrature"
    counts = _mc_distinct_counts(dist.probabilities(64), 4, 8, 20_000, seed=1)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - out.value) <= 3 * se


def test_expected_cross_check_against_simulator():
    # the closed form agrees with the production simulator at 3 standard errors
    desc = make_desc(n_layer=1, moe_layer_mask=(True,), n_expert=8, top_k=2)
    sheet = simulate_routing(desc, 4, RoutingDistribution.uniform(), 30_000, seed=17)
    counts = np.array([len(rec.activated[0]) for rec in sheet.passes])
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 5.46875) <= 3 * se


# ---------------------------------------------------------------------------
# Activated fraction
# ---------------------------------------------------------------------------

def test_fraction_all_activated_is_one(toy_desc):
    rec = ForwardPassRecord(
        0, "decode", 4, 4, 0.01, 0, {0: frozenset(range(4)), 1: frozenset(range(4))}
    )
    report = activated_fraction(ActivationSheet("toy-4x2", [rec]), toy_desc)
    assert report.mean == 1.0
    assert report.mean_expert_only == 1.0


def test_fraction_hand_computed():
    # 2 layers, attn 10 units, 3 experts of 5 units, no shared, no embed:
    # activated {0,1} and {1} -> (2*10 + 3*5) / (2*10 + 6*5) = 0.7
    desc = make_desc(
        n_expert=3,
        top_k=1,
        params_expert=5,
        params_attn_layer=10,
        params_router=0,
        params_embed=0,
        d_model=0,
    )
    rec = ForwardPassRecord(0, "decode", 2, 2, 0.01, 0, {0: frozenset({0, 1}), 1: frozenset({1})})
    report = activated_fraction(ActivationSheet("test-model", [rec]), desc)
    assert report.per_pass[0] == pytest.approx(0.7, rel=1e-12)
    assert report.per_pass_expert_only[0] == pytest.approx(15 / 30, rel=1e-12)


def test_fraction_batch1_deepseek_r1(r1_desc):
    sheet = simulate_routing(r1_desc, 1, RoutingDistribution.uniform(), 1, seed=0)
    report = activated_fraction(sheet, r1_desc)
    assert report.mean == pytest.approx(0.055, abs=0.002)
    from moemeter.models import active_params_analytic, total_params

    assert report.mean == pytest.approx(active_params_analytic(r1_desc) / total_params(r1_desc), rel=1e-12)


def test_fraction_nondecreasing_for_nested_batches(r1_desc, toy_desc):
    uni = RoutingDistribution.uniform()
    means = []
    for batch in (1, 2, 4, 8):
        sheet = simulate_routing(toy_desc, batch, uni, 25, seed=123)
        means.append(activated_fraction(sheet, toy_desc).mean)
    assert all(b >= a for a, b in zip(means, means[1:]))
