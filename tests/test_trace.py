from __future__ import annotations

import hashlib
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moemeter.errors import ValidationError
from moemeter.metrics import activated_fraction
from moemeter.routing import (
    RoutingDistribution,
    expected_distinct_experts,
    simulate_routing,
    _parse_dist_spec,
    _race_block,
    _route_pass,
    _topk_inclusion_probs,
)
from moemeter.trace import (
    ActivationSheet,
    ForwardPassRecord,
    load_activation_sheet,
    parse_activation_sheet,
    serialize_activation_sheet,
    validate_sheet,
)

from conftest import make_desc
from mc_reference import _mc_distinct_counts


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


@pytest.mark.parametrize(
    "activations, message",
    [
        ("0:3;0:3", "duplicate layer 0"),
        ("0:3;0:zz", "duplicate layer 0"),  # entries are checked in order, layer before bitmap
        ("0:3;1", "malformed layer entry '1'"),
        ("0:3;", "malformed layer entry ''"),
        ("0:3;x:3", "malformed layer index 'x'"),
        ("0:3;-1:3", "malformed layer index '-1'"),
        ("0:3; 1:3", "malformed layer index ' 1'"),
        ("\u0660:3;1:3", "malformed layer index '\u0660'"),
        ("0:3;1:0x3", "malformed bitmap '0x3'"),
        ("0:3;1:3:3", "malformed bitmap '3:3'"),
    ],
)
def test_parse_names_the_first_faulty_activation_entry(activations, message):
    with pytest.raises(ValidationError, match=f"pass 0: {message}") as exc:
        parse_activation_sheet(f"model=m\n0,decode,2,2,0.01,0,{activations}\n")
    assert exc.value.field == "activated"


def test_trace_forwards_the_names_that_moved_to_routing():
    import moemeter.routing as routing
    import moemeter.trace as trace

    for name in ("RoutingDistribution", "simulate_routing", "expected_distinct_experts", "_batch_hit_probs",
                 "_parse_dist_spec"):
        assert getattr(trace, name) is getattr(routing, name)
    # dunder probes are not forwarded: ``from .trace import X`` looks up __path__
    with pytest.raises(AttributeError):
        trace.__path__  # noqa: B018
    with pytest.raises(AttributeError, match="no_such_name"):
        trace.no_such_name  # noqa: B018


def test_parse_nonpositive_latency_rejected():
    with pytest.raises(ValidationError, match="latency"):
        parse_activation_sheet("model=m\n0,decode,1,1,0.0,0,0:1\n")


@pytest.mark.parametrize("latency", ["nan", "inf"])
def test_parse_non_finite_latency_rejected(latency):
    with pytest.raises(ValidationError, match="latency") as exc:
        parse_activation_sheet(f"model=m\n0,decode,1,1,{latency},0,0:3\n")
    assert exc.value.field == "latency_s"


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


@pytest.mark.parametrize("kv", [-1, 2**1024, 10**400], ids=["negative", "2**1024", "10**400"])
def test_record_rejects_a_kv_count_that_is_negative_or_beyond_a_double(kv):
    with pytest.raises(ValidationError) as info:
        ForwardPassRecord(0, "decode", 1, 1, 0.01, kv, {0: 1})
    assert info.value.field == "kv_bytes_read"


def test_record_accepts_the_largest_double_as_a_kv_count():
    kv = int(sys.float_info.max)
    assert ForwardPassRecord(0, "decode", 1, 1, 0.01, kv, {0: 1}).kv_bytes_read == kv


def test_record_packs_index_sets_into_bitmaps():
    rec = ForwardPassRecord(0, "decode", 2, 2, 0.01, 0, {0: [3, 0, 3], 1: 0b101, 2: range(70, 72)})
    assert rec.bitmaps == {0: 0b1001, 1: 0b101, 2: 3 << 70}
    assert rec.activated == {0: {0, 3}, 1: {0, 2}, 2: {70, 71}}


def test_serialization_builds_the_text_once(r1_desc):
    import tracemalloc

    sheet = simulate_routing(r1_desc, 1, RoutingDistribution.zipf(1.1), 400, seed=3)
    tracemalloc.start()
    try:
        text = serialize_activation_sheet(sheet, r1_desc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the lines and their join are two copies; appending the last newline
    # to the joined text would be a third
    assert peak < 2.5 * len(text)


# SHA-256 of `moemeter simulate` output. The first five were computed before
# activations were stored as bitmaps, the multi-block r1 prefill before
# routing was drawn as an exponential race: neither may change a single byte.
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
        ("deepseek-r1", ["--batch", "4", "--dist", "zipf:1.1", "--passes", "2", "--seed", "11",
                         "--phase", "prefill", "--tokens-per-pass", "300"],
         "598150af9544635d55ef5b1161f1c06342aca2dc2b0aa9c04b43ec49818fb1eb"),
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


def _gumbel_topk_oracle(desc, dist, n_passes, seed, tokens):
    """The simulator's original loop body: one Gumbel draw per pass, top-k
    of log p + G by argpartition, one bitmap per MoE layer."""
    p = dist.probabilities(desc.n_expert)
    with np.errstate(divide="ignore"):
        log_p = np.where(p > 0, np.log(p), -np.inf)
    n_layers, n, k = len(desc.moe_layers), desc.n_expert, desc.top_k
    out = []
    for ss in np.random.SeedSequence(seed).spawn(n_passes):
        keys = log_p + np.random.default_rng(ss).gumbel(size=(tokens, n_layers, n))
        hit = np.full((n_layers, n), k == n)
        if k < n:
            hit[np.arange(n_layers)[:, None], np.argpartition(-keys, k - 1, axis=-1)[..., :k]] = True
        out.append({layer: sum(1 << int(i) for i in np.flatnonzero(row)) for layer, row in zip(desc.moe_layers, hit)})
    return out


@pytest.mark.parametrize(
    "model, batch, dist, tokens",
    [
        ("deepseek-r1", 2, "zipf:1.1", 300),  # prefill over many token blocks
        ("deepseek-r1", 16, "zipf:200", 16),  # zero tail weights
        ("mixtral-8x7b", 5, "uniform", 5),
        ("mixtral-8x22b", 3, "zipf:0.5", 40),
    ],
)
def test_simulate_matches_gumbel_topk_oracle(models_dir, model, batch, dist, tokens):
    from moemeter.models import load_model_descriptor

    desc = load_model_descriptor(models_dir / f"{model}.json")
    phase = "decode" if tokens == batch else "prefill"
    d = _parse_dist_spec(dist)
    sheet = simulate_routing(desc, batch, d, 3, seed=29, phase=phase, tokens_per_pass=tokens)
    assert [rec.bitmaps for rec in sheet.passes] == _gumbel_topk_oracle(desc, d, 3, 29, tokens)


def test_simulate_top_k_equal_to_n_expert_matches_oracle():
    desc = make_desc(n_expert=4, top_k=4)
    sheet = simulate_routing(desc, 3, RoutingDistribution.zipf(1.0), 4, seed=1)
    assert [rec.bitmaps for rec in sheet.passes] == _gumbel_topk_oracle(desc, RoutingDistribution.zipf(1.0), 4, 1, 3)
    assert all(b == 0b1111 for rec in sheet.passes for b in rec.bitmaps.values())


class _StubRng:
    """Generator stand-in that hands out fixed uniform blocks."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size):
        return np.array(self.uniforms.pop(0), dtype=float).reshape(size)


def test_race_block_selects_earliest_times_and_rejects_zero_uniforms():
    # race times -log(1 - u) / p with p = (0.4, 0.3, 0.2, 0.1, 0): expert 4 never wins
    p = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
    with np.errstate(divide="ignore"):
        neg_inv_p = -1.0 / p
    u = [[[0.5, 0.5, 0.01, 0.9, 0.999]], [[0.9, 0.1, 0.9, 0.9, 0.001]]]
    hit = _race_block(_StubRng([u]), (2, 1, 5), neg_inv_p, 2)
    assert hit.tolist() == [[True, True, True, False, False]]
    # each zero is dropped, the later cells move up and the next non-zero draw
    # fills the last: u = (0.5, 0.2, 0.3, 0.9, 0.999) picks experts 0 and 1,
    # where refilling the zero's own cell would pick 0 and 2
    rng = _StubRng([[[[0.5, 0.0, 0.2, 0.3, 0.9]]], [0.0], [0.999]])
    hit = _race_block(rng, (1, 1, 5), neg_inv_p, 2)
    assert hit.tolist() == [[True, True, False, False, False]]
    assert rng.uniforms == []


def test_race_block_breaks_exact_ties_to_exactly_k():
    # experts 0 and 2 tie at the k-th race time; `<=` alone would admit three
    neg_inv_p = np.full(4, -4.0)
    hit = _race_block(_StubRng([[[[0.5, 0.1, 0.5, 0.9]]]]), (1, 1, 4), neg_inv_p, 2)
    assert hit.sum() == 2 and hit[0, 1] and hit[0, 0] != hit[0, 2]


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_with_zero_after(draws, inc):
    """A numpy Generator whose uniform after ``draws`` others is exactly 0.0.
    PCG64 steps its 128-bit LCG state, then outputs hi ^ lo rotated; a
    stepped state with equal 64-bit halves outputs 0, so that state is
    stepped back ``draws + 1`` times through the multiplier's inverse."""
    half = 0x9E3779B97F4A7C15
    state, inverse = (half << 64) | half, pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(draws + 1):
        state = (state - inc) * inverse % (1 << 128)
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


def test_zero_uniform_is_dropped_as_numpys_gumbel_sampler_drops_it(r1_desc, monkeypatch):
    import moemeter.routing as routing

    monkeypatch.setattr(routing, "_ROUTE_BLOCK_CELLS", 1)  # one token per block
    shape = (5, len(r1_desc.moe_layers), r1_desc.n_expert)
    k = r1_desc.top_k
    # the third token's block, layer 7, expert 100
    draws = 2 * shape[1] * shape[2] + 7 * shape[2] + 100
    inc = np.random.default_rng(8).bit_generator.state["state"]["inc"]
    u = _pcg64_with_zero_after(draws, inc).random(size=draws + 2)
    assert u[draws] == 0.0 and np.count_nonzero(u == 0.0) == 1

    p = RoutingDistribution.zipf(1.1).probabilities(r1_desc.n_expert)
    hit = _route_pass(_pcg64_with_zero_after(draws, inc), shape, -1.0 / p, k)
    keys = np.log(p) + _pcg64_with_zero_after(draws, inc).gumbel(size=shape)
    won = np.zeros(shape, dtype=bool)
    np.put_along_axis(won, np.argpartition(-keys, k - 1, axis=-1)[..., :k], True, axis=-1)
    assert np.array_equal(hit, won.any(axis=0))


def test_long_prefill_pass_memory_is_bounded(r1_desc):
    import tracemalloc

    dist = RoutingDistribution.zipf(1.1)
    simulate_routing(r1_desc, 1, dist, 1, seed=0)  # loads numpy.random outside the trace
    # a 2048-token prefill pass and a batch-64 decode pass
    for batch, phase, tokens in ((1, "prefill", 2048), (64, "decode", None)):
        tracemalloc.start()
        try:
            simulate_routing(r1_desc, batch, dist, 1, seed=0, phase=phase, tokens_per_pass=tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (2048, 58, 256) float64 draw alone would be 243 MB; a block of
        # one r1 token (116 KiB) and its partition copy stay far below this
        # bound, four tokens per block (1 MiB with the copy) do not
        assert peak < 2**19, phase


@pytest.mark.parametrize(
    "model, batch, dist, phase, tokens",
    [
        ("deepseek-r1", 5, "zipf:1.1", "decode", None),
        ("deepseek-r1", 5, "uniform", "decode", None),
        # rare experts, so that 300 tokens do not activate every expert whatever the stream
        ("toy-4x2", 2, "empirical:0.499,0.499,0.001,0.001", "prefill", 300),
    ],
)
def test_block_size_never_changes_the_sheet(models_dir, monkeypatch, model, batch, dist, phase, tokens):
    import moemeter.routing as routing
    from moemeter.models import load_model_descriptor

    desc = load_model_descriptor(models_dir / f"{model}.json")
    sheets = []
    for cells in (1, 4096, 1 << 14, 1 << 16):
        monkeypatch.setattr(routing, "_ROUTE_BLOCK_CELLS", cells)
        sheets.append(simulate_routing(desc, batch, _parse_dist_spec(dist), 3, seed=9, phase=phase, tokens_per_pass=tokens))
    assert all(sheet == sheets[0] for sheet in sheets[1:])


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


# SHA-256 of r_i's bytes from the full prefix/suffix tables the checkpointed
# kernel replaced (numpy 2.4 on x86-64). The checkpoints must leave every bit
# alone, multi-block grids included (r1 zipf:200 has 12 node blocks, 512
# experts top-16 has 4).
_PINNED_QUADRATURE = [
    ("zipf", 1.1, 256, 8, "3062e7a0ddd853b413d2caefa71652c0abd1424e982c8ab5d28006649105b326"),
    ("zipf", 1.1, 64, 6, "9fed3a99c8622f9c8bab6f3ba1ecb63b305c4a644d78d4d37cc91a744a269b84"),
    ("zipf", 1.1, 8, 2, "f9dda7b499cfdbc17956d0936c70c6f81ff8e53b918f6434292e92b2e1a19681"),
    ("zipf", 200.0, 256, 8, "244c54fd1187574110abb5120750fc9859f343c5aa58cf4c4ba7962e322117bc"),
    ("zipf", 1.1, 512, 16, "793f50d80941f93eeefa4f0219fab8a9f8bfb28639274f5971576be7149b56e9"),
    ("subnormal", None, 4, 2, "10415a50cf0f70979c2b900605c2da78254216e6837b62b1726910026fcf3090"),
]


@pytest.mark.parametrize("kind, s, n_expert, k, digest", _PINNED_QUADRATURE)
def test_quadrature_values_are_pinned(kind, s, n_expert, k, digest):
    if kind == "zipf":
        p = RoutingDistribution.zipf(s).probabilities(n_expert)
    else:
        p = np.array([0.5, 0.5 - 1e-320, 1e-320, 0.0])
    assert hashlib.sha256(_topk_inclusion_probs(p, k).tobytes()).hexdigest() == digest


def test_quadrature_memory_is_bounded():
    import tracemalloc

    p = RoutingDistribution.zipf(1.1).probabilities(256)
    tracemalloc.start()
    try:
        _topk_inclusion_probs(p, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # full prefix and suffix tables would be 2 x 257 x 8 x 401 doubles, 13 MB
    assert peak <= 2 * 2**20


def test_quadrature_memory_skips_zero_weights():
    import tracemalloc

    # zipf:200 leaves 34 of 256 weights positive and the rest exactly 0
    p = RoutingDistribution.zipf(200.0).probabilities(256)
    tracemalloc.start()
    try:
        _topk_inclusion_probs(p, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def _edge_weights(n_expert, kind):
    p = RoutingDistribution.zipf(1.1).probabilities(n_expert)
    if kind == "zero":
        p[-1] = 0.0
    elif kind == "subnormal":
        p[-1] = 1e-320
    return p / math.fsum(p)


_EDGE_CASES = [
    (n_expert, k, kind)
    for n_expert in (2, 3, 7, 17, 255, 257)
    for k in sorted({1, n_expert - 1})
    for kind in ("positive", "zero", "subnormal")
    # a subnormal weight stretches the grid to ~6000 nodes, which at k = 254
    # or 256 costs 8 s; k = 1 covers subnormals in those segment layouts
    if not (kind == "subnormal" and k > 16)
]


@pytest.mark.parametrize("n_expert, k, kind", _EDGE_CASES)
def test_quadrature_segment_edges(n_expert, k, kind):
    # segments of ceil(sqrt(E)) experts: E = 3, 7, 17, 255, 257 end in a short
    # segment, E = 2 is one full segment
    p = _edge_weights(n_expert, kind)
    r = _topk_inclusion_probs(p, k)
    if math.perm(n_expert, k) <= 5040:
        want = _brute_force_inclusion(p.tolist(), k)
        for got, w in zip(r, want):
            if w >= np.finfo(float).tiny:  # a subnormal r_i holds too few bits for 1e-12
                assert got == pytest.approx(w, rel=1e-12, abs=0.0)
    assert abs(r.sum() - k) <= 1e-12 * k
    if kind == "zero":
        assert r[-1] == 0.0
    elif kind == "subnormal":
        assert 0.0 < r[-1] < 1e-300


def test_empirical_weights_given_as_a_list_are_stored_as_a_tuple():
    # the expectation cache keys on the distribution, so it must hash
    weights = [0.5, 0.25, 0.125, 0.125]
    dist = RoutingDistribution(kind="empirical", weights=weights)
    assert dist.weights == tuple(weights) and dist == RoutingDistribution.empirical(weights)
    assert expected_distinct_experts(4, 2, 3, dist) == expected_distinct_experts(
        4, 2, 3, RoutingDistribution.empirical(weights)
    )


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


def test_fraction_is_exact_past_two_to_the_53():
    # 10**17 + 1 parameters in all, 3 of the 6 expert ones read: past 2**53 a
    # double cannot hold the pass's count, and the share would round to 1.0
    desc = make_desc(n_layer=1, moe_layer_mask=(True,), n_expert=2, top_k=1, params_expert=3, params_embed=10**17 + 1)
    rec = ForwardPassRecord(0, "decode", 1, 1, 0.01, 0, {0: {0}})
    report = activated_fraction(ActivationSheet(desc.name, [rec]), desc)
    assert report.per_pass_expert_only == (0.5,)
    from moemeter.models import total_params

    total = total_params(desc)
    assert total > 2**53 and report.per_pass == ((total - 3) / total,)


def test_fraction_batch1_deepseek_r1(r1_desc):
    sheet = simulate_routing(r1_desc, 1, RoutingDistribution.uniform(), 1, seed=0)
    report = activated_fraction(sheet, r1_desc)
    assert report.mean == pytest.approx(0.055, abs=0.002)
    from moemeter.models import active_params_analytic, total_params

    assert report.mean == pytest.approx(active_params_analytic(r1_desc) / total_params(r1_desc), rel=1e-12)


def test_fraction_reports_are_pinned(traces_dir, toy_desc, r1_desc):
    hetero = make_desc(n_expert=4, params_expert=100_000, params_expert_by_index=(100_000, 250_000, 400_000, 50_000))
    passes = [
        ForwardPassRecord(0, "prefill", 2, 48, 0.02, 0, {0: frozenset({0, 1, 2, 3}), 1: frozenset({1, 2, 3})}),
        ForwardPassRecord(1, "decode", 2, 2, 0.003, 0, {0: frozenset({0, 2}), 1: frozenset({1, 2, 3})}),
        ForwardPassRecord(2, "decode", 1, 1, 0.0021, 8192, {0: frozenset({1, 3}), 1: frozenset({0, 2})}),
    ]
    sample = "079f3307f7d6baac39f518ce7d657c796f9685a7f5eb5583ad9b7470893e1dd9"
    cases = [
        (load_activation_sheet(traces_dir / "sample_decode.trace", toy_desc), toy_desc, sample),
        (load_activation_sheet(traces_dir / "sample_with_comments.trace", toy_desc), toy_desc, sample),
        (ActivationSheet(hetero.name, passes), hetero,
         "488870b2cbe7e0e8385620235eb63f2ceb700cbb36f5979de9a4b3db19e1953e"),
        (simulate_routing(r1_desc, 8, RoutingDistribution.zipf(1.1), 4, seed=3), r1_desc,
         "41bbce673b9312df4afc91cf1fab5845de0784d65af813a4755bbd692a2a27f2"),
    ]
    for sheet, desc, digest in cases:
        assert hashlib.sha256(repr(activated_fraction(sheet, desc)).encode()).hexdigest() == digest


def test_fraction_nondecreasing_for_nested_batches(r1_desc, toy_desc):
    uni = RoutingDistribution.uniform()
    means = []
    for batch in (1, 2, 4, 8):
        sheet = simulate_routing(toy_desc, batch, uni, 25, seed=123)
        means.append(activated_fraction(sheet, toy_desc).mean)
    assert all(b >= a for a, b in zip(means, means[1:]))
