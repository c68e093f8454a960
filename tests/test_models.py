from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from moemeter.errors import ValidationError, asdict, fields, record_from_json
from moemeter.models import (
    _COUNT_FIELDS,
    ModelDescriptor,
    Precision,
    active_param_bytes_analytic,
    active_params_analytic,
    activated_params_from_sets,
    dense_flops_per_token,
    fold_passes,
    kv_cache_bytes,
    load_model_descriptor,
    serialize_model_descriptor,
    sparse_flops_per_token,
    total_param_bytes,
    total_params,
    without_embedding,
)

from conftest import make_desc, rebuild


# ---------------------------------------------------------------------------
# Shipped descriptors against their published anchors (+-5%)
# ---------------------------------------------------------------------------

def test_deepseek_r1_anchors(r1_desc):
    assert r1_desc.n_expert == 256
    assert r1_desc.top_k == 8
    assert r1_desc.n_shared == 1
    assert total_params(r1_desc) == pytest.approx(671e9, rel=0.05)
    assert active_params_analytic(r1_desc) == pytest.approx(37e9, rel=0.05)


def test_mixtral_8x22b_anchors(models_dir):
    desc = load_model_descriptor(models_dir / "mixtral-8x22b.json")
    assert desc.n_expert == 8
    assert desc.top_k == 2
    assert total_params(desc) == pytest.approx(141e9, rel=0.05)
    assert active_params_analytic(desc) == pytest.approx(39e9, rel=0.05)


def test_all_shipped_descriptors_load(models_dir):
    for path in sorted(models_dir.glob("*.json")):
        desc = load_model_descriptor(path)
        assert total_params(desc) >= active_params_analytic(desc)
        # each shipped file is the descriptor's own serialization, byte for byte
        assert serialize_model_descriptor(desc) == path.read_text(encoding="utf-8")


def test_degenerate_descriptor_total_equals_active():
    desc = make_desc(n_expert=1, top_k=1, n_shared=0)
    assert total_params(desc) == active_params_analytic(desc)


# ---------------------------------------------------------------------------
# Loader validation
# ---------------------------------------------------------------------------

def test_missing_field_names_field(toy_desc):
    doc = asdict(toy_desc)
    del doc["n_expert"]
    with pytest.raises(ValidationError, match="n_expert"):
        record_from_json(ModelDescriptor, doc, "document")


def test_unknown_key_rejected(toy_desc):
    doc = asdict(toy_desc)
    doc["surprise"] = 1
    with pytest.raises(ValidationError, match="surprise"):
        record_from_json(ModelDescriptor, doc, "document")


def test_top_k_exceeding_experts_names_field():
    with pytest.raises(ValidationError, match="top_k"):
        make_desc(top_k=5, n_expert=4)


def test_mask_length_mismatch():
    with pytest.raises(ValidationError, match="moe_layer_mask"):
        make_desc(moe_layer_mask=(True,))


def test_negative_param_count():
    with pytest.raises(ValidationError, match="params_expert"):
        make_desc(params_expert=-1)


def test_descriptor_roundtrip_bit_exact(tmp_path, r1_desc):
    path = tmp_path / "desc.json"
    path.write_text(serialize_model_descriptor(r1_desc), encoding="utf-8")
    reloaded = load_model_descriptor(path)
    assert reloaded == r1_desc
    assert total_params(reloaded) == total_params(r1_desc)
    assert active_params_analytic(reloaded) == active_params_analytic(r1_desc)


def test_cached_descriptor_figures_are_not_fields(toy_desc):
    fresh = rebuild(toy_desc)
    pass_read = activated_params_from_sets(toy_desc, {0: 0b11, 1: 0b1})
    assert toy_desc.moe_layers and not toy_desc.heterogeneous_experts
    # computing the cached figures changes neither equality, hash nor repr
    assert toy_desc == fresh and hash(toy_desc) == hash(fresh) and repr(toy_desc) == repr(fresh)
    assert {f.name for f in fields(ModelDescriptor)}.isdisjoint(
        {"moe_layers", "heterogeneous_experts", "routed_expert_sizes", "_always_read"}
    )
    # a replaced descriptor computes its own figures, not the cached ones
    skewed = rebuild(
        toy_desc, moe_layer_mask=(False, True), params_expert_by_index=(1, 2, 3, 4), params_embed=0
    )
    assert skewed.moe_layers == (1,) and skewed.heterogeneous_experts
    assert skewed.routed_expert_sizes == (1, 2, 3, 4)
    assert activated_params_from_sets(skewed, {1: 0b1010}) == total_params(skewed) - 1 - 3
    assert activated_params_from_sets(toy_desc, {0: 0b11, 1: 0b1}) == pass_read


# ---------------------------------------------------------------------------
# Byte accounting
# ---------------------------------------------------------------------------

def test_total_bytes_r1_one_byte(r1_desc, int8):
    assert total_param_bytes(r1_desc, int8) == pytest.approx(671e9, rel=0.05)


def test_total_bytes_empty_expert_toy():
    desc = make_desc(
        n_layer=1,
        moe_layer_mask=(False,),
        n_expert=1,
        top_k=1,
        params_expert=0,
        params_router=0,
        params_attn_layer=0,
        params_dense_ffn=0,
        params_embed=100,
        d_model=0,
        n_heads=0,
        n_kv_heads=0,
        head_dim=0,
    )
    assert total_param_bytes(desc, Precision(2.0)) == 200.0


def test_total_bytes_hand_summed_toy(toy_desc, fp16):
    # embed 1e6 + 2 layers of (attn 2e6 + router 1e4 + 4 experts of 1e6), 2 bytes
    assert total_param_bytes(toy_desc, fp16) == 2 * (1e6 + 2 * (2e6 + 1e4 + 4e6))
    assert total_param_bytes(toy_desc, fp16) == 26.04e6


def test_active_bytes_hand_summed_toy(toy_desc, fp16):
    assert active_param_bytes_analytic(toy_desc, fp16) == 2 * (1e6 + 2 * (2e6 + 1e4 + 2e6))
    assert active_param_bytes_analytic(toy_desc, fp16) == 18.04e6


def test_active_equals_total_for_dense(int8):
    desc = make_desc(n_expert=1, top_k=1)
    assert active_param_bytes_analytic(desc, int8) == total_param_bytes(desc, int8)


def test_include_embed_toggle(toy_desc, int8):
    with_embed = active_param_bytes_analytic(toy_desc, int8)
    bare = without_embedding(toy_desc)
    without = active_param_bytes_analytic(bare, int8)
    assert with_embed - without == toy_desc.params_embed
    # the view is the descriptor rebuilt with params_embed 0, and a fixed point
    assert bare == rebuild(toy_desc, params_embed=0) and without_embedding(bare) is bare


def test_heterogeneous_sizes_use_mean_for_analytic(int8):
    desc = make_desc(params_expert_by_index=(100, 200, 300, 400), params_expert=250)
    uniform = make_desc(params_expert=250)
    # mean of the per-index sizes equals the nominal size, so the analytic
    # batch-1 accounting agrees while totals match exactly
    assert active_params_analytic(desc) == active_params_analytic(uniform)
    assert total_params(desc) == total_params(uniform)
    skewed = make_desc(params_expert_by_index=(0, 0, 0, 1000), params_expert=250)
    assert active_params_analytic(skewed) == active_params_analytic(uniform)
    assert skewed.heterogeneous_experts and not uniform.heterogeneous_experts


# ---------------------------------------------------------------------------
# FLOPs
# ---------------------------------------------------------------------------

def test_sparse_flops_single_layer_toy():
    # F_attn = 1e9 via params, seq term zeroed through d_model=0
    desc = make_desc(
        n_layer=1,
        moe_layer_mask=(True,),
        d_model=0,
        n_heads=0,
        n_kv_heads=0,
        head_dim=0,
        n_expert=3,
        top_k=2,
        n_shared=1,
        params_expert=10_000_000,
        params_shared_expert=10_000_000,
        params_router=1_000_000,
        params_attn_layer=500_000_000,
        params_embed=0,
    )
    assert sparse_flops_per_token(desc, seq_len=1) == 1e9 + 2e6 + 2 * 3 * 1e7
    assert sparse_flops_per_token(desc, seq_len=1) == 1.062e9


def _attn_flops(desc: ModelDescriptor, seq_len: int) -> float:
    """Attention FLOPs per token as the models module documents them: 2 per
    projection parameter plus 4 * seq_len * d_model, in every layer."""
    return 2.0 * desc.n_layer * desc.params_attn_layer + 4.0 * desc.n_layer * seq_len * desc.d_model


def test_sparse_flops_zero_expert_params():
    desc = make_desc(params_expert=0, params_shared_expert=0, d_model=0)
    expected = _attn_flops(desc, 1) + 2 * 2 * desc.params_router
    assert sparse_flops_per_token(desc, 1) == expected


def test_sparse_flops_dense_special_case():
    desc = make_desc(n_expert=1, top_k=1, params_router=0, d_model=0)
    assert sparse_flops_per_token(desc, 1) == _attn_flops(desc, 1) + 2 * 2 * desc.params_expert
    assert sparse_flops_per_token(desc, 1) == dense_flops_per_token(desc, 1)


def test_attn_flops_seq_term():
    desc = make_desc(d_model=64)
    for flops in (sparse_flops_per_token, dense_flops_per_token):
        assert flops(desc, 11) - flops(desc, 1) == 4 * desc.n_layer * 10 * 64


def test_sparse_flops_strictly_increasing_in_top_k():
    values = [
        sparse_flops_per_token(make_desc(top_k=k), 1) for k in range(1, 5)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# KV cache
# ---------------------------------------------------------------------------

def test_kv_cache_hand_computed():
    desc = make_desc(n_layer=1, moe_layer_mask=(True,), n_kv_heads=1, head_dim=64)
    assert kv_cache_bytes(desc, seq_len=1, batch=1, prec=Precision(2.0)) == 256.0


def test_kv_cache_batch_zero_disallowed(toy_desc, fp16):
    with pytest.raises(ValidationError, match="batch"):
        kv_cache_bytes(toy_desc, seq_len=1, batch=0, prec=fp16)


def test_kv_cache_linear_in_batch_and_kv_heads(fp16):
    desc = make_desc(n_kv_heads=4)
    half = make_desc(n_kv_heads=2)
    assert kv_cache_bytes(desc, 8, 4, fp16) == 2 * kv_cache_bytes(desc, 8, 2, fp16)
    assert kv_cache_bytes(half, 8, 4, fp16) == kv_cache_bytes(desc, 8, 4, fp16) / 2


def test_kv_precision_override(fp16):
    desc = make_desc(kv_bytes_per_param=0.5)
    quarter = kv_cache_bytes(desc, 4, 2, fp16)
    full = kv_cache_bytes(make_desc(), 4, 2, fp16)
    assert quarter == full / 4


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@st.composite
def descriptors(draw):
    n_layer = draw(st.integers(1, 6))
    mask = tuple(draw(st.lists(st.booleans(), min_size=n_layer, max_size=n_layer)))
    n_expert = draw(st.integers(1, 32))
    top_k = draw(st.integers(1, n_expert))
    counts = st.integers(0, 10**9)
    return ModelDescriptor(
        name="hyp",
        n_layer=n_layer,
        moe_layer_mask=mask,
        d_model=draw(st.integers(0, 4096)),
        n_heads=4,
        n_kv_heads=2,
        head_dim=16,
        n_expert=n_expert,
        top_k=top_k,
        n_shared=draw(st.integers(0, 3)),
        params_expert=draw(counts),
        params_shared_expert=draw(counts),
        params_router=draw(counts),
        params_attn_layer=draw(counts),
        params_dense_ffn=draw(counts),
        params_embed=draw(counts),
    )


@given(descriptors())
@settings(max_examples=200, deadline=None)
def test_total_at_least_active(desc):
    total = total_params(desc)
    active = active_params_analytic(desc)
    assert active <= total
    has_moe = any(desc.moe_layer_mask)
    slack = (desc.n_expert - desc.top_k) * desc.params_expert
    if not has_moe or slack == 0:
        assert active == total
    else:
        assert active < total


@given(descriptors(), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
@settings(max_examples=100, deadline=None)
def test_bytes_linear_in_precision(desc, bpp):
    assert total_param_bytes(desc, Precision(bpp)) == total_params(desc) * bpp


def test_precision_rejects_odd_widths():
    with pytest.raises(ValidationError):
        Precision(3.0)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_activated_params_match_brute_force_index_sum(data):
    n_expert = data.draw(st.integers(1, 80))
    by_index = data.draw(
        st.none() | st.lists(st.integers(0, 10**12), min_size=n_expert, max_size=n_expert).map(tuple)
    )
    mask = tuple(data.draw(st.lists(st.booleans(), min_size=1, max_size=4)))
    desc = make_desc(
        n_layer=len(mask), moe_layer_mask=mask, n_expert=n_expert, top_k=1, n_shared=2,
        params_expert=7, params_expert_by_index=by_index, params_shared_expert=5, params_dense_ffn=11,
    )
    sizes = by_index or (7,) * n_expert
    sets = {layer: data.draw(st.sets(st.integers(0, n_expert - 1))) for layer in desc.moe_layers}
    bitmaps = {layer: sum(1 << i for i in s) for layer, s in sets.items()}
    for include_embed in (True, False):
        expected = desc.params_embed if include_embed else 0
        for layer, moe in enumerate(mask):
            expected += desc.params_attn_layer
            if moe:
                expected += desc.params_router + 2 * 5 + sum(sizes[i] for i in sets[layer])
            else:
                expected += 11
        view = desc if include_embed else without_embedding(desc)
        assert activated_params_from_sets(view, bitmaps) == expected


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
@pytest.mark.parametrize("fname", _COUNT_FIELDS)
def test_count_fields_must_be_integers(fname, bad):
    with pytest.raises(ValidationError, match=fname) as exc:
        make_desc(**{fname: bad})
    assert exc.value.field == fname


def test_expert_sizes_must_be_integers():
    with pytest.raises(ValidationError) as exc:
        make_desc(params_expert_by_index=(100, 200.5, 300, 400))
    assert exc.value.field == "params_expert_by_index"


@pytest.mark.parametrize("bad", ["2", True, 3.0])
def test_kv_bytes_per_param_must_be_an_allowed_number(bad):
    with pytest.raises(ValidationError) as exc:
        make_desc(kv_bytes_per_param=bad)
    assert exc.value.field == "kv_bytes_per_param"


def test_fold_rejects_kv_counts_summing_past_a_double(toy_desc, fp16):
    from moemeter.trace import ForwardPassRecord

    # each count fits a double; their sum does not
    kv = int(1e308)
    records = [ForwardPassRecord(i, "decode", 1, 1, 0.01, kv, {0: 0b11, 1: 0b11}) for i in range(2)]
    assert fold_passes(records[:1], toy_desc, fp16)[1] == pytest.approx(1e308)
    with pytest.raises(ValidationError) as info:
        fold_passes(records, toy_desc, fp16)
    assert info.value.field == "kv_bytes_read"


def test_fold_does_not_blame_kv_for_parameter_bytes_past_a_double(fp16):
    from moemeter.trace import ForwardPassRecord

    # each pass reads about 1.6e308 parameter bytes and no KV
    desc = make_desc(params_expert=2 * 10**307)
    records = [ForwardPassRecord(i, "decode", 1, 1, 0.01, 0, {0: 0b11, 1: 0b11}) for i in range(2)]
    with pytest.raises(ValidationError) as info:
        fold_passes(records, desc, fp16)
    assert info.value.field == "report"
