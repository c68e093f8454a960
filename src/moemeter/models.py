"""Model descriptors and parameter accounting for MoE architectures.

A :class:`ModelDescriptor` holds the architecture-level counts needed for
bandwidth and compute analysis: per-layer attention parameters, routed and
shared expert sizes, router size, dense-FFN sizes for non-MoE layers, and
embedding/output-head parameters. Every byte and FLOP figure in the package
is derived from these counts, so they are stored as exact integers and all
derived quantities are recomputable.

Descriptor files are JSON documents with exactly the fields of
ModelDescriptor; unknown keys are rejected. The repository ships descriptors
for several public MoE models under ``models/``, each carrying a
``source_note`` documenting where its counts come from.

Accounting conventions (documented here once, relied on everywhere):

* Embedding/head parameters are included in both total and activated byte
  counts, because the output head is read on every decode step. Account
  :func:`without_embedding` of a descriptor for the bare layer sums.
* Attention FLOPs per token are ``2 * params_attn_layer`` per layer plus a
  context term ``4 * seq_len * d_model`` per layer for the score and
  value-weighting matmuls (this assumes the attention value width equals
  ``d_model``; set ``d_model`` to the actual ``n_heads * head_dim`` if they
  differ).
* KV-cache bytes use the grouped-query layout
  ``2 * n_layer * n_kv_heads * head_dim * seq_len * batch`` at the weight
  precision unless the descriptor overrides ``kv_bytes_per_param``.
"""

from __future__ import annotations

import math
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import ValidationError, asdict, fields, json_text, load_json, record, record_from_json

if TYPE_CHECKING:
    from .trace import ForwardPassRecord

ALLOWED_BYTES_PER_PARAM = (0.5, 1.0, 2.0, 4.0)

# Planning conventions. They live here, not in planner, so that the CLI can
# build its parser and run the non-planning commands without importing it.
GB = 1e9

ACTIVATION_MODES = ("batch1_analytic", "full_activation", "trace", "expected")

# Default assumptions for the shipped bandwidth-requirement recipe. The
# efficiency divisor is an inferred convention, not a measured constant.
DEFAULT_EFFICIENCY_MBU = 0.3558
DEFAULT_SLO_TPOT_S = 0.1

# The peak-FLOPS precision the feasibility OPS check reads from each device,
# and the default of ``metrics --flops-precision``.
OPS_PRECISION = "fp16"


@record
class Precision:
    """Storage width of one parameter in bytes (4-, 8-, 16- or 32-bit)."""

    bytes_per_param: float

    def __post_init__(self):
        if float(self.bytes_per_param) not in ALLOWED_BYTES_PER_PARAM:
            raise ValidationError(
                f"bytes_per_param must be one of {ALLOWED_BYTES_PER_PARAM}, "
                f"got {self.bytes_per_param}",
                field="bytes_per_param",
            )
        object.__setattr__(self, "bytes_per_param", float(self.bytes_per_param))


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@record
class ModelDescriptor:
    """Architecture and parameter accounting of one (possibly MoE) model.

    ``n_expert`` counts routed experts only; shared experts are tracked
    separately via ``n_shared`` and are always active. ``moe_layer_mask``
    marks which layers carry an MoE FFN (dense layers use
    ``params_dense_ffn`` instead of router/expert terms).
    """

    name: str
    n_layer: int
    moe_layer_mask: tuple[bool, ...]
    d_model: int
    n_heads: int
    n_kv_heads: int
    head_dim: int
    n_expert: int
    top_k: int
    n_shared: int
    params_expert: int
    params_shared_expert: int
    params_router: int
    params_attn_layer: int
    params_dense_ffn: int
    params_embed: int
    params_expert_by_index: tuple[int, ...] | None = None
    kv_bytes_per_param: float | None = None
    source_note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "moe_layer_mask", tuple(bool(b) for b in self.moe_layer_mask))
        if self.params_expert_by_index is not None:
            object.__setattr__(self, "params_expert_by_index", tuple(self.params_expert_by_index))
        for fname in _COUNT_FIELDS:
            value = getattr(self, fname)
            if not _is_count(value):
                raise ValidationError(f"{fname} must be a non-negative integer, got {value!r}", field=fname)
        if self.n_layer < 1:
            raise ValidationError("n_layer must be >= 1", field="n_layer")
        if len(self.moe_layer_mask) != self.n_layer:
            raise ValidationError(
                f"moe_layer_mask has length {len(self.moe_layer_mask)}, expected n_layer={self.n_layer}",
                field="moe_layer_mask",
            )
        if not 1 <= self.top_k <= self.n_expert:
            raise ValidationError(
                f"top_k must satisfy 1 <= top_k <= n_expert, got top_k={self.top_k}, "
                f"n_expert={self.n_expert}",
                field="top_k",
            )
        if self.params_expert_by_index is not None:
            if len(self.params_expert_by_index) != self.n_expert:
                raise ValidationError(
                    f"params_expert_by_index has length {len(self.params_expert_by_index)}, "
                    f"expected n_expert={self.n_expert}",
                    field="params_expert_by_index",
                )
            if not all(_is_count(v) for v in self.params_expert_by_index):
                raise ValidationError(
                    "params_expert_by_index entries must be non-negative integers",
                    field="params_expert_by_index",
                )
        kv = self.kv_bytes_per_param
        if kv is not None and (isinstance(kv, bool) or not isinstance(kv, (int, float)) or kv not in ALLOWED_BYTES_PER_PARAM):
            raise ValidationError(
                f"kv_bytes_per_param must be one of {ALLOWED_BYTES_PER_PARAM}",
                field="kv_bytes_per_param",
            )

    # The figures below depend only on the fields, so each is computed once
    # per descriptor. They are cached properties, not fields, so equality,
    # hashing, repr and rebuilding from the fields see the fields alone.

    @cached_property
    def moe_layers(self) -> tuple[int, ...]:
        return tuple(i for i, moe in enumerate(self.moe_layer_mask) if moe)

    @cached_property
    def routed_expert_sizes(self) -> tuple[int, ...]:
        if self.params_expert_by_index is not None:
            return self.params_expert_by_index
        return (self.params_expert,) * self.n_expert

    @cached_property
    def heterogeneous_experts(self) -> bool:
        sizes = self.routed_expert_sizes
        return any(s != sizes[0] for s in sizes)

    @cached_property
    def _always_read(self) -> int:
        """Parameters every pass reads whatever it routes."""
        return _params_read(self, 0)


# Every count a descriptor holds (its int fields); each must be a non-negative int.
_COUNT_FIELDS = tuple(f.name for f in fields(ModelDescriptor) if f.type == "int")


# --------------------------------------------------------------------------
# Parameter counts
# --------------------------------------------------------------------------

def without_embedding(desc: ModelDescriptor) -> ModelDescriptor:
    """``desc`` with ``params_embed`` 0, whose every figure leaves out the
    embedding/output head: the bare layer-sum accounting (CLI
    ``--exclude-embed``). ``desc`` itself when it has no embedding."""
    if desc.params_embed == 0:
        return desc
    return ModelDescriptor(**{**{f.name: getattr(desc, f.name) for f in fields(desc)}, "params_embed": 0})


def _params_read(desc: ModelDescriptor, routed: int | float) -> int | float:
    """The one per-layer parameter rule: the embedding, each layer's
    attention, each MoE layer's router and shared experts plus ``routed``
    routed-expert parameters, and each dense layer's FFN. Every parameter
    and FLOP figure below is this sum for some ``routed``."""
    total = desc.params_embed
    for moe in desc.moe_layer_mask:
        total += desc.params_attn_layer
        if moe:
            total += desc.params_router + desc.n_shared * desc.params_shared_expert
            total += routed
        else:
            total += desc.params_dense_ffn
    return total


def total_params(desc: ModelDescriptor) -> int:
    """Exact total parameter count, recomputed from the per-component counts."""
    return _params_read(desc, sum(desc.routed_expert_sizes))


def active_params_analytic(desc: ModelDescriptor) -> int | float:
    """Parameters touched by a single token: each MoE layer activates exactly
    top_k routed experts plus all shared experts.

    With heterogeneous routed-expert sizes the identity of the top_k experts
    is routing-dependent, so the mean routed size is used (result may be
    non-integer).
    """
    sizes = desc.routed_expert_sizes
    if desc.heterogeneous_experts:
        routed = desc.top_k * (sum(sizes) / len(sizes))
    else:
        routed = desc.top_k * sizes[0]
    return _params_read(desc, routed)


def expert_indices(bitmap: int) -> Iterator[int]:
    """Ascending indices of the set bits of an activation bitmap."""
    while bitmap:
        low = bitmap & -bitmap
        yield low.bit_length() - 1
        bitmap ^= low


def activated_params_from_sets(desc: ModelDescriptor, bitmaps: Mapping[int, int]) -> int:
    """Parameters read in one forward pass given each MoE layer's activation
    bitmap (routed expert i at bit i). Everything but the routed experts
    (shared experts, routers, attention, dense layers) is always read; each
    activated routed expert adds its own size."""
    try:
        layer_bitmaps = [bitmaps[layer] for layer in desc.moe_layers]
    except KeyError as exc:
        raise ValidationError(f"missing activated set for MoE layer {exc.args[0]}", field="activated") from None
    if max(layer_bitmaps, default=0).bit_length() > desc.n_expert:
        raise ValidationError(f"activation bitmap names an expert beyond n_expert={desc.n_expert}", field="activated")
    sizes = desc.routed_expert_sizes
    if desc.heterogeneous_experts:
        routed = sum(sizes[i] for bitmap in layer_bitmaps for i in expert_indices(bitmap))
    else:
        routed = sum(bitmap.bit_count() for bitmap in layer_bitmaps) * sizes[0]
    return desc._always_read + routed


def pass_bytes(
    rec: "ForwardPassRecord",
    desc: ModelDescriptor,
    prec: Precision,
    kv_seq_len: int | None = None,
    kv_bytes: float = 0.0,
) -> tuple[float, float]:
    """Bytes one forward pass reads: ``(activated parameter bytes, KV bytes)``.

    The one per-pass byte rule. Parameters: those of the experts the pass
    activated, plus everything always read, at the weight precision. KV: what
    the pass recorded if it recorded any; otherwise the caller's fallback,
    which is the KV-cache formula at ``kv_seq_len`` for the pass's batch when
    ``kv_seq_len`` is given, and ``kv_bytes`` when it is not.
    """
    act = activated_params_from_sets(desc, rec.bitmaps) * prec.bytes_per_param
    if rec.kv_bytes_read > 0:
        return act, float(rec.kv_bytes_read)
    if kv_seq_len is not None:
        return act, kv_cache_bytes(desc, kv_seq_len, rec.batch_size, prec)
    return act, kv_bytes


def fold_passes(
    records: Iterable["ForwardPassRecord"],
    desc: ModelDescriptor,
    prec: Precision,
    kv_seq_len: int | None = None,
    kv_bytes: float = 0.0,
) -> tuple[list[tuple[float, float]], float, float, int]:
    """The one sum over passes: ``(per_pass, bytes, latency, tokens)``.

    ``per_pass`` lists each validated record's ``(act, kv)`` by :func:`pass_bytes`,
    so its length is the pass count; the totals add ``act + kv``, latency and
    tokens left to right. An overflowing latency total is rejected: every rate
    over it would read 0. So is an overflowing byte total, named by the input
    at fault: ``report`` for parameter bytes, ``kv_bytes_read`` for recorded
    KV, else the fallback in use (``kv_seq_len`` or ``kv_bytes``).
    """
    # checked before any pass is charged: a pass that recorded KV never reads it
    if kv_seq_len is not None and kv_seq_len < 1:
        raise ValidationError(f"kv_seq_len must be >= 1, got {kv_seq_len}", field="kv_seq_len")
    per_pass = []
    total_bytes = 0.0
    recorded_kv = 0.0
    total_latency = 0.0
    total_tokens = 0
    for rec in records:
        act, kv = pass_bytes(rec, desc, prec, kv_seq_len, kv_bytes)
        per_pass.append((act, kv))
        total_bytes += act + kv
        if rec.kv_bytes_read > 0:
            recorded_kv += kv
        total_latency += rec.latency_s
        total_tokens += rec.tokens_processed
    if total_latency == math.inf:
        raise ValidationError("the passes' latencies sum to more than a double holds", field="latency_s")
    if total_bytes == math.inf:
        # named by the first input that overflows: the parameter bytes on their
        # own, then with the recorded KV counts, else the caller's KV fallback
        act_total = sum(act for act, _ in per_pass)
        if act_total == math.inf:
            field = "report"
        elif act_total + recorded_kv == math.inf:
            field = "kv_bytes_read"
        else:
            field = "kv_bytes" if kv_seq_len is None else "kv_seq_len"
        raise ValidationError("the passes' bytes sum to more than a double holds", field=field)
    return per_pass, total_bytes, total_latency, total_tokens


# --------------------------------------------------------------------------
# Bytes
# --------------------------------------------------------------------------

def total_param_bytes(desc: ModelDescriptor, prec: Precision) -> float:
    return total_params(desc) * prec.bytes_per_param


def active_param_bytes_analytic(desc: ModelDescriptor, prec: Precision) -> float:
    return active_params_analytic(desc) * prec.bytes_per_param


def kv_cache_bytes(desc: ModelDescriptor, seq_len: int, batch: int, prec: Precision) -> float:
    """KV-cache bytes for a (seq_len, batch) decode context (grouped-query
    layout, K and V each stored once per kv head)."""
    if not 1 <= seq_len < math.inf:
        raise ValidationError("seq_len must be finite and >= 1", field="seq_len")
    if not 1 <= batch < math.inf:
        raise ValidationError("batch must be finite and >= 1", field="batch")
    bpp = desc.kv_bytes_per_param if desc.kv_bytes_per_param is not None else prec.bytes_per_param
    return 2.0 * desc.n_layer * desc.n_kv_heads * desc.head_dim * seq_len * batch * bpp


# --------------------------------------------------------------------------
# FLOPs per token
# --------------------------------------------------------------------------

def _context_flops(desc: ModelDescriptor, seq_len: int) -> float:
    """Score and value-weighting FLOPs per token at context length ``seq_len``."""
    if not 1 <= seq_len < math.inf:
        raise ValidationError("seq_len must be finite and >= 1", field="seq_len")
    return 4.0 * desc.n_layer * seq_len * desc.d_model


def sparse_flops_per_token(desc: ModelDescriptor, seq_len: int) -> float:
    """FLOPs per token counting only the experts a token actually activates
    (top_k routed, shared experts at their size) plus the router and
    attention terms: 2 FLOPs per parameter read, less the embedding, plus the
    context term."""
    return 2.0 * active_params_analytic(without_embedding(desc)) + _context_flops(desc, seq_len)


def dense_flops_per_token(desc: ModelDescriptor, seq_len: int) -> float:
    """FLOPs per token under the all-parameters-participate assumption, the
    baseline that ignores routing. The embedding is left out here too."""
    return 2.0 * total_params(without_embedding(desc)) + _context_flops(desc, seq_len)


# --------------------------------------------------------------------------
# Descriptor I/O
# --------------------------------------------------------------------------

def load_model_descriptor(path: str | Path) -> ModelDescriptor:
    """Load and validate a descriptor JSON file."""
    return record_from_json(ModelDescriptor, load_json(path), "document")


def serialize_model_descriptor(desc: ModelDescriptor) -> str:
    return json_text(asdict(desc), "model descriptor")
