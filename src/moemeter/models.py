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
  counts by default, because the output head is read on every decode step.
  Pass ``include_embed=False`` to reproduce the bare layer-sum accounting.
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

import json
from dataclasses import dataclass, fields as _dc_fields
from pathlib import Path
from typing import Iterator, Mapping

from .errors import ValidationError

ALLOWED_BYTES_PER_PARAM = (0.5, 1.0, 2.0, 4.0)

PRECISION_NAMES = {
    "int4": 0.5,
    "fp4": 0.5,
    "int8": 1.0,
    "fp8": 1.0,
    "fp16": 2.0,
    "bf16": 2.0,
    "fp32": 4.0,
}


@dataclass(frozen=True)
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

    @classmethod
    def from_name(cls, name: str) -> "Precision":
        try:
            return cls(PRECISION_NAMES[name.lower()])
        except KeyError:
            raise ValidationError(f"unknown precision name {name!r}", field="precision") from None


@dataclass(frozen=True)
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
            object.__setattr__(
                self, "params_expert_by_index", tuple(int(v) for v in self.params_expert_by_index)
            )
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
        if self.n_shared < 0:
            raise ValidationError("n_shared must be >= 0", field="n_shared")
        for fname in (
            "d_model",
            "n_heads",
            "n_kv_heads",
            "head_dim",
            "params_expert",
            "params_shared_expert",
            "params_router",
            "params_attn_layer",
            "params_dense_ffn",
            "params_embed",
        ):
            value = getattr(self, fname)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(f"{fname} must be a non-negative integer, got {value!r}", field=fname)
        if self.params_expert_by_index is not None:
            if len(self.params_expert_by_index) != self.n_expert:
                raise ValidationError(
                    f"params_expert_by_index has length {len(self.params_expert_by_index)}, "
                    f"expected n_expert={self.n_expert}",
                    field="params_expert_by_index",
                )
            if any(v < 0 for v in self.params_expert_by_index):
                raise ValidationError(
                    "params_expert_by_index entries must be >= 0", field="params_expert_by_index"
                )
        if self.kv_bytes_per_param is not None and float(self.kv_bytes_per_param) not in ALLOWED_BYTES_PER_PARAM:
            raise ValidationError(
                f"kv_bytes_per_param must be one of {ALLOWED_BYTES_PER_PARAM}",
                field="kv_bytes_per_param",
            )

    @property
    def moe_layers(self) -> tuple[int, ...]:
        return tuple(i for i, moe in enumerate(self.moe_layer_mask) if moe)

    @property
    def k_expert(self) -> int:
        """Experts activated per token in one MoE layer: top_k routed plus shared."""
        return self.top_k + self.n_shared

    def routed_expert_sizes(self) -> tuple[int, ...]:
        if self.params_expert_by_index is not None:
            return self.params_expert_by_index
        return (self.params_expert,) * self.n_expert

    @property
    def heterogeneous_experts(self) -> bool:
        sizes = self.routed_expert_sizes()
        return any(s != sizes[0] for s in sizes)


# --------------------------------------------------------------------------
# Parameter counts
# --------------------------------------------------------------------------

def total_params(desc: ModelDescriptor, include_embed: bool = True) -> int:
    """Exact total parameter count, recomputed from the per-component counts."""
    routed_total = sum(desc.routed_expert_sizes())
    total = desc.params_embed if include_embed else 0
    for moe in desc.moe_layer_mask:
        total += desc.params_attn_layer
        if moe:
            total += desc.params_router + routed_total + desc.n_shared * desc.params_shared_expert
        else:
            total += desc.params_dense_ffn
    return total


def active_params_analytic(desc: ModelDescriptor, include_embed: bool = True) -> int | float:
    """Parameters touched by a single token: each MoE layer activates exactly
    top_k routed experts plus all shared experts.

    With heterogeneous routed-expert sizes the identity of the top_k experts
    is routing-dependent, so the mean routed size is used (result may be
    non-integer).
    """
    if desc.heterogeneous_experts:
        sizes = desc.routed_expert_sizes()
        routed_active = desc.top_k * (sum(sizes) / len(sizes))
    else:
        routed_active = desc.top_k * desc.params_expert
    total = desc.params_embed if include_embed else 0
    for moe in desc.moe_layer_mask:
        total += desc.params_attn_layer
        if moe:
            total += desc.params_router + routed_active + desc.n_shared * desc.params_shared_expert
        else:
            total += desc.params_dense_ffn
    return total


def expert_indices(bitmap: int) -> Iterator[int]:
    """Ascending indices of the set bits of an activation bitmap."""
    while bitmap:
        low = bitmap & -bitmap
        yield low.bit_length() - 1
        bitmap ^= low


def activated_params_from_sets(
    desc: ModelDescriptor,
    bitmaps: Mapping[int, int],
    include_embed: bool = True,
) -> int:
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
    sizes = desc.routed_expert_sizes()
    if desc.heterogeneous_experts:
        routed = sum(sizes[i] for bitmap in layer_bitmaps for i in expert_indices(bitmap))
    else:
        routed = sum(bitmap.bit_count() for bitmap in layer_bitmaps) * sizes[0]
    return total_params(desc, include_embed=include_embed) - len(layer_bitmaps) * sum(sizes) + routed


def activated_params_from_counts(
    desc: ModelDescriptor,
    distinct_routed_per_layer: float,
    include_embed: bool = True,
) -> float:
    """Like :func:`activated_params_from_sets` but with a (possibly
    fractional, e.g. expected) distinct routed-expert count applied to every
    MoE layer. Requires uniform routed-expert sizes."""
    if desc.heterogeneous_experts:
        raise ValidationError(
            "count-based activation accounting requires uniform routed-expert sizes",
            field="params_expert_by_index",
        )
    if not 0 <= distinct_routed_per_layer <= desc.n_expert:
        raise ValidationError(
            f"distinct count {distinct_routed_per_layer} outside [0, n_expert={desc.n_expert}]",
            field="distinct_routed_per_layer",
        )
    total = float(desc.params_embed if include_embed else 0)
    for moe in desc.moe_layer_mask:
        total += desc.params_attn_layer
        if moe:
            total += desc.params_router + desc.n_shared * desc.params_shared_expert
            total += distinct_routed_per_layer * desc.params_expert
        else:
            total += desc.params_dense_ffn
    return total


# --------------------------------------------------------------------------
# Bytes
# --------------------------------------------------------------------------

def total_param_bytes(desc: ModelDescriptor, prec: Precision, include_embed: bool = True) -> float:
    return total_params(desc, include_embed=include_embed) * prec.bytes_per_param


def active_param_bytes_analytic(
    desc: ModelDescriptor, prec: Precision, include_embed: bool = True
) -> float:
    return active_params_analytic(desc, include_embed=include_embed) * prec.bytes_per_param


def kv_cache_bytes(desc: ModelDescriptor, seq_len: int, batch: int, prec: Precision) -> float:
    """KV-cache bytes for a (seq_len, batch) decode context (grouped-query
    layout, K and V each stored once per kv head)."""
    if seq_len < 1:
        raise ValidationError("seq_len must be >= 1", field="seq_len")
    if batch < 1:
        raise ValidationError("batch must be >= 1", field="batch")
    bpp = desc.kv_bytes_per_param if desc.kv_bytes_per_param is not None else prec.bytes_per_param
    return 2.0 * desc.n_layer * desc.n_kv_heads * desc.head_dim * seq_len * batch * bpp


# --------------------------------------------------------------------------
# FLOPs per token
# --------------------------------------------------------------------------

def attn_flops_per_token(desc: ModelDescriptor, seq_len: int) -> float:
    """Attention FLOPs per decoded token: 2 FLOPs per projection parameter
    plus the context-length-dependent score/value terms."""
    if seq_len < 1:
        raise ValidationError("seq_len must be >= 1", field="seq_len")
    return 2.0 * desc.n_layer * desc.params_attn_layer + 4.0 * desc.n_layer * seq_len * desc.d_model


def sparse_flops_per_token(desc: ModelDescriptor, seq_len: int) -> float:
    """FLOPs per token counting only the experts a token actually activates
    (top_k routed at their own size, shared experts at theirs) plus the
    router and attention terms."""
    flops = attn_flops_per_token(desc, seq_len)
    if desc.heterogeneous_experts:
        sizes = desc.routed_expert_sizes()
        routed = desc.top_k * (sum(sizes) / len(sizes))
    else:
        routed = desc.top_k * desc.params_expert
    for moe in desc.moe_layer_mask:
        if moe:
            flops += 2.0 * (desc.params_router + routed + desc.n_shared * desc.params_shared_expert)
        else:
            flops += 2.0 * desc.params_dense_ffn
    return flops


def dense_flops_per_token(desc: ModelDescriptor, seq_len: int) -> float:
    """FLOPs per token under the all-parameters-participate assumption, the
    baseline that ignores routing."""
    flops = attn_flops_per_token(desc, seq_len)
    routed_total = sum(desc.routed_expert_sizes())
    for moe in desc.moe_layer_mask:
        if moe:
            flops += 2.0 * (desc.params_router + routed_total + desc.n_shared * desc.params_shared_expert)
        else:
            flops += 2.0 * desc.params_dense_ffn
    return flops


# --------------------------------------------------------------------------
# Descriptor I/O
# --------------------------------------------------------------------------

_REQUIRED_FIELDS = (
    "name",
    "n_layer",
    "moe_layer_mask",
    "d_model",
    "n_heads",
    "n_kv_heads",
    "head_dim",
    "n_expert",
    "top_k",
    "n_shared",
    "params_expert",
    "params_shared_expert",
    "params_router",
    "params_attn_layer",
    "params_dense_ffn",
    "params_embed",
)
_OPTIONAL_FIELDS = ("params_expert_by_index", "kv_bytes_per_param", "source_note")


def descriptor_from_dict(doc: Mapping) -> ModelDescriptor:
    missing = [k for k in _REQUIRED_FIELDS if k not in doc]
    if missing:
        raise ValidationError(f"descriptor missing required field(s): {missing}", field=missing[0])
    unknown = [k for k in doc if k not in _REQUIRED_FIELDS and k not in _OPTIONAL_FIELDS]
    if unknown:
        raise ValidationError(f"descriptor has unknown key(s): {unknown}", field=unknown[0])
    kwargs = dict(doc)
    kwargs["moe_layer_mask"] = tuple(kwargs["moe_layer_mask"])
    if kwargs.get("params_expert_by_index") is not None:
        kwargs["params_expert_by_index"] = tuple(kwargs["params_expert_by_index"])
    return ModelDescriptor(**kwargs)


def descriptor_to_dict(desc: ModelDescriptor) -> dict:
    doc: dict = {}
    for f in _dc_fields(ModelDescriptor):
        value = getattr(desc, f.name)
        if isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return doc


def load_model_descriptor(path: str | Path) -> ModelDescriptor:
    """Load and validate a descriptor JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"descriptor {path}: invalid JSON ({exc})", field="document") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"descriptor {path}: expected a JSON object", field="document")
    return descriptor_from_dict(doc)


def serialize_model_descriptor(desc: ModelDescriptor) -> str:
    return json.dumps(descriptor_to_dict(desc), indent=2, sort_keys=True) + "\n"
