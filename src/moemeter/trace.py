"""Activation sheets: recorded or simulated per-pass expert routing.

An activation sheet is the runtime realization of the per-layer expert
indicator: for every forward pass it records which routed experts each MoE
layer touched, together with batch size, token count and wall time. Sheets
come either from an external profiler (parsed here) or from the routing
simulator below, which doubles as the Monte-Carlo oracle for the
expected-activation analytics.

Trace file format (line-delimited, UTF-8, ``#`` starts a comment line)::

    model=<descriptor name>
    pass_id,phase,batch_size,tokens_processed,latency_s,kv_bytes_read,L:HEX;L:HEX;...

Each non-comment line after the ``model=`` header is one forward pass. The
final field lists one ``layer:bitmap`` entry per MoE layer, layers
ascending; the bitmap is lowercase hex, zero-padded to ceil(n_expert/4)
nibbles, and expert 0 is the least-significant bit of the last hex char.
Shared experts are never recorded (they are active by definition); metric
code adds them analytically.

Simulation determinism: pass ``i`` draws from
``numpy.random.default_rng(SeedSequence(seed).spawn(n_passes)[i])``, so
per-pass work can be parallelized without changing results. Within a pass,
token ``t`` consumes row ``t`` of a single ``(tokens, layers, experts)``
Gumbel draw, so a smaller batch consumes a prefix of a larger batch's
stream and nested batches activate nested expert sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .models import (
    ModelDescriptor,
    activated_params_from_sets,
    total_params,
)

PHASES = ("prefill", "decode")


@dataclass
class ForwardPassRecord:
    """One forward pass: batch geometry, wall time, and the per-MoE-layer
    set of activated routed-expert indices."""

    pass_id: int
    phase: str
    batch_size: int
    tokens_processed: int
    latency_s: float
    kv_bytes_read: int
    activated: dict[int, frozenset[int]]

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValidationError(
                f"pass {self.pass_id}: phase must be one of {PHASES}, got {self.phase!r}",
                field="phase",
            )
        if self.batch_size < 1:
            raise ValidationError(f"pass {self.pass_id}: batch_size must be >= 1", field="batch_size")
        if self.latency_s <= 0:
            raise ValidationError(f"pass {self.pass_id}: latency_s must be > 0", field="latency_s")
        if self.kv_bytes_read < 0:
            raise ValidationError(f"pass {self.pass_id}: kv_bytes_read must be >= 0", field="kv_bytes_read")
        if self.phase == "decode" and self.tokens_processed != self.batch_size:
            raise ValidationError(
                f"pass {self.pass_id}: decode pass must have tokens_processed == batch_size",
                field="tokens_processed",
            )
        if self.phase == "prefill" and self.tokens_processed < self.batch_size:
            raise ValidationError(
                f"pass {self.pass_id}: prefill pass must have tokens_processed >= batch_size",
                field="tokens_processed",
            )
        self.activated = {int(l): frozenset(int(i) for i in s) for l, s in self.activated.items()}


@dataclass
class ActivationSheet:
    model_name: str
    passes: list[ForwardPassRecord] = field(default_factory=list)

    def __post_init__(self):
        if not self.passes:
            raise ValidationError("activation sheet must contain at least one pass", field="passes")


def validate_sheet(sheet: ActivationSheet, desc: ModelDescriptor) -> None:
    """Check a sheet against a descriptor: layer/expert index ranges, MoE
    layer coverage, and per-layer activation cardinality bounds."""
    if sheet.model_name != desc.name:
        raise ValidationError(
            f"sheet is for model {sheet.model_name!r}, descriptor is {desc.name!r}",
            field="model_name",
        )
    moe_layers = set(desc.moe_layers)
    lower = min(desc.top_k, desc.n_expert)
    for rec in sheet.passes:
        layers = set(rec.activated)
        if layers != moe_layers:
            raise ValidationError(
                f"pass {rec.pass_id}: activated layers {sorted(layers)} do not match "
                f"the model's MoE layers {sorted(moe_layers)}",
                field="activated",
            )
        for layer, idxs in rec.activated.items():
            for i in idxs:
                if not 0 <= i < desc.n_expert:
                    raise ValidationError(
                        f"pass {rec.pass_id}: expert index {i} out of range for "
                        f"{desc.n_expert}-expert layer {layer}",
                        field="activated",
                    )
            if len(idxs) < lower:
                raise ValidationError(
                    f"pass {rec.pass_id}: layer {layer} activates {len(idxs)} experts, "
                    f"fewer than one token requires ({lower})",
                    field="activated",
                )
            if rec.phase == "decode":
                upper = min(desc.n_expert, rec.batch_size * desc.top_k)
                if len(idxs) > upper:
                    raise ValidationError(
                        f"pass {rec.pass_id}: layer {layer} activates {len(idxs)} experts, "
                        f"more than batch_size*top_k allows ({upper})",
                        field="activated",
                    )


# --------------------------------------------------------------------------
# Trace file parsing / serialization
# --------------------------------------------------------------------------

_HEX_CHARS = set("0123456789abcdefABCDEF")


def _bitmap_to_set(hexstr: str, pass_id: int) -> frozenset[int]:
    # bare hex digits only: int(s, 16) would tolerate signs and 0x prefixes
    if not hexstr or set(hexstr) - _HEX_CHARS:
        raise ValidationError(f"pass {pass_id}: malformed bitmap {hexstr!r}", field="activated")
    value = int(hexstr, 16)
    out = set()
    i = 0
    while value:
        if value & 1:
            out.add(i)
        value >>= 1
        i += 1
    return frozenset(out)


def _set_to_bitmap(idxs: frozenset[int], n_expert: int) -> str:
    value = 0
    for i in idxs:
        value |= 1 << i
    width = max(1, math.ceil(n_expert / 4))
    return format(value, "x").zfill(width)


def parse_activation_sheet(
    source: str | Iterable[str], desc: ModelDescriptor | None = None
) -> ActivationSheet:
    """Parse a trace document (text or an iterable of lines).

    If ``desc`` is given, the sheet is additionally validated against the
    model. Violations are rejected with the offending line or pass id.
    """
    lines: Iterator[tuple[int, str]]
    if isinstance(source, str):
        lines = ((n + 1, line) for n, line in enumerate(source.splitlines()))
    else:
        lines = ((n + 1, line.rstrip("\n")) for n, line in enumerate(source))

    model_name: str | None = None
    passes: list[ForwardPassRecord] = []
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if model_name is None:
            if not line.startswith("model="):
                raise ValidationError(
                    f"line {lineno}: expected 'model=<name>' header before pass records",
                    field="model",
                )
            model_name = line[len("model="):]
            if not model_name:
                raise ValidationError(f"line {lineno}: empty model name", field="model")
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 7:
            raise ValidationError(
                f"line {lineno}: expected 7 comma-separated fields, got {len(parts)}",
                field="record",
            )
        try:
            pass_id = int(parts[0])
            phase = parts[1]
            batch_size = int(parts[2])
            tokens = int(parts[3])
            latency_s = float(parts[4])
            kv_bytes = int(parts[5])
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: malformed field ({exc})", field="record") from None
        activated: dict[int, frozenset[int]] = {}
        if parts[6]:
            for entry in parts[6].split(";"):
                if ":" not in entry:
                    raise ValidationError(
                        f"pass {pass_id}: malformed layer entry {entry!r}", field="activated"
                    )
                layer_str, hexstr = entry.split(":", 1)
                try:
                    layer = int(layer_str)
                except ValueError:
                    raise ValidationError(
                        f"pass {pass_id}: malformed layer index {layer_str!r}", field="activated"
                    ) from None
                if layer in activated:
                    raise ValidationError(
                        f"pass {pass_id}: duplicate layer {layer} in bitmap list", field="activated"
                    )
                activated[layer] = _bitmap_to_set(hexstr, pass_id)
        passes.append(
            ForwardPassRecord(
                pass_id=pass_id,
                phase=phase,
                batch_size=batch_size,
                tokens_processed=tokens,
                latency_s=latency_s,
                kv_bytes_read=kv_bytes,
                activated=activated,
            )
        )
    if model_name is None:
        raise ValidationError("trace has no 'model=' header", field="model")
    sheet = ActivationSheet(model_name=model_name, passes=passes)
    if desc is not None:
        validate_sheet(sheet, desc)
    return sheet


def load_activation_sheet(path: str | Path, desc: ModelDescriptor | None = None) -> ActivationSheet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_activation_sheet(fh.read(), desc)


def serialize_activation_sheet(sheet: ActivationSheet, desc: ModelDescriptor) -> str:
    """Canonical text form of a sheet (the exact format parse accepts)."""
    out = [f"model={sheet.model_name}"]
    for rec in sheet.passes:
        bitmaps = ";".join(
            f"{layer}:{_set_to_bitmap(rec.activated[layer], desc.n_expert)}"
            for layer in sorted(rec.activated)
        )
        out.append(
            f"{rec.pass_id},{rec.phase},{rec.batch_size},{rec.tokens_processed},"
            f"{rec.latency_s!r},{rec.kv_bytes_read},{bitmaps}"
        )
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Routing distributions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RoutingDistribution:
    """Per-token router behavior used by the simulator: each token draws
    top_k distinct experts by sequential probability-proportional sampling
    without replacement from these weights."""

    kind: str
    zipf_s: float = 0.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "zipf", "empirical"):
            raise ValidationError(f"unknown distribution kind {self.kind!r}", field="kind")
        if self.kind == "zipf" and not 0 <= self.zipf_s < math.inf:
            raise ValidationError("zipf exponent must be finite and >= 0", field="zipf_s")
        if self.kind == "empirical":
            if self.weights is None:
                raise ValidationError("empirical distribution requires weights", field="weights")
            if any(w < 0 for w in self.weights):
                raise ValidationError("empirical weights must be non-negative", field="weights")
            s = sum(self.weights)
            if not math.isclose(s, 1.0, rel_tol=1e-9, abs_tol=1e-12):
                raise ValidationError(f"empirical weights must sum to 1, got {s}", field="weights")

    @classmethod
    def uniform(cls) -> "RoutingDistribution":
        return cls(kind="uniform")

    @classmethod
    def zipf(cls, s: float) -> "RoutingDistribution":
        return cls(kind="zipf", zipf_s=s)

    @classmethod
    def empirical(cls, weights: Sequence[float]) -> "RoutingDistribution":
        return cls(kind="empirical", weights=tuple(float(w) for w in weights))

    def probabilities(self, n_expert: int) -> np.ndarray:
        if self.kind == "uniform":
            return np.full(n_expert, 1.0 / n_expert)
        if self.kind == "zipf":
            w = 1.0 / np.arange(1, n_expert + 1, dtype=float) ** self.zipf_s
            return w / w.sum()
        assert self.weights is not None
        if len(self.weights) != n_expert:
            raise ValidationError(
                f"empirical weight vector has length {len(self.weights)}, expected {n_expert}",
                field="weights",
            )
        w = np.asarray(self.weights, dtype=float)
        return w / w.sum()


def _parse_number(text: str, cast: type, field: str):
    try:
        return cast(text)
    except ValueError:
        raise ValidationError(f"malformed number {text!r} in {field}", field=field) from None


def _parse_dist_spec(spec: str) -> RoutingDistribution:
    """Parse a CLI-style distribution spec: 'uniform', 'zipf:S', 'empirical:p1,p2,...'."""
    if spec == "uniform":
        return RoutingDistribution.uniform()
    if spec.startswith("zipf:"):
        return RoutingDistribution.zipf(_parse_number(spec[len("zipf:"):], float, "dist"))
    if spec.startswith("empirical:"):
        return RoutingDistribution.empirical([_parse_number(x, float, "dist") for x in spec[len("empirical:"):].split(",")])
    raise ValidationError(f"cannot parse distribution spec {spec!r}", field="dist")


# --------------------------------------------------------------------------
# Simulation
# --------------------------------------------------------------------------

def _check_support(p: np.ndarray, top_k: int) -> np.ndarray:
    if int((p > 0).sum()) < top_k:
        raise ValidationError(
            f"distribution has fewer than top_k={top_k} experts with positive weight",
            field="weights",
        )
    with np.errstate(divide="ignore"):
        return np.where(p > 0, np.log(p), -np.inf)


def simulate_routing(
    desc: ModelDescriptor,
    batch: int,
    dist: RoutingDistribution,
    n_passes: int,
    seed: int,
    phase: str = "decode",
    tokens_per_pass: int | None = None,
    latency_s: float = 1.0,
) -> ActivationSheet:
    """Synthesize an activation sheet by sampling per-token routing.

    Each token independently selects top_k distinct routed experts per MoE
    layer (Gumbel-top-k over log weights, equivalent in distribution to
    sequential weighted draws with renormalization); a pass's activated set
    is the union over its tokens. latency_s is a placeholder unless a
    latency model supplies real values downstream.
    """
    if batch < 1:
        raise ValidationError("batch must be >= 1", field="batch")
    if n_passes < 1:
        raise ValidationError("n_passes must be >= 1", field="n_passes")
    if phase not in PHASES:
        raise ValidationError(f"phase must be one of {PHASES}", field="phase")
    tokens = batch if phase == "decode" else (tokens_per_pass if tokens_per_pass is not None else batch)
    if phase == "decode" and tokens_per_pass is not None and tokens_per_pass != batch:
        raise ValidationError("decode passes process exactly one token per sequence", field="tokens_per_pass")
    if tokens < batch:
        raise ValidationError("tokens_per_pass must be >= batch", field="tokens_per_pass")

    p = dist.probabilities(desc.n_expert)
    log_p = _check_support(p, desc.top_k)
    moe_layers = desc.moe_layers
    k = desc.top_k

    children = np.random.SeedSequence(seed).spawn(n_passes)
    passes = []
    for pass_id, ss in enumerate(children):
        rng = np.random.default_rng(ss)
        # One draw covers all tokens; smaller batches consume a prefix, so
        # nested batches yield nested activated sets.
        keys = log_p + rng.gumbel(size=(tokens, len(moe_layers), desc.n_expert))
        if k < desc.n_expert:
            top = np.argpartition(-keys, k - 1, axis=-1)[..., :k]
        else:
            top = np.broadcast_to(np.arange(desc.n_expert), keys.shape[:2] + (desc.n_expert,))
        activated = {
            layer: frozenset(np.unique(top[:, j, :]).tolist())
            for j, layer in enumerate(moe_layers)
        }
        passes.append(
            ForwardPassRecord(
                pass_id=pass_id,
                phase=phase,
                batch_size=batch,
                tokens_processed=tokens,
                latency_s=latency_s,
                kv_bytes_read=0,
                activated=activated,
            )
        )
    return ActivationSheet(model_name=desc.name, passes=passes)


# --------------------------------------------------------------------------
# Expected distinct experts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectedDistinct:
    """Expected distinct routed experts per MoE layer, and its exact method."""

    value: float
    method: str


# Trapezoid step in s = ln t; the integrand is analytic, so the error falls
# geometrically with the step (about 4e-13 at 0.25, rounding at 0.125).
_RACE_STEP = 0.125
# Bound on experts x counts x grid nodes per block of the count tables.
_RACE_BLOCK_CELLS = 1 << 20


def _topk_inclusion_probs(p: np.ndarray, k: int) -> np.ndarray:
    """r_i = P(expert i is among one token's k sequential weighted draws
    without replacement); fewer than k positive weights are rejected.

    Exponential race: expert i fires at an Exp(p_i) time and the k earliest
    win, so r_i = integral over ln t of p_i t e^(-p_i t) P(at most k-1 others
    fired by t). That count is Poisson-binomial in 1 - e^(-p_j t); prefix and
    suffix tables of it, truncated at k, give it for every i at once without
    division. All terms are positive, so tiny r_i keep full precision.
    """
    log_p = _check_support(p, k)
    m = len(p)
    # Outside this range every integrand is below e^-40 of its peak.
    s = np.arange(-log_p.max() - 40.0, -log_p[p > 0].min() + 4.0, _RACE_STEP)
    total = np.zeros(m)
    for s_block in np.array_split(s, -(-len(s) * (m + 1) * k // _RACE_BLOCK_CELLS)):
        # x = p t from log space, capped where e^-x is already 0 so it stays finite
        log_x = log_p[:, None] + s_block
        x = np.exp(np.minimum(log_x, 700.0))
        fired, idle = -np.expm1(-x), np.exp(-x)
        # prefix[j, c] (suffix[j, c]): P(exactly c of experts 0..j-1 (j..m-1) fired), c < k
        prefix, suffix = np.zeros((2, m + 1, k, len(s_block)))
        prefix[0, 0] = suffix[m, 0] = 1.0
        for j in range(m):
            prefix[j + 1] = prefix[j] * idle[j]
            prefix[j + 1, 1:] += prefix[j, :-1] * fired[j]
            i = m - 1 - j
            suffix[i] = suffix[i + 1] * idle[i]
            suffix[i, 1:] += suffix[i + 1, :-1] * fired[i]
        # P(at most k-1 others) = sum_c prefix[i, c] * P(at most k-1-c of i+1.. fired)
        others = np.einsum("ict,ict->it", prefix[:-1], np.cumsum(suffix, axis=1)[1:, ::-1])
        total += (np.exp(log_x - x) * others).sum(axis=1)
    return np.minimum(_RACE_STEP * total, 1.0)


def _mc_distinct_counts(
    p: np.ndarray, top_k: int, batch: int, n_passes: int, seed: int
) -> np.ndarray:
    """Vectorized Monte-Carlo draw of per-pass distinct expert counts.

    Uses float32 Gumbel keys and selects each token's top-k by comparing
    against its k-th largest key; exact float ties (~1e-7 per pair) can
    admit an extra expert, which perturbs the estimate orders of magnitude
    below the standard error at any practical pass count.
    """
    log_p32 = _check_support(p, top_k).astype(np.float32)
    n_expert = len(p)
    if top_k == n_expert:
        return np.full(n_passes, n_expert, dtype=np.int64)
    rng = np.random.default_rng(seed)
    counts = np.empty(n_passes, dtype=np.int64)
    chunk = max(1, min(n_passes, int(4e7) // max(1, batch * n_expert)))
    done = 0
    while done < n_passes:
        m = min(chunk, n_passes - done)
        u = rng.random(size=(m, batch, n_expert), dtype=np.float32)
        with np.errstate(divide="ignore"):
            keys = -np.log(-np.log(u))
        keys += log_p32
        kth_largest = np.partition(keys, n_expert - top_k, axis=-1)[..., n_expert - top_k]
        hit = (keys >= kth_largest[..., None]).any(axis=1)
        counts[done : done + m] = hit.sum(axis=1)
        done += m
    return counts


def expected_distinct_experts(
    n_expert: int,
    top_k: int,
    batch: int,
    dist: RoutingDistribution,
) -> ExpectedDistinct:
    """Expected number of distinct routed experts a batch activates in one
    MoE layer.

    Uniform routing: the closed form E * (1 - (1 - k/E)^batch) (``closed_form``).
    Otherwise sum_i (1 - (1 - r_i)^batch), r_i being the probability that expert
    i is in one token's top-k set, from the exact exponential-race quadrature
    to about 1e-14 relative (``quadrature``). Fewer than top_k positive
    weights are rejected.
    """
    if not 1 <= top_k <= n_expert:
        raise ValidationError("need 1 <= top_k <= n_expert", field="top_k")
    if batch < 1:
        raise ValidationError("batch must be >= 1", field="batch")
    if dist.kind == "uniform":
        value = n_expert * (1.0 - (1.0 - top_k / n_expert) ** batch)
        return ExpectedDistinct(value=value, method="closed_form")
    r = _topk_inclusion_probs(dist.probabilities(n_expert), top_k)
    with np.errstate(divide="ignore"):
        value = float(np.sum(-np.expm1(batch * np.log1p(-r))))
    return ExpectedDistinct(value=value, method="quadrature")


# --------------------------------------------------------------------------
# Activated-parameter fractions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ActivatedFractionReport:
    """Share of parameters a pass actually reads. ``per_pass`` counts every
    always-read component (attention, routers, shared experts, embeddings,
    dense layers); ``per_pass_expert_only`` restricts both numerator and
    denominator to expert parameters."""

    per_pass: tuple[float, ...]
    mean: float
    per_pass_expert_only: tuple[float, ...]
    mean_expert_only: float


def activated_fraction(sheet: ActivationSheet, desc: ModelDescriptor) -> ActivatedFractionReport:
    validate_sheet(sheet, desc)
    total = total_params(desc)
    sizes = desc.routed_expert_sizes()
    expert_total = sum(
        sum(sizes) + desc.n_shared * desc.params_shared_expert for moe in desc.moe_layer_mask if moe
    )
    fracs = []
    fracs_expert = []
    for rec in sheet.passes:
        act = activated_params_from_sets(desc, rec.activated)
        fracs.append(act / total)
        if expert_total > 0:
            act_expert = sum(
                sum(sizes[i] for i in rec.activated[layer]) + desc.n_shared * desc.params_shared_expert
                for layer in desc.moe_layers
            )
            fracs_expert.append(act_expert / expert_total)
        else:
            fracs_expert.append(1.0)
    return ActivatedFractionReport(
        per_pass=tuple(fracs),
        mean=sum(fracs) / len(fracs),
        per_pass_expert_only=tuple(fracs_expert),
        mean_expert_only=sum(fracs_expert) / len(fracs_expert),
    )
