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

In memory a pass holds the same numbers: one packed Python ``int`` per MoE
layer, routed expert i at bit i. Parsing is ``int(hex, 16)``, validation is
``bit_length``/``bit_count``, and accounting is a popcount times the expert
size (the sizes of the set bits when expert sizes differ). numpy is
imported only by the functions that simulate routing or compute
expectations.

Simulation determinism: pass ``i`` draws from
``numpy.random.default_rng(SeedSequence(seed).spawn(n_passes)[i])``, so
per-pass work can be parallelized without changing results. Within a pass,
token ``t`` consumes row ``t`` of a single ``(tokens, layers, experts)``
Gumbel draw, so a smaller batch consumes a prefix of a larger batch's
stream and nested batches activate nested expert sets.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ValidationError
from .models import (
    ModelDescriptor,
    activated_params_from_sets,
    expert_indices,
    total_params,
)

PHASES = ("prefill", "decode")


@dataclass
class ForwardPassRecord:
    """One forward pass: batch geometry, wall time, and one activation
    bitmap per MoE layer (routed expert i at bit i).

    ``bitmaps`` also takes an iterable of expert indices per layer, packed
    once here. ``activated`` unpacks the bitmaps into index sets on access,
    for readers; validation and accounting work on the bitmaps.
    """

    pass_id: int
    phase: str
    batch_size: int
    tokens_processed: int
    latency_s: float
    kv_bytes_read: int
    bitmaps: dict[int, int]

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
        try:
            self.bitmaps = {
                int(layer): b if type(b) is int and b >= 0 else sum(1 << i for i in {operator.index(i) for i in b})
                for layer, b in self.bitmaps.items()
            }
        except (TypeError, ValueError):
            raise ValidationError(
                f"pass {self.pass_id}: activations must be bitmaps or non-negative integer expert indices",
                field="activated",
            ) from None

    @property
    def activated(self) -> Mapping[int, frozenset[int]]:
        return MappingProxyType({layer: frozenset(expert_indices(b)) for layer, b in self.bitmaps.items()})


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
    n_expert = desc.n_expert
    lower = min(desc.top_k, n_expert)
    for rec in sheet.passes:
        if rec.bitmaps.keys() != moe_layers:
            raise ValidationError(
                f"pass {rec.pass_id}: activated layers {sorted(rec.bitmaps)} do not match "
                f"the model's MoE layers {sorted(moe_layers)}",
                field="activated",
            )
        # prefill passes have no bound beyond n_expert, which the range check enforces
        upper = min(n_expert, rec.batch_size * desc.top_k) if rec.phase == "decode" else n_expert
        for layer, bitmap in rec.bitmaps.items():
            if bitmap.bit_length() > n_expert:
                raise ValidationError(
                    f"pass {rec.pass_id}: expert index {bitmap.bit_length() - 1} out of range for "
                    f"{n_expert}-expert layer {layer}",
                    field="activated",
                )
            count = bitmap.bit_count()
            if count < lower:
                raise ValidationError(
                    f"pass {rec.pass_id}: layer {layer} activates {count} experts, "
                    f"fewer than one token requires ({lower})",
                    field="activated",
                )
            if count > upper:
                raise ValidationError(
                    f"pass {rec.pass_id}: layer {layer} activates {count} experts, "
                    f"more than batch_size*top_k allows ({upper})",
                    field="activated",
                )


# --------------------------------------------------------------------------
# Trace file parsing / serialization
# --------------------------------------------------------------------------

# bare hex digits only: int(s, 16) alone would also take signs, 0x, _ and spaces
_BARE_HEX = re.compile(r"[0-9a-fA-F]+")


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
        bitmaps: dict[int, int] = {}
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
                if layer in bitmaps:
                    raise ValidationError(
                        f"pass {pass_id}: duplicate layer {layer} in bitmap list", field="activated"
                    )
                if not _BARE_HEX.fullmatch(hexstr):
                    raise ValidationError(f"pass {pass_id}: malformed bitmap {hexstr!r}", field="activated")
                bitmaps[layer] = int(hexstr, 16)
        passes.append(
            ForwardPassRecord(
                pass_id=pass_id,
                phase=phase,
                batch_size=batch_size,
                tokens_processed=tokens,
                latency_s=latency_s,
                kv_bytes_read=kv_bytes,
                bitmaps=bitmaps,
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
    hex_format = f"0{max(1, math.ceil(desc.n_expert / 4))}x"
    out = [f"model={sheet.model_name}"]
    for rec in sheet.passes:
        bitmaps = ";".join(f"{layer}:{rec.bitmaps[layer]:{hex_format}}" for layer in sorted(rec.bitmaps))
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
        import numpy as np

        if self.kind == "uniform":
            return np.full(n_expert, 1.0 / n_expert)
        if self.kind == "zipf":
            # a rank**s that overflows to inf gives the correctly rounded weight 0
            with np.errstate(over="ignore"):
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
    import numpy as np

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
    import numpy as np

    if batch < 1:
        raise ValidationError("batch must be >= 1", field="batch")
    if n_passes < 1:
        raise ValidationError("n_passes must be >= 1", field="n_passes")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}", field="seed")
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
    n, k = desc.n_expert, desc.top_k
    layer_rows = np.arange(len(moe_layers))[:, None]

    children = np.random.SeedSequence(seed).spawn(n_passes)
    passes = []
    for pass_id, ss in enumerate(children):
        rng = np.random.default_rng(ss)
        # One draw covers all tokens; smaller batches consume a prefix, so
        # nested batches yield nested activated sets.
        keys = log_p + rng.gumbel(size=(tokens, len(moe_layers), n))
        hit = np.full((len(moe_layers), n), k == n)
        if k < n:
            hit[layer_rows, np.argpartition(-keys, k - 1, axis=-1)[..., :k]] = True
        packed = np.packbits(hit, axis=-1, bitorder="little")
        bitmaps = {layer: int.from_bytes(row.tobytes(), "little") for layer, row in zip(moe_layers, packed)}
        passes.append(
            ForwardPassRecord(
                pass_id=pass_id,
                phase=phase,
                batch_size=batch,
                tokens_processed=tokens,
                latency_s=latency_s,
                kv_bytes_read=0,
                bitmaps=bitmaps,
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
    import numpy as np

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
        # P(at most k-1 others) = sum_c prefix[i, c] * P(at most k-1-c of i+1.. fired);
        # the cumulative sum overwrites suffix, which is not read again, to save a copy
        others = np.einsum("ict,ict->it", prefix[:-1], np.cumsum(suffix, axis=1, out=suffix)[1:, ::-1])
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
    import numpy as np

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
    import numpy as np

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
    expert_total = len(desc.moe_layers) * (
        sum(desc.routed_expert_sizes()) + desc.n_shared * desc.params_shared_expert
    )
    fracs = []
    fracs_expert = []
    for rec in sheet.passes:
        act = activated_params_from_sets(desc, rec.bitmaps)
        fracs.append(act / total)
        # every pass reads all non-expert parameters, total - expert_total
        fracs_expert.append((act - total + expert_total) / expert_total if expert_total > 0 else 1.0)
    return ActivatedFractionReport(
        per_pass=tuple(fracs),
        mean=sum(fracs) / len(fracs),
        per_pass_expert_only=tuple(fracs_expert),
        mean_expert_only=sum(fracs_expert) / len(fracs_expert),
    )
