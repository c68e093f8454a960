"""Routing: distributions, simulated sheets, expected activation.

Everything here models how a router picks experts, as opposed to reading
what one recorded (``trace``): the routing distributions, the simulator
that synthesizes activation sheets from them, and the expected number of
distinct experts a batch activates. Expected activation is exact, not
sampled: a closed form under uniform routing and an exponential-race
quadrature otherwise. numpy is imported inside the functions that need it,
so uniform expected-mode planning loads this module but not numpy.

Simulation determinism: pass ``i`` draws from
``numpy.random.default_rng(SeedSequence(seed).spawn(n_passes)[i])``, so
per-pass work can be parallelized without changing results. Within a pass,
the uniforms u come in (token, layer, expert) C order, drawn in bounded
token blocks that continue one stream, so a smaller batch consumes a prefix
of a larger batch's stream and nested batches activate nested expert sets.
Each token keeps the top_k experts with the earliest race times
-log(1 - u) / p: the same doubles numpy's Gumbel sampler turns into
G = -log(-log(1 - u)), and the same choice as Gumbel-top-k of log p + G.
Like that sampler, the race drops a uniform of exactly 0.0 and gives every
later cell the next draw, so the two read one stream. The two forms agree
in exact arithmetic; in floating point they could differ only on keys
within a few ulps. Byte-identical output on 180 shapes and the pinned
hashes in the tests are the evidence that they do not.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from .errors import ValidationError, record
from .models import ModelDescriptor
from .trace import PHASES, ActivationSheet, ForwardPassRecord

# --------------------------------------------------------------------------
# Routing distributions
# --------------------------------------------------------------------------

@record
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
            # a tuple keeps the distribution hashable, as the expectation cache needs
            object.__setattr__(self, "weights", tuple(self.weights))
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


# Uniform cells (tokens x layers x experts) drawn at a time: a pass's memory
# stays bounded whatever its token count. A block and its partition copy
# set a pass's peak, so 2^14 cells hold one deepseek-r1 token (58 x 256
# cells, 116 KiB of doubles). Measured on a 2-core x86-64 host, r1
# zipf:1.1, for 2^13 / 2^14 / 2^15 / 2^16 / 2^17 cells:
#   tracemalloc peak of a batch-64 pass  0.34 / 0.34 / 0.58 / 1.06 / 2.02 MiB
#   batch 1-64, 24 passes each, median   597 / 560 / 535 / 517 / 553 ms
#   child peak RSS, batch-64 simulate    36.29 / 36.25 / 36.44 / 36.92 MB (to 2^16)
# The time is in-process and drifts by more than the spread here; a
# 2048-token prefill pass took 1.07x as long at 2^14 as at 2^16.
_ROUTE_BLOCK_CELLS = 1 << 14


def _race_block(rng, shape: tuple[int, int, int], neg_inv_p: np.ndarray, k: int) -> np.ndarray:
    """Draw one block of tokens and return the (layers, experts) mask of the
    experts any of them selects: each token's k earliest race times
    -log(1 - u) / p per layer. ``neg_inv_p`` is -1/p (-inf for zero
    weights) up to a common positive factor. A zero uniform is dropped and
    every later cell takes the next draw, as numpy's Gumbel sampler does."""
    import numpy as np

    t = rng.random(size=shape)
    while t.min() == 0.0:
        kept = t[t != 0.0]
        t = np.concatenate((kept, rng.random(size=t.size - kept.size))).reshape(shape)
    np.log(np.subtract(1.0, t, out=t), out=t)
    t *= neg_inv_p
    won = t <= np.partition(t, k - 1, axis=-1)[..., k - 1 : k]
    # every row admits at least k; an exact tie at the k-th time admits more
    if np.count_nonzero(won) > k * (won.size // shape[-1]):
        won[...] = False
        np.put_along_axis(won, np.argpartition(t, k - 1, axis=-1)[..., :k], True, axis=-1)
    return won.any(axis=0)


def _route_pass(rng, shape: tuple[int, int, int], neg_inv_p: np.ndarray, k: int) -> np.ndarray:
    """(layers, experts) mask of the experts a pass of ``shape`` = (tokens,
    layers, experts) activates, drawn in token blocks from ``rng``.
    Consecutive draws continue one stream, so the blocking changes nothing."""
    import numpy as np

    tokens, n_layers, n = shape
    step = max(1, _ROUTE_BLOCK_CELLS // (n_layers * n))
    hit = np.zeros((n_layers, n), dtype=bool)
    for start in range(0, tokens, step):
        # bound before the union: freeing each mask at once let the heap trim and refault every block
        won = _race_block(rng, (min(step, tokens - start), n_layers, n), neg_inv_p, k)
        hit |= won
    return hit


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
    layer; a pass's activated set is the union over its tokens. Pass i draws
    uniforms u from ``default_rng(SeedSequence(seed).spawn(n_passes)[i])``
    in (token, layer, expert) C order. That child is
    ``SeedSequence(seed, spawn_key=(i,))``, which each pass builds alone,
    so the n_passes children are never held at once. Each token keeps the
    k experts with the earliest race times -log(1 - u) / p. These are the
    doubles numpy's Gumbel sampler turns into G = -log(-log(1 - u)), and the
    selection is Gumbel-top-k of log p + G, equivalent in distribution to
    sequential weighted draws with renormalization. A zero uniform is skipped
    in the stream, as that sampler skips it. top_k == n_expert needs no
    special case: every expert then wins. The two forms agree in
    exact arithmetic; in floating point they could differ only on keys
    within a few ulps (see the module docstring). Tokens are drawn in blocks
    of about ``_ROUTE_BLOCK_CELLS`` uniforms, so memory does not grow with
    tokens_per_pass. latency_s is a placeholder unless a latency model
    supplies real values downstream.
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
    _check_support(p, desc.top_k)
    # 1/p up to the exact factor 2^-64, which keeps it finite for subnormal
    # weights and never reorders race times
    with np.errstate(divide="ignore"):
        neg_inv_p = -1.0 / (p * 2.0**64)
    moe_layers = desc.moe_layers
    shape = (tokens, len(moe_layers), desc.n_expert)

    passes = []
    for pass_id in range(n_passes):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(pass_id,)))
        hit = _route_pass(rng, shape, neg_inv_p, desc.top_k)
        packed = np.packbits(hit, axis=-1, bitorder="little")
        bitmaps = {layer: int.from_bytes(row.tobytes(), "little") for layer, row in zip(moe_layers, packed)}
        passes.append(ForwardPassRecord._from_packed(pass_id, phase, batch, tokens, latency_s, 0, bitmaps))
    return ActivationSheet(model_name=desc.name, passes=passes)


# --------------------------------------------------------------------------
# Expected distinct experts
# --------------------------------------------------------------------------

@record
class ExpectedDistinct:
    """Expected distinct routed experts per MoE layer, and its exact method."""

    value: float
    method: str


# Trapezoid step in s = ln t; the integrand is analytic, so the error falls
# geometrically with the step (about 4e-13 at 0.25, rounding at 0.125).
_RACE_STEP = 0.125
# The grid is cut into node blocks so that (experts + 1) x counts x nodes
# stays below this. The cut sets how each expert's sum over nodes is
# grouped, so changing it changes the last bits of r_i.
_RACE_BLOCK_CELLS = 1 << 20


def _topk_inclusion_probs(p: np.ndarray, k: int) -> np.ndarray:
    """r_i = P(expert i is among one token's k sequential weighted draws
    without replacement); fewer than k positive weights are rejected.

    Exponential race: expert i fires at an Exp(p_i) time and the k earliest
    win, so r_i = integral over ln t of p_i t e^(-p_i t) P(at most k-1 others
    fired by t). That count is Poisson-binomial in 1 - e^(-p_j t); the counts
    among the experts before i (prefix) and after i (suffix), truncated at k,
    give it for every i without division. All terms are positive, so tiny
    r_i keep full precision.

    Memory is O(sqrt(E) k nodes), not O(E k nodes). A forward sweep keeps
    the prefix row only at the start of each segment of g = ceil(sqrt(E))
    experts. A backward sweep, last segment first, rebuilds the segment's
    prefix rows from its checkpoint and its suffix rows from the one row
    carried down from the segment after it, then combines them. Every row
    comes from the same recurrence as full tables would, so r_i is too.

    A zero-weight expert never fires: its step leaves every row exactly as
    it was and its r_i is exactly 0. So only the positive weights are
    swept, and r is scattered back with zeros elsewhere.
    """
    import numpy as np

    positive = np.flatnonzero(p > 0)
    log_p = _check_support(p, k)[positive]
    # Outside this range every integrand is below e^-40 of its peak.
    s = np.arange(-log_p.max() - 40.0, -log_p.min() + 4.0, _RACE_STEP)
    # the full length sets the node blocks, so each sum is grouped as if every expert were swept
    n_blocks = -(-len(s) * (len(p) + 1) * k // _RACE_BLOCK_CELLS)
    m = len(log_p)
    g = math.isqrt(m - 1) + 1
    total = np.zeros(m)

    def step(row, fired, idle, out=None):
        # count row after one more expert: row[c] is P(exactly c fired), c < k
        out = np.multiply(row, idle, out=out)
        out[1:] += row[:-1] * fired
        return out

    for s_block in np.array_split(s, n_blocks):

        def segment(lo):
            # x = p t from log space, capped where e^-x is already 0 so it stays finite
            log_x = log_p[lo : lo + g, None] + s_block
            x = np.exp(np.minimum(log_x, 700.0))
            return -np.expm1(-x), np.exp(-x), log_x - x

        # prefix[j, c] (suffix[j, c]): P(exactly c of the experts before
        # (from) lo + j fired), c < k; the suffix has one row more, for lo + n
        prefix, suffix = np.zeros((g, k, len(s_block))), np.zeros((g + 1, k, len(s_block)))
        row = np.zeros((k, len(s_block)))
        row[0] = 1.0  # of no experts, none fired
        checkpoints, carry = [row], row
        for lo in range(0, m - g, g):
            fired, idle, _ = segment(lo)
            for j in range(g):
                row = step(row, fired[j], idle[j])
            checkpoints.append(row)
        for lo in reversed(range(0, m, g)):
            fired, idle, log_w = segment(lo)
            n = len(fired)
            prefix[0] = checkpoints.pop()
            for j in range(n - 1):
                step(prefix[j], fired[j], idle[j], out=prefix[j + 1])
            suffix[n] = carry
            for j in reversed(range(n)):
                step(suffix[j + 1], fired[j], idle[j], out=suffix[j])
            carry = suffix[0].copy()
            # P(at most k-1 others) = sum_c prefix[i, c] * P(at most k-1-c of i+1.. fired).
            # The cumulative sum over c overwrites suffix rows the next segment rewrites.
            tail = suffix[1 : n + 1]
            for c in range(1, k):
                tail[:, c] += tail[:, c - 1]
            others = np.einsum("ict,ict->it", prefix[:n], tail[:, ::-1])
            total[lo : lo + n] += (np.exp(log_w) * others).sum(axis=1)
    r = np.zeros(len(p))
    r[positive] = np.minimum(_RACE_STEP * total, 1.0)
    return r


@functools.lru_cache(maxsize=32)
def _inclusion_probs(n_expert: int, top_k: int, dist: RoutingDistribution) -> np.ndarray:
    """``_topk_inclusion_probs`` for one routing setting, computed once per
    process: r_i does not depend on the batch, so a sweep pays for one
    quadrature. Read-only, because every caller shares the array."""
    r = _topk_inclusion_probs(dist.probabilities(n_expert), top_k)
    r.flags.writeable = False
    return r


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
    return ExpectedDistinct(value=float(_batch_hit_probs(n_expert, top_k, batch, dist).sum()), method="quadrature")


def _batch_hit_probs(n_expert: int, top_k: int, batch: int, dist: RoutingDistribution) -> np.ndarray:
    """1 - (1 - r_i)^batch for each expert i: the probability that at least
    one of ``batch`` independent tokens routes to it, r_i being its top-k
    inclusion probability (exactly k/E under uniform routing)."""
    import numpy as np

    if dist.kind == "uniform":
        r = np.full(n_expert, top_k / n_expert)
    else:
        r = _inclusion_probs(n_expert, top_k, dist)
    with np.errstate(divide="ignore"):
        return -np.expm1(batch * np.log1p(-r))
