"""Routing: distributions, simulated sheets, expected activation.

Everything here models how a router picks experts, as opposed to reading
what one recorded (``trace``): the routing distributions, the simulator
that synthesizes activation sheets from them, and the expected number of
distinct experts a batch activates. Expected activation is exact, not
sampled: a closed form under uniform routing, the weights themselves at
top_k = 1, and an exponential-race quadrature otherwise. The quadrature's
grid (``_race_grid``) starts only as far left of the largest weight's scale
as a stated bound on the dropped nodes needs, and adds those nodes' sum in
closed form. Two evaluators sum it with one recurrence: a small grid (at
most ``_LIST_RACE_CELLS`` experts x top_k x nodes) runs over Python lists
through ``math``, a larger one through the numpy kernel. Both take the
weights of ``probability_list`` and give one tuple. numpy is imported inside
the functions that need it, so uniform expected-mode planning, and zipf or
empirical planning of a model up to deepseek-v2-lite's size, load this
module but not numpy.

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
from operator import add, mul, neg, sub
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
        w = np.asarray(self._weights_for(n_expert), dtype=float)
        return w / w.sum()

    def probability_list(self, n_expert: int) -> list[float]:
        """``probabilities`` without numpy: libm's pow and a correctly
        rounded sum, so a weight may differ from it in the last bit."""
        if self.kind == "uniform":
            return [1.0 / n_expert] * n_expert
        if self.kind == "zipf":
            w = [_zipf_weight(rank, self.zipf_s) for rank in range(1, n_expert + 1)]
        else:
            w = self._weights_for(n_expert)
        total = math.fsum(w)
        return [x / total for x in w]

    def _weights_for(self, n_expert: int) -> tuple[float, ...]:
        assert self.weights is not None
        if len(self.weights) != n_expert:
            raise ValidationError(
                f"empirical weight vector has length {len(self.weights)}, expected {n_expert}",
                field="weights",
            )
        return self.weights


def _zipf_weight(rank: int, s: float) -> float:
    try:
        return 1.0 / float(rank) ** s
    except OverflowError:  # rank**s beyond a double: the correctly rounded weight is 0
        return 0.0


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

def _support(p: Sequence[float], top_k: int) -> list[int]:
    """Indices of the positive weights; fewer than top_k of them are rejected."""
    positive = [i for i, w in enumerate(p) if w > 0]
    if len(positive) < top_k:
        raise ValidationError(
            f"distribution has fewer than top_k={top_k} experts with positive weight",
            field="weights",
        )
    return positive


# Uniform cells (tokens x layers x experts) drawn at a time: a pass's memory
# stays bounded whatever its token count. A block and its partition copy
# set a pass's peak, so 2^14 cells hold one deepseek-r1 token (58 x 256
# cells, 116 KiB of doubles). Measured on a 2-core x86-64 host, r1
# zipf:1.1, for 2^13 / 2^14 / 2^15 / 2^16 / 2^17 cells:
#   tracemalloc peak of a batch-64 pass  0.34 / 0.34 / 0.58 / 1.06 / 2.02 MiB
#   batch 1-64, 24 passes each, median   638 / 682 / 605 / 652 / 710 ms
#   child peak RSS, batch-64 simulate    31.97 / 31.93 / 32.22 / 32.65 / 33.64 MB
# The times (in-process, one pinned CPU, 11 rounds interleaved per batch,
# identical sheets) overlap in their quartiles up to 2^16, and 2^14 beat 2^16
# in 3 of 11 rounds: no size below 2^17 is measurably fastest, and 2^14 has
# the smallest peak. A 2048-token prefill pass took 1.07x as long at 2^14.
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
    _support(p, desc.top_k)
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
        passes.append(ForwardPassRecord(pass_id, phase, batch, tokens, latency_s, 0, bitmaps))
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
# Largest relative error in r_i that the grid's left margin may leave: the
# left tail's terms past the two it sums in closed form (see _race_grid).
_RACE_TAIL_TOL = 2.0**-53


def _race_grid(log_p: Sequence[float], k: int) -> tuple[list[float], list[float]]:
    """Nodes s_j = ln t_j of the quadrature over the positive weights
    p_i = e^log_p[i] at top_k = k >= 2, and each expert's closed-form sum
    over the nodes left of the first.

    The nodes run from s_0 = -ln p_max - L in steps of h = ``_RACE_STEP``
    up to -ln p_min + 4, right of which every integrand is below e^-49 of
    its peak. The nodes left of s_0, s_0 - jh for j >= 1, have
    x = p_i t = x_0 q^j with x_0 = p_i t_0 <= e^-L and q = e^-h. There the
    integrand x e^-x P(at most k-1 others fired by t) differs from x - x^2
    by at most x^3/2 + x t^k/k!, since at least k others have fired with
    probability at most e_k(p_j t) <= (t sum p_j)^k/k! <= t^k/k!. So those
    nodes sum to x_0 q/(1 - q) - x_0^2 q^2/(1 - q^2), the tail returned
    here, which the step h weighs like any node. What the tail leaves out,
    h times that bound summed over j, is at most this fraction of r_i >= p_i:

        t_0^(k+1)/(k+1)! + e^(-2L) t_0/6,    t_0 = e^-L/p_max.

    L is the smallest multiple of h that holds each term to half of
    ``_RACE_TAIL_TOL``. Small k and flat weights (a small p_max, so a large
    t_0) need the widest margin: zipf:0 at (E, k) = (512, 2) takes
    L = 18.125 (177 nodes). At deepseek-r1's zipf:1.1 (256, 8) the second
    term sets L = 12.5 (181 nodes, against 401 on a fixed e^-40 margin).
    """
    top, ln_half_tol = max(log_p), math.log(_RACE_TAIL_TOL / 2)
    margin = max((-ln_half_tol - math.lgamma(k + 2)) / (k + 1) - top, (-ln_half_tol - math.log(6.0) - top) / 3)
    start = -top - _RACE_STEP * math.ceil(margin / _RACE_STEP)
    n = math.ceil((-min(log_p) + 4.0 - start) / _RACE_STEP)
    # q / (1 - q) = 1 / (e^h - 1), q^2 / (1 - q^2) = 1 / (e^2h - 1)
    x0 = [math.exp(lp + start) for lp in log_p]
    tail = [x / math.expm1(_RACE_STEP) - x * x / math.expm1(2 * _RACE_STEP) for x in x0]
    return [start + j * _RACE_STEP for j in range(n)], tail


def _topk_inclusion_probs(p: np.ndarray, k: int) -> np.ndarray:
    """r_i = P(expert i is among one token's k sequential weighted draws
    without replacement); fewer than k positive weights are rejected. At
    k = 1 that is p_i itself, returned as given.

    Exponential race: expert i fires at an Exp(p_i) time and the k earliest
    win, so r_i = integral over ln t of p_i t e^(-p_i t) P(at most k-1 others
    fired by t), summed on ``_race_grid``'s nodes plus its closed-form left
    tail. That count is Poisson-binomial in 1 - e^(-p_j t); the counts
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

    positive = _support(p, k)
    if k == 1:  # a single draw picks i with probability p_i
        return np.array(p, dtype=float)
    log_p = [math.log(p[i]) for i in positive]
    nodes, tail = _race_grid(log_p, k)
    log_p, s = np.array(log_p), np.array(nodes)
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
            tail_rows = suffix[1 : n + 1]
            for c in range(1, k):
                tail_rows[:, c] += tail_rows[:, c - 1]
            others = np.einsum("ict,ict->it", prefix[:n], tail_rows[:, ::-1])
            total[lo : lo + n] += (np.exp(log_w) * others).sum(axis=1)
    r = np.zeros(len(p))
    r[positive] = np.minimum(_RACE_STEP * (total + tail), 1.0)
    return r


# Largest positive experts x top_k x grid nodes given to the list evaluator;
# above it numpy's import pays for itself. Measured on a 2-core x86-64 host
# (Python 3.11, numpy 2.4), zipf:1.1, on the trimmed grid of _race_grid:
# one evaluator call in a fresh process, numpy's import included, median
# of 11 alternated runs on one pinned CPU:
#   (E, k)                    cells    list      numpy
#   mixtral-8x7b (8, 2)        2.5k    1.1 ms    49 ms   list won 11 of 11
#   qwen1.5-moe (60, 4)         40k     14 ms    50 ms   list won 11 of 11
#   deepseek-v2-lite (64, 6)    65k     22 ms    50 ms   list won 11 of 11
#   (112, 8)                   155k     50 ms    52 ms   list won 11 of 11
#   (120, 8)                   167k     54 ms    52 ms   list won 0 of 11
#   (128, 8)                   179k     58 ms    52 ms   list won 0 of 11
#   deepseek-r1 (256, 8)       371k    123 ms    56 ms   (median of 3)
# The list evaluator costs about 0.32 us a cell, numpy 48-52 ms of import
# plus 0.02 us a cell in that run; they cross near 160k cells. On the
# earlier e^-40 grid numpy's import read 65-95 ms and the crossing 174k,
# so the constant sits inside the import's spread and stays.
_LIST_RACE_CELLS = 170_000


def _race_inclusion_list(p: Sequence[float], k: int) -> list[float]:
    """``_topk_inclusion_probs`` over Python lists, each vectorized across
    the node grid: the same grid and tail, truncated prefix/suffix
    recurrence and cap min(step * sum, 1), with math's exp, expm1 and log
    (libm) and ``math.fsum`` over the nodes. r_i agrees with the numpy
    kernel to about 1e-15 relative, not bit for bit. Prefix rows are kept
    for every expert, so memory is O(E k nodes): callers keep the grid
    small."""
    positive = _support(p, k)
    if k == 1:  # a single draw picks i with probability p_i
        return list(p)
    log_p = [math.log(p[i]) for i in positive]
    s, tail = _race_grid(log_p, k)
    n = len(s)
    fired, idle, weight = [], [], []
    for lp in log_p:
        # x = p t from log space, capped where e^-x is already 0 so it stays finite
        log_x = list(map(lp.__add__, s))
        x = list(map(math.exp, log_x if log_x[-1] < 700.0 else [min(v, 700.0) for v in log_x]))
        neg_x = list(map(neg, x))
        fired.append(list(map(neg, map(math.expm1, neg_x))))
        idle.append(list(map(math.exp, neg_x)))
        weight.append(list(map(math.exp, map(sub, log_x, x))))

    def step(row, f, d):
        # count row after one more expert: row[c] is P(exactly c fired), c < k
        return [list(map(mul, row[0], d))] + [
            list(map(add, map(mul, row[c], d), map(mul, row[c - 1], f))) for c in range(1, k)
        ]

    row = [[1.0] * n] + [[0.0] * n for _ in range(k - 1)]  # of no experts, none fired
    prefix = []
    for f, d in zip(fired, idle):
        prefix.append(row)
        row = step(row, f, d)
    r = [0.0] * len(p)
    suffix = [[1.0] * n] + [[0.0] * n for _ in range(k - 1)]
    for j in reversed(range(len(positive))):
        # P(at most k-1 others) = sum_c prefix[j, c] * P(at most k-1-c of j+1.. fired)
        tail_rows = [suffix[0]]
        for c in range(1, k):
            tail_rows.append(list(map(add, tail_rows[-1], suffix[c])))
        others = list(map(mul, prefix[j][0], tail_rows[k - 1]))
        for c in range(1, k):
            others = list(map(add, others, map(mul, prefix[j][c], tail_rows[k - 1 - c])))
        r[positive[j]] = min(_RACE_STEP * (math.fsum(map(mul, weight[j], others)) + tail[j]), 1.0)
        suffix = step(suffix, fired[j], idle[j])
    return r


@functools.lru_cache(maxsize=32)
def _inclusion_probs(n_expert: int, top_k: int, dist: RoutingDistribution) -> tuple[float, ...]:
    """r_i for one routing setting, computed once per process: r_i does not
    depend on the batch, so a sweep pays for one quadrature. The weights
    come from ``probability_list``. The list evaluator takes top_k = 1,
    which needs no grid, and every grid of at most ``_LIST_RACE_CELLS``
    cells; the numpy kernel takes the rest, on an array of the same
    weights. Every caller shares the tuple."""
    p = dist.probability_list(n_expert)
    log_p = [math.log(p[i]) for i in _support(p, top_k)]
    if top_k == 1 or len(log_p) * top_k * len(_race_grid(log_p, top_k)[0]) <= _LIST_RACE_CELLS:
        return tuple(_race_inclusion_list(p, top_k))
    import numpy as np

    return tuple(_topk_inclusion_probs(np.array(p), top_k).tolist())


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
    return ExpectedDistinct(value=math.fsum(_batch_hit_probs(n_expert, top_k, batch, dist)), method="quadrature")


def _batch_hit_probs(n_expert: int, top_k: int, batch: int, dist: RoutingDistribution) -> list[float]:
    """1 - (1 - r_i)^batch for each expert i: the probability that at least
    one of ``batch`` independent tokens routes to it, r_i being its top-k
    inclusion probability (exactly k/E under uniform routing)."""
    r = (top_k / n_expert,) * n_expert if dist.kind == "uniform" else _inclusion_probs(n_expert, top_k, dist)
    # log1p(-1) raises: an expert every token routes to is hit
    return [1.0 if ri == 1.0 else -math.expm1(batch * math.log1p(-ri)) for ri in r]
