"""Routing: distributions, simulated sheets, expected activation.

Everything here models how a router picks experts, as opposed to reading
what one recorded (``trace``): the routing distributions, the simulator
that synthesizes activation sheets from them, and the expected number of
distinct experts a batch activates. Expected activation is exact, not
sampled: a closed form under uniform routing, the weights themselves at
top_k = 1, and an exponential-race quadrature otherwise. The quadrature's
grid (``_race_grid``) is cut at both ends by stated bounds: on the left as
far as the count of fired experts needs, with the dropped nodes summed in
closed form, and on the right where the rest of the grid cannot move any
r_i by 2^-55 of itself. One evaluator, ``_race_inclusion``, sums it over
Python lists through ``math``, so its bits follow libm alone. On a node
block, an expert whose odds e^x - 1 of having fired stay within 1/2 is
light: it is taken back out of the cumulative counts of every expert, to
about 4k ulps. Each heavy one multiplies exact counts before it by cumulative
ones after it, in O(sqrt(H) k nodes) memory for H heavy experts. numpy is
imported only inside the simulator, and no expected-mode plan loads it.

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
from itertools import accumulate, chain
from operator import mul, neg
from typing import Iterator, Sequence

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

    def probability_list(self, n_expert: int) -> list[float]:
        """The normalized weights of ``n_expert`` experts, through libm's
        pow and a correctly rounded sum."""
        if self.kind == "uniform":
            return [1.0 / n_expert] * n_expert
        if self.kind == "zipf":
            w = [_zipf_weight(rank, self.zipf_s) for rank in range(1, n_expert + 1)]
        else:
            w = self.weights
            if len(w) != n_expert:
                raise ValidationError(
                    f"empirical weight vector has length {len(w)}, expected {n_expert}", field="weights"
                )
        total = math.fsum(w)
        return [x / total for x in w]


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

    p = np.array(dist.probability_list(desc.n_expert))
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
# Largest relative error in r_i that each of the grid's three cuts may leave:
# the left margin, the left tail's series and the right end (see _race_grid).
_RACE_CUT_TOL = 2.0**-55
# The grid is cut into node blocks so that the rows one block could hold at
# once, (2 ceil(sqrt(experts)) + 1) x top_k x nodes, stay below this: about
# 1 MiB of list floats. Light experts hold no rows, so a block holds fewer.
# It counts those rows only, not a backward segment's 3 ceil(sqrt(experts))
# columns (fired, idle, x) or the rows a step builds: under tracemalloc
# zipf:200 at (64, 2) and (256, 2) peaks at 0.76 MiB, r1 zipf:1.1 (256, 8)
# at 0.42 MiB. The cut sets how each expert's sum over nodes is grouped, so
# changing it changes the last bits of r_i.
_RACE_BLOCK_CELLS = 1 << 15
# A light expert's odds e^x - 1 stay at most this on its block's nodes, which
# holds _race_light's rounding to about 4k ulps (see _race_inclusion).
_RACE_LIGHT_ODDS = 0.5


def _race_grid(log_p: Sequence[float], k: int) -> tuple[list[float], list[float]]:
    """Nodes s_j = ln t_j of the quadrature over the positive weights
    p_i = e^log_p[i] at top_k = k >= 2, of which there are more than k,
    and each expert's closed-form sum over the nodes left of the first.
    Each of the three cuts below leaves at most ``_RACE_CUT_TOL`` of any
    r_i, measured against r_i >= p_i.

    Left end. The nodes run from s_0 = -ln p_max - L in steps of
    h = ``_RACE_STEP``. Left of s_0, at s_0 - jh for j >= 1, x = p_i t =
    x_0 q^j with x_0 = p_i t_0 <= e^-L and q = e^-h. There the integrand
    x e^-x P(at most k-1 others fired by t) differs from x e^-x by at most
    x t^k/k!, since at least k others have fired with probability at most
    e_k(p_j t) <= (t sum p_j)^k/k! <= t^k/k!. Summed over j and weighed by
    h, that is at most t_0^(k+1)/(k+1)! of r_i, and L >= 0 is the smallest
    multiple of h that holds it to the tolerance. The tail returned sums
    x e^-x = sum_n (-1)^(n-1) x^n/(n-1)! over those nodes through
    sum_j (x_0 q^j)^n = x_0^n/(e^(nh) - 1), to N terms. x <= 1, so the
    series alternates with falling terms, and what the first N leave out
    is at most t_0 e^(-NL)/(N+1)! of r_i; N is the smallest that holds it
    to the tolerance. Small k and flat weights need the widest margin:
    zipf:0 at (E, k) = (512, 2) takes L = 18.375 with N = 2, deepseek-r1's
    zipf:1.1 (256, 8) L = 4.5 with N = 6.

    Right end. Let p_(k) be the k-th largest weight. An expert among the k
    largest has e^(-p_i t) <= e^(-p_(k) t); any other has at most k-1
    others fired only if one of those k has not, with probability at most
    k e^(-p_(k) t). So the node at t adds at most h x e^-x P <=
    h t k e^(-p_(k) t) p_i to r_i, and from the first node with
    p_(k) t >= 1 on, those bounds fall faster than a geometric series: the
    grid first stops at the node whose series sum, computed in log space
    so that a subnormal p_(k) cannot overflow t, is within the tolerance.
    The Chernoff bound P(at most k others of all fired) <= e^(-mu)
    (e mu/k)^k, mu = sum_l (1 - e^(-p_l t)) > k, caps each node's P too, and
    nodes are dropped from the right while the bounds of all dropped nodes
    stay within the tolerance. deepseek-r1's zipf:1.1 grid runs from
    s = -2.92 to 5.08: 65 nodes.
    """
    h, ln_tol, top = _RACE_STEP, math.log(_RACE_CUT_TOL), max(log_p)
    margin = h * math.ceil(max(0.0, (-ln_tol - math.lgamma(k + 2)) / (k + 1) - top) / h)
    start = -top - margin  # ln t_0
    terms = 1
    while start - terms * margin - math.lgamma(terms + 2) > ln_tol:
        terms += 1
    # Horner coefficients of the tail's series, highest power first
    coefficients = [(-1) ** n / (math.factorial(n) * math.expm1((n + 1) * h)) for n in reversed(range(terms))]
    tail = []
    for lp in log_p:
        x, acc = math.exp(lp + start), 0.0
        for c in coefficients:
            acc = acc * x + c
        tail.append(acc * x)

    ln_pk = sorted(log_p)[-k]

    def beyond(j):
        # the geometric series' bound on the nodes from j on, or inf where it
        # does not hold; in log space, and capped at 1, above any tolerance
        s = start + j * h
        u = math.exp(ln_pk + s)
        ln_ratio = h - u * math.expm1(h)
        if ln_ratio >= 0:
            return math.inf
        return math.exp(min(0.0, math.log(h * k) + s - u - math.log(-math.expm1(ln_ratio))))

    n = max(0, math.ceil((-ln_pk - start) / h))
    while beyond(n) > _RACE_CUT_TOL:
        n += 1
    dropped = beyond(n)
    while n > 1:
        s = start + (n - 1) * h
        mu = math.fsum(-math.expm1(-math.exp(min(lp + s, 700.0))) for lp in log_p)
        ln_others = min(0.0, math.log(k) - math.exp(ln_pk + s))
        if mu > k:
            ln_others = min(ln_others, k - mu + k * math.log(mu / k))
        bound = math.exp(min(0.0, math.log(h) + s + ln_others))
        if dropped + bound > _RACE_CUT_TOL:
            break
        dropped += bound
        n -= 1
    return [start + j * h for j in range(n)], tail


def _race_step(row: list[list[float]], fired: list[float], idle: list[float]) -> list[list[float]]:
    """One expert's step of a row of exact or cumulative counts over the
    nodes: row'[c] = row[c] e^(-x) + row[c-1] (1 - e^(-x)), row[-1] = 0."""
    return [[a * b for a, b in zip(row[0], idle)]] + [
        [a * b + c * d for a, b, c, d in zip(now, idle, before, fired)] for before, now in zip(row, row[1:])
    ]


def _race_light(full: list[list[float]], odds: list[float]) -> list[float]:
    """e^(-x) P(at most k-1 others fired) over the nodes, from ``full``, the
    cumulative counts of every expert, and the expert's odds w = e^x - 1:
    full[c] = e^(-x) others[c] + w e^(-x) others[c-1], run by Horner."""
    acc = full[0]
    for row in full[1:]:
        acc = [c - w * a for c, w, a in zip(row, odds, acc)]
    return acc


def _race_columns(log_p: Sequence[float], s: list[float]) -> Iterator[tuple[list[float], list[float], list[float]]]:
    """(fired, idle, x) over the nodes s for each weight e^lp of ``log_p``:
    1 - e^(-x), e^(-x) and x = p t."""
    for lp in log_p:
        log_x = list(map(lp.__add__, s))
        # x = p t from log space, capped where e^-x is already 0 so it stays finite
        x = list(map(math.exp, log_x if log_x[-1] < 700.0 else [min(v, 700.0) for v in log_x]))
        neg_x = list(map(neg, x))
        yield list(map(neg, map(math.expm1, neg_x))), list(map(math.exp, neg_x)), x


def _race_inclusion(p: Sequence[float], k: int) -> list[float]:
    """r_i = P(expert i is among one token's k sequential weighted draws
    without replacement); fewer than k positive weights are rejected. At
    k = 1 that is p_i itself, and with exactly k positive weights it is 1
    for each of them: both are returned as exact.

    Exponential race: expert i fires at an Exp(p_i) time and the k earliest
    win, so r_i = integral over ln t of p_i t e^(-p_i t) P(at most k-1 others
    fired by t), summed on ``_race_grid``'s nodes plus its closed-form left
    tail, with math's exp and expm1 (libm) and ``math.fsum``. That count is
    Poisson-binomial in 1 - e^(-p_j t); ``_race_step`` moves a row of exact
    or cumulative counts by an expert. The nodes are swept in blocks of at
    most ``_RACE_BLOCK_CELLS`` cells of rows.

    On a block, an expert is light when x = p_i t <= ln(1 + w_max) on every
    node, w_max = ``_RACE_LIGHT_ODDS``, and heavy otherwise; the light ones
    are stepped first into exact counts, from (1, 0, ..., 0). A heavy one
    sums over c < k P(exactly c experts before it fired), a prefix that
    holds every light one, times P(at most k-1-c heavy ones after it
    fired), a suffix from all 1. These terms are positive, so tiny r_i keep
    full precision down to the smallest normal double. ``_race_light`` takes
    a light one back out of the cumulative counts C of every expert: with
    odds w = e^x - 1 <= w_max, the terms w^j C[k-1-j] of its alternating sum
    fall, the sum lies in [(1 - w) C[k-1], C[k-1]], and rounding stays
    within about 4k ulps of it.

    Memory is O(sqrt(H) k nodes) for H heavy experts, not O(E k nodes). A
    forward sweep keeps the prefix row at the start of each segment of
    ceil(sqrt(H)) heavy experts. A backward sweep, last segment first,
    rebuilds a segment's prefix rows from its checkpoint (one step further
    in the last segment, for C) and steps the suffix row down through it
    to the first heavy expert.

    A zero-weight expert never fires: its step leaves every row exactly as
    it was and its r_i is exactly 0. So only the positive weights are
    swept, and r is scattered back with zeros elsewhere.
    """
    positive = _support(p, k)
    if k == 1:  # a single draw picks i with probability p_i
        return list(p)
    if len(positive) == k:  # every token draws every positive expert
        return [1.0 if w > 0 else 0.0 for w in p]
    log_p = [math.log(p[i]) for i in positive]
    nodes, tail = _race_grid(log_p, k)
    g = math.isqrt(len(log_p) - 1) + 1  # the block rule's segments, as if every expert were heavy
    n_blocks = -(-len(nodes) * (2 * g + 1) * k // _RACE_BLOCK_CELLS)
    size = -(-len(nodes) // n_blocks)
    ln_light = math.log(math.log1p(_RACE_LIGHT_ODDS))
    sums = [[] for _ in log_p]
    for lo_node in range(0, len(nodes), size):
        s = nodes[lo_node : lo_node + size]
        n = len(s)
        light = [i for i, lp in enumerate(log_p) if lp + s[-1] <= ln_light]
        heavy = [i for i, lp in enumerate(log_p) if lp + s[-1] > ln_light]
        row = [[1.0] * n] + [[0.0] * n for _ in range(k - 1)]  # of no experts, none fired
        for fired, idle, _ in _race_columns([log_p[i] for i in light], s):
            row = _race_step(row, fired, idle)
        full = row  # exact counts of every expert, unless a heavy one follows
        g = math.isqrt(len(heavy) - 1) + 1 if heavy else 1
        checkpoints = [row]
        for lo in range(0, len(heavy) - g, g):
            for fired, idle, _ in _race_columns([log_p[i] for i in heavy[lo : lo + g]], s):
                row = _race_step(row, fired, idle)
            checkpoints.append(row)
        suffix = [[1.0] * n for _ in range(k)]  # of no experts, at most c fired
        for lo in reversed(range(0, len(heavy), g)):
            experts = list(_race_columns([log_p[i] for i in heavy[lo : lo + g]], s))
            prefix = [checkpoints.pop()]
            for fired, idle, _ in experts[:-1]:
                prefix.append(_race_step(prefix[-1], fired, idle))
            if light and lo + g >= len(heavy):
                fired, idle, _ = experts[-1]
                full = _race_step(prefix[-1], fired, idle)
            for j in reversed(range(len(experts))):
                fired, idle, x = experts[j]
                weight = list(map(mul, x, idle))
                # sum_c P(exactly c before) P(at most k-1-c after), weighed, over the nodes
                terms = (map(mul, map(mul, a, b), weight) for a, b in zip(prefix[j], reversed(suffix)))
                sums[heavy[lo + j]].append(math.fsum(chain.from_iterable(terms)))
                if lo + j:  # no heavy expert precedes the first one
                    suffix = _race_step(suffix, fired, idle)
        if light:
            full = list(accumulate(full, lambda a, b: [u + v for u, v in zip(a, b)]))  # at most c fired
            for i in light:
                x = [math.exp(log_p[i] + v) for v in s]
                sums[i].append(math.fsum(map(mul, x, _race_light(full, list(map(math.expm1, x))))))
    r = [0.0] * len(p)
    for i, part, t in zip(positive, sums, tail):
        r[i] = min(_RACE_STEP * (math.fsum(part) + t), 1.0)
    return r


@functools.lru_cache(maxsize=32)
def _inclusion_probs(n_expert: int, top_k: int, dist: RoutingDistribution) -> tuple[float, ...]:
    """r_i for one routing setting, computed once per process: r_i does not
    depend on the batch, so a sweep pays for one quadrature. The weights
    come from ``probability_list``. Every caller shares the tuple."""
    return tuple(_race_inclusion(dist.probability_list(n_expert), top_k))


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
