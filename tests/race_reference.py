"""Frozen numpy reference for the exponential-race quadrature.

The package's race quadrature once had this numpy kernel and this grid: a
left margin held by a two-term closed-form tail, and a right end set by the
smallest weight, -ln p_min + 4. They are kept here unchanged, as the
second derivation the tests check the package's one evaluator against. Its
bits follow numpy's SIMD dispatch, so tests compare with it only within a
tolerance, never by digest.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from moemeter.routing import _support

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
