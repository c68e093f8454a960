"""Monte-Carlo reference for expected distinct experts.

An independent sampler the tests check the exact expectation against: the
package computes expected activation by closed form or quadrature and never
samples it.
"""

from __future__ import annotations

import numpy as np

from moemeter.routing import _support


def _mc_distinct_counts(
    p: np.ndarray, top_k: int, batch: int, n_passes: int, seed: int
) -> np.ndarray:
    """Vectorized Monte-Carlo draw of per-pass distinct expert counts.

    Uses float32 Gumbel keys and selects each token's top-k by comparing
    against its k-th largest key; exact float ties (~1e-7 per pair) can
    admit an extra expert, which perturbs the estimate orders of magnitude
    below the standard error at any practical pass count.
    """
    _support(p, top_k)
    with np.errstate(divide="ignore"):
        log_p32 = np.where(p > 0, np.log(p), -np.inf).astype(np.float32)
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
