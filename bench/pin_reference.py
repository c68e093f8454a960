"""Regenerate ``reference.json``: pinned expected distinct experts per layer
under zipf:1.1 routing for the batches the expected-planning workload plans.

The sampler is written here, not imported from moemeter: each token picks
its top_k experts as the k smallest of Exp(1)/p_i (the exponential race,
equivalent to sequential probability-proportional draws without
replacement), in float64, with its own seed. It records the sample mean and
the per-pass standard deviation, from which ``oracle.pinned_tolerance``
derives the accepted band.

Run from the repository root:  python3 bench/pin_reference.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASSES = 200_000
ZIPF_S = 1.1
# model file -> batches planned by the expected-planning workload
BATCHES = {"deepseek-r1": (1, 2, 4), "deepseek-v2-lite": (1, 2, 4, 8)}


def distinct_counts(p: np.ndarray, top_k: int, batch: int, passes: int, rng: np.random.Generator) -> np.ndarray:
    n_expert = len(p)
    out = np.empty(passes, dtype=np.int64)
    chunk = max(1, 2_000_000 // (batch * n_expert))
    for start in range(0, passes, chunk):
        m = min(chunk, passes - start)
        race = rng.standard_exponential(size=(m, batch, n_expert)) / p
        picked = np.argpartition(race, top_k - 1, axis=-1)[..., :top_k]
        hit = np.zeros((m, n_expert), dtype=bool)
        np.put_along_axis(hit, picked.reshape(m, -1), True, axis=1)
        out[start : start + m] = hit.sum(axis=1)
    return out


def main() -> None:
    rng = np.random.default_rng(20241207)
    doc = {"zipf_s": ZIPF_S, "models": {}}
    for name, batches in BATCHES.items():
        desc = json.loads((ROOT / "models" / f"{name}.json").read_text(encoding="utf-8"))
        w = 1.0 / np.arange(1, desc["n_expert"] + 1, dtype=float) ** ZIPF_S
        p = w / w.sum()
        doc["models"][name] = {}
        for batch in batches:
            counts = distinct_counts(p, desc["top_k"], batch, PASSES, rng)
            sd = float(counts.std(ddof=1))
            doc["models"][name][str(batch)] = {"mean": float(counts.mean()), "sd": sd, "passes": PASSES}
            print(f"{name} batch {batch}: {counts.mean():.4f} +- {sd / math.sqrt(PASSES):.4f}")
    (HERE / "reference.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
