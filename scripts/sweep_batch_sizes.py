#!/usr/bin/env python3
"""Batch-size sweep: expected activation, bandwidth requirement, feasibility.

Sweeps batch sizes for small MoE models under a relaxed decoding target
(default 0.25 s/token) and prints which catalog devices satisfy the
practical bandwidth requirement at each batch, with a CSV per model.

Usage: python scripts/sweep_batch_sizes.py [--batches 1,2,4,8,16,32,64]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from moemeter.catalog import load_catalog  # noqa: E402
from moemeter.models import DEFAULT_EFFICIENCY_MBU, Precision, load_model_descriptor  # noqa: E402
from moemeter.planner import SloSpec, batch_sweep, sweep_to_csv  # noqa: E402
from moemeter.trace import RoutingDistribution  # noqa: E402

MODELS = ("deepseek-v2-lite", "qwen1_5-moe-a2_7b")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/batch_sweep")
    parser.add_argument("--batches", default="1,2,4,8,16,32,64")
    parser.add_argument("--slo", type=float, default=0.25)
    parser.add_argument("--bytes-per-param", type=float, default=1.0)
    parser.add_argument("--efficiency-mbu", type=float, default=DEFAULT_EFFICIENCY_MBU)
    args = parser.parse_args()

    batches = [int(b) for b in args.batches.split(",")]
    catalog = load_catalog(REPO / "catalog" / "default.json")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in MODELS:
        desc = load_model_descriptor(REPO / "models" / f"{name}.json")
        points = batch_sweep(
            desc,
            RoutingDistribution.uniform(),
            batches,
            SloSpec(args.slo),
            Precision(args.bytes_per_param),
            efficiency_mbu=args.efficiency_mbu,
            catalog=catalog,
        )
        path = out_dir / f"{name}.csv"
        print(f"\n{name} @ {args.slo} s/token:")
        for p in points:
            print(
                f"  batch {p.batch:>3}: fraction {p.expected_activated_fraction:.3f}, "
                f"needs {p.practical_bandwidth_gbps:8.1f} GB/s, "
                f"feasible: {', '.join(p.feasible_devices) or '(none)'}"
            )
        path.write_text(sweep_to_csv(points), encoding="utf-8")
        print(f"  -> {path}")


if __name__ == "__main__":
    main()
