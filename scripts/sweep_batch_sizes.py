#!/usr/bin/env python3
"""Batch-size sweep: expected activation, bandwidth requirement, feasibility.

Runs ``moemeter plan --sweep-batches`` under uniform routing and a relaxed
decoding target (default 0.25 s/token) once per small MoE model, so each
model gets a directory ``<out-dir>/<model>/`` holding ``batch_sweep.csv``
(per batch size: expected distinct experts per layer, activated fraction,
theoretical and practical bandwidth, and the catalog devices that satisfy
it) and ``plan_report.json``.

Usage: python scripts/sweep_batch_sizes.py [--batches 1,2,4,8,16,32,64]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from moemeter.cli import main as moemeter  # noqa: E402
from moemeter.models import DEFAULT_EFFICIENCY_MBU  # noqa: E402

MODELS = ("deepseek-v2-lite", "qwen1_5-moe-a2_7b")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/batch_sweep")
    parser.add_argument("--batches", default="1,2,4,8,16,32,64")
    parser.add_argument("--slo", type=float, default=0.25)
    parser.add_argument("--bytes-per-param", type=float, default=1.0)
    parser.add_argument("--efficiency-mbu", type=float, default=DEFAULT_EFFICIENCY_MBU)
    args = parser.parse_args()

    for name in MODELS:
        code = moemeter([
            "plan", "--sweep-batches", args.batches, "--dist", "uniform",
            "--model", str(REPO / "models" / f"{name}.json"),
            "--catalog", str(REPO / "catalog" / "default.json"),
            "--slo", str(args.slo),
            "--bytes-per-param", str(args.bytes_per_param),
            "--efficiency-mbu", str(args.efficiency_mbu),
            "--output-dir", str(Path(args.out_dir) / name),
        ])
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
