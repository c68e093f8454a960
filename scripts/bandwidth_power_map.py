#!/usr/bin/env python3
"""Emit bandwidth-vs-power plot data for the shipped models.

For each model this produces one JSON document with a point per catalog
device (TDP, peak and offload bandwidth) and two horizontal requirement
lines (batch-1 activation and full activation) under the documented
defaults: 1 byte/param, 0.1 s/token target, efficiency divisor 0.3558.

Usage: python scripts/bandwidth_power_map.py [--out-dir out/bandwidth_power]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from moemeter.catalog import load_catalog  # noqa: E402
from moemeter.models import (  # noqa: E402
    DEFAULT_EFFICIENCY_MBU,
    DEFAULT_SLO_TPOT_S,
    Precision,
    load_model_descriptor,
)
from moemeter.planner import SloSpec, bandwidth_power_map  # noqa: E402

MODELS = ("deepseek-r1", "deepseek-v2-lite", "qwen1_5-moe-a2_7b", "mixtral-8x22b")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/bandwidth_power")
    parser.add_argument("--slo", type=float, default=DEFAULT_SLO_TPOT_S)
    parser.add_argument("--bytes-per-param", type=float, default=1.0)
    parser.add_argument("--efficiency-mbu", type=float, default=DEFAULT_EFFICIENCY_MBU)
    args = parser.parse_args()

    catalog = load_catalog(REPO / "catalog" / "default.json")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in MODELS:
        desc = load_model_descriptor(REPO / "models" / f"{name}.json")
        doc = bandwidth_power_map(
            desc,
            Precision(args.bytes_per_param),
            SloSpec(args.slo),
            catalog,
            efficiency_mbu=args.efficiency_mbu,
        )
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
        lines = {l["activation_mode"]: l["practical_bandwidth_gbps"] for l in doc["requirement_lines"]}
        print(
            f"{name}: batch-1 {lines['batch1_analytic']:.1f} GB/s, "
            f"full activation {lines['full_activation']:.1f} GB/s -> {path}"
        )


if __name__ == "__main__":
    main()
