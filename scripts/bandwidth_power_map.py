#!/usr/bin/env python3
"""Emit bandwidth-vs-power plot data for the shipped models.

Runs ``moemeter plan --fig2`` once per model, so each model gets a directory
``<out-dir>/<model>/`` holding ``bandwidth_power_map.json`` (a point per
catalog device with its TDP, peak and offload bandwidth, plus the batch-1
and full-activation requirement lines) and ``plan_report.json``, under the
documented defaults: 1 byte/param, 0.1 s/token target, efficiency divisor
0.3558.

Usage: python scripts/bandwidth_power_map.py [--out-dir out/bandwidth_power]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from moemeter.cli import main as moemeter  # noqa: E402
from moemeter.models import DEFAULT_EFFICIENCY_MBU, DEFAULT_SLO_TPOT_S  # noqa: E402

MODELS = ("deepseek-r1", "deepseek-v2-lite", "qwen1_5-moe-a2_7b", "mixtral-8x22b")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/bandwidth_power")
    parser.add_argument("--slo", type=float, default=DEFAULT_SLO_TPOT_S)
    parser.add_argument("--bytes-per-param", type=float, default=1.0)
    parser.add_argument("--efficiency-mbu", type=float, default=DEFAULT_EFFICIENCY_MBU)
    args = parser.parse_args()

    for name in MODELS:
        code = moemeter([
            "plan", "--fig2",
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
