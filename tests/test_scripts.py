"""Smoke tests of the planner scripts under ``scripts/``: each runs to exit 0
and writes the documented files per model, pinned by SHA-256."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


def _digest(path):
    """SHA-256 of an output file. A JSON report is hashed without its
    ``inputs`` block, which holds the absolute input paths."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        doc.pop("inputs")
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "script, digests",
    [
        pytest.param(
            "sweep_batch_sizes.py",
            {
                "deepseek-v2-lite/batch_sweep.csv": "5079d4dca2f28dfa5001d4c942383419ac5c60e1528399d7bd2735b5ddcd9616",
                "deepseek-v2-lite/plan_report.json": "05850d3d0f6bdd8bcffde73a098f78f4536a98dff175ff0847eff2630c0e1929",
                "qwen1_5-moe-a2_7b/batch_sweep.csv": "c36eb973e0906d5ff895ce14d290b3c8cc4d19322542eb8d1766942c5ab41fb3",
                "qwen1_5-moe-a2_7b/plan_report.json": "18f6de518385807530f941824bfc755da80d38ea6497e4572f09e353e6668322",
            },
            id="sweep_batch_sizes",
        ),
        pytest.param(
            "bandwidth_power_map.py",
            {
                "deepseek-r1/bandwidth_power_map.json": "0fae7841b7b6f6dc17dd9911ac938b2939344f278e60ecac5af95bd94cd6df72",
                "deepseek-r1/plan_report.json": "2fa9828b3d6f3adb36e93671133dbc0913bc963b61def68eec216e6c0cc2e5cf",
                "deepseek-v2-lite/bandwidth_power_map.json": "1f69b585b97ae00afb060fe9e6f2d42f21e03325984d6181011f2050afa20db6",
                "deepseek-v2-lite/plan_report.json": "55f663a81374eb367a139295a8614de55e819e42c90f690bb0ec5ecda46c4689",
                "mixtral-8x22b/bandwidth_power_map.json": "3976f1d5e882a2184d07edbf2c9acc62da776c53820760461ba7cb6ce8b63772",
                "mixtral-8x22b/plan_report.json": "db686ff5f2cc0886f661f6405b144aa609da3ece3529cb563394b130ecf620fd",
                "qwen1_5-moe-a2_7b/bandwidth_power_map.json": "91f2b14b47bc8983dc36bfc9fa6294f725585392b4d1668f0727811b72999310",
                "qwen1_5-moe-a2_7b/plan_report.json": "ca090c6598f404e6c29f77143a5a8fa29533b0b4c36cd848668ffc0e5886be39",
            },
            id="bandwidth_power_map",
        ),
    ],
)
def test_planner_script_writes_its_documented_files(tmp_path, script, digests):
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    written = {
        path.relative_to(tmp_path).as_posix(): _digest(path) for path in tmp_path.rglob("*") if path.is_file()
    }
    assert written == digests
