from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

MODELS = REPO_ROOT / "models"
CATALOG = REPO_ROOT / "catalog" / "default.json"
TRACES = REPO_ROOT / "traces"
RULES = REPO_ROOT / "rules" / "decision_matrix.json"
BUNDLES = REPO_ROOT / "bundles"


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "moemeter", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def test_simulate_deterministic_files(tmp_path):
    common = [
        "simulate",
        "--model", MODELS / "toy-4x2.json",
        "--batch", 4,
        "--dist", "zipf:0.7",
        "--passes", 25,
        "--seed", 123,
    ]
    a = run_cli(*common, "--out", tmp_path / "a.trace")
    b = run_cli(*common, "--out", tmp_path / "b.trace")
    assert a.returncode == 0 and b.returncode == 0
    assert (tmp_path / "a.trace").read_bytes() == (tmp_path / "b.trace").read_bytes()


def test_simulate_then_metrics_pipeline(tmp_path):
    sim = run_cli(
        "simulate",
        "--model", MODELS / "toy-4x2.json",
        "--batch", 2,
        "--dist", "uniform",
        "--passes", 10,
        "--seed", 7,
        "--out", tmp_path / "sim.trace",
    )
    assert sim.returncode == 0
    met = run_cli(
        "metrics",
        "--model", MODELS / "toy-4x2.json",
        "--trace", tmp_path / "sim.trace",
        "--catalog", CATALOG,
        "--device", "A100-PCIe-80G",
        "--bytes-per-param", "2.0",
        "--output-dir", tmp_path / "out",
    )
    assert met.returncode == 0, met.stderr
    doc = json.loads((tmp_path / "out" / "metrics_report.json").read_text())
    assert doc["report"]["model_name"] == "toy-4x2"
    assert len(doc["report"]["passes"]) == 10
    assert "trace" in doc["inputs"] and "sha256" in doc["inputs"]["trace"]


def test_metrics_against_shipped_golden(tmp_path):
    golden = json.loads((TRACES / "sample_decode.golden.json").read_text())
    result = run_cli(
        "metrics",
        "--model", MODELS / "toy-4x2.json",
        "--trace", TRACES / "sample_decode.trace",
        "--catalog", CATALOG,
        "--device", golden["device"],
        "--bytes-per-param", golden["bytes_per_param"],
        "--output-dir", tmp_path,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "metrics_report.json").read_text())
    assert doc["report"]["aggregate_s_mbu"] == golden["aggregate_s_mbu"]


def test_corrupt_trace_line_exits_2_naming_line(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("model=toy-4x2\n0,decode,2,2,0.004,0,0:a;1:7\n1,decode,zz,1,0.002,0,0:5;1:a\n")
    result = run_cli(
        "metrics",
        "--model", MODELS / "toy-4x2.json",
        "--trace", bad,
        "--catalog", CATALOG,
        "--device", "A100-PCIe-80G",
        "--bytes-per-param", "2.0",
        "--output-dir", tmp_path,
    )
    assert result.returncode == 2
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "validation"
    assert "line 3" in err["error"]["message"]


def test_missing_catalog_exits_2(tmp_path):
    result = run_cli(
        "plan",
        "--model", MODELS / "deepseek-r1.json",
        "--catalog", tmp_path / "nope.json",
        "--output-dir", tmp_path,
    )
    assert result.returncode == 2


def test_no_catalog_flag_and_no_env_exits_2(tmp_path):
    import os

    env = {k: v for k, v in os.environ.items() if k != "MOEMETER_CATALOG"}
    result = subprocess.run(
        [sys.executable, "-m", "moemeter", "plan", "--model", str(MODELS / "deepseek-r1.json"),
         "--output-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 2
    assert "MOEMETER_CATALOG" in result.stderr


def test_env_var_supplies_catalog(tmp_path):
    result = run_cli(
        "plan",
        "--model", MODELS / "deepseek-r1.json",
        "--output-dir", tmp_path,
        env_extra={"MOEMETER_CATALOG": str(CATALOG)},
    )
    assert result.returncode == 0, result.stderr


def test_plan_fig2_emits_requirement_lines(tmp_path):
    result = run_cli(
        "plan",
        "--model", MODELS / "deepseek-r1.json",
        "--catalog", CATALOG,
        "--fig2",
        "--output-dir", tmp_path,
    )
    assert result.returncode == 0, result.stderr
    plot = json.loads((tmp_path / "bandwidth_power_map.json").read_text())
    lines = {l["activation_mode"]: l["practical_bandwidth_gbps"] for l in plot["requirement_lines"]}
    assert lines["batch1_analytic"] == pytest.approx(1040.0, rel=0.01)
    assert lines["full_activation"] == pytest.approx(18_901.0, rel=0.01)
    assert plot["devices"]


def test_plan_byte_identical_across_runs(tmp_path):
    args = [
        "plan",
        "--model", MODELS / "deepseek-r1.json",
        "--catalog", CATALOG,
        "--fig2",
        "--sweep-batches", "1,2,4",
        "--dist", "uniform",
    ]
    run_cli(*args, "--output-dir", tmp_path / "run1")
    run_cli(*args, "--output-dir", tmp_path / "run2")
    for name in ("plan_report.json", "bandwidth_power_map.json", "batch_sweep.csv"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()


def test_plan_slo_quarter_second_sweep(tmp_path):
    # requirement-vs-batch workflow at a relaxed 0.25 s/token target
    result = run_cli(
        "plan",
        "--model", MODELS / "deepseek-v2-lite.json",
        "--catalog", CATALOG,
        "--slo", "0.25",
        "--sweep-batches", "1,2,4,8,16,32",
        "--dist", "uniform",
        "--output-dir", tmp_path,
    )
    assert result.returncode == 0, result.stderr
    rows = [
        line.split(",")
        for line in (tmp_path / "batch_sweep.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("batch,")
    ]
    bws = [float(r[4]) for r in rows]
    assert bws == sorted(bws)
    assert len(rows) == 6


def test_simulate_empirical_wrong_length_exits_2(tmp_path):
    result = run_cli(
        "simulate",
        "--model", MODELS / "toy-4x2.json",
        "--batch", 2,
        "--dist", "empirical:0.5,0.5",
        "--passes", 5,
        "--seed", 1,
        "--out", tmp_path / "x.trace",
    )
    assert result.returncode == 2
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "validation"


def test_cost_cli_worked_example(tmp_path):
    inputs = {
        "bill_of_materials": {
            "gpu_usd": 8000, "cpu_usd": 1000, "motherboard_usd": 500, "dram_usd": 300, "ssd_usd": 200,
        },
        "power_profile": {"gpu_watts": 400, "cpu_watts": 100},
        "economics": {"runtime_hours": 8760, "energy_price_usd_per_kwh": 0.1, "token_throughput_tps": 1000},
    }
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(inputs))
    result = run_cli("cost", "--inputs", path, "--output-dir", tmp_path)
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "cost_report.json").read_text())
    assert doc["report"]["cost_per_token_usd"] == pytest.approx(3.31e-7, rel=5e-3)
    assert doc["report"]["purchase_usd"] == 10_000


def test_radar_cli_labels(tmp_path):
    result = run_cli(
        "radar", "--records", BUNDLES / "radar_serving_systems.json", "--output-dir", tmp_path
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "radar_report.json").read_text())
    labels = {s["name"]: s["label"] for s in doc["radar"]["systems"]}
    assert labels == {"sglang": "PA", "k-transformers": "PC", "moe-infinity": "CA"}
    csv_text = (tmp_path / "radar_report.csv").read_text()
    assert "sglang" in csv_text and csv_text.startswith("# inputs")


def test_recommend_no_match_is_structured_success(tmp_path):
    result = run_cli(
        "recommend",
        "--rules", RULES,
        "--tier", "edge_soc",
        "--batch", 2,
        "--primary", "cost",
        "--secondary", "latency",
        "--output-dir", tmp_path,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "recommendation.json").read_text())
    assert doc["matched"] is None
    assert doc["nearest"]


def test_recommend_match(tmp_path):
    result = run_cli(
        "recommend",
        "--rules", RULES,
        "--tier", "workstation_gpu_a5000",
        "--batch", 4,
        "--primary", "cost",
        "--secondary", "latency",
        "--output-dir", tmp_path,
    )
    assert result.returncode == 0
    doc = json.loads((tmp_path / "recommendation.json").read_text())
    assert doc["matched"]["recommended_system"] == "K-Transformers"


@pytest.mark.parametrize(
    "command, extra",
    [
        # fewer than top_k=2 positive weights: no valid routing exists
        ("plan", ["--mode", "expected", "--batch", 2, "--dist", "empirical:1,0,0,0,0,0,0,0"]),
        ("plan", ["--mode", "expected", "--batch", 2, "--dist", "zipf:abc"]),
        ("plan", ["--mode", "expected", "--batch", 2, "--dist", "zipf:inf"]),
        ("plan", ["--sweep-batches", "1,x", "--dist", "uniform"]),
        ("simulate", ["--batch", 2, "--dist", "zipf:abc", "--passes", 1, "--seed", 1]),
        # invalid sweeps are rejected before plan_report.json is written
        ("plan", ["--sweep-batches", "4,2", "--dist", "uniform"]),
        ("plan", ["--sweep-batches", "0,2", "--fig2"]),
        ("simulate", ["--batch", 2, "--dist", "uniform", "--passes", 1, "--seed", -1]),
    ],
)
def test_malformed_routing_arguments_exit_2(tmp_path, command, extra):
    common = ["--output-dir", tmp_path] if command == "plan" else ["--out", tmp_path / "x.trace"]
    catalog = ["--catalog", CATALOG] if command == "plan" else []
    result = run_cli(command, "--model", MODELS / "mixtral-8x7b.json", *catalog, *extra, *common)
    assert result.returncode == 2, result.stderr
    (line,) = result.stderr.splitlines()
    err = json.loads(line)
    assert err["error"]["type"] == "validation"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "bitmap",
    [
        "0x1f", "+f", "1_f", "", "g",
        "10",  # expert 4 of a 4-expert layer
        "1",  # fewer experts than top_k=2
        "7",  # more than batch_size*top_k = 2
    ],
)
def test_malformed_bitmap_exits_2(tmp_path, capsys, bitmap):
    from moemeter.cli import main

    bad = tmp_path / "bad.trace"
    bad.write_text(f"model=toy-4x2\n0,decode,1,1,0.004,0,0:{bitmap};1:3\n")
    argv = ["metrics", "--model", MODELS / "toy-4x2.json", "--trace", bad, "--catalog", CATALOG,
            "--device", "H100-SXM", "--bytes-per-param", "1.0", "--output-dir", tmp_path / "out"]
    assert main([str(a) for a in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "activated"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_plan_expected_extreme_zipf_runs_warning_free(tmp_path):
    from moemeter.cli import main

    # a warning raised as an error would surface as exit 1 ("internal")
    argv = ["plan", "--model", MODELS / "deepseek-r1.json", "--catalog", CATALOG, "--mode", "expected",
            "--batch", 4, "--dist", "zipf:200", "--output-dir", tmp_path]
    assert main([str(a) for a in argv]) == 0


@pytest.mark.parametrize("field", ["peak_bandwidth_gbps", "peak_flops_by_precision"])
def test_metrics_zero_peak_in_catalog_exits_2(tmp_path, field):
    devices = json.loads(CATALOG.read_text())
    for d in devices:
        if d["name"] == "H100-SXM":
            d[field] = {"fp16": 0.0} if field == "peak_flops_by_precision" else 0.0
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(devices))
    result = run_cli(
        "metrics",
        "--model", MODELS / "toy-4x2.json",
        "--trace", TRACES / "sample_decode.trace",
        "--catalog", catalog,
        "--device", "H100-SXM",
        "--bytes-per-param", "1.0",
        "--output-dir", tmp_path / "out",
    )
    assert result.returncode == 2, result.stderr
    err = json.loads(result.stderr)
    assert err["error"]["field"] in ("hw_peak_bandwidth", "hw_peak_flops")
    assert not (tmp_path / "out").exists()


def test_cli_import_and_metrics_leave_numpy_unloaded(tmp_path):
    code = f"""
import sys
import moemeter.cli
assert "numpy" not in sys.modules, "import moemeter.cli loaded numpy"
argv = ["metrics", "--model", {str(MODELS / "toy-4x2.json")!r}, "--trace", {str(TRACES / "sample_decode.trace")!r},
        "--catalog", {str(CATALOG)!r}, "--device", "H100-SXM", "--bytes-per-param", "1.0",
        "--output-dir", {str(tmp_path)!r}]
assert moemeter.cli.main(argv) == 0
assert "numpy" not in sys.modules, "metrics loaded numpy"
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr
