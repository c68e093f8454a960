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
        # an empty sweep is a malformed one, not a missing one
        ("plan", ["--sweep-batches", "", "--dist", "uniform"]),
        ("simulate", ["--batch", 2, "--dist", "zipf:abc", "--passes", 1, "--seed", 1]),
        # invalid sweeps are rejected before plan_report.json is written
        ("plan", ["--sweep-batches", "4,2", "--dist", "uniform"]),
        ("plan", ["--sweep-batches", "0,2", "--fig2"]),
        ("simulate", ["--batch", 2, "--dist", "uniform", "--passes", 1, "--seed", -1]),
        # non-finite numbers would reach plan_report.json
        ("plan", ["--slo", "nan"]),
        ("plan", ["--slo", "inf"]),
        ("plan", ["--kv-bytes", "nan"]),
        ("plan", ["--kv-bytes", "inf"]),
        # expected mode without its batch or its distribution, --fig2 or not
        ("plan", ["--mode", "expected", "--batch", 4]),
        ("plan", ["--mode", "expected", "--dist", "uniform"]),
        ("plan", ["--fig2", "--mode", "expected", "--dist", "uniform"]),
        # an efficiency outside (0, 1], named by its flag, OPS asked for or not
        ("plan", ["--efficiency-mbu", "0"]),
        ("plan", ["--with-ops", "--efficiency-mfu", "2"]),
        ("plan", ["--efficiency-mfu", "2"]),
        # a context length below 1, OPS asked for or not
        ("plan", ["--with-ops", "--seq-len", "0"]),
        ("plan", ["--seq-len", "0"]),
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
    if "expected" in extra and "--batch" not in extra:
        assert err["error"]["field"] == "batch"
    elif "expected" in extra and "--dist" not in extra:
        assert err["error"]["field"] == "dist"
    elif "--efficiency-mbu" in extra:
        assert err["error"]["field"] == "efficiency_mbu"
    elif "--efficiency-mfu" in extra:
        assert err["error"]["field"] == "efficiency_mfu"
    elif "--seq-len" in extra:
        assert err["error"]["field"] == "seq_len"
    elif "" in extra:
        assert err["error"]["field"] == "sweep_batches"
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
    # dataclasses (and the inspect it imports) cost more start-up than a metrics run's work, and
    # OpenSSL's _hashlib more memory; input digests use the interpreter's built-in SHA-256
    code = f"""
import sys
unloaded = ("numpy", "dataclasses", "inspect", "_hashlib")
import moemeter.cli
for name in unloaded:
    assert name not in sys.modules, f"import moemeter.cli loaded {{name}}"
argv = ["metrics", "--model", {str(MODELS / "toy-4x2.json")!r}, "--trace", {str(TRACES / "sample_decode.trace")!r},
        "--catalog", {str(CATALOG)!r}, "--device", "H100-SXM", "--bytes-per-param", "1.0",
        "--output-dir", {str(tmp_path)!r}]
assert moemeter.cli.main(argv) == 0
for name in unloaded:
    assert name not in sys.modules, f"metrics loaded {{name}}"
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr


_CLI_MODULES = {"moemeter", "moemeter.cli", "moemeter.errors", "moemeter.models", "moemeter.trace"}


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("import moemeter", {"moemeter"}),
        ("from moemeter import load_catalog", {"moemeter", "moemeter.catalog", "moemeter.errors"}),
        ("import moemeter.cli", _CLI_MODULES),
        ("simulate", _CLI_MODULES | {"moemeter.routing", "numpy"}),
        ("metrics", _CLI_MODULES | {"moemeter.catalog", "moemeter.metrics"}),
        # every quadrature runs through math, mixtral's and deepseek-r1's alike
        ("plan", _CLI_MODULES | {"moemeter.catalog", "moemeter.planner", "moemeter.routing"}),
        ("radar", _CLI_MODULES | {"moemeter.cap"}),
        ("plan --mode trace", _CLI_MODULES | {"moemeter.catalog", "moemeter.planner"}),
        ("plan --fig2", _CLI_MODULES | {"moemeter.catalog", "moemeter.planner"}),
        ("from moemeter import activated_fraction",
         {"moemeter", "moemeter.errors", "moemeter.metrics", "moemeter.models", "moemeter.trace"}),
        ("cost", _CLI_MODULES | {"moemeter.costing"}),
        ("recommend", _CLI_MODULES | {"moemeter.cap"}),
        ("plan r1", _CLI_MODULES | {"moemeter.catalog", "moemeter.planner", "moemeter.routing"}),
        # the expected-planning benchmark's v2-lite plan, and qwen's
        ("plan v2-lite", _CLI_MODULES | {"moemeter.catalog", "moemeter.planner", "moemeter.routing"}),
        ("plan qwen", _CLI_MODULES | {"moemeter.catalog", "moemeter.planner", "moemeter.routing"}),
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, command, loaded):
    plan = ["plan", "--model", MODELS / "mixtral-8x7b.json", "--catalog", CATALOG, "--output-dir", tmp_path]
    argv = {
        "simulate": ["simulate", "--model", MODELS / "toy-4x2.json", "--batch", 4, "--dist", "zipf:1.1",
                     "--passes", 2, "--seed", 1, "--out", tmp_path / "sim.trace"],
        "metrics": ["metrics", "--model", MODELS / "toy-4x2.json", "--trace", TRACES / "sample_decode.trace",
                    "--catalog", CATALOG, "--device", "H100-SXM", "--bytes-per-param", "1.0",
                    "--output-dir", tmp_path],
        "plan": [*plan, "--mode", "expected", "--batch", 4, "--dist", "zipf:1.1", "--sweep-batches", "1,2",
                 "--fig2"],
        "plan r1": ["plan", "--model", MODELS / "deepseek-r1.json", "--catalog", CATALOG, "--mode", "expected",
                    "--batch", 2, "--dist", "zipf:1.1", "--output-dir", tmp_path],
        "plan v2-lite": ["plan", "--model", MODELS / "deepseek-v2-lite.json", "--catalog", CATALOG, "--mode",
                         "expected", "--batch", 8, "--dist", "zipf:1.1", "--sweep-batches", "1,2,4",
                         "--output-dir", tmp_path],
        "plan qwen": ["plan", "--model", MODELS / "qwen1_5-moe-a2_7b.json", "--catalog", CATALOG, "--mode",
                      "expected", "--batch", 4, "--dist", "zipf:1.1", "--output-dir", tmp_path],
        "radar": ["radar", "--records", BUNDLES / "radar_serving_systems.json", "--output-dir", tmp_path],
        "plan --mode trace": ["plan", "--model", MODELS / "toy-4x2.json", "--catalog", CATALOG, "--mode", "trace",
                              "--trace", TRACES / "sample_decode.trace", "--with-ops", "--output-dir", tmp_path],
        "plan --fig2": [*plan, "--fig2"],
        "cost": ["cost", "--inputs", tmp_path / "cost_inputs.json", "--output-dir", tmp_path],
        "recommend": ["recommend", "--rules", RULES, "--tier", "workstation_gpu_a5000", "--batch", 4,
                      "--primary", "cost", "--secondary", "latency", "--output-dir", tmp_path],
    }.get(command)
    (tmp_path / "cost_inputs.json").write_text(COST_INPUTS_TEXT)
    if argv is None:
        run = command
    else:
        run = f"import moemeter.cli\nassert moemeter.cli.main({[str(a) for a in argv]!r}) == 0"
    # numpy is listed by its top-level module only
    code = f"""
import json, sys
{run}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "moemeter" or m == "numpy")))
print(json.dumps("_hashlib" in sys.modules))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr
    *_, modules, openssl = result.stdout.splitlines()
    assert set(json.loads(modules)) == loaded
    # input digests use the built-in SHA-256, and simulate imports numpy.random with _hashlib blocked
    assert not json.loads(openssl), f"{command} loaded _hashlib"


_TOY_MODEL = str(MODELS / "toy-4x2.json")


@pytest.mark.parametrize(
    "before, run, keeps_hashlib",
    [
        ("", "cli", False),
        ("import numpy.random", "cli", True),
        ("import _hashlib", "cli", True),
        ("", "library", True),
    ],
    ids=["cli", "numpy.random-first", "_hashlib-first", "library"],
)
def test_simulate_guard_leaves_hashing_usable(tmp_path, before, run, keeps_hashlib):
    from moemeter import models, routing, trace

    out = str(tmp_path / "sim.trace")
    if run == "cli":
        argv = ["simulate", "--model", _TOY_MODEL, "--batch", "4", "--dist", "zipf:1.1", "--passes", "3",
                "--seed", "5", "--out", out]
        run = f"import moemeter.cli\nassert moemeter.cli.main({argv!r}) == 0"
    else:
        # the library path: only the CLI blocks _hashlib
        run = f"""from moemeter import models, routing, trace
desc = models.load_model_descriptor({_TOY_MODEL!r})
sheet = routing.simulate_routing(desc, 4, routing.RoutingDistribution.zipf(1.1), 3, 5)
open({out!r}, "w", encoding="utf-8").write(trace.serialize_activation_sheet(sheet, desc))"""
    code = f"""
import sys
{before}
{run}
assert ("_hashlib" in sys.modules) == {keeps_hashlib!r}
assert sys.modules.get("_hashlib", "absent") is not None, "the guard left its None entry"
import _hashlib, hashlib, hmac, secrets
import numpy.random
assert hashlib.sha256(b"abc").hexdigest() == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
assert hmac.new(b"k", b"m", "sha256").hexdigest() == (
    "b60090e3052297aeb5a080889ce2fc4bca957e756faeb4df7d31800ca1e771ec")
assert 0 <= secrets.randbits(64) < 2 ** 64
assert numpy.random.SeedSequence().entropy > 0
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr
    desc = models.load_model_descriptor(_TOY_MODEL)
    sheet = routing.simulate_routing(desc, 4, routing.RoutingDistribution.zipf(1.1), 3, 5)
    assert (tmp_path / "sim.trace").read_text(encoding="utf-8") == trace.serialize_activation_sheet(sheet, desc)


_SHIPPED_INPUTS = sorted(
    path for directory in ("models", "catalog", "traces", "bundles", "rules")
    for path in (REPO_ROOT / directory).rglob("*") if path.is_file()
)


@pytest.mark.parametrize("path", _SHIPPED_INPUTS, ids=lambda path: str(path.relative_to(REPO_ROOT)))
def test_input_digest_matches_hashlib_on_shipped_inputs(path):
    import hashlib

    from moemeter.cli import _sha256_file

    assert _sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("size", [0, 200_003], ids=["empty", "past-64KiB-chunks"])
def test_input_digest_matches_hashlib_on_any_size(tmp_path, size):
    import hashlib
    import random

    from moemeter.cli import _sha256_file

    data = random.Random(size).randbytes(size)
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    assert _sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_input_digest_falls_back_to_hashlib_without_builtin_sha256():
    import hashlib

    sources = [MODELS / "deepseek-r1.json", CATALOG, TRACES / "sample_decode.trace"]
    paths = [str(source) for source in sources]
    expected = [hashlib.sha256(source.read_bytes()).hexdigest() for source in sources]
    # a None entry in sys.modules makes the import raise ImportError
    code = f"""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from moemeter.cli import _sha256_file
assert [_sha256_file(path) for path in {paths!r}] == {expected!r}
assert "hashlib" in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr


def test_package_names_resolve_lazily_to_their_submodules():
    import importlib

    import moemeter
    from moemeter import _EXPORTS

    assert sorted(moemeter.__all__) == sorted(name for names in _EXPORTS.values() for name in names)
    listed = dir(moemeter)
    for module, names in _EXPORTS.items():
        home = importlib.import_module(f"moemeter.{module}")
        assert getattr(moemeter, module) is home
        for name in names:
            assert getattr(moemeter, name) is getattr(home, name)
            assert name in listed
    assert moemeter.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        moemeter.no_such_name  # noqa: B018
    namespace = {}
    exec("from moemeter import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(moemeter.__all__)


@pytest.mark.parametrize("command", ["simulate", "plan", "metrics"])
def test_fractional_top_k_descriptor_exits_2(tmp_path, capsys, command):
    from moemeter.cli import main

    doc = json.loads((MODELS / "mixtral-8x7b.json").read_text())
    doc["top_k"] = 1.5
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--model", model, "--batch", 4, "--dist", "uniform", "--passes", 1,
                     "--seed", 0, "--out", out / "sim.trace"],
        "plan": ["plan", "--model", model, "--catalog", CATALOG, "--mode", "expected", "--batch", 4,
                 "--dist", "zipf:1.1", "--output-dir", out],
        "metrics": ["metrics", "--model", model, "--trace", TRACES / "sample_decode.trace", "--catalog", CATALOG,
                    "--device", "H100-SXM", "--bytes-per-param", "1.0", "--output-dir", out],
    }[command]
    assert main([str(a) for a in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "top_k"
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
@pytest.mark.parametrize("command", ["plan", "metrics"])
def test_non_finite_catalog_number_exits_2(tmp_path, capsys, command, literal):
    from moemeter.cli import main

    devices = json.loads(CATALOG.read_text())
    devices[0]["peak_bandwidth_gbps"] = "@"
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(devices).replace('"@"', literal))
    out = tmp_path / "out"
    argv = {
        "plan": ["plan", "--model", MODELS / "mixtral-8x7b.json", "--catalog", catalog, "--fig2",
                 "--output-dir", out],
        "metrics": ["metrics", "--model", MODELS / "toy-4x2.json", "--trace", TRACES / "sample_decode.trace",
                    "--catalog", catalog, "--device", devices[0]["name"], "--bytes-per-param", "1.0",
                    "--output-dir", out],
    }[command]
    assert main([str(a) for a in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["field"] == "document" and literal in err["error"]["message"]
    assert not out.exists()


def test_json_reports_refuse_non_finite_numbers(tmp_path, capsys):
    from moemeter.cli import main

    # finite inputs whose total cost overflows a double
    inputs = {
        "bill_of_materials": {"gpu_usd": 1.5e308, "cpu_usd": 1.5e308, "motherboard_usd": 0, "dram_usd": 0, "ssd_usd": 0},
        "power_profile": {"gpu_watts": 400, "cpu_watts": 100},
        "economics": {"runtime_hours": 8760, "energy_price_usd_per_kwh": 0.1, "token_throughput_tps": 1000},
    }
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(inputs))
    assert main(["cost", "--inputs", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == "report"
    assert not (tmp_path / "out").exists()


def _trace_commands(trace, out):
    """Every command that reads --trace: metrics, and plan in and out of trace mode."""
    plan = ["plan", "--model", MODELS / "toy-4x2.json", "--catalog", CATALOG, "--trace", trace, "--output-dir", out]
    return {
        "metrics": ["metrics", "--model", MODELS / "toy-4x2.json", "--trace", trace, "--catalog", CATALOG,
                    "--device", "H100-SXM", "--bytes-per-param", "1.0", "--output-dir", out],
        "plan-trace": [*plan, "--mode", "trace"],
        "plan-unused-trace": [*plan, "--mode", "batch1_analytic"],
    }


@pytest.mark.parametrize("command", ["metrics", "plan-trace", "plan-unused-trace"])
def test_each_command_validates_its_trace_once(tmp_path, monkeypatch, command):
    from moemeter import cli, metrics, planner, trace

    calls = []
    original = trace.validate_sheet

    def counted(sheet, desc):
        calls.append(sheet.model_name)
        return original(sheet, desc)

    for module in (trace, metrics, planner):
        monkeypatch.setattr(module, "validate_sheet", counted)
    argv = _trace_commands(TRACES / "sample_decode.trace", tmp_path)[command]
    assert cli.main([str(a) for a in argv]) == 0
    assert calls == ["toy-4x2"]


@pytest.mark.parametrize("command", ["metrics", "plan-trace", "plan-unused-trace"])
@pytest.mark.parametrize(
    "records, field",
    [
        ("model=other-model\n0,decode,1,1,0.004,0,0:3;1:3\n", "model_name"),
        ("model=toy-4x2\n0,decode,1,1,0.004,0,0:0;1:3\n", "activated"),  # a layer with 0 experts
        # int() and float() alone would read these as batch 10, batch 3, layer 0 and 0.004 s
        ("model=toy-4x2\n0,decode,1_0,1_0,0.004,0,0:a;1:7\n", "record"),
        ("model=toy-4x2\n0,decode,\u0663,\u0663,0.004,0,0:a;1:7\n", "record"),
        ("model=toy-4x2\n0,decode,2,2,0.004,0,\u0660:3;1:3\n", "activated"),
        ("model=toy-4x2\n0,decode,2,2,0.00_4,0,0:3;1:3\n", "record"),
    ],
)
def test_invalid_trace_exits_2_on_every_command(tmp_path, capsys, command, records, field):
    from moemeter.cli import main

    bad = tmp_path / "bad.trace"
    bad.write_text(records)
    out = tmp_path / "out"
    argv = _trace_commands(bad, out)[command]
    assert main([str(a) for a in argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == field
    assert not out.exists()


def test_trace_plan_without_kv_is_byte_stable(tmp_path, monkeypatch):
    import hashlib
    import shutil

    from moemeter.cli import main

    # relative paths, so the digests in the report do not depend on tmp_path
    shutil.copy(MODELS / "toy-4x2.json", tmp_path / "toy-4x2.json")
    shutil.copy(CATALOG, tmp_path / "catalog.json")
    monkeypatch.chdir(tmp_path)
    simulate = ["simulate", "--model", "toy-4x2.json", "--batch", "2", "--dist", "uniform", "--passes", "10",
                "--seed", "7", "--out", "zero_kv.trace"]
    plan = ["plan", "--model", "toy-4x2.json", "--catalog", "catalog.json", "--mode", "trace", "batch1_analytic",
            "--trace", "zero_kv.trace", "--output-dir", "out"]
    assert main(simulate) == 0 and main(plan) == 0
    # an all-decode trace with no recorded KV and no --kv-bytes: trace mode's
    # KV rule and decode-only mean leave its plan unchanged, byte for byte
    digest = hashlib.sha256((tmp_path / "out" / "plan_report.json").read_bytes()).hexdigest()
    assert digest == "82188b050564b053298aa39dcedc8d9b2bda6e7b551f9138df87ff03e58bccd6"


def test_repeated_mode_exits_2_without_output(tmp_path, capsys):
    from moemeter.cli import main

    out = tmp_path / "out"
    argv = [*_trace_commands(TRACES / "sample_decode.trace", out)["plan-trace"], "trace"]
    assert main([str(a) for a in argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == "mode"
    assert not out.exists()


def test_fig2_keeps_the_modes_asked_for(tmp_path, capsys):
    from moemeter.cli import main

    out = tmp_path / "out"
    argv = [*_trace_commands(TRACES / "sample_decode.trace", out)["plan-trace"], "--fig2"]
    assert main([str(a) for a in argv]) == 0, capsys.readouterr().err
    plan = json.loads((out / "plan_report.json").read_text())
    modes = ["batch1_analytic", "full_activation", "trace"]
    assert [req["activation_mode"] for req in plan["requirements"]] == modes
    assert sorted(plan["feasibility"]) == modes
    lines = json.loads((out / "bandwidth_power_map.json").read_text())["requirement_lines"]
    assert [line["activation_mode"] for line in lines] == modes[:2]


def test_fig2_builds_each_requirement_once(tmp_path, monkeypatch):
    from moemeter import planner
    from moemeter.cli import main

    built = []
    plan_requirement = planner.plan_requirement

    def counted(*args, **kwargs):
        built.append(args[3])
        return plan_requirement(*args, **kwargs)

    monkeypatch.setattr(planner, "plan_requirement", counted)
    argv = ["plan", "--model", MODELS / "deepseek-r1.json", "--catalog", CATALOG, "--fig2",
            "--output-dir", tmp_path / "out"]
    assert main([str(a) for a in argv]) == 0
    assert built == ["batch1_analytic", "full_activation"]


@pytest.mark.parametrize("every_pass_records_kv", [False, True])
def test_metrics_kv_seq_len_below_one_exits_2(tmp_path, capsys, every_pass_records_kv):
    from moemeter.cli import main

    trace = TRACES / "sample_decode.trace"
    if every_pass_records_kv:
        text = trace.read_text().replace("0,decode,2,2,0.004,0,", "0,decode,2,2,0.004,2048,")
        trace = tmp_path / "all_kv.trace"
        trace.write_text(text)
    out = tmp_path / "out"
    argv = [*_trace_commands(trace, out)["metrics"], "--kv-seq-len", 0]
    assert main([str(a) for a in argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == "kv_seq_len"
    assert not out.exists()


@pytest.mark.parametrize("batch", ["-1", "0"])
@pytest.mark.parametrize(
    "mode",
    [["--with-ops"], ["--mode", "full_activation"], ["--mode", "expected", "--dist", "uniform"], ["--fig2"]],
    ids=["batch1-with-ops", "full", "expected", "fig2"],
)
def test_plan_batch_below_one_exits_2_in_every_mode(tmp_path, capsys, batch, mode):
    from moemeter.cli import main

    out = tmp_path / "out"
    argv = ["plan", "--model", MODELS / "toy-4x2.json", "--catalog", CATALOG, *mode, "--batch", batch,
            "--output-dir", out]
    assert main([str(a) for a in argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == "batch"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--bytes-per-param", "3", "bytes_per_param"),
        ("--slo", "abc", "slo"),
        # unrecognized arguments: the first one names the field
        ("--frob", "1", "frob"),
        ("--frob-level=2", "--zap", "frob_level"),
        ("stray", "words", "stray"),
        ("traces/x.trace", "words", "traces/x.trace"),
        ("-5", "words", "-5"),
    ],
)
def test_bad_argument_prints_json_error(tmp_path, capsys, flag, value, field):
    from moemeter.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["plan", "--model", str(MODELS / "toy-4x2.json"), flag, value, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation" and err["field"] == field and value in err["message"]
    assert not list(tmp_path.iterdir())


def test_help_still_prints_usage(capsys):
    from moemeter.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["plan", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: moemeter plan")


# prefill and decode passes, with and without recorded KV, on toy-4x2
MIXED_TOY_TRACE = """model=toy-4x2
0,prefill,2,64,0.031,0,0:f;1:f
1,decode,2,2,0.0043,0,0:a;1:7
2,decode,1,1,0.0021,4096,0:5;1:a
3,prefill,1,32,0.017,2048,0:3;1:e
4,decode,4,4,0.0057,8192,0:f;1:d
"""

_METRICS = ["metrics", "--model", "toy-4x2.json", "--catalog", "catalog.json", "--device", "A100-PCIe-80G",
            "--bytes-per-param", "2.0", "--output-dir", "out"]
_PLAN = ["plan", "--model", "toy-4x2.json", "--catalog", "catalog.json", "--mode", "trace", "--output-dir", "out"]


@pytest.mark.parametrize(
    "argv, digests",
    [
        pytest.param(
            [*_METRICS, "--trace", "sample_decode.trace"],
            {
                "metrics_report.json": "cbc6b5b61efe4f4a998101592e7cc621f0d5dbd086d4d9b7a39f6727ed648baa",
                "metrics_report.csv": "bcd3f7b7d3a4cf54a0b3e1cb15c02b28aff80501cfd1cdc203c6dac21ce2d921",
            },
            id="metrics-sample",
        ),
        pytest.param(
            [*_METRICS, "--trace", "sample_with_comments.trace"],
            {
                "metrics_report.json": "2f84b578501d61db6c5fbb193e4479a1a7d4bdfb29a282bab8506e407d27b915",
                "metrics_report.csv": "320f645eb11c57396b7f8f41ac49af7d3e8db5282ffa57b34846876bd9a8e054",
            },
            id="metrics-comments",
        ),
        pytest.param(
            [*_METRICS, "--trace", "mixed.trace"],
            {
                "metrics_report.json": "f1bb971444645299efecec93dec2dd140d666dc8db77abef042fa7efc1c82681",
                "metrics_report.csv": "944eb87d9da7f58c390c36fac59e2735d7181aa50c68fb1331b50c627cf3be9f",
            },
            id="metrics-mixed",
        ),
        pytest.param(
            [*_METRICS, "--trace", "mixed.trace", "--kv-seq-len", "128", "--seq-len", "64", "--exclude-embed"],
            {
                "metrics_report.json": "a074644e50cff6a5ed33c34aaf98bd0061df359d0d85f3ab623376f7d23c43b2",
                "metrics_report.csv": "66aab74f125eaed3e67b1ebc8d24f06e92f913db99b6fa65c058f0da0ab3a25e",
            },
            id="metrics-mixed-kv-seq-len-exclude-embed",
        ),
        pytest.param(
            [*_PLAN, "--trace", "sample_decode.trace"],
            {
                "plan_report.json": "41980d384f6fb2c7e590cb0d69f81c535793b52fa2a7661a892b4a03e873e5e0",
            },
            id="plan-sample",
        ),
        pytest.param(
            [*_PLAN, "--trace", "sample_with_comments.trace"],
            {
                "plan_report.json": "8d3e45481c2140f79100cc7476d1b5335db8b5b5ed7842c981bd12b920e87585",
            },
            id="plan-comments",
        ),
        pytest.param(
            [*_PLAN, "--trace", "mixed.trace", "--with-ops"],
            {
                "plan_report.json": "4445c546b776706aa0015dd83ad68e9be887cdbdbfb41de1cb1b95f3d675bb44",
            },
            id="plan-mixed",
        ),
        pytest.param(
            [*_PLAN, "--trace", "mixed.trace", "--kv-bytes", "1500000", "--exclude-embed", "--bytes-per-param", "0.5"],
            {
                "plan_report.json": "0872e77da4d02783a66abc39f647cd2254b26cb4f3b1e2b6c33a49c698e9e126",
            },
            id="plan-mixed-kv-bytes-exclude-embed",
        ),
    ],
)
def test_trace_reports_are_byte_stable(tmp_path, monkeypatch, capsys, argv, digests):
    import hashlib
    import shutil

    from moemeter.cli import main

    # relative paths, so the digests in the reports do not depend on tmp_path
    shutil.copy(MODELS / "toy-4x2.json", tmp_path / "toy-4x2.json")
    shutil.copy(CATALOG, tmp_path / "catalog.json")
    for name in ("sample_decode.trace", "sample_with_comments.trace"):
        shutil.copy(TRACES / name, tmp_path / name)
    (tmp_path / "mixed.trace").write_text(MIXED_TOY_TRACE)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "out").iterdir()}
    assert written == digests


def test_metrics_names_an_overflowing_latency_total(tmp_path, capsys):
    from moemeter.cli import main

    lines = (TRACES / "sample_decode.trace").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    text = "\n".join([lines[0], *(",".join([*row[:4], "1e308", *row[5:]]) for row in rows)]) + "\n"
    trace = tmp_path / "slow.trace"
    trace.write_text(text)
    argv = ["metrics", "--model", MODELS / "toy-4x2.json", "--trace", trace, "--catalog", CATALOG,
            "--device", "A100-PCIe-80G", "--bytes-per-param", "2.0", "--output-dir", tmp_path / "out"]
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["field"] == "latency_s"
    assert not (tmp_path / "out").exists()


COST_INPUTS_TEXT = """{
  "bill_of_materials": {"gpu_usd": 8000, "cpu_usd": 1000, "motherboard_usd": 500, "dram_usd": 300, "ssd_usd": 200},
  "power_profile": {"gpu_watts": 400, "cpu_watts": 100},
  "economics": {"runtime_hours": 8760, "energy_price_usd_per_kwh": 0.1, "token_throughput_tps": 1000}
}
"""


@pytest.mark.parametrize(
    "argv, digests",
    [
        pytest.param(
            ["plan", "--model", "deepseek-r1.json", "--catalog", "catalog.json", "--mode", "expected",
             "batch1_analytic", "--batch", "8", "--dist", "zipf:1.1", "--with-ops",
             "--sweep-batches", "1,2,4,8,16,32,64", "--fig2", "--output-dir", "out"],
            {
                "plan_report.json": "0100869f2884b47522170c76fe2bd0f5cd9feaecbd36404a3ab32379047bdbbf",
                "bandwidth_power_map.json": "518dd20baa4fe887f0b5d23fb3167f4f0ff8130a59d7851d7b64ee579a1fb45a",
                "batch_sweep.csv": "ded27aa637760ac33accc35bc015fceb5f6443c27e446f937147bd048d2d945f",
                "stdout": "856c14bb0581ef7e7281ebb1569e922d1270be2be7ea9b03159658ca0e1bb81d",
            },
            id="plan-expected-sweep-fig2",
        ),
        pytest.param(
            ["metrics", "--model", "toy-4x2.json", "--trace", "sample_decode.trace", "--catalog", "catalog.json",
             "--device", "A100-PCIe-80G", "--bytes-per-param", "2.0", "--output-dir", "out"],
            {
                "metrics_report.json": "cbc6b5b61efe4f4a998101592e7cc621f0d5dbd086d4d9b7a39f6727ed648baa",
                "metrics_report.csv": "bcd3f7b7d3a4cf54a0b3e1cb15c02b28aff80501cfd1cdc203c6dac21ce2d921",
                "stdout": "55c3ad7a1f696c312a0285d63a231b143949704de13aaf0284a8b4f066d89536",
            },
            id="metrics",
        ),
        pytest.param(
            ["radar", "--records", "radar_serving_systems.json", "--output-dir", "out"],
            {
                "radar_report.json": "09491c1ab104fe503dc63a42b8331b1d9a3a2819384f5bd7e80d13abcb1c8e75",
                "radar_report.csv": "35c2a648e9673c49d95f84b9a9c910e9affde2c1f72042cda90a2cfd6c524d38",
                "stdout": "d9c7ea0dc4f2d966bc577ce1e5e797f9c15497984f893b82c8dc3c78f445512d",
            },
            id="radar",
        ),
        pytest.param(
            ["cost", "--inputs", "cost_inputs.json", "--output-dir", "out"],
            {
                "cost_report.json": "34a6143ed4725175ed45ca3804c397d183e1b6d5b0501d939b8f877d563a351b",
                "stdout": "4e82c1ef0affb9727e474a7abb570f0f12b187b5f310aa863b14a4cd04dcf3c2",
            },
            id="cost",
        ),
        pytest.param(
            ["recommend", "--rules", "decision_matrix.json", "--tier", "workstation_gpu_a5000", "--batch", "4",
             "--primary", "cost", "--secondary", "latency", "--output-dir", "out"],
            {
                "recommendation.json": "91816c0238f97beec93b1833f5b3899e7c820ce82d56678cd32f6bafd58c45b3",
                "stdout": "1d8c2f38d08d5e1fed30e7608819ea1c7a428c5c31340442b90bdedfcf8472b6",
            },
            id="recommend",
        ),
        pytest.param(
            ["simulate", "--model", "deepseek-r1.json", "--batch", "8", "--dist", "zipf:1.1", "--passes", "3",
             "--seed", "11", "--out", "out/r1.trace"],
            {
                "r1.trace": "f5ce69b4f8d3bd441bb567d7d33994fa45f3a68b5b07f822ded4f46b38e86b9b",
                "stdout": "5f1c9423a149a3f9ebbca6be4f8b0a3cfd39db11409185b9e4a73b2335e63b47",
            },
            id="simulate",
        ),
    ],
)
def test_every_command_output_is_byte_stable(tmp_path, monkeypatch, capsys, argv, digests):
    import hashlib
    import shutil

    from moemeter.cli import main

    # relative paths, so neither the digests in the reports nor stdout depend on tmp_path
    sources = (MODELS / "deepseek-r1.json", MODELS / "toy-4x2.json", TRACES / "sample_decode.trace",
               BUNDLES / "radar_serving_systems.json", RULES)
    for source in sources:
        shutil.copy(source, tmp_path / source.name)
    shutil.copy(CATALOG, tmp_path / "catalog.json")
    (tmp_path / "cost_inputs.json").write_text(COST_INPUTS_TEXT)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "out").iterdir()}
    written["stdout"] = hashlib.sha256(captured.out.encode()).hexdigest()
    assert written == digests


def test_plan_sweep_overflow_exits_2_without_output(tmp_path, capsys):
    from moemeter.cli import main

    # a 1e-297 s/token target overflows the batch-64 bandwidth, though the plan report stays finite
    out = tmp_path / "out"
    argv = ["plan", "--model", MODELS / "deepseek-r1.json", "--catalog", CATALOG, "--slo", "1e-297",
            "--sweep-batches", "1,64", "--output-dir", out]
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["field"] == "report"
    assert not out.exists()


def test_failed_write_removes_the_runs_earlier_outputs(tmp_path, capsys):
    from moemeter.cli import main

    # the JSON report is written first; a directory in the CSV's place makes the second write fail
    out = tmp_path / "out"
    (out / "metrics_report.csv").mkdir(parents=True)
    argv = ["metrics", "--model", MODELS / "toy-4x2.json", "--trace", TRACES / "sample_decode.trace",
            "--catalog", CATALOG, "--device", "H100-SXM", "--bytes-per-param", "1.0", "--output-dir", out]
    assert main([str(a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "input" and set(error) == {"type", "message"}
    assert not (out / "metrics_report.json").exists()
    assert (out / "metrics_report.csv").is_dir()


def test_failed_run_keeps_an_earlier_runs_report(tmp_path, capsys):
    from moemeter.cli import main

    # a directory in the sweep CSV's place fails the second run before any file is replaced
    out = tmp_path / "out"
    argv = ["plan", "--model", MODELS / "mixtral-8x7b.json", "--catalog", CATALOG, "--output-dir", out]
    assert main([str(a) for a in argv]) == 0
    before = (out / "plan_report.json").read_bytes()
    (out / "batch_sweep.csv").mkdir()
    capsys.readouterr()
    assert main([str(a) for a in [*argv, "--sweep-batches", "1,2"]]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"
    assert (out / "plan_report.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["batch_sweep.csv", "plan_report.json"]


def _metrics_run(out, device):
    return [str(a) for a in [*_METRICS_ARGV, "--device", device, "--output-dir", out]]


def test_failed_temporary_write_leaves_no_temporaries(tmp_path, monkeypatch, capsys):
    import errno

    import moemeter.cli as cli

    out = tmp_path / "out"
    assert cli.main(_metrics_run(out, "H100-SXM")) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    class FullDisk:
        # the second temporary takes part of its text, then the disk is full
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:10])
            raise OSError(errno.ENOSPC, "No space left on device")

    opened = []

    def failing_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if mode == "w":
            opened.append(path)
        return FullDisk(fh) if mode == "w" and len(opened) == 2 else fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert cli.main(_metrics_run(out, "A100-PCIe-80G")) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"
    assert len(opened) == 2 and all(path.parent == out for path in opened)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_rename_leaves_every_report_whole(tmp_path, monkeypatch, capsys):
    import os

    from moemeter.cli import main

    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert main(_metrics_run(fresh, "A100-PCIe-80G")) == 0
    assert main(_metrics_run(out, "H100-SXM")) == 0
    new = {p.name: p.read_bytes() for p in fresh.iterdir()}
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert new.keys() == before.keys() and all(new[name] != before[name] for name in new)
    renamed = []
    replace = os.replace

    def failing_replace(src, dst):
        # the first report takes its name, then renaming fails
        if renamed:
            raise OSError(5, "Input/output error")
        renamed.append(dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(_metrics_run(out, "A100-PCIe-80G")) == 2
    monkeypatch.undo()
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"
    # the renamed report holds this run's text whole, the other its earlier bytes; no temporary is left
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert after.keys() == before.keys() and len(renamed) == 1
    for name, text in after.items():
        assert text == (new[name] if out / name == renamed[0] else before[name])


def _csv_table(path):
    """The header and data rows of a CSV report, past its ``#`` comment line."""
    import csv
    import io

    comment, header, *rows = csv.reader(io.StringIO(path.read_text(encoding="utf-8")))
    assert comment[0].startswith("# inputs ")
    for row in rows:
        assert len(row) == len(header), row
    return header, rows


def test_radar_csv_quotes_a_system_name_with_commas_and_quotes(tmp_path, capsys):
    from moemeter.cli import main

    name = 'vllm, fp8 "tuned"'
    records = json.loads((BUNDLES / "radar_serving_systems.json").read_text())
    records[0]["system_name"] = name
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    assert main(["radar", "--records", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    header, rows = _csv_table(tmp_path / "out" / "radar_report.csv")
    assert len(header) == 8
    assert [row[0] for row in rows] == [r["system_name"] for r in records]


def test_sweep_csv_quotes_a_device_name_with_a_comma(tmp_path, capsys):
    from moemeter.cli import main

    devices = json.loads(CATALOG.read_text())
    for device in devices:
        if device["name"] == "H100-SXM":
            device["name"] = "H100, SXM"
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(devices))
    argv = ["plan", "--model", MODELS / "toy-4x2.json", "--catalog", catalog, "--sweep-batches", "1,2",
            "--output-dir", tmp_path / "out"]
    assert main([str(a) for a in argv]) == 0
    header, rows = _csv_table(tmp_path / "out" / "batch_sweep.csv")
    assert len(header) == 6
    assert all("H100, SXM" in row[-1].split("|") for row in rows)


@pytest.mark.parametrize("command", ["metrics", "plan-trace"])
def test_kv_count_beyond_a_double_exits_2_naming_it(tmp_path, capsys, command):
    from moemeter.cli import main

    lines = (TRACES / "sample_decode.trace").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows[1][5] = str(10**400)
    trace = tmp_path / "huge_kv.trace"
    trace.write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n")
    out = tmp_path / "out"
    assert main([str(a) for a in _trace_commands(trace, out)[command]]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["field"] == "kv_bytes_read"
    assert not out.exists()


# plan flags, and the settings that plan_requirement receives for them
_AGREEMENT_CASES = [
    pytest.param(
        ["--mode", "expected", "--batch", "8", "--dist", "uniform",
         "--kv-bytes", "1e9", "--sweep-batches", "8"],
        dict(model="mixtral-8x7b.json", bpp=1.0, slo=0.1, dist=("uniform",), plan=dict(kv_bytes=1e9)),
        id="mixtral-kv-bytes-sweep",
    ),
    pytest.param(
        ["--mode", "expected", "--batch", "64", "--dist", "uniform", "--with-ops",
         "--bytes-per-param", "0.5", "--slo", "0.02", "--sweep-batches", "64"],
        dict(model="mixtral-8x7b.json", bpp=0.5, slo=0.02, dist=("uniform",), plan=dict(include_ops=True)),
        id="mixtral-with-ops-sweep",
    ),
    pytest.param(
        ["--fig2", "--kv-bytes", "2e9"],
        dict(model="deepseek-r1.json", bpp=1.0, slo=0.1, dist=None, plan=dict(kv_bytes=2e9)),
        id="r1-kv-bytes-fig2",
    ),
    pytest.param(
        ["--mode", "expected", "--batch", "8", "--dist", "zipf:1.1", "--with-ops",
         "--efficiency-mfu", "0.2", "--seq-len", "4096", "--kv-bytes", "5e8", "--sweep-batches", "1,8,64"],
        dict(model="deepseek-r1.json", bpp=1.0, slo=0.1, dist=("zipf", 1.1),
             plan=dict(kv_bytes=5e8, include_ops=True, efficiency_mfu=0.2, seq_len=4096)),
        id="r1-zipf-ops-kv-sweep",
    ),
]


@pytest.mark.parametrize("argv, settings", _AGREEMENT_CASES)
def test_sweep_rows_and_fig2_lines_agree_with_the_plan(tmp_path, capsys, argv, settings):
    from moemeter.catalog import load_catalog
    from moemeter.cli import main
    from moemeter.models import Precision, load_model_descriptor
    from moemeter.planner import SloSpec, feasibility, plan_requirement
    from moemeter.routing import RoutingDistribution

    out = tmp_path / "out"
    argv = ["plan", "--model", MODELS / settings["model"], *argv, "--catalog", CATALOG, "--output-dir", out]
    assert main([str(a) for a in argv]) == 0, capsys.readouterr().err
    plan = json.loads((out / "plan_report.json").read_text())
    requirements = {req["activation_mode"]: req for req in plan["requirements"]}

    if (out / "batch_sweep.csv").exists():
        desc = load_model_descriptor(MODELS / settings["model"])
        catalog = load_catalog(CATALOG)
        kind, *params = settings["dist"]
        dist = getattr(RoutingDistribution, kind)(*params)
        header, rows = _csv_table(out / "batch_sweep.csv")
        for row in rows:
            point = dict(zip(header, row))
            batch = int(point["batch"])
            devices = point["feasible_devices"].split("|") if point["feasible_devices"] else []
            req = plan_requirement(desc, Precision(settings["bpp"]), SloSpec(settings["slo"]), "expected",
                                   batch=batch, dist=dist, **settings["plan"])
            feasible = [v.name for v in feasibility(req, catalog) if v.satisfied]
            assert float(point["theoretical_gbps"]) == req.theoretical_bandwidth_gbps
            assert float(point["practical_gbps"]) == req.practical_bandwidth_gbps
            assert devices == feasible
            if batch == int(argv[argv.index("--batch") + 1]):
                # the row is the expected-mode plan of this very run
                planned = requirements["expected"]
                assert float(point["theoretical_gbps"]) == planned["theoretical_bandwidth_gbps"]
                assert float(point["practical_gbps"]) == planned["practical_bandwidth_gbps"]
                verdicts = plan["feasibility"]["expected"]
                assert devices == [v["name"] for v in verdicts if v["satisfied"]]

    if (out / "bandwidth_power_map.json").exists():
        lines = json.loads((out / "bandwidth_power_map.json").read_text())["requirement_lines"]
        assert [line["activation_mode"] for line in lines] == ["batch1_analytic", "full_activation"]
        for line in lines:
            planned = requirements[line["activation_mode"]]
            assert line["theoretical_bandwidth_gbps"] == planned["theoretical_bandwidth_gbps"]
            assert line["practical_bandwidth_gbps"] == planned["practical_bandwidth_gbps"]


@pytest.mark.parametrize(
    "command, kv_counts, extra, params_expert, field",
    [
        # toy-4x2 records no KV here, so the fallback is at fault
        pytest.param("plan", [0, 0, 0], ["--kv-bytes", "1e308"], None, "kv_bytes", id="plan-kv-bytes-fallback"),
        pytest.param("metrics", [0, 0, 0], ["--kv-seq-len", str(10**306)], None, "kv_seq_len", id="metrics-kv-seq-len"),
        # recorded counts that each fit a double, beside an innocent fallback
        pytest.param("plan", [10**308, 10**308, 0], ["--kv-bytes", "1e3"], None, "kv_bytes_read", id="plan-recorded-kv"),
        # each pass reads 8e307 expert parameters: they overflow on their own, beside an innocent fallback
        pytest.param("metrics", [0, 0, 0], ["--kv-seq-len", "1"], 2 * 10**307, "report", id="metrics-params"),
    ],
)
def test_byte_overflow_names_the_input_at_fault(tmp_path, capsys, command, kv_counts, extra, params_expert, field):
    from moemeter.cli import main

    model = MODELS / "toy-4x2.json"
    if params_expert is not None:
        doc = json.loads(model.read_text())
        doc["params_expert"] = params_expert
        model = tmp_path / "toy-4x2.json"
        model.write_text(json.dumps(doc))
    trace = tmp_path / "toy.trace"
    rows = [f"{i},decode,2,2,0.01,{kv},0:3;1:3" for i, kv in enumerate(kv_counts)]
    trace.write_text("\n".join(["model=toy-4x2", *rows]) + "\n")
    out = tmp_path / "out"
    argv = {
        "plan": ["plan", "--mode", "trace"],
        "metrics": ["metrics", "--device", "H100-SXM", "--bytes-per-param", "1.0"],
    }[command]
    argv += ["--model", model, "--trace", trace, "--catalog", CATALOG, *extra, "--output-dir", out]
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert (error["field"], error["message"]) == (field, "the passes' bytes sum to more than a double holds")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("perf_direction", "sideways", "perf_direction"),
        # a tpot_s cohort with one throughput record
        ("perf_kind", "throughput_tps", "perf_kind"),
    ],
)
def test_radar_error_names_the_records_own_key(tmp_path, capsys, key, value, field):
    from moemeter.cli import main

    records = json.loads((BUNDLES / "radar_serving_systems.json").read_text())
    records[0][key] = value
    path = tmp_path / "records.json"
    path.write_text(json.dumps(records))
    out = tmp_path / "out"
    assert main(["radar", "--records", str(path), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    error = json.loads(err[0])["error"]
    assert error["field"] == field and field in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "plan"])
def test_unlisted_precision_exits_2_listing_the_allowed_ones(tmp_path, capsys, command):
    from moemeter.cli import main

    argv = {
        "metrics": ["metrics", "--trace", TRACES / "sample_decode.trace", "--device", "H100-SXM"],
        "plan": ["plan"],
    }[command]
    argv += ["--model", MODELS / "toy-4x2.json", "--catalog", CATALOG, "--bytes-per-param", "3",
             "--output-dir", tmp_path / "out"]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    assert exc.value.code == 2
    message = "argument --bytes-per-param: invalid choice: 3.0 (choose from 0.5, 1.0, 2.0, 4.0)"
    error = {"error": {"field": "bytes_per_param", "message": message, "type": "validation"}}
    assert capsys.readouterr().err == json.dumps(error, sort_keys=True) + "\n"
    assert not (tmp_path / "out").exists()


def _outputs_without_inputs(out):
    """Each file a run wrote, less the lines that name its inputs or the
    embedding flag: the JSON ``inputs`` and ``include_embed`` fields and the
    CSV digest comment."""
    docs = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            del doc["inputs"]
            for section in ("report", "assumptions"):
                doc.get(section, {}).pop("include_embed", None)
            docs[path.name] = doc
        else:
            docs[path.name] = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return docs


@pytest.mark.parametrize("model", sorted(path.name for path in MODELS.glob("*.json")))
def test_exclude_embed_equals_a_descriptor_without_embedding(tmp_path, capsys, model):
    from moemeter.cli import main

    doc = json.loads((MODELS / model).read_text())
    assert doc["params_embed"] > 0
    bare = tmp_path / model
    bare.write_text(json.dumps({**doc, "params_embed": 0}))
    runs = [["plan", "--mode", "batch1_analytic", "full_activation", "expected", "--batch", 8, "--dist", "zipf:1.1",
             "--with-ops", "--sweep-batches", "1,4,16,64", "--fig2"]]
    if doc["name"] == "toy-4x2":
        trace = TRACES / "sample_decode.trace"
        runs += [
            ["metrics", "--trace", trace, "--device", "A100-PCIe-80G", "--bytes-per-param", 2.0,
             "--kv-seq-len", 128, "--seq-len", 64],
            ["plan", "--mode", "trace", "--trace", trace, "--with-ops", "--kv-bytes", 1500000],
        ]
    for i, run in enumerate(runs):
        outputs = []
        for path, flag in ((MODELS / model, ["--exclude-embed"]), (bare, [])):
            out = tmp_path / f"run{i}{''.join(flag)}"
            argv = [*run, "--model", path, *flag, "--catalog", CATALOG, "--output-dir", out]
            assert main([str(a) for a in argv]) == 0, capsys.readouterr().err
            outputs.append(_outputs_without_inputs(out))
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# How a CLI process ends: flush, then os._exit, skipping interpreter teardown
# ---------------------------------------------------------------------------

_METRICS_ARGV = ["metrics", "--model", MODELS / "toy-4x2.json", "--trace", TRACES / "sample_decode.trace",
                 "--catalog", CATALOG, "--bytes-per-param", 2]


def _buffered_env():
    import os

    # without PYTHONUNBUFFERED a piped stdout and stderr hold what is printed
    # until a flush, which the hard exit must not skip
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_hard_exit_delivers_buffered_streams(tmp_path):
    ok = subprocess.run(
        [sys.executable, "-m", "moemeter", *map(str, _METRICS_ARGV), "--device", "H100-SXM", "--output-dir", tmp_path],
        capture_output=True, text=True, env=_buffered_env(), cwd=REPO_ROOT,
    )
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout.splitlines() == [str(tmp_path / "metrics_report.json"), str(tmp_path / "metrics_report.csv")]
    bad = subprocess.run(
        [sys.executable, "-m", "moemeter", *map(str, _METRICS_ARGV), "--device", "nope", "--output-dir", tmp_path / "x"],
        capture_output=True, text=True, env=_buffered_env(), cwd=REPO_ROOT,
    )
    assert (bad.returncode, bad.stdout) == (2, "")
    assert json.loads(bad.stderr) == {
        "error": {"field": "device", "message": "device 'nope' not in catalog", "type": "validation"}
    }


def test_commands_register_no_atexit_callback(tmp_path):
    # the hard exit skips every atexit callback, so a dependency that starts
    # registering one must be noticed here before its work is lost
    sweep = ["plan", "--model", MODELS / "deepseek-r1.json", "--catalog", CATALOG, "--mode", "expected",
             "--batch", 8, "--dist", "zipf:1.1", "--sweep-batches", "1,8", "--fig2"]
    simulate = ["simulate", "--model", MODELS / "toy-4x2.json", "--batch", 4, "--dist", "zipf:0.7", "--passes", 3,
                "--seed", 1, "--out", tmp_path / "s.trace"]
    metrics = [*_METRICS_ARGV, "--device", "H100-SXM"]
    runs = [[str(a) for a in argv] for argv in (metrics, [*sweep, "--output-dir", tmp_path], simulate)]
    code = f"""
import atexit
before = atexit._ncallbacks()
import moemeter.cli
for argv in {runs!r}:
    assert moemeter.cli.main(argv) == 0, argv[0]
    assert atexit._ncallbacks() == before, (argv[0], before, atexit._ncallbacks())
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("extra, code, fires", [
    (["--device", "H100-SXM"], 0, False),  # the hard exit
    (["--device", "nope"], 2, False),  # an exit-2 run ends the same way
    (["--frob"], 2, True),  # argparse leaves main by SystemExit: the normal exit
])
def test_cli_process_skips_teardown_only_after_main_returns(tmp_path, extra, code, fires):
    argv = [str(a) for a in [*_METRICS_ARGV, *extra, "--output-dir", tmp_path]]
    script = f"""
import atexit, runpy, sys
atexit.register(print, "teardown ran", file=sys.stderr)
sys.argv = ["moemeter", *{argv!r}]
runpy.run_module("moemeter", run_name="__main__", alter_sys=True)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == code, result.stderr
    assert ("teardown ran" in result.stderr) is fires


def test_process_without_stdout_still_writes_and_exits_0(tmp_path):
    argv = [str(a) for a in [*_METRICS_ARGV, "--device", "H100-SXM", "--output-dir", tmp_path]]
    script = f"""
import runpy, sys
sys.stdout = None  # as when the process starts with descriptor 1 closed
sys.argv = ["moemeter", *{argv!r}]
runpy.run_module("moemeter", run_name="__main__", alter_sys=True)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=REPO_ROOT)
    assert (result.returncode, result.stderr) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics_report.csv", "metrics_report.json"]


def test_process_without_stderr_keeps_stdout_for_paths(tmp_path):
    argv = [str(a) for a in [*_METRICS_ARGV, "--device", "nope", "--output-dir", tmp_path / "out"]]
    script = f"""
import runpy, sys
sys.stderr = None  # as when the process starts with descriptor 2 closed
sys.argv = ["moemeter", *{argv!r}]
runpy.run_module("moemeter", run_name="__main__", alter_sys=True)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=REPO_ROOT)
    # the error document has nowhere to go; it must not land among the output paths
    assert (result.returncode, result.stdout) == (2, "")
    assert not (tmp_path / "out").exists()


def test_console_script_is_the_function_main_module_runs():
    import ast
    import re

    scripts = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]", 1)[1]
    target = re.search(r'^moemeter\s*=\s*"([\w.]+):(\w+)"', scripts, re.MULTILINE)
    main_module = REPO_ROOT / "src" / "moemeter" / "__main__.py"
    guarded = [
        node for node in ast.parse(main_module.read_text(encoding="utf-8")).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(guarded) == 1
    calls = [node.func.id for node in ast.walk(guarded[0]) if isinstance(node, ast.Call)]
    assert target is not None and (target.group(1), calls) == ("moemeter.__main__", [target.group(2)])


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_alike_buffered_or_not(tmp_path, buffered):
    import os

    env = _buffered_env() if buffered else {**os.environ, "PYTHONUNBUFFERED": "1"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "moemeter", *map(str, _METRICS_ARGV), "--device", "H100-SXM",
             "--output-dir", tmp_path],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT,
        )
    finally:
        os.close(write_end)
    # every file was written, so the closed stdout is not an input error (exit 2) in either mode
    assert (result.returncode, result.stderr) == (120, "BrokenPipeError: [Errno 32] Broken pipe\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics_report.csv", "metrics_report.json"]


def test_small_expected_plan_bytes_do_not_follow_numpy_dispatch(tmp_path):
    # numpy's AVX-512 exp, log and expm1 differ from the other paths by 1 ulp;
    # every quadrature runs through math, so switching them off moves no byte
    no_avx512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    for model in ("mixtral-8x7b.json", "deepseek-v2-lite.json", "deepseek-r1.json", "qwen1_5-moe-a2_7b.json"):
        argv = ["plan", "--model", MODELS / model, "--catalog", CATALOG, "--mode", "expected",
                "--batch", 4, "--dist", "zipf:1.1", "--sweep-batches", "1,2,4,8,16,32,64"]
        written = []
        for out, extra in (("native", {}), ("no-avx512", no_avx512)):
            result = run_cli(*argv, "--output-dir", tmp_path / model / out, env_extra=extra)
            assert result.returncode == 0, result.stderr
            written.append({path.name: path.read_bytes() for path in (tmp_path / model / out).iterdir()})
        assert sorted(written[0]) == ["batch_sweep.csv", "plan_report.json"] and written[0] == written[1]


def test_overflowing_batch_on_the_list_quadrature_exits_2(tmp_path, capsys):
    from moemeter.cli import main

    argv = ["plan", "--model", MODELS / "toy-4x2.json", "--catalog", CATALOG, "--mode", "expected",
            "--batch", 10**400, "--dist", "zipf:0.7", "--output-dir", tmp_path / "out"]
    assert main([str(a) for a in argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == "report"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stderr_keeps_the_validation_exit(tmp_path, buffered):
    import os

    env = _buffered_env() if buffered else {**os.environ, "PYTHONUNBUFFERED": "1"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "moemeter", *map(str, _METRICS_ARGV), "--device", "nope",
             "--output-dir", tmp_path / "out"],
            stdout=subprocess.PIPE, stderr=write_end, text=True, env=env, cwd=REPO_ROOT,
        )
    finally:
        os.close(write_end)
    # the error document cannot be written, but the code still says the input was invalid
    assert (result.returncode, result.stdout) == (2, "")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "dist, field", [("zipf:x", "dist"), ("zipf:-1", "zipf_s"), ("empirical:0.5", "weights"), ("lognormal", "dist")]
)
def test_malformed_dist_exits_2_before_importing_numpy(tmp_path, dist, field):
    argv = ["simulate", "--model", str(MODELS / "toy-4x2.json"), "--batch", "2", "--dist", dist,
            "--passes", "1", "--seed", "1", "--out", str(tmp_path / "x.trace")]
    code = f"""
import json, sys
import moemeter.cli
status = moemeter.cli.main({argv!r})
print(json.dumps([status, "numpy" in sys.modules]))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO_ROOT)
    assert json.loads(result.stdout) == [2, False], result.stderr
    assert json.loads(result.stderr)["error"]["field"] == field
    assert not list(tmp_path.iterdir())
