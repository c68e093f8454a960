"""The traced benchmark's view of the package: ``bench/spans.py`` names the
layer functions it wraps as ``<module>.<function>``, so moving code between
modules must keep those names resolving and keep the wrapped calls going
through them. These tests only read ``bench/``."""

from __future__ import annotations

import importlib
import importlib.util

from conftest import REPO_ROOT

MODELS = REPO_ROOT / "models"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", REPO_ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_function_resolves_on_the_module_it_names():
    spans = _load_spans()
    for qual in spans.LAYER_FUNCTIONS:
        home, attr = qual.split(".")
        assert home in spans.MODULES, qual
        assert callable(getattr(importlib.import_module(f"moemeter.{home}"), attr)), qual


def test_traced_commands_record_the_routing_spans_and_uninstall_restores(tmp_path, capsys):
    from moemeter import cli

    spans = _load_spans()
    tracer = spans.Tracer()
    bound = {
        (module, attr): getattr(module, attr)
        for module in tracer.modules.values()
        for attr in (qual.split(".")[1] for qual in spans.LAYER_FUNCTIONS)
        if hasattr(module, attr)
    }
    commands = [
        ["simulate", "--model", MODELS / "toy-4x2.json", "--batch", 2, "--dist", "zipf:1.1", "--passes", 3,
         "--seed", 0, "--out", tmp_path / "sim.trace"],
        ["plan", "--model", MODELS / "mixtral-8x7b.json", "--catalog", REPO_ROOT / "catalog" / "default.json",
         "--mode", "expected", "--batch", 4, "--dist", "zipf:1.1", "--sweep-batches", "1,8,64",
         "--output-dir", tmp_path],
        ["plan", "--model", MODELS / "deepseek-r1.json", "--catalog", REPO_ROOT / "catalog" / "default.json",
         "--fig2", "--output-dir", tmp_path / "fig2"],
    ]
    tracer.install()
    try:
        for command_id, argv in enumerate(commands):
            code, _ = tracer.run_command(command_id, cli.main, [str(a) for a in argv])
            assert code == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    assert tracer.command_summary(0)["calls"]["trace.simulate_routing"] == 1
    # one expectation for the mode and one per sweep batch, each read from its requirement
    assert tracer.command_summary(1)["calls"]["trace.expected_distinct_experts"] == 1 + 3
    # the map draws the plan's own two requirements rather than building them again
    fig2 = tracer.command_summary(2)["calls"]
    assert fig2["planner.bandwidth_power_map"] == 1
    assert fig2["planner.plan_requirement"] == 2
    for (module, attr), original in bound.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
