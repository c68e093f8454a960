"""The three workloads: inputs made from the benchmark seed, one cycle of
moemeter commands each, and the output check of every command.

A cycle has the same cost composition for every seed: the seed permutes
command order, picks which batch a cheap command plans in expected mode,
and draws routing, simulator seeds, precision, latency target and
efficiency.
The timed loop runs whole cycles only, so the median command and the
item rate describe the same mix on every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracle import (
    Model,
    check_expected_plan,
    check_fig2,
    check_metrics_report,
    check_simulated_trace,
    check_trace_plan,
    closed_form,
    enumerated_distinct,
    load_catalog,
    read_trace,
    zipf_probs,
)

ZIPF = "zipf:1.1"
R1 = "models/deepseek-r1.json"
V2_LITE = "models/deepseek-v2-lite.json"
MIXTRAL = "models/mixtral-8x7b.json"
CATALOG = "catalog/default.json"
INPUT_FILES = (R1, V2_LITE, MIXTRAL, CATALOG)

# trace-synthesis: every cycle simulates each batch once.
SYNTH_BATCHES = (1, 2, 4, 8, 16, 32, 64)
SYNTH_PASSES = 24
# trace-analysis: each trace holds these batch sizes (dynamic batching), 4x.
ANALYSIS_BATCHES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64) * 4
ANALYSIS_TRACES = 2
SWEEP_ALL = (1, 2, 4, 8, 16, 32, 64)


@dataclass
class Command:
    argv: list[str]  # arguments after ``python -m moemeter``
    outputs: list[Path]  # removed before each run, read by ``check``
    check: Callable[[], int]  # raises oracle.CheckFailed; returns items produced
    kind: str


@dataclass
class Workload:
    cycle: list[Command]
    warmup: Command


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _json(path: Path) -> dict:
    return json.loads(_read(path))


# --------------------------------------------------------------------------
# trace-synthesis
# --------------------------------------------------------------------------

def trace_synthesis(seed: int, root: Path, work: Path) -> Workload:
    rnd = random.Random(seed)
    model = Model(root / R1)
    batches = list(SYNTH_BATCHES)
    rnd.shuffle(batches)
    cycle = []
    for i, batch in enumerate(batches):
        out = work / f"sim{i}.trace"
        argv = [
            "simulate", "--model", R1, "--batch", str(batch), "--dist", ZIPF,
            "--passes", str(SYNTH_PASSES), "--seed", str(rnd.randrange(2**31)), "--out", str(out),
        ]

        def check(out=out, batch=batch) -> int:
            check_simulated_trace(_read(out), model, batch, SYNTH_PASSES)
            return SYNTH_PASSES

        cycle.append(Command(argv, [out], check, f"simulate-b{batch}"))
    # The warm-up repeats the batch-8 command, so each run compares the bytes
    # of one seed's trace across separate processes at a set-up cost that
    # does not depend on the seed.
    return Workload(cycle, warmup=cycle[batches.index(8)])


# --------------------------------------------------------------------------
# trace-analysis
# --------------------------------------------------------------------------

def write_trace(path: Path, model: Model, rnd: random.Random, batches) -> None:
    """Decode passes with uniform routing (each token takes top_k distinct
    experts), written in the documented trace format. A batch-64 layer then
    activates ~222 of 256 experts, a batch-1 layer exactly top_k."""
    experts = range(model.n_expert)
    width = (model.n_expert + 3) // 4
    lines = [f"model={model.name}"]
    for pass_id, batch in enumerate(batches):
        bitmaps = []
        for layer in model.moe_layers:
            bits = 0
            for _ in range(batch):
                for i in rnd.sample(experts, model.top_k):
                    bits |= 1 << i
            bitmaps.append(f"{layer}:{bits:0{width}x}")
        # At >= 5 ms per token even vanilla MFU stays below 1 on both devices.
        latency = 0.02 + 0.005 * batch + 0.01 * rnd.random()
        kv_bytes = rnd.randrange(1 << 20, 1 << 30)
        lines.append(f"{pass_id},decode,{batch},{batch},{latency!r},{kv_bytes},{';'.join(bitmaps)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def trace_analysis(seed: int, root: Path, work: Path) -> Workload:
    rnd = random.Random(seed)
    model = Model(root / R1)
    catalog = {d["name"]: d for d in load_catalog(root / CATALOG)}
    cycle = []
    for t in range(ANALYSIS_TRACES):
        trace = work / f"analysis{t}.trace"
        write_trace(trace, model, rnd, rnd.sample(ANALYSIS_BATCHES, len(ANALYSIS_BATCHES)))
        passes = read_trace(_read(trace), model)
        # Two metrics runs per plan run, so the median command is a metrics run.
        for j, (device, bpp) in enumerate((("H100-SXM", 2.0), ("A100-PCIe-80G", rnd.choice((0.5, 1.0, 4.0))))):
            out = work / f"metrics{t}{j}"
            argv = [
                "metrics", "--model", R1, "--trace", str(trace), "--catalog", CATALOG,
                "--device", device, "--bytes-per-param", str(bpp), "--output-dir", str(out),
            ]

            def check(out=out, device=device, bpp=bpp, passes=passes) -> int:
                check_metrics_report(
                    _json(out / "metrics_report.json"), _read(out / "metrics_report.csv"),
                    passes, model, catalog[device]["peak_bandwidth_gbps"], bpp,
                )
                return len(passes)

            cycle.append(Command(argv, [out / "metrics_report.json", out / "metrics_report.csv"], check, "metrics"))
        out = work / f"plan{t}"
        bpp, slo = rnd.choice((0.5, 1.0, 2.0)), rnd.choice((0.05, 0.1, 0.2))
        argv = [
            "plan", "--model", R1, "--catalog", CATALOG, "--mode", "trace", "--trace", str(trace),
            "--bytes-per-param", str(bpp), "--slo", str(slo), "--output-dir", str(out),
        ]

        def check(out=out, bpp=bpp, slo=slo, passes=passes) -> int:
            check_trace_plan(_json(out / "plan_report.json"), passes, model, bpp, slo)
            return len(passes)

        cycle.append(Command(argv, [out / "plan_report.json"], check, "plan-trace"))
    warmup = cycle[0]  # the first H100 metrics run
    rnd.shuffle(cycle)
    return Workload(cycle, warmup=warmup)


# --------------------------------------------------------------------------
# expected-planning
# --------------------------------------------------------------------------

def _expected_command(root, work, tag, model_file, dist, batches, rnd, catalog, truth, rel, pinned) -> Command:
    """plan --mode expected at one batch plus a sweep. Where a point is
    cheap, the seed picks the expected-mode batch and the sweep repeats it.
    Monte-Carlo commands plan the largest batch and sweep the others, in a
    fixed order, so their time and memory do not depend on the seed."""
    batches = list(batches)
    if pinned is None:
        batch, sweep = rnd.choice(batches), batches
    else:
        batch, sweep = batches[-1], batches[:-1]
    bpp, slo, eff = rnd.choice((0.5, 1.0, 2.0, 4.0)), rnd.choice((0.05, 0.1, 0.25)), rnd.choice((0.3558, 0.5, 0.8))
    model = Model(root / model_file)
    out = work / tag
    argv = [
        "plan", "--model", model_file, "--catalog", CATALOG, "--mode", "expected",
        "--batch", str(batch), "--dist", dist, "--sweep-batches", ",".join(map(str, sweep)),
        "--bytes-per-param", str(bpp), "--slo", str(slo), "--efficiency-mbu", str(eff),
        "--output-dir", str(out),
    ]

    def check() -> int:
        return check_expected_plan(
            _json(out / "plan_report.json"), _read(out / "batch_sweep.csv"), model, catalog,
            batch, bpp, slo, eff, truth, rel, pinned,
        )

    return Command(argv, [out / "plan_report.json", out / "batch_sweep.csv"], check, tag)


def expected_planning(seed: int, root: Path, work: Path) -> Workload:
    rnd = random.Random(seed)
    catalog = load_catalog(root / CATALOG)
    pinned = json.loads((Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8"))["models"]
    r1, mixtral = Model(root / R1), Model(root / MIXTRAL)
    mixtral_p = zipf_probs(mixtral.n_expert, 1.1)
    cycle = [
        # Monte-Carlo: each batch is planned once per command, so the cost of
        # a cycle does not depend on which batch the seed puts in expected mode.
        _expected_command(root, work, "r1-zipf", R1, ZIPF, (1, 2, 4), rnd, catalog, None, 0.0, pinned["deepseek-r1"]),
        _expected_command(root, work, "v2lite-zipf", V2_LITE, ZIPF, (1, 2, 4, 8), rnd, catalog, None, 0.0, pinned["deepseek-v2-lite"]),
        # Closed form and enumeration: the expected-mode batch is also swept.
        _expected_command(
            root, work, "r1-uniform", R1, "uniform", SWEEP_ALL, rnd, catalog,
            lambda b: closed_form(r1.n_expert, r1.top_k, b), 1e-12, None,
        ),
        _expected_command(
            root, work, "mixtral-zipf", MIXTRAL, ZIPF, SWEEP_ALL, rnd, catalog,
            lambda b: enumerated_distinct(mixtral_p, mixtral.top_k, b), 1e-12, None,
        ),
    ]
    # fig2 at two precisions: with four cheap commands of six, the median
    # command lies well inside the cheap ones rather than at their edge.
    for i in range(2):
        bpp, slo, eff = rnd.choice((0.5, 1.0, 2.0, 4.0)), rnd.choice((0.05, 0.1, 0.25)), rnd.choice((0.3558, 0.5, 0.8))
        out = work / f"fig2-{i}"
        argv = [
            "plan", "--model", R1, "--catalog", CATALOG, "--fig2", "--bytes-per-param", str(bpp),
            "--slo", str(slo), "--efficiency-mbu", str(eff), "--output-dir", str(out),
        ]

        def check_fig(out=out, bpp=bpp, slo=slo, eff=eff) -> int:
            return check_fig2(
                _json(out / "plan_report.json"), _json(out / "bandwidth_power_map.json"),
                r1, catalog, bpp, slo, eff,
            )

        cycle.append(Command(argv, [out / "plan_report.json", out / "bandwidth_power_map.json"], check_fig, "fig2"))
    warmup = cycle[-1]
    rnd.shuffle(cycle)
    return Workload(cycle, warmup=warmup)


BUILDERS = {
    "trace-synthesis": trace_synthesis,
    "trace-analysis": trace_analysis,
    "expected-planning": expected_planning,
}
