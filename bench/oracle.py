"""Output checks whose arithmetic does not share code with moemeter.

Everything here reads the shipped JSON inputs with ``json`` and recomputes
what a report should say from the descriptor's integer counts, so a defect
in moemeter's accounting, parsing or expectation code cannot also hide in
the check.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

GB = 1e9
# Per-pass count of moemeter's Monte-Carlo estimator; the pinned tolerance
# admits that estimator as well as any exact method.
MC_PASSES = 100_000


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


class Model:
    """Parameter accounting straight from a descriptor's integer counts."""

    def __init__(self, path: Path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        self.name = doc["name"]
        self.n_expert = doc["n_expert"]
        self.top_k = doc["top_k"]
        self.expert = doc["params_expert"]
        mask = doc["moe_layer_mask"]
        self.moe_layers = [i for i, moe in enumerate(mask) if moe]
        n_dense = len(mask) - len(self.moe_layers)
        per_moe = doc["params_router"] + doc["n_shared"] * doc["params_shared_expert"]
        # Everything a pass reads whatever the routing did.
        self.fixed = (
            doc["params_embed"]
            + len(mask) * doc["params_attn_layer"]
            + n_dense * doc["params_dense_ffn"]
            + len(self.moe_layers) * per_moe
        )

    def params_for_counts(self, counts) -> int:
        return self.fixed + sum(counts) * self.expert

    def params_for_distinct(self, distinct: float) -> float:
        return self.fixed + len(self.moe_layers) * distinct * self.expert

    def distinct_from_params(self, params: float) -> float:
        return (params - self.fixed) / (len(self.moe_layers) * self.expert)


def load_catalog(path: Path) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Trace text
# --------------------------------------------------------------------------

def read_trace(text: str, model: Model) -> list[dict]:
    """Minimal hex-popcount reader: per pass its header fields and the
    per-MoE-layer count of set bits."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    require(lines and lines[0] == f"model={model.name}", "trace header does not name the model")
    width = math.ceil(model.n_expert / 4)
    passes = []
    for line in lines[1:]:
        fields = line.split(",")
        require(len(fields) == 7, f"trace line has {len(fields)} fields")
        entries = [e.split(":") for e in fields[6].split(";")]
        require([int(layer) for layer, _ in entries] == model.moe_layers, "trace layers differ from MoE layers")
        require(all(len(h) == width for _, h in entries), "bitmap width differs from ceil(E/4)")
        passes.append(
            {
                "pass_id": int(fields[0]),
                "phase": fields[1],
                "batch": int(fields[2]),
                "tokens": int(fields[3]),
                "latency_s": float(fields[4]),
                "kv_bytes": int(fields[5]),
                "counts": [int(h, 16).bit_count() for _, h in entries],
            }
        )
    return passes


def check_simulated_trace(text: str, model: Model, batch: int, n_passes: int) -> None:
    passes = read_trace(text, model)
    require([p["pass_id"] for p in passes] == list(range(n_passes)), "simulated pass ids are not 0..n-1")
    upper = min(model.n_expert, batch * model.top_k)
    for p in passes:
        require(p["batch"] == batch and p["tokens"] == batch, "simulated pass has the wrong batch")
        require(
            all(model.top_k <= c <= upper for c in p["counts"]),
            f"pass {p['pass_id']}: a layer count lies outside [{model.top_k}, {upper}]",
        )


# --------------------------------------------------------------------------
# Trace analysis
# --------------------------------------------------------------------------

def check_metrics_report(doc: dict, csv_text: str, passes: list[dict], model: Model, peak_gbps: float, bpp: float) -> None:
    report = doc["report"]
    require(len(report["passes"]) == len(passes), "metrics report has the wrong pass count")
    total_bytes = 0.0
    for got, p in zip(report["passes"], passes):
        act = model.params_for_counts(p["counts"]) * bpp
        require(close(got["activated_bytes"], act, 1e-12), f"pass {p['pass_id']}: activated bytes differ")
        total_bytes += act + p["kv_bytes"]
    want = total_bytes / sum(p["latency_s"] for p in passes) / (peak_gbps * GB)
    require(close(report["aggregate_s_mbu"], want, 1e-9), "aggregate S-MBU differs from popcount x size")
    rows = [r for r in csv_text.splitlines() if not r.startswith("#")]
    require(len(rows) == len(passes) + 2, "metrics CSV has the wrong row count")
    require(close(float(rows[-1].split(",")[10]), want, 1e-9), "CSV aggregate S-MBU differs")


def check_trace_plan(doc: dict, passes: list[dict], model: Model, bpp: float, slo: float) -> None:
    (req,) = doc["requirements"]
    step = sum(model.params_for_counts(p["counts"]) * bpp + p["kv_bytes"] for p in passes) / len(passes)
    require(close(req["theoretical_bandwidth_gbps"], step / slo / GB, 1e-9), "trace-mode bandwidth differs")


# --------------------------------------------------------------------------
# Expected planning
# --------------------------------------------------------------------------

def closed_form(n_expert: int, top_k: int, batch: int) -> float:
    return n_expert * (1.0 - (1.0 - top_k / n_expert) ** batch)


def zipf_probs(n_expert: int, s: float) -> list[float]:
    w = [1.0 / (i + 1) ** s for i in range(n_expert)]
    total = sum(w)
    return [x / total for x in w]


def enumerated_distinct(probs: list[float], top_k: int, batch: int) -> float:
    """Exact E[distinct] by summing over every ordered top-k draw sequence."""
    miss = [0.0] * len(probs)
    for seq in itertools.permutations(range(len(probs)), top_k):
        prob, left = 1.0, 1.0
        for i in seq:
            prob *= probs[i] / left
            left -= probs[i]
        chosen = set(seq)
        for i in range(len(probs)):
            if i not in chosen:
                miss[i] += prob
    return sum(1.0 - q**batch for q in miss)


def pinned_tolerance(ref: dict) -> float:
    return 3.0 * ref["sd"] * math.sqrt(1.0 / ref["passes"] + 1.0 / MC_PASSES)


def read_sweep(csv_text: str) -> list[dict]:
    rows = [r for r in csv_text.splitlines() if not r.startswith("#")]
    require(rows[0].startswith("batch,expected_distinct_per_layer"), "sweep CSV header changed")
    out = []
    for r in rows[1:]:
        f = r.split(",")
        out.append(
            {
                "batch": int(f[0]),
                "distinct": float(f[1]),
                "fraction": float(f[2]),
                "theoretical": float(f[3]),
                "practical": float(f[4]),
                "devices": [d for d in f[5].split("|") if d],
            }
        )
    return out


def feasible_devices(catalog: list[dict], practical_gbps: float) -> list[str]:
    ordered = sorted(catalog, key=lambda d: (d["tdp_watts"], d["price_usd"]))
    return [d["name"] for d in ordered if d["peak_bandwidth_gbps"] >= practical_gbps]


def check_expected_values(model: Model, values: dict[int, float], truth, rel: float, pinned: dict | None) -> None:
    """``values`` maps batch -> reported expected distinct experts per layer."""
    for batch, got in values.items():
        # Bounds: a batch activates at least one token's top_k and at most all
        # experts, up to the rounding of a float sum.
        lo, hi = model.top_k * (1 - 1e-12), model.n_expert * (1 + 1e-12)
        require(lo <= got <= hi, f"batch {batch}: {got} outside [top_k, E]")
        if truth is not None:
            require(close(got, truth(batch), rel), f"batch {batch}: {got} differs from exact {truth(batch)}")
        if pinned is not None:
            ref = pinned[str(batch)]
            # The relative floor absorbs float rounding where sd is 0 (batch 1).
            tol = pinned_tolerance(ref) + 1e-11 * ref["mean"]
            require(abs(got - ref["mean"]) <= tol, f"batch {batch}: {got} not within {tol} of pinned {ref['mean']}")
    ordered = [values[b] for b in sorted(values)]
    require(all(a <= b for a, b in zip(ordered, ordered[1:])), "expected distinct decreases with batch")


def check_expected_plan(
    plan: dict,
    sweep_csv: str,
    model: Model,
    catalog: list[dict],
    batch: int,
    bpp: float,
    slo: float,
    eff: float,
    truth,
    rel: float,
    pinned: dict | None,
) -> int:
    """Checks one ``plan --mode expected --sweep-batches`` output and returns
    its requirement-row count."""
    (req,) = plan["requirements"]
    require(close(req["practical_bandwidth_gbps"], req["theoretical_bandwidth_gbps"] / eff, 1e-12), "practical != theoretical / efficiency")
    expected_row = model.distinct_from_params(req["theoretical_bandwidth_gbps"] * slo * GB / bpp)
    points = read_sweep(sweep_csv)
    total = model.params_for_distinct(model.n_expert)
    sweep_values = {}
    for pt in points:
        params = model.params_for_distinct(pt["distinct"])
        require(close(pt["theoretical"], params * bpp / slo / GB, 1e-12), f"sweep batch {pt['batch']}: bandwidth differs")
        require(close(pt["fraction"], params / total, 1e-12), f"sweep batch {pt['batch']}: activated fraction differs")
        require(pt["devices"] == feasible_devices(catalog, pt["practical"]), f"sweep batch {pt['batch']}: feasible devices differ")
        sweep_values[pt["batch"]] = pt["distinct"]
    check_expected_values(model, sweep_values, truth, rel, pinned)
    if batch in sweep_values:
        # The expected-mode row recomputes the same point; equal up to the
        # rounding of the bandwidth inversion above.
        require(close(expected_row, sweep_values[batch], 1e-9), "expected-mode row disagrees with its sweep point")
    # The inversion through bandwidth loses ~1e-15 relative, so exact
    # references are compared at 1e-11 here rather than 1e-12.
    check_expected_values(model, {**sweep_values, batch: expected_row}, truth, max(rel, 1e-11), pinned)
    return 1 + len(points)


def check_fig2(plan: dict, bpm: dict, model: Model, catalog: list[dict], bpp: float, slo: float, eff: float) -> int:
    batch1 = model.params_for_distinct(model.top_k) * bpp / slo / GB
    full = model.params_for_distinct(model.n_expert) * bpp / slo / GB
    want = {"batch1_analytic": batch1, "full_activation": full}
    for req in plan["requirements"]:
        require(close(req["theoretical_bandwidth_gbps"], want[req["activation_mode"]], 1e-12), f"fig2 {req['activation_mode']} requirement differs")
    for line in bpm["requirement_lines"]:
        require(close(line["theoretical_bandwidth_gbps"], want[line["activation_mode"]], 1e-12), "fig2 line differs")
        require(close(line["practical_bandwidth_gbps"], want[line["activation_mode"]] / eff, 1e-12), "fig2 practical line differs")
    require([d["name"] for d in bpm["devices"]] == [d["name"] for d in catalog], "fig2 device list differs from catalog")
    return len(plan["requirements"]) + len(bpm["requirement_lines"])
