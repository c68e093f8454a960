"""Command-line interface.

Subcommands: metrics, plan, simulate, cost, radar, recommend. Every run is
reproducible: outputs are deterministic functions of the inputs (plus the
explicit seed for simulate), JSON is emitted with sorted keys, and every
numeric report embeds the SHA-256 digest of each input file it was computed
from. Exit codes: 0 success, 1 internal error, 2 input validation error.
Validation failures print a machine-readable JSON error document to stderr.

The default catalog path can be set via the MOEMETER_CATALOG environment
variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import cap, catalog, costing, metrics, planner, trace
from .errors import ValidationError
from .models import Precision, load_model_descriptor

CATALOG_ENV_VAR = "MOEMETER_CATALOG"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2


def _sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_digests(**paths: str | None) -> dict:
    out = {}
    for role, path in paths.items():
        if path is not None:
            out[role] = {"path": str(path), "sha256": _sha256_file(path)}
    return out


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _digest_comment(digests: dict) -> str:
    parts = [f"{role}={info['sha256']}" for role, info in sorted(digests.items())]
    return "inputs " + " ".join(parts)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_metrics(args: argparse.Namespace) -> int:
    desc = load_model_descriptor(args.model)
    specs = catalog.load_catalog(args.catalog)
    device = catalog.get_device(specs, args.device)
    prec = Precision(args.bytes_per_param)
    sheet = trace.load_activation_sheet(args.trace, desc)
    peak_bw = device.peak_bandwidth_gbps * planner.GB
    peak_flops = device.peak_flops_by_precision.get(args.flops_precision)
    if peak_flops is None:
        raise ValidationError(
            f"device {device.name!r} has no peak FLOPS entry for {args.flops_precision!r}",
            field="flops_precision",
        )
    report = metrics.compute_metric_report(
        sheet,
        desc,
        prec,
        peak_bw,
        peak_flops,
        seq_len=args.seq_len,
        kv_seq_len=args.kv_seq_len,
        include_embed=not args.exclude_embed,
    )
    digests = _input_digests(model=args.model, catalog=args.catalog, trace=args.trace)
    doc = {
        "inputs": digests,
        "device": device.name,
        "report": metrics.report_to_dict(report),
    }
    out_dir = Path(args.output_dir)
    _write_json(out_dir / "metrics_report.json", doc)
    _write_text(
        out_dir / "metrics_report.csv",
        metrics.report_to_csv(report, header_comment=_digest_comment(digests)),
    )
    print(out_dir / "metrics_report.json")
    print(out_dir / "metrics_report.csv")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    desc = load_model_descriptor(args.model)
    specs = catalog.load_catalog(args.catalog)
    prec = Precision(args.bytes_per_param)
    slo = planner.SloSpec(args.slo)
    sheet = None
    if args.trace:
        sheet = trace.load_activation_sheet(args.trace, desc)
    dist = trace._parse_dist_spec(args.dist) if args.dist else None
    sweep = args.sweep_batches.split(",") if args.sweep_batches else []
    batches = [trace._parse_number(b, int, "sweep_batches") for b in sweep]

    modes = args.mode
    if args.fig2:
        modes = ["batch1_analytic", "full_activation"]
    requirements = []
    feasibility_docs = {}
    for mode in modes:
        req = planner.plan_requirement(
            desc,
            prec,
            slo,
            mode,
            efficiency_mbu=args.efficiency_mbu,
            kv_bytes=args.kv_bytes,
            sheet=sheet,
            batch=args.batch,
            dist=dist,
            include_ops=args.with_ops,
            efficiency_mfu=args.efficiency_mfu,
            seq_len=args.seq_len,
            include_embed=not args.exclude_embed,
        )
        requirements.append(planner.requirement_to_dict(req))
        verdicts = planner.feasibility(req, specs, use_offload=args.use_offload, margin=args.margin)
        feasibility_docs[mode] = planner.verdicts_to_dicts(verdicts)

    # the sweep is computed before any report is written, so an invalid
    # batch list leaves no partial output behind
    if batches:
        points = planner.batch_sweep(
            desc,
            dist if dist is not None else trace.RoutingDistribution.uniform(),
            batches,
            slo,
            prec,
            efficiency_mbu=args.efficiency_mbu,
            catalog=specs,
            use_offload=args.use_offload,
            margin=args.margin,
            include_embed=not args.exclude_embed,
        )

    digests = _input_digests(model=args.model, catalog=args.catalog, trace=args.trace or None)
    doc = {
        "inputs": digests,
        "requirements": requirements,
        "feasibility": feasibility_docs,
    }
    out_dir = Path(args.output_dir)
    _write_json(out_dir / "plan_report.json", doc)
    print(out_dir / "plan_report.json")

    if args.fig2:
        plot = planner.bandwidth_power_map(
            desc, prec, slo, specs,
            efficiency_mbu=args.efficiency_mbu,
            include_embed=not args.exclude_embed,
        )
        plot["inputs"] = digests
        _write_json(out_dir / "bandwidth_power_map.json", plot)
        print(out_dir / "bandwidth_power_map.json")

    if batches:
        _write_text(out_dir / "batch_sweep.csv", planner.sweep_to_csv(points, _digest_comment(digests)))
        print(out_dir / "batch_sweep.csv")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    desc = load_model_descriptor(args.model)
    dist = trace._parse_dist_spec(args.dist)
    sheet = trace.simulate_routing(
        desc,
        batch=args.batch,
        dist=dist,
        n_passes=args.passes,
        seed=args.seed,
        phase=args.phase,
        tokens_per_pass=args.tokens_per_pass,
    )
    out = Path(args.out)
    _write_text(out, trace.serialize_activation_sheet(sheet, desc))
    print(out)
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    bom, power, econ = costing.load_cost_inputs(args.inputs)
    doc = {
        "inputs": _input_digests(cost_inputs=args.inputs),
        "report": costing.cost_report(bom, power, econ),
    }
    out_dir = Path(args.output_dir)
    _write_json(out_dir / "cost_report.json", doc)
    print(out_dir / "cost_report.json")
    return EXIT_OK


def cmd_radar(args: argparse.Namespace) -> int:
    records = cap.load_cap_records(args.records)
    dataset = cap.normalize_radar(records)
    labels = cap.classify_tradeoff(dataset)
    digests = _input_digests(records=args.records)
    doc = {"inputs": digests, "radar": cap.radar_to_dict(dataset, labels)}
    out_dir = Path(args.output_dir)
    _write_json(out_dir / "radar_report.json", doc)
    lines = [f"# {_digest_comment(digests)}"]
    lines.append("system,cost_raw,accuracy_raw,performance_raw,cost_norm,accuracy_norm,performance_norm,label")
    for name in dataset.systems:
        raw = dataset.raw[name]
        norm = dataset.normalized[name]
        lines.append(
            f"{name},{raw['cost']!r},{raw['accuracy']!r},{raw['performance']!r},"
            f"{norm['cost']!r},{norm['accuracy']!r},{norm['performance']!r},{labels[name]}"
        )
    _write_text(out_dir / "radar_report.csv", "\n".join(lines) + "\n")
    print(out_dir / "radar_report.json")
    print(out_dir / "radar_report.csv")
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    rules = cap.load_decision_rules(args.rules)
    result = cap.recommend(rules, args.tier, args.batch, args.primary, args.secondary)
    doc = {
        "inputs": _input_digests(rules=args.rules),
        "query": {
            "hardware_tier": args.tier,
            "batch": args.batch,
            "primary_constraint": args.primary,
            "secondary_constraint": args.secondary,
        },
        "matched": cap.rule_to_dict(result.matched) if result.matched else None,
        "nearest": [cap.rule_to_dict(r) for r in result.nearest],
    }
    out_dir = Path(args.output_dir)
    _write_json(out_dir / "recommendation.json", doc)
    print(out_dir / "recommendation.json")
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moemeter",
        description="Analytical cost / accuracy / performance toolkit for MoE serving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output-dir", default="out", help="directory for report files")

    def add_catalog(p):
        p.add_argument(
            "--catalog",
            default=os.environ.get(CATALOG_ENV_VAR),
            help=f"hardware catalog JSON (default: ${CATALOG_ENV_VAR})",
        )

    p = sub.add_parser("metrics", help="per-pass and aggregate utilization metrics over a trace")
    p.add_argument("--model", required=True, help="model descriptor JSON")
    p.add_argument("--trace", required=True, help="activation trace file")
    add_catalog(p)
    p.add_argument("--device", required=True, help="catalog device name")
    p.add_argument("--bytes-per-param", type=float, required=True, choices=[0.5, 1.0, 2.0, 4.0])
    p.add_argument("--flops-precision", default="fp16", help="key into the device's peak FLOPS map")
    p.add_argument("--seq-len", type=int, default=1, help="context length for attention FLOPs")
    p.add_argument(
        "--kv-seq-len",
        type=int,
        default=None,
        help="enable the KV-cache byte fallback at this context length for passes recording no KV traffic",
    )
    p.add_argument("--exclude-embed", action="store_true", help="drop embedding/head bytes from accounting")
    add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("plan", help="bandwidth/OPS requirements and device feasibility")
    p.add_argument("--model", required=True)
    add_catalog(p)
    p.add_argument("--bytes-per-param", type=float, default=1.0, choices=[0.5, 1.0, 2.0, 4.0])
    p.add_argument("--slo", type=float, default=planner.DEFAULT_SLO_TPOT_S, help="TPOT target in s/token")
    p.add_argument(
        "--mode",
        nargs="+",
        default=["batch1_analytic"],
        choices=list(planner.ACTIVATION_MODES),
    )
    p.add_argument("--efficiency-mbu", type=float, default=planner.DEFAULT_EFFICIENCY_MBU)
    p.add_argument("--efficiency-mfu", type=float, default=None)
    p.add_argument("--kv-bytes", type=float, default=0.0)
    p.add_argument("--trace", default=None, help="activation trace (trace mode)")
    p.add_argument("--batch", type=int, default=None, help="batch size (expected mode)")
    p.add_argument("--dist", default=None, help="uniform | zipf:S | empirical:p1,p2,... (expected mode)")
    p.add_argument("--with-ops", action="store_true", help="also compute the OPS requirement")
    p.add_argument("--seq-len", type=int, default=1)
    p.add_argument("--use-offload", action="store_true")
    p.add_argument("--exclude-embed", action="store_true", help="drop embedding/head bytes from accounting")
    p.add_argument("--margin", type=float, default=0.0, help="fractional slack applied to feasibility checks")
    p.add_argument(
        "--fig2",
        action="store_true",
        help="emit bandwidth-vs-power map plot data (device points + batch-1/full-activation lines)",
    )
    p.add_argument("--sweep-batches", default=None, help="comma-separated batch sizes for a sweep CSV")
    add_common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="synthesize an activation trace by sampling routing")
    p.add_argument("--model", required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--dist", required=True, help="uniform | zipf:S | empirical:p1,p2,...")
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", default="decode", choices=list(trace.PHASES))
    p.add_argument("--tokens-per-pass", type=int, default=None)
    p.add_argument("--out", required=True, help="output trace path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cost", help="purchase / energy / per-token cost report")
    p.add_argument("--inputs", required=True, help="cost inputs JSON")
    add_common(p)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("radar", help="normalize cost/accuracy/performance records and classify trade-offs")
    p.add_argument("--records", required=True, help="cap records JSON")
    add_common(p)
    p.set_defaults(func=cmd_radar)

    p = sub.add_parser("recommend", help="query the deployment decision-rule table")
    p.add_argument("--rules", required=True, help="decision rules JSON")
    p.add_argument("--tier", required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--primary", required=True)
    p.add_argument("--secondary", required=True)
    add_common(p)
    p.set_defaults(func=cmd_recommend)

    return parser


def _error_doc(kind: str, message: str, field: str | None = None) -> str:
    doc = {"error": {"type": kind, "message": message}}
    if field:
        doc["error"]["field"] = field
    return json.dumps(doc, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "catalog", "unset") is None:
        print(
            _error_doc("validation", f"no catalog given and ${CATALOG_ENV_VAR} is not set", "catalog"),
            file=sys.stderr,
        )
        return EXIT_INVALID
    try:
        return args.func(args)
    except ValidationError as exc:
        print(_error_doc("validation", str(exc), exc.field), file=sys.stderr)
        return EXIT_INVALID
    except (OSError, json.JSONDecodeError) as exc:
        print(_error_doc("input", str(exc)), file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        print(_error_doc("internal", f"{type(exc).__name__}: {exc}"), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
