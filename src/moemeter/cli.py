"""Command-line interface.

Subcommands: metrics, plan, simulate, cost, radar, recommend. Every run is
reproducible: outputs are deterministic functions of the inputs (plus the
explicit seed for simulate), JSON is emitted with sorted keys, and every
numeric report embeds the SHA-256 digest of each input file it was computed
from. Exit codes: 0 success, 1 internal error, 2 input validation error.
Validation failures print a machine-readable JSON error document to stderr.

The default catalog path can be set via the MOEMETER_CATALOG environment
variable.

Writing is one stage, in :func:`main`. A ``cmd_*`` function returns an
ordered mapping of output path to document: a dict for a JSON report, a str
for text (a CSV, a simulated trace). ``main`` renders every document first,
so every check runs before any file exists and a run that exits 2 leaves
nothing behind; then it writes the files, removes the ones it wrote if a
later write fails, and prints their paths in order once every write is done.

Each subcommand imports the modules it runs inside its ``cmd_*`` function;
at module level this file needs only what the parser does, so ``metrics``
never loads the planner and ``simulate`` loads neither catalog nor metrics.
Routing code is reached through ``trace.<name>``, which loads ``routing``
on first use, so ``metrics`` and trace-mode ``plan`` never load it. The
parser fills in only the arguments of the subcommand being run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import models, trace
from .errors import ValidationError, asdict, json_text

CATALOG_ENV_VAR = "MOEMETER_CATALOG"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2


# The interpreter's built-in SHA-256 (``_sha2`` from CPython 3.12, ``_sha256``
# before) gives the same digest as ``hashlib.sha256``, which falls back to it
# too. ``hashlib`` would load OpenSSL's ``_hashlib``: about 3 ms and 2.5 MB of
# RSS, more than most commands use for their work. ``simulate`` keeps numpy.random
# from loading it too (see ``_import_numpy_random``), so no command loads OpenSSL.
try:
    from _sha2 import sha256 as _new_sha256
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256
    except ImportError:
        from hashlib import sha256 as _new_sha256


def _sha256_file(path: str | Path) -> str:
    h = _new_sha256()
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


def _digest_comment(digests: dict) -> str:
    parts = [f"{role}={info['sha256']}" for role, info in sorted(digests.items())]
    return "inputs " + " ".join(parts)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_metrics(args: argparse.Namespace) -> dict:
    from . import catalog, metrics

    desc = models.load_model_descriptor(args.model)
    specs = catalog.load_catalog(args.catalog)
    device = catalog.get_device(specs, args.device)
    prec = models.Precision(args.bytes_per_param)
    sheet = trace.load_activation_sheet(args.trace)  # compute_metric_report validates it
    peak_bw = device.peak_bandwidth_gbps * models.GB
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
    return {
        out_dir / "metrics_report.json": doc,
        out_dir / "metrics_report.csv": metrics.report_to_csv(report, header_comment=_digest_comment(digests)),
    }


def cmd_plan(args: argparse.Namespace) -> dict:
    from . import catalog, planner

    desc = models.load_model_descriptor(args.model)
    if args.exclude_embed:
        desc = models.without_embedding(desc)
    specs = catalog.load_catalog(args.catalog)
    prec = models.Precision(args.bytes_per_param)
    slo = planner.SloSpec(args.slo)
    if len(set(args.mode)) != len(args.mode):
        raise ValidationError(f"--mode names a mode more than once: {' '.join(args.mode)}", field="mode")
    # the map's modes come first, so its lines are the plan's first requirements
    fig2_modes = list(planner.FIG2_MODES) if args.fig2 else []
    modes = fig2_modes + [mode for mode in args.mode if mode not in fig2_modes]
    sheet = None
    if args.trace:
        # trace mode validates the sheet it plans from; an unused one is checked here
        sheet = trace.load_activation_sheet(args.trace, None if "trace" in modes else desc)
    dist = trace._parse_dist_spec(args.dist) if args.dist else None
    sweep = args.sweep_batches.split(",") if args.sweep_batches else []
    batches = [trace._parse_number(b, int, "sweep_batches") for b in sweep]

    # one set of plan settings for the modes, the map and the sweep alike
    plan = dict(
        efficiency_mbu=args.efficiency_mbu,
        kv_bytes=args.kv_bytes,
        include_ops=args.with_ops,
        efficiency_mfu=args.efficiency_mfu,
        seq_len=args.seq_len,
    )
    reqs, requirements = [], []
    feasibility_docs = {}
    for mode in modes:
        req = planner.plan_requirement(desc, prec, slo, mode, sheet=sheet, batch=args.batch, dist=dist, **plan)
        reqs.append(req)
        requirements.append(planner.requirement_to_dict(req))
        verdicts = planner.feasibility(req, specs, use_offload=args.use_offload, margin=args.margin)
        feasibility_docs[mode] = planner.verdicts_to_dicts(verdicts)

    digests = _input_digests(model=args.model, catalog=args.catalog, trace=args.trace or None)
    out_dir = Path(args.output_dir)
    doc = {"inputs": digests, "requirements": requirements, "feasibility": feasibility_docs}
    outputs = {out_dir / "plan_report.json": doc}
    if args.fig2:
        plot = planner.bandwidth_power_map(reqs[: len(fig2_modes)], specs, include_embed=not args.exclude_embed)
        plot["inputs"] = digests
        outputs[out_dir / "bandwidth_power_map.json"] = plot
    if batches:
        points = planner.batch_sweep(
            desc,
            dist if dist is not None else trace.RoutingDistribution.uniform(),
            batches,
            slo,
            prec,
            catalog=specs,
            use_offload=args.use_offload,
            margin=args.margin,
            **plan,
        )
        outputs[out_dir / "batch_sweep.csv"] = planner.sweep_to_csv(points, _digest_comment(digests))
    return outputs


def _import_numpy_random() -> None:
    """Import numpy.random with OpenSSL's ``_hashlib`` unimportable.

    numpy.random imports ``secrets``, which imports ``hmac`` and through it
    ``_hashlib`` and libcrypto, for hashes ``simulate`` never computes. On
    Python 3.11 with numpy 2.4 (x86-64) that is 3.4 MB of the import's RSS
    and 2.7-2.9 MB of a deepseek-r1 ``simulate`` child's peak RSS at batch 1
    to 64 (35.2-35.4 -> 32.5-32.6 MB). Without ``_hashlib``, ``hashlib``
    and ``hmac`` use the interpreter's built-in hashes, as CPython designs
    them to. Only the CLI does this: it owns its process, while a library
    must not change its host's ``hashlib``. When numpy.random or
    ``_hashlib`` is already loaded, nothing is done.
    """
    if "numpy.random" in sys.modules or "_hashlib" in sys.modules:
        return
    # a None entry in sys.modules makes the import raise ImportError
    sys.modules["_hashlib"] = None
    try:
        import numpy.random  # noqa: F401  (loaded for routing, which imports it again)
    finally:
        del sys.modules["_hashlib"]


def cmd_simulate(args: argparse.Namespace) -> dict:
    _import_numpy_random()
    desc = models.load_model_descriptor(args.model)
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
    return {Path(args.out): trace.serialize_activation_sheet(sheet, desc)}


def cmd_cost(args: argparse.Namespace) -> dict:
    from . import costing

    bom, power, econ = costing.load_cost_inputs(args.inputs)
    doc = {"inputs": _input_digests(cost_inputs=args.inputs), "report": costing.cost_report(bom, power, econ)}
    return {Path(args.output_dir) / "cost_report.json": doc}


def cmd_radar(args: argparse.Namespace) -> dict:
    from . import cap

    records = cap.load_cap_records(args.records)
    dataset = cap.normalize_radar(records)
    labels = cap.classify_tradeoff(dataset)
    digests = _input_digests(records=args.records)
    out_dir = Path(args.output_dir)
    return {
        out_dir / "radar_report.json": {"inputs": digests, "radar": cap.radar_to_dict(dataset, labels)},
        out_dir / "radar_report.csv": cap.radar_to_csv(dataset, labels, _digest_comment(digests)),
    }


def cmd_recommend(args: argparse.Namespace) -> dict:
    from . import cap

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
        "matched": asdict(result.matched) if result.matched else None,
        "nearest": [asdict(r) for r in result.nearest],
    }
    return {Path(args.output_dir) / "recommendation.json": doc}


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a JSON validation error document whose
    field is the argument's name (``--bytes-per-param`` gives
    ``bytes_per_param``; of unrecognized arguments, the first, a positional
    one as typed), like every other input error. ``--help`` is unchanged."""

    def error(self, message: str):
        match = re.match(r"argument ([^:]+): |the following arguments are required: ([^,]+)", message)
        stray = re.match(r"unrecognized arguments: (\S+)", message)
        field = None
        if match:
            field = next(filter(None, match.groups())).split("/")[-1].lstrip("-").replace("-", "_")
        elif stray:
            # an unknown option is named as a known one would be; a stray
            # positional (a path, a negative number) is kept as typed
            token = stray.group(1)
            is_option = re.match(r"--?[^\W\d]", token)
            field = token.split("=")[0].lstrip("-").replace("-", "_") if is_option else token
        self.exit(EXIT_INVALID, _error_doc("validation", message, field) + "\n")


def _add_output_dir(p):
    p.add_argument("--output-dir", default="out", help="directory for report files")


def _add_catalog(p):
    p.add_argument(
        "--catalog",
        default=os.environ.get(CATALOG_ENV_VAR),
        help=f"hardware catalog JSON (default: ${CATALOG_ENV_VAR})",
    )


def _metrics_arguments(p):
    p.add_argument("--model", required=True, help="model descriptor JSON")
    p.add_argument("--trace", required=True, help="activation trace file")
    _add_catalog(p)
    p.add_argument("--device", required=True, help="catalog device name")
    p.add_argument("--bytes-per-param", type=float, required=True, choices=models.ALLOWED_BYTES_PER_PARAM)
    p.add_argument("--flops-precision", default="fp16", help="key into the device's peak FLOPS map")
    p.add_argument("--seq-len", type=int, default=1, help="context length for attention FLOPs")
    p.add_argument(
        "--kv-seq-len",
        type=int,
        default=None,
        help="enable the KV-cache byte fallback at this context length for passes recording no KV traffic",
    )
    p.add_argument("--exclude-embed", action="store_true", help="drop embedding/head bytes from accounting")
    _add_output_dir(p)


def _plan_arguments(p):
    p.add_argument("--model", required=True)
    _add_catalog(p)
    p.add_argument("--bytes-per-param", type=float, default=1.0, choices=models.ALLOWED_BYTES_PER_PARAM)
    p.add_argument("--slo", type=float, default=models.DEFAULT_SLO_TPOT_S, help="TPOT target in s/token")
    p.add_argument(
        "--mode",
        nargs="+",
        default=["batch1_analytic"],
        choices=list(models.ACTIVATION_MODES),
    )
    p.add_argument("--efficiency-mbu", type=float, default=models.DEFAULT_EFFICIENCY_MBU)
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
        help="also plan batch1_analytic and full_activation, ahead of --mode, and emit bandwidth-vs-power "
        "map plot data (device points + those two requirement lines)",
    )
    p.add_argument("--sweep-batches", default=None, help="comma-separated batch sizes for a sweep CSV")
    _add_output_dir(p)


def _simulate_arguments(p):
    p.add_argument("--model", required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--dist", required=True, help="uniform | zipf:S | empirical:p1,p2,...")
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", default="decode", choices=list(trace.PHASES))
    p.add_argument("--tokens-per-pass", type=int, default=None)
    p.add_argument("--out", required=True, help="output trace path")


def _cost_arguments(p):
    p.add_argument("--inputs", required=True, help="cost inputs JSON")
    _add_output_dir(p)


def _radar_arguments(p):
    p.add_argument("--records", required=True, help="cap records JSON")
    _add_output_dir(p)


def _recommend_arguments(p):
    p.add_argument("--rules", required=True, help="decision rules JSON")
    p.add_argument("--tier", required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--primary", required=True)
    p.add_argument("--secondary", required=True)
    _add_output_dir(p)


# subcommand -> (help, arguments, command), in help order
_SUBCOMMANDS = {
    "metrics": ("per-pass and aggregate utilization metrics over a trace", _metrics_arguments, cmd_metrics),
    "plan": ("bandwidth/OPS requirements and device feasibility", _plan_arguments, cmd_plan),
    "simulate": ("synthesize an activation trace by sampling routing", _simulate_arguments, cmd_simulate),
    "cost": ("purchase / energy / per-token cost report", _cost_arguments, cmd_cost),
    "radar": (
        "normalize cost/accuracy/performance records and classify trade-offs",
        _radar_arguments,
        cmd_radar,
    ),
    "recommend": ("query the deployment decision-rule table", _recommend_arguments, cmd_recommend),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser. Every subcommand is registered with its
    help; when ``argv`` starts with a subcommand, only that one gets its
    arguments, which saves filling the other five on every run. With no
    ``argv``, or one that names no subcommand, all of them are filled."""
    parser = _ArgumentParser(
        prog="moemeter",
        description="Analytical cost / accuracy / performance toolkit for MoE serving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    for name, (help_text, add_arguments, func) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if named in (None, name):
            add_arguments(p)
        p.set_defaults(func=func)
    return parser


def _error_doc(kind: str, message: str, field: str | None = None) -> str:
    doc = {"error": {"type": kind, "message": message}}
    if field:
        doc["error"]["field"] = field
    return json.dumps(doc, sort_keys=True)


def _write_outputs(texts: dict) -> None:
    """Write each text to its path; if a write fails, remove the files
    this run opened for writing and raise the error."""
    written = []
    try:
        for path, text in texts.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except OSError:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    if getattr(args, "catalog", "unset") is None:
        print(
            _error_doc("validation", f"no catalog given and ${CATALOG_ENV_VAR} is not set", "catalog"),
            file=sys.stderr,
        )
        return EXIT_INVALID
    try:
        texts = {
            path: doc if isinstance(doc, str) else json_text(doc, path.name) for path, doc in args.func(args).items()
        }
        _write_outputs(texts)
        for path in texts:
            print(path)
        return EXIT_OK
    except ValidationError as exc:
        print(_error_doc("validation", str(exc), exc.field), file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(_error_doc("input", str(exc)), file=sys.stderr)
        return EXIT_INVALID
    except OverflowError:
        # finite inputs can still overflow a derived figure before it reaches a renderer
        message = "a figure derived from the inputs overflows a double; an input is out of range"
        print(_error_doc("validation", message, "report"), file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        print(_error_doc("internal", f"{type(exc).__name__}: {exc}"), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
