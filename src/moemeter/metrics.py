"""Bandwidth and FLOPS utilization metrics, vanilla and sparsity-aware.

Vanilla MBU charges the full model size to every forward pass; the sparse
variant charges only the parameters the recorded routing actually touched.
Vanilla MFU likewise assumes every expert participates in each token's
computation, while the sparse variant counts top_k routed plus shared
experts. Both pairs satisfy sparse <= vanilla, with equality exactly in the
dense / fully-activated cases.

All functions are pure; peak bandwidth is in bytes/s and peak compute in
FLOP/s. Values above 1.0 are reported (with a RuntimeWarning), never
clamped, since they signal inconsistent inputs rather than physics.

The report, the aggregate and per-pass S-MBU and planner trace mode are
views over one fold, :func:`models.fold_passes`: it charges each pass by
:func:`models.pass_bytes` and sums bytes, latency and tokens. The
activated-parameter fraction is a view over the kernel under both,
:func:`models.activated_params_from_sets`: integer parameter counts, so
it stays exact past 2**53 parameters. Every MBU is
bytes / seconds / peak (``_mbu``) and every MFU tokens/s * FLOPs / peak
(``_mfu``), whether standalone, per pass or aggregate. A report's per-pass
and aggregate figures are one rate rule, ``_rates``, over (bytes read,
vanilla bytes, tokens, seconds): a pass at its own figures, the aggregate
at the fold's totals.
"""

from __future__ import annotations

import math
import warnings

from .errors import ValidationError, csv_text, fields, record
from .models import (
    ModelDescriptor,
    Precision,
    activated_params_from_sets,
    dense_flops_per_token,
    fold_passes,
    pass_bytes,
    sparse_flops_per_token,
    total_param_bytes,
    total_params,
    without_embedding,
)
from .trace import ActivationSheet, ForwardPassRecord, validate_sheet


def vanilla_mbu(
    desc: ModelDescriptor,
    prec: Precision,
    hw_peak_bandwidth: float,
    tpot_s: float,
    kv_bytes: float = 0.0,
) -> float:
    """Memory-bandwidth utilization assuming the full model is read per step:
    (S_model + S_kv) / TPOT / peak."""
    if not 0 < tpot_s < math.inf:
        raise ValidationError("tpot_s must be finite and > 0", field="tpot_s")
    _check_peak(hw_peak_bandwidth, "hw_peak_bandwidth")
    if not 0 <= kv_bytes < math.inf:
        raise ValidationError("kv_bytes must be finite and >= 0", field="kv_bytes")
    s_model = total_param_bytes(desc, prec)
    return _warn_if_over_one(_mbu(s_model + kv_bytes, tpot_s, hw_peak_bandwidth), "vanilla MBU")


def activated_bytes_for_pass(rec: ForwardPassRecord, desc: ModelDescriptor, prec: Precision) -> float:
    """Activated parameter bytes of one pass, the first figure of :func:`models.pass_bytes`."""
    return pass_bytes(rec, desc, prec)[0]


def s_mbu_per_pass(
    rec: ForwardPassRecord,
    desc: ModelDescriptor,
    prec: Precision,
    hw_peak_bandwidth: float,
    kv_seq_len: int | None = None,
) -> float:
    """Sparsity-aware MBU for one pass: only the activated parameter bytes
    (plus KV) count toward achieved bandwidth."""
    _check_peak(hw_peak_bandwidth, "hw_peak_bandwidth")
    _, pass_total, latency, _ = fold_passes([rec], desc, prec, kv_seq_len)
    return _warn_if_over_one(_mbu(pass_total, latency, hw_peak_bandwidth), "S-MBU")


def s_mbu_aggregate(
    sheet: ActivationSheet,
    desc: ModelDescriptor,
    prec: Precision,
    hw_peak_bandwidth: float,
    kv_seq_len: int | None = None,
) -> float:
    """Dynamic-batching aggregate: total bytes moved across all passes over
    total wall time, over peak bandwidth (latency-weighted, not the mean of
    per-pass values)."""
    _check_peak(hw_peak_bandwidth, "hw_peak_bandwidth")
    validate_sheet(sheet, desc)
    _, total_bytes, total_latency, _ = fold_passes(sheet.passes, desc, prec, kv_seq_len)
    return _warn_if_over_one(_mbu(total_bytes, total_latency, hw_peak_bandwidth), "aggregate S-MBU")


@record
class ActivatedFractionReport:
    """Share of parameters a pass actually reads. ``per_pass`` counts every
    always-read component (attention, routers, shared experts, embeddings,
    dense layers); ``per_pass_expert_only`` restricts both numerator and
    denominator to expert parameters."""

    per_pass: tuple[float, ...]
    mean: float
    per_pass_expert_only: tuple[float, ...]
    mean_expert_only: float


def activated_fraction(sheet: ActivationSheet, desc: ModelDescriptor) -> ActivatedFractionReport:
    """Each pass's parameters read, :func:`models.activated_params_from_sets`,
    over :func:`models.total_params`: a quotient of integers, correctly
    rounded however large the counts."""
    validate_sheet(sheet, desc)
    acts = [activated_params_from_sets(desc, rec.bitmaps) for rec in sheet.passes]
    total = total_params(desc)
    expert_total = len(desc.moe_layers) * (sum(desc.routed_expert_sizes) + desc.n_shared * desc.params_shared_expert)
    fracs = tuple(act / total for act in acts)
    # every pass reads all non-expert parameters, total - expert_total
    experts = tuple((act - total + expert_total) / expert_total if expert_total > 0 else 1.0 for act in acts)
    return ActivatedFractionReport(fracs, sum(fracs) / len(fracs), experts, sum(experts) / len(experts))


def s_mfu(
    throughput_tokens_per_s: float,
    desc: ModelDescriptor,
    seq_len: int,
    hw_peak_flops: float,
) -> float:
    """Sparsity-aware MFU: token throughput times per-token FLOPs counting
    only activated experts, over peak FLOPS. Needs no trace."""
    return _warn_if_over_one(
        _checked_mfu(throughput_tokens_per_s, sparse_flops_per_token, desc, seq_len, hw_peak_flops), "S-MFU"
    )


def vanilla_mfu(
    throughput_tokens_per_s: float,
    desc: ModelDescriptor,
    seq_len: int,
    hw_peak_flops: float,
) -> float:
    """MFU under the all-experts-participate baseline."""
    return _warn_if_over_one(
        _checked_mfu(throughput_tokens_per_s, dense_flops_per_token, desc, seq_len, hw_peak_flops), "vanilla MFU"
    )


def _checked_mfu(throughput: float, flops_per_token, desc: ModelDescriptor, seq_len: int, peak_flops: float) -> float:
    """The MFU both standalone views share, unwarned: each view passes its
    FLOPs-per-token function and warns under its own label."""
    if not 0 < throughput < math.inf:
        raise ValidationError("throughput must be finite and > 0", field="throughput_tokens_per_s")
    _check_peak(peak_flops, "hw_peak_flops")
    return _mfu(throughput, flops_per_token(desc, seq_len), peak_flops)


def overestimation(vanilla: float, sparse: float) -> float:
    """How far the routing-blind metric inflates the sparsity-aware one."""
    if sparse <= 0:
        raise ValidationError("sparse value must be > 0", field="sparse")
    return vanilla / sparse


def _mbu(bytes_moved: float, seconds: float, peak_bandwidth: float) -> float:
    """Bandwidth utilization, unwarned: the one expression every MBU is."""
    return bytes_moved / seconds / peak_bandwidth


def _mfu(tokens_per_s: float, flops_per_token: float, peak_flops: float) -> float:
    """Compute utilization, unwarned: the one expression every MFU is."""
    return tokens_per_s * flops_per_token / peak_flops


def _check_peak(value: float, field: str) -> None:
    if not 0 < value < math.inf:
        raise ValidationError(f"{field} must be finite and > 0, got {value!r}", field=field)


def _warn_if_over_one(value: float, label: str) -> float:
    if value > 1.0:
        warnings.warn(
            f"{label} = {value:.4f} exceeds 1.0; check peak figures and latencies",
            RuntimeWarning,
            stacklevel=3,
        )
    return value


def _warn_passes_over_one(values: list[float], label: str) -> None:
    """One warning for every per-pass value of a metric above 1.0, with
    their count and the largest: one per value would flood stderr."""
    over = [v for v in values if v > 1.0]
    if over:
        warnings.warn(
            f"{label} = {max(over):.4f} exceeds 1.0, the largest of {len(over)} of {len(values)} "
            f"per-pass values above 1.0; check peak figures and latencies",
            RuntimeWarning,
            stacklevel=3,
        )


# --------------------------------------------------------------------------
# Full per-trace report
# --------------------------------------------------------------------------

@record
class PassMetrics:
    pass_id: int
    phase: str
    batch_size: int
    tokens_processed: int
    latency_s: float
    activated_bytes: float
    kv_bytes: float
    achieved_bandwidth: float
    token_throughput: float
    s_mbu: float
    vanilla_mbu: float
    s_mfu: float
    vanilla_mfu: float
    overestimation_mbu: float
    overestimation_mfu: float


@record
class MetricReport:
    model_name: str
    peak_bandwidth_bytes_per_s: float
    peak_flops: float
    bytes_per_param: float
    seq_len: int
    include_embed: bool
    heterogeneous_experts: bool
    passes: tuple[PassMetrics, ...]
    aggregate_s_mbu: float
    aggregate_vanilla_mbu: float
    aggregate_s_mfu: float
    aggregate_vanilla_mfu: float
    aggregate_overestimation_mbu: float
    aggregate_overestimation_mfu: float
    total_latency_s: float
    total_tokens: int


# (PassMetrics field, per-pass label) of each figure that warns above 1.0;
# its aggregate warns as ``aggregate <label>``
_WARNED = (("s_mbu", "S-MBU"), ("vanilla_mbu", "vanilla MBU"), ("s_mfu", "S-MFU"), ("vanilla_mfu", "vanilla MFU"))


def _rates(
    bytes_read: float, vanilla_bytes: float, tokens: int, seconds: float,
    peak_bandwidth: float, sparse_flops: float, dense_flops: float, peak_flops: float,
) -> tuple[float, ...]:
    """The rate fields of :class:`PassMetrics`, ``achieved_bandwidth``
    through ``overestimation_mfu`` in order, unwarned: the one rule for a
    pass and, over the fold's totals, for the aggregate."""
    throughput = tokens / seconds
    smbu = _mbu(bytes_read, seconds, peak_bandwidth)
    vmbu = _mbu(vanilla_bytes, seconds, peak_bandwidth)
    smfu = _mfu(throughput, sparse_flops, peak_flops)
    vmfu = _mfu(throughput, dense_flops, peak_flops)
    return (
        bytes_read / seconds, throughput, smbu, vmbu, smfu, vmfu, overestimation(vmbu, smbu), overestimation(vmfu, smfu)
    )


def compute_metric_report(
    sheet: ActivationSheet,
    desc: ModelDescriptor,
    prec: Precision,
    hw_peak_bandwidth: float,
    hw_peak_flops: float,
    seq_len: int = 1,
    kv_seq_len: int | None = None,
    include_embed: bool = True,
) -> MetricReport:
    """Per-pass and aggregate utilization metrics over a validated sheet.

    ``seq_len`` feeds the context-dependent attention FLOPs term;
    ``kv_seq_len`` (optional) enables the KV-cache byte fallback for passes
    that recorded no KV traffic. Unless ``include_embed``, which the report
    states as a bool, it accounts :func:`models.without_embedding` of ``desc``.
    """
    if not include_embed:
        desc = without_embedding(desc)
    validate_sheet(sheet, desc)
    _check_peak(hw_peak_bandwidth, "hw_peak_bandwidth")
    _check_peak(hw_peak_flops, "hw_peak_flops")
    per_pass, total_bytes, total_latency, total_tokens = fold_passes(sheet.passes, desc, prec, kv_seq_len)
    s_model = total_param_bytes(desc, prec)
    # the rule's arguments fixed for the sheet: per-token FLOPs depend only on (desc, seq_len)
    fixed = (hw_peak_bandwidth, sparse_flops_per_token(desc, seq_len), dense_flops_per_token(desc, seq_len), hw_peak_flops)
    passes = []
    total_vanilla_bytes = 0.0
    for rec, (act, kv) in zip(sheet.passes, per_pass):
        tokens, latency = rec.tokens_processed, rec.latency_s
        passes.append(
            PassMetrics(
                rec.pass_id, rec.phase, rec.batch_size, tokens, latency, act, kv,
                *_rates(act + kv, s_model + kv, tokens, latency, *fixed),
            )
        )
        total_vanilla_bytes += s_model + kv
    for name, label in _WARNED:
        _warn_passes_over_one([getattr(p, name) for p in passes], label)
    report = MetricReport(
        sheet.model_name, hw_peak_bandwidth, hw_peak_flops, prec.bytes_per_param, seq_len, bool(include_embed),
        desc.heterogeneous_experts, tuple(passes),
        # the aggregate_* fields: the rule's figures from s_mbu on, over the fold's totals
        *_rates(total_bytes, total_vanilla_bytes, total_tokens, total_latency, *fixed)[2:],
        total_latency, total_tokens,
    )
    for name, label in _WARNED:
        _warn_if_over_one(getattr(report, f"aggregate_{name}"), f"aggregate {label}")
    return report


# Every field is a str, int, float or bool, except MetricReport.passes, so a
# report becomes JSON-ready dicts field by field, with no deep copy.
_PASS_FIELDS = tuple(f.name for f in fields(PassMetrics))
_REPORT_FIELDS = tuple(f.name for f in fields(MetricReport))


def report_to_dict(report: MetricReport) -> dict:
    doc = {name: getattr(report, name) for name in _REPORT_FIELDS}
    doc["passes"] = [{name: getattr(p, name) for name in _PASS_FIELDS} for p in report.passes]
    return doc


_CSV_COLUMNS = ("row", *_PASS_FIELDS)


def report_to_csv(report: MetricReport, header_comment: str | None = None) -> str:
    """Flat CSV: one row per pass plus a final aggregate row, which holds the
    totals and each metric's ``aggregate_<column>`` field."""
    rows = [["pass", *(getattr(p, column) for column in _CSV_COLUMNS[1:])] for p in report.passes]
    totals = {
        "tokens_processed": report.total_tokens,
        "latency_s": report.total_latency_s,
        "token_throughput": report.total_tokens / report.total_latency_s,
    }
    rows.append(
        ["aggregate", *(totals.get(column, getattr(report, f"aggregate_{column}", "")) for column in _CSV_COLUMNS[1:])]
    )
    return csv_text(_CSV_COLUMNS, rows, header_comment)
