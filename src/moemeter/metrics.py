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
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, asdict

from .errors import ValidationError
from .models import (
    ModelDescriptor,
    Precision,
    activated_params_from_sets,
    dense_flops_per_token,
    kv_cache_bytes,
    sparse_flops_per_token,
    total_param_bytes,
)
from .trace import ActivationSheet, ForwardPassRecord, validate_sheet


def vanilla_mbu(
    desc: ModelDescriptor,
    prec: Precision,
    hw_peak_bandwidth: float,
    tpot_s: float,
    kv_bytes: float = 0.0,
    include_embed: bool = True,
) -> float:
    """Memory-bandwidth utilization assuming the full model is read per step:
    (S_model + S_kv) / TPOT / peak."""
    if tpot_s <= 0:
        raise ValidationError("tpot_s must be > 0", field="tpot_s")
    _check_peak(hw_peak_bandwidth, "hw_peak_bandwidth")
    if kv_bytes < 0:
        raise ValidationError("kv_bytes must be >= 0", field="kv_bytes")
    s_model = total_param_bytes(desc, prec, include_embed=include_embed)
    return _warn_if_over_one((s_model + kv_bytes) / tpot_s / hw_peak_bandwidth, "vanilla MBU")


def activated_bytes_for_pass(
    rec: ForwardPassRecord,
    desc: ModelDescriptor,
    prec: Precision,
    include_embed: bool = True,
) -> float:
    return activated_params_from_sets(desc, rec.bitmaps, include_embed=include_embed) * prec.bytes_per_param


def _pass_kv_bytes(
    rec: ForwardPassRecord, desc: ModelDescriptor, prec: Precision, kv_seq_len: int | None
) -> float:
    # kv_seq_len opts into the KV-cache formula for passes that recorded no
    # KV traffic; without it, unknown KV counts as zero.
    if rec.kv_bytes_read > 0:
        return float(rec.kv_bytes_read)
    if kv_seq_len is not None:
        return kv_cache_bytes(desc, kv_seq_len, rec.batch_size, prec)
    return 0.0


def s_mbu_per_pass(
    rec: ForwardPassRecord,
    desc: ModelDescriptor,
    prec: Precision,
    hw_peak_bandwidth: float,
    kv_seq_len: int | None = None,
    include_embed: bool = True,
) -> float:
    """Sparsity-aware MBU for one pass: only the activated parameter bytes
    (plus KV) count toward achieved bandwidth. The pass latency is the TPOT
    for decode passes; prefill passes use their latency directly."""
    _check_peak(hw_peak_bandwidth, "hw_peak_bandwidth")
    act = activated_bytes_for_pass(rec, desc, prec, include_embed=include_embed)
    kv = _pass_kv_bytes(rec, desc, prec, kv_seq_len)
    return _warn_if_over_one((act + kv) / rec.latency_s / hw_peak_bandwidth, "S-MBU")


def s_mbu_aggregate(
    sheet: ActivationSheet,
    desc: ModelDescriptor,
    prec: Precision,
    hw_peak_bandwidth: float,
    kv_seq_len: int | None = None,
    include_embed: bool = True,
) -> float:
    """Dynamic-batching aggregate: total bytes moved across all passes over
    total wall time, over peak bandwidth (latency-weighted, not the mean of
    per-pass values)."""
    _check_peak(hw_peak_bandwidth, "hw_peak_bandwidth")
    validate_sheet(sheet, desc)
    total_bytes = 0.0
    total_latency = 0.0
    for rec in sheet.passes:
        total_bytes += activated_bytes_for_pass(rec, desc, prec, include_embed=include_embed)
        total_bytes += _pass_kv_bytes(rec, desc, prec, kv_seq_len)
        total_latency += rec.latency_s
    return _warn_if_over_one(total_bytes / total_latency / hw_peak_bandwidth, "aggregate S-MBU")


def s_mfu(
    throughput_tokens_per_s: float,
    desc: ModelDescriptor,
    seq_len: int,
    hw_peak_flops: float,
) -> float:
    """Sparsity-aware MFU: token throughput times per-token FLOPs counting
    only activated experts, over peak FLOPS. Needs no trace."""
    if throughput_tokens_per_s <= 0:
        raise ValidationError("throughput must be > 0", field="throughput_tokens_per_s")
    _check_peak(hw_peak_flops, "hw_peak_flops")
    return _warn_if_over_one(
        throughput_tokens_per_s * sparse_flops_per_token(desc, seq_len) / hw_peak_flops, "S-MFU"
    )


def vanilla_mfu(
    throughput_tokens_per_s: float,
    desc: ModelDescriptor,
    seq_len: int,
    hw_peak_flops: float,
) -> float:
    """MFU under the all-experts-participate baseline."""
    if throughput_tokens_per_s <= 0:
        raise ValidationError("throughput must be > 0", field="throughput_tokens_per_s")
    _check_peak(hw_peak_flops, "hw_peak_flops")
    return _warn_if_over_one(
        throughput_tokens_per_s * dense_flops_per_token(desc, seq_len) / hw_peak_flops, "vanilla MFU"
    )


def overestimation(vanilla: float, sparse: float) -> float:
    """How far the routing-blind metric inflates the sparsity-aware one."""
    if sparse <= 0:
        raise ValidationError("sparse value must be > 0", field="sparse")
    return vanilla / sparse


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


# --------------------------------------------------------------------------
# Full per-trace report
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PassMetrics:
    pass_id: int
    phase: str
    batch_size: int
    tokens_processed: int
    latency_s: float
    activated_bytes: float
    kv_bytes: float
    achieved_bandwidth: float
    tpot_s: float
    token_throughput: float
    s_mbu: float
    vanilla_mbu: float
    s_mfu: float
    vanilla_mfu: float
    overestimation_mbu: float
    overestimation_mfu: float


@dataclass(frozen=True)
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
    that recorded no KV traffic.
    """
    _check_peak(hw_peak_bandwidth, "hw_peak_bandwidth")
    _check_peak(hw_peak_flops, "hw_peak_flops")
    validate_sheet(sheet, desc)
    s_model = total_param_bytes(desc, prec, include_embed=include_embed)
    passes = []
    total_bytes = 0.0
    total_vanilla_bytes = 0.0
    total_latency = 0.0
    total_tokens = 0
    for rec in sheet.passes:
        act = activated_bytes_for_pass(rec, desc, prec, include_embed=include_embed)
        kv = _pass_kv_bytes(rec, desc, prec, kv_seq_len)
        throughput = rec.tokens_processed / rec.latency_s
        smbu = (act + kv) / rec.latency_s / hw_peak_bandwidth
        vmbu = (s_model + kv) / rec.latency_s / hw_peak_bandwidth
        smfu = s_mfu(throughput, desc, seq_len, hw_peak_flops)
        vmfu = vanilla_mfu(throughput, desc, seq_len, hw_peak_flops)
        passes.append(
            PassMetrics(
                pass_id=rec.pass_id,
                phase=rec.phase,
                batch_size=rec.batch_size,
                tokens_processed=rec.tokens_processed,
                latency_s=rec.latency_s,
                activated_bytes=act,
                kv_bytes=kv,
                achieved_bandwidth=(act + kv) / rec.latency_s,
                tpot_s=rec.latency_s,
                token_throughput=throughput,
                s_mbu=smbu,
                vanilla_mbu=vmbu,
                s_mfu=smfu,
                vanilla_mfu=vmfu,
                overestimation_mbu=overestimation(vmbu, smbu),
                overestimation_mfu=overestimation(vmfu, smfu),
            )
        )
        total_bytes += act + kv
        total_vanilla_bytes += s_model + kv
        total_latency += rec.latency_s
        total_tokens += rec.tokens_processed
    agg_s_mbu = total_bytes / total_latency / hw_peak_bandwidth
    agg_v_mbu = total_vanilla_bytes / total_latency / hw_peak_bandwidth
    agg_throughput = total_tokens / total_latency
    agg_s_mfu = s_mfu(agg_throughput, desc, seq_len, hw_peak_flops)
    agg_v_mfu = vanilla_mfu(agg_throughput, desc, seq_len, hw_peak_flops)
    return MetricReport(
        model_name=sheet.model_name,
        peak_bandwidth_bytes_per_s=hw_peak_bandwidth,
        peak_flops=hw_peak_flops,
        bytes_per_param=prec.bytes_per_param,
        seq_len=seq_len,
        include_embed=include_embed,
        heterogeneous_experts=desc.heterogeneous_experts,
        passes=tuple(passes),
        aggregate_s_mbu=agg_s_mbu,
        aggregate_vanilla_mbu=agg_v_mbu,
        aggregate_s_mfu=agg_s_mfu,
        aggregate_vanilla_mfu=agg_v_mfu,
        aggregate_overestimation_mbu=overestimation(agg_v_mbu, agg_s_mbu),
        aggregate_overestimation_mfu=overestimation(agg_v_mfu, agg_s_mfu),
        total_latency_s=total_latency,
        total_tokens=total_tokens,
    )


def report_to_dict(report: MetricReport) -> dict:
    doc = asdict(report)
    doc["passes"] = [asdict(p) for p in report.passes]
    return doc


_CSV_COLUMNS = (
    "row",
    "pass_id",
    "phase",
    "batch_size",
    "tokens_processed",
    "latency_s",
    "activated_bytes",
    "kv_bytes",
    "achieved_bandwidth",
    "token_throughput",
    "s_mbu",
    "vanilla_mbu",
    "s_mfu",
    "vanilla_mfu",
    "overestimation_mbu",
    "overestimation_mfu",
)


def report_to_csv(report: MetricReport, header_comment: str | None = None) -> str:
    """Flat CSV: one row per pass plus a final aggregate row."""
    buf = io.StringIO()
    if header_comment:
        buf.write(f"# {header_comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for p in report.passes:
        writer.writerow(
            [
                "pass",
                p.pass_id,
                p.phase,
                p.batch_size,
                p.tokens_processed,
                repr(p.latency_s),
                repr(p.activated_bytes),
                repr(p.kv_bytes),
                repr(p.achieved_bandwidth),
                repr(p.token_throughput),
                repr(p.s_mbu),
                repr(p.vanilla_mbu),
                repr(p.s_mfu),
                repr(p.vanilla_mfu),
                repr(p.overestimation_mbu),
                repr(p.overestimation_mfu),
            ]
        )
    writer.writerow(
        [
            "aggregate",
            "",
            "",
            "",
            report.total_tokens,
            repr(report.total_latency_s),
            "",
            "",
            "",
            repr(report.total_tokens / report.total_latency_s),
            repr(report.aggregate_s_mbu),
            repr(report.aggregate_vanilla_mbu),
            repr(report.aggregate_s_mfu),
            repr(report.aggregate_vanilla_mfu),
            repr(report.aggregate_overestimation_mbu),
            repr(report.aggregate_overestimation_mfu),
        ]
    )
    return buf.getvalue()
