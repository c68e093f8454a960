"""Deployment planning: bandwidth/OPS requirements, feasibility, batch sweeps.

Turns a model descriptor, an activation assumption and a latency target
into hardware requirements. Theoretical bandwidth is the bytes a decode
step must move divided by the TPOT target; the practical requirement,
which :func:`plan_requirement` computes alongside it, divides that by an
achievable-utilization efficiency (a fraction in (0, 1]), since real
systems never sustain a device's peak.

Every requirement is built by :func:`plan_requirement`, and the other
functions are views over it under the same plan settings (``efficiency_mbu``,
``kv_bytes``, ``include_ops``, ``efficiency_mfu``, ``seq_len``), whose
defaults live in its signature alone, and over one descriptor
(:func:`models.without_embedding` of the model leaves the embedding out):
:func:`theoretical_bandwidth_gbps` reads its bandwidth; a :func:`batch_sweep`
point is the ``expected`` requirement at its batch, distinct count and
activated fraction included, with the devices :func:`feasibility`
satisfies; the :func:`bandwidth_power_map` lines are the plan's own
``batch1_analytic`` and ``full_activation`` requirements
(:data:`FIG2_MODES`), which the map draws without building them again.

Activation modes:

* ``batch1_analytic`` - one token activates exactly top_k + shared experts.
* ``full_activation`` - every expert in every layer is read (large-batch bound).
* ``trace`` - the mean decode pass of a recorded activation sheet: its
  bytes by :func:`models.pass_bytes` (recorded KV, else ``kv_bytes``) and,
  for OPS, its tokens. Prefill passes are left out. The sums are
  :func:`models.fold_passes` over the decode passes, the same fold the
  metrics report and the aggregate S-MBU are views over.
* ``expected`` - the expected parameters a batch of independent tokens
  reads under a routing distribution: each routed expert's size times the
  probability that the batch hits it, 1 - (1 - r_i)^batch with r_i its top-k
  inclusion probability. Exact for any expert sizes; with equal sizes it is
  the size times the expected distinct count. At batch 1 it is sum_i size_i
  r_i, which differs from ``batch1_analytic`` (top_k times the mean size)
  when expert sizes differ and routing is not uniform.

The headline recipe shipped with this repo (see README) evaluates the two
bounding modes at 1 byte/param with a default efficiency divisor of 0.3558
and a 0.1 s/token target; both assumptions are inferred conventions,
overridable per run. GB means 1e9 bytes throughout.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from . import trace
from .catalog import HardwareSpec
from .errors import ValidationError, asdict, csv_text, record
from .models import (
    ACTIVATION_MODES,
    DEFAULT_EFFICIENCY_MBU,
    GB,
    ModelDescriptor,
    Precision,
    _params_read,
    active_param_bytes_analytic,
    fold_passes,
    total_param_bytes,
    total_params,
    sparse_flops_per_token,
)
from .trace import ActivationSheet, validate_sheet

if TYPE_CHECKING:
    from .routing import RoutingDistribution

# The peak-FLOPS precision the feasibility OPS check reads from each device.
OPS_PRECISION = "fp16"


@record
class SloSpec:
    """Latency service-level objective: seconds per output token."""

    tpot_s: float

    def __post_init__(self):
        if not 0 < self.tpot_s < math.inf:
            raise ValidationError("tpot_s must be finite and > 0", field="tpot_s")


@record
class DeploymentRequirement:
    """What one decode step needs. ``kv_bytes`` is the KV the step was
    charged: the ``kv_bytes`` argument, or in trace mode the mean over decode
    passes of what :func:`models.pass_bytes` charged. The expectation behind an
    ``expected`` step (else ``None``) is kept for sweeps, not reported."""

    model_name: str
    activation_mode: str
    tpot_s: float
    bytes_per_param: float
    kv_bytes: float
    theoretical_bandwidth_gbps: float
    practical_bandwidth_gbps: float
    efficiency_mbu: float
    theoretical_ops: float | None = None
    practical_ops: float | None = None
    efficiency_mfu: float | None = None
    expected_distinct_per_layer: float | None = None
    activated_params: float | None = None


def theoretical_bandwidth_gbps(
    desc: ModelDescriptor, prec: Precision, slo: SloSpec, activation_mode: str, **plan
) -> float:
    """Minimum bandwidth (GB/s) to move one decode step's bytes within the
    TPOT target: that of :func:`plan_requirement` under the same arguments."""
    return plan_requirement(desc, prec, slo, activation_mode, **plan).theoretical_bandwidth_gbps


def plan_requirement(
    desc: ModelDescriptor,
    prec: Precision,
    slo: SloSpec,
    activation_mode: str,
    efficiency_mbu: float = DEFAULT_EFFICIENCY_MBU,
    kv_bytes: float = 0.0,
    sheet: ActivationSheet | None = None,
    batch: int | None = None,
    dist: RoutingDistribution | None = None,
    include_ops: bool = False,
    efficiency_mfu: float | None = None,
    seq_len: int = 1,
) -> DeploymentRequirement:
    """Bandwidth (and optionally OPS) requirement of one decode step: the
    bytes and tokens of the step, per TPOT target, then divided by the
    achievable efficiency: ``efficiency_mbu`` for bandwidth, and for OPS
    ``efficiency_mfu``, else ``efficiency_mbu``. Each efficiency given must
    be in (0, 1], whether or not OPS are asked for."""
    for name, efficiency in (("efficiency_mbu", efficiency_mbu), ("efficiency_mfu", efficiency_mfu)):
        if efficiency is not None and not 0 < efficiency <= 1:
            raise ValidationError(f"{name} must be in (0, 1], got {efficiency!r}", field=name)
    if activation_mode not in ACTIVATION_MODES:
        raise ValidationError(
            f"activation_mode must be one of {ACTIVATION_MODES}", field="activation_mode"
        )
    if not 0 <= kv_bytes < math.inf:
        raise ValidationError("kv_bytes must be finite and >= 0", field="kv_bytes")
    if batch is not None and batch < 1:
        raise ValidationError(f"batch must be >= 1, got {batch}", field="batch")
    distinct = act_params = None
    if activation_mode == "trace":
        if sheet is None:
            raise ValidationError("trace mode requires an activation sheet", field="sheet")
        validate_sheet(sheet, desc)
        # the requirement is per decode step, so prefill passes are left out
        decode = (rec for rec in sheet.passes if rec.phase == "decode")
        per_pass, total_bytes, _, tokens = fold_passes(decode, desc, prec, kv_bytes=kv_bytes)
        if not per_pass:
            raise ValidationError("trace mode requires at least one decode pass", field="sheet")
        step_bytes = total_bytes / len(per_pass)
        kv_bytes = sum(kv for _, kv in per_pass) / len(per_pass)
        tokens /= len(per_pass)
    else:
        if activation_mode == "batch1_analytic":
            param_bytes = active_param_bytes_analytic(desc, prec)
        elif activation_mode == "full_activation":
            param_bytes = total_param_bytes(desc, prec)
        else:  # expected
            if batch is None or dist is None:
                missing = "batch" if batch is None else "dist"
                raise ValidationError("expected mode requires batch and dist", field=missing)
            distinct, act_params = _expected_params(desc, batch, dist)
            param_bytes = act_params * prec.bytes_per_param
        step_bytes = param_bytes + kv_bytes
        tokens = batch if batch else 1
    theoretical = step_bytes / slo.tpot_s / GB
    theo_ops = prac_ops = eff_mfu = None
    if include_ops:
        eff_mfu = efficiency_mfu if efficiency_mfu is not None else efficiency_mbu
        theo_ops = sparse_flops_per_token(desc, seq_len) * tokens / slo.tpot_s
        prac_ops = theo_ops / eff_mfu
    return DeploymentRequirement(
        model_name=desc.name,
        activation_mode=activation_mode,
        tpot_s=slo.tpot_s,
        bytes_per_param=prec.bytes_per_param,
        kv_bytes=kv_bytes,
        theoretical_bandwidth_gbps=theoretical,
        practical_bandwidth_gbps=theoretical / efficiency_mbu,
        efficiency_mbu=efficiency_mbu,
        theoretical_ops=theo_ops,
        practical_ops=prac_ops,
        efficiency_mfu=eff_mfu,
        expected_distinct_per_layer=distinct,
        activated_params=act_params,
    )


def _expected_params(desc: ModelDescriptor, batch: int, dist: RoutingDistribution) -> tuple[float, float]:
    """Expected distinct routed experts per MoE layer, and the expected
    parameters a step of ``batch`` independent tokens reads.

    By linearity each routed expert adds its size times the probability that
    the batch hits it. With equal sizes that sum is the size times the
    expected distinct count, the expression used for them.
    """
    # looked up on ``trace`` at call time: routing loads on first use, and a
    # wrapper set on the module (the benchmark's spans) sees the call
    distinct = trace.expected_distinct_experts(desc.n_expert, desc.top_k, batch, dist).value
    sizes = desc.routed_expert_sizes
    if desc.heterogeneous_experts:
        hit = trace._batch_hit_probs(desc.n_expert, desc.top_k, batch, dist).tolist()
        routed = sum(size * h for size, h in zip(sizes, hit))
    else:
        routed = distinct * sizes[0]
    return distinct, _params_read(desc, routed)


# --------------------------------------------------------------------------
# Feasibility
# --------------------------------------------------------------------------

@record
class DeviceVerdict:
    name: str
    device_class: str
    tdp_watts: float
    price_usd: float
    bandwidth_gbps: float
    bandwidth_ok: bool
    ops_ok: bool | None
    satisfied: bool
    used_offload: bool


def feasibility(
    requirement: DeploymentRequirement,
    catalog: Sequence[HardwareSpec],
    use_offload: bool = False,
    margin: float = 0.0,
) -> list[DeviceVerdict]:
    """Per-device verdicts against a requirement, sorted by TDP then price.

    ``margin`` relaxes the requirement by the given fraction (a device
    passes when its bandwidth >= requirement * (1 - margin)); the default 0
    demands the requirement outright. With ``use_offload`` the device's
    offload bandwidth is used where present. A requirement with an OPS
    figure also needs the device's :data:`OPS_PRECISION` peak to meet it; a
    device with no such peak fails.
    """
    if not catalog:
        raise ValidationError("catalog is empty", field="catalog")
    if not 0 <= margin < 1:
        raise ValidationError("margin must be in [0, 1)", field="margin")
    need_bw = requirement.practical_bandwidth_gbps * (1.0 - margin)
    verdicts = []
    for spec in catalog:
        used_offload = use_offload and spec.offload_bandwidth_gbps is not None
        bw = spec.offload_bandwidth_gbps if used_offload else spec.peak_bandwidth_gbps
        bw_ok = bw >= need_bw
        ops_ok: bool | None = None
        if requirement.practical_ops is not None:
            peak = spec.peak_flops_by_precision.get(OPS_PRECISION)
            ops_ok = peak is not None and peak >= requirement.practical_ops * (1.0 - margin)
        verdicts.append(
            DeviceVerdict(
                name=spec.name,
                device_class=spec.device_class,
                tdp_watts=spec.tdp_watts,
                price_usd=spec.price_usd,
                bandwidth_gbps=bw,
                bandwidth_ok=bw_ok,
                ops_ok=ops_ok,
                satisfied=bw_ok and (ops_ok is not False),
                used_offload=used_offload,
            )
        )
    verdicts.sort(key=lambda v: (v.tdp_watts, v.price_usd))
    return verdicts


# --------------------------------------------------------------------------
# Batch sweeps
# --------------------------------------------------------------------------

@record
class SweepPoint:
    batch: int
    expected_distinct_per_layer: float
    expected_activated_fraction: float
    theoretical_bandwidth_gbps: float
    practical_bandwidth_gbps: float
    feasible_devices: tuple[str, ...]


def batch_sweep(
    desc: ModelDescriptor,
    dist: RoutingDistribution,
    batches: Sequence[int],
    slo: SloSpec,
    prec: Precision,
    catalog: Sequence[HardwareSpec] | None = None,
    use_offload: bool = False,
    margin: float = 0.0,
    **plan,
) -> list[SweepPoint]:
    """Expected-activation requirement and feasibility per batch size.

    Each point is the ``expected`` mode :func:`plan_requirement` at its
    batch under ``plan`` (efficiency, KV bytes, OPS settings), its distinct
    count and activated fraction included, and its devices are those
    :func:`feasibility` satisfies. The bandwidth column is
    non-decreasing in batch and bounded by the full-activation requirement
    under the same settings; with equal expert sizes it is also bounded
    below by the batch-1 analytic one.
    """
    if list(batches) != sorted(batches):
        raise ValidationError("batches must be sorted ascending", field="batches")
    total = total_params(desc)
    points = []
    for batch in batches:
        req = plan_requirement(desc, prec, slo, "expected", batch=batch, dist=dist, **plan)
        feas: tuple[str, ...] = ()
        if catalog:
            feas = tuple(v.name for v in feasibility(req, catalog, use_offload, margin) if v.satisfied)
        points.append(
            SweepPoint(
                batch=batch,
                expected_distinct_per_layer=req.expected_distinct_per_layer,
                expected_activated_fraction=req.activated_params / total,
                theoretical_bandwidth_gbps=req.theoretical_bandwidth_gbps,
                practical_bandwidth_gbps=req.practical_bandwidth_gbps,
                feasible_devices=feas,
            )
        )
    return points


def sweep_to_csv(points: Sequence[SweepPoint], header_comment: str | None = None) -> str:
    """Flat CSV: one row per sweep point; feasible devices joined by '|'."""
    columns = ("batch", "expected_distinct_per_layer", "expected_activated_fraction", "theoretical_gbps",
               "practical_gbps", "feasible_devices")
    rows = (
        (p.batch, p.expected_distinct_per_layer, p.expected_activated_fraction, p.theoretical_bandwidth_gbps,
         p.practical_bandwidth_gbps, "|".join(p.feasible_devices))
        for p in points
    )
    return csv_text(columns, rows, header_comment)


# --------------------------------------------------------------------------
# Bandwidth-vs-power map (plot data)
# --------------------------------------------------------------------------

# The modes whose requirements are the map's horizontal lines.
FIG2_MODES = ("batch1_analytic", "full_activation")


def bandwidth_power_map(
    lines: Sequence[DeploymentRequirement],
    catalog: Sequence[HardwareSpec],
    include_embed: bool = True,
) -> dict:
    """Plot data for the bandwidth-vs-power map: one point per device (TDP,
    peak and offload bandwidth) and one horizontal line per requirement in
    ``lines``, those a plan built for :data:`FIG2_MODES`. The lines must
    share one model, precision, TPOT target and efficiency, which the map's
    assumptions state, with whether the plan counted the embedding."""
    settings = {(req.model_name, req.bytes_per_param, req.tpot_s, req.efficiency_mbu) for req in lines}
    if len(settings) != 1:
        raise ValidationError(
            "requirement lines must share one model, precision, target and efficiency",
            field="requirement_lines",
        )
    ((model, bytes_per_param, tpot_s, efficiency_mbu),) = settings
    devices = [
        {
            "name": s.name,
            "device_class": s.device_class,
            "tdp_watts": s.tdp_watts,
            "peak_bandwidth_gbps": s.peak_bandwidth_gbps,
            "offload_bandwidth_gbps": s.offload_bandwidth_gbps,
            "aggregate": s.aggregate,
        }
        for s in catalog
    ]
    return {
        "model": model,
        "assumptions": {
            "bytes_per_param": bytes_per_param,
            "tpot_slo_s": tpot_s,
            "efficiency_mbu": efficiency_mbu,
            "include_embed": bool(include_embed),
        },
        "requirement_lines": [
            {
                "activation_mode": req.activation_mode,
                "theoretical_bandwidth_gbps": req.theoretical_bandwidth_gbps,
                "practical_bandwidth_gbps": req.practical_bandwidth_gbps,
            }
            for req in lines
        ],
        "devices": devices,
    }


def requirement_to_dict(req: DeploymentRequirement) -> dict:
    doc = asdict(req)
    del doc["expected_distinct_per_layer"], doc["activated_params"]
    return doc


def verdicts_to_dicts(verdicts: Sequence[DeviceVerdict]) -> list[dict]:
    return [asdict(v) for v in verdicts]
