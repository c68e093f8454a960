"""moemeter: analytical cost / accuracy / performance toolkit for MoE serving.

Computes sparsity-aware bandwidth and FLOPS utilization from model
descriptors and expert-activation traces, models heterogeneous-hardware
cost of ownership, plans deployments against latency targets and a device
catalog, and builds radar / trade-off reports across serving systems.

The names below resolve on first use (PEP 562), so importing the package or
one submodule does not load the others: ``from moemeter import load_catalog``
imports only ``moemeter.catalog`` and what it needs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining submodule.
_EXPORTS = {
    "cap": (
        "CapRecord",
        "DecisionRule",
        "RadarDataset",
        "RecommendResult",
        "classify_tradeoff",
        "load_cap_records",
        "load_decision_rules",
        "normalize_radar",
        "recommend",
    ),
    "catalog": ("HardwareSpec", "get_device", "load_catalog"),
    "costing": (
        "BillOfMaterials",
        "DeploymentEconomics",
        "PowerProfile",
        "cost_per_token",
        "load_cost_inputs",
        "purchase_cost",
    ),
    "errors": ("ValidationError",),
    "metrics": (
        "ActivatedFractionReport",
        "MetricReport",
        "PassMetrics",
        "activated_fraction",
        "compute_metric_report",
        "overestimation",
        "s_mbu_aggregate",
        "s_mbu_per_pass",
        "s_mfu",
        "vanilla_mbu",
        "vanilla_mfu",
    ),
    "models": (
        "ModelDescriptor",
        "Precision",
        "active_param_bytes_analytic",
        "dense_flops_per_token",
        "kv_cache_bytes",
        "load_model_descriptor",
        "sparse_flops_per_token",
        "total_param_bytes",
        "total_params",
        "without_embedding",
    ),
    "planner": (
        "DeploymentRequirement",
        "DeviceVerdict",
        "SloSpec",
        "SweepPoint",
        "bandwidth_power_map",
        "batch_sweep",
        "feasibility",
        "plan_requirement",
        "theoretical_bandwidth_gbps",
    ),
    "routing": (
        "ExpectedDistinct",
        "RoutingDistribution",
        "expected_distinct_experts",
        "simulate_routing",
    ),
    "trace": (
        "ActivationSheet",
        "ForwardPassRecord",
        "load_activation_sheet",
        "parse_activation_sheet",
        "serialize_activation_sheet",
        "validate_sheet",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:  # ``moemeter.trace`` without importing it first
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
