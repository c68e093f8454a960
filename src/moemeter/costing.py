"""Heterogeneous-hardware cost model: purchase, energy, and per-token cost.

Purchase cost sums the five purchasable line items (GPU, CPU, motherboard,
DRAM, SSD); the communication and HBM terms are carried as informational
annotations that must stay consistent with their enclosing purchasable
items (HBM/NVLink/chip-to-memory fold into GPU+CPU, PCIe into the
motherboard).

Unit discipline: runtime is stored in hours everywhere. Energy math wants
hours (kWh), token math wants seconds; the conversion happens in exactly
one place (:func:`cost_report`, which derives the energy dollars, the token
count and the per-token cost once; :func:`cost_per_token` is a view over
it) so changing the stored unit cannot silently skew results.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ValidationError, load_json, record, record_from_json

SECONDS_PER_HOUR = 3600.0

# Fraction of TDP drawn on average when only a TDP figure is available.
DEFAULT_TDP_UTILIZATION = 0.6


@record(frozen=True)
class BillOfMaterials:
    """Dollar cost of one server, split into purchasable line items plus an
    informational decomposition of where the money goes."""

    gpu_usd: float
    cpu_usd: float
    motherboard_usd: float
    dram_usd: float
    ssd_usd: float
    # Informational view; folded into the purchasable items above.
    hbm_usd: float = 0.0
    nvlink_usd: float = 0.0
    chip_to_memory_usd: float = 0.0
    pcie_usd: float = 0.0

    def __post_init__(self):
        for fname in (
            "gpu_usd",
            "cpu_usd",
            "motherboard_usd",
            "dram_usd",
            "ssd_usd",
            "hbm_usd",
            "nvlink_usd",
            "chip_to_memory_usd",
            "pcie_usd",
        ):
            if not 0 <= getattr(self, fname) < math.inf:
                raise ValidationError(f"{fname} must be finite and >= 0", field=fname)
        if self.hbm_usd + self.nvlink_usd + self.chip_to_memory_usd > self.gpu_usd + self.cpu_usd:
            raise ValidationError(
                "informational HBM+NVLink+chip-to-memory cost exceeds the GPU+CPU line items",
                field="hbm_usd",
            )
        if self.pcie_usd > self.motherboard_usd:
            raise ValidationError(
                "informational PCIe cost exceeds the motherboard line item", field="pcie_usd"
            )


@record(frozen=True)
class PowerProfile:
    """Average power draw (watts) over the deployment runtime, per component."""

    gpu_watts: float
    cpu_watts: float
    chip_to_memory_watts: float = 0.0
    pcie_watts: float = 0.0
    nvlink_watts: float = 0.0

    def __post_init__(self):
        for fname in ("gpu_watts", "cpu_watts", "chip_to_memory_watts", "pcie_watts", "nvlink_watts"):
            if not 0 <= getattr(self, fname) < math.inf:
                raise ValidationError(f"{fname} must be finite and >= 0", field=fname)

    @property
    def total_watts(self) -> float:
        return (
            self.gpu_watts
            + self.cpu_watts
            + self.chip_to_memory_watts
            + self.pcie_watts
            + self.nvlink_watts
        )


@record(frozen=True)
class DeploymentEconomics:
    runtime_hours: float
    energy_price_usd_per_kwh: float
    token_throughput_tps: float

    def __post_init__(self):
        if not 0 < self.runtime_hours < math.inf:
            raise ValidationError("runtime_hours must be finite and > 0", field="runtime_hours")
        if not 0 <= self.energy_price_usd_per_kwh < math.inf:
            raise ValidationError("energy price must be finite and >= 0", field="energy_price_usd_per_kwh")
        if not 0 < self.token_throughput_tps < math.inf:
            raise ValidationError("token throughput must be finite and > 0", field="token_throughput_tps")


def purchase_cost(bom: BillOfMaterials) -> float:
    """Total purchase cost: the five purchasable line items."""
    return bom.gpu_usd + bom.cpu_usd + bom.motherboard_usd + bom.dram_usd + bom.ssd_usd


def energy_cost_kwh(power: PowerProfile, runtime_hours: float) -> float:
    """Energy consumed over the runtime, in kWh."""
    if not 0 < runtime_hours < math.inf:
        raise ValidationError("runtime_hours must be finite and > 0", field="runtime_hours")
    return power.total_watts / 1000.0 * runtime_hours


def cost_per_token(
    bom: BillOfMaterials, power: PowerProfile, econ: DeploymentEconomics
) -> float:
    """Dollars per generated token: (hardware + energy dollars) amortized
    over every token produced during the deployment runtime; the
    ``cost_per_token_usd`` of :func:`cost_report`."""
    return cost_report(bom, power, econ)["cost_per_token_usd"]


def power_profile_from_tdp(
    gpu_tdp_watts: float,
    utilization: float = DEFAULT_TDP_UTILIZATION,
    cpu_watts: float = 0.0,
    chip_to_memory_watts: float = 0.0,
    pcie_watts: float = 0.0,
    nvlink_watts: float = 0.0,
) -> PowerProfile:
    """Seed an average power profile from a device TDP figure, scaled by a
    documented utilization factor (overridable per run)."""
    if not 0 < utilization <= 1:
        raise ValidationError("utilization must be in (0, 1]", field="utilization")
    return PowerProfile(
        gpu_watts=gpu_tdp_watts * utilization,
        cpu_watts=cpu_watts,
        chip_to_memory_watts=chip_to_memory_watts,
        pcie_watts=pcie_watts,
        nvlink_watts=nvlink_watts,
    )


# --------------------------------------------------------------------------
# Cost inputs file + report
# --------------------------------------------------------------------------

def load_cost_inputs(path: str | Path) -> tuple[BillOfMaterials, PowerProfile, DeploymentEconomics]:
    """Read a cost inputs JSON document: an object whose keys are exactly the
    sections bill_of_materials, power_profile and economics."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"cost inputs {path}: expected a JSON object", field="document")
    sections = {"bill_of_materials": BillOfMaterials, "power_profile": PowerProfile, "economics": DeploymentEconomics}
    for key in doc:
        if key not in sections:
            raise ValidationError(f"cost inputs: unknown section {key!r}", field=key)
    for section in sections:
        if section not in doc:
            raise ValidationError(f"cost inputs: missing section {section!r}", field=section)
    return tuple(record_from_json(cls, doc[section], section) for section, cls in sections.items())


def cost_report(bom: BillOfMaterials, power: PowerProfile, econ: DeploymentEconomics) -> dict:
    """Totals plus per-term breakdown for all three cost quantities."""
    purchase_usd = purchase_cost(bom)
    kwh = energy_cost_kwh(power, econ.runtime_hours)
    energy_usd = kwh * econ.energy_price_usd_per_kwh
    tokens = econ.token_throughput_tps * econ.runtime_hours * SECONDS_PER_HOUR
    return {
        "purchase_usd": purchase_usd,
        "purchase_breakdown_usd": {
            "gpu": bom.gpu_usd,
            "cpu": bom.cpu_usd,
            "motherboard": bom.motherboard_usd,
            "dram": bom.dram_usd,
            "ssd": bom.ssd_usd,
        },
        "purchase_informational_usd": {
            "hbm": bom.hbm_usd,
            "nvlink": bom.nvlink_usd,
            "chip_to_memory": bom.chip_to_memory_usd,
            "pcie": bom.pcie_usd,
        },
        "total_power_watts": power.total_watts,
        "power_breakdown_watts": {
            "gpu": power.gpu_watts,
            "cpu": power.cpu_watts,
            "chip_to_memory": power.chip_to_memory_watts,
            "pcie": power.pcie_watts,
            "nvlink": power.nvlink_watts,
        },
        "energy_kwh": kwh,
        "energy_usd": energy_usd,
        "runtime_hours": econ.runtime_hours,
        "energy_price_usd_per_kwh": econ.energy_price_usd_per_kwh,
        "token_throughput_tps": econ.token_throughput_tps,
        "tokens_total": tokens,
        "cost_per_token_usd": (purchase_usd + energy_usd) / tokens,
    }
