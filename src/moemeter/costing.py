"""Heterogeneous-hardware cost model: purchase, energy, and per-token cost.

Purchase cost sums the purchasable line items, :data:`PURCHASED_ITEMS`
(GPU, CPU, motherboard, DRAM, SSD). The communication and HBM terms,
:data:`INFORMATIONAL_ITEMS`, are annotations that must stay consistent with
their enclosing purchasable items (HBM/NVLink/chip-to-memory fold into
GPU+CPU, PCIe into the motherboard).

Unit discipline: runtime is stored in hours everywhere. Energy math wants
hours (kWh), token math wants seconds; the conversion happens in exactly
one place (:func:`cost_report`, which derives the energy dollars, the token
count and the per-token cost once; :func:`cost_per_token` is a view over
it) so changing the stored unit cannot silently skew results.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from pathlib import Path

from .errors import ValidationError, fields, load_json, record, record_from_json

SECONDS_PER_HOUR = 3600.0

# BillOfMaterials line items, each its field name without ``_usd``.
PURCHASED_ITEMS = ("gpu", "cpu", "motherboard", "dram", "ssd")
INFORMATIONAL_ITEMS = ("hbm", "nvlink", "chip_to_memory", "pcie")


def _check_components(rec) -> None:
    """Every field of ``rec`` is finite and >= 0, checked in declared order."""
    for f in fields(rec):
        if not 0 <= getattr(rec, f.name) < math.inf:
            raise ValidationError(f"{f.name} must be finite and >= 0", field=f.name)


def _total(values):
    """``a + b + ...`` left to right from the first value: unlike ``sum``,
    it keeps an all -0.0 total at -0.0 and never compensates rounding."""
    return reduce(operator.add, values)


@record
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
        _check_components(self)
        if self.hbm_usd + self.nvlink_usd + self.chip_to_memory_usd > self.gpu_usd + self.cpu_usd:
            raise ValidationError(
                "informational HBM+NVLink+chip-to-memory cost exceeds the GPU+CPU line items",
                field="hbm_usd",
            )
        if self.pcie_usd > self.motherboard_usd:
            raise ValidationError(
                "informational PCIe cost exceeds the motherboard line item", field="pcie_usd"
            )


@record
class PowerProfile:
    """Average power draw (watts) over the deployment runtime, per component."""

    gpu_watts: float
    cpu_watts: float
    chip_to_memory_watts: float = 0.0
    pcie_watts: float = 0.0
    nvlink_watts: float = 0.0

    def __post_init__(self):
        _check_components(self)

    @property
    def total_watts(self) -> float:
        return _total(getattr(self, f.name) for f in fields(self))


@record
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


def _items_usd(bom: BillOfMaterials, items: tuple[str, ...]) -> dict[str, float]:
    return {item: getattr(bom, f"{item}_usd") for item in items}


def purchase_cost(bom: BillOfMaterials) -> float:
    """Total purchase cost: the purchasable line items."""
    return _total(_items_usd(bom, PURCHASED_ITEMS).values())


def cost_per_token(
    bom: BillOfMaterials, power: PowerProfile, econ: DeploymentEconomics
) -> float:
    """Dollars per generated token: (hardware + energy dollars) amortized
    over every token produced during the deployment runtime; the
    ``cost_per_token_usd`` of :func:`cost_report`."""
    return cost_report(bom, power, econ)["cost_per_token_usd"]


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
    kwh = power.total_watts / 1000.0 * econ.runtime_hours
    energy_usd = kwh * econ.energy_price_usd_per_kwh
    tokens = econ.token_throughput_tps * econ.runtime_hours * SECONDS_PER_HOUR
    return {
        "purchase_usd": purchase_usd,
        "purchase_breakdown_usd": _items_usd(bom, PURCHASED_ITEMS),
        "purchase_informational_usd": _items_usd(bom, INFORMATIONAL_ITEMS),
        "total_power_watts": power.total_watts,
        "power_breakdown_watts": {f.name.removesuffix("_watts"): getattr(power, f.name) for f in fields(power)},
        "energy_kwh": kwh,
        "energy_usd": energy_usd,
        "runtime_hours": econ.runtime_hours,
        "energy_price_usd_per_kwh": econ.energy_price_usd_per_kwh,
        "token_throughput_tps": econ.token_throughput_tps,
        "tokens_total": tokens,
        "cost_per_token_usd": (purchase_usd + energy_usd) / tokens,
    }
