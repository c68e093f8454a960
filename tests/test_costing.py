from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from moemeter.costing import (
    INFORMATIONAL_ITEMS,
    PURCHASED_ITEMS,
    BillOfMaterials,
    DeploymentEconomics,
    PowerProfile,
    cost_per_token,
    cost_report,
    load_cost_inputs,
    purchase_cost,
)
from moemeter.errors import ValidationError, fields

HOURS_PER_YEAR = 8760.0


def _energy_kwh(power: PowerProfile, runtime_hours: float) -> float:
    """The energy a cost report charges for ``power`` over ``runtime_hours``."""
    econ = DeploymentEconomics(runtime_hours, 0.1, 1.0)
    return cost_report(BillOfMaterials(0, 0, 0, 0, 0), power, econ)["energy_kwh"]


def test_purchase_all_zero():
    assert purchase_cost(BillOfMaterials(0, 0, 0, 0, 0)) == 0.0


def test_purchase_176k_server():
    # 8-GPU training-style server shape: GPU-heavy with CPU/DRAM headroom
    bom = BillOfMaterials(
        gpu_usd=120_000, cpu_usd=10_000, motherboard_usd=6_000, dram_usd=30_000, ssd_usd=10_000
    )
    assert purchase_cost(bom) == 176_000.0


def test_purchase_20k_downgrade_delta():
    full = BillOfMaterials(120_000, 10_000, 6_000, 30_000, 10_000)
    lean = BillOfMaterials(120_000, 5_000, 6_000, 15_000, 10_000)
    assert purchase_cost(full) - purchase_cost(lean) == 20_000.0
    assert purchase_cost(lean) == 156_000.0


def test_negative_bom_entry_rejected():
    with pytest.raises(ValidationError, match="dram_usd"):
        BillOfMaterials(1, 1, 1, -1, 1)


def test_informational_decomposition_must_fit_line_items():
    with pytest.raises(ValidationError):
        BillOfMaterials(
            gpu_usd=100, cpu_usd=0, motherboard_usd=10, dram_usd=0, ssd_usd=0, hbm_usd=150
        )
    with pytest.raises(ValidationError, match="PCIe"):
        BillOfMaterials(
            gpu_usd=100, cpu_usd=0, motherboard_usd=10, dram_usd=0, ssd_usd=0, pcie_usd=20
        )
    # consistent decomposition is fine
    BillOfMaterials(
        gpu_usd=100, cpu_usd=20, motherboard_usd=10, dram_usd=5, ssd_usd=5,
        hbm_usd=60, nvlink_usd=20, chip_to_memory_usd=10, pcie_usd=10,
    )


def test_energy_hand_arithmetic():
    power = PowerProfile(gpu_watts=400, cpu_watts=100)
    assert _energy_kwh(power, HOURS_PER_YEAR) == pytest.approx(4380.0)


def test_energy_zero_power():
    assert _energy_kwh(PowerProfile(0, 0), 100.0) == 0.0


def test_cpu_share_of_draw_can_rival_gpu():
    # CPU-assist deployments: a 280 W CPU next to a 300 W GPU is ~48% of draw
    power = PowerProfile(gpu_watts=300, cpu_watts=280)
    assert power.cpu_watts / power.total_watts == pytest.approx(0.483, abs=0.001)


def test_cost_per_token_worked_example():
    # $10,000 hardware, 500 W for a year at $0.1/kWh, 1000 tok/s
    bom = BillOfMaterials(8_000, 1_000, 500, 300, 200)
    assert purchase_cost(bom) == 10_000.0
    power = PowerProfile(gpu_watts=400, cpu_watts=100)
    econ = DeploymentEconomics(
        runtime_hours=HOURS_PER_YEAR, energy_price_usd_per_kwh=0.1, token_throughput_tps=1000.0
    )
    tokens = 1000.0 * HOURS_PER_YEAR * 3600.0
    assert tokens == pytest.approx(3.1536e10)
    value = cost_per_token(bom, power, econ)
    assert value == pytest.approx((10_000 + 438.0) / 3.1536e10, rel=1e-12)
    assert value == pytest.approx(3.31e-7, rel=5e-3)


def test_zero_energy_price_reduces_to_hardware_term():
    bom = BillOfMaterials(10_000, 0, 0, 0, 0)
    power = PowerProfile(500, 0)
    econ = DeploymentEconomics(1000.0, 0.0, 100.0)
    assert cost_per_token(bom, power, econ) == pytest.approx(
        10_000 / (100.0 * 1000.0 * 3600.0), rel=1e-12
    )


def test_longer_runtime_decreases_cost_when_hardware_dominates():
    bom = BillOfMaterials(10_000, 0, 0, 0, 0)
    power = PowerProfile(100, 0)
    price = 0.1
    # energy cost per hour (0.01 $/h) far below amortized hardware per hour
    c1 = cost_per_token(bom, power, DeploymentEconomics(1000.0, price, 100.0))
    c2 = cost_per_token(bom, power, DeploymentEconomics(2000.0, price, 100.0))
    assert c2 < c1


def test_amortization_limit_is_energy_floor():
    bom = BillOfMaterials(10_000, 0, 0, 0, 0)
    power = PowerProfile(500, 0)
    price = 0.12
    tps = 250.0
    econ = DeploymentEconomics(1e10, price, tps)
    floor = (power.total_watts / 1000.0 * price) / (tps * 3600.0)
    assert cost_per_token(bom, power, econ) == pytest.approx(floor, rel=1e-4)


@given(st.floats(0, 1e6), st.floats(0, 1e6), st.floats(1e-3, 1e6))
@settings(max_examples=60, deadline=None)
def test_linearity(gpu, cpu, runtime):
    bom = BillOfMaterials(gpu, cpu, 0, 0, 0)
    double = BillOfMaterials(2 * gpu, 2 * cpu, 0, 0, 0)
    assert purchase_cost(double) == pytest.approx(2 * purchase_cost(bom), rel=1e-12, abs=1e-9)
    p = PowerProfile(gpu_watts=gpu, cpu_watts=cpu)
    assert _energy_kwh(p, 2 * runtime) == pytest.approx(
        2 * _energy_kwh(p, runtime), rel=1e-12, abs=1e-9
    )


def test_cost_identity_totals():
    # C_token * tokens == purchase + energy dollars, exactly
    bom = BillOfMaterials(5_000, 1_000, 400, 200, 100)
    power = PowerProfile(350, 120, 15, 10, 5)
    econ = DeploymentEconomics(5_000.0, 0.15, 800.0)
    tokens = econ.token_throughput_tps * econ.runtime_hours * 3600.0
    lhs = cost_per_token(bom, power, econ) * tokens
    rhs = purchase_cost(bom) + _energy_kwh(power, econ.runtime_hours) * 0.15
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_item_tables_cover_every_usd_field_once():
    usd_fields = [f.name for f in fields(BillOfMaterials) if f.name.endswith("_usd")]
    assert sorted(f"{item}_usd" for item in PURCHASED_ITEMS + INFORMATIONAL_ITEMS) == sorted(usd_fields)
    values = (100, 200, 300, 400, 500, 1, 2, 3, 4)
    report = cost_report(BillOfMaterials(*values), PowerProfile(1, 1), DeploymentEconomics(1.0, 0.1, 1.0))
    breakdown = {**report["purchase_breakdown_usd"], **report["purchase_informational_usd"]}
    assert breakdown == dict(zip(PURCHASED_ITEMS + INFORMATIONAL_ITEMS, values))


def test_power_breakdown_keys_are_the_power_fields():
    power = PowerProfile(gpu_watts=1, cpu_watts=2, chip_to_memory_watts=3, pcie_watts=4, nvlink_watts=5)
    report = cost_report(BillOfMaterials(0, 0, 0, 0, 0), power, DeploymentEconomics(1.0, 0.1, 1.0))
    assert report["power_breakdown_watts"] == {"gpu": 1, "cpu": 2, "chip_to_memory": 3, "pcie": 4, "nvlink": 5}
    assert [f"{key}_watts" for key in report["power_breakdown_watts"]] == [f.name for f in fields(PowerProfile)]


def test_totals_add_left_to_right_from_the_first_item():
    # sum() would start from int 0 and turn an all -0.0 total into 0.0
    assert math.copysign(1.0, purchase_cost(BillOfMaterials(*[-0.0] * 9))) == -1.0
    assert math.copysign(1.0, PowerProfile(*[-0.0] * 5).total_watts) == -1.0
    # 1e16 + 1 rounds back to 1e16 twice; an exact or compensated sum (the
    # sum() of Python 3.12 on) gives 1.0000000000000002e16
    assert purchase_cost(BillOfMaterials(1e16, 1, 1, 0, 0)) == 1e16


def test_economics_validation():
    with pytest.raises(ValidationError, match="runtime_hours"):
        DeploymentEconomics(0.0, 0.1, 100.0)
    with pytest.raises(ValidationError, match="token throughput"):
        DeploymentEconomics(10.0, 0.1, 0.0)


NAN, INF = float("nan"), float("inf")
_BOM = dict(gpu_usd=100.0, cpu_usd=20.0, motherboard_usd=10.0, dram_usd=5.0, ssd_usd=5.0)
_POWER = dict(gpu_watts=400.0, cpu_watts=100.0)
_ECON = dict(runtime_hours=10.0, energy_price_usd_per_kwh=0.1, token_throughput_tps=100.0)


@pytest.mark.parametrize(
    "cls, base, field, value",
    [
        (BillOfMaterials, _BOM, "gpu_usd", NAN),
        (BillOfMaterials, _BOM, "dram_usd", INF),
        (BillOfMaterials, _BOM, "hbm_usd", NAN),
        (PowerProfile, _POWER, "gpu_watts", NAN),
        (PowerProfile, _POWER, "cpu_watts", INF),
        (PowerProfile, _POWER, "nvlink_watts", NAN),
        (DeploymentEconomics, _ECON, "runtime_hours", INF),
        (DeploymentEconomics, _ECON, "runtime_hours", NAN),
        (DeploymentEconomics, _ECON, "energy_price_usd_per_kwh", NAN),
        (DeploymentEconomics, _ECON, "energy_price_usd_per_kwh", INF),
        (DeploymentEconomics, _ECON, "token_throughput_tps", NAN),
        (DeploymentEconomics, _ECON, "token_throughput_tps", INF),
    ],
)
def test_cost_inputs_reject_non_finite_fields(cls, base, field, value):
    cls(**base)  # the base values are accepted
    with pytest.raises(ValidationError, match="finite") as exc:
        cls(**{**base, field: value})
    assert exc.value.field == field


def test_cost_inputs_file_roundtrip(tmp_path):
    doc = {
        "bill_of_materials": {
            "gpu_usd": 8000,
            "cpu_usd": 1000,
            "motherboard_usd": 500,
            "dram_usd": 300,
            "ssd_usd": 200,
        },
        "power_profile": {"gpu_watts": 400, "cpu_watts": 100},
        "economics": {
            "runtime_hours": 8760,
            "energy_price_usd_per_kwh": 0.1,
            "token_throughput_tps": 1000,
        },
    }
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(doc))
    bom, power, econ = load_cost_inputs(path)
    report = cost_report(bom, power, econ)
    assert report["purchase_usd"] == 10_000
    assert report["energy_kwh"] == pytest.approx(4380.0)
    assert report["cost_per_token_usd"] == pytest.approx(3.31e-7, rel=5e-3)


def test_cost_inputs_missing_section(tmp_path):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"bill_of_materials": {}}))
    with pytest.raises(ValidationError, match="power_profile"):
        load_cost_inputs(path)
