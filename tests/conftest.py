from __future__ import annotations

from pathlib import Path

import pytest

from moemeter.errors import fields
from moemeter.models import ModelDescriptor, Precision, load_model_descriptor

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def models_dir(repo_root) -> Path:
    return repo_root / "models"


@pytest.fixture(scope="session")
def catalog_path(repo_root) -> Path:
    return repo_root / "catalog" / "default.json"


@pytest.fixture(scope="session")
def traces_dir(repo_root) -> Path:
    return repo_root / "traces"


@pytest.fixture(scope="session")
def rules_path(repo_root) -> Path:
    return repo_root / "rules" / "decision_matrix.json"


@pytest.fixture(scope="session")
def bundles_dir(repo_root) -> Path:
    return repo_root / "bundles"


@pytest.fixture(scope="session")
def r1_desc(models_dir) -> ModelDescriptor:
    return load_model_descriptor(models_dir / "deepseek-r1.json")


@pytest.fixture(scope="session")
def mixtral7b_desc(models_dir) -> ModelDescriptor:
    return load_model_descriptor(models_dir / "mixtral-8x7b.json")


@pytest.fixture(scope="session")
def toy_desc(models_dir) -> ModelDescriptor:
    return load_model_descriptor(models_dir / "toy-4x2.json")


@pytest.fixture(scope="session")
def int8() -> Precision:
    return Precision(1.0)


@pytest.fixture(scope="session")
def fp16() -> Precision:
    return Precision(2.0)


def rebuild(rec, **changes):
    """A new record of ``rec``'s class from its fields, with ``changes``
    applied; its ``__post_init__`` runs again."""
    return type(rec)(**{**{f.name: getattr(rec, f.name) for f in fields(rec)}, **changes})


def make_desc(**overrides) -> ModelDescriptor:
    """Small MoE descriptor with every field overridable."""
    base = dict(
        name="test-model",
        n_layer=2,
        moe_layer_mask=(True, True),
        d_model=64,
        n_heads=4,
        n_kv_heads=2,
        head_dim=16,
        n_expert=4,
        top_k=2,
        n_shared=0,
        params_expert=1_000_000,
        params_shared_expert=0,
        params_router=10_000,
        params_attn_layer=2_000_000,
        params_dense_ffn=0,
        params_embed=1_000_000,
    )
    base.update(overrides)
    return ModelDescriptor(**base)


@pytest.fixture(scope="session", params=["sample_decode", "r1"])
def view_case(request, models_dir, traces_dir):
    """(descriptor, sheet) pairs on which the metrics report, the aggregate
    and trace-mode planning must agree exactly with the standalone metrics:
    the shipped toy trace, and a small r1 sheet with unequal latencies, KV
    recorded on some passes and one prefill pass."""
    from moemeter.routing import RoutingDistribution, simulate_routing
    from moemeter.trace import ActivationSheet, ForwardPassRecord, load_activation_sheet

    if request.param == "sample_decode":
        desc = load_model_descriptor(models_dir / "toy-4x2.json")
        return desc, load_activation_sheet(traces_dir / "sample_decode.trace")
    desc = load_model_descriptor(models_dir / "deepseek-r1.json")
    drawn = simulate_routing(desc, 4, RoutingDistribution.zipf(1.1), 5, seed=11).passes
    passes = [
        ForwardPassRecord(i, "decode", 4, 4, 0.031 + 0.0173 * i, (i % 2) * 3_000_000 * (i + 1), rec.bitmaps)
        for i, rec in enumerate(drawn)
    ]
    passes.insert(2, ForwardPassRecord(5, "prefill", 4, 512, 0.29, 0, drawn[0].bitmaps))
    return desc, ActivationSheet(desc.name, passes)
