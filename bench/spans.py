"""In-memory spans around moemeter's layer functions, for the traced run.

The benchmark, not moemeter, records the spans: ``Tracer.install`` swaps
each public layer function for a timing wrapper at every place the package
binds it (the defining module and each ``from .x import f`` site), and
``Tracer.uninstall`` puts the originals back. A span is
``(name, start, end, parent, command)``; a layer's self time is its span's
duration minus the time its child spans cover, so per command the self
times of all spans add up to the ``cli.main`` span by construction.

Counts are worked out from a call's arguments and result right after its
span closes, inside a ``bench.count`` span of their own. That span belongs
to no layer, so counting time is left out of every layer's self time; it
shows as ``tracing.count_s`` and in the tracing overhead. Nothing returned
by a layer is kept past that point.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "models", "catalog", "trace", "metrics", "planner")

# Public functions wrapped, named <defining module>.<function>. Helpers not
# listed here count toward the self time of the wrapped function calling them.
LAYER_FUNCTIONS = (
    "models.load_model_descriptor",
    "models.activated_params_from_sets",
    "models.sparse_flops_per_token",
    "catalog.load_catalog",
    "trace.load_activation_sheet",
    "trace.parse_activation_sheet",
    "trace.validate_sheet",
    "trace.simulate_routing",
    "trace.serialize_activation_sheet",
    "trace.expected_distinct_experts",
    "metrics.compute_metric_report",
    "metrics.report_to_dict",
    "metrics.report_to_csv",
    "planner.plan_requirement",
    "planner.theoretical_bandwidth_gbps",
    "planner.feasibility",
    "planner.batch_sweep",
    "planner.bandwidth_power_map",
    "planner.requirement_to_dict",
    "planner.verdicts_to_dicts",
)
ROOT = "cli.main"
COUNT = "bench.count"

# Functions whose arguments or result feed a count.
_COUNTED = {
    "trace.simulate_routing",
    "trace.serialize_activation_sheet",
    "trace.parse_activation_sheet",
    "trace.expected_distinct_experts",
    "models.sparse_flops_per_token",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self._stack: list[int] = []
        self._command: int | None = None
        self._counts: Counter = Counter()
        self._expected_keys: set = set()
        self._flops_args: set = set()
        self._saved: list[tuple] = []
        self._signatures: dict[str, inspect.Signature] = {}
        self.modules = {m: importlib.import_module(f"moemeter.{m}") for m in MODULES}

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None, self._command])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        counted = name in _COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counted:
                idx = tracer.open(COUNT)
                try:
                    tracer._count(name, args, kwargs, result)
                finally:
                    tracer.close(idx)
            return result

        return wrapper

    def install(self) -> None:
        for qual in LAYER_FUNCTIONS:
            home, attr = qual.split(".")
            original = getattr(self.modules[home], attr)
            self._signatures[qual] = inspect.signature(original)
            wrapper = self._wrap(qual, original)
            for module in self.modules.values():
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- per command --------------------------------------------------------

    def run_command(self, command_id: int, main, argv: list[str]) -> tuple[int, float]:
        """Runs ``main(argv)`` under a root span; returns (exit code, wall s)."""
        self._command = command_id
        self._counts = Counter()
        self._expected_keys.clear()
        self._flops_args.clear()
        t0 = perf_counter()
        root = self.open(ROOT)
        try:
            code = main(argv)
        finally:
            self.close(root)
        wall = perf_counter() - t0
        self._command = None
        return code, wall

    def command_summary(self, command_id: int) -> dict:
        """Self time and calls per span name, and the counts, of one command."""
        mine = [i for i, s in enumerate(self.spans) if s[4] == command_id]
        covered = defaultdict(float)
        for i in mine:
            name, start, end, parent, _ = self.spans[i]
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        root_wall = 0.0
        for i in mine:
            name, start, end, _, _ = self.spans[i]
            self_s[name] += (end - start) - covered[i]
            calls[name] += 1
            if name == ROOT:
                root_wall += end - start
        counts = Counter(self._counts)
        counts["models.sparse_flops_per_token.distinct_args"] = len(self._flops_args)
        return {"self_s": dict(self_s), "calls": dict(calls), "root_wall_s": root_wall, "counts": counts}

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        counts = self._counts
        if name == "trace.simulate_routing":
            desc = a["desc"]
            tokens = result.passes[0].tokens_processed
            counts["trace.gumbel_keys"] += a["n_passes"] * tokens * len(desc.moe_layers) * desc.n_expert
            counts["trace.passes_simulated"] += a["n_passes"]
        elif name == "trace.serialize_activation_sheet":
            counts["trace.serialized_bytes"] += len(result.encode("utf-8"))
        elif name == "trace.parse_activation_sheet":
            counts["trace.passes_parsed"] += len(result.passes)
            for rec in result.passes:
                counts["trace.bitmaps_parsed"] += len(rec.activated)
                counts["trace.experts_activated"] += sum(len(s) for s in rec.activated.values())
        elif name == "trace.expected_distinct_experts":
            counts[f"trace.expected_distinct_experts.calls.{result.method}"] += 1
            key = (a["n_expert"], a["top_k"], a["batch"], a["dist"])
            if key in self._expected_keys:
                counts["trace.expected_distinct_experts.repeats"] += 1
            self._expected_keys.add(key)
            if result.method == "monte_carlo":
                counts["trace.mc_draws"] += a["n_mc_passes"] * a["batch"] * a["n_expert"]
        elif name == "models.sparse_flops_per_token":
            self._flops_args.add((a["desc"], a["seq_len"]))
