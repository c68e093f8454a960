"""moemeter benchmark: three CLI workloads, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload trace-analysis --seed 1 --seconds 30 --trace 0

``--trace 0`` drives ``python -m moemeter`` as one closed-loop client: one
child process at a time, each started after the previous one exits, on
one pinned CPU with BLAS/OpenMP threads set to 1. It reports the end-to-end
metrics, with times scaled to a reference CPU speed (see speed_probe).
``--trace 1`` runs the same cycle in-process through ``moemeter.cli.main``,
alternating cycles with spans recorded around each layer's public functions
(see spans.py) and cycles without, and reports the per-layer metrics.

Every command's output is checked by oracle.py, and a command repeated
with the same inputs must write the same bytes. The last line of standard
output is the result as one JSON object; the full record, with the
environment, goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, for this process and every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import COUNT, MODULES as PACKAGE_MODULES, Tracer  # noqa: E402
from workloads import BUILDERS, INPUT_FILES, Command  # noqa: E402

SETUP_SAMPLES = 8
SPEED_LOOPS = 50_000
SPEED_REPEATS = 3
# The speed-probe time that defines reference speed: about what the probe
# takes on an otherwise idle 2-core x86-64 host.
REF_PROBE_S = 0.004
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 60.0
OUT_DIR = ".bench_out"

# Per-layer self times reported as ``<function>.s``.
TIMED_FUNCTIONS = (
    "models.load_model_descriptor",
    "catalog.load_catalog",
    "trace.serialize_activation_sheet",
    "trace.parse_activation_sheet",
    "trace.validate_sheet",
    "trace.expected_distinct_experts",
    "models.activated_params_from_sets",
    "metrics.compute_metric_report",
    "metrics.report_to_dict",
    "metrics.report_to_csv",
    "planner.theoretical_bandwidth_gbps",
    "planner.batch_sweep",
    "planner.bandwidth_power_map",
)
CALLED_FUNCTIONS = (
    "models.activated_params_from_sets",
    "models.sparse_flops_per_token",
    "trace.validate_sheet",
    "planner.feasibility",
)
COUNTS = (
    "trace.gumbel_keys",
    "trace.serialized_bytes",
    "trace.passes_parsed",
    "trace.bitmaps_parsed",
    "trace.experts_activated",
    "trace.expected_distinct_experts.calls.monte_carlo",
    "trace.expected_distinct_experts.calls.enumeration",
    "trace.expected_distinct_experts.calls.closed_form",
    "trace.mc_draws",
)
MODULES = tuple(m for m in PACKAGE_MODULES if m != "cli")
# Every metric one traced cycle yields, with its unit.
LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.traced_wall_s": "s",
    "cli.output_bytes": "bytes",
    "tracing.count_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{f}.s": "s" for f in TIMED_FUNCTIONS},
    "trace.simulate_routing.s_per_pass": "s",
    **{f"{f}.calls": "count" for f in CALLED_FUNCTIONS},
    **{c: ("bytes" if c.endswith("bytes") else "count") for c in COUNTS},
    "models.sparse_flops_per_token.distinct_ratio": "ratio",
    "trace.expected_distinct_experts.repeat_ratio": "ratio",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def speed_probe() -> float:
    """Median time of a fixed pure-Python loop, on the CPU that also runs
    the commands.

    On a shared host the CPU's speed can drift by half or more over seconds
    to minutes, and differently on each CPU. The end-to-end times are
    therefore given at reference speed: each wall time is scaled by
    REF_PROBE_S over the mean of the probes taken just before and after it.
    A slower program moves them; a uniformly slower CPU does not."""
    times = []
    for _ in range(SPEED_REPEATS):
        t0 = perf_counter()
        acc = 0
        for i in range(SPEED_LOOPS):
            acc += i * i
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Run:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out = root / OUT_DIR
        self.work = self.out / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.records: list[dict] = []
        self.digests: dict[tuple, str] = {}
        self.problems: list[str] = []
        self.speed_s: list[float] = []  # every speed probe, in order

    # -- commands -------------------------------------------------------

    def _finish(self, cmd: Command, code: int, wall: float, rss_mb: float | None, stderr: str) -> dict:
        rec = {"kind": cmd.kind, "wall_s": wall, "rss_mb": rss_mb, "ok": code == 0, "items": 0, "error": None}
        if code != 0:
            rec["error"] = f"exit {code}: {stderr[-500:]}"
        else:
            try:
                rec["items"] = cmd.check()
                digest = sha256(b"".join(p.read_bytes() for p in cmd.outputs))
            except Exception as exc:  # any malformed output is a failed command
                rec.update(ok=False, error=f"check: {type(exc).__name__}: {exc}")
            else:
                first = self.digests.setdefault(tuple(cmd.argv), digest)
                if first != digest:
                    rec.update(ok=False, error="output bytes differ from an earlier run of the same command")
        self.records.append(rec)
        return rec

    def _clear(self, cmd: Command) -> None:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)

    def child(self, cmd: Command) -> dict:
        self._clear(cmd)
        err_path = self.work / "child.stderr"
        with open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "moemeter", *cmd.argv],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: end the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = self._finish(cmd, proc.returncode, wall, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace"))
        self.speed_s.append(speed_probe())
        rec["ref_s"] = self.at_reference_speed(wall, self.speed_s[-2:])
        return rec

    @staticmethod
    def at_reference_speed(wall: float, probes: list[float]) -> float:
        return wall * REF_PROBE_S / statistics.fmean(probes)

    def probe(self, code: str) -> float:
        """Median wall time of a bare ``python -c code`` child."""
        walls = []
        for _ in range(STARTUP_PROBES):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env, check=True)
            walls.append(perf_counter() - t0)
        return statistics.median(walls)

    def in_process(self, cmd: Command, main, tracer=None, command_id: int = 0) -> dict:
        self._clear(cmd)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                t0 = perf_counter()
                code = main(list(cmd.argv))
                wall = perf_counter() - t0
            else:
                code, wall = tracer.run_command(command_id, main, list(cmd.argv))
        return self._finish(cmd, code, wall, None, "")

    # -- end-to-end run -------------------------------------------------

    def set_up(self, setup_s: list[tuple[float, float]]):
        """Makes the inputs from the seed and runs the warm-up command;
        appends (wall time, time at reference speed)."""
        before = self.speed_s[-1]
        t0 = perf_counter()
        wl = BUILDERS[self.workload](self.seed, self.root, self.work)
        wall = perf_counter() - t0 + self.child(wl.warmup)["wall_s"]
        setup_s.append((wall, self.at_reference_speed(wall, [before, self.speed_s[-1]])))
        return wl

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Whole cycles fill ``seconds`` of cycle time. The set-ups are spread
        through the run, at even shares of that time, so that their median
        sees the same host states as the commands; their time is extra.
        Returns the metrics at reference speed and the same by wall clock."""
        self.speed_s.append(speed_probe())
        setup_s: list[tuple[float, float]] = []
        wl = self.set_up(setup_s)
        recs_timed, items = [], 0
        busy = last = 0.0
        while not recs_timed or busy + last <= seconds:
            while len(setup_s) < 1 + (SETUP_SAMPLES - 1) * busy / seconds:
                wl = self.set_up(setup_s)
            t0 = perf_counter()
            recs = [self.child(cmd) for cmd in wl.cycle]
            last = perf_counter() - t0
            busy += last
            recs_timed += recs
            items += sum(r["items"] for r in recs)
        while len(setup_s) < SETUP_SAMPLES:
            wl = self.set_up(setup_s)

        def timings(i: int, key: str) -> dict:
            times = [r[key] for r in recs_timed]
            return {
                "setup_s": (statistics.median(s[i] for s in setup_s), "s", len(setup_s)),
                "command_s.p50": (statistics.median(times), "s", len(times)),
                "items_per_s": (items / sum(times), "1/s", len(times)),
            }

        rss = {"peak_rss_mb": (max(r["rss_mb"] for r in self.records), "MB", len(self.records))}
        wall_clock = timings(0, "wall_s")
        wall_clock["speed_probe_s"] = (statistics.median(self.speed_s), "s", len(self.speed_s))
        return {**timings(1, "ref_s"), **rss}, wall_clock

    # -- traced run -----------------------------------------------------

    def per_layer(self, seconds: float) -> tuple[dict, list]:
        sys.path.insert(0, str(self.root / "src"))
        from moemeter.cli import main

        wl = BUILDERS[self.workload](self.seed, self.root, self.work)
        self.in_process(wl.warmup, main)
        python_s = self.probe("pass")
        import_s = self.probe("import moemeter.cli")

        tracer = Tracer()
        traced, untraced = [], []
        for pair in cycles_within(seconds, minimum=2):
            for with_spans in ((True, False) if pair % 2 == 0 else (False, True)):
                if with_spans:
                    traced.append(self._traced_cycle(tracer, wl.cycle, main))
                else:
                    untraced.append(sum(self.in_process(cmd, main)["wall_s"] for cmd in wl.cycle))

        first = traced[0]["counts"]
        if any(c["counts"] != first for c in traced[1:]):
            self.problems.append("deterministic counts differ between traced cycles of one seed")
        self._compare_saved_counts(first)

        # Times are medians over traced cycles; counts and ratios of counts
        # are equal in every cycle (checked above).
        metrics = {
            name: (statistics.median(c["metrics"][name] for c in traced) if unit == "s" else traced[0]["metrics"][name],
                   unit, len(traced))
            for name, unit in LAYER_UNITS.items()
        }
        metrics["startup.python_s"] = (python_s, "s", STARTUP_PROBES)
        metrics["startup.import_cli_s"] = (import_s, "s", STARTUP_PROBES)
        # Paired: each traced cycle against the untraced cycle next to it.
        metrics["tracing.overhead_s"] = (
            statistics.median(t["wall"] - u for t, u in zip(traced, untraced)), "s", len(untraced))
        return metrics, tracer.spans

    def _traced_cycle(self, tracer, cycle: list[Command], main) -> dict:
        self_s, calls, counts = Counter(), Counter(), Counter()
        wall = root_wall = 0.0
        output_bytes = 0
        tracer.install()
        try:
            for cmd in cycle:
                command_id = len(self.records)
                rec = self.in_process(cmd, main, tracer, command_id)
                summary = tracer.command_summary(command_id)
                self_s.update(summary["self_s"])
                calls.update(summary["calls"])
                counts.update(summary["counts"])
                wall += rec["wall_s"]
                root_wall += summary["root_wall_s"]
                output_bytes += sum(p.stat().st_size for p in cmd.outputs if p.exists())
        finally:
            tracer.uninstall()
        counts["cli.output_bytes"] = output_bytes
        for name in CALLED_FUNCTIONS:
            counts[f"{name}.calls"] = calls[name]
        return {"metrics": _layer_metrics(self_s, calls, counts, root_wall), "counts": dict(counts), "wall": wall}

    def _compare_saved_counts(self, counts: dict) -> None:
        """Counts of one seed must also repeat across benchmark runs of the
        same program."""
        path = self.out / "counts" / f"{self.workload}-seed{self.seed}.json"
        doc = {"sources": sources(self.root), "counts": counts}
        if path.exists():
            saved = json.loads(path.read_text(encoding="utf-8"))
            if saved["sources"] == doc["sources"] and saved["counts"] != counts:
                self.problems.append("deterministic counts differ from an earlier run of this seed")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def cycles_within(seconds: float, minimum: int = 1):
    """Yields cycle numbers while the next cycle, taking as long as the last
    one, is due to end within ``seconds``; always at least ``minimum``."""
    start = perf_counter()
    n = 0
    last = 0.0
    while n < minimum or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        yield n
        last = perf_counter() - t0
        n += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(self_s: Counter, calls: Counter, counts: Counter, root_wall: float) -> dict:
    m = {
        "cli.self_s": self_s["cli.main"],
        "cli.traced_wall_s": root_wall,
        "cli.output_bytes": counts["cli.output_bytes"],
        "tracing.count_s": self_s[COUNT],
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum((v for k, v in self_s.items() if k.startswith(module + ".")), 0.0)
    for name in TIMED_FUNCTIONS:
        m[f"{name}.s"] = float(self_s[name])
    m["trace.simulate_routing.s_per_pass"] = _ratio(self_s["trace.simulate_routing"], counts["trace.passes_simulated"])
    for name in CALLED_FUNCTIONS:
        m[f"{name}.calls"] = calls[name]
    for name in COUNTS:
        m[name] = counts[name]
    m["models.sparse_flops_per_token.distinct_ratio"] = _ratio(
        counts["models.sparse_flops_per_token.distinct_args"], calls["models.sparse_flops_per_token"])
    m["trace.expected_distinct_experts.repeat_ratio"] = _ratio(
        counts["trace.expected_distinct_experts.repeats"], calls["trace.expected_distinct_experts"])
    return m


# --------------------------------------------------------------------------
# Environment and output
# --------------------------------------------------------------------------

def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.suffix in (".py", ".json"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def sources(root: Path) -> dict:
    return {"src/moemeter": source_digest(root / "src" / "moemeter"), "bench": source_digest(Path(__file__).resolve().parent)}


def environment(root: Path) -> dict:
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "sha256": sources(root),
        "input_sha256": {f: sha256((root / f).read_bytes()) for f in INPUT_FILES},
        "child_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # SIGTERM unwinds like an interrupt, so a running child is ended too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    missing = [f for f in ("src/moemeter/cli.py", *INPUT_FILES) if not (root / f).is_file()]
    if missing:
        print(f"bench: run from a moemeter checkout; missing {missing}", file=sys.stderr)
        return 2

    # One CPU for this process and its children, so that the speed probe
    # runs where the commands run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(root, args.workload, args.seed)
    spans = wall_clock = None
    if args.trace:
        metrics, spans = run.per_layer(args.seconds)
    else:
        metrics, wall_clock = run.end_to_end(args.seconds)

    failed = sum(not r["ok"] for r in run.records)
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root),
        "metrics": {name: {"value": v, "unit": unit, "samples": n} for name, (v, unit, n) in metrics.items()},
        "wall_clock": {name: {"value": v, "unit": unit, "samples": n} for name, (v, unit, n) in (wall_clock or {}).items()},
        "failed_ratio": failed / len(run.records),
        "problems": run.problems,
        "commands": run.records,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = run.out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (run.out / "spans").mkdir(exist_ok=True)
        keys = ("name", "start", "end", "parent", "command")
        (run.out / "spans" / f"{stem}.json").write_text(
            json.dumps([dict(zip(keys, s)) for s in spans]) + "\n", encoding="utf-8")

    for name, (v, unit, n) in metrics.items():
        print(f"{args.workload:18s} {name:52s} {v!r:>24} {unit:6s} n={n}")
    for name, (v, unit, n) in (wall_clock or {}).items():
        print(f"{args.workload:18s} {'wall clock: ' + name:52s} {v!r:>24} {unit:6s} n={n}")
    print(f"{args.workload:18s} failed_ratio {detail['failed_ratio']!r} ({failed}/{len(run.records)})")
    for problem in run.problems + [r["error"] for r in run.records if r["error"]]:
        print(f"{args.workload:18s} problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
