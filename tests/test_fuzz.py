"""Property test of the input boundary: whatever a user writes, every
subcommand exits 0, or exits 2 with exactly one JSON error document on
stderr. Exit 1 (an internal error) is never reachable from the CLI.

Each example starts from a valid command over the shipped inputs (the toy
descriptor, the default catalog, the radar bundle, the decision rules, the
sample trace, and a cost inputs document), then applies a few mutations to
one input document or to the arguments: it drops keys, adds keys, swaps a
value for one of another JSON type, nests a value, rewrites trace lines, and
drops, rewrites, repeats or adds arguments. Numbers stay small, so that no
example asks for a large simulation; huge numbers have their own tests.

What a run leaves behind is checked too: a run that exits 2 writes no file,
and on exit 0 every CSV report parses into rows as wide as its header with
no non-finite cell, and every JSON report is strict JSON.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import REPO_ROOT

COST_INPUTS = {
    "bill_of_materials": {"gpu_usd": 8000, "cpu_usd": 1000, "motherboard_usd": 500, "dram_usd": 300, "ssd_usd": 200},
    "power_profile": {"gpu_watts": 400, "cpu_watts": 100},
    "economics": {"runtime_hours": 8760, "energy_price_usd_per_kwh": 0.1, "token_throughput_tps": 1000},
}

DOCUMENTS = {
    "model": json.loads((REPO_ROOT / "models" / "toy-4x2.json").read_text()),
    "catalog": json.loads((REPO_ROOT / "catalog" / "default.json").read_text()),
    "cost": COST_INPUTS,
    "records": json.loads((REPO_ROOT / "bundles" / "radar_serving_systems.json").read_text()),
    "rules": json.loads((REPO_ROOT / "rules" / "decision_matrix.json").read_text()),
}
TRACE = (REPO_ROOT / "traces" / "sample_with_comments.trace").read_text()

# A valid command line per subcommand; {name} stands for an input file.
COMMANDS = {
    "metrics": ["metrics", "--model", "{model}", "--trace", "{trace}", "--catalog", "{catalog}",
                "--device", "H100-SXM", "--bytes-per-param", "2.0", "--kv-seq-len", "8", "--output-dir", "{out}"],
    "plan": ["plan", "--model", "{model}", "--catalog", "{catalog}", "--mode", "trace", "expected",
             "--trace", "{trace}", "--batch", "2", "--dist", "zipf:1.1", "--with-ops",
             "--sweep-batches", "1,2", "--output-dir", "{out}"],
    "plan-fig2": ["plan", "--model", "{model}", "--catalog", "{catalog}", "--fig2", "--kv-bytes", "100",
                  "--margin", "0.1", "--use-offload", "--output-dir", "{out}"],
    "simulate": ["simulate", "--model", "{model}", "--batch", "2", "--dist", "uniform", "--passes", "2",
                 "--seed", "0", "--phase", "prefill", "--tokens-per-pass", "2", "--out", "{out}/sim.trace"],
    "cost": ["cost", "--inputs", "{cost}", "--output-dir", "{out}"],
    "radar": ["radar", "--records", "{records}", "--output-dir", "{out}"],
    "recommend": ["recommend", "--rules", "{rules}", "--tier", "workstation_gpu_a5000", "--batch", "4",
                  "--primary", "cost", "--secondary", "latency", "--output-dir", "{out}"],
}

SMALL_NUMBERS = st.one_of(st.integers(-3, 300), st.sampled_from([0.0, -1.0, 0.5, 1.5, 1e300]))
SCALARS = st.one_of(st.none(), st.booleans(), SMALL_NUMBERS, st.text(max_size=4))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=5,
)
TOKENS = st.one_of(
    st.sampled_from([
        "", "-1", "0", "1", "2", "1.5", "x", "nan", "inf", "-inf", "1e400", "uniform", "zipf:abc", "zipf:-1",
        "empirical:1,0", "empirical:0.5,0.5", "1,2", "2,1", "1,,2", "decode", "prefill", "H100-SXM", "fp16",
        "trace", "expected", "full_activation", "batch1_analytic", "ff", "g", "0:1", "model=toy-4x2",
        # routings that reach the quadrature's edges: subnormal and zero weights, a certain
        # expert, ranks whose power overflows
        "empirical:0.5,0.5,1e-320,0", "empirical:1,0,0,0", "zipf:1000",
    ]),
    st.text(st.characters(blacklist_characters="\x00"), max_size=5),  # argv cannot hold NUL
)
NON_FINITE = {"inf", "infinity", "nan"}
STRAYS = st.sampled_from(["--frob", "-x", "stray", "--batch", "--mode", "--catalog=", "-h"])


def _mutate_json(data, value):
    """One mutation somewhere inside ``value``: drop or add a key (or list
    entry), replace a value with any JSON value, or nest it."""
    if isinstance(value, (dict, list)) and value and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
        value[key] = _mutate_json(data, value[key])
        return value
    action = data.draw(st.sampled_from(["drop", "add", "swap", "nest"]))
    if action == "drop" and isinstance(value, (dict, list)) and value:
        key = data.draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
        del value[key]
    elif action == "add" and isinstance(value, dict):
        value[data.draw(st.one_of(st.sampled_from(list(value) or ["x"]), st.text(max_size=6)))] = data.draw(JSON_VALUES)
    elif action == "add" and isinstance(value, list):
        value.append(data.draw(JSON_VALUES))
    elif action == "nest":
        return data.draw(st.sampled_from([[value], {"x": value}]))
    else:
        return data.draw(JSON_VALUES)
    return value


def _mutate_trace(data, text):
    """One mutation of a trace: drop, repeat or insert a line, or rewrite one
    of a line's comma-, semicolon-, colon- or equals-separated tokens."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
    action = data.draw(st.sampled_from(["drop", "repeat", "token", "insert"]))
    if not lines or action == "insert":
        lines.insert(i, data.draw(st.one_of(TOKENS, st.text(max_size=12))))
    elif action == "drop":
        del lines[i]
    elif action == "repeat":
        lines.insert(i, lines[i])
    else:
        parts = re.split(r"([,;:=])", lines[i])
        j = data.draw(st.integers(0, len(parts) // 2)) * 2
        parts[j] = data.draw(TOKENS)
        lines[i] = "".join(parts)
    return "\n".join(lines) + "\n"


def _mutate_argv(data, argv):
    """One mutation of a command line: drop an option (with its values),
    rewrite or drop a value, repeat an option, or add a stray argument."""
    options = [i for i, a in enumerate(argv) if a.startswith("--")]
    i = data.draw(st.sampled_from(options or [0]))
    end = next((j for j in range(i + 1, len(argv)) if argv[j].startswith("--")), len(argv))
    action = data.draw(st.sampled_from(["drop", "value", "repeat", "stray"]))
    if not options or action == "stray":
        argv.insert(data.draw(st.integers(1, len(argv))), data.draw(st.one_of(STRAYS, TOKENS)))
    elif action == "drop":
        del argv[i:end]
    elif action == "value" and end > i + 1:
        j = data.draw(st.integers(i + 1, end - 1))
        argv[j:j + 1] = [] if data.draw(st.booleans()) else [data.draw(TOKENS)]
    elif action == "repeat":
        argv += argv[i:end]
    return argv


def _run(argv, cwd):
    """Exit code and stderr of ``main(argv)`` run in ``cwd``, where a command
    that lost its output path writes."""
    from moemeter.cli import main

    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    except SystemExit as exc:  # argparse errors and --help
        code = exc.code
    finally:
        os.chdir(previous)
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_no_input_reaches_an_internal_error(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(COMMANDS[command])
    docs = copy.deepcopy(DOCUMENTS)
    trace = TRACE
    used = [name for name in [*DOCUMENTS, "trace"] if "{" + name + "}" in argv]
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from([*used, "argv"]))
        if target == "argv":
            argv = _mutate_argv(data, argv)
        elif target == "trace":
            trace = _mutate_trace(data, trace)
        else:
            docs[target] = _mutate_json(data, docs[target])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": f"{tmp}/out", "trace": f"{tmp}/input.trace"}
        Path(paths["trace"]).write_text(trace, encoding="utf-8")
        for name, doc in docs.items():
            paths[name] = f"{tmp}/{name}.json"
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        for name, path in paths.items():
            argv = [a.replace("{" + name + "}", path) for a in argv]
        inputs = set(Path(tmp).rglob("*"))
        code, err = _run(argv, tmp)
        written = sorted(set(Path(tmp).rglob("*")) - inputs)
        reports = {
            path.name: path.read_text(encoding="utf-8")
            for path in written
            if path.suffix in (".csv", ".json") and path.is_file()
        }
    assert code in (0, 2), err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1, err
        doc = json.loads(lines[0])
        assert list(doc) == ["error"] and doc["error"]["type"] in ("validation", "input"), err
    else:
        assert err == ""
    if code == 2:
        assert not written, (err, [str(path) for path in written])
    for name, text in reports.items():
        _check_report(name, text)


def _check_report(name: str, text: str):
    """A CSV report's rows are as wide as its header, past its ``#`` comment
    line, with no inf or nan cell; a JSON report holds no NaN or Infinity."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        if rows and rows[0] and rows[0][0].startswith("#"):
            rows = rows[1:]
        for row in rows:
            assert len(row) == len(rows[0]), (name, row)
            assert not NON_FINITE & {cell.lower().lstrip("+-") for cell in row}, (name, row)
    else:

        def reject_constant(literal):
            raise AssertionError(f"{name} holds {literal}")

        json.loads(text, parse_constant=reject_constant)
