"""Benchmark of treeshift: three workloads, six end-to-end metrics each, and
per-layer metrics from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload estimator --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Workloads (why each exists is in BENCHMARK.json, predictions in NOTES.md):

- estimator and exact run in ``inproc.py``, one fresh
  interpreter per run, one op at a time;
- cli-cold starts one ``python -m treeshift.cli`` process per op, one at a
  time, from this process.

Every child gets ``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1``,
``PYTHONDONTWRITEBYTECODE=1`` and ``PYTHONPATH=<root>/src``, so it measures
this checkout's source.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end with
``--trace 0``, per-layer with ``--trace 1``).  The full record, with the
input digest and the versions, is also written to ``perfbench/out/``.
Without ``src/treeshift`` next to this directory the run exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from common import CLI_COMMANDS, BestOfRun, digest
from tracing import Tracer, per_pass_totals, write_spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
INPROC = str(BENCH / "inproc.py")

#: set-up time is the median of this many fresh starts, about half of them
#: taken before the timed phase and the rest after it, so that they span the
#: run rather than one spell of the host
SETUP_SAMPLES = 7
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 150
#: cli-cold passes whose command order is drawn from the seed
CLI_ORDER_PASSES = 256

#: cli-cold first: its peak RSS is read over all children this process has
#: waited for, so under ``--workload all`` it must run before the others
WORKLOADS = ("cli-cold", "estimator", "exact")

#: CLI floats compare within these; the fitted rate works on log residuals,
#: which turn last-digit changes of a strip entropy into ~1e-7 relative ones
CLI_REL_TOL = 1e-6
CLI_ABS_TOL = 1e-9


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        # every start compiles treeshift from source, whatever the caller's
        # environment, and nothing is written next to the source
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


ENV = child_env()


def spawn(argv: list[str]) -> subprocess.CompletedProcess:
    """Run one child to completion; on timeout it is killed and reaped."""
    try:
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s: {argv}") from exc


def child_json(argv: list[str]) -> dict:
    proc = spawn(argv)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child failed ({proc.returncode}): {argv}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def timed_start(argv: list[str]) -> float:
    """Seconds from just before the start of a child to its ``ready`` mark."""
    start = time.monotonic()
    return child_json(argv)["ready"] - start


def timed_exit(argv: list[str]) -> float:
    """Wall seconds of a child from start to exit."""
    start = perf_counter()
    proc = spawn(argv)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {argv}\n{proc.stderr[-2000:]}")
    return wall


def environment() -> dict:
    env = child_json([INPROC, "--environment"])
    if not env["treeshift"].startswith(str(ROOT / "src")):
        raise BenchError(f"treeshift imported from {env['treeshift']}, not from this checkout")
    return env


def around(timed, sample, count: int):
    """Run ``timed()`` with ``count`` calls of ``sample()`` around it, half
    before and the rest after.  Returns what ``timed()`` returned and the
    samples."""
    before = [sample() for _ in range(count // 2)]
    result = timed()
    return result, before + [sample() for _ in range(count - count // 2)]


def run_inproc(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    args = [INPROC, "--workload", workload, "--seed", str(seed)]
    run = [*args, "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        run += ["--spans", str(OUT / f"{workload}-seed{seed}-spans.json.gz")]

    def timed():
        start = time.monotonic()
        report = child_json(run)
        return report, report["ready"] - start

    # a traced run reports no set-up time; else the run's own start is one sample
    count = 0 if trace else SETUP_SAMPLES - 1
    (report, own), setup = around(timed, lambda: timed_start([*args, "--setup-only"]), count)
    if not trace:
        report["metrics"]["setup_s"] = statistics.median([own, *setup])
    return report


def cli_run(name: str) -> tuple[float, int, str]:
    """One cli-cold op: a fresh ``python -m treeshift.cli`` process."""
    start = perf_counter()
    try:
        proc = spawn(["-m", "treeshift.cli", *CLI_COMMANDS[name]])
    except BenchError as exc:
        return perf_counter() - start, -1, str(exc)
    return perf_counter() - start, proc.returncode, proc.stdout


def values_match(expected, got) -> bool:
    """Structural equality; floats within the CLI tolerances, the rest exact."""
    if isinstance(expected, float) or isinstance(got, float):
        return (
            isinstance(expected, (int, float))
            and isinstance(got, (int, float))
            and math.isclose(expected, got, rel_tol=CLI_REL_TOL, abs_tol=CLI_ABS_TOL)
        )
    if isinstance(expected, dict):
        return (
            isinstance(got, dict)
            and expected.keys() == got.keys()
            and all(values_match(expected[k], got[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(got, list)
            and len(expected) == len(got)
            and all(values_match(e, g) for e, g in zip(expected, got))
        )
    return type(expected) is type(got) and expected == got


def parse_cli_output(name: str, text: str):
    """Parsed form of one CLI command's stdout, for comparison.

    CSV cells become ints or floats where they parse as such.  ``converge``
    JSON drops its wall-clock fields ``runtime`` and ``total_runtime``, the
    one known source of run-to-run differences in CLI output.
    """
    if name == "converge":
        obj = json.loads(text)
        obj.pop("total_runtime", None)
        for row in obj.get("rows", []):
            row.pop("runtime", None)
        return obj
    if name == "check":
        return text.splitlines()
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def run_cli_cold(seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    names = sorted(CLI_COMMANDS)
    orders = [rng.sample(names, len(names)) for _ in range(CLI_ORDER_PASSES)]
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        expected = {k: parse_cli_output(k, v) for k, v in json.load(fh)["cli"].items()}

    def correct(name: str, code: int, stdout: str) -> bool:
        if code != 0:
            return False
        try:
            got = parse_cli_output(name, stdout)
        except ValueError:
            return False
        return values_match(expected[name], got)

    untraced, traced = [], []  # (runs, wall) and (tracer, order, wall)
    samples: dict[str, list[float]] = {}

    def timed() -> None:
        start = perf_counter()
        while True:
            order = orders[(len(untraced) + len(traced)) % CLI_ORDER_PASSES]
            pass_start = perf_counter()
            if trace and untraced:
                tr = Tracer()
                for name in order:
                    tr.op(lambda: traced_cli_op(tr, name, samples))
                traced.append((tr, order, perf_counter() - pass_start))
            else:
                runs = [(name, *cli_run(name)) for name in order]
                untraced.append((runs, perf_counter() - pass_start))
            if perf_counter() - start >= seconds and (traced or not trace):
                return

    import_cli = ["-c", "import treeshift.cli"]
    _, setup = around(timed, lambda: timed_exit(import_cli), 0 if trace else SETUP_SAMPLES)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    failures, best = [], BestOfRun()
    for runs, wall in untraced:
        ok, latency = 0, {}
        for name, latency_s, code, stdout in runs:
            latency[name] = latency_s
            if correct(name, code, stdout):
                ok += 1
            else:
                failures.append(f"{name}: exit {code}, stdout {stdout[:200]!r}")
        # a pass runs the commands in a seeded order; line them up by name
        best.add([latency[name] for name in names], wall, ok)
    for tr, order, _ in traced:
        for name, out in zip(order, tr.results):
            if not (isinstance(out, dict) and correct(name, out["exit"], out["stdout"])):
                failures.append(f"traced {name}: {str(out)[:200]!r}")
    attempted = len(names) * (len(untraced) + len(traced))
    report = {
        "passes": len(untraced) + len(traced),
        "untraced_pass_walls": best.walls,
        "ops_per_pass": len(names),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "seed": seed,
        "inputs_sha256": digest({"commands": CLI_COMMANDS, "orders": orders}),
    }
    if trace:
        layers = {name: statistics.median(values) for name, values in samples.items()}
        layers["trace.overhead_ratio"] = statistics.median(w for _, _, w in traced) / untraced[0][1]
        report["metrics"] = layers
        tracers = [tr for tr, _, _ in traced]
        report["spans_per_pass"] = per_pass_totals(tracers)
        write_spans(OUT / f"cli-cold-seed{seed}-spans.json.gz", tracers)
    else:
        report["metrics"] = {
            "setup_s": statistics.median(setup),
            # with four commands, op_tail_ms is the slowest one's best
            **best.metrics(),
            "peak_rss_mib": peak_rss_mib,
        }
    return report


def traced_cli_op(tr: Tracer, name: str, samples: dict) -> dict:
    """The layers of one CLI call, each in a fresh process: the bare
    interpreter, ``import numpy``, ``import treeshift.cli``, then
    ``treeshift.cli.main`` timed in-process after import."""
    for metric, code in (
        ("cli.interpreter_s", "pass"),
        ("cli.numpy_import_s", "import numpy"),
        ("cli.import_s", "import treeshift.cli"),
    ):
        with tr.span(metric[:-2]):
            samples.setdefault(metric, []).append(timed_exit(["-c", code]))
    with tr.span(f"cli.{name}"):
        out = child_json([INPROC, "--cli-main", name])
    samples.setdefault(f"cli.{name}_s", []).append(out["seconds"])
    return out


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    env = environment()
    if workload == "cli-cold":
        report = run_cli_cold(seed, seconds, trace)
    else:
        report = run_inproc(workload, seed, seconds, trace)
    report.update(workload=workload, trace=int(trace), seconds=seconds, environment=env)
    metrics = report["metrics"]
    if trace:
        # a layer the workload never calls reads 0
        values = {name: metrics.get(name, 0.0) for name in units}
    else:
        metrics["ok_ratio"] = (report["attempted"] - report["failed"]) / report["attempted"]
        values = metrics
    report["result"] = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return report


def describe(report: dict) -> str:
    env = report["environment"]
    lines = [
        f"workload={report['workload']} seed={report['seed']} trace={report['trace']} "
        f"inputs_sha256={report['inputs_sha256']}",
        f"python={env['python']} numpy={env['numpy']} openblas={env['openblas']} nproc={env['nproc']}",
        f"ops={report['attempted']} passes={report['passes']} ops_per_pass={report['ops_per_pass']} "
        f"fail_ratio={report['failed'] / report['attempted']:g}",
    ]
    for failure in report["failures"]:
        lines.append(f"  FAILED {failure}")
    for name, metric in report["result"]["metrics"].items():
        lines.append(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    if not report["trace"]:
        lines.append(f"  (op_tail_ms is p{report['metrics']['tail_percentile']:.2f})")
    for layer, state in sorted(report.get("cache_states", {}).items()):
        lines.append(f"  cache state seen by {layer}: {state}")
    return "\n".join(lines)


def table(results: dict) -> str:
    """Metrics as rows, workloads as columns."""
    first = next(iter(results.values()))["metrics"]
    rows = [
        ["metric", "unit", *results],
        ["ops", "count", *(str(r["attempted"]) for r in results.values())],
        ["fail_ratio", "ratio", *(f"{r['failed'] / r['attempted']:g}" for r in results.values())],
    ]
    for name, metric in first.items():
        rows.append([name, metric["unit"], *(f"{r['metrics'][name]['value']:.6g}" for r in results.values())])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treeshift" / "__init__.py").is_file():
        print(f"no treeshift source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    units = metric_units(bool(args.trace))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            report = run_workload(workload, args.seed, args.seconds, bool(args.trace), units)
            print(describe(report), flush=True)
            results[workload] = report["result"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(table(results))
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
