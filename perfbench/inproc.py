"""In-process workloads of the treeshift benchmark: estimator and exact (the
width sweep, then the oracle comparisons).

``run.py`` starts this file as a fresh interpreter for every run, so the
program's memo caches start cold, as they do for a CLI or script user:

    python perfbench/inproc.py --workload W --seed S --seconds R --trace 0|1
    python perfbench/inproc.py --workload W --seed S --setup-only
    python perfbench/inproc.py --environment
    python perfbench/inproc.py --cli-main NAME

The last line of stdout is one JSON object.  Its ``ready`` field is
``time.monotonic()`` once treeshift is imported and the inputs are built;
the parent subtracts its own reading taken before the start.

A run repeats whole passes over the workload's grid until the passes add
up to ``--seconds``.  Each pass starts by clearing the program's two memo
caches (``counting.context`` and ``tree.subtree_nodes``), so every pass is a
sweep that starts cold and warms up within itself.  Each pass's outputs are
checked right after it, outside its timed wall, and then dropped, so memory
does not grow with the number of passes.

The random matrices of each workload are drawn once, from
``treeshift.sampling`` at a fixed base seed; ``--seed`` renames the symbols
of every matrix (A -> P A P^T for a seeded permutation P).  A renaming
changes the inputs but neither the outputs nor the work.  Drawing fresh
matrices per seed would change the work: an exact-mode count costs more the
larger its integers: over base seeds 1..5 the width sweep alone ran from 195
to 325 ops/s, and over base seeds 1..10 the oracle grid alone from 1,308 to
1,873.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from time import perf_counter

import numpy as np

import treeshift
from treeshift import cli, counting, tree as tree_module
from treeshift.counting import MODE_EXACT, MODE_LOG, block_counts, resolve_mode, subtree_counts
from treeshift.entropy import fit_rate, topological_entropy
from treeshift.matrices import BinaryMatrix, is_primitive, log_matvec, product, spectral_radius
from treeshift.oracle import (
    AUTO_DFS_THRESHOLD,
    block_region,
    brute_block_counts,
    brute_strip_counts,
    count_labelings,
    path_strip_region,
)
from treeshift.ray import Ray, lambda_strip, step_profile
from treeshift.sampling import seeded_primitive_matrices
from treeshift.transfer import (
    DEFAULT_FALLBACK_STEPS,
    initial_strip_counts,
    step_matrix,
    strip_counts,
    strip_entropy_closed,
    strip_entropy_iterative,
)
from treeshift.tree import crt_preset, validate_tree

from common import CLI_COMMANDS, BestOfRun, digest
from tracing import OpError, Recorder, Tracer, per_pass_totals, write_spans

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

CRT3 = crt_preset(3)
#: the acceptance suite's rays on crt:3: (f1)^inf, (f1 f2 f3)^inf, f2f3(f1 f2 f3)^inf
CRT3_RAYS = (Ray((), (0,)), Ray((), (0, 1, 2)), Ray((1, 2), (0, 1, 2)))


def config_id(tree, a, ray) -> dict:
    return {"M": tree.shape.rows, "A": a.rows, "ray": ray.describe()}


def phase(ray: Ray, j: int) -> int:
    """Step j >= 1 folded onto the steps 1 .. c + ell of prefix and period."""
    return j if j <= ray.c else ray.c + 1 + (j - ray.c - 1) % ray.ell


def ok(result) -> bool:
    return not isinstance(result, OpError)


def renamed(matrices, seed: int) -> list[BinaryMatrix]:
    """The matrices with their symbols renamed, A -> P A P^T.  One seeded
    permutation P per alphabet size, so equal matrices stay equal and the
    number of distinct counting contexts does not depend on the seed."""
    rng = random.Random(seed)
    perms: dict[int, list[int]] = {}
    out = []
    for a in matrices:
        if a.dim not in perms:
            perms[a.dim] = rng.sample(range(a.dim), a.dim)
        p = perms[a.dim]
        out.append(BinaryMatrix(tuple(tuple(a.rows[i][j] for j in p) for i in p)))
    return out


class Estimator:
    """One op: strip_entropy_iterative(crt:3, A, ray, n, m_max=1000), on the
    acceptance suite's grid: four primitive A with k in {2, 3} (base seed 515),
    three rays, widths 2..8; 84 ops a pass."""

    BASE_SEED = 515
    M_MAX = 1000
    WIDTHS = range(2, 9)
    GAP_TOL = 1e-6  # the acceptance suite's closed-vs-iterative tolerance
    CACHE_STATES = {
        "transfer.iterative": "as the op sees it: memo tables cleared at the pass start, "
        "warm from the earlier ops of the pass",
        "transfer.strip_counts_log": "warm: replayed after the op on the same inputs",
        "transfer.step_matrix": "warm counting context (log mode, depth n-1)",
        "matrices.log_matvec": "no cache involved; the op's step matrices, m_max calls",
        "ray.region_sites": "subtree_nodes warm",
    }

    def __init__(self, seed: int):
        self.tree = CRT3
        matrices = renamed(seeded_primitive_matrices(4, (2, 3), self.BASE_SEED), seed)
        self.grid = [(a, ray, n) for a in matrices for ray in CRT3_RAYS for n in self.WIDTHS]
        self._closed = None

    def describe(self):
        return [{**config_id(self.tree, a, ray), "n": n} for a, ray, n in self.grid]

    def run_pass(self, rec: Recorder) -> None:
        for a, ray, n in self.grid:
            rec.op(lambda: strip_entropy_iterative(self.tree, a, ray, n, self.M_MAX))

    def trace_pass(self, tr: Tracer) -> None:
        for a, ray, n in self.grid:
            tr.op(lambda: self._traced_op(tr, a, ray, n))

    def _traced_op(self, tr: Tracer, a, ray, n):
        tree, m_max = self.tree, self.M_MAX
        result = tr.call("transfer.iterative", strip_entropy_iterative, tree, a, ray, n, m_max)
        tr.call("transfer.strip_counts_log", strip_counts, tree, a, ray, n, m_max, MODE_LOG)
        with tr.span("transfer.step_matrix"):
            steps = {
                j: step_matrix(tree, a, ray, j, n, MODE_LOG).matrix
                for j in range(1, ray.c + ray.ell + 1)
            }
        start = tr.call("transfer.initial_strip_counts", initial_strip_counts, tree, a, ray, n, MODE_LOG)
        v = np.array(start.values, dtype=float)
        with tr.span("matrices.log_matvec"):
            for j in range(1, m_max + 1):
                v = log_matvec(steps[phase(ray, j)], v)
        with tr.span("ray.region_sites"):
            sum(lambda_strip(tree, step_profile(tree, ray, j), n) for j in range(m_max + 1))
        return result

    def check(self, index: int, result) -> bool:
        if self._closed is None:
            self._closed = [
                strip_entropy_closed(self.tree, a, ray, n).value for a, ray, n in self.grid
            ]
        return ok(result) and abs(result.value - self._closed[index]) <= self.GAP_TOL


class WidthSweep:
    """What ``converge`` does: per (tree, A, ray), topological_entropy, then
    strip_entropy_closed at widths 2..32 in auto mode (one op each), then
    fit_rate.  Eight configs (G/G, crt:3 with a k=5 A, E:2 with a k=3 A;
    base seed 0), 248 ops a pass."""

    WIDTHS = range(2, 33)
    #: converge's reference depth for widths up to 32: max(20, 32 + 2)
    N_BUDGET = 34
    BASE_SEED = 0
    #: a value may differ from the recorded one by this much; a change of
    #: Perron solver moves the values by about 1e-12
    VALUE_TOL = 1e-9
    CACHE_STATES = {
        "counting.subtree_counts": "cold at depth n-1 (replayed first), warm below it "
        "from the config's earlier widths",
        "transfer.step_matrix": "warm counting context",
        "matrices.product": "no cache involved",
        "matrices.spectral_radius": "no cache involved",
        "transfer.strip_entropy_closed": "warm: the op's public call, after the replays",
        "entropy.topological_entropy": "log-mode context cold for the first config of "
        "each (tree, A), warm for the others",
        "entropy.fit_rate": "no cache involved",
    }

    @staticmethod
    def configs_of(golden, a5, a3) -> list:
        golden_tree = validate_tree(BinaryMatrix.golden())
        full2 = validate_tree(BinaryMatrix.full(2))
        return [
            *[(golden_tree, golden, ray) for ray in (Ray((), (0,)), Ray((), (0, 1)), Ray((1,), (0,)))],
            *[(CRT3, a5, ray) for ray in CRT3_RAYS],
            *[(full2, a3, ray) for ray in (Ray((), (0,)), Ray((), (0, 1)))],
        ]

    def __init__(self, seed: int):
        matrices = [
            BinaryMatrix.golden(),
            seeded_primitive_matrices(1, (5,), self.BASE_SEED)[0],
            seeded_primitive_matrices(1, (3,), self.BASE_SEED)[0],
        ]
        #: the unrenamed configs, which reference.json records
        self.base = self.configs_of(*matrices)
        self.configs = self.configs_of(*renamed(matrices, seed))
        self._expected = None

    def describe(self):
        return [{**config_id(*cfg), "widths": list(self.WIDTHS)} for cfg in self.configs]

    def run_pass(self, rec: Recorder) -> None:
        for tree, a, ray in self.configs:
            h_ref = topological_entropy(tree, a, self.N_BUDGET).h_ref
            residuals = []
            for n in self.WIDTHS:
                result = rec.op(lambda: strip_entropy_closed(tree, a, ray, n))
                if ok(result):
                    residuals.append((n, abs(result.value - h_ref)))
            fit_rate(residuals)

    def trace_pass(self, tr: Tracer) -> None:
        for tree, a, ray in self.configs:
            reference = tr.call("entropy.topological_entropy", topological_entropy, tree, a, self.N_BUDGET)
            residuals = []
            for n in self.WIDTHS:
                result = tr.op(lambda: self._traced_op(tr, tree, a, ray, n))
                if ok(result):
                    residuals.append((n, abs(result.value - reference.h_ref)))
            tr.call("entropy.fit_rate", fit_rate, residuals)

    def _traced_op(self, tr: Tracer, tree, a, ray, n):
        mode = resolve_mode(tree, a, n)
        tr.counts[f"counting.{mode}_widths"] += 1
        with tr.span("counting.subtree_counts"):
            for t in tree.generators():
                subtree_counts(tree, a, t, n - 1, mode)
        with tr.span("transfer.step_matrix"):
            steps = [step_matrix(tree, a, ray, j, n, mode).matrix for j in range(ray.c + 1, ray.c + ray.ell + 1)]
        period = tr.call("matrices.product", product, steps[::-1])
        if is_primitive(period.support()):
            perron = tr.call("matrices.spectral_radius", spectral_radius, period)
            tr.counts["matrices.power_iterations"] += perron.iterations
            tr.counts["matrices.perron_unconverged"] += not perron.converged
        else:
            fallback = max(DEFAULT_FALLBACK_STEPS, ray.c + 2 * ray.ell)
            tr.call("transfer.iterative", strip_entropy_iterative, tree, a, ray, n, fallback)
        return tr.call("transfer.strip_entropy_closed", strip_entropy_closed, tree, a, ray, n)

    def check(self, index: int, result) -> bool:
        if self._expected is None:
            with open(REFERENCE, encoding="utf-8") as fh:
                recorded = json.load(fh)["width_sweep"]
            self._expected = []
            for cfg, (recorded_cfg, rows) in zip(self.base, recorded):
                same = recorded_cfg == json.loads(json.dumps(config_id(*cfg)))
                self._expected.extend(rows if same else [None] * len(self.WIDTHS))
        expected = self._expected[index]
        return (
            ok(result)
            and expected is not None
            and result.method == expected[0]
            and abs(result.value - expected[1]) <= self.VALUE_TOL
        )


class OracleVerify:
    """The ``verify`` grid: 20 primitive A with k in {2, 3} (base seed 0) on
    E:2, G and crt:3; one op compares brute_block_counts with block_counts,
    or brute_strip_counts with strip_counts, in exact mode.  3,000 ops a
    pass."""

    BASE_SEED = 0
    CACHE_STATES = {
        "ray.strip_region": "no memo (regions are rebuilt per op); subtree_nodes warm",
        "oracle.block_region": "no memo",
        "oracle.count_fold": "no memo: the oracle shares no tables with counting",
        "oracle.count_dfs": "no memo: the oracle shares no tables with counting",
        "counting.block_counts": "as the op sees it: exact context warm from earlier ops",
        "transfer.strip_counts_exact": "as the op sees it: exact context warm from earlier ops",
    }

    def __init__(self, seed: int):
        matrices = renamed(seeded_primitive_matrices(20, (2, 3), self.BASE_SEED), seed)
        self.grid = []
        for a in matrices:
            for name, tree in cli.SWEEP_TREES:
                self.grid.extend((tree, a, None, n, None) for n in cli.SWEEP_BLOCK_NS)
                for ray in cli.SWEEP_RAYS[name]:
                    self.grid.extend(
                        (tree, a, ray, n, m) for n in cli.SWEEP_STRIP_NS for m in cli.SWEEP_MS
                    )

    def describe(self):
        return [
            {"M": tree.shape.rows, "A": a.rows, "ray": ray.describe() if ray else None, "n": n, "m": m}
            for tree, a, ray, n, m in self.grid
        ]

    def run_pass(self, rec: Recorder) -> None:
        for tree, a, ray, n, m in self.grid:
            if ray is None:
                rec.op(lambda: (brute_block_counts(tree, a, n), block_counts(tree, a, n, MODE_EXACT).values))
            else:
                rec.op(lambda: (
                    brute_strip_counts(tree, a, ray, n, m),
                    strip_counts(tree, a, ray, n, m, MODE_EXACT)[0].values,
                ))

    def trace_pass(self, tr: Tracer) -> None:
        for tree, a, ray, n, m in self.grid:
            tr.op(lambda: self._traced_op(tr, tree, a, ray, n, m))

    def _traced_op(self, tr: Tracer, tree, a, ray, n, m):
        if ray is None:
            region = tr.call("oracle.block_region", block_region, tree, n)
            pin = ()
        else:
            region = tr.call("ray.strip_region", path_strip_region, tree, ray, n, m)
            pin = ray.node(m)
        method = "dfs" if len(region.nodes) <= AUTO_DFS_THRESHOLD else "fold"
        brute = []
        for i in range(a.dim):
            pinned = region.with_pins({pin: i})
            brute.append(tr.call(f"oracle.count_{method}", count_labelings, pinned, a))
            tr.counts["oracle.nodes_counted"] += len(region.nodes)
        if ray is None:
            got = tr.call("counting.block_counts", block_counts, tree, a, n, MODE_EXACT).values
        else:
            got = tr.call("transfer.strip_counts_exact", strip_counts, tree, a, ray, n, m, MODE_EXACT)[0].values
        return tuple(brute), got

    def check(self, index: int, result) -> bool:
        return ok(result) and tuple(result[0]) == tuple(result[1])


class Exact:
    """The exact-integer uses, one after the other in each pass: the width
    sweep (WidthSweep, what ``converge`` does), then the oracle comparisons
    (OracleVerify, what ``verify`` does).  The oracle part sees the memo
    tables that the sweep part left, as a script that calls both would.
    248 + 3,000 ops a pass."""

    def __init__(self, seed: int):
        self.parts = (WidthSweep(seed), OracleVerify(seed))
        self.CACHE_STATES = {k: v for part in self.parts for k, v in part.CACHE_STATES.items()}
        self._sweep_ops = len(self.parts[0].configs) * len(WidthSweep.WIDTHS)

    def describe(self):
        return [part.describe() for part in self.parts]

    def run_pass(self, rec: Recorder) -> None:
        for part in self.parts:
            part.run_pass(rec)

    def trace_pass(self, tr: Tracer) -> None:
        for part in self.parts:
            part.trace_pass(tr)

    def check(self, index: int, result) -> bool:
        sweep, oracle = self.parts
        if index < self._sweep_ops:
            return sweep.check(index, result)
        return oracle.check(index - self._sweep_ops, result)


WORKLOAD_CLASSES = {"estimator": Estimator, "exact": Exact}


def memo_counters() -> dict:
    contexts = counting.context.cache_info()
    nodes = tree_module.subtree_nodes.cache_info()
    return {
        "counting.contexts_built": contexts.misses,
        "tree.subtree_nodes_hits": nodes.hits,
        "tree.subtree_nodes_misses": nodes.misses,
    }


def one_pass(workload, traced: bool):
    """Run one pass from cold memo caches; returns (recorder, wall, counters)."""
    counting.context.cache_clear()
    tree_module.subtree_nodes.cache_clear()
    before = memo_counters()
    rec = Tracer() if traced else Recorder()
    start = perf_counter()
    (workload.trace_pass if traced else workload.run_pass)(rec)
    wall = perf_counter() - start
    after = memo_counters()
    return rec, wall, {k: after[k] - before[k] for k in after}


def measure(workload, seconds: float, trace: bool, spans_path: str | None) -> dict:
    """Passes until their walls add up to ``seconds``.  With ``trace`` the
    first pass is untraced (it gives the cache counters and the base of the
    overhead ratio) and every later one traced."""
    timed, passes, attempted, failures = 0.0, 0, 0, []
    best, traced = BestOfRun(), []
    first = None  # (wall, counters, ops) of the first pass
    while True:
        traced_pass = trace and first is not None
        rec, wall, counters = one_pass(workload, traced_pass)
        failed = [i for i, result in enumerate(rec.results) if not workload.check(i, result)]
        failures.extend(f"op {i}: {rec.results[i]!r}" for i in failed)
        passes += 1
        attempted += len(rec.results)
        if traced_pass:
            traced.append((rec, wall))
        else:
            first = first or (wall, counters, len(rec.results))
            best.add(rec.latencies, wall, len(rec.results) - len(failed))
        timed += wall
        if timed >= seconds and (traced or not trace):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first_wall, first_counters, ops_per_pass = first
    report = {
        "passes": passes,
        "untraced_pass_walls": best.walls,
        "ops_per_pass": ops_per_pass,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "memo_per_pass": first_counters,
        "cache_states": workload.CACHE_STATES,
    }
    if not trace:
        report["metrics"] = {**best.metrics(), "peak_rss_mib": peak_rss_mib}
        return report

    tracers = [rec for rec, _ in traced]
    spans = per_pass_totals(tracers)
    layers = {f"{name}_s": row["total_s"] for name, row in spans.items()}
    layers.update(first_counters)
    for name in tracers[0].counts:
        per_pass = sum(t.counts[name] for t in tracers) / len(tracers)
        layers[name] = int(per_pass) if per_pass.is_integer() else per_pass
    layers["trace.overhead_ratio"] = statistics.median(w for _, w in traced) / first_wall
    report["metrics"] = layers
    report["spans_per_pass"] = spans
    if spans_path:
        write_spans(spans_path, tracers)
    return report


def blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "treeshift": os.path.dirname(os.path.abspath(treeshift.__file__)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def cli_main(name: str) -> dict:
    """Time ``treeshift.cli.main`` in-process, in this fresh process, after import."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(CLI_COMMANDS[name])
    return {"seconds": perf_counter() - start, "exit": code, "stdout": out.getvalue()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here (gzip JSON)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--environment", action="store_true")
    parser.add_argument("--cli-main", choices=sorted(CLI_COMMANDS))
    args = parser.parse_args(argv)
    if args.environment:
        result = environment()
    elif args.cli_main:
        result = cli_main(args.cli_main)
    else:
        if not args.workload:
            parser.error("--workload is required")
        start = perf_counter()
        workload = WORKLOAD_CLASSES[args.workload](args.seed)
        inputs_s = perf_counter() - start
        ready = time.monotonic()
        if args.setup_only:
            result = {"ready": ready}
        else:
            result = measure(workload, args.seconds, bool(args.trace), args.spans)
            result.update(ready=ready, seed=args.seed, inputs_sha256=digest(workload.describe()))
            if args.trace:
                result["metrics"]["sampling.inputs_s"] = inputs_s
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
