"""The package holds what a command runs: every function and method of
``src/treeshift`` runs under one of ``reach.COMMANDS``, or ``UNRUN`` names
it with the reason it is kept.  The commands run in a fresh interpreter
(``tests/reach.py``), so that no memo table that an earlier test left warm
skips a function body."""

import json
import os
import subprocess
import sys
from pathlib import Path

import treeshift
from reach import COMMANDS

HERE = Path(__file__).resolve().parent

_BENCH = "the benchmark's in-process harness (perfbench/inproc.py) runs it; no command does"

#: each function or method that no command runs, with why it stays
UNRUN = {
    "counting.resolve_mode": _BENCH,
    "counting.subtree_counts": _BENCH,
    "matrices.LogNonnegMatrix.dim": _BENCH,
    "matrices.LogNonnegMatrix.from_exact": _BENCH,
    "matrices.LogNonnegMatrix.support": _BENCH,
    "matrices.Semiring.entries": _BENCH,
    "matrices._log_of_int": _BENCH,
    "matrices.log_matvec": _BENCH,
    "matrices.product": _BENCH,
    "oracle.Region.__init__": _BENCH,
    "oracle.Region.with_pins": _BENCH,
    "oracle._region": _BENCH,
    "oracle.block_region": _BENCH,
    "oracle.path_strip_region": _BENCH,
    "oracle.count_labelings": _BENCH,
    "ray.Ray.node": _BENCH,
    "transfer.step_matrix": _BENCH,
    "transfer.initial_strip_counts": _BENCH,
    "transfer.strip_entropy_iterative": "the iterative estimator: the benchmark times it, "
    "and no command reports it yet",
    "transfer._power_apply": "the iterative estimator's powering of the period product",
    "matrices.Value.__setattr__": "refuses to change a value, which memo tables key on "
    "(its code is __delattr__'s too)",
    "matrices.Value.__repr__": "the tests compare results bit for bit through it",
    "matrices.Value.__reduce__": "copy and pickle need it, since __setattr__ refuses",
    "tree.CompleteRecursiveWitness.__bool__": "a NamedTuple with fields is always true; "
    "without it, if is_complete_recursive(t) would be true for every tree",
}


def test_every_function_runs_or_is_listed():
    env = {**os.environ, "PYTHONPATH": str(Path(treeshift.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, str(HERE / "reach.py")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [code for code, _ in COMMANDS]
    unlisted = set(report["unrun"]) - UNRUN.keys()
    assert not unlisted, f"never run and not in UNRUN: {sorted(unlisted)}"
    ran = UNRUN.keys() & set(report["ran"])
    assert not ran, f"in UNRUN but run: {sorted(ran)}"
    gone = UNRUN.keys() - set(report["unrun"])
    assert not gone, f"in UNRUN but not in the package: {sorted(gone)}"
