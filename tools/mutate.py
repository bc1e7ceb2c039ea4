"""Mutation testing of the count loop's kernels, with the standard
library's ``ast`` alone.

A mutant changes one operator or constant in one function of the package:
``+`` and ``-`` swap, ``*`` turns into ``+``, ``//`` and ``/`` swap, ``<``
and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``
swap, an integer constant grows by 1 and a boolean constant flips.  Each
mutant runs in one scratch copy of the repository (a temporary directory,
removed at the end): Tier-1 with ``-x``, then ``verify --seed 0``.  It is
killed when either fails, runs past its timeout or past its address-space
limit, and survives otherwise.  The unmutated copy runs first and must
pass.

Run from the repository root:

    python3 tools/mutate.py                    # every mutant of SITES
    python3 tools/mutate.py --list             # list them, run none
    python3 tools/mutate.py --sample 10        # 10 of them, drawn with SEED

The last line of stdout is one JSON object: the mutants run, killed and
surviving.  ``SURVIVORS`` lists each survivor found so far, with either the
test written to kill it or the reason it is equivalent to the program; the
run exits 1 when a mutant survives that the list does not give as
equivalent, so a check that stops pinning a kernel shows.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SURVIVORS = ROOT / "tools" / "mutation_survivors.json"

#: the functions mutated: the log-semiring kernels of the count
#: loop and the loop itself, as "file in src/treeshift:qualified name"
SITES = (
    "matrices.py:log_sum",
    "matrices.py:Semiring.matvec",
    "matrices.py:Semiring.step",
    "matrices.py:Semiring.matmul",
    "transfer.py:_factor_max",
    "transfer.py:_power_apply",
    "transfer.py:_count_loop",
    "transfer.py:strip_entropy_iterative",
)
#: seed of ``--sample``
SEED = 0
TIER1_TIMEOUT_S = 120
VERIFY_TIMEOUT_S = 120
#: a mutant that makes a loop run on can fill memory before its timeout;
#: Tier-1 peaks below 100 MiB
MEMORY_LIMIT_BYTES = 2 << 30

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
    ast.FloorDiv: ast.Div, ast.Div: ast.FloorDiv,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
}


class Mutant(NamedTuple):
    """One mutation: ``text`` replaces the source of ``path`` between the
    (line, column) positions ``start`` and ``end``."""

    id: str
    path: str
    start: tuple[int, int]
    end: tuple[int, int]
    text: str


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope: ast.AST = tree
    for name in qualname.split("."):
        scope = next(
            node for node in ast.iter_child_nodes(scope)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        )
    return scope


def _variants(node: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """Each mutated copy of ``node`` with what it changed."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
        new = SWAPS[type(node.op)]
        yield _replaced(node, op=new()), f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}"
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                new = SWAPS[type(op)]
                ops = node.ops[:i] + [new()] + node.ops[i + 1:]
                yield _replaced(node, ops=ops), f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}"
    elif isinstance(node, ast.Constant) and type(node.value) in (int, bool):
        value = not node.value if type(node.value) is bool else node.value + 1
        yield _replaced(node, value=value), f"{node.value!r} -> {value!r}"


def _replaced(node: ast.AST, **fields) -> ast.AST:
    copy = type(node)(**{name: getattr(node, name) for name in node._fields})
    for name, value in fields.items():
        setattr(copy, name, value)
    return ast.copy_location(copy, node)


def _in_fstrings(function: ast.FunctionDef) -> set[int]:
    """ids of the nodes inside f-strings, which are not mutated: before
    Python 3.12 their source positions are not exact."""
    return {
        id(node) for root in ast.walk(function) if isinstance(root, ast.JoinedStr)
        for node in ast.walk(root)
    }


def mutants(sites: tuple[str, ...]) -> list[Mutant]:
    out = []
    for site in sites:
        filename, qualname = site.split(":")
        path = f"src/treeshift/{filename}"
        function = _function(ast.parse((ROOT / path).read_text(encoding="utf-8")), qualname)
        skipped = _in_fstrings(function)
        nodes = sorted(
            (node for node in ast.walk(function)
             if id(node) not in skipped and hasattr(node, "end_col_offset")),
            key=lambda node: (node.lineno, node.col_offset),
        )
        seen: dict[str, int] = {}
        for node in nodes:
            for mutated, change in _variants(node):
                text = ast.unparse(mutated)
                if not isinstance(node, ast.stmt):
                    text = f"({text})"
                # the line is counted from the def, so an id outlives edits elsewhere
                name = f"{filename}:{qualname} +{node.lineno - function.lineno}:{node.col_offset} {change}"
                seen[name] = seen.get(name, 0) + 1  # nested nodes may start together
                out.append(Mutant(
                    name if seen[name] == 1 else f"{name} #{seen[name]}", path,
                    (node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset), text,
                ))
    return out


def apply(source: str, mutant: Mutant) -> str:
    lines = source.splitlines(keepends=True)
    (l0, c0), (l1, c1) = mutant.start, mutant.end
    head = "".join(lines[: l0 - 1]) + lines[l0 - 1][:c0]
    tail = lines[l1 - 1][c1:] + "".join(lines[l1:])
    return head + mutant.text + tail


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def _passes(argv: list[str], cwd: Path, timeout: float, last_line: str | None = None) -> bool:
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    try:
        done = subprocess.run(
            [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True,
            timeout=timeout, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return False
    if done.returncode:
        return False
    return last_line is None or done.stdout.strip().splitlines()[-1:] == [last_line]


def checks_pass(copy: Path) -> bool:
    """Tier-1 with ``-x``, then ``verify --seed 0``, in ``copy``.  Tier-1
    leaves out the test of this tool, which checks its lists against the
    sources unmutated."""
    tier1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_mutate.py"]
    return _passes(tier1, copy, TIER1_TIMEOUT_S) and _passes(
        ["-m", "treeshift.cli", "verify", "--seed", "0"], copy, VERIFY_TIMEOUT_S,
        "0 mismatches in 3000 checks",
    )


def survives(mutant: Mutant, copy: Path) -> bool:
    target = copy / mutant.path
    original = target.read_text(encoding="utf-8")
    target.write_text(apply(original, mutant), encoding="utf-8")
    try:
        return checks_pass(copy)
    finally:
        target.write_text(original, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", type=int, help="run this many mutants, drawn with SEED")
    parser.add_argument("--list", action="store_true", help="list the mutants and run none")
    args = parser.parse_args(argv)
    chosen = mutants(SITES)
    if args.sample is not None:
        chosen = random.Random(SEED).sample(chosen, min(args.sample, len(chosen)))
    if args.list:
        for mutant in chosen:
            print(mutant.id)
        return 0
    entries = json.loads(SURVIVORS.read_text(encoding="utf-8"))
    equivalent = {entry["mutant"] for entry in entries if "equivalent" in entry}
    survivors = []
    with tempfile.TemporaryDirectory(prefix="treeshift-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out"))
        if not checks_pass(copy):
            print("the unmutated copy fails its checks: no mutant run", file=sys.stderr)
            return 2
        for i, mutant in enumerate(chosen, 1):
            alive = survives(mutant, copy)
            survivors += [mutant.id] if alive else []
            print(f"[{i}/{len(chosen)}] {'SURVIVED' if alive else 'killed'}: {mutant.id}",
                  flush=True)
    unlisted = [m for m in survivors if m not in equivalent]
    print(json.dumps({
        "mutants": len(chosen), "killed": len(chosen) - len(survivors),
        "survivors": survivors, "unlisted_survivors": unlisted,
    }))
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
