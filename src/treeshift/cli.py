"""Command-line front door: config ingestion, subcommands, report emission.

Subcommands: check | entropy | strip | converge | verify.  Configuration
comes from an optional JSON file plus flag overrides; outputs are CSV
(header always, 12 significant digits, exact integers as decimal strings)
or JSON, written to stdout or --out.  Exit codes: 0 success, 1 runtime size
guard, 2 config error, 3 verification mismatch.

Generators in the textual interface are 1-based (f1..fd, matching the ray
shorthand "f2(f1 f2)^inf"); the library itself is 0-based.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass
from typing import Any, Sequence

from .counting import MODE_EXACT, MODE_LOG, block_counts
from .entropy import DEFAULT_N_BUDGET, strip_convergence, topological_entropy
from .errors import SizeGuardError
from .matrices import BinaryMatrix, essential, is_primitive
from .oracle import brute_block_counts, brute_strip_counts
from .ray import Ray, validate_ray
from .sampling import seeded_primitive_matrices
from .transfer import period_matrix, strip_counts, strip_entropy_closed
from .tree import MarkovTree, crt_preset, is_complete_recursive, validate_tree

EXIT_OK = 0
EXIT_GUARD = 1
EXIT_CONFIG = 2
EXIT_MISMATCH = 3

#: the keys a config file may hold; each one has a flag of the same name
CONFIG_KEYS = ("A", "M", "ray", "n", "format", "seed", "out")


class ConfigError(ValueError):
    """Invalid run configuration."""


# ---------------------------------------------------------------------------
# config parsing


def parse_matrix_spec(spec: Any, *, allow_crt: bool) -> BinaryMatrix:
    """A matrix given as rows, or as "G", "E:<d>", or (shapes only) "crt:<d>"."""
    if isinstance(spec, BinaryMatrix):
        return spec
    if isinstance(spec, (list, tuple)):
        try:
            return BinaryMatrix.from_rows(spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad matrix rows: {exc}") from exc
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("["):
            try:
                return parse_matrix_spec(json.loads(text), allow_crt=allow_crt)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad matrix JSON: {exc}") from exc
        if text == "G":
            return BinaryMatrix.golden()
        m = re.fullmatch(r"E:(\d+)", text)
        if m:
            return BinaryMatrix.full(int(m.group(1)))
        m = re.fullmatch(r"crt:(\d+)", text)
        if m and allow_crt:
            return crt_preset(int(m.group(1))).shape
        raise ConfigError(f"unknown matrix preset {spec!r}")
    raise ConfigError(f"cannot parse matrix from {spec!r}")


_RAY_PAREN = re.compile(r"^\s*((?:f\d+\s*)*)\(\s*((?:f\d+\s*)+)\)\s*\^\s*inf\s*$")
_RAY_SIMPLE = re.compile(r"^\s*((?:f\d+\s*)*?)(f\d+)\s*\^\s*inf\s*$")


def _letters(text: str) -> tuple[int, ...]:
    out = []
    for tok in re.findall(r"f(\d+)", text):
        idx = int(tok)
        if idx < 1:
            raise ConfigError("ray letters are 1-based (f1, f2, ...)")
        out.append(idx - 1)
    return tuple(out)


def parse_ray_spec(spec: Any) -> Ray:
    """A ray as {"prefix": [...], "period": [...]} (1-based) or shorthand.

    Shorthand: "f1^inf" repeats f1 forever; "f2(f1 f2)^inf" walks f2 once,
    then repeats f1 f2.
    """
    if isinstance(spec, Ray):
        return spec
    if isinstance(spec, dict):
        try:
            prefix = tuple(int(x) - 1 for x in spec.get("prefix", []))
            period = tuple(int(x) - 1 for x in spec["period"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad ray object: {exc}") from exc
        if any(x < 0 for x in prefix + period):
            raise ConfigError("ray letters are 1-based integers")
        try:
            return Ray(prefix, period)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            try:
                return parse_ray_spec(json.loads(text))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad ray JSON: {exc}") from exc
        m = _RAY_PAREN.fullmatch(text)
        if m:
            return Ray(_letters(m.group(1)), _letters(m.group(2)))
        m = _RAY_SIMPLE.fullmatch(text)
        if m:
            return Ray(_letters(m.group(1)), _letters(m.group(2)))
        raise ConfigError(f"cannot parse ray shorthand {spec!r}")
    raise ConfigError(f"cannot parse ray from {spec!r}")


def parse_n_range(spec: Any) -> tuple[int, int]:
    if isinstance(spec, int):
        return (spec, spec)
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        lo, hi = int(spec[0]), int(spec[1])
    elif isinstance(spec, str):
        parts = spec.split(":") if ":" in spec else spec.split(",")
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ConfigError(f"bad n range {spec!r}")
    else:
        raise ConfigError(f"bad n range {spec!r}")
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad n range {lo}..{hi}")
    return (lo, hi)


@dataclass
class RunConfig:
    a: BinaryMatrix
    tree: MarkovTree
    ray: Ray
    n_range: tuple[int, int]
    fmt: str
    seed: int
    out: str | None
    a_label: str
    tree_label: str
    ray_label: str


def build_config(args: argparse.Namespace) -> RunConfig:
    raw: dict[str, Any] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        for key in raw:
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
    for key in CONFIG_KEYS:
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)

    a_spec = raw.get("A", "G")
    m_spec = raw.get("M", "G")
    ray_spec = raw.get("ray", "f1^inf")
    a = parse_matrix_spec(a_spec, allow_crt=False)
    shape = parse_matrix_spec(m_spec, allow_crt=True)
    try:
        tree = validate_tree(shape)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ray = parse_ray_spec(ray_spec)
    n_range = parse_n_range(raw.get("n", [2, 10]))
    fmt = str(raw.get("format", "csv"))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r}")
    try:
        seed = int(raw.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad integer option: {exc}") from exc
    return RunConfig(
        a=a,
        tree=tree,
        ray=ray,
        n_range=n_range,
        fmt=fmt,
        seed=seed,
        out=raw.get("out"),
        a_label=a_spec if isinstance(a_spec, str) else json.dumps(a_spec),
        tree_label=m_spec if isinstance(m_spec, str) else json.dumps(m_spec),
        ray_label=ray_spec if isinstance(ray_spec, str) else json.dumps(ray_spec),
    )


# ---------------------------------------------------------------------------
# output helpers


def fmt_value(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def emit_csv(columns: Sequence[str], rows: Sequence[dict], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt_value(row[c]) for c in columns])


def emit(config: RunConfig, columns: Sequence[str], rows: Sequence[dict], json_obj: Any) -> None:
    buf = io.StringIO()
    if config.fmt == "csv":
        emit_csv(columns, rows, buf)
    else:
        json.dump(json_obj, buf, indent=2, sort_keys=True)
        buf.write("\n")
    write_output(config, buf.getvalue())


def write_output(config: RunConfig, text: str) -> None:
    """Write a report to --out, or to stdout without it."""
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(config: RunConfig) -> int:
    lines: list[str] = []
    report: dict[str, Any] = {}
    prim = is_primitive(config.a)
    report["a_primitive"] = prim.primitive
    report["a_primitivity_exponent"] = prim.exponent
    kept = essential(config.a)
    a = config.a.restrict(kept)
    trimmed = [s + 1 for s in range(config.a.dim) if s not in kept]
    line = f"A primitive: {'yes (exponent %d)' % prim.exponent if prim else 'no'}"
    if trimmed:
        trimmed_prim = is_primitive(a)
        report["trimmed_symbols"] = trimmed
        report["essential_primitive"] = trimmed_prim.primitive
        line += (
            f" (inessential symbols {trimmed} trimmed; essential part primitive: "
            f"{'yes (exponent %d)' % trimmed_prim.exponent if trimmed_prim else 'no'})"
        )
    lines.append(line)
    tree = config.tree
    lines.append(f"tree valid: yes (d={tree.d})")
    report["tree_valid"] = True
    report["d"] = tree.d
    witness = is_complete_recursive(tree)
    full_rows = sorted(witness.full_rows)
    report["complete_recursive"] = witness.is_crt
    report["full_rows"] = [t + 1 for t in full_rows]
    report["ordering"] = [t + 1 for t in witness.ordering] if witness.ordering else None
    if witness.is_crt:
        lines.append(
            "complete recursive: yes (full rows "
            f"{[t + 1 for t in full_rows]}, ordering {[t + 1 for t in witness.ordering]})"
        )
    else:
        lines.append("complete recursive: no")
    lines.append(f"full rows: {len(full_rows)}")
    try:
        validate_ray(tree, config.ray)
        ray_ok = True
        lines.append(f"ray admissible: yes ({config.ray.describe()})")
    except ValueError as exc:
        ray_ok = False
        lines.append(f"ray inadmissible: {exc}")
    report["ray_admissible"] = ray_ok
    period_primitive: dict[int, bool] = {}
    if ray_ok:
        lo, hi = config.n_range
        for n in range(lo, hi + 1):
            primitive = bool(period_matrix(tree, a, config.ray, n, MODE_LOG).support_primitivity)
            period_primitive[n] = primitive
            lines.append(f"period product primitive at n={n}: {'yes' if primitive else 'no'}")
    report["period_product_primitive"] = period_primitive
    text = "\n".join(lines) + "\n"
    if config.fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    write_output(config, text)
    return EXIT_OK


def cmd_entropy(config: RunConfig) -> int:
    budget = max(config.n_range[1], 1)
    result = topological_entropy(config.tree, config.a, budget)
    rows = [
        {
            "n": r.n,
            "log_count": r.log_count,
            "block_size": r.block_size,
            "ratio": r.ratio,
            "estimate": r.estimate,
        }
        for r in result.rows
    ]
    json_obj = {
        "h_ref": result.h_ref,
        "n_used": result.n_used,
        "gap": result.gap,
        "rows": rows,
    }
    csv_rows = [{**row, "estimate": row["estimate"] if row["estimate"] is not None else ""} for row in rows]
    emit(config, ["n", "log_count", "block_size", "ratio", "estimate"], csv_rows, json_obj)
    return EXIT_OK


def cmd_strip(config: RunConfig) -> int:
    validate_ray(config.tree, config.ray)
    lo, hi = config.n_range
    results = [
        strip_entropy_closed(config.tree, config.a, config.ray, n).to_json_dict()
        for n in range(lo, hi + 1)
    ]
    emit(config, ["n", "method", "value", "denominator"], results, results)
    return EXIT_OK


def cmd_converge(config: RunConfig) -> int:
    validate_ray(config.tree, config.ray)
    lo, hi = config.n_range
    report = strip_convergence(
        config.tree,
        config.a,
        config.ray,
        range(lo, hi + 1),
        n_budget=max(DEFAULT_N_BUDGET, hi + 2),
        tree_id=config.tree_label,
        matrix_id=config.a_label,
        ray_id=config.ray_label,
    ).to_json_dict()
    emit(config, ["n", "h_strip", "h_ref", "residual", "method"], report["rows"], report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification sweep (exact transfer counts against the brute-force oracle)

SWEEP_TREES: list[tuple[str, MarkovTree]] = [
    ("E:2", MarkovTree(BinaryMatrix.full(2))),
    ("G", MarkovTree(BinaryMatrix.golden())),
    ("crt:3", crt_preset(3)),
]

SWEEP_RAYS: dict[str, list[Ray]] = {
    "E:2": [Ray((), (0,)), Ray((), (0, 1)), Ray((1,), (0,))],
    "G": [Ray((), (0,)), Ray((), (0, 1)), Ray((1,), (0,))],
    "crt:3": [Ray((), (0,)), Ray((), (0, 1, 2)), Ray((1,), (2, 0))],
}

SWEEP_BLOCK_NS = range(0, 5)
SWEEP_STRIP_NS = range(2, 5)
SWEEP_MS = range(1, 6)


def verification_sweep(base_seed: int = 0, matrix_count: int = 20):
    """Exact-mode transfer counts vs the brute-force oracle, full grid.

    Returns (number of comparisons, list of mismatch records).
    """
    matrices = seeded_primitive_matrices(matrix_count, (2, 3), base_seed)
    checks = 0
    mismatches: list[dict] = []

    def record(cfg: dict, index: str, expected, got) -> None:
        mismatches.append(
            {"config": cfg, "index": index, "expected": str(expected), "got": str(got)}
        )

    for ai, a in enumerate(matrices):
        for tree_name, tree in SWEEP_TREES:
            cfg_base = {"A_index": ai, "A": [list(r) for r in a.rows], "M": tree_name}
            for n in SWEEP_BLOCK_NS:
                expected = brute_block_counts(tree, a, n)
                got = block_counts(tree, a, n, MODE_EXACT).values
                checks += 1
                if tuple(expected) != tuple(got):
                    record({**cfg_base, "n": n}, "block_counts", expected, got)
            for ray in SWEEP_RAYS[tree_name]:
                cfg_ray = {**cfg_base, "ray": ray.describe()}
                for n in SWEEP_STRIP_NS:
                    for m in SWEEP_MS:
                        expected = brute_strip_counts(tree, a, ray, n, m)
                        got = strip_counts(tree, a, ray, n, m, MODE_EXACT)[0].values
                        checks += 1
                        if tuple(expected) != tuple(got):
                            record(
                                {**cfg_ray, "n": n, "m": m},
                                "strip_counts",
                                expected,
                                got,
                            )
    return checks, mismatches


def cmd_verify(config: RunConfig) -> int:
    checks, mismatches = verification_sweep(base_seed=config.seed)
    if mismatches:
        sys.stdout.write(json.dumps(mismatches, indent=2, sort_keys=True) + "\n")
        sys.stdout.write(f"{len(mismatches)} mismatches in {checks} checks\n")
        return EXIT_MISMATCH
    sys.stdout.write(f"0 mismatches in {checks} checks\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description=(
            "Strip entropies of Markov hom tree-shifts on Markov-Cayley trees: "
            "transfer-matrix closed forms, iterative estimates, brute-force "
            "verification, and convergence experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("check", "validate the configuration and report structural facts"),
        ("entropy", "topological entropy table over block depths"),
        ("strip", "strip entropies over a range of widths"),
        ("converge", "strip entropies with residuals against the reference"),
        ("verify", "exact transfer counts against the brute-force oracle"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--A", help='symbol adjacency: rows JSON, "G", or "E:<k>"')
        p.add_argument("--M", help='tree shape: rows JSON, "G", "E:<d>", or "crt:<d>"')
        p.add_argument("--ray", help='ray: {"prefix":[...],"period":[...]} or "f2(f1 f2)^inf"')
        p.add_argument("--n", help="width range LO:HI (or a single width)")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--seed", type=int, help="seed for randomized sweeps")
        p.add_argument("--out", help="output path (default stdout)")
    return parser


COMMANDS = {
    "check": cmd_check,
    "entropy": cmd_entropy,
    "strip": cmd_strip,
    "converge": cmd_converge,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](config)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
