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
from typing import Any, Sequence

from .counting import MODE_EXACT, block_counts
from .entropy import DEFAULT_N_BUDGET, fit_rate, topological_entropy
from .errors import SizeGuardError
from .matrices import BinaryMatrix, PrimitivityResult, essential, is_primitive
from .ray import Ray, period_sites, validate_ray
from .transfer import strip_counts, strip_entropy_closed
from .tree import MarkovTree, crt_preset, is_complete_recursive, validate_tree

EXIT_OK = 0
EXIT_GUARD = 1
EXIT_CONFIG = 2
EXIT_MISMATCH = 3

#: the keys a config file may hold, each with the argparse options of its flag
FLAGS = {
    "A": {"help": 'symbol adjacency: rows JSON, "G", or "E:<k>"'},
    "M": {"help": 'tree shape: rows JSON, "G", "E:<d>", or "crt:<d>"'},
    "ray": {"help": 'ray: {"prefix":[...],"period":[...]} or "f2(f1 f2)^inf"'},
    "n": {"help": "width range LO:HI (or a single width)"},
    "format": {"choices": ["csv", "json"]},
    "seed": {"type": int, "help": "seed for randomized sweeps"},
    "out": {"help": "output path (default stdout)"},
}


class ConfigError(ValueError):
    """Invalid run configuration."""


# ---------------------------------------------------------------------------
# config parsing


def config_int(value: Any, what: str) -> int:
    """An int, an integral float or a decimal string; a bool or a fraction
    is a ``ConfigError`` rather than an integer truncated without a word."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"bad {what} {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} {value!r}: {exc}") from exc


def _json(text: str, what: str) -> Any:
    """The value of a JSON text; malformed text is a ``ConfigError`` naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad {what} JSON: {exc}") from exc


def parse_matrix_spec(spec: Any, *, allow_crt: bool) -> BinaryMatrix:
    """A matrix given as rows, or as "G", "E:<d>", or (shapes only) "crt:<d>"."""
    if isinstance(spec, (list, tuple)):
        if not all(isinstance(row, (list, tuple)) for row in spec):  # no string as its characters
            raise ConfigError(f"bad matrix rows {spec!r}: each row must be a list")
        try:
            return BinaryMatrix(tuple(tuple(config_int(x, "entry") for x in row) for row in spec))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad matrix rows: {exc}") from exc
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("["):
            return parse_matrix_spec(_json(text, "matrix"), allow_crt=allow_crt)
        if text == "G":
            return BinaryMatrix.golden()
        full = re.fullmatch(r"E:(\d+)", text)
        crt = re.fullmatch(r"crt:(\d+)", text) if allow_crt else None
        if not (full or crt):
            raise ConfigError(f"unknown matrix preset {spec!r}")
        try:
            if full:
                return BinaryMatrix.full(int(full.group(1)))
            return crt_preset(int(crt.group(1))).shape
        except ValueError as exc:
            raise ConfigError(f"bad matrix preset {spec!r}: {exc}") from exc
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
    if isinstance(spec, dict):
        if not all(isinstance(spec.get(key, []), (list, tuple)) for key in ("prefix", "period")):
            raise ConfigError(f"bad ray object {spec!r}: prefix and period must be lists")
        try:
            prefix = tuple(config_int(x, "ray letter") - 1 for x in spec.get("prefix", []))
            period = tuple(config_int(x, "ray letter") - 1 for x in spec["period"])
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
            return parse_ray_spec(_json(text, "ray"))
        m = _RAY_PAREN.fullmatch(text) or _RAY_SIMPLE.fullmatch(text)
        if m:
            return Ray(_letters(m.group(1)), _letters(m.group(2)))
        raise ConfigError(f"cannot parse ray shorthand {spec!r}")
    raise ConfigError(f"cannot parse ray from {spec!r}")


def parse_n_range(spec: Any) -> tuple[int, int]:
    """Widths as text LO:HI, LO,HI or N, as [LO, HI] or as N, each read by ``config_int``."""
    if isinstance(spec, str):
        parts = spec.split(":") if ":" in spec else spec.split(",")
    elif isinstance(spec, (list, tuple)) and len(spec) == 2:
        parts = spec
    else:
        parts = [spec]
    if len(parts) > 2:
        raise ConfigError(f"bad n range {spec!r}")
    lo, hi = config_int(parts[0], "n range"), config_int(parts[-1], "n range")
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad n range {lo}..{hi}")
    return (lo, hi)


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """The run configuration: the config file's keys, overridden by the flags
    given, each parsed once, with the text of A, M and the ray as labels."""
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
            if key not in FLAGS:
                raise ConfigError(f"unknown config key {key!r}")
    for key in FLAGS:  # each command has flags for some of the keys
        if getattr(args, key, None) is not None:
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
    if "out" in raw and not (isinstance(raw["out"], str) and raw["out"]):
        raise ConfigError(f"bad out {raw['out']!r}: not a path")
    return argparse.Namespace(
        a=a, tree=tree, ray=ray, n_range=n_range, fmt=fmt,
        seed=config_int(raw.get("seed", 0), "seed"), out=raw.get("out"),
        a_label=a_spec if isinstance(a_spec, str) else json.dumps(a_spec),
        tree_label=m_spec if isinstance(m_spec, str) else json.dumps(m_spec),
        ray_label=ray_spec if isinstance(ray_spec, str) else json.dumps(ray_spec),
    )


# ---------------------------------------------------------------------------
# output helpers


def fmt_value(x: Any) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def emit(
    config: argparse.Namespace, columns: Sequence[str], rows: Sequence[dict], json_obj: Any
) -> None:
    buf = io.StringIO()
    if config.fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([fmt_value(row[c]) for c in columns] for row in rows)
    else:
        json.dump(json_obj, buf, indent=2, sort_keys=True)
        buf.write("\n")
    write_output(config, buf.getvalue())


def write_output(config: argparse.Namespace, text: str) -> None:
    """Write a report to --out, or to stdout without it."""
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _primitive(prim: PrimitivityResult) -> str:
    return f"yes (exponent {prim.exponent})" if prim else "no"


def cmd_check(config: argparse.Namespace) -> int:
    tree = config.tree
    _, trimmed, part = essential(config.a)
    prim = is_primitive(config.a) if trimmed else part  # A itself, when it differs from part
    trimmed = [s + 1 for s in trimmed]
    witness = is_complete_recursive(tree)
    full_rows = [t + 1 for t in sorted(witness.full_rows)]
    ordering = [t + 1 for t in witness.ordering] if witness.ordering else None
    ray_error = None
    try:  # admits the ray, then sizes its top width: sizes grow with n, so one width is enough
        period_sites(tree, config.ray, config.n_range[1])
    except ValueError as exc:  # the ray's refusal: a SizeGuardError is no ValueError
        ray_error = str(exc)  # the message starts "ray inadmissible: "
    widths = range(config.n_range[0], config.n_range[1] + 1) if ray_error is None else range(0)
    # D is primitive exactly when the trimmed A is (matrices.essential)
    if config.fmt == "json":
        report = {
            "a_primitive": prim.primitive,
            "a_primitivity_exponent": prim.exponent,
            "tree_valid": True,
            "d": tree.d,
            "complete_recursive": witness.is_crt,
            "full_rows": full_rows,
            "ordering": ordering,
            "ray_admissible": ray_error is None,
            "period_product_primitive": dict.fromkeys(widths, part.primitive),
        }
        if trimmed:
            report["trimmed_symbols"] = trimmed
            report["essential_primitive"] = part.primitive
        write_output(config, json.dumps(report, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    inessential = (f" (inessential symbols {trimmed} trimmed; essential part primitive: "
                   f"{_primitive(part)})" if trimmed else "")
    crt = f"yes (full rows {full_rows}, ordering {ordering})" if witness.is_crt else "no"
    word = "yes" if part else "no"
    lines = [
        f"A primitive: {_primitive(prim)}{inessential}",
        f"tree valid: yes (d={tree.d})",
        f"complete recursive: {crt}",
        f"full rows: {len(full_rows)}",
        ray_error or f"ray admissible: yes ({config.ray.describe()})",
        *(f"period product primitive at n={n}: {word}" for n in widths),
    ]
    write_output(config, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_entropy(config: argparse.Namespace) -> int:
    reference = topological_entropy(config.tree, config.a, config.n_range[1])
    rows = [row._asdict() for row in reference.rows]
    emit(config, ["n", "log_count", "block_size", "ratio", "estimate"], rows,
         {**reference._asdict(), "rows": rows})
    return EXIT_OK


def cmd_strip(config: argparse.Namespace) -> int:
    lo, hi = config.n_range
    results = []
    for n in range(lo, hi + 1):
        result = strip_entropy_closed(config.tree, config.a, config.ray, n)
        diagnostics = dict(result.diagnostics)
        if "trimmed_symbols" in diagnostics:  # symbols are 1-based outside the library
            diagnostics["trimmed_symbols"] = [s + 1 for s in diagnostics["trimmed_symbols"]]
        results.append({
            "n": result.width,
            "method": result.method,
            "value": result.value,
            "denominator": str(result.denominator),
            "diagnostics": diagnostics,
        })
    emit(config, ["n", "method", "value", "denominator"], results, results)
    return EXIT_OK


def cmd_converge(config: argparse.Namespace) -> int:
    # topological_entropy takes no ray and runs first, so the ray is admitted here
    validate_ray(config.tree, config.ray)
    lo, hi = config.n_range
    reference = topological_entropy(config.tree, config.a, max(DEFAULT_N_BUDGET, hi + 2))
    h_ref = reference.h_ref
    rows = []
    for n in range(lo, hi + 1):
        result = strip_entropy_closed(config.tree, config.a, config.ray, n)
        rows.append({"n": n, "h_strip": result.value, "h_ref": h_ref,
                     "residual": abs(result.value - h_ref), "method": result.method})
    rate = fit_rate([(row["n"], row["residual"]) for row in rows])
    emit(config, ["n", "h_strip", "h_ref", "residual", "method"], rows, {
        "tree": config.tree_label,
        "matrix": config.a_label,
        "ray": config.ray_label,
        "h_ref": h_ref,
        "h_ref_n": reference.n_used,
        "h_ref_gap": reference.gap,
        "rows": rows,
        "fitted_rate": rate._asdict(),
        "diagnostics": {},
    })
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


def verification_sweep(base_seed: int = 0):
    """Exact-mode transfer counts vs the brute-force oracle, full grid, 20 adjacencies.

    Returns (number of comparisons, list of mismatch records).  Only this
    sweep loads the oracle and the sampler, so the other commands never do.
    """
    from .oracle import brute_block_counts, brute_strip_counts
    from .sampling import seeded_primitive_matrices

    compared = []  # (config, index, expected, got), one entry per check
    for ai, a in enumerate(seeded_primitive_matrices(20, (2, 3), base_seed)):
        for tree_name, tree in SWEEP_TREES:
            cfg_base = {"A_index": ai, "A": [list(r) for r in a.rows], "M": tree_name}
            compared += [
                ({**cfg_base, "n": n}, "block_counts", brute_block_counts(tree, a, n),
                 block_counts(tree, a, n, MODE_EXACT).values)
                for n in SWEEP_BLOCK_NS
            ]
            for ray in SWEEP_RAYS[tree_name]:
                cfg_ray = {**cfg_base, "ray": ray.describe()}
                compared += [
                    ({**cfg_ray, "n": n, "m": m}, "strip_counts",
                     brute_strip_counts(tree, a, ray, n, m),
                     strip_counts(tree, a, ray, n, m, MODE_EXACT)[0].values)
                    for n in SWEEP_STRIP_NS for m in SWEEP_MS
                ]
    mismatches = [{"config": cfg, "index": index, "expected": str(expected), "got": str(got)}
                  for cfg, index, expected, got in compared if tuple(expected) != tuple(got)]
    return len(compared), mismatches


def cmd_verify(config: argparse.Namespace) -> int:
    checks, mismatches = verification_sweep(base_seed=config.seed)
    listing = json.dumps(mismatches, indent=2, sort_keys=True) + "\n" if mismatches else ""
    write_output(config, f"{listing}{len(mismatches)} mismatches in {checks} checks\n")
    return EXIT_MISMATCH if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


#: each command: its function, the flags it reads besides --config and --out, its help
COMMANDS = {
    "check": (cmd_check, "A M ray n format",
              "validate the configuration and report structural facts"),
    "entropy": (cmd_entropy, "A M n format", "topological entropy table over block depths"),
    "strip": (cmd_strip, "A M ray n format", "strip entropies over a range of widths"),
    "converge": (cmd_converge, "A M ray n format",
                 "strip entropies with residuals against the reference"),
    "verify": (cmd_verify, "seed", "exact transfer counts against the brute-force oracle"),
}


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
    for name, (_, names, help_text) in COMMANDS.items():  # only the flags each command reads
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for flag in [*names.split(), "out"]:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        return COMMANDS[args.command][0](config)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:  # a ConfigError, or an input a command refuses
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
