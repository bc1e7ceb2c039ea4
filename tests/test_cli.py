import ast
import csv
import hashlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from treeshift import cli, counting
from treeshift.cli import (
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_OK,
    main,
    parse_matrix_spec,
    parse_n_range,
    parse_ray_spec,
    verification_sweep,
)
from treeshift.errors import SizeGuardError
from treeshift.matrices import BinaryMatrix
from treeshift.ray import Ray
from treeshift.tree import subtree_nodes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_matrix_presets(self):
        assert parse_matrix_spec("G", allow_crt=False) == BinaryMatrix.golden()
        assert parse_matrix_spec("E:3", allow_crt=False) == BinaryMatrix.full(3)
        crt = parse_matrix_spec("crt:3", allow_crt=True)
        assert crt.rows == ((1, 1, 1), (0, 0, 1), (1, 0, 0))

    def test_matrix_json(self):
        assert parse_matrix_spec("[[1,1],[1,0]]", allow_crt=False) == BinaryMatrix.golden()
        assert parse_matrix_spec([[1, 1], [1, 0]], allow_crt=False) == BinaryMatrix.golden()

    def test_matrix_errors(self):
        with pytest.raises(ValueError):
            parse_matrix_spec("crt:3", allow_crt=False)
        with pytest.raises(ValueError):
            parse_matrix_spec("H", allow_crt=True)
        with pytest.raises(ValueError):
            parse_matrix_spec("[[1,2],[1,0]]", allow_crt=False)

    @pytest.mark.parametrize("spec", ["crt:0", "crt:1", "E:0"])
    def test_degenerate_presets_are_config_errors(self, spec):
        with pytest.raises(cli.ConfigError, match="bad matrix preset"):
            parse_matrix_spec(spec, allow_crt=True)

    def test_ray_shorthand(self):
        assert parse_ray_spec("f1^inf") == Ray((), (0,))
        assert parse_ray_spec("f2(f1 f2)^inf") == Ray((1,), (0, 1))
        assert parse_ray_spec("f1 f2 (f3)^inf") == Ray((0, 1), (2,))
        assert parse_ray_spec("f2f1^inf") == Ray((1,), (0,))

    def test_ray_json(self):
        # external ray letters are 1-based
        assert parse_ray_spec({"prefix": [2], "period": [1, 2]}) == Ray((1,), (0, 1))
        assert parse_ray_spec('{"prefix": [], "period": [1]}') == Ray((), (0,))

    def test_ray_errors(self):
        with pytest.raises(ValueError):
            parse_ray_spec("f1")
        with pytest.raises(ValueError):
            parse_ray_spec({"prefix": [0], "period": [1]})
        with pytest.raises(ValueError):
            parse_ray_spec({"prefix": []})

    def test_n_range(self):
        assert parse_n_range("2:14") == (2, 14)
        assert parse_n_range("7") == (7, 7)
        assert parse_n_range([3, 5]) == (3, 5)
        assert parse_n_range(4.0) == (4, 4)
        with pytest.raises(ValueError):
            parse_n_range("5:2")
        with pytest.raises(ValueError):
            parse_n_range("0:3")


class TestCheckCommand:
    def test_healthy_config(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "2:3"
        )
        assert code == EXIT_OK
        assert "A primitive: yes (exponent 2)" in out
        assert "complete recursive: yes" in out
        assert "ray admissible: yes" in out
        assert "period product primitive at n=2: yes" in out

    def test_non_primitive_adjacency_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--A", "[[0,1],[1,0]]", "--M", "G", "--n", "2:2"
        )
        assert code == EXIT_OK
        assert "A primitive: no" in out
        assert "period product primitive at n=2: no" in out

    def test_inessential_symbols_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--A", "[[1,1],[0,0]]", "--M", "G", "--n", "2:2"
        )
        assert code == EXIT_OK
        assert (
            "A primitive: no (inessential symbols [2] trimmed; "
            "essential part primitive: yes (exponent 1))\n"
        ) in out
        # the period product is built from the trimmed A, which is primitive
        assert "period product primitive at n=2: yes" in out

    def test_inadmissible_ray_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--M", "crt:3", "--A", "G", "--ray", "f2(f2)^inf"
        )
        assert code == EXIT_OK
        assert "ray inadmissible" in out

    def test_inadmissible_ray_line_has_one_prefix(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--M", "crt:3", "--A", "G", "--ray", "f2(f2)^inf", "--n", "2:2"
        )
        assert code == EXIT_OK
        assert "ray inadmissible: shape forbids f2 -> f2\n" in out
        assert out.count("ray inadmissible") == 1

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--A", "G", "--M", "G", "--n", "2:2", "--format", "json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["a_primitive"] is True
        assert report["full_rows"] == [1]

    def test_invalid_tree_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--M", "[[1,0],[0,0]]")
        assert code == EXIT_CONFIG
        assert "finite branch" in err

    @pytest.mark.parametrize("flag,spec", [("--M", "crt:0"), ("--M", "crt:1"), ("--M", "E:0"), ("--A", "E:0")])
    def test_degenerate_preset_exits_two(self, capsys, flag, spec):
        code, out, err = run_cli(capsys, "strip", flag, spec)
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: bad matrix preset '{spec}'")
        assert out == ""

    def test_thirteen_generator_full_tree_answers(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--M", "E:13", "--A", "E:2", "--n", "2:2")
        assert code == EXIT_OK
        gens = list(range(1, 14))
        assert f"complete recursive: yes (full rows {gens}, ordering {gens})" in out

    def test_twelve_generator_shape_answers_fast(self):
        # row 1 full, row 2 a self-loop, rows 3..12 point to generator 1: a
        # search over orderings ran for minutes on this shape
        rows = [[1] * 12, [int(j == 1) for j in range(12)]]
        rows += [[int(j == 0) for j in range(12)]] * 10
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        argv = ["check", "--A", "G", "--M", json.dumps(rows), "--n", "2:2"]
        proc = subprocess.run(
            [sys.executable, "-m", "treeshift.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "complete recursive: no" in proc.stdout

    def test_size_guard_maps_to_exit_one(self, capsys, monkeypatch):
        # check meets a guard only in the size tables, past about width 1,470
        # on G (TestDeepInputs); the mapping of SizeGuardError to exit 1 is
        # shared by every subcommand
        def refuse(config):
            raise SizeGuardError("test refusal")

        monkeypatch.setitem(cli.COMMANDS, "check", (refuse, *cli.COMMANDS["check"][1:]))
        code, _, err = run_cli(capsys, "check", "--A", "G", "--M", "G")
        assert code == EXIT_GUARD
        assert err.startswith("size guard: test refusal")

    def test_sizes_checked_once_at_the_top_width(self, capsys, monkeypatch):
        # sites grow with the width, so the top width alone meets the size
        # tables; on a one-generator tree every one of 100,000 widths answers
        calls, sites = [], cli.period_sites
        monkeypatch.setattr(cli, "period_sites", lambda *args: calls.append(args[2]) or sites(*args))
        code, out, _ = run_cli(capsys, "check", "--M", "[[1]]", "--n", "1:100000")
        assert (code, calls) == (EXIT_OK, [100000])
        assert out.count("period product primitive at n=") == 100000
        assert out.endswith("period product primitive at n=100000: yes\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_builds_no_count(self, capsys, monkeypatch, fmt):
        # supp D = (A^T)^ell for the trimmed A, so the period-product lines
        # come from A: the README output, with every counting context refused
        def refuse(*args):
            raise AssertionError("check built a counting context")

        monkeypatch.setattr(counting, "context", refuse)
        code, out, _ = run_cli(capsys, *TestReadmeOutputs.README["check"], "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == TestReadmeOutputs.DIGESTS["check", fmt]


class TestEntropyCommand:
    def test_full_shift_rows_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--A", "E:2", "--M", "E:2", "--n", "1:6"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7  # n = 0..6
        log2 = 0.693147180560
        for row in rows:
            assert abs(float(row["ratio"]) - log2) < 1e-11

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--A", "G", "--M", "G", "--n", "1:8", "--format", "json"
        )
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["n_used"] == 8
        assert 0.4 < blob["h_ref"] < 0.7

    def test_one_estimate_has_no_gap(self, capsys):
        # depth 1 gives one difference quotient, so there is no gap to report
        code, out, _ = run_cli(
            capsys, "entropy", "--A", "G", "--M", "G", "--n", "1:1", "--format", "json"
        )
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["n_used"] == 1 and blob["gap"] is None
        assert blob["h_ref"] == blob["rows"][1]["estimate"]


class TestStripCommand:
    def test_rows_and_denominators(self, capsys):
        code, out, _ = run_cli(
            capsys, "strip", "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "2:4"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["n"] for r in rows] == ["2", "3", "4"]
        assert [r["denominator"] for r in rows] == ["3", "5", "8"]
        assert all(r["method"] == "closed_form" for r in rows)

    def test_cyclic_period_product_gets_closed_form(self, capsys):
        # the period product [[0,0,4],[0,0,4],[64,64,0]] is irreducible but
        # cyclic; its Perron root sqrt(512) gives (log 2) / 2 per site
        with pytest.warns(UserWarning, match="not primitive"):
            code, out, _ = run_cli(
                capsys, "strip", "--A", "[[0,0,1],[0,0,1],[1,1,0]]", "--M", "crt:3",
                "--ray", "f3(f1)^inf", "--n", "3",
            )
        assert code == EXIT_OK
        assert out.splitlines()[1] == "3,closed_form,0.34657359028,9"

    def test_inadmissible_ray_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "strip", "--A", "G", "--M", "crt:3", "--ray", "f2(f2)^inf"
        )
        assert code == EXIT_CONFIG
        assert "inadmissible" in err


class TestInessentialSymbols:
    def test_entropy_and_strip_are_zero(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--A", "[[1,1],[0,0]]", "--M", "G", "--n", "1:20")
        assert code == EXIT_OK
        assert all(float(row["estimate"]) == 0.0 for row in list(csv.DictReader(io.StringIO(out)))[1:])
        code, out, _ = run_cli(
            capsys, "strip", "--A", "[[1,1],[0,0]]", "--M", "G", "--ray", "f1^inf", "--n", "8"
        )
        assert code == EXIT_OK
        assert float(next(csv.DictReader(io.StringIO(out)))["value"]) == 0.0

    @pytest.mark.parametrize("command", ["check", "entropy", "strip", "converge"])
    def test_no_essential_symbol_exits_two(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--A", "[[0,1],[0,0]]", "--M", "G", "--n", "2:3")
        assert code == EXIT_CONFIG
        assert "no essential symbol" in err


class TestConvergeCommand:
    def test_golden_mean_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "converge",
            "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "2:10",
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0].keys()) == ["n", "h_strip", "h_ref", "residual", "method"]
        residuals = [float(r["residual"]) for r in rows]
        assert residuals[-1] < residuals[0]

    def test_json_carries_fit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "converge",
            "--A", "G", "--M", "G", "--ray", "f2(f1 f2)^inf", "--n", "2:8",
            "--format", "json",
        )
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["fitted_rate"]["slope"] < 0
        assert blob["ray"] == "f2(f1 f2)^inf"


class TestEntropyPathsInLog:
    # crt:3 along f1^inf at width 30: exact counts would run to ~1e7 bits;
    # the entropy paths run in log, so there is no mode to choose
    @pytest.mark.parametrize("command", ["strip", "check", "converge"])
    def test_beyond_exact_guard_runs(self, capsys, command):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, command, "--M", "crt:3", "--ray", "f1^inf", "--n", "30")
        assert code == EXIT_OK, err
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("command", ["check", "entropy", "strip", "converge", "verify"])
    def test_mode_flag_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--mode", "exact"])
        assert exc.value.code == EXIT_CONFIG
        assert "--mode" in capsys.readouterr().err


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        checks, mismatches = verification_sweep(base_seed=3)
        assert checks == 3000
        assert mismatches == []

    def test_cli_verify(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "1")
        assert code == EXIT_OK
        assert "0 mismatches" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "verify.txt"
        code, out, err = run_cli(capsys, "verify", "--seed", "0", "--out", str(target))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert target.read_text() == "0 mismatches in 3000 checks\n"


class TestOutputPlumbing:
    def test_determinism(self, capsys, tmp_path):
        args = ["converge", "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "2:8"]
        for fmt in ("csv", "json"):
            out1 = run_cli(capsys, *args, "--format", fmt)[1]
            out2 = run_cli(capsys, *args, "--format", fmt)[1]
            assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            "strip", "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "2:3",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        rows = list(csv.DictReader(io.StringIO(target.read_text())))
        assert len(rows) == 2

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "A": [[1, 1], [1, 0]],
                    "M": "G",
                    "ray": {"prefix": [], "period": [1]},
                    "n": [2, 3],
                    "format": "json",
                }
            )
        )
        code, out, _ = run_cli(capsys, "strip", "--config", str(cfg), "--n", "4:4")
        assert code == EXIT_OK
        blob = json.loads(out)
        assert len(blob) == 1 and blob[0]["n"] == 4

    @pytest.mark.parametrize("key,value", [("mode", "auto"), ("m_max", 1000)])
    def test_unknown_config_key_rejected(self, capsys, tmp_path, key, value):
        # a key the program no longer reads must not be dropped silently
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"A": "G", "n": [2, 3], key: value}))
        code, out, err = run_cli(capsys, "strip", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"unknown config key {key!r}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--A", "E:3"),
            ("verify", "--M", "E:4"),
            ("verify", "--ray", "f1^inf"),
            ("verify", "--n", "9:9"),
            ("verify", "--format", "json"),
            ("entropy", "--ray", "f9^inf"),
            ("entropy", "--seed", "5"),
            ("check", "--seed", "1"),
            ("strip", "--seed", "7"),
            ("converge", "--seed", "1"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_two(self, capsys, argv):
        # each command registers only the flags it reads, so none is dropped silently
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_config_file_keys_serve_every_command(self, capsys, tmp_path):
        # one file may serve several commands, so each takes every key
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"A": "G", "M": "G", "ray": "f1^inf", "n": [2, 3], "seed": 1}))
        for command in ("check", "entropy", "strip", "converge"):
            assert run_cli(capsys, command, "--config", str(cfg))[0] == EXIT_OK

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "strip", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "config error" in err

    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "strip", "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "3:3"
        )
        assert code == EXIT_OK
        value = list(csv.DictReader(io.StringIO(out)))[0]["value"]
        assert len(value.replace(".", "").lstrip("0")) >= 12


class TestConfigRefusals:
    @pytest.mark.parametrize("n", ["a:b", "1.5", "1:2:3", ""])
    def test_bad_n_flag_exits_two(self, capsys, n):
        code, out, err = run_cli(capsys, "strip", "--n", n)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: bad n range")

    @pytest.mark.parametrize("n", [[2, "x"], True, [True, 3], [1.5, 3], 2.5, None])
    def test_bad_n_config_exits_two(self, capsys, tmp_path, n):
        # true is not width 1, nor 1.5 width 1
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": n}))
        code, out, err = run_cli(capsys, "strip", "--config", str(cfg))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: bad n range")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("seed", 1.5),
            ("seed", True),
            ("ray", {"prefix": [1.5], "period": [1]}),
            ("ray", {"prefix": [], "period": [True]}),
            ("A", [[1.5, 1], [1, 0]]),
            ("A", [[1, 1], [1, 0.9]]),
            ("A", [[True, 1], [1, 0]]),
            ("A", ["11", "10"]),
            ("ray", {"prefix": "12", "period": "1"}),
            ("ray", {"prefix": [], "period": "1"}),
        ],
    )
    def test_non_integer_config_value_exits_two(self, capsys, tmp_path, key, value):
        # none of these may run truncated to an integer (as seed 1, f1 or G),
        # nor a string as the list of its characters (as G, or f1 f2 (f1)^inf)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": [2, 2], key: value}))
        code, out, err = run_cli(capsys, "strip", "--config", str(cfg))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error:")

    @pytest.mark.parametrize(
        "key,value", [("A", [[1.0, 1], [1, 0]]), ("n", [2.0, 3]), ("seed", "3")]
    )
    def test_integral_config_values_accepted(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": [2, 3], key: value}))
        code, out, err = run_cli(capsys, "strip", "--config", str(cfg))
        assert (code, err) == (EXIT_OK, "")
        assert out == run_cli(capsys, "strip", "--n", "2:3")[1]

    @pytest.mark.parametrize("value", [2, 5, True])
    def test_non_string_out_exits_two(self, capsys, tmp_path, value):
        # an integer out must not be opened as a file descriptor
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": [2, 2], "out": value}))
        code, out, err = run_cli(capsys, "strip", "--config", str(cfg))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: bad out")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_exits_two(self, capsys, tmp_path, source):
        # an empty path names no file: no report on stdout in its place
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": [2, 2], "out": ""}))
        argv = ["--n", "2:2", "--out", ""] if source == "flag" else ["--config", str(cfg)]
        code, out, err = run_cli(capsys, "strip", *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: bad out ''")

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "strip", "--n", "2:2", "--out", str(target))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: cannot write output")
        assert not target.parent.exists()


class TestDeepInputs:
    """Wide strips and deep blocks give a value or a size-guard refusal,
    from cold tables, at the default recursion limit."""

    @pytest.fixture(autouse=True)
    def cold_tables(self):
        counting.context.cache_clear()
        subtree_nodes.cache_clear()

    @pytest.mark.parametrize("command", ["strip", "check"])
    @pytest.mark.parametrize("width", [330, 1400])
    def test_wide_strip_answers(self, capsys, command, width):
        code, out, err = run_cli(capsys, command, "--A", "G", "--M", "G", "--n", f"{width}:{width}")
        assert (code, err) == (EXIT_OK, "")
        if command == "strip":
            assert out.splitlines()[1].startswith(f"{width},closed_form,0.501553647106,")
        else:
            assert f"period product primitive at n={width}: yes" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("strip", "--A", "G", "--M", "G", "--n", "1500:1500"),
            ("check", "--A", "G", "--M", "G", "--n", "1500:1500"),
            ("entropy", "--A", "G", "--M", "E:2", "--n", "1:1024"),
            ("entropy", "--A", "G", "--M", "G", "--n", "1:1500"),
            ("entropy", "--A", "[[1]]", "--M", "E:2", "--n", "1:1024"),
            ("converge", "--A", "G", "--M", "E:2", "--n", "1022:1022"),
            # the size table stops at the float range instead of filling a million rows
            ("entropy", "--A", "G", "--M", "G", "--n", "1:1000000"),
            ("strip", "--A", "G", "--M", "G", "--n", "1000000:1000000"),
            # full shifts: sites fit, sites * log k does not (the log count would be inf)
            ("entropy", "--A", "E:8", "--M", "E:2", "--n", "1:1022"),
            ("entropy", "--A", "E:4", "--M", "E:2", "--n", "1:1023"),
            ("entropy", "--A", "E:3", "--M", "G", "--n", "1:1473"),
            # a period of several pieces passes the float range before the block does
            ("strip", "--A", "E:2", "--M", "E:2", "--ray", "(f1 f2 f1 f2 f1 f2 f1 f2)^inf",
             "--n", "1021:1021"),
            ("strip", "--A", "E:4", "--M", "E:2", "--ray", "(f1 f2 f1 f2 f1 f2 f1)^inf",
             "--n", "1021:1021"),
        ],
    )
    def test_past_the_float_range_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_GUARD, "")
        assert err.startswith("size guard: ")
        assert "pass the float range" in err

    def test_check_answers_where_the_period_product_is_refused(self, capsys):
        # check reads the period product's primitivity from A and counts
        # nothing, so only the size tables bound its widths: this period's
        # counts pass the float range, its sites do not
        argv = ["--A", "E:4", "--M", "E:2", "--ray", "(f1 f2 f1 f2 f1 f2 f1)^inf",
                "--n", "1021:1021"]
        code, out, err = run_cli(capsys, "strip", *argv)
        assert (code, out) == (EXIT_GUARD, "")
        assert err.startswith("size guard: counts refused: ")
        code, out, err = run_cli(capsys, "check", *argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.endswith("period product primitive at n=1021: yes\n")

    @pytest.mark.parametrize(
        "a, m, width, value",
        [("E:8", "E:2", 1022, "2.07944154168"), ("G", "G", 1473, "0.501553647106")],
    )
    def test_one_piece_period_answers_at_the_first_refused_block_depth(
        self, capsys, a, m, width, value
    ):
        # the strip piece of a one-letter period is smaller than the block
        code, _, err = run_cli(capsys, "entropy", "--A", a, "--M", m, "--n", f"1:{width}")
        assert code == EXIT_GUARD and err.startswith("size guard: ")
        code, out, err = run_cli(capsys, "strip", "--A", a, "--M", m, "--n", f"{width}:{width}")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[1].startswith(f"{width},closed_form,{value},")
        code, out, err = run_cli(capsys, "check", "--A", a, "--M", m, "--n", f"{width}:{width}")
        assert (code, err) == (EXIT_OK, "")
        assert f"period product primitive at n={width}: yes" in out

    def test_slow_growth_answers_by_its_row_sums(self, capsys):
        # the 8-cycle with one self-loop: 8 symbols, but at most 2 successors
        # each, so its log count stays a float where the full shift's would not
        rows = [[int(j == (i + 1) % 8 or i == j == 0) for j in range(8)] for i in range(8)]
        code, out, err = run_cli(capsys, "entropy", "--A", json.dumps(rows), "--M", "E:2",
                                 "--n", "1:1022")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1].startswith("1022,3.6647953309e+307,")

    def test_period_product_past_the_normal_range_is_refused(self):
        # one class of this period product spans 754.8 nats, so its smallest
        # entry scales to 0.0; in a subprocess, so that a hang fails at the timeout
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        argv = ["strip", "--A", "[[0,1,1],[1,0,0],[1,0,0]]", "--M", "E:34",
                "--ray", "f1^inf", "--n", "2:2"]
        proc = subprocess.run(
            [sys.executable, "-m", "treeshift.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_GUARD, "")
        assert "\nsize guard: Perron solve refused: a class's entries span 754.8 nats" in proc.stderr

    @pytest.mark.parametrize(
        "args, digest, last",
        [
            (
                ("--A", "G", "--M", "E:2", "--n", "1:1000"),
                "9770bf8c8bed442db3222e4c1332d11f60ec022784d437c7cdf53e2f0a0c36c1",
                ",0.508898806889,0.508898806889",
            ),
            # with k >= 3 the log count, not the site count, nears the float range
            (
                ("--A", "E:4", "--M", "E:2", "--n", "1:1022"),
                "4ad31d5203740ed69bfd462a0ff55eb55a38d1a34879a9e4ef30e56c8440aa64",
                ",1.38629436112,1.38629436112",
            ),
            (
                ("--A", "E:3", "--M", "G", "--n", "1:1472"),
                "6b23ae9453b14c7b5cb36df62767122894527b16454d19b817795a6d6e7c35ac",
                ",1.09861228867,1.09861228867",
            ),
        ],
    )
    def test_deepest_answers_are_unchanged(self, capsys, args, digest, last):
        # the output of the version before the float-range guard, byte for byte
        code, out, _ = run_cli(capsys, "entropy", *args)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert out.splitlines()[-1].endswith(last)


class TestReadmeOutputs:
    # the README's four report commands, CSV and JSON, byte for byte as the
    # version before the value classes printed them (CPython 3.11, whose
    # sum() adds floats left to right)
    README = {
        "check": ["check", "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "2:6"],
        "entropy": ["entropy", "--A", "G", "--M", "G", "--n", "1:20"],
        "strip": ["strip", "--A", "G", "--M", "G", "--ray", "f2(f1 f2)^inf", "--n", "2:10"],
        "converge": ["converge", "--A", "G", "--M", "crt:3", "--ray", "(f1 f2 f3)^inf", "--n", "2:12"],
    }

    DIGESTS = {
        ("check", "csv"): "c6bbc68febb83000a828ee691c31cc8f7dc38fdbd8cb1eff0154f6d7cbd2bc1c",
        ("entropy", "csv"): "1668a2f5a66d2287c473e91b81d0fe9e076a6a8d537e7bec13c7a6d1d47572e5",
        ("strip", "csv"): "365c74a2d49d761f2660e5052df33a618dd3adebaefebf6b5dda695203b81c7a",
        ("converge", "csv"): "6d3bb04babd24c0610d434a06b50f7ee57d67b320b5f1f37357b43863c4840be",
        ("check", "json"): "1507be163de1974995f4a896c83c4056c69404132f1aed7e4b5d4b5824cab1b7",
        ("entropy", "json"): "734727119e7859e0f21d5d08b4db56f1eae0d6bd7b1b20c4e098986ab7017ff3",
        ("strip", "json"): "fc6a7dd36c0d3c30369297af79e1c70442937ef20862328169e5452096a635bf",
        ("converge", "json"): "79b521236fe2214790d5bcb21ffbf2064b0a8c9a13e4a4901ea738c00541eace",
    }

    @pytest.mark.parametrize(
        "name, fmt, digest", [(name, fmt, digest) for (name, fmt), digest in DIGESTS.items()]
    )
    def test_output_is_byte_identical(self, capsys, name, fmt, digest):
        code, out, _ = run_cli(capsys, *self.README[name], "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestColdStart:
    ROOT = Path(__file__).resolve().parents[1]

    def test_cli_import_loads_no_dataclass_machinery(self):
        # a fresh interpreter imports treeshift.cli without loading any of
        # these modules it did not already hold (a site hook may preload one)
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import treeshift.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(self.ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=self.ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_only_verify_loads_the_oracle(self):
        # a fresh interpreter runs the README's four report commands without
        # loading any of these modules it did not already hold; verify, run
        # after them in the same process, loads them and still agrees.  -S
        # keeps site hooks (a .pth file may import random) out of the way
        script = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from treeshift import cli\n"
            f"for argv in {list(TestReadmeOutputs.README.values())!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "watched = {'treeshift.oracle', 'treeshift.sampling', 'random'}\n"
            "print(sorted(watched & (set(sys.modules) - before)))\n"
            "assert cli.main(['verify']) == 0\n"
        )
        env = {**os.environ, "PYTHONPATH": str(self.ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script],
            cwd=self.ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded, verdict = proc.stdout.strip().splitlines()[-2:]
        assert loaded == "[]"
        assert verdict == "0 mismatches in 3000 checks"


class TestBenchmarkHarness:
    # the benchmark harness imports treeshift names directly; building its
    # inputs fails fast if one of them is renamed or removed
    ROOT = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize("name", ["check", "entropy", "strip", "converge"])
    def test_cli_output_matches_reference(self, capsys, monkeypatch, name):
        # the benchmark's cli-cold workload checks each op's stdout this way
        monkeypatch.syspath_prepend(str(self.ROOT / "perfbench"))
        run = importlib.import_module("run")
        with open(self.ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)["cli"][name]
        code, out, _ = run_cli(capsys, *run.CLI_COMMANDS[name])
        assert code == EXIT_OK
        assert run.values_match(run.parse_cli_output(name, reference), run.parse_cli_output(name, out))

    # attributes the harness reads on returned values, which its source does not tie to a type
    RESULT_FIELDS = [
        ("treeshift.transfer", "TransferStep", "matrix"),
        ("treeshift.transfer", "StripEntropyResult", "value"),
        ("treeshift.transfer", "StripEntropyResult", "method"),
        ("treeshift.matrices", "PerronData", "iterations"),
        ("treeshift.matrices", "PerronData", "converged"),
        ("treeshift.matrices", "LogNonnegMatrix", "support"),
        ("treeshift.counting", "CountVector", "values"),
        ("treeshift.entropy", "TopologicalEntropy", "h_ref"),
        ("treeshift.tree", "MarkovTree", "generators"),
        ("treeshift.ray", "Ray", "c"),
        ("treeshift.ray", "Ray", "ell"),
    ]

    def test_imported_names_exist(self):
        # every name the harness imports from treeshift, and every attribute
        # it reads through a treeshift module (cli.main, counting.context.
        # cache_clear, ...), read from its source
        def resolve(node, modules):
            if isinstance(node, ast.Name):
                return modules.get(node.id)
            if isinstance(node, ast.Attribute):
                owner = resolve(node.value, modules)
                if owner is not None:
                    assert hasattr(owner, node.attr), f"{ast.unparse(node)} is gone"
                    return getattr(owner, node.attr)
            return None

        imported, read = [], []
        for path in sorted((self.ROOT / "perfbench").glob("*.py")):
            modules = {}  # local name -> the treeshift module it is bound to
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:  # "import a.b" binds a, "import a.b as c" binds a.b
                        if alias.name.split(".")[0] == "treeshift":
                            module = importlib.import_module(alias.name)
                            if alias.asname:
                                modules[alias.asname] = module
                            else:
                                modules["treeshift"] = importlib.import_module("treeshift")
                elif (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
                      and node.module.split(".")[0] == "treeshift"):
                    parent = importlib.import_module(node.module)
                    for alias in node.names:
                        if not hasattr(parent, alias.name):  # a submodule, or ModuleNotFoundError
                            importlib.import_module(f"{node.module}.{alias.name}")
                        imported.append((node.module, alias.name))
                        value = getattr(parent, alias.name)
                        if inspect.ismodule(value):
                            modules[alias.asname or alias.name] = value
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and resolve(node, modules) is not None:
                    read.append(ast.unparse(node))
        assert ("treeshift.transfer", "DEFAULT_FALLBACK_STEPS") in imported
        assert {"cli.SWEEP_RAYS", "cli.main", "counting.context.cache_clear",
                "tree_module.subtree_nodes"} <= set(read)
        for module, cls, field in self.RESULT_FIELDS:
            assert hasattr(getattr(importlib.import_module(module), cls), field), (cls, field)

    def test_cli_never_loads_numpy(self):
        # numpy is a test and benchmark dependency only: a fresh interpreter
        # that runs the cli-cold commands must not import it
        script = (
            "import contextlib, io, sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "from common import CLI_COMMANDS\n"
            "from treeshift import cli\n"
            "for argv in CLI_COMMANDS.values():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(self.ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=self.ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    @pytest.mark.parametrize("workload", ["estimator", "exact"])
    def test_setup_only(self, workload):
        env = {**os.environ, "PYTHONPATH": str(self.ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "perfbench/inproc.py", "--workload", workload, "--setup-only"],
            cwd=self.ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ready" in json.loads(proc.stdout.strip().splitlines()[-1])

