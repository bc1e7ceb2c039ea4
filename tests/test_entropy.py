import json
import math
import random

import pytest

from treeshift import cli
from treeshift.entropy import (
    NOISE_FLOOR,
    RateFit,
    fit_rate,
    strip_convergence,
    topological_entropy,
)
from treeshift.matrices import BinaryMatrix
from treeshift.ray import Ray

G = BinaryMatrix.golden()
PHI = (1 + 5**0.5) / 2


class TestTopologicalEntropy:
    @pytest.mark.parametrize("k", [2, 3])
    def test_full_shift_exact_at_every_depth(self, two_tree, k):
        ek = BinaryMatrix.full(k)
        result = topological_entropy(two_tree, ek, 10)
        for row in result.rows:
            assert abs(row.ratio - math.log(k)) < 1e-12
            if row.estimate is not None:
                assert abs(row.estimate - math.log(k)) < 1e-12
        assert abs(result.h_ref - math.log(k)) < 1e-12

    def test_chain_reaches_golden_mean_entropy(self, chain_tree):
        result = topological_entropy(chain_tree, G, 40)
        assert abs(result.h_ref - math.log(PHI)) < 1e-6
        # the raw quotient is still far away at this depth; the difference
        # quotient is the converged estimator
        assert abs(result.rows[-1].ratio - math.log(PHI)) > 1e-3

    def test_golden_tree_stabilizes(self, golden_tree):
        result = topological_entropy(golden_tree, G, 20)
        halfway = topological_entropy(golden_tree, G, 16)
        assert abs(result.h_ref - halfway.h_ref) < 1e-4
        assert result.gap < 1e-7
        assert 0.4 < result.h_ref < math.log(2)

    def test_warns_on_non_primitive_adjacency(self, golden_tree):
        swap = BinaryMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.warns(UserWarning, match="not primitive"):
            topological_entropy(golden_tree, swap, 4)

    def test_inessential_symbols_trimmed(self, golden_tree):
        # symbol 2 has no successor; the cascade empties symbols 3 then 2
        for rows in ([[1, 1], [0, 0]], [[1, 1, 0], [0, 0, 1], [0, 0, 0]]):
            result = topological_entropy(golden_tree, BinaryMatrix.from_rows(rows), 10)
            assert result.h_ref == 0.0

    def test_no_essential_symbol_rejected(self, golden_tree):
        with pytest.raises(ValueError, match="no essential symbol"):
            topological_entropy(golden_tree, BinaryMatrix.from_rows([[0, 1], [0, 0]]), 4)

    def test_rows_carry_block_sizes(self, golden_tree):
        result = topological_entropy(golden_tree, G, 5)
        assert [r.block_size for r in result.rows] == [1, 3, 6, 11, 19, 32]


class TestFitRate:
    def test_exact_exponential_decay(self):
        points = [(n, math.exp(-n)) for n in range(4, 41)]
        fit = fit_rate(points)
        assert fit.status == "ok"
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.r_squared > 1 - 1e-12

    def test_power_law_mismatch_detectable(self):
        points = [(n, 1.0 / n) for n in range(4, 41)]
        fit = fit_rate(points)
        assert fit.status == "ok"
        assert -0.1 < fit.slope < 0
        assert fit.r_squared < 0.95

    def test_below_noise_floor(self):
        points = [(n, 0.0) for n in range(4, 10)]
        fit = fit_rate(points)
        assert fit.status == "below-noise-floor"
        assert fit.slope is None

    def test_noise_floor_excludes_tiny_residuals(self):
        points = [(n, math.exp(-n)) for n in range(1, 6)] + [(50, 1e-17)]
        fit = fit_rate(points)
        assert fit.points == 5


    @pytest.mark.parametrize("seed", range(8))
    def test_matches_numpy_polyfit(self, seed):
        np = pytest.importorskip("numpy")
        rng = random.Random(800 + seed)
        rate, offset = rng.uniform(-2.0, -0.05), rng.uniform(-5.0, 5.0)
        points = [
            (n, math.exp(rate * n + offset + rng.gauss(0.0, 0.3)))
            for n in range(rng.randint(2, 6), rng.randint(12, 40))
        ]
        usable = [(n, math.log(r)) for n, r in points if r > NOISE_FLOOR]
        slope, intercept = np.polyfit([n for n, _ in usable], [y for _, y in usable], 1)
        fit = fit_rate(points)
        assert fit.status == "ok" and fit.points == len(usable)
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12)


class TestStripConvergence:
    def test_golden_mean_straight_ray(self, golden_tree):
        report = strip_convergence(golden_tree, G, Ray((), (0,)), range(2, 11))
        assert [r.n for r in report.rows] == list(range(2, 11))
        assert all(r.residual >= 0 for r in report.rows)
        assert report.rows[-1].residual < 1e-3
        assert report.rate.status == "ok"
        assert report.rate.slope < 0

    def test_full_shift_residuals_vanish(self, two_tree):
        e2 = BinaryMatrix.full(2)
        report = strip_convergence(two_tree, e2, Ray((), (0, 1)), range(1, 9))
        for row in report.rows:
            assert row.residual < 1e-12
        assert report.rate.status == "below-noise-floor"

    def test_chain_reduction_residuals(self, chain_tree):
        report = strip_convergence(
            chain_tree, G, Ray((), (0,)), range(1, 21), n_budget=40
        )
        for row in report.rows:
            assert row.residual <= 1e-9

    def test_report_serialization(self, capsys, golden_tree):
        # the CLI serializes the report: converge's JSON over the same widths
        report = strip_convergence(golden_tree, G, Ray((), (0,)), range(2, 6))
        argv = ["converge", "--A", "G", "--M", "G", "--ray", "f1^inf", "--n", "2:5"]
        assert cli.main([*argv, "--format", "json"]) == cli.EXIT_OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["rows"][0]["n"] == 2
        assert blob["fitted_rate"]["status"] in ("ok", "below-noise-floor")
        assert blob["h_ref"] == report.h_ref

    def test_values_in_entropy_range(self, crt3_tree):
        e3 = BinaryMatrix.full(3)
        report = strip_convergence(crt3_tree, e3, Ray((), (0, 1, 2)), range(1, 6))
        for row in report.rows:
            assert -1e-12 <= row.value <= math.log(3) + 1e-12
