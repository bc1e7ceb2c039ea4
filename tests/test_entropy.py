import json
import math
import random

import pytest

import treeshift.entropy
from treeshift import cli
from treeshift.entropy import NOISE_FLOOR, RateFit, fit_rate, topological_entropy
from treeshift.errors import SizeGuardError
from treeshift.matrices import BinaryMatrix
from treeshift.ray import Ray
from treeshift.transfer import strip_entropy_closed

from support import imported_names

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

    def test_gap_needs_two_estimates(self, golden_tree):
        one = topological_entropy(golden_tree, G, 1)
        assert one.gap is None and one.h_ref == one.rows[1].estimate
        two = topological_entropy(golden_tree, G, 2)
        assert two.gap == abs(two.rows[2].estimate - two.rows[1].estimate) > 0

    def test_warns_on_non_primitive_adjacency(self, golden_tree):
        swap = BinaryMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.warns(UserWarning, match="not primitive"):
            topological_entropy(golden_tree, swap, 4)

    @pytest.mark.filterwarnings("error")  # a warning before the refusal fails the test
    def test_size_guard_refused_before_the_warning(self, two_tree):
        swap = BinaryMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(SizeGuardError):
            topological_entropy(two_tree, swap, 1024)

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

    def test_too_few_points_when_the_floor_drops_none(self):
        # two residuals far above the floor give no fit, but the floor
        # dropped neither; dropping the third of three is the floor's doing
        fit = fit_rate([(2, 9.8e-3), (3, 4.8e-3)])
        assert (fit.status, fit.points, fit.slope) == ("too-few-points", 2, None)
        assert fit_rate([(2, 9.8e-3), (3, 4.8e-3), (4, 0.0)]).status == "below-noise-floor"
        assert fit_rate([]).status == "too-few-points"

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


def converge(capsys, a: str, m: str, ray: str, n: str) -> dict:
    """``converge``'s JSON report for one configuration."""
    argv = ["converge", "--A", a, "--M", m, "--ray", ray, "--n", n, "--format", "json"]
    assert cli.main(argv) == cli.EXIT_OK
    return json.loads(capsys.readouterr().out)


class TestStripConvergence:
    def test_golden_mean_straight_ray(self, capsys):
        report = converge(capsys, "G", "G", "f1^inf", "2:10")
        assert [r["n"] for r in report["rows"]] == list(range(2, 11))
        assert all(r["residual"] >= 0 for r in report["rows"])
        assert report["rows"][-1]["residual"] < 1e-3
        assert report["fitted_rate"]["status"] == "ok"
        assert report["fitted_rate"]["slope"] < 0

    def test_full_shift_residuals_vanish(self, capsys):
        report = converge(capsys, "E:2", "E:2", "(f1 f2)^inf", "1:8")
        for row in report["rows"]:
            assert row["residual"] < 1e-12
        assert report["fitted_rate"]["status"] == "below-noise-floor"

    def test_two_widths_are_too_few_points(self, capsys):
        report = converge(capsys, "G", "G", "f1^inf", "2:3")
        assert all(r["residual"] > 1e-3 for r in report["rows"])
        assert report["fitted_rate"]["status"] == "too-few-points"

    def test_chain_reduction_residuals(self, chain_tree):
        # converge's three calls, at a deeper reference budget than its own
        h_ref = topological_entropy(chain_tree, G, 40).h_ref
        for n in range(1, 21):
            assert abs(strip_entropy_closed(chain_tree, G, Ray((), (0,)), n).value - h_ref) <= 1e-9

    def test_report_serialization(self, capsys, golden_tree):
        # converge's JSON over widths 2..5, against its reference at budget 20
        blob = converge(capsys, "G", "G", "f1^inf", "2:5")
        assert blob["rows"][0]["n"] == 2
        assert blob["fitted_rate"]["status"] in ("ok", "below-noise-floor")
        assert blob["h_ref"] == topological_entropy(golden_tree, G, 20).h_ref
        assert blob["h_ref_n"] == 20
        assert [r["residual"] for r in blob["rows"]] == [
            abs(strip_entropy_closed(golden_tree, G, Ray((), (0,)), n).value - blob["h_ref"])
            for n in range(2, 6)
        ]

    def test_values_in_entropy_range(self, capsys):
        report = converge(capsys, "E:3", "crt:3", "(f1 f2 f3)^inf", "1:5")
        for row in report["rows"]:
            assert -1e-12 <= row["h_strip"] <= math.log(3) + 1e-12


def test_entropy_imports_neither_transfer_nor_ray():
    # converge runs its own study; the reference entropy needs no strips
    assert not imported_names(treeshift.entropy) & {"transfer", "ray"}
