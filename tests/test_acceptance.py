"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from treeshift.cli import SWEEP_RAYS, SWEEP_TREES, verification_sweep
from treeshift.counting import MODE_EXACT, block_counts
from treeshift.entropy import fit_rate, topological_entropy
from treeshift.matrices import (
    BinaryMatrix,
    LogNonnegMatrix,
    is_primitive,
    product,
    spectral_radius,
)
from treeshift.ray import Ray, check_strip_periodicity
from treeshift.sampling import random_tree_without_full_row, seeded_primitive_matrices
from treeshift.transfer import (
    step_matrix,
    strip_entropy_closed,
    strip_entropy_iterative,
)
from treeshift.tree import crt_preset, is_complete_recursive, validate_tree

import random

G = BinaryMatrix.golden()
PHI = (1 + 5**0.5) / 2

SEED_ORACLE = 0
SEED_CRT = 515
SEED_PERRON = 99
SEED_NO_FULL_ROW = 7

#: additive tolerance of the Perron sandwich in criterion 9
BOUND_TOL = 1e-9

GOLDEN_TREE = validate_tree(G)
CRT3 = crt_preset(3)
TWO_TREE = validate_tree(BinaryMatrix.full(2))

GOLDEN_RAYS = [Ray((), (0,)), Ray((), (0, 1)), Ray((1,), (0,))]
CRT3_RAYS = [Ray((), (0,)), Ray((), (0, 1, 2)), Ray((1, 2), (0, 1, 2))]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_01_oracle_equivalence():
    # exact transfer iteration and block counts equal brute-force counts,
    # integer for integer, across 20 seeded primitive adjacencies, three
    # trees, three rays each, widths 2..4 and 1..5 steps
    start = time.perf_counter()
    checks, mismatches = verification_sweep(base_seed=SEED_ORACLE, matrix_count=20)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    _report(1, ok, f"{checks} exact comparisons, {len(mismatches)} mismatches, {elapsed:.1f}s")
    assert not mismatches, mismatches[:3]
    assert elapsed < 60.0


def test_02_full_shift_exactness():
    worst_strip = 0.0
    worst_top = 0.0
    for k in (2, 3):
        ek = BinaryMatrix.full(k)
        for tree_name, tree in SWEEP_TREES:
            for ray in SWEEP_RAYS[tree_name]:
                for n in range(1, 11):
                    value = strip_entropy_closed(tree, ek, ray, n).value
                    worst_strip = max(worst_strip, abs(value - math.log(k)))
            h_ref = topological_entropy(tree, ek, 10).h_ref
            worst_top = max(worst_top, abs(h_ref - math.log(k)))
    ok = worst_strip <= 1e-12 and worst_top <= 1e-12
    _report(2, ok, f"strip dev {worst_strip:.1e}, entropy dev {worst_top:.1e} (tol 1e-12)")
    assert worst_strip <= 1e-12
    assert worst_top <= 1e-12


def test_03_chain_reduction():
    chain = validate_tree(BinaryMatrix.from_rows([[1]]))
    ray = Ray((), (0,))
    worst = max(
        abs(strip_entropy_closed(chain, G, ray, n).value - math.log(PHI))
        for n in range(1, 21)
    )
    top = abs(topological_entropy(chain, G, 40).h_ref - math.log(PHI))
    ok = worst <= 1e-9 and top <= 1e-6
    _report(3, ok, f"strip dev {worst:.1e} (tol 1e-9), entropy dev {top:.1e} (tol 1e-6)")
    assert worst <= 1e-9
    assert top <= 1e-6


def test_04_golden_mean_convergence():
    start = time.perf_counter()
    h_ref = topological_entropy(GOLDEN_TREE, G, 20).h_ref
    worst_at_14 = 0.0
    all_monotone = True
    worst_slope = -math.inf
    for ray in GOLDEN_RAYS:
        residuals = {
            n: abs(strip_entropy_closed(GOLDEN_TREE, G, ray, n).value - h_ref)
            for n in range(2, 15)
        }
        worst_at_14 = max(worst_at_14, residuals[14])
        all_monotone &= all(residuals[n + 2] <= residuals[n] for n in range(6, 13))
        fit = fit_rate(sorted(residuals.items()))
        worst_slope = max(worst_slope, fit.slope)
    elapsed = time.perf_counter() - start
    ok = worst_at_14 <= 0.02 and all_monotone and worst_slope < 0 and elapsed < 10.0
    _report(
        4,
        ok,
        f"residual@14 {worst_at_14:.1e} (tol 0.02), window-2 monotone {all_monotone}, "
        f"slope {worst_slope:.2f}, {elapsed:.1f}s",
    )
    assert worst_at_14 <= 0.02
    assert all_monotone
    assert worst_slope < 0
    assert elapsed < 10.0


def test_05_complete_recursive_tree_convergence():
    matrices = seeded_primitive_matrices(20, (2, 3), SEED_CRT)
    worst_gap = 0.0
    worst_residual = 0.0
    for a in matrices:
        h_ref = topological_entropy(CRT3, a, 20).h_ref
        for ray in CRT3_RAYS:
            for n in range(2, 9):
                closed = strip_entropy_closed(CRT3, a, ray, n)
                assert closed.method == "closed_form"
                iterative = strip_entropy_iterative(CRT3, a, ray, n, 1000)
                worst_gap = max(worst_gap, abs(closed.value - iterative.value))
            h12 = strip_entropy_closed(CRT3, a, ray, 12).value
            worst_residual = max(worst_residual, abs(h12 - h_ref))
    ok = worst_gap <= 1e-6 and worst_residual <= 0.05
    _report(
        5,
        ok,
        f"closed vs iterative gap {worst_gap:.1e} (tol 1e-6), "
        f"residual@12 {worst_residual:.1e} (tol 0.05)",
    )
    assert worst_gap <= 1e-6
    assert worst_residual <= 0.05


def test_06_two_tree_reduction():
    ray = Ray((), (0,))
    worst = 0.0
    for n in range(1, 9):
        beta = block_counts(TWO_TREE, G, n - 1, MODE_EXACT).values
        reduced_rows = [[beta[0] + beta[1], beta[0] + beta[1]], [beta[0], 0]]
        step = step_matrix(TWO_TREE, G, ray, 1, n, MODE_EXACT)
        assert step.matrix.exact == tuple(tuple(r) for r in reduced_rows)
        by_hand = spectral_radius(LogNonnegMatrix.from_exact(reduced_rows)).rho_log / 2**n
        general = strip_entropy_closed(TWO_TREE, G, ray, n).value
        worst = max(worst, abs(general - by_hand))
    ok = worst <= 1e-9
    _report(6, ok, f"step matrices exact for n<=8, closed-form dev {worst:.1e} (tol 1e-9)")
    assert worst <= 1e-9


def test_07_strip_periodicity():
    all_rays = (
        [(GOLDEN_TREE, r) for r in GOLDEN_RAYS]
        + [(CRT3, r) for r in CRT3_RAYS]
        + [(tree, r) for name, tree in SWEEP_TREES for r in SWEEP_RAYS[name]]
    )
    ok = all(
        check_strip_periodicity(tree, ray, 50) for tree, ray in all_rays
    )
    _report(7, ok, f"profile periodicity at horizon 50 for {len(all_rays)} rays")
    assert ok


def test_08_complete_recursive_characterization():
    positives = [GOLDEN_TREE, CRT3, crt_preset(4)]
    ok = all(is_complete_recursive(t).is_crt for t in positives)
    swap = validate_tree(BinaryMatrix.from_rows([[0, 1], [1, 0]]))
    ok &= not is_complete_recursive(swap).is_crt
    checked = 0
    for i in range(50):
        rng = random.Random(SEED_NO_FULL_ROW * 1000 + i)
        tree = random_tree_without_full_row(rng.randint(2, 4), rng)
        checked += 1
        if is_complete_recursive(tree).is_crt:
            ok = False
    _report(8, ok, f"presets recognized, swap rejected, {checked} full-row-free shapes rejected")
    assert ok


def test_09_perron_outer_bound():
    # The finite-n Perron sandwich over 30 seeded primitive matrices of
    # dimension <= 5 and every 1 <= n <= 20, within BOUND_TOL.  With
    # (rho, v, w) from spectral_radius (w . v = 1), m^n the exact integer
    # power and e the primitivity exponent:
    #   upper, n >= 1:  (m^n)_ij / rho^n <= min(v_i / v_j, w_j / w_i),
    #     from m^n v = rho^n v and w^T m^n = rho^n w^T;
    #   lower, n >= e:  (m^n)_ij / rho^n >= mu rho^-e v_i / max_k v_k,
    #     with mu the least entry of m^e (Meyer, Matrix Analysis, ch. 8);
    # and the limit v w^T lies between the two.  Each side must also be
    # reached within BOUND_TOL on some pair, so a slack bound cannot pass.
    # v w^T <= m^n / rho^n alone is not asserted: it holds only as
    # n -> infinity, since the subdominant term of m^n / rho^n has mixed
    # signs.  The number of pairs that fall below it by more than BOUND_TOL
    # is reported for the record.
    matrices = seeded_primitive_matrices(30, (2, 3, 4, 5), SEED_PERRON)
    upper_pairs = lower_pairs = below_limit = 0
    upper_slack = lower_slack = math.inf
    limit_inside = True
    for m in matrices:
        lm = LogNonnegMatrix.from_exact(m.rows)
        e = is_primitive(m).exponent
        pd = spectral_radius(lm)
        rho = math.exp(pd.rho_log)
        v = np.array(pd.right_vec)
        w = np.array(pd.left_vec)
        upper = np.minimum(v[:, None] / v[None, :], w[None, :] / w[:, None])
        mu = min(min(row) for row in product([lm] * e).exact)
        lower = (mu / rho**e) * v[:, None] / v.max()
        outer = np.outer(v, w)
        limit_inside &= bool((outer <= upper + BOUND_TOL).all())
        limit_inside &= bool((outer >= lower - BOUND_TOL).all())
        for n in range(1, 21):
            ratio = np.array(product([lm] * n).exact, dtype=float) / rho**n
            upper_pairs += 1
            upper_slack = min(upper_slack, float((upper - ratio).min()))
            if n >= e:
                lower_pairs += 1
                lower_slack = min(lower_slack, float((ratio - lower).min()))
            below_limit += bool((outer - ratio).max() > BOUND_TOL)
    ok = limit_inside and all(abs(s) <= BOUND_TOL for s in (upper_slack, lower_slack))
    _report(
        9,
        ok,
        f"finite-n Perron sandwich: upper on {upper_pairs} (matrix, n) pairs, worst "
        f"slack {upper_slack:.1e}; lower on {lower_pairs} pairs with n >= e, worst "
        f"slack {lower_slack:.1e} (tol 1e-9); limit v w^T inside: {limit_inside}; "
        f"{below_limit} of {30 * 20} pairs below the limit v w^T (not asserted)",
    )
    assert upper_slack >= -BOUND_TOL, f"upper bound violated by {-upper_slack:.2e}"
    assert lower_slack >= -BOUND_TOL, f"lower bound violated by {-lower_slack:.2e}"
    assert upper_slack <= BOUND_TOL, f"upper bound never reached, slack {upper_slack:.2e}"
    assert lower_slack <= BOUND_TOL, f"lower bound never reached, slack {lower_slack:.2e}"
    assert limit_inside, "limit v w^T outside the finite-n sandwich"


def test_10_full_tree_ray_independence():
    rays = [
        Ray((), (0,)),
        Ray((), (1,)),
        Ray((1,), (0,)),
        Ray((0,), (1,)),
        Ray((0, 0), (1,)),
    ]
    ok = True
    for n in range(1, 11):
        values = {strip_entropy_closed(TWO_TREE, G, ray, n).value for ray in rays}
        if len(values) != 1:
            ok = False
    _report(10, ok, "closed-form strip entropies bit-identical across 5 rays, n<=10")
    assert ok
