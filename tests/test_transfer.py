import itertools
import json
import math
import random
from functools import partial

import pytest

from treeshift import cli, counting, matrices, transfer
from treeshift import ray as ray_module
from treeshift.cli import SWEEP_RAYS, SWEEP_TREES
from treeshift.counting import (
    EXACT_BIT_GUARD,
    MODE_EXACT,
    MODE_LOG,
    PeriodRecord,
    block_counts,
    resolve_mode,
    subtree_counts,
)
from treeshift.entropy import fit_rate, topological_entropy
from treeshift.errors import SizeGuardError
from treeshift.matrices import (
    EXACT,
    LOG,
    NEG_INF,
    BinaryMatrix,
    LogNonnegMatrix,
    Semiring,
    essential,
    is_primitive,
    log_sum,
    product,
    spectral_radius,
)
from treeshift.oracle import brute_strip_counts, path_strip_region
from treeshift.ray import (
    Ray,
    lambda_strip,
    period_sites,
    phase_profiles,
    region_sites,
    step_profile,
)
from treeshift.sampling import random_primitive_matrix, seeded_primitive_matrices
from treeshift.transfer import (
    _factor_max,
    _power_apply,
    _powering_wins,
    initial_strip_counts,
    period_matrix,
    step_matrix,
    strip_counts,
    strip_entropy_closed,
    strip_entropy_iterative,
)
from treeshift.tree import FLOAT_SITES, crt_preset, delta_size, subtree_nodes, validate_tree

from support import (
    random_ray,
    reference_factor_max,
    reference_kernels,
    reference_matmul,
    reference_power_apply,
    reference_step,
    strip_region,
    transpose,
)

G = BinaryMatrix.golden()
PHI = (1 + 5**0.5) / 2

RAY_STRAIGHT = Ray((), (0,))
RAY_MIXED = Ray((), (0, 1))


def one_level_weight_matrix(tree, a, n):
    """a^T Hadamard B with b_st = sum_l a(s,l) * block(n-1)(l)."""
    beta = block_counts(tree, a, n - 1, MODE_EXACT).values
    k = a.dim
    rows = [
        [
            a.entry(i, s) * sum(a.entry(s, l) * beta[l] for l in range(k))
            for i in range(k)
        ]
        for s in range(k)
    ]
    return tuple(tuple(r) for r in rows)


def cyclic_rho_log(tree, a, ray, n):
    """log rho of a 2 x 2 exact period product from its characteristic
    polynomial; its eigenvalues are real because its entries are nonnegative."""
    (p, q), (r, s) = period_matrix(tree, a, ray, n, MODE_EXACT).exact
    return math.log((p + s + math.sqrt((p - s) ** 2 + 4 * q * r)) / 2)


def two_level_weight_matrix(tree, a, n):
    """a^T Hadamard B with b_st = sum_j (sum_l a(s,l) a(l,j)) * block(n-2)(j)."""
    beta = block_counts(tree, a, n - 2, MODE_EXACT).values
    k = a.dim
    rows = []
    for s in range(k):
        weight = sum(
            sum(a.entry(s, l) * a.entry(l, j) for l in range(k)) * beta[j]
            for j in range(k)
        )
        rows.append(tuple(a.entry(i, s) * weight for i in range(k)))
    return tuple(rows)


class TestStepMatrix:
    def test_no_branch_step_is_bare_transpose(self, golden_tree):
        for n in (1, 3, 6):
            step = step_matrix(golden_tree, G, RAY_MIXED, 2, n, MODE_EXACT)
            assert step.matrix.exact == transpose(G).rows

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_free_branch_step_uses_one_level_counts(self, golden_tree, seed):
        a = G if seed is None else random_primitive_matrix(
            random.Random(seed).choice([2, 3]), random.Random(seed)
        )
        for n in range(1, 7):
            step = step_matrix(golden_tree, a, RAY_MIXED, 1, n, MODE_EXACT)
            assert step.matrix.exact == one_level_weight_matrix(golden_tree, a, n)

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_restricted_branch_step_uses_two_level_counts(self, golden_tree, seed):
        a = G if seed is None else random_primitive_matrix(
            random.Random(seed).choice([2, 3]), random.Random(seed)
        )
        for n in range(2, 7):
            step = step_matrix(golden_tree, a, RAY_STRAIGHT, 1, n, MODE_EXACT)
            assert step.matrix.exact == two_level_weight_matrix(golden_tree, a, n)

    def test_support_is_adjacency_transpose(self, crt3_tree):
        for seed in range(4):
            rng = random.Random(seed)
            a = random_primitive_matrix(rng.choice([2, 3]), rng)
            for j in (1, 2, 3):
                step = step_matrix(crt3_tree, a, Ray((), (0, 1, 2)), j, 4, MODE_EXACT)
                assert step.matrix.support() == transpose(a)

    def test_golden_step_supports_primitive_for_primitive_a(self, golden_tree):
        for seed in range(4):
            rng = random.Random(10 + seed)
            a = random_primitive_matrix(rng.choice([2, 3]), rng)
            for ray, j in [(RAY_STRAIGHT, 1), (RAY_MIXED, 1), (RAY_MIXED, 2)]:
                step = step_matrix(golden_tree, a, ray, j, 4, MODE_EXACT)
                assert is_primitive(step.matrix.support())

    def test_log_mode_tracks_exact(self, golden_tree):
        for n in (2, 4):
            exact = step_matrix(golden_tree, G, RAY_STRAIGHT, 1, n, MODE_EXACT)
            logged = step_matrix(golden_tree, G, RAY_STRAIGHT, 1, n, MODE_LOG)
            for s in range(2):
                for i in range(2):
                    e = exact.matrix.exact[s][i]
                    if e == 0:
                        assert logged.matrix.logs[s][i] == float("-inf")
                    else:
                        assert logged.matrix.logs[s][i] == pytest.approx(
                            math.log(e), rel=1e-12
                        )

    def test_step_index_must_be_positive(self, golden_tree):
        with pytest.raises(ValueError):
            step_matrix(golden_tree, G, RAY_STRAIGHT, 0, 3, MODE_EXACT)

    def test_period_width_must_be_positive(self, golden_tree):
        with pytest.raises(ValueError, match="strip width n must be >= 1"):
            period_matrix(golden_tree, G, RAY_STRAIGHT, 0, MODE_LOG)


class TestTwoTreeReduction:
    def test_step_matrix_reduces_to_block_count_form(self, two_tree):
        # on the full 2-tree every interior step has one off-branch and the
        # step matrix collapses to [[b, b], [b0, 0]] with b the total and b0
        # the first-symbol block count one level down
        for n in range(1, 9):
            beta = block_counts(two_tree, G, n - 1, MODE_EXACT).values
            expected = (
                (beta[0] + beta[1], beta[0] + beta[1]),
                (beta[0], 0),
            )
            for ray, j in [(RAY_STRAIGHT, 1), (RAY_MIXED, 1), (RAY_MIXED, 2)]:
                step = step_matrix(two_tree, G, ray, j, n, MODE_EXACT)
                assert step.matrix.exact == expected

    def test_reduced_closed_form_matches_pipeline(self, two_tree):
        for n in range(1, 9):
            beta = block_counts(two_tree, G, n - 1, MODE_EXACT).values
            reduced = LogNonnegMatrix.from_exact(
                [[beta[0] + beta[1], beta[0] + beta[1]], [beta[0], 0]]
            )
            by_hand = spectral_radius(reduced).rho_log / 2**n
            general = strip_entropy_closed(two_tree, G, RAY_STRAIGHT, n).value
            assert general == pytest.approx(by_hand, abs=1e-9)


class TestRayValidation:
    """step_matrix and initial_strip_counts refuse an inadmissible ray, as
    strip_counts and period_matrix do."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: step_matrix(t, G, Ray((), (5,)), 1, 3, MODE_EXACT),  # letter out of range
            lambda t: initial_strip_counts(t, G, Ray((), (5,)), 3, MODE_EXACT),
            lambda t: step_matrix(t, G, Ray((), (1,)), 1, 3, MODE_EXACT),  # f2 f2 is forbidden
        ],
        ids=["step-out-of-range", "initial-out-of-range", "step-forbidden"],
    )
    def test_inadmissible_ray_refused(self, golden_tree, call):
        with pytest.raises(ValueError, match="ray inadmissible"):
            call(golden_tree)

    @pytest.mark.filterwarnings("error")  # a warning before the refusal fails the test
    @pytest.mark.parametrize(
        "call",
        [
            # A is not primitive, which is warned of only with a value
            lambda t: strip_entropy_closed(t, BinaryMatrix.from_rows([[0, 1], [1, 0]]),
                                           Ray((), (1,)), 3),
            # m_max = 0 is refused too, but after the ray
            lambda t: strip_entropy_iterative(t, G, Ray((), (1,)), 3, 0),
        ],
        ids=["closed-non-primitive", "iterative-m_max-0"],
    )
    def test_ray_refused_before_anything_else(self, golden_tree, call):
        with pytest.raises(ValueError, match="ray inadmissible"):
            call(golden_tree)


class TestInitialCounts:
    def test_single_symbol(self, crt3_tree):
        one = BinaryMatrix.from_rows([[1]])
        assert initial_strip_counts(crt3_tree, one, Ray((), (0,)), 3, MODE_EXACT).values == (1,)

    def test_golden_mean_width_two(self, golden_tree):
        got = initial_strip_counts(golden_tree, G, RAY_STRAIGHT, 2, MODE_EXACT)
        assert got.values == (3, 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_full_shift_free_labeling(self, two_tree, k):
        ek = BinaryMatrix.full(k)
        for n in (1, 2, 4):
            lam = lambda_strip(two_tree, step_profile(two_tree, RAY_STRAIGHT, 0), n)
            got = initial_strip_counts(two_tree, ek, RAY_STRAIGHT, n, MODE_EXACT)
            assert got.values == (k ** (lam - 1),) * k


class TestStripCounts:
    @pytest.mark.parametrize(
        "tree_name,prefix,period",
        [
            ("golden", (), (0,)),
            ("golden", (), (0, 1)),
            ("golden", (1,), (0,)),
            ("golden", (1,), (0, 1)),
            ("crt3", (1, 2), (0, 1, 2)),
        ],
    )
    def test_exact_matches_oracle(self, request, tree_name, prefix, period):
        # m = 0..4, then both sides of the first period wrap (c + ell - 1 ..
        # c + ell + 1) and the step one period past it; logs track the counts
        tree = request.getfixturevalue(f"{tree_name}_tree")
        a = G if tree_name == "golden" else random_primitive_matrix(3, random.Random(5))
        ray = Ray(prefix, period)
        c, ell = ray.c, ray.ell
        for n in (2, 3):
            for m in sorted({*range(5), c + ell - 1, c + ell, c + ell + 1, c + 2 * ell + 1}):
                got = strip_counts(tree, a, ray, n, m, MODE_EXACT)[0].values
                assert got == brute_strip_counts(tree, a, ray, n, m), (n, m)
                log_vec, norm = strip_counts(tree, a, ray, n, m, MODE_LOG)
                for e, l in zip(got, log_vec.values):
                    if e == 0:
                        assert l == NEG_INF
                    else:
                        assert math.isclose(norm + l, math.log(e), rel_tol=1e-12), (n, m, e)

    def test_full_shift_total(self, two_tree):
        e2 = BinaryMatrix.full(2)
        vec, norm = strip_counts(two_tree, e2, RAY_STRAIGHT, 2, 3, MODE_EXACT)
        region = path_strip_region(two_tree, RAY_STRAIGHT, 2, 3)
        assert norm == 0.0
        assert sum(vec.values) == 2 ** len(region.nodes)

    def test_single_symbol_log_mode(self, chain_tree):
        one = BinaryMatrix.from_rows([[1]])
        vec, norm = strip_counts(chain_tree, one, Ray((), (0,)), 2, 5, MODE_LOG)
        assert norm + log_sum(vec.values) == pytest.approx(0.0, abs=1e-14)

    def test_log_mode_tracks_exact(self, crt3_tree):
        rng = random.Random(7)
        a = random_primitive_matrix(3, rng)
        ray = Ray((1,), (2, 0))
        # m = 37 and 64 cross whole periods by powering the period product
        for n, m in [(2, 4), (3, 6), (2, 37), (3, 64)]:
            exact_vec, _ = strip_counts(crt3_tree, a, ray, n, m, MODE_EXACT)
            log_vec, norm = strip_counts(crt3_tree, a, ray, n, m, MODE_LOG)
            for e, l in zip(exact_vec.values, log_vec.values):
                if e == 0:
                    assert l == float("-inf")
                else:
                    assert norm + l == pytest.approx(math.log(e), rel=1e-9)


    def test_powered_cells_match_oracle(self, monkeypatch):
        # verify's grid (m <= 5) never crosses whole periods by powering;
        # its trees and rays at m = 12, 25, 40 mostly do
        calls = []
        power_apply = transfer._power_apply
        monkeypatch.setattr(
            transfer, "_power_apply", lambda *args: calls.append(1) or power_apply(*args)
        )
        cells = powered = 0
        for a, tree, ray, n, m in powered_cells():
            before = len(calls)
            got = strip_counts(tree, a, ray, n, m, MODE_EXACT)[0].values
            assert got == brute_strip_counts(tree, a, ray, n, m), (a, tree, ray, n, m)
            cells += 1
            powered += len(calls) > before
        assert cells == 162
        assert powered >= 120

    @pytest.mark.parametrize(
        "tree_name,prefix,period",
        [("crt3", (1, 2), (0, 1, 2)), ("crt3", (), (0, 1, 2)), ("golden", (1,), (0,))],
    )
    def test_exact_matches_hand_stepped_matvec(self, request, tree_name, prefix, period):
        # every m < c, m = c and every residue mod ell, the jumps of q whole
        # periods just below and just above the stepping/powering crossover,
        # then a long jump
        tree = request.getfixturevalue(f"{tree_name}_tree")
        ray = Ray(prefix, period)
        n = 2
        for k in (2, 3):
            a = random_primitive_matrix(k, random.Random(5))
            crossover = next(q for q in range(1, 30) if _powering_wins(k, ray.ell, q))
            assert crossover > 1  # q = crossover - 1 is a whole-period jump that steps
            v = list(initial_strip_counts(tree, a, ray, n, MODE_EXACT).values)
            stepped = [v]
            for j in range(1, 101):
                v = EXACT.matvec(step_matrix(tree, a, ray, j, n, MODE_EXACT).matrix.exact, v)
                stepped.append(v)
            near = [
                ray.c + q * ray.ell + r for q in (crossover - 1, crossover) for r in (0, ray.ell - 1)
            ]
            for m in [*range(3 * (ray.c + ray.ell) + 3), *near, 100]:
                vec, norm = strip_counts(tree, a, ray, n, m, MODE_EXACT)
                assert list(vec.values) == stepped[m]
                assert norm == 0.0

    @pytest.mark.parametrize(
        "tree_name,prefix,period",
        [("crt3", (1, 2), (0, 1, 2)), ("crt3", (), (0, 1, 2)), ("golden", (1,), (0,))],
    )
    def test_log_steps_match_hand_stepped_reference(self, request, tree_name, prefix, period):
        # below the powering crossover the loop steps node by node, so its log
        # counts and scale keep the bits of the reference step, whole periods
        # of q < crossover included
        tree = request.getfixturevalue(f"{tree_name}_tree")
        ray = Ray(prefix, period)
        n = 2
        for k in (2, 3):
            a = random_primitive_matrix(k, random.Random(5))
            crossover = next(q for q in range(1, 30) if _powering_wins(k, ray.ell, q))
            root = initial_strip_counts(tree, a, ray, n, MODE_LOG).values
            [v], scale = reference_factor_max(LOG, [list(root)])
            for m in range(ray.c + crossover * ray.ell):
                if m:
                    rows = step_matrix(tree, a, ray, m, n, MODE_LOG).matrix.logs
                    v, top = reference_step(LOG, rows, v)
                    scale += top
                vec, norm = strip_counts(tree, a, ray, n, m, MODE_LOG)
                assert (vec.values, norm) == (tuple(v), scale), m

    @pytest.mark.parametrize("prefix,period", [((), (0,)), ((), (0, 1)), ((1,), (0,))])
    def test_log_raises_exactly_where_exact_vanishes(self, golden_tree, prefix, period):
        # nilpotent A: the counts and the powers of the period product vanish
        a = BinaryMatrix.from_rows([[0, 1], [0, 0]])
        ray = Ray(prefix, period)
        vanished = 0
        for n in (1, 2):
            for m in range(41):
                exact = strip_counts(golden_tree, a, ray, n, m, MODE_EXACT)[0].values
                if any(exact):
                    log_vec, norm = strip_counts(golden_tree, a, ray, n, m, MODE_LOG)
                    for e, l in zip(exact, log_vec.values):
                        if e == 0:
                            assert l == float("-inf")
                        else:
                            assert norm + l == pytest.approx(math.log(e), abs=1e-12)
                else:
                    vanished += 1
                    with pytest.raises(ValueError, match="counts vanished"):
                        strip_counts(golden_tree, a, ray, n, m, MODE_LOG)
        assert 0 < vanished < 82


class TestPeriodMatrix:
    def test_single_step_period(self, golden_tree):
        pm = period_matrix(golden_tree, G, RAY_STRAIGHT, 3, MODE_EXACT)
        step = step_matrix(golden_tree, G, RAY_STRAIGHT, 1, 3, MODE_EXACT)
        assert pm.exact == step.matrix.exact
        assert is_primitive(pm.support())

    def test_chain_tree_is_bare_transpose(self, chain_tree):
        a = BinaryMatrix.from_rows([[0, 1], [1, 1]])  # non-symmetric, primitive
        pm = period_matrix(chain_tree, a, Ray((), (0,)), 4, MODE_EXACT)
        assert pm.exact == transpose(a).rows

    def test_two_step_composition_order(self, golden_tree):
        # steps act in ray order: the free-branch step at phase 1 first, then
        # the bare step at phase 2; composed = A3 . A2 in application order
        n = 3
        pm = period_matrix(golden_tree, G, RAY_MIXED, n, MODE_EXACT)
        first = step_matrix(golden_tree, G, RAY_MIXED, 1, n, MODE_EXACT).matrix
        second = step_matrix(golden_tree, G, RAY_MIXED, 2, n, MODE_EXACT).matrix
        assert pm.exact == product([second, first]).exact
        # frozen hand product for A = G, n = 3: block counts (15, 8) one level
        # down give the free-branch weights 23, 15
        assert first.exact == ((23, 23), (15, 0))
        assert pm.exact == ((38, 23), (23, 23))

    def test_two_step_entries_match_oracle(self, golden_tree):
        # entry (s, i) of the period product counts labelings of the strip
        # pieces at phases 1 and 2 alone, given label i at the period start
        # and s at its end (the root strip piece belongs to the initial
        # vector, not to the period product)
        from treeshift.oracle import Region, count_labelings

        n = 3
        pm = period_matrix(golden_tree, G, RAY_MIXED, n, MODE_EXACT)
        pieces = set(strip_region(golden_tree, RAY_MIXED, n, 3)) - set(
            strip_region(golden_tree, RAY_MIXED, n, 1)
        )
        region = Region(tuple(pieces | {()}))
        for s in range(2):
            for i in range(2):
                pinned = region.with_pins({(): i, (0, 1): s})
                assert pm.exact[s][i] == count_labelings(pinned, G)

    @pytest.mark.parametrize("tree_name", [name for name, _ in SWEEP_TREES])
    def test_equals_product_of_reversed_steps(self, tree_name):
        # one fold serves the count loop and period_matrix; it must compose
        # the steps exactly as the general matrix product does
        tree = dict(SWEEP_TREES)[tree_name]
        for a in (G, BinaryMatrix.from_rows([[1, 1, 0], [0, 0, 1], [1, 0, 0]])):
            for ray in SWEEP_RAYS[tree_name]:
                for n in (1, 2, 4):
                    steps = [
                        step_matrix(tree, a, ray, j, n, MODE_EXACT).matrix
                        for j in range(ray.c + 1, ray.c + ray.ell + 1)
                    ]
                    pm = period_matrix(tree, a, ray, n, MODE_EXACT)
                    assert pm.exact == product(steps[::-1]).exact

    @pytest.mark.filterwarnings("ignore:adjacency matrix is not primitive")
    def test_support_is_the_transposed_adjacency_to_the_period(self):
        # supp D = (A^T)^ell for a trimmed A, so D is primitive exactly when
        # A is, with exponent ceil(e(A) / ell); strip_entropy_closed and
        # check read both from A
        rng = random.Random(2309)
        kinds = set()
        for _ in range(60):
            d, k = rng.randint(1, 3), rng.randint(1, 4)
            rows = [[int(rng.random() < 0.6) for _ in range(d)] for _ in range(d)]
            tree = validate_tree(BinaryMatrix.from_rows(
                [row if any(row) else [int(j == i) for j in range(d)] for i, row in enumerate(rows)]
            ))
            try:
                a, _, _ = essential(BinaryMatrix.from_rows(
                    [[int(rng.random() < 0.5) for _ in range(k)] for _ in range(k)]
                ))
            except ValueError:  # no essential symbol
                continue
            ray = random_ray(tree, rng)
            power = transpose(a)
            for _ in range(ray.ell - 1):
                power = BinaryMatrix.from_rows(
                    [[int(any(x and power.entry(j, i) for j, x in enumerate(row)))
                      for i in range(a.dim)] for row in transpose(a).rows]
                )
            prim = is_primitive(a)
            want = -(-prim.exponent // ray.ell) if prim else None
            for n in range(1, 5):
                support = period_matrix(tree, a, ray, n, MODE_EXACT).support()
                assert support == power
                assert is_primitive(support) == (prim.primitive, want)
                diagnostics = strip_entropy_closed(tree, a, ray, n).diagnostics
                assert (diagnostics["support_primitive"], diagnostics["support_exponent"]) == (
                    prim.primitive, want
                )
            kinds.add((prim.primitive, ray.ell > 1 and want != prim.exponent))
        assert kinds == {(False, False), (True, False), (True, True)}

    def test_phase_shift_preserves_spectral_radius(self, golden_tree):
        n = 4
        d1 = period_matrix(golden_tree, G, RAY_MIXED, n, MODE_EXACT)
        d2 = period_matrix(golden_tree, G, Ray((0,), (1, 0)), n, MODE_EXACT)
        r1 = spectral_radius(d1).rho_log
        r2 = spectral_radius(d2).rho_log
        assert r1 == pytest.approx(r2, rel=1e-11)

    def test_composition_order_matters_for_longer_periods(self, crt3_tree):
        # regression for the period product order: with a non-symmetric
        # adjacency and two distinct weighted steps in one period, composing
        # the steps backwards changes the spectral radius
        a = BinaryMatrix.from_rows([[1, 1, 0], [0, 0, 1], [1, 0, 0]])
        ray = Ray((), (0, 0, 1, 2))
        n = 5
        steps = [
            step_matrix(crt3_tree, a, ray, j, n, MODE_EXACT).matrix
            for j in (1, 2, 3, 4)
        ]
        forward = product(list(reversed(steps)))
        backward = product(steps)
        pm = period_matrix(crt3_tree, a, ray, n, MODE_EXACT)
        assert pm.exact == forward.exact
        rho_fwd = spectral_radius(forward).rho_log
        rho_bwd = spectral_radius(backward).rho_log
        assert abs(rho_fwd - rho_bwd) > 1e-3
        # the iterated counts single out the application order
        sites = period_sites(crt3_tree, ray, n)
        iterative = strip_entropy_iterative(crt3_tree, a, ray, n, 400).value
        assert iterative == pytest.approx(rho_fwd / sites, abs=1e-9)
        assert abs(iterative - rho_bwd / sites) > 1e-5


class TestStripEntropyClosed:
    def test_straight_golden_width_three_analytic(self, golden_tree):
        # period product is [[9,9],[5,0]]; its Perron root is (9+sqrt(261))/2
        result = strip_entropy_closed(golden_tree, G, RAY_STRAIGHT, 3)
        expected = math.log((9 + math.sqrt(261)) / 2) / 5
        assert result.method == "closed_form"
        assert result.denominator == 5
        assert result.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_full_shift_exact(self, golden_tree, k):
        ek = BinaryMatrix.full(k)
        for n in (1, 4, 8):
            result = strip_entropy_closed(golden_tree, ek, RAY_MIXED, n)
            assert abs(result.value - math.log(k)) < 1e-12

    def test_chain_reduction(self, chain_tree):
        for n in range(1, 21):
            result = strip_entropy_closed(chain_tree, G, Ray((), (0,)), n)
            assert result.denominator == 1
            assert abs(result.value - math.log(PHI)) < 1e-9

    def test_prefix_does_not_change_closed_form(self, golden_tree):
        plain = strip_entropy_closed(golden_tree, G, RAY_STRAIGHT, 5)
        prefixed = strip_entropy_closed(golden_tree, G, Ray((1,), (0,)), 5)
        assert plain.value == prefixed.value

    def test_non_primitive_period_product_closed_form(self, golden_tree):
        swap = BinaryMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.warns(UserWarning, match="not primitive"):
            result = strip_entropy_closed(golden_tree, swap, RAY_STRAIGHT, 3)
        assert result.method == "closed_form"
        assert result.diagnostics["support_primitive"] is False
        assert result.value == pytest.approx(
            cyclic_rho_log(golden_tree, swap, RAY_STRAIGHT, 3) / 5, abs=1e-12
        )

    def test_cyclic_period_product_matches_raw_quotient(self, crt3_tree):
        # D = [[0,0,4],[0,0,4],[64,64,0]] has eigenvalues +-sqrt(512), so the
        # per-period growth alternates forever and only the closed form and
        # the cumulative quotient converge
        a = BinaryMatrix.from_rows([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        ray = Ray((2,), (0,))
        with pytest.warns(UserWarning, match="not primitive"):
            result = strip_entropy_closed(crt3_tree, a, ray, 3)
        assert result.method == "closed_form"
        assert result.denominator == 9
        assert result.value == pytest.approx(math.log(2) / 2, abs=1e-14)
        raw = strip_entropy_iterative(crt3_tree, a, ray, 3, 10**9).diagnostics["raw_quotient"]
        assert abs(result.value - raw) <= 1.5e-8

    @pytest.mark.parametrize(
        "tree_name,k,prefix,period",
        [("golden", None, (), (0,)), ("crt3", 5, (1, 2), (0, 1, 2)), ("two", 3, (), (0, 1))],
    )
    def test_log_matches_exact_period_product(self, request, tree_name, k, prefix, period):
        # the closed form runs in log; where the size guard admits exact
        # counts, the exact period product is the reference
        tree = request.getfixturevalue(f"{tree_name}_tree")
        a = G if k is None else seeded_primitive_matrices(1, (k,), 0)[0]
        ray = Ray(prefix, period)
        widths = [n for n in range(2, 25) if resolve_mode(tree, a, n) == MODE_EXACT]
        assert len(widths) >= 17
        for n in widths:
            exact = period_matrix(tree, a, ray, n, MODE_EXACT)
            reference = spectral_radius(exact).rho_log / period_sites(tree, ray, n)
            value = strip_entropy_closed(tree, a, ray, n).value
            assert value == pytest.approx(reference, rel=1e-14)

    def test_values_within_entropy_bounds(self, crt3_tree):
        for seed in range(5):
            rng = random.Random(seed)
            a = random_primitive_matrix(rng.choice([2, 3]), rng)
            for n in (2, 5):
                value = strip_entropy_closed(crt3_tree, a, Ray((), (0,)), n).value
                assert -1e-12 <= value <= math.log(a.dim) + 1e-12


class TestStripEntropyIterative:
    @pytest.mark.parametrize(
        "prefix,period",
        [((), (0,)), ((), (0, 1)), ((1,), (0, 1))],
    )
    def test_matches_closed_form(self, golden_tree, prefix, period):
        ray = Ray(prefix, period)
        for n in (2, 5, 10):
            closed = strip_entropy_closed(golden_tree, G, ray, n)
            iterative = strip_entropy_iterative(golden_tree, G, ray, n, 1000)
            assert abs(closed.value - iterative.value) < 1e-6
            assert iterative.diagnostics["oscillation_width"] < 1e-6

    def test_matches_closed_form_on_crt_preset(self, crt3_tree):
        a = random_primitive_matrix(3, random.Random(11))
        for ray in [Ray((), (0,)), Ray((0,), (1, 2, 0))]:
            for n in (3, 10):
                closed = strip_entropy_closed(crt3_tree, a, ray, n)
                iterative = strip_entropy_iterative(crt3_tree, a, ray, n, 1000)
                assert abs(closed.value - iterative.value) < 1e-6

    def test_single_symbol_gives_zero(self, chain_tree):
        one = BinaryMatrix.from_rows([[1]])
        result = strip_entropy_iterative(chain_tree, one, Ray((), (0,)), 3, 50)
        assert result.value == 0.0

    def test_full_shift(self, two_tree):
        e2 = BinaryMatrix.full(2)
        result = strip_entropy_iterative(two_tree, e2, RAY_STRAIGHT, 4, 200)
        assert abs(result.value - math.log(2)) < 1e-12

    @pytest.mark.parametrize("n", [3, 14])
    def test_huge_m_max_matches_closed_form(self, crt3_tree, n):
        # the final-period growth is summed from scales inside the last two
        # periods, so it keeps its digits however large the count grows
        a = random_primitive_matrix(3, random.Random(11))
        ray = Ray((1, 2), (0, 1, 2))
        closed = strip_entropy_closed(crt3_tree, a, ray, n).value
        for m_max in (10**6, 10**6 + 1, 10**9):
            iterative = strip_entropy_iterative(crt3_tree, a, ray, n, m_max)
            assert abs(iterative.value - closed) <= 1e-12

    def test_m_max_too_small(self, golden_tree):
        with pytest.raises(ValueError):
            strip_entropy_iterative(golden_tree, G, Ray((1,), (0, 1)), 3, 2)

    @pytest.mark.parametrize("m_max", [1000, 1001])
    def test_cyclic_period_product_reads_growth_over_two_periods(self, crt3_tree, m_max):
        # D = [[0,0,4],[0,0,4],[64,64,0]] has eigenvalues +-sqrt(512): the
        # growth over one period alternates, the growth over two converges
        a = BinaryMatrix.from_rows([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        result = strip_entropy_iterative(crt3_tree, a, Ray((2,), (0,)), 3, m_max)
        assert result.diagnostics["cyclic_index"] == 2
        assert result.denominator == 18
        assert abs(result.value - math.log(2) / 2) <= 1e-9
        assert result.diagnostics["oscillation_width"] <= 1e-9

    def test_cyclic_adjacency_matches_closed_form(self, golden_tree):
        # a bipartite A: every labeling alternates between {f1} and {f2, f3}
        a = BinaryMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        for ray in (RAY_STRAIGHT, RAY_MIXED, Ray((1,), (0,))):
            with pytest.warns(UserWarning, match="not primitive"):
                closed = strip_entropy_closed(golden_tree, a, ray, 3)
            assert closed.diagnostics["support_primitive"] is False
            for m_max in (50, 51, 10**6 + 1):
                result = strip_entropy_iterative(golden_tree, a, ray, 3, m_max)
                assert result.value > 0.1
                assert result.value == pytest.approx(closed.value, abs=1e-12)

    def test_m_max_must_cover_the_cyclic_index(self, golden_tree):
        a = BinaryMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match="cyclic index p = 2"):
            strip_entropy_iterative(golden_tree, a, RAY_STRAIGHT, 3, 1)
        assert strip_entropy_iterative(golden_tree, a, RAY_STRAIGHT, 3, 2).value > 0.1

    def test_primitive_input_reads_one_period(self, golden_tree):
        result = strip_entropy_iterative(golden_tree, G, RAY_MIXED, 3, 100)
        assert result.diagnostics["cyclic_index"] == 1
        assert result.denominator == period_sites(golden_tree, RAY_MIXED, 3)

    def test_raw_quotient_is_log_count_over_region_sites(self, crt3_tree):
        # the cumulative quotient at m_max: the log of the exact count over
        # path nodes 0..m_max, divided by the sites of those strip pieces
        ray, m_max = Ray((), (0, 1, 2)), 12
        raw = strip_entropy_iterative(crt3_tree, G, ray, 3, m_max).diagnostics["raw_quotient"]
        count = sum(strip_counts(crt3_tree, G, ray, 3, m_max, MODE_EXACT)[0].values)
        assert abs(raw - math.log(count) / region_sites(crt3_tree, ray, 3, m_max + 1)) <= 1e-12

    @pytest.mark.parametrize(
        "tree_name,ray,n,m_max",
        [("golden", RAY_STRAIGHT, 3, 4), ("crt3", Ray((1, 2), (0, 1, 2)), 2, 11)],
    )
    def test_oscillation_width_spans_the_last_p_ell_plus_one_nodes(
        self, request, tree_name, ray, n, m_max
    ):
        # the spread of the p-period estimates ending at nodes m_max - p ell
        # .. m_max, here from the log counts of strip_counts; an estimate
        # more or less moves it by far more than rounding does
        tree = request.getfixturevalue(f"{tree_name}_tree")
        span, sites = ray.ell, period_sites(tree, ray, n)  # p = 1: A = G is primitive

        def log_count(m):
            vec, norm = strip_counts(tree, G, ray, n, m, MODE_LOG)
            return norm + log_sum(vec.values)

        estimates = [
            (log_count(j) - log_count(j - span)) / sites for j in range(m_max - span, m_max + 1)
        ]
        result = strip_entropy_iterative(tree, G, ray, n, m_max)
        assert result.diagnostics["cyclic_index"] == 1
        assert result.diagnostics["oscillation_width"] == pytest.approx(
            max(estimates) - min(estimates), rel=1e-8
        )

    @pytest.mark.parametrize("ray", [RAY_STRAIGHT, RAY_MIXED])
    def test_single_estimate_reports_no_oscillation_width(self, golden_tree, ray):
        # c = 0 and m_max = p ell: the window holds one estimate, so there is
        # no agreement to measure; one node more gives two
        single = strip_entropy_iterative(golden_tree, G, ray, 3, ray.ell)
        assert single.diagnostics["oscillation_width"] is None
        assert single.value > 0.0
        two = strip_entropy_iterative(golden_tree, G, ray, 3, ray.ell + 1)
        assert two.diagnostics["oscillation_width"] >= 0.0

    def test_raw_quotient_reported(self, golden_tree):
        result = strip_entropy_iterative(golden_tree, G, RAY_STRAIGHT, 3, 120)
        raw = result.diagnostics["raw_quotient"]
        # the cumulative quotient drags boundary terms along; it agrees only
        # coarsely at this depth
        assert abs(raw - result.value) < 1e-2
        assert abs(raw - result.value) > 1e-7


class TestDefinitionalCrossCheck:
    def test_closed_form_matches_oracle_count_growth_golden(self, golden_tree):
        # the growth of the raw brute-force region counts over one period
        # must converge to the closed-form value; the count iteration is
        # geometric, so m = 40 is already at machine precision
        ray = RAY_STRAIGHT
        n = 3
        sites = period_sites(golden_tree, ray, n)
        totals = {
            m: sum(brute_strip_counts(golden_tree, G, ray, n, m))
            for m in (39, 40)
        }
        oracle_rate = (math.log(totals[40]) - math.log(totals[39])) / sites
        closed = strip_entropy_closed(golden_tree, G, ray, n).value
        assert closed == pytest.approx(oracle_rate, abs=1e-9)

    def test_closed_form_matches_oracle_count_growth_crt3(self, crt3_tree):
        a = random_primitive_matrix(3, random.Random(23))
        ray = Ray((1,), (2, 0))
        n = 3
        sites = period_sites(crt3_tree, ray, n)
        totals = {
            m: sum(brute_strip_counts(crt3_tree, a, ray, n, m))
            for m in (39, 41)
        }
        oracle_rate = (math.log(totals[41]) - math.log(totals[39])) / sites
        closed = strip_entropy_closed(crt3_tree, a, ray, n).value
        assert closed == pytest.approx(oracle_rate, abs=1e-9)


class TestScaleCovariance:
    def test_rescaling_counts_shifts_entropy_bookkeeping(self, golden_tree):
        # multiplying every branch weight by kappa multiplies each step by
        # kappa^(number of off-branches), so log rho shifts additively by
        # log(kappa) * (off-branches per period); guards log bookkeeping
        n = 4
        kappa_log = 0.37
        ray = RAY_MIXED
        phases = range(ray.c + 1, ray.c + ray.ell + 1)
        steps = [step_matrix(golden_tree, G, ray, j, n, MODE_LOG).matrix for j in phases]
        # the off-path children of each step's path node
        profiles = [phase_profiles(golden_tree, ray)[j] for j in phases]
        total_branches = sum(map(len, profiles))
        scaled = [
            LogNonnegMatrix([[x + kappa_log * len(off) for x in row] for row in s.logs])
            for s, off in zip(steps, profiles)
        ]
        base = spectral_radius(product(list(reversed(steps))))
        moved = spectral_radius(product(list(reversed(scaled))))
        assert moved.rho_log == pytest.approx(
            base.rho_log + kappa_log * total_branches, abs=1e-10
        )


class TestExactSizeGuard:
    # crt:3 along f1^inf at width 30: exact counts would run to ~1e7 bits
    RAY = Ray((), (0,))

    def test_explicit_exact_refused(self, crt3_tree):
        for call in (
            lambda: step_matrix(crt3_tree, G, self.RAY, 1, 30, MODE_EXACT),
            lambda: period_matrix(crt3_tree, G, self.RAY, 30, MODE_EXACT),
            lambda: strip_counts(crt3_tree, G, self.RAY, 30, 3, MODE_EXACT),
        ):
            with pytest.raises(SizeGuardError, match="exact counts refused"):
                call()

    def test_period_product_sized_on_its_period(self, two_tree):
        # eight pieces of width 1021 on E:2 pass the float range, the
        # depth-1021 block does not
        ray = Ray((), (0, 1) * 4)
        assert delta_size(two_tree, 1021) <= FLOAT_SITES < period_sites(two_tree, ray, 1021)
        with pytest.raises(SizeGuardError, match="pass the float range"):
            period_matrix(two_tree, G, ray, 1021, MODE_LOG)

    def test_auto_resolves_on_the_strip_region(self, crt3_tree):
        # the root strip piece alone is desk-scale, though the depth-21 block
        # is not (resolve_mode's rule picks logs for it): exact counts are
        # sized on the strip region and must not be refused
        assert resolve_mode(crt3_tree, G, 21) == MODE_LOG
        vec, normalizer = strip_counts(crt3_tree, G, self.RAY, 21, 0, MODE_EXACT)
        assert vec.mode == MODE_EXACT and normalizer == 0.0
        logged = initial_strip_counts(crt3_tree, G, self.RAY, 21, MODE_LOG).values
        for exact, log in zip(vec.values, logged):
            assert isinstance(exact, int)
            assert math.log(exact) == pytest.approx(log, rel=1e-12)

    def test_rows_the_table_fills_are_sized_too(self):
        # along f1^inf the pieces of this reducible shape grow as n^2 / 2,
        # but the level table also fills type 0's rows, which grow as n^3 / 6
        tree = validate_tree(BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
        a, n = BinaryMatrix.full(2), 200
        assert period_sites(tree, self.RAY, n) <= EXACT_BIT_GUARD < subtree_nodes(tree, 0, n - 1)
        for call in (
            lambda: initial_strip_counts(tree, a, self.RAY, n, MODE_EXACT),
            lambda: step_matrix(tree, a, self.RAY, 1, n, MODE_EXACT),
            lambda: period_matrix(tree, a, self.RAY, n, MODE_EXACT),
            lambda: strip_counts(tree, a, self.RAY, n, 0, MODE_EXACT),
        ):
            with pytest.raises(SizeGuardError, match="exact counts refused"):
                call()

    def test_counts_that_read_no_row_fill_none(self):
        # along f2^inf on this shape the period's pieces have no off-path
        # child, so the period product reads no level row and is sized on its
        # one site per period; the root piece reads type 0's row, n^2 / 2 nodes
        tree = validate_tree(BinaryMatrix.from_rows([[1, 1], [0, 1]]))
        ray, n = Ray((), (1,)), 2000
        wide, narrow = (period_matrix(tree, G, ray, w, MODE_EXACT).exact for w in (n, 2))
        assert wide == narrow
        with pytest.raises(SizeGuardError, match="exact counts refused"):
            strip_counts(tree, G, ray, n, 0, MODE_EXACT)

    def test_auto_never_refused(self, crt3_tree):
        # the mode resolve_mode's rule picks where exact is refused answers
        mode = resolve_mode(crt3_tree, G, 30)
        assert mode == MODE_LOG
        assert step_matrix(crt3_tree, G, self.RAY, 1, 30, mode).matrix.exact is None
        assert strip_counts(crt3_tree, G, self.RAY, 30, 3, mode)[0].mode == MODE_LOG



@pytest.mark.parametrize(
    "call",
    [
        lambda t, **mode: subtree_counts(t, G, 0, 2, **mode),
        lambda t, **mode: block_counts(t, G, 2, **mode),
        lambda t, **mode: step_matrix(t, G, RAY_STRAIGHT, 1, 2, **mode),
        lambda t, **mode: initial_strip_counts(t, G, RAY_STRAIGHT, 2, **mode),
        lambda t, **mode: strip_counts(t, G, RAY_STRAIGHT, 2, 3, **mode),
        lambda t, **mode: period_matrix(t, G, RAY_STRAIGHT, 2, **mode),
    ],
    ids=["subtree", "block", "step", "initial", "strip", "period"],
)
def test_every_count_names_its_mode(golden_tree, call):
    # two modes, exact and log, and no default: "auto" is no mode
    with pytest.raises(ValueError, match="unknown mode 'auto'"):
        call(golden_tree, mode="auto")
    with pytest.raises(TypeError, match="required positional argument: 'mode'"):
        call(golden_tree)
    call(golden_tree, mode=MODE_EXACT)
    call(golden_tree, mode=MODE_LOG)


class TestEssentialTrimming:
    # symbol 2 of SINK has no successor, so it labels no infinite labeling
    SINK = BinaryMatrix.from_rows([[1, 1], [0, 0]])

    def test_sink_symbol_gives_zero(self, capsys, golden_tree):
        closed = strip_entropy_closed(golden_tree, self.SINK, RAY_STRAIGHT, 8)
        assert closed.value == 0.0
        assert closed.diagnostics["trimmed_symbols"] == [1]
        # the CLI reports symbols 1-based: the same width through strip's JSON
        argv = ["strip", "--A", "[[1,1],[0,0]]", "--M", "G", "--ray", "f1^inf", "--n", "8"]
        assert cli.main([*argv, "--format", "json"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)[0]["diagnostics"]["trimmed_symbols"] == [2]
        iterative = strip_entropy_iterative(golden_tree, self.SINK, RAY_MIXED, 4, 50)
        assert iterative.value == 0.0
        assert iterative.diagnostics["trimmed_symbols"] == [1]

    def test_counts_stay_untrimmed(self, golden_tree):
        # locally admissible patterns still use symbol 2 at the strip's leaves;
        # the trimmed adjacency [[1]] would allow exactly one pattern
        got = strip_counts(golden_tree, self.SINK, RAY_STRAIGHT, 2, 3, MODE_EXACT)[0].values
        assert got == brute_strip_counts(golden_tree, self.SINK, RAY_STRAIGHT, 2, 3)
        assert sum(got) > 1

    def test_non_primitive_essential_part_reports_trimmed_symbols(self, golden_tree):
        # the essential part [[0,1],[1,0]] is not primitive; it still has a
        # closed form
        a = BinaryMatrix.from_rows([[0, 1, 1], [1, 0, 0], [0, 0, 0]])
        swap = BinaryMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.warns(UserWarning, match="not primitive"):
            result = strip_entropy_closed(golden_tree, a, RAY_STRAIGHT, 3)
        assert result.method == "closed_form"
        assert result.diagnostics["trimmed_symbols"] == [2]
        assert result.value == pytest.approx(
            cyclic_rho_log(golden_tree, swap, RAY_STRAIGHT, 3) / 5, abs=1e-12
        )

    def test_entropy_paths_build_one_log_context(self, crt3_tree):
        # both entropy paths, at every width, share one LOG context per tree
        # and trimmed A; the second A trims its sink symbol 4 to the first
        a = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        with_sink = BinaryMatrix.from_rows(
            [[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 0]]
        )
        counting.context.cache_clear()
        for adj, trimmed in ((a, None), (with_sink, [3])):
            for n in range(2, 33):
                result = strip_entropy_closed(crt3_tree, adj, RAY_STRAIGHT, n)
                assert result.diagnostics.get("trimmed_symbols") == trimmed
            # converge's three calls: its reference, the widths, the fit
            h_ref = topological_entropy(crt3_tree, adj, 34).h_ref
            values = [strip_entropy_closed(crt3_tree, adj, RAY_STRAIGHT, n).value for n in range(2, 33)]
            fit_rate([(n, abs(v - h_ref)) for n, v in zip(range(2, 33), values)])
        assert counting.context.cache_info().misses == 1
        counting.context(crt3_tree, a, LOG)
        assert counting.context.cache_info().misses == 1

    def test_each_adjacency_admitted_once(self, crt3_tree, monkeypatch):
        # a 31-width closed-form sweep, the estimator and the reference
        # entropy trim A once and test its essential part, G, once: G^2 is
        # the one boolean power that test takes
        calls = []

        def tally(name, call):
            return lambda *args: calls.append(name) or call(*args)

        monkeypatch.setattr(BinaryMatrix, "restrict", tally("trim", BinaryMatrix.restrict))
        monkeypatch.setattr(matrices, "_bool_matmul", tally("power", matrices._bool_matmul))
        essential.cache_clear()
        a = BinaryMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 0, 0]])
        for n in range(2, 33):
            result = strip_entropy_closed(crt3_tree, a, RAY_STRAIGHT, n)
            assert result.diagnostics["trimmed_symbols"] == [2]
        assert calls == ["trim", "power"]
        strip_entropy_iterative(crt3_tree, a, RAY_STRAIGHT, 3, 20)
        topological_entropy(crt3_tree, a, 5)
        assert calls == ["trim", "power"]

    def test_memo_does_not_swallow_the_warning(self, golden_tree):
        # the admission is memoised, the non-primitive warning is not
        a = BinaryMatrix.from_rows([[0, 1, 1], [1, 0, 0], [0, 0, 0]])
        for _ in range(2):
            with pytest.warns(UserWarning, match="not primitive"):
                strip_entropy_closed(golden_tree, a, RAY_STRAIGHT, 3)
            with pytest.warns(UserWarning, match="not primitive"):
                topological_entropy(golden_tree, a, 3)

    def test_no_essential_symbol_rejected(self, golden_tree):
        a = BinaryMatrix.from_rows([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="no essential symbol"):
            strip_entropy_closed(golden_tree, a, RAY_STRAIGHT, 3)


def test_strip_pieces_counted_once_per_context(crt3_tree, monkeypatch):
    # the root piece, like every step piece, is counted once per context:
    # later strip counts along the ray read it from the context's table
    a = BinaryMatrix.from_rows([[1, 1], [1, 0]])
    ray = Ray((1,), (2, 0))
    counting.context.cache_clear()
    first = [strip_counts(crt3_tree, a, ray, 3, m, MODE_EXACT) for m in range(6)]
    calls = []
    ctx = counting.context(crt3_tree, a, EXACT)
    monkeypatch.setattr(ctx, "product_over", calls.append)
    assert [strip_counts(crt3_tree, a, ray, 3, m, MODE_EXACT) for m in range(6)] == first
    assert calls == []
    counting.context.cache_clear()


def test_off_path_children_derived_once_per_ray(golden_tree, monkeypatch):
    # strip counts at m = 1..30 read one phase table, so the off-path
    # children of path indices 0..c+ell are derived once, not once per step
    derived = []
    profile = ray_module.step_profile
    monkeypatch.setattr(
        ray_module, "step_profile", lambda *args: derived.append(args) or profile(*args)
    )
    phase_profiles.cache_clear()
    ray_module._site_offsets.cache_clear()
    ray = cli.parse_ray_spec("f2(f1 f2)^inf")
    for m in range(1, 31):
        strip_counts(golden_tree, G, ray, 3, m, MODE_EXACT)
    assert len(derived) == ray.c + ray.ell + 1 == 4


def plain_power_apply(sr, d, q, v):
    """D^q v by square-and-multiply that squares for every further bit of q."""
    power, power_scale = _factor_max(sr, d)
    scale = 0.0
    while True:
        if q & 1:
            [v], top = _factor_max(sr, [sr.matvec(power, v)])
            scale += power_scale + top
        q >>= 1
        if not q:
            return v, scale
        power, top = _factor_max(sr, sr.matmul(power, power))
        power_scale = 2 * power_scale + top


class TestPowerApply:
    """Squaring stops once it returns its input, and stepping once a step by
    that stationary power returns its input vector; the results keep every
    bit, from a fresh period record and from one that earlier powers filled."""

    Q_MAX = 2000
    PRIMITIVE = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]

    def assert_matches_plain(self, sr, d, v):
        warm = PeriodRecord(d, [])
        for q in range(1, self.Q_MAX + 1):
            want = plain_power_apply(sr, d, q, list(v))
            assert _power_apply(sr, PeriodRecord(d, []), q, list(v)) == want, q
            assert _power_apply(sr, warm, q, list(v)) == want, q
            assert reference_power_apply(sr, warm, q, list(v)) == want, q
        assert len(warm.squares) == self.Q_MAX.bit_length()

    def test_log_primitive_stops_squaring(self, monkeypatch):
        d = LogNonnegMatrix.from_exact(self.PRIMITIVE).logs
        v = [0.0, -1.5, NEG_INF]
        self.assert_matches_plain(LOG, d, v)
        calls = count_matmuls(monkeypatch)
        period = PeriodRecord(d, [])
        _power_apply(LOG, period, self.Q_MAX, list(v))
        stopped = len(calls)
        calls.clear()
        plain_power_apply(LOG, d, self.Q_MAX, list(v))
        assert len(calls) == self.Q_MAX.bit_length() - 1
        assert stopped < len(calls)
        # the entries past the first stationary one share its table
        tables = [table for table, _, _, stationary in period.squares if stationary]
        assert len(tables) > 1 and all(table is tables[0] for table in tables)

    def test_warm_record_squares_only_for_a_higher_bit(self, monkeypatch):
        d = LogNonnegMatrix.from_exact(self.PRIMITIVE).logs
        v = [0.0, -1.5, NEG_INF]
        calls = count_matmuls(monkeypatch)
        period = PeriodRecord(d, [])
        _power_apply(LOG, period, 37, list(v))
        assert (len(calls), len(period.squares)) == (5, 6)
        for q in range(1, 64):
            _power_apply(LOG, period, q, list(v))
        assert (len(calls), len(period.squares)) == (5, 6)
        _power_apply(LOG, period, 64, list(v))
        assert (len(calls), len(period.squares)) == (6, 7)

    def test_log_primitive_stops_stepping_at_a_fixed_point(self, monkeypatch):
        d = LogNonnegMatrix.from_exact(self.PRIMITIVE).logs
        v = [0.0, -1.5, NEG_INF]
        calls = []
        matvec = Semiring.matvec
        monkeypatch.setattr(
            Semiring, "matvec", lambda sr, m, x: calls.append(1) or matvec(sr, m, x)
        )
        # squarings run on the reference matmul, which makes no Semiring
        # matvec, so the spy counts the vector's steps alone
        monkeypatch.setattr(Semiring, "matmul", reference_matmul)
        _power_apply(LOG, PeriodRecord(d, []), self.Q_MAX, list(v))
        fixed = len(calls)
        calls.clear()
        plain_power_apply(LOG, d, self.Q_MAX, list(v))
        assert len(calls) == self.Q_MAX.bit_count() == 6
        assert fixed < len(calls)

    def test_log_cyclic(self):
        self.assert_matches_plain(LOG, [[NEG_INF, 0.0], [0.0, NEG_INF]], [0.0, -2.0])

    def test_log_polynomial_growth(self, chain_tree):
        # known defect 2's period product: rho(D) = 1 and its powers grow
        # polynomially, so no squaring is stationary
        a = BinaryMatrix.from_rows([[1, 0, 0, 1], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]])
        d = period_matrix(chain_tree, a, Ray((), (0, 0, 0)), 3, MODE_LOG)
        assert abs(spectral_radius(d).rho_log) < 1e-12
        self.assert_matches_plain(LOG, d.logs, [0.0, -1.0, NEG_INF, 2.0])

    def test_exact_idempotent(self):
        self.assert_matches_plain(EXACT, [[1, 1], [0, 0]], [2, 3])


def estimator_grid():
    """The benchmark's estimator grid on crt:3: four seeded primitive A
    (k = 2, 3), the acceptance suite's three rays, widths 2..8."""
    rays = [Ray((), (0,)), Ray((), (0, 1, 2)), Ray((1, 2), (0, 1, 2))]
    return [
        (a, ray, n)
        for a in seeded_primitive_matrices(4, (2, 3), 515) for ray in rays for n in range(2, 9)
    ]


def powered_cells():
    """verify's trees and rays at widths 2, 3 and m = 12, 25, 40: 162 cells,
    most of which cross whole periods by powering."""
    return [
        (a, tree, ray, n, m)
        for a in seeded_primitive_matrices(3, (2, 3, 4), 0) for name, tree in SWEEP_TREES
        for ray, n, m in itertools.product(SWEEP_RAYS[name], (2, 3), (12, 25, 40))
    ]


def count_matmuls(monkeypatch):
    """A list that grows by one at every ``Semiring.matmul``."""
    calls = []
    matmul = Semiring.matmul
    monkeypatch.setattr(Semiring, "matmul", lambda sr, a, b: calls.append(1) or matmul(sr, a, b))
    return calls


@pytest.mark.filterwarnings("ignore:adjacency matrix is not primitive")
def test_period_product_formed_once_per_context_and_width(crt3_tree, monkeypatch):
    # a non-primitive A: the Perron solve for the estimator's cyclic index
    # forms D, and the powering squares that D; the closed form, and a ray
    # whose period has the same pieces, form no product at all
    a = BinaryMatrix.from_rows([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    ray, shifted = cli.parse_ray_spec("(f1 f2 f3)^inf"), cli.parse_ray_spec("f2f3(f1 f2 f3)^inf")
    counting.context.cache_clear()
    calls = count_matmuls(monkeypatch)
    made = []
    for call in (
        lambda: strip_entropy_iterative(crt3_tree, a, ray, 3, 1000),
        lambda: strip_entropy_closed(crt3_tree, a, ray, 3),
        lambda: strip_entropy_iterative(crt3_tree, a, shifted, 3, 1000),
    ):
        before = len(calls)
        call()
        made.append(len(calls) - before)
    assert made == [10, 0, 0]
    counting.context.cache_clear()


@pytest.mark.parametrize("kind", ["estimator", "log counts", "exact counts"])
def test_period_records_change_no_bit(crt3_tree, monkeypatch, kind):
    # each result from one warm context, whose period records the calls
    # before it filled, has the bits of the same result from a cleared one
    jobs = {
        "estimator": [
            partial(strip_entropy_iterative, crt3_tree, a, ray, n, 1000)
            for a, ray, n in estimator_grid()
        ],
        "log counts": [
            partial(strip_counts, crt3_tree, a, ray, n, m, MODE_LOG)
            for a, ray, n in estimator_grid() for m in (37, 64, 1000)
        ],
        "exact counts": [
            partial(strip_counts, tree, a, ray, n, m, MODE_EXACT)
            for a, tree, ray, n, m in powered_cells()
        ],
    }[kind]
    calls = count_matmuls(monkeypatch)
    counting.context.cache_clear()
    warm = [job() for job in jobs]
    warm_matmuls = len(calls)
    cold = []
    for job in jobs:
        counting.context.cache_clear()
        cold.append(job())
    assert repr(warm) == repr(cold)
    assert warm_matmuls < len(calls) - warm_matmuls  # the warm calls read records
    counting.context.cache_clear()


def test_estimator_grid_matches_reference_kernels(crt3_tree):
    # the benchmark's estimator grid: four seeded primitive A (k = 2, 3) on
    # crt:3, the acceptance suite's three rays, widths 2..8, m_max = 1000;
    # the value and every diagnostic keep their bits on the reference kernels
    grid = estimator_grid()
    counting.context.cache_clear()
    got = [strip_entropy_iterative(crt3_tree, a, ray, n, 1000) for a, ray, n in grid]
    with reference_kernels():
        want = [strip_entropy_iterative(crt3_tree, a, ray, n, 1000) for a, ray, n in grid]
    assert len(got) == 84
    assert got == want
    assert repr(got) == repr(want)
