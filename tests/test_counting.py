import functools
import math
import random

import pytest

from treeshift import counting
from treeshift.cli import SWEEP_TREES
from treeshift.counting import (
    LOG_NAT_GUARD,
    MODE_EXACT,
    MODE_LOG,
    SEMIRINGS,
    CountVector,
    block_counts,
    resolve,
    resolve_mode,
    subtree_counts,
)
from treeshift.errors import SizeGuardError
from treeshift.matrices import BinaryMatrix, log_sum
from treeshift.oracle import brute_block_counts
from treeshift.sampling import random_primitive_matrix
from treeshift.tree import FLOAT_SITES, crt_preset, delta_size, subtree_nodes, validate_tree

from support import full_row_counts_match

G = BinaryMatrix.golden()


class TestCountVector:
    def test_exact_total(self):
        v = CountVector((4, 1), MODE_EXACT)
        assert sum(v.values) == 5

    def test_log_total_is_logsumexp(self):
        v = CountVector((math.log(4), math.log(1)), MODE_LOG)
        assert log_sum(v.values) == pytest.approx(math.log(5), rel=1e-14)

    def test_log_sum_ignores_zero_counts(self):
        assert log_sum((float("-inf"), 0.0)) == pytest.approx(0.0)
        assert log_sum(()) == float("-inf")
        assert log_sum((float("-inf"),)) == float("-inf")

    def test_negative_exact_rejected(self):
        with pytest.raises(ValueError):
            CountVector((-1, 2), MODE_EXACT)

    def test_nan_log_rejected(self):
        with pytest.raises(ValueError):
            CountVector((float("nan"),), MODE_LOG)


class TestSubtreeCounts:
    def test_golden_mean_depth_one(self, golden_tree):
        assert subtree_counts(golden_tree, G, 0, 1, MODE_EXACT).values == (4, 1)
        assert subtree_counts(golden_tree, G, 1, 1, MODE_EXACT).values == (2, 1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_free_labeling_on_any_tree(self, golden_tree, k):
        ek = BinaryMatrix.full(k)
        for t in golden_tree.generators():
            for n in range(5):
                expected = k ** (subtree_nodes(golden_tree, t, n) - 1)
                got = subtree_counts(golden_tree, ek, t, n, MODE_EXACT)
                assert got.values == (expected,) * k

    def test_single_symbol(self, crt3_tree):
        one = BinaryMatrix.from_rows([[1]])
        for t in crt3_tree.generators():
            assert subtree_counts(crt3_tree, one, t, 4, MODE_EXACT).values == (1,)

    def test_depth_zero(self, golden_tree):
        assert subtree_counts(golden_tree, G, 0, 0, MODE_EXACT).values == (1, 1)

    def test_negative_depth_is_refused_by_the_table(self, golden_tree):
        ctx = counting.context(golden_tree, G, SEMIRINGS[MODE_EXACT])
        ctx.level(3)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            ctx.level(-1)


class TestBlockCounts:
    def test_golden_mean(self, golden_tree):
        assert block_counts(golden_tree, G, 1, MODE_EXACT).values == (4, 1)
        assert block_counts(golden_tree, G, 2, MODE_EXACT).values == (15, 8)
        assert sum(block_counts(golden_tree, G, 1, MODE_EXACT).values) == 5
        assert sum(block_counts(golden_tree, G, 2, MODE_EXACT).values) == 23

    def test_two_tree(self, two_tree):
        assert block_counts(two_tree, G, 1, MODE_EXACT).values == (4, 1)

    def test_free_labeling(self, two_tree):
        e2 = BinaryMatrix.full(2)
        assert sum(block_counts(two_tree, e2, 1, MODE_EXACT).values) == 8
        for n in range(4):
            expected = 2 ** delta_size(two_tree, n)
            assert sum(block_counts(two_tree, e2, n, MODE_EXACT).values) == expected

    def test_depth_zero(self, golden_tree):
        assert block_counts(golden_tree, G, 0, MODE_EXACT).values == (1, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_matches_oracle(self, seed):
        rng = random.Random(seed)
        k = rng.choice([2, 3])
        a = random_primitive_matrix(k, rng)
        tree = [validate_tree(G), validate_tree(BinaryMatrix.full(2)), crt_preset(3)][
            seed % 3
        ]
        for n in range(4):
            assert (
                block_counts(tree, a, n, MODE_EXACT).values
                == brute_block_counts(tree, a, n)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_log_mode_tracks_exact(self, seed):
        rng = random.Random(50 + seed)
        k = rng.choice([2, 3])
        a = random_primitive_matrix(k, rng)
        tree = crt_preset(3) if seed % 2 else validate_tree(G)
        for n in range(1, 6):
            exact = block_counts(tree, a, n, MODE_EXACT)
            logged = block_counts(tree, a, n, MODE_LOG)
            for e, l in zip(exact.values, logged.values):
                if e == 0:
                    assert l == float("-inf")
                else:
                    assert l == pytest.approx(math.log(e), rel=1e-9)

    def test_monotone_growth(self, golden_tree, crt3_tree):
        for tree, a in [(golden_tree, G), (crt3_tree, BinaryMatrix.full(3))]:
            prev = 0
            for n in range(7):
                cur = sum(block_counts(tree, a, n, MODE_EXACT).values)
                assert cur >= prev
                prev = cur

    def test_entropy_sequence_gaps_shrink(self, golden_tree):
        # diagnostic: the raw quotient sequence settles (not a hard theorem)
        quotients = [
            log_sum(block_counts(golden_tree, G, n, MODE_LOG).values) / delta_size(golden_tree, n)
            for n in range(1, 16)
        ]
        gaps = [abs(b - a) for a, b in zip(quotients, quotients[1:])]
        assert gaps[-1] <= gaps[0]


class TestFullRowCountsMatch:
    def test_golden_mean(self, golden_tree):
        for n in range(7):
            assert full_row_counts_match(golden_tree, G, n)

    def test_full_tree_every_generator(self, two_tree):
        for n in range(5):
            assert full_row_counts_match(two_tree, BinaryMatrix.full(2), n)

    @pytest.mark.parametrize("seed", range(4))
    def test_crt3_random_adjacency(self, crt3_tree, seed):
        rng = random.Random(seed)
        a = random_primitive_matrix(rng.choice([2, 3]), rng)
        for n in range(5):
            assert full_row_counts_match(crt3_tree, a, n)

    def test_no_full_row_is_vacuous_with_notice(self):
        tree = validate_tree(BinaryMatrix.from_rows([[0, 1], [1, 0]]))
        with pytest.warns(UserWarning, match="no full row"):
            assert full_row_counts_match(tree, G, 3)


class TestModeResolution:
    def test_small_goes_exact(self, golden_tree):
        assert resolve_mode(golden_tree, G, 5) == MODE_EXACT

    def test_huge_goes_log(self, two_tree):
        assert resolve_mode(two_tree, BinaryMatrix.full(2), 40) == MODE_LOG

    def test_forced_modes_pass_through(self, golden_tree):
        # exact passes only while resolve_mode would pick exact too; at
        # n=40 about 7e8 bits are predicted, so it is refused
        def block(mode, n):
            return resolve(mode, delta_size(golden_tree, n), G).mode

        assert block(MODE_EXACT, 5) == MODE_EXACT
        with pytest.raises(SizeGuardError):
            block(MODE_EXACT, 40)
        assert block(MODE_LOG, 2) == MODE_LOG
        assert block(MODE_LOG, 40) == MODE_LOG

    def test_explicit_exact_block_counts_refused_beyond_guard(self, crt3_tree):
        with pytest.raises(SizeGuardError, match="exact counts refused"):
            block_counts(crt3_tree, G, 30, MODE_EXACT)

    def test_unknown_mode_rejected(self, golden_tree):
        with pytest.raises(ValueError, match="unknown mode 'fast'"):
            block_counts(golden_tree, G, 2, "fast")


class TestLevelTables:
    """Sizes and counts come from level tables filled bottom-up; a plain
    recursion over one node at a time is the reference."""

    DEPTH = 40
    MATRICES = (G, BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))

    @staticmethod
    def recursive_counts(tree, a, sr):
        """Subtree and block counts by recursion, one node at a time."""

        def product(children):
            return tuple(
                sr.prod([sr.sum([ch[j] for j in a.supports[i]]) for ch in children])
                for i in range(a.dim)
            )

        @functools.cache
        def subtree(t, n):
            return product([subtree(u, n - 1) for u in tree.children(t)] if n else [])

        return subtree, lambda n: product([subtree(t, n - 1) for t in tree.generators()] if n else [])

    @pytest.mark.parametrize("tree_name", [name for name, _ in SWEEP_TREES])
    def test_sizes_match_recursion(self, tree_name):
        tree = dict(SWEEP_TREES)[tree_name]

        @functools.cache
        def size(t, depth):
            return 1 + sum(size(u, depth - 1) for u in tree.children(t)) if depth >= 0 else 0

        subtree_nodes.cache_clear()
        for n in range(self.DEPTH, -2, -1):  # the deepest first, from an empty table
            for t in tree.generators():
                assert subtree_nodes(tree, t, n) == size(t, n)
        for n in range(self.DEPTH + 1):
            assert delta_size(tree, n) == 1 + sum(size(t, n - 1) for t in tree.generators())

    @pytest.mark.parametrize("tree_name", [name for name, _ in SWEEP_TREES])
    @pytest.mark.parametrize("mode", [MODE_LOG, MODE_EXACT])
    def test_counts_match_recursion(self, tree_name, mode):
        tree = dict(SWEEP_TREES)[tree_name]
        for a in self.MATRICES:
            depths = [n for n in range(self.DEPTH + 1) if resolve_mode(tree, a, n) == mode]
            assert len(depths) >= 8
            subtree, block = self.recursive_counts(tree, a, SEMIRINGS[mode])
            counting.context.cache_clear()
            for n in reversed(depths):  # the deepest first, from an empty table
                for t in tree.generators():
                    assert subtree_counts(tree, a, t, n, mode).values == subtree(t, n)
                assert block_counts(tree, a, n, mode).values == block(n)


class TestFloatRangeGuard:
    def test_refused_past_the_bound_at_every_mode(self, two_tree):
        # the depth-1023 block of E:2 has 2^1024 - 1 sites: no float holds it
        for mode in (MODE_LOG, MODE_EXACT):
            with pytest.raises(SizeGuardError, match="pass the float range"):
                block_counts(two_tree, G, 1023, mode)

    def test_last_depth_inside_the_bound_answers(self, two_tree):
        assert math.isfinite(log_sum(block_counts(two_tree, G, 1022, MODE_LOG).values))

    def test_compares_integer_sites_beyond_the_float_range(self):
        with pytest.raises(SizeGuardError, match="10\\^400.0 sites"):
            resolve(MODE_LOG, 10**400, BinaryMatrix.full(3))

    @pytest.mark.parametrize("k", [1, 2])
    def test_site_limit_is_the_float_conversion_limit(self, k):
        # k <= 2 keeps sites * log k below the sites, so only they can overflow
        float(FLOAT_SITES)
        with pytest.raises(OverflowError):
            float(FLOAT_SITES + 1)
        assert resolve(MODE_LOG, FLOAT_SITES, BinaryMatrix.full(k)) is SEMIRINGS[MODE_LOG]
        with pytest.raises(SizeGuardError):
            resolve(MODE_LOG, FLOAT_SITES + 1, BinaryMatrix.full(k))

    @pytest.mark.parametrize("k", [3, 8])
    def test_log_limit_from_three_symbols_on(self, k):
        sites = LOG_NAT_GUARD / math.log(k)
        assert resolve(MODE_LOG, int(sites * (1 - 1e-12)), BinaryMatrix.full(k)) is SEMIRINGS[MODE_LOG]
        with pytest.raises(SizeGuardError):
            resolve(MODE_LOG, int(sites * (1 + 1e-12)), BinaryMatrix.full(k))

    def test_exact_bit_guard_boundary(self):
        # two symbols take one bit per site: 10^6 sites are admitted, one more is not
        e2 = BinaryMatrix.full(2)
        assert resolve(MODE_EXACT, 10**6, e2) is SEMIRINGS[MODE_EXACT]
        with pytest.raises(SizeGuardError, match="exact counts refused"):
            resolve(MODE_EXACT, 10**6 + 1, e2)

    def test_level_table_refuses_the_rows_it_fills(self, two_tree):
        # the depth-19 follower trees of E:2 have 2^20 - 1 = 1,048,575 nodes,
        # one bit each past the exact guard: the table refuses that row
        # whoever asks for it, while a log table fills it
        counting.context.cache_clear()
        e2 = BinaryMatrix.full(2)
        exact = counting.context(two_tree, e2, SEMIRINGS[MODE_EXACT])
        assert exact.level(18)[0][0] == 2 ** (2**19 - 2)  # the pinned root, then free
        with pytest.raises(SizeGuardError, match="exact counts refused"):
            exact.level(19)
        log = counting.context(two_tree, e2, SEMIRINGS[MODE_LOG])
        assert log.level(19)[0][0] == pytest.approx((2**20 - 2) * math.log(2))

    def test_size_table_stops_at_the_float_range(self, two_tree):
        # depth-r follower trees of E:2 have 2^(r+1) - 1 nodes
        subtree_nodes.cache_clear()
        assert subtree_nodes(two_tree, 0, 1022) == 2**1023 - 1
        for depth in (1023, 10**9):
            with pytest.raises(SizeGuardError, match="depth-1023 follower trees"):
                subtree_nodes(two_tree, 1, depth)
        assert subtree_nodes.cache_info().currsize == 1
        assert subtree_nodes(two_tree, 1, 1022) == 2**1023 - 1
