import itertools
import random

import pytest

import treeshift.oracle
from treeshift.errors import SizeGuardError
from treeshift.cli import verification_sweep
from treeshift.matrices import BinaryMatrix
from treeshift.oracle import (
    REGION_GUARD,
    Region,
    _fold_getters,
    block_region,
    brute_block_counts,
    brute_strip_counts,
    count_labelings,
    path_strip_region,
    tally_labelings,
)
from treeshift.ray import Ray, region_sites
from treeshift.sampling import random_primitive_matrix, seeded_primitive_matrices
from treeshift.tree import crt_preset, delta_size, validate_tree

from support import count_dfs, imported_names, random_ray, words_up_to

G = BinaryMatrix.golden()
ONE = BinaryMatrix.full(1)


class Sink(int):
    """A seed whose draws give A a zero row: a sink symbol, which no label
    may have above a constrained edge."""


#: extra inputs for the seeded tests, one per tree
SINKS = [pytest.param(Sink(s), id=f"sink{s}") for s in range(3)]


def draw_adjacency(k, rng, seed):
    """A random primitive k x k adjacency, with one random row zeroed when
    ``seed`` is a ``Sink``."""
    a = random_primitive_matrix(k, rng)
    if not isinstance(seed, Sink):
        return a
    rows = [list(row) for row in a.rows]
    rows[rng.randrange(k)] = [0] * k
    return BinaryMatrix.from_rows(rows)


def random_region(seed):
    """Nine random words of depth <= 3 on one of three trees, and a random A
    (``draw_adjacency``): regions with several roots and with deep nodes
    whose parents are missing."""
    rng = random.Random(seed)
    tree = [validate_tree(G), validate_tree(BinaryMatrix.full(2)), crt_preset(3)][seed % 3]
    a = draw_adjacency(rng.choice([2, 3]), rng, seed)
    words = list(words_up_to(tree, 3))
    return Region(tuple(rng.sample(words, k=min(9, len(words))))), a


def chain_region(seed):
    """A random region around one chain of words of lengths 0..4 (all
    prefixes of one word), plus six random words of depth <= 4, and a
    random A (``draw_adjacency``)."""
    rng = random.Random(seed)
    tree = [validate_tree(G), validate_tree(BinaryMatrix.full(2)), crt_preset(3)][seed % 3]
    a = draw_adjacency(rng.choice([2, 3]), rng, seed)
    words = list(words_up_to(tree, 4))
    deep = rng.choice([w for w in words if len(w) == 4])
    chain = [deep[:i] for i in range(5)]
    return chain, Region(tuple(set(chain + rng.sample(words, k=6)))), a


def built_chain_region(seed):
    """A strip region from ``path_strip_region`` along a random ray, in walk
    order and not sorted, with its path nodes 0..4 as the chain, and a
    random A (``draw_adjacency``).  Width 1 and, on crt:3 (up to 15 nodes),
    k = 2 keep the labelings few enough for dfs to enumerate."""
    rng = random.Random(seed)
    tree = [validate_tree(G), validate_tree(BinaryMatrix.full(2)), crt_preset(3)][seed % 3]
    a = draw_adjacency(2 if seed % 3 == 2 else 3, rng, seed)
    ray = random_ray(tree, rng)
    return [ray.node(i) for i in range(5)], path_strip_region(tree, ray, 1, 4), a


def count(region, a, method):
    """``count_labelings``, or plain enumeration for method "dfs"."""
    return count_dfs(region, a)[0] if method == "dfs" else count_labelings(region, a)


def tally(region, a, node, method):
    """``tally_labelings``, or plain enumeration for method "dfs"."""
    return tuple(count_dfs(region, a, node)) if method == "dfs" else tally_labelings(region, a, node)


def single_pins(region, a, node, method):
    """The per-symbol counts of ``node`` from k separately pinned counts,
    the region's own pins kept."""
    return tuple(
        count(region.with_pins({**region.pins, node: s}), a, method) for s in range(a.dim)
    )


class TestRegion:
    def test_nodes_deduplicated_and_sorted(self):
        r = Region(((0,), (), (0,)))
        assert r.nodes == ((), (0,))

    def test_parents_from_words(self):
        r = Region(((0, 1), (1, 0, 0), (), (0,), (0, 1)))
        assert r.nodes == ((), (0,), (0, 1), (1, 0, 0))
        assert r.parents == (-1, 0, 1, -1)
        assert r.with_pins({(0,): 1}).parents == r.parents

    def test_pin_must_be_in_region(self):
        with pytest.raises(ValueError):
            Region(((),), {(0,): 1})


class TestCountLabelings:
    def test_depth_one_block_golden(self, golden_tree):
        region = block_region(golden_tree, 1)
        assert count_labelings(region, G) == 5

    def test_depth_two_block_golden(self, golden_tree):
        region = block_region(golden_tree, 2)
        assert count_labelings(region, G) == 23

    @pytest.mark.parametrize("k", [2, 3])
    def test_free_labeling(self, golden_tree, k):
        region = block_region(golden_tree, 2)
        assert count_labelings(region, BinaryMatrix.full(k)) == k ** len(region.nodes)

    def test_out_of_region_parent_unconstrained(self, golden_tree):
        # a single node whose parent is outside the region: no constraints
        region = Region(((0, 0),))
        assert count_labelings(region, G) == 2

    def test_disconnected_components_multiply(self, golden_tree):
        region = Region(((0,), (1, 0)))
        assert count_labelings(region, G) == 4

    def test_pinned_root(self, golden_tree):
        region = block_region(golden_tree, 1)
        assert count_labelings(region.with_pins({(): 0}), G) == 4
        assert count_labelings(region.with_pins({(): 1}), G) == 1

    def test_two_pins(self, golden_tree):
        # pin both ends of a path edge: remaining freedom only in between
        region = Region(((), (0,), (0, 0)), {(): 0, (0, 0): 1})
        # labels: root=1-sym 0, child in {0,1}, grandchild=sym 1 requires child=0
        assert count_labelings(region, G) == 1

    @pytest.mark.parametrize("seed", [*range(12), *SINKS])
    def test_dfs_and_fold_agree(self, seed):
        region, a = random_region(seed)
        assert count_dfs(region, a) == [count_labelings(region, a)]

    def test_dfs_guard(self, two_tree):
        region = block_region(two_tree, 4)  # 31 nodes
        with pytest.raises(SizeGuardError):
            count_dfs(region, G)
        with pytest.raises(SizeGuardError):
            count_dfs(region, G, ())
        at_guard = Region(region.nodes[:30])
        assert count_dfs(at_guard, ONE) == [1]
        assert count_dfs(at_guard, ONE, ()) == [1]

    def test_fold_guard(self, two_tree):
        # built from words, so the fold's own check refuses it
        region = Region(tuple(words_up_to(two_tree, 13)))  # 16383 nodes
        with pytest.raises(SizeGuardError):
            count_labelings(region, G)
        with pytest.raises(SizeGuardError):
            tally_labelings(region, G, ())
        at_guard = Region(region.nodes[:10_000])
        assert count_labelings(at_guard, ONE) == 1
        assert tally_labelings(at_guard, ONE, ()) == (1,)

    def test_unknown_method(self, two_tree):
        # the fold is the oracle's one method: there is nothing to name
        with pytest.raises(TypeError):
            count_labelings(block_region(two_tree, 1), G, "magic")

    def test_default_method_is_fold(self, two_tree):
        # the fold counts every region, and agrees with plain enumeration
        region = block_region(two_tree, 1)
        assert count_labelings(region, G) == count_dfs(region, G)[0] == 5

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: count_labelings(block_region(t, 1), G, method="fold"),
            lambda t: tally_labelings(block_region(t, 1), G, (), method="fold"),
            lambda t: brute_block_counts(t, G, 1, method="fold"),
            lambda t: brute_strip_counts(t, G, Ray((), (0,)), 1, 1, method="fold"),
        ],
        ids=["count", "tally", "block", "strip"],
    )
    def test_no_method_keyword(self, two_tree, call):
        with pytest.raises(TypeError, match="method"):
            call(two_tree)


class TestRegionGuard:
    # one limit, checked on the predicted size before any word is laid out

    @staticmethod
    def spy(monkeypatch, refuse=False):
        """The path nodes of the pieces the oracle lays out from now on, from
        empty layout tables, so the count does not depend on earlier tests."""
        brute_block_counts.cache_clear()
        brute_strip_counts.cache_clear()
        laid, lay = [], treeshift.oracle.lay_piece

        def lay_piece(tree, words, parents, node, *rest):
            assert not refuse, f"piece at {node} laid out past the guard"
            laid.append(node)
            return lay(tree, words, parents, node, *rest)

        monkeypatch.setattr(treeshift.oracle, "lay_piece", lay_piece)
        return laid

    def test_refused_before_any_word_is_laid_out(self, monkeypatch, two_tree):
        self.spy(monkeypatch, refuse=True)
        with pytest.raises(SizeGuardError):
            brute_block_counts(two_tree, G, 14)  # 32,767 nodes
        with pytest.raises(SizeGuardError):
            brute_strip_counts(two_tree, G, Ray((), (0,)), 15, 1)  # 65,536 nodes

    def test_both_sides_of_the_limit(self, monkeypatch, two_tree, chain_tree):
        # 10,000-node regions are laid out and counted; 10,001-node ones (on
        # the chain, a depth-n block has n + 1 nodes and the strip pieces at
        # path indices 0..m have m + 1) are refused before any piece is laid
        assert REGION_GUARD == 10_000
        tree = validate_tree(BinaryMatrix.from_rows([[0, 0, 1], [1, 1, 1], [0, 0, 1]]))
        ray = Ray((), (0,))
        assert delta_size(tree, 99) == region_sites(two_tree, ray, 4, 625) == 10_000
        laid = self.spy(monkeypatch)
        assert brute_block_counts(tree, ONE, 99) == (1,)
        assert brute_strip_counts(two_tree, ONE, ray, 4, 624) == (1,)
        assert len(laid) == 1 + 625
        laid.clear()
        with pytest.raises(SizeGuardError, match="10001 nodes > 10000"):
            brute_block_counts(chain_tree, ONE, 10_000)
        with pytest.raises(SizeGuardError, match="10001 nodes > 10000"):
            brute_strip_counts(chain_tree, ONE, ray, 1, 10_000)
        assert laid == []


class TestLayoutTables:
    # each geometry is laid out once and folded for every adjacency; a
    # refusal is never kept, so it is refused again

    spy = staticmethod(TestRegionGuard.spy)

    @pytest.mark.parametrize("seed", [*range(6), *SINKS])
    def test_second_adjacency_lays_out_nothing(self, monkeypatch, seed):
        rng = random.Random(seed)
        tree = [validate_tree(G), validate_tree(BinaryMatrix.full(2)), crt_preset(3)][seed % 3]
        ray = random_ray(tree, rng)
        laid = self.spy(monkeypatch)
        for a in (draw_adjacency(2, rng, seed), draw_adjacency(3, rng, seed)):
            block, strip = brute_block_counts(tree, a, 2), brute_strip_counts(tree, a, ray, 1, 2)
            # one block piece and strip pieces 0..2, at the first adjacency alone
            assert laid == [None, None, ray.letter(1), ray.letter(2)]
            assert list(block) == count_dfs(block_region(tree, 2), a, ())
            assert list(strip) == count_dfs(path_strip_region(tree, ray, 1, 2), a, ray.node(2))

    def test_refusals_are_refused_again(self, monkeypatch, two_tree, golden_tree):
        self.spy(monkeypatch, refuse=True)
        inadmissible = Ray((), (1,))  # f2 -> f2 is forbidden on G
        for _ in range(2):
            with pytest.raises(SizeGuardError):
                brute_block_counts(two_tree, G, 14)  # 32,767 nodes
            with pytest.raises(SizeGuardError):
                brute_strip_counts(two_tree, G, Ray((), (0,)), 15, 1)  # 65,536 nodes
            with pytest.raises(ValueError, match="ray inadmissible"):
                brute_strip_counts(golden_tree, G, inadmissible, 2, 1)
            with pytest.raises(ValueError, match="ray inadmissible"):
                path_strip_region(golden_tree, inadmissible, 2, 1)

    def test_cache_clear_empties_its_table(self, monkeypatch, golden_tree):
        ray = Ray((), (0,))
        laid = self.spy(monkeypatch)

        def both():
            brute_block_counts(golden_tree, G, 2)
            brute_strip_counts(golden_tree, G, ray, 2, 1)

        both()
        both()
        assert laid == [None, None, 0]
        brute_block_counts.cache_clear()
        both()
        assert laid == [None, None, 0, None]
        brute_strip_counts.cache_clear()
        both()
        assert laid == [None, None, 0, None, None, 0]

    def test_tables_are_bounded(self, monkeypatch, chain_tree):
        # one more depth than a table holds: the least recently used is dropped
        laid = self.spy(monkeypatch)
        for n in range(treeshift.oracle.LAYOUTS + 1):
            assert brute_block_counts(chain_tree, ONE, n) == (1,)
        laid.clear()
        brute_block_counts(chain_tree, ONE, treeshift.oracle.LAYOUTS)
        assert laid == []
        brute_block_counts(chain_tree, ONE, 0)
        assert laid == [None]


class TestFoldGetters:
    # what a fold reads of an adjacency is built once per adjacency, not
    # once per fold

    def test_verify_builds_them_twice_per_adjacency(self, monkeypatch):
        built = []
        summers = treeshift.oracle._summers
        monkeypatch.setattr(treeshift.oracle, "_summers", lambda s: built.append(s) or summers(s))
        _fold_getters.cache_clear()
        assert verification_sweep(0) == (3000, [])
        adjacencies = set(seeded_primitive_matrices(20, (2, 3), 0))
        assert len(adjacencies) == 13
        assert len(built) == 2 * len(adjacencies)  # its rows, then its columns
        _fold_getters.cache_clear()

    def test_getters_sum_rows_and_columns(self):
        # a sink row and a one-entry column: both become slices
        a = BinaryMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        rows, cols, leaf = _fold_getters(a)
        vec = (2, 3, 5)
        assert [sum(g(vec)) for g in rows] == [5, 5, 0]
        assert [sum(g(vec)) for g in cols] == [2, 2, 3]
        assert leaf == (2, 1, 0)
        assert all(isinstance(x, tuple) for x in (rows, cols, leaf))

    def test_cache_clear_empties_its_table(self):
        _fold_getters(G)
        assert _fold_getters.cache_info().currsize > 0
        _fold_getters.cache_clear()
        assert _fold_getters.cache_info().currsize == 0


class TestTallyLabelings:
    @pytest.mark.parametrize("method", ["dfs", "fold"])
    @pytest.mark.parametrize("seed", [*range(12), *SINKS])
    def test_every_node_equals_single_pins(self, seed, method):
        region, a = random_region(seed)
        for node in region.nodes:
            assert tally(region, a, node, method) == single_pins(region, a, node, method)

    @pytest.mark.parametrize("method", ["dfs", "fold"])
    def test_multi_root_region_with_pins(self, method):
        # roots (0,) and (1, 0); the tally node's top ancestor is (0,), and
        # a pin sits on another root's subtree
        a = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        words = ((0,), (0, 1), (0, 1, 2), (0, 1, 0), (0, 2), (1, 0), (1, 0, 0), (1, 0, 2))
        region = Region(words, {(1, 0, 2): 2})
        for node in set(words) - region.pins.keys():
            assert tally(region, a, node, method) == single_pins(region, a, node, method)

    @pytest.mark.parametrize("where", ["tally", "ancestor", "descendant", "around"])
    @pytest.mark.parametrize("seed", [*range(9), *SINKS])
    def test_fold_equals_dfs_with_pins_on_the_chain(self, seed, where):
        # the fold carries a per-label table only along the tally node's
        # ancestors; pins on that chain, at either end of it or on the
        # tally node itself, must not change what it counts
        self.check_pins_on_the_chain(*chain_region(seed), random.Random(seed), where)

    @pytest.mark.parametrize("where", ["tally", "ancestor", "descendant", "around"])
    @pytest.mark.parametrize("seed", [*range(9), *SINKS])
    def test_fold_equals_dfs_with_pins_on_a_built_chain(self, seed, where):
        self.check_pins_on_the_chain(*built_chain_region(seed), random.Random(seed), where)

    @staticmethod
    def check_pins_on_the_chain(chain, region, a, rng, where):
        for i in (1, 2, 3):
            node = chain[i]
            targets = {
                "tally": [node],
                "ancestor": [rng.choice(chain[:i])],
                "descendant": [rng.choice(chain[i + 1 :])],
                "around": chain[i - 1 : i + 2],
            }[where]
            pinned = region.with_pins({w: rng.randrange(a.dim) for w in targets})
            fold = tally_labelings(pinned, a, node)
            assert list(fold) == count_dfs(pinned, a, node)
            if node in pinned.pins:
                assert [s for s, x in enumerate(fold) if x] in ([], [pinned.pins[node]])

    def test_tally_node_must_be_in_region(self):
        with pytest.raises(ValueError):
            tally_labelings(Region(((),)), G, (0,))

    @pytest.mark.parametrize("method", ["dfs", "fold"])
    def test_brute_counts_equal_single_pins(self, golden_tree, crt3_tree, method):
        ray = Ray((1, 2), (0, 1, 2))
        for tree, a in ((golden_tree, G), (crt3_tree, BinaryMatrix.from_rows([[1, 1], [1, 0]]))):
            block = block_region(tree, 2)
            brute = brute_block_counts(tree, a, 2) if method == "fold" else tally(block, a, (), method)
            assert brute == single_pins(block, a, (), method)
        for m in (0, 1, 3):
            strip = path_strip_region(crt3_tree, ray, 1, m)
            last = ray.node(m)
            brute = brute_strip_counts(crt3_tree, G, ray, 1, m) if method == "fold" else tally(
                strip, G, last, method
            )
            assert brute == single_pins(strip, G, last, method)


class TestOracleIndependence:
    def test_imports_nothing_from_counting_or_transfer(self):
        assert not imported_names(treeshift.oracle) & {"counting", "transfer"}


class TestBruteBlockCounts:
    def test_golden_mean(self, golden_tree):
        assert brute_block_counts(golden_tree, G, 1) == (4, 1)
        assert brute_block_counts(golden_tree, G, 2) == (15, 8)

    def test_full_shift_symmetry(self, golden_tree):
        counts = brute_block_counts(golden_tree, BinaryMatrix.full(2), 2)
        assert counts[0] == counts[1] == 2 ** 5  # 2^(|block|-1), |block|=6

    @pytest.mark.parametrize("seed", range(6))
    def test_permutation_invariance(self, seed):
        rng = random.Random(200 + seed)
        k = 3
        a = random_primitive_matrix(k, rng)
        perm = list(range(k))
        rng.shuffle(perm)
        permuted = BinaryMatrix.from_rows(
            [[a.entry(perm[i], perm[j]) for j in range(k)] for i in range(k)]
        )
        tree = crt_preset(3)
        base = brute_block_counts(tree, a, 3)
        moved = brute_block_counts(tree, permuted, 3)
        assert moved == tuple(base[perm[i]] for i in range(k))
        assert sum(moved) == sum(base)


class TestBruteCountsAgainstEnumeration:
    @pytest.mark.parametrize("seed", [*range(6), *SINKS])
    def test_block_and_strip_counts_equal_dfs(self, seed):
        # the tally node's count per label, against plain enumeration of
        # blocks of depth <= 2 and width-1 strips over path indices 0..3
        rng = random.Random(seed)
        tree = [validate_tree(G), validate_tree(BinaryMatrix.full(2)), crt_preset(3)][seed % 3]
        a = draw_adjacency(rng.choice([2, 3]), rng, seed)
        for n in range(3):
            assert list(brute_block_counts(tree, a, n)) == count_dfs(block_region(tree, n), a, ())
        ray = random_ray(tree, rng)
        for m in range(4):
            region = path_strip_region(tree, ray, 1, m)
            assert list(brute_strip_counts(tree, a, ray, 1, m)) == count_dfs(region, a, ray.node(m))


class TestBruteStripCounts:
    def test_m_is_a_path_index(self, golden_tree):
        # m counts path indices from 0, as in transfer.strip_counts
        ray = Ray((), (0,))
        with pytest.raises(ValueError, match="m must be >= 0"):
            brute_strip_counts(golden_tree, G, ray, 2, -1)
        with pytest.raises(ValueError, match="m must be >= 0"):
            path_strip_region(golden_tree, ray, 2, -1)
        assert len(path_strip_region(golden_tree, ray, 2, 0).nodes) == region_sites(golden_tree, ray, 2, 1)

    def test_pin_vector_shape(self, golden_tree):
        counts = brute_strip_counts(golden_tree, G, Ray((), (0,)), 2, 2)
        assert len(counts) == 2
        assert all(c > 0 for c in counts)

    def test_full_shift_total(self, two_tree):
        e2 = BinaryMatrix.full(2)
        ray = Ray((), (0,))
        n, m = 2, 3
        counts = brute_strip_counts(two_tree, e2, ray, n, m)
        region = path_strip_region(two_tree, ray, n, m)
        assert sum(counts) == 2 ** len(region.nodes)


class TestExtensionProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_local_counts_equal_distinct_restrictions(self, seed):
        # with a primitive adjacency every locally admissible labeling of a
        # block extends, so counting the block directly equals counting
        # distinct restrictions of one-level-deeper labelings
        rng = random.Random(300 + seed)
        tree = [validate_tree(G), crt_preset(3)][seed % 2]
        a = random_primitive_matrix(rng.choice([2, 3]), rng)
        inner = block_region(tree, 1)
        outer = block_region(tree, 2)
        direct = count_labelings(inner, a)
        k = a.dim
        seen = set()
        order = sorted(outer.nodes, key=lambda w: (len(w), w))
        inner_set = set(inner.nodes)
        support = [a.row_support(i) for i in range(k)]

        def rec(idx, assignment):
            if idx == len(order):
                seen.add(tuple(assignment[w] for w in inner.nodes))
                return
            w = order[idx]
            allowed = (
                support[assignment[w[:-1]]] if len(w) > 0 else range(k)
            )
            for s in allowed:
                assignment[w] = s
                rec(idx + 1, assignment)
            assignment.pop(w, None)

        rec(0, {})
        assert len(seen) == direct
