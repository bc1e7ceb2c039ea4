import ast
import itertools
import random
from pathlib import Path

import pytest

import treeshift.oracle
from treeshift.errors import SizeGuardError
from treeshift.matrices import BinaryMatrix
from treeshift.oracle import (
    Region,
    block_region,
    brute_block_counts,
    brute_strip_counts,
    count_labelings,
    path_strip_region,
    tally_labelings,
)
from treeshift.ray import Ray
from treeshift.sampling import random_primitive_matrix
from treeshift.tree import crt_preset, validate_tree

from support import random_ray, words_up_to

G = BinaryMatrix.golden()
ONE = BinaryMatrix.full(1)


def random_region(seed):
    """Nine random words of depth <= 3 on one of three trees, and a random
    primitive A: regions with several roots and with deep nodes whose
    parents are missing."""
    rng = random.Random(seed)
    tree = [validate_tree(G), validate_tree(BinaryMatrix.full(2)), crt_preset(3)][seed % 3]
    a = random_primitive_matrix(rng.choice([2, 3]), rng)
    words = list(words_up_to(tree, 3))
    return Region(tuple(rng.sample(words, k=min(9, len(words))))), a


def chain_region(seed):
    """A random region around one chain of words of lengths 0..4 (all
    prefixes of one word), plus six random words of depth <= 4, and a
    random primitive A."""
    rng = random.Random(seed)
    tree = [validate_tree(G), validate_tree(BinaryMatrix.full(2)), crt_preset(3)][seed % 3]
    a = random_primitive_matrix(rng.choice([2, 3]), rng)
    words = list(words_up_to(tree, 4))
    deep = rng.choice([w for w in words if len(w) == 4])
    chain = [deep[:i] for i in range(5)]
    return chain, Region(tuple(set(chain + rng.sample(words, k=6)))), a


def built_chain_region(seed):
    """A strip region from ``path_strip_region`` along a random ray, in walk
    order and not sorted, with its path nodes 0..4 as the chain, and a
    random primitive A.  Width 1 and, on crt:3 (up to 15 nodes), k = 2 keep
    the labelings few enough for dfs to enumerate."""
    rng = random.Random(seed)
    tree = [validate_tree(G), validate_tree(BinaryMatrix.full(2)), crt_preset(3)][seed % 3]
    a = random_primitive_matrix(2 if seed % 3 == 2 else 3, rng)
    ray = random_ray(tree, rng)
    return [ray.node(i) for i in range(5)], path_strip_region(tree, ray, 1, 4), a


def single_pins(region, a, node, method):
    """The per-symbol counts of ``node`` from k separately pinned counts,
    the region's own pins kept."""
    return tuple(
        count_labelings(region.with_pins({**region.pins, node: s}), a, method)
        for s in range(a.dim)
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

    @pytest.mark.parametrize("seed", range(12))
    def test_dfs_and_fold_agree(self, seed):
        region, a = random_region(seed)
        assert count_labelings(region, a, "dfs") == count_labelings(region, a, "fold")

    def test_dfs_guard(self, two_tree):
        region = block_region(two_tree, 4)  # 31 nodes
        with pytest.raises(SizeGuardError):
            count_labelings(region, G, "dfs")
        with pytest.raises(SizeGuardError):
            tally_labelings(region, G, (), "dfs")
        at_guard = Region(region.nodes[:30])
        assert count_labelings(at_guard, ONE, "dfs") == 1
        assert tally_labelings(at_guard, ONE, (), "dfs") == (1,)

    def test_fold_guard(self, two_tree):
        region = block_region(two_tree, 13)  # 16383 nodes
        with pytest.raises(SizeGuardError):
            count_labelings(region, G, "fold")
        with pytest.raises(SizeGuardError):
            tally_labelings(region, G, (), "fold")
        at_guard = Region(region.nodes[:10_000])
        assert count_labelings(at_guard, ONE, "fold") == 1
        assert tally_labelings(at_guard, ONE, (), "fold") == (1,)

    def test_unknown_method(self, two_tree):
        with pytest.raises(ValueError):
            count_labelings(block_region(two_tree, 1), G, "magic")

    def test_default_method_is_fold(self, two_tree):
        # the fold counts every region; "auto" is no method any more
        region = block_region(two_tree, 1)
        assert count_labelings(region, G) == count_labelings(region, G, "fold") == 5
        with pytest.raises(ValueError, match="unknown method"):
            count_labelings(region, G, "auto")


class TestTallyLabelings:
    @pytest.mark.parametrize("method", ["dfs", "fold"])
    @pytest.mark.parametrize("seed", range(12))
    def test_every_node_equals_single_pins(self, seed, method):
        region, a = random_region(seed)
        for node in region.nodes:
            assert tally_labelings(region, a, node, method) == single_pins(region, a, node, method)

    @pytest.mark.parametrize("method", ["dfs", "fold"])
    def test_multi_root_region_with_pins(self, method):
        # roots (0,) and (1, 0); the tally node's top ancestor is (0,), and
        # a pin sits on another root's subtree
        a = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        words = ((0,), (0, 1), (0, 1, 2), (0, 1, 0), (0, 2), (1, 0), (1, 0, 0), (1, 0, 2))
        region = Region(words, {(1, 0, 2): 2})
        for node in set(words) - region.pins.keys():
            assert tally_labelings(region, a, node, method) == single_pins(region, a, node, method)

    @pytest.mark.parametrize("where", ["tally", "ancestor", "descendant", "around"])
    @pytest.mark.parametrize("seed", range(9))
    def test_fold_equals_dfs_with_pins_on_the_chain(self, seed, where):
        # the fold carries a per-label table only along the tally node's
        # ancestors; pins on that chain, at either end of it or on the
        # tally node itself, must not change what it counts
        self.check_pins_on_the_chain(*chain_region(seed), random.Random(seed), where)

    @pytest.mark.parametrize("where", ["tally", "ancestor", "descendant", "around"])
    @pytest.mark.parametrize("seed", range(9))
    def test_fold_equals_dfs_with_pins_on_a_built_chain(self, seed, where):
        self.check_pins_on_the_chain(*built_chain_region(seed), random.Random(seed), where)

    @staticmethod
    def check_pins_on_the_chain(chain, region, a, rng, where):
        for i in (1, 2, 3):
            tally = chain[i]
            targets = {
                "tally": [tally],
                "ancestor": [rng.choice(chain[:i])],
                "descendant": [rng.choice(chain[i + 1 :])],
                "around": chain[i - 1 : i + 2],
            }[where]
            pinned = region.with_pins({w: rng.randrange(a.dim) for w in targets})
            fold = tally_labelings(pinned, a, tally, "fold")
            assert fold == tally_labelings(pinned, a, tally, "dfs")
            if tally in pinned.pins:
                assert [s for s, x in enumerate(fold) if x] in ([], [pinned.pins[tally]])

    def test_tally_node_must_be_in_region(self):
        with pytest.raises(ValueError):
            tally_labelings(Region(((),)), G, (0,))

    @pytest.mark.parametrize("method", ["dfs", "fold"])
    def test_brute_counts_equal_single_pins(self, golden_tree, crt3_tree, method):
        ray = Ray((1, 2), (0, 1, 2))
        for tree, a in ((golden_tree, G), (crt3_tree, BinaryMatrix.from_rows([[1, 1], [1, 0]]))):
            block = block_region(tree, 2)
            assert brute_block_counts(tree, a, 2, method) == single_pins(block, a, (), method)
        for m in (0, 1, 3):
            strip = path_strip_region(crt3_tree, ray, 1, m)
            assert brute_strip_counts(crt3_tree, G, ray, 1, m, method) == single_pins(
                strip, G, ray.node(m), method
            )


class TestOracleIndependence:
    def test_imports_nothing_from_counting_or_transfer(self):
        tree = ast.parse(Path(treeshift.oracle.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name.split(".")[-1] for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(part for alias in node.names for part in alias.name.split("."))
        assert not imported & {"counting", "transfer"}


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


class TestBruteStripCounts:
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
