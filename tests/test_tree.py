import itertools
import random

import pytest

import treeshift.tree as tree_module
from treeshift.errors import SizeGuardError
from treeshift.matrices import BinaryMatrix
from treeshift.tree import (
    CompleteRecursiveWitness,
    crt_preset,
    delta_size,
    is_complete_recursive,
    subtree_nodes,
    validate_tree,
)

from support import (
    cps_from_witness,
    follower_is_full,
    is_cps,
    random_tree_without_full_row,
    words_up_to,
)

G = BinaryMatrix.golden()


def nonzero_rows(d):
    return [row for row in itertools.product((0, 1), repeat=d) if any(row)]


def least_ordering_by_search(tree):
    """Reference witness: the least valid ordering under the key (full row,
    symbol), found by trying every permutation in that order."""
    full = frozenset(t for t in tree.generators() if tree.shape.row_is_full(t))

    def valid(order):
        return all(
            t in full or not any(tree.shape.entry(t, s) for s in order[: i + 1])
            for i, t in enumerate(order)
        )

    orders = sorted(
        itertools.permutations(tree.generators()), key=lambda p: [(t in full, t) for t in p]
    )
    ordering = next(filter(valid, orders), None) if full else None
    return CompleteRecursiveWitness(ordering is not None, full, ordering)


def cps_by_enumeration(tree, s):
    """Reference test: every word of the maximal length has exactly one
    prefix in s, and no element of s is a proper prefix of another."""
    words = set(s)
    if any(v != w and w[: len(v)] == v for v in words for w in words):
        return False
    depth = max(map(len, words))
    return all(
        sum(w[: len(v)] == v for v in words) == 1
        for w in words_up_to(tree, depth)
        if len(w) == depth
    )


class TestValidation:
    def test_golden_mean_valid(self):
        tree = validate_tree(G)
        assert tree.d == 2
        assert tree.children(0) == (0, 1)
        assert tree.children(1) == (0,)

    def test_full_valid(self):
        assert validate_tree(BinaryMatrix.full(2)).d == 2

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="finite branch"):
            validate_tree(BinaryMatrix.from_rows([[1, 0], [0, 0]]))


class TestSubtreeNodes:
    def test_two_tree(self, two_tree):
        assert subtree_nodes(two_tree, 0, 2) == 7  # 1 + 2 + 4

    def test_golden_mean(self, golden_tree):
        assert subtree_nodes(golden_tree, 0, 2) == 6
        assert subtree_nodes(golden_tree, 1, 2) == 4

    def test_depth_zero_and_empty(self, golden_tree):
        for t in golden_tree.generators():
            assert subtree_nodes(golden_tree, t, 0) == 1
            assert subtree_nodes(golden_tree, t, -1) == 0

    def test_bad_generator(self, golden_tree):
        with pytest.raises(ValueError):
            subtree_nodes(golden_tree, 5, 2)

    def test_guard_refuses_only_past_its_bound(self, two_tree, monkeypatch):
        # no tree here reaches FLOAT_SITES exactly, so the bound is lowered to
        # the depth-2 size: a size equal to the bound is admitted, one past it refused
        monkeypatch.setattr(tree_module, "FLOAT_SITES", 7)
        subtree_nodes.cache_clear()  # rows grown under the real bound skip the guard
        assert subtree_nodes(two_tree, 0, 2) == 7
        with pytest.raises(SizeGuardError, match="depth-3 follower trees"):
            subtree_nodes(two_tree, 0, 3)


class TestDeltaSize:
    def test_two_tree_geometric(self, two_tree):
        for n in range(7):
            assert delta_size(two_tree, n) == 2 ** (n + 1) - 1
        assert delta_size(two_tree, 3) == 15

    def test_golden_mean(self, golden_tree):
        assert delta_size(golden_tree, 2) == 6
        assert sorted(words_up_to(golden_tree, 2)) == [
            (),
            (0,),
            (0, 0),
            (0, 1),
            (1,),
            (1, 0),
        ]

    def test_depth_zero(self, golden_tree, crt3_tree):
        assert delta_size(golden_tree, 0) == 1
        assert delta_size(crt3_tree, 0) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_word_enumeration(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        while True:
            rows = [
                [1 if rng.random() < 0.6 else 0 for _ in range(d)] for _ in range(d)
            ]
            if all(any(r) for r in rows):
                break
        tree = validate_tree(BinaryMatrix.from_rows(rows))
        for n in range(7):
            assert delta_size(tree, n) == sum(1 for _ in words_up_to(tree, n))


class TestCrtPreset:
    def test_d2_is_golden_mean(self):
        assert crt_preset(2).shape == G

    def test_d3(self):
        assert crt_preset(3).shape.rows == ((1, 1, 1), (0, 0, 1), (1, 0, 0))

    def test_d4(self):
        assert crt_preset(4).shape.rows == (
            (1, 1, 1, 1),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 0, 0, 0),
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_exactly_one_full_row(self, d):
        tree = crt_preset(d)
        full = [t for t in tree.generators() if tree.shape.row_is_full(t)]
        assert full == [0]
        for t in tree.generators():
            assert tree.children(t)

    def test_too_small(self):
        with pytest.raises(ValueError):
            crt_preset(1)


class TestCompleteRecursive:
    def test_golden_mean(self, golden_tree):
        witness = is_complete_recursive(golden_tree)
        assert witness.is_crt
        assert witness.full_rows == frozenset({0})
        assert witness.ordering == (1, 0)  # the restricted letter goes first

    def test_crt3_ordering(self, crt3_tree):
        witness = is_complete_recursive(crt3_tree)
        assert witness.is_crt
        assert witness.ordering == (1, 2, 0)

    def test_swap_has_no_full_row(self):
        witness = is_complete_recursive(validate_tree(BinaryMatrix.from_rows([[0, 1], [1, 0]])))
        assert not witness.is_crt
        assert witness.full_rows == frozenset()
        assert witness.ordering is None

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_crt_presets_are_complete_recursive(self, d):
        assert is_complete_recursive(crt_preset(d)).is_crt

    def test_full_row_with_self_loop_blocker(self):
        # row 0 full, but row 1 has a self loop: no ordering can zero it out
        tree = validate_tree(BinaryMatrix.from_rows([[1, 1], [0, 1]]))
        assert not is_complete_recursive(tree)

    def test_witness_zero_pattern(self):
        # reordering by the witness must put zeros at and below the diagonal
        # of every non-full row
        for tree in [crt_preset(3), crt_preset(4), validate_tree(G)]:
            witness = is_complete_recursive(tree)
            assert witness.is_crt
            order = witness.ordering
            for pos, t in enumerate(order):
                if t in witness.full_rows:
                    continue
                for j in range(pos + 1):
                    assert tree.shape.entry(t, order[j]) == 0

    def test_reordered_golden_matrix(self, golden_tree):
        witness = is_complete_recursive(golden_tree)
        order = witness.ordering
        reordered = [
            [golden_tree.shape.entry(order[i], order[j]) for j in range(2)]
            for i in range(2)
        ]
        assert reordered == [[0, 1], [1, 1]]

    def test_thirteen_generator_full_tree(self):
        witness = is_complete_recursive(validate_tree(BinaryMatrix.full(13)))
        assert witness.is_crt
        assert witness.full_rows == frozenset(range(13))
        assert witness.ordering == tuple(range(13))

    def test_self_loop_among_twelve_generators(self):
        # row 0 full, row 1 a self-loop, rows 2..11 point to generator 0
        rows = [[1] * 12, [int(j == 1) for j in range(12)]]
        rows += [[int(j == 0) for j in range(12)]] * 10
        witness = is_complete_recursive(validate_tree(BinaryMatrix.from_rows(rows)))
        assert witness == CompleteRecursiveWitness(False, frozenset({0}), None)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_small_shape_matches_permutation_search(self, d):
        for rows in itertools.product(nonzero_rows(d), repeat=d):
            tree = validate_tree(BinaryMatrix(rows))
            assert is_complete_recursive(tree) == least_ordering_by_search(tree)

    def test_random_four_generator_shapes_match_permutation_search(self):
        rng = random.Random(4)
        found = 0
        for _ in range(1000):
            shape = [[int(rng.random() < 0.3) for _ in range(4)] for _ in range(4)]
            for row in shape:
                row[rng.randrange(4)] = 1
            shape[rng.randrange(4)] = [1] * 4
            tree = validate_tree(BinaryMatrix.from_rows(shape))
            witness = is_complete_recursive(tree)
            assert witness == least_ordering_by_search(tree)
            found += witness.is_crt
        assert found >= 40  # the sample reaches complete recursive shapes

    @pytest.mark.parametrize("seed", range(10))
    def test_no_full_row_never_complete_recursive(self, seed):
        rng = random.Random(seed)
        tree = random_tree_without_full_row(rng.randint(2, 4), rng)
        assert not is_complete_recursive(tree)


class TestFollowerSets:
    def test_full_row_follower(self, golden_tree):
        assert follower_is_full(golden_tree, (1, 0))  # ends at the full-row letter
        assert not follower_is_full(golden_tree, (0, 1))

    def test_inadmissible_word_rejected(self, golden_tree):
        with pytest.raises(ValueError):
            follower_is_full(golden_tree, (1, 1))
        with pytest.raises(ValueError):
            follower_is_full(golden_tree, ())

    @pytest.mark.parametrize("seed", range(8))
    def test_depends_only_on_last_letter(self, seed):
        rng = random.Random(seed)
        d = rng.randint(2, 3)
        while True:
            rows = [
                [1 if rng.random() < 0.7 else 0 for _ in range(d)] for _ in range(d)
            ]
            if all(any(r) for r in rows):
                break
        tree = validate_tree(BinaryMatrix.from_rows(rows))
        by_last = {}
        for length in range(1, 5):
            for w in [w for w in words_up_to(tree, length) if len(w) == length]:
                value = follower_is_full(tree, w)
                by_last.setdefault(w[-1], value)
                assert by_last[w[-1]] == value


class TestCompletePrefixSets:
    def test_golden_mean_cps(self, golden_tree):
        assert is_cps(golden_tree, {(0,), (1, 0)})

    def test_missing_branch(self, golden_tree):
        assert not is_cps(golden_tree, {(0,)})

    def test_prefix_pair_rejected(self, golden_tree):
        assert not is_cps(golden_tree, {(0,), (0, 0)})

    def test_full_tree_generators(self, two_tree):
        assert is_cps(two_tree, {(0,), (1,)})

    def test_empty_rejected(self, golden_tree):
        with pytest.raises(ValueError):
            is_cps(golden_tree, set())

    def test_inadmissible_member_rejected(self, golden_tree):
        with pytest.raises(ValueError):
            is_cps(golden_tree, {(1, 1)})

    @pytest.mark.parametrize("tree_name", ["golden", "two", "crt3"])
    def test_random_sets_match_enumeration(self, request, tree_name):
        tree = request.getfixturevalue(f"{tree_name}_tree")
        pool = [w for w in words_up_to(tree, 4) if w]
        rng = random.Random(3)
        complete = 0
        for _ in range(300):
            s = {(t,) for t in tree.generators()}
            for _ in range(rng.randint(0, 5)):  # split random members into their children
                w = rng.choice(sorted(s))
                s.remove(w)
                s |= {w + (u,) for u in tree.children(w[-1])}
            if rng.random() < 0.3:
                s.discard(rng.choice(sorted(s)))
            if rng.random() < 0.3 or not s:
                s.add(rng.choice(pool))
            assert is_cps(tree, s) == cps_by_enumeration(tree, s)
            complete += cps_by_enumeration(tree, s)
        assert 50 <= complete <= 250  # both answers are well represented

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 20])
    def test_witness_yields_full_follower_cps(self, d):
        tree = crt_preset(d)
        witness = is_complete_recursive(tree)
        cps = cps_from_witness(tree, witness)
        assert is_cps(tree, cps)
        for u in cps:
            assert follower_is_full(tree, u)

    @pytest.mark.parametrize("seed", range(30))
    def test_witness_cps_on_random_complete_recursive_trees(self, seed):
        # drawn from a witness ordering: a random order of the symbols, a
        # full row last, and each non-full row zero at its own position and
        # every earlier one, random and not all zero after it
        rng = random.Random(1000 + seed)
        d = rng.randint(2, 4)
        order = rng.sample(range(d), d)
        rows = [[1] * d for _ in range(d)]
        for i, t in enumerate(order[:-1]):
            rows[t] = [0] * d
            for s in order[i + 1 :]:
                rows[t][s] = int(rng.random() < 0.5)
            rows[t][rng.choice(order[i + 1 :])] = 1
        tree = validate_tree(BinaryMatrix.from_rows(rows))
        witness = is_complete_recursive(tree)
        assert witness.is_crt
        cps = cps_from_witness(tree, witness)
        assert is_cps(tree, cps)
        assert all(follower_is_full(tree, u) for u in cps)
