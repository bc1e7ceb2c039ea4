import itertools
import random

import pytest

from treeshift.cli import SWEEP_RAYS, SWEEP_TREES
from treeshift.errors import SizeGuardError
from treeshift.matrices import BinaryMatrix
from treeshift.oracle import block_region, path_strip_region
from treeshift.ray import (
    Ray,
    lambda_strip,
    period_sites,
    phase_profiles,
    region_sites,
    step_profile,
    validate_ray,
)
from treeshift.tree import crt_preset, subtree_nodes, validate_tree

from support import check_strip_periodicity, random_ray, strip_region, words_up_to

G = BinaryMatrix.golden()


class TestRayBasics:
    def test_letters_and_nodes(self):
        ray = Ray((1,), (0, 1))
        assert [ray.letter(i) for i in range(1, 6)] == [1, 0, 1, 0, 1]
        assert ray.node(0) == ()
        assert ray.node(3) == (1, 0, 1)

    def test_letters_repeat_with_the_period(self):
        for ray in (Ray((1, 2), (0, 1, 2)), Ray((), (0,)), Ray((1,), (0, 1))):
            assert all(ray.letter(j) == ray.letter(j + ray.ell) for j in range(ray.c + 1, 50))
        assert [Ray((1, 2), (0, 1, 2)).letter(j) for j in range(1, 10)] == [1, 2, 0, 1, 2, 0, 1, 2, 0]
        with pytest.raises(ValueError):
            Ray((1, 2), (0, 1, 2)).letter(0)

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            Ray((), ())

    def test_describe(self):
        assert Ray((1,), (0, 1)).describe() == "f2(f1 f2)^inf"
        assert Ray((), (0,)).describe() == "(f1)^inf"


class TestAdmissibility:
    def test_golden_mean_rays(self, golden_tree):
        validate_ray(golden_tree, Ray((), (0,)))
        validate_ray(golden_tree, Ray((1,), (0, 1)))

    def test_forbidden_junction(self, golden_tree):
        with pytest.raises(ValueError, match="inadmissible"):
            validate_ray(golden_tree, Ray((), (1, 1)))

    def test_forbidden_wraparound(self, crt3_tree):
        # period f2 alone: the shape forbids f2 -> f2
        with pytest.raises(ValueError, match="inadmissible"):
            validate_ray(crt3_tree, Ray((1,), (1,)))

    def test_out_of_range_letter(self, golden_tree):
        with pytest.raises(ValueError, match="inadmissible"):
            validate_ray(golden_tree, Ray((), (2,)))

    @pytest.mark.parametrize("ray", [Ray((), (1,)), Ray((), (2,))])
    def test_site_tables_refuse_an_inadmissible_ray(self, golden_tree, ray):
        # f2^inf: the golden shape forbids f2 -> f2; f3 is out of range for d=2.
        # Every strip count reads its sites here, so none checks its ray again
        with pytest.raises(ValueError, match="ray inadmissible: "):
            region_sites(golden_tree, ray, 3, 5)
        with pytest.raises(ValueError, match="ray inadmissible: "):
            period_sites(golden_tree, ray, 3)


class TestStepProfile:
    def test_straight_run_on_golden_mean(self, golden_tree):
        ray = Ray((), (0,))
        for j in range(1, 8):
            assert step_profile(golden_tree, ray, j) == (1,)

    def test_restricted_node_has_no_off_branch(self, golden_tree):
        ray = Ray((), (0, 1))
        assert step_profile(golden_tree, ray, 2) == ()  # path node ends with f2

    def test_root_profile(self, crt3_tree):
        # the root's children are all generators; f3 is on the path
        assert step_profile(crt3_tree, Ray((2,), (0,)), 0) == (0, 1)

    def test_periodicity_of_profiles(self, crt3_tree):
        ray = Ray((1, 2), (0, 1, 2))
        for j in range(ray.c + 1, 20):
            a = step_profile(crt3_tree, ray, j)
            b = step_profile(crt3_tree, ray, j + ray.ell)
            assert a == b


class TestLambdaStrip:
    def test_two_tree_power_of_two(self, two_tree):
        ray = Ray((), (0,))
        for n in range(1, 8):
            for j in range(3):
                p = step_profile(two_tree, ray, j)
                assert lambda_strip(two_tree, p, n) == 2**n

    def test_no_off_branch_means_single_node(self, golden_tree):
        ray = Ray((), (0, 1))
        p = step_profile(golden_tree, ray, 2)
        for n in range(1, 10):
            assert lambda_strip(golden_tree, p, n) == 1

    def test_straight_step_width_three(self, golden_tree):
        p = step_profile(golden_tree, Ray((), (0,)), 1)
        assert lambda_strip(golden_tree, p, 3) == 5  # 1 + nu_2(f2)

    def test_width_must_be_positive(self, golden_tree):
        p = step_profile(golden_tree, Ray((), (0,)), 1)
        with pytest.raises(ValueError):
            lambda_strip(golden_tree, p, 0)

    def test_full_tree_identical_across_rays_and_positions(self, two_tree):
        rays = [Ray((), (0,)), Ray((), (0, 1)), Ray((1, 1), (1, 0))]
        for n in (1, 2, 4):
            values = {
                lambda_strip(two_tree, step_profile(two_tree, ray, j), n)
                for ray in rays
                for j in range(1, 9)
            }
            assert len(values) == 1


class TestStripPeriodicity:
    def test_golden_mean_mixed_ray(self, golden_tree):
        assert check_strip_periodicity(golden_tree, Ray((1,), (0, 1)), 20)

    def test_crt3_cycle_ray(self, crt3_tree):
        assert check_strip_periodicity(crt3_tree, Ray((), (0, 1, 2)), 20)

    def test_two_tree_any_ray(self, two_tree):
        for ray in [Ray((), (0,)), Ray((0, 1), (1, 0)), Ray((), (0, 0, 1))]:
            assert check_strip_periodicity(two_tree, ray, 25)

    def test_horizon_too_small(self, golden_tree):
        with pytest.raises(ValueError):
            check_strip_periodicity(golden_tree, Ray((), (0, 1)), 3)

    @pytest.mark.parametrize(
        "shape_name", ["E:2", "G", "crt:3"]
    )
    def test_exhaustive_small_rays(self, shape_name):
        tree = {
            "E:2": validate_tree(BinaryMatrix.full(2)),
            "G": validate_tree(G),
            "crt:3": crt_preset(3),
        }[shape_name]
        checked = 0
        for total in range(1, 9):
            for c in range(0, total):
                ell = total - c
                for prefix in [w for w in words_up_to(tree, c) if len(w) == c]:
                    for period in [w for w in words_up_to(tree, ell) if len(w) == ell]:
                        ray = Ray(prefix, period)
                        try:
                            validate_ray(tree, ray)
                        except ValueError:
                            continue
                        horizon = c + 3 * ell + 2
                        assert check_strip_periodicity(tree, ray, horizon)
                        checked += 1
        assert checked > 50


class TestStripRegion:
    def test_width_one_keeps_off_children(self, golden_tree):
        # a width-1 strip piece is the path node plus its bare off-path
        # children (the off-path child carries a depth-0 follower subtree)
        region = strip_region(golden_tree, Ray((), (0,)), 1, 2)
        assert region == ((), (0,), (0, 1), (1,))

    def test_mixed_ray_width_two_sizes(self, golden_tree):
        # strips at indices 0,1,2 of (f1 f2)^inf have sizes 3, 4, 1
        ray = Ray((), (0, 1))
        region = strip_region(golden_tree, ray, 2, 3)
        assert len(region) == 8
        sizes = [
            lambda_strip(golden_tree, step_profile(golden_tree, ray, j), 2)
            for j in range(3)
        ]
        assert sizes == [3, 4, 1]
        assert set(region) == {
            (),
            (1,),
            (1, 0),
            (0,),
            (0, 0),
            (0, 0, 0),
            (0, 0, 1),
            (0, 1),
        }

    def test_two_tree_single_strip(self, two_tree):
        region = strip_region(two_tree, Ray((), (0,)), 2, 1)
        assert len(region) == 4  # root, off child, off child's two children
        assert set(region) == {(), (1,), (1, 0), (1, 1)}

    @pytest.mark.parametrize(
        "prefix,period,n,m",
        [
            ((), (0,), 3, 6),
            ((1,), (0, 1), 2, 5),
            ((), (0, 0, 1), 4, 4),
        ],
    )
    def test_size_equals_lambda_sum(self, golden_tree, prefix, period, n, m):
        ray = Ray(prefix, period)
        region = strip_region(golden_tree, ray, n, m)
        expected = sum(
            lambda_strip(golden_tree, step_profile(golden_tree, ray, j), n)
            for j in range(m)
        )
        assert len(region) == expected

    def test_guard(self, two_tree):
        with pytest.raises(SizeGuardError):
            strip_region(two_tree, Ray((), (0,)), 18, 100)

    def test_strips_are_disjoint(self, crt3_tree):
        ray = Ray((1,), (2, 0))
        total = 0
        seen = set()
        for j in range(5):
            piece = set(strip_region(crt3_tree, ray, 3, j + 1)) - seen
            total += len(piece)
            seen |= piece
        assert total == len(strip_region(crt3_tree, ray, 3, 5))


REGION_SITES_CASES = [
    (shape, ray)
    for shape, rays in [
        ("G", [Ray((), (0,)), Ray((), (0, 1)), Ray((1,), (0,))]),
        ("crt:3", [Ray((), (0,)), Ray((), (0, 1, 2)), Ray((1, 2), (0, 1, 2))]),
        ("E:2", [Ray((), (0,)), Ray((), (1,)), Ray((1,), (0,)), Ray((0,), (1,)),
                 Ray((0, 0), (1,))]),
    ]
    for ray in rays
]


@pytest.mark.parametrize("shape,ray", REGION_SITES_CASES)
def test_region_sites_closed_form_equals_walk(shape, ray):
    shapes = {"G": G, "crt:3": crt_preset(3).shape, "E:2": BinaryMatrix.full(2)}
    tree = validate_tree(shapes[shape])
    for n in range(1, 7):
        for m in range(3 * (ray.c + ray.ell) + 2):
            walk = sum(lambda_strip(tree, step_profile(tree, ray, j), n) for j in range(m))
            assert region_sites(tree, ray, n, m) == walk, (n, m)


class TestGoldenMeanTypeCensus:
    def test_exactly_three_interior_profiles_and_five_pairs(self, golden_tree):
        # exhaust all admissible 3-letter windows (a, b, c): the profile of the
        # middle node is (a, b); consecutive pairs are ((a, b), (b, c))
        kinds = set()
        pairs = set()
        for w in [w for w in words_up_to(golden_tree, 3) if len(w) == 3]:
            a, b, c = w
            kinds.add((a, b))
            pairs.add(((a, b), (b, c)))
        assert len(kinds) == 3
        assert len(pairs) == 5

    def test_profile_kinds_match_window_census(self, golden_tree):
        kinds = set()
        for ray in [Ray((), (0,)), Ray((), (0, 1)), Ray((1,), (0,)), Ray((), (0, 0, 1))]:
            for j in range(1, 12):
                kinds.add(step_profile(golden_tree, ray, j))
        assert kinds == {(1,), (0,), ()}  # after f1 f1, f1 f2 and f2 f1


class TestPhaseTable:
    # the off-path children of path indices 0..c+ell, one table per (tree,
    # ray); every later index reads the entry of its phase

    def test_equals_step_profile_by_phase(self):
        rays = [(tree, ray) for name, tree in SWEEP_TREES for ray in SWEEP_RAYS[name]]
        rays.append((crt_preset(3), Ray((1, 2), (0, 1, 2))))  # f2f3(f1 f2 f3)^inf
        for tree, ray in rays:
            c, ell = ray.c, ray.ell
            table = phase_profiles(tree, ray)
            assert len(table) == c + ell + 1
            for j in range(c + 3 * ell + 1):
                phase = j if j <= c + ell else c + 1 + (j - c - 1) % ell
                assert table[phase] == step_profile(tree, ray, j), (ray.describe(), j)

    def test_inadmissible_ray_refused_every_time(self, golden_tree):
        for _ in range(2):
            with pytest.raises(ValueError, match="ray inadmissible"):
                phase_profiles(golden_tree, Ray((), (1,)))

    def test_cache_clear_empties_it(self, golden_tree):
        phase_profiles(golden_tree, Ray((), (0,)))
        assert phase_profiles.cache_info().currsize > 0
        phase_profiles.cache_clear()
        assert phase_profiles.cache_info().currsize == 0


class TestPeriodSites:
    def test_golden_mean_mixed(self, golden_tree):
        ray = Ray((), (0, 1))
        for n in (1, 2, 3, 5):
            expected = lambda_strip(
                golden_tree, step_profile(golden_tree, ray, 1), n
            ) + lambda_strip(golden_tree, step_profile(golden_tree, ray, 2), n)
            assert period_sites(golden_tree, ray, n) == expected


def reference_profile(tree, ray, j):
    """The off-path children at path index j from the letters alone, nothing memoized."""
    on = ray.letter(j + 1)
    children = tree.children(ray.letter(j)) if j else tree.generators()
    return tuple(t for t in children if t != on)


def reference_region_sites(tree, ray, n, m):
    """The strip sites of path indices 0..m-1, summed piece by piece."""
    return sum(
        1 + sum(subtree_nodes(tree, t, n - 1) for t in reference_profile(tree, ray, j))
        for j in range(m)
    )


def reference_strip_region(tree, ray, n, m):
    """The strip region walked letter by letter: every path node rebuilt
    from the ray's letters, every follower subtree from fresh children."""
    nodes = set()
    for j in range(m):
        base = tuple(ray.letter(i) for i in range(1, j + 1))
        nodes.add(base)
        for t in reference_profile(tree, ray, j):
            stack = [(t,)]
            while stack:
                w = stack.pop()
                nodes.add(base + w)
                if len(w) < n:
                    stack.extend(w + (u,) for u in tree.children(w[-1]))
    return tuple(sorted(nodes))


def seeded_tree(rng):
    """A random shape with d <= 4 and no zero row (full rows allowed)."""
    d = rng.randint(1, 4)
    while True:
        rows = [[int(rng.random() < 0.5) for _ in range(d)] for _ in range(d)]
        if all(any(row) for row in rows):
            return validate_tree(BinaryMatrix.from_rows(rows))


@pytest.mark.parametrize("seed", range(12))
def test_geometry_equals_letter_by_letter_walk(seed):
    rng = random.Random(seed)
    tree = seeded_tree(rng)
    for ray in {random_ray(tree, rng) for _ in range(3)}:
        horizon = 3 * (ray.c + ray.ell) + 2
        for j in range(horizon):
            assert step_profile(tree, ray, j) == reference_profile(tree, ray, j)
        for n in range(1, 5):
            for m in range(horizon + 1):
                assert region_sites(tree, ray, n, m) == reference_region_sites(tree, ray, n, m)
            for m in range(1, horizon + 1):
                assert strip_region(tree, ray, n, m) == reference_strip_region(tree, ray, n, m)
            c, ell = ray.c, ray.ell
            assert period_sites(tree, ray, n) == reference_region_sites(
                tree, ray, n, c + 1 + ell
            ) - reference_region_sites(tree, ray, n, c + 1)


@pytest.mark.parametrize("seed", range(12))
def test_walk_forests_match_the_sorted_regions(seed):
    # the oracle's regions keep the walk order: the same words as the
    # sorted views, each parent the position of the word's prefix (or -1
    # outside the region), and every parent before its children
    rng = random.Random(seed)
    tree = seeded_tree(rng)
    pairs = [(block_region(tree, n), words_up_to(tree, n)) for n in range(4)]
    for ray in {random_ray(tree, rng) for _ in range(3)}:
        for n in range(1, 4):
            for m in range(ray.c + 2 * ray.ell + 1):
                pairs.append((path_strip_region(tree, ray, n, m), strip_region(tree, ray, n, m + 1)))
    for region, words in pairs:
        assert len(region.nodes) == len(words)
        assert set(region.nodes) == set(words)
        position = {w: i for i, w in enumerate(region.nodes)}
        for i, (w, parent) in enumerate(zip(region.nodes, region.parents)):
            assert parent == (position.get(w[:-1], -1) if w else -1)
            assert parent < i


@pytest.mark.parametrize("seed", range(6))
def test_profile_depends_only_on_two_letters(seed):
    rng = random.Random(100 + seed)
    tree = seeded_tree(rng)
    ray = random_ray(tree, rng, max_prefix=3, max_period=4)
    horizon = 3 * (ray.c + ray.ell) + 2

    def letters(j):
        return (ray.letter(j) if j else None, ray.letter(j + 1))

    for i, j in itertools.combinations(range(horizon), 2):
        if letters(i) == letters(j):  # one memo entry serves both
            assert step_profile(tree, ray, i) is step_profile(tree, ray, j)


def test_profile_of_a_letter_source_ray(golden_tree):
    # step_profile reads only letters, so a letter source that is no
    # eventually periodic ray works too: the Fibonacci word f1 f2 f1 f1 f2 ...
    word = [0]
    while len(word) < 60:
        word = [x for y in word for x in ((0, 1) if y == 0 else (0,))]

    class FibonacciRay:
        def letter(self, i):
            return word[i - 1]

    off_branches = {(0, 0): (1,), (0, 1): (0,), (1, 0): ()}  # by letters j, j + 1
    for j in range(1, 50):
        profile = step_profile(golden_tree, FibonacciRay(), j)
        assert profile == reference_profile(golden_tree, FibonacciRay(), j)
        assert profile == off_branches[word[j - 1], word[j]]
