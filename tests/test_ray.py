import itertools

import pytest

from treeshift.errors import SizeGuardError
from treeshift.matrices import BinaryMatrix
from treeshift.ray import (
    Ray,
    check_strip_periodicity,
    lambda_strip,
    period_sites,
    region_sites,
    step_profile,
    strip_region,
    validate_ray,
)
from treeshift.tree import crt_preset, validate_tree, words_of_length

G = BinaryMatrix.golden()


class TestRayBasics:
    def test_letters_and_nodes(self):
        ray = Ray((1,), (0, 1))
        assert [ray.letter(i) for i in range(1, 6)] == [1, 0, 1, 0, 1]
        assert ray.node(0) == ()
        assert ray.node(3) == (1, 0, 1)

    def test_phase_folds_onto_prefix_and_period(self):
        ray = Ray((1, 2), (0, 1, 2))
        assert [ray.phase(j) for j in range(1, 10)] == [1, 2, 3, 4, 5, 3, 4, 5, 3]
        assert [Ray((), (0,)).phase(j) for j in (1, 2, 50)] == [1, 1, 1]
        with pytest.raises(ValueError):
            ray.phase(0)

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


class TestStepProfile:
    def test_straight_run_on_golden_mean(self, golden_tree):
        ray = Ray((), (0,))
        for j in range(1, 8):
            p = step_profile(golden_tree, ray, j)
            assert p.node_type == 0
            assert p.on_path_child == 0
            assert p.off_branches == (1,)

    def test_restricted_node_has_no_off_branch(self, golden_tree):
        ray = Ray((), (0, 1))
        p = step_profile(golden_tree, ray, 2)  # path node ends with f2
        assert p.node_type == 1
        assert p.off_branches == ()

    def test_root_profile(self, crt3_tree):
        p = step_profile(crt3_tree, Ray((2,), (0,)), 0)
        assert p.node_type is None
        assert p.on_path_child == 2
        assert p.off_branches == (0, 1)

    def test_periodicity_of_profiles(self, crt3_tree):
        ray = Ray((1, 2), (0, 1, 2))
        for j in range(ray.c + 1, 20):
            a = step_profile(crt3_tree, ray, j)
            b = step_profile(crt3_tree, ray, j + ray.ell)
            assert a.kind() == b.kind()


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
        assert check_strip_periodicity(golden_tree, Ray((1,), (0, 1)), 3, 20)

    def test_crt3_cycle_ray(self, crt3_tree):
        assert check_strip_periodicity(crt3_tree, Ray((), (0, 1, 2)), 3, 20)

    def test_two_tree_any_ray(self, two_tree):
        for ray in [Ray((), (0,)), Ray((0, 1), (1, 0)), Ray((), (0, 0, 1))]:
            assert check_strip_periodicity(two_tree, ray, 2, 25)

    def test_horizon_too_small(self, golden_tree):
        with pytest.raises(ValueError):
            check_strip_periodicity(golden_tree, Ray((), (0, 1)), 2, 3)

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
                for prefix in words_of_length(tree, c):
                    for period in words_of_length(tree, ell):
                        ray = Ray(prefix, period)
                        try:
                            validate_ray(tree, ray)
                        except ValueError:
                            continue
                        horizon = c + 3 * ell + 2
                        assert check_strip_periodicity(tree, ray, 3, horizon)
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
        for w in words_of_length(golden_tree, 3):
            a, b, c = w
            kinds.add((a, b))
            pairs.add(((a, b), (b, c)))
        assert len(kinds) == 3
        assert len(pairs) == 5

    def test_profile_kinds_match_window_census(self, golden_tree):
        kinds = set()
        for ray in [Ray((), (0,)), Ray((), (0, 1)), Ray((1,), (0,)), Ray((), (0, 0, 1))]:
            for j in range(1, 12):
                kinds.add(step_profile(golden_tree, ray, j).kind())
        assert kinds == {
            (0, 0, (1,)),
            (0, 1, (0,)),
            (1, 0, ()),
        }


class TestPeriodSites:
    def test_golden_mean_mixed(self, golden_tree):
        ray = Ray((), (0, 1))
        for n in (1, 2, 3, 5):
            expected = lambda_strip(
                golden_tree, step_profile(golden_tree, ray, 1), n
            ) + lambda_strip(golden_tree, step_profile(golden_tree, ray, 2), n)
            assert period_sites(golden_tree, ray, n) == expected
