import random

import pytest

from treeshift.matrices import is_primitive
from treeshift.ray import validate_ray
from treeshift.sampling import random_primitive_matrix, seeded_primitive_matrices
from treeshift.tree import crt_preset

from support import random_ray, random_tree_without_full_row


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_random_primitive_matrices_are_primitive(dim):
    rng = random.Random(1)
    for _ in range(10):
        assert is_primitive(random_primitive_matrix(dim, rng))


def test_seeded_matrices_deterministic():
    a = seeded_primitive_matrices(5, (2, 3), 42)
    b = seeded_primitive_matrices(5, (2, 3), 42)
    assert a == b
    assert [m.dim for m in a] == [2, 3, 2, 3, 2]


@pytest.mark.parametrize(
    "count, dims, base_seed",
    # the benchmark's draws: the estimator grid, the width sweep, the oracle grid
    [(4, (2, 3), 515), (1, (5,), 0), (1, (3,), 0), (20, (2, 3), 0)],
)
def test_seeded_matrices_match_numpy_reference(count, dims, base_seed):
    # the same rejection sampler, with primitivity from numpy boolean powers
    np = pytest.importorskip("numpy")

    def primitive(rows):
        base = np.array(rows, dtype=np.int64)
        cur = base.copy()
        for _ in range((len(rows) - 1) ** 2 + 1):
            if (cur > 0).all():
                return True
            cur = ((cur @ base) > 0).astype(np.int64)
        return False

    expected = []
    for i in range(count):
        rng, dim = random.Random(base_seed * 100_003 + i), dims[i % len(dims)]
        while True:
            rows = [[1 if rng.random() < 0.6 else 0 for _ in range(dim)] for _ in range(dim)]
            if primitive(rows):
                break
        expected.append(rows)
    got = seeded_primitive_matrices(count, dims, base_seed)
    assert [[list(row) for row in m.rows] for m in got] == expected


def test_no_full_row_sampler():
    rng = random.Random(2)
    for _ in range(20):
        tree = random_tree_without_full_row(rng.randint(2, 4), rng)
        assert not any(tree.shape.row_is_full(t) for t in tree.generators())
        assert all(tree.children(t) for t in tree.generators())


def test_random_rays_admissible():
    tree = crt_preset(3)
    rng = random.Random(3)
    for _ in range(25):
        ray = random_ray(tree, rng)
        validate_ray(tree, ray)
        assert ray.c <= 2 and 1 <= ray.ell <= 3
