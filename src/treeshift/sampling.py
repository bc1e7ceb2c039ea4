"""Seeded random generators for verification sweeps and experiments."""

from __future__ import annotations

import random

from .matrices import BinaryMatrix, is_primitive
from .ray import Ray, validate_ray
from .tree import MarkovTree, validate_tree

MAX_TRIES = 100_000


def random_primitive_matrix(
    dim: int, rng: random.Random, density: float = 0.6
) -> BinaryMatrix:
    """Rejection-sample a primitive 0-1 matrix."""
    for _ in range(MAX_TRIES):
        rows = tuple(
            tuple(1 if rng.random() < density else 0 for _ in range(dim))
            for _ in range(dim)
        )
        m = BinaryMatrix(rows)
        if is_primitive(m):
            return m
    raise RuntimeError("could not sample a primitive matrix")


def seeded_primitive_matrices(
    count: int, dims, base_seed: int, density: float = 0.6
) -> list[BinaryMatrix]:
    """Deterministic list of primitive matrices; dims cycles over the i-th draw."""
    dims = list(dims)
    out = []
    for i in range(count):
        rng = random.Random(base_seed * 100_003 + i)
        out.append(random_primitive_matrix(dims[i % len(dims)], rng, density))
    return out


def random_tree_without_full_row(d: int, rng: random.Random) -> MarkovTree:
    """A valid tree shape (no zero rows) in which no row is full; needs d >= 2."""
    if d < 2:
        raise ValueError("no-full-row shapes need d >= 2")
    rows = []
    for _ in range(d):
        row = [1 if rng.random() < 0.5 else 0 for _ in range(d)]
        if all(x == 0 for x in row):
            row[rng.randrange(d)] = 1
        if all(row):
            row[rng.randrange(d)] = 0
        rows.append(tuple(row))
    return validate_tree(BinaryMatrix(tuple(rows)))


def random_ray(
    tree: MarkovTree,
    rng: random.Random,
    max_prefix: int = 2,
    max_period: int = 3,
) -> Ray:
    """An admissible eventually periodic ray sampled by random walk.

    Walks prefix + period letters and retries until the period closes up
    (last period letter may be followed by the first).
    """
    for _ in range(MAX_TRIES):
        c = rng.randint(0, max_prefix)
        ell = rng.randint(1, max_period)
        letters: list[int] = []
        ok = True
        for _ in range(c + ell):
            options = (
                list(tree.generators())
                if not letters
                else list(tree.children(letters[-1]))
            )
            if not options:
                ok = False
                break
            letters.append(rng.choice(options))
        if not ok:
            continue
        ray = Ray(tuple(letters[:c]), tuple(letters[c:]))
        try:
            return validate_ray(tree, ray)
        except ValueError:
            continue
    raise RuntimeError("could not sample an admissible ray")
