"""Seeded random generators for verification sweeps and experiments."""

from __future__ import annotations

import random

from .matrices import BinaryMatrix, is_primitive

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
