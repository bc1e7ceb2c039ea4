"""Geometry of Markov-Cayley trees.

A Markov-Cayley tree over generators 0..d-1 is the set of finite words whose
consecutive letters are allowed by a 0-1 shape matrix M.  The empty word is
the root and all d generators are children of the root (the first letter is
unconstrained); a node ending in letter t has one child per allowed successor
of t.

Sizes come from one level table per tree, filled bottom-up by a plain loop:
row r holds the depth-r follower-tree size of every generator, and the fill
stops at the first row past ``FLOAT_SITES``, so deep requests fail fast.  The
tables are shared module state: fill them from one thread, or guard calls outside.

Generators are 0-based throughout the library; the textual CLI layer maps
f1..fd onto 0..d-1.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import NamedTuple

from .errors import SizeGuardError
from .matrices import BinaryMatrix, Value

Word = tuple[int, ...]

#: the largest integer float() converts: no size or site count may pass it
FLOAT_SITES = 2**1024 - 2**970 - 1


class MarkovTree(Value):
    """An infinite Markov-Cayley tree, described by its shape matrix."""

    __slots__ = ("shape",)

    def __init__(self, shape: BinaryMatrix) -> None:
        self._freeze(shape)

    @property
    def d(self) -> int:
        return self.shape.dim

    def generators(self) -> range:
        return range(self.d)

    def children(self, t: int) -> tuple[int, ...]:
        """Generators that may follow a node of type t."""
        return self.shape.row_support(t)

    def is_admissible(self, word: Word) -> bool:
        return all(self.shape.entry(a, b) == 1 for a, b in zip(word, word[1:]))


def validate_tree(shape: BinaryMatrix) -> MarkovTree:
    """Accept a shape matrix iff every branch extends forever (no zero row)."""
    for i in range(shape.dim):
        if not shape.row_support(i):
            raise ValueError(
                f"finite branch: not an infinite tree (row {i} of the shape is zero)"
            )
    return MarkovTree(shape)


def crt_preset(d: int) -> MarkovTree:
    """The complete recursive tree family with exactly one full row.

    Row 0 is full, each row 1 <= t <= d-2 points only to t+1, and the last
    row points back to generator 0.  d=2 gives the golden-mean shape.
    """
    if d < 2:
        raise ValueError("crt preset needs d >= 2")
    rows = []
    rows.append(tuple(1 for _ in range(d)))
    for t in range(1, d - 1):
        rows.append(tuple(1 if j == t + 1 else 0 for j in range(d)))
    rows.append(tuple(1 if j == 0 else 0 for j in range(d)))
    return MarkovTree(BinaryMatrix.from_rows(rows))


@lru_cache(maxsize=None)
def _size_levels(tree: MarkovTree) -> list[tuple[int, ...]]:
    """The tree's size level table, grown by ``size_row``; row 0 first."""
    return [(1,) * tree.d]


def size_row(tree: MarkovTree, depth: int) -> tuple[int, ...]:
    """Node counts of the depth-``depth`` follower trees of all generators.

    Counts each generator's node plus ``depth`` further generations; depth
    -1 is the empty tree.  Raises ``SizeGuardError`` past ``FLOAT_SITES``.
    """
    if depth < 0:
        return (0,) * tree.d
    rows = _size_levels(tree)
    while len(rows) <= depth:  # fill the rows up to depth, each from the one below
        below = rows[-1]
        row = tuple(1 + sum(below[u] for u in tree.children(s)) for s in tree.generators())
        if max(row) > FLOAT_SITES:
            raise SizeGuardError(
                f"sizes refused: depth-{len(rows)} follower trees pass the float range"
            )
        rows.append(row)
    return rows[depth]


def subtree_nodes(tree: MarkovTree, t: int, depth: int) -> int:
    """Node count of the depth-``depth`` follower tree of a type-t node."""
    if t not in tree.generators():
        raise ValueError(f"generator {t} out of range for d={tree.d}")
    return size_row(tree, depth)[t]


# the level tables are the only memo here: their statistics and reset
subtree_nodes.cache_info = _size_levels.cache_info
subtree_nodes.cache_clear = _size_levels.cache_clear


def delta_size(tree: MarkovTree, n: int) -> int:
    """Number of nodes of the depth-n block (all words of length <= n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return 1 + sum(size_row(tree, n - 1))


class CompleteRecursiveWitness(NamedTuple):
    """Outcome of the complete-recursive-tree test.

    ``full_rows`` is the set of generators whose shape row is full.  When the
    tree is complete recursive, ``ordering`` lists the generators in an order
    under which every non-full row has zeros in its own column and all
    earlier ones.
    """

    is_crt: bool
    full_rows: frozenset[int]
    ordering: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.is_crt


def is_complete_recursive(tree: MarkovTree) -> CompleteRecursiveWitness:
    """Decide whether the tree is complete recursive (full rows + reorder).

    The condition: some nonempty set of full rows exists, and the symbols can
    be reordered so that every non-full row t placed at position i satisfies
    M(t, s) = 0 for all symbols s placed at positions <= i: a topological
    order of the edges out of non-full rows, so a cycle through non-full rows
    (a self-loop included) rules the tree out.  Kahn's algorithm places the
    least ready symbol under the key (full row, symbol) at each step.
    """
    full = frozenset(t for t in tree.generators() if tree.shape.row_is_full(t))
    if not full:
        return CompleteRecursiveWitness(False, full, None)
    waiting = [0] * tree.d  # edges t -> s from non-full rows t not yet placed
    for t in set(tree.generators()) - full:
        for s in tree.children(t):
            waiting[s] += 1
    ready = sorted((t in full, t) for t in tree.generators() if not waiting[t])  # sorted: a heap
    order: list[int] = []
    while ready:
        is_full, t = heapq.heappop(ready)
        order.append(t)
        if not is_full:
            for s in tree.children(t):
                waiting[s] -= 1
                if not waiting[s]:
                    heapq.heappush(ready, (s in full, s))
    is_crt = len(order) == tree.d
    return CompleteRecursiveWitness(is_crt, full, tuple(order) if is_crt else None)
