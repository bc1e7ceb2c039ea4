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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import SizeGuardError
from .matrices import BinaryMatrix

Word = tuple[int, ...]

#: the largest integer float() converts: no size or site count may pass it
FLOAT_SITES = 2**1024 - 2**970 - 1


@dataclass(frozen=True)
class MarkovTree:
    """An infinite Markov-Cayley tree, described by its shape matrix."""

    shape: BinaryMatrix

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


def words_up_to(tree: MarkovTree, n: int) -> list[Word]:
    """All admissible words of length <= n (the depth-n block), breadth first."""
    words: list[Word] = [()]
    for w in words:  # the loop also visits the words it appends
        if len(w) < n:
            words.extend(w + (u,) for u in (tree.children(w[-1]) if w else tree.generators()))
    return words


@dataclass(frozen=True)
class CompleteRecursiveWitness:
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


def follower_is_full(tree: MarkovTree, u: Word) -> bool:
    """True iff every word of the tree can follow u.

    The follower tree of u is the whole tree exactly when the row of u's last
    letter is full, so this is a single row test.
    """
    if len(u) == 0:
        raise ValueError("u must be a nonempty word")
    if not tree.is_admissible(u):
        raise ValueError(f"inadmissible word: {u}")
    return tree.shape.row_is_full(u[-1])


def is_cps(tree: MarkovTree, s: Iterable[Word]) -> bool:
    """Check that ``s`` is a complete prefix set.

    Every admissible word of the maximal length D in ``s`` must have exactly
    one element of ``s`` as a prefix, and no element may be a proper prefix
    of another (an antichain; distinct elements only).  In sorted order a
    proper prefix sits right before an extension, so neighbours suffice for
    the antichain test; an antichain covers each word of length D at most
    once, so it is complete iff the words of length D below it number all.
    """
    words = sorted(set(tuple(w) for w in s))
    if not words:
        raise ValueError("complete prefix set must be nonempty")
    for w in words:
        if len(w) == 0:
            raise ValueError("complete prefix set elements must be nonempty")
        if not tree.is_admissible(w):
            raise ValueError(f"inadmissible word: {w}")
    if any(b[: len(a)] == a for a, b in zip(words, words[1:])):
        return False
    depth = max(len(w) for w in words)
    covered = sum(
        subtree_nodes(tree, w[-1], depth - len(w))
        - subtree_nodes(tree, w[-1], depth - len(w) - 1)
        for w in words
    )
    return covered == delta_size(tree, depth) - delta_size(tree, depth - 1)


def cps_from_witness(tree: MarkovTree, witness: CompleteRecursiveWitness) -> frozenset[Word]:
    """Build a complete prefix set of full-follower words from a witness.

    Takes every admissible word that ends at a full-row generator and has no
    earlier full-row letter.  Under the witness ordering every non-full
    letter strictly increases its position, so all such words have length at
    most d.
    """
    if not witness.is_crt:
        raise ValueError("tree is not complete recursive")
    out: set[Word] = set()
    stack: list[Word] = [(t,) for t in tree.generators()]
    while stack:
        w = stack.pop()
        if w[-1] in witness.full_rows:
            out.add(w)
            continue
        if len(w) >= tree.d:
            raise ValueError(
                "witness inconsistent: a branch avoided full rows beyond depth d"
            )
        for u in tree.children(w[-1]):
            stack.append(w + (u,))
    return frozenset(out)
