"""Geometry of Markov-Cayley trees.

A Markov-Cayley tree over generators 0..d-1 is the set of finite words whose
consecutive letters are allowed by a 0-1 shape matrix M.  The empty word is
the root and all d generators are children of the root (the first letter is
unconstrained); a node ending in letter t has one child per allowed successor
of t.

Generators are 0-based throughout the library; the textual CLI layer maps
f1..fd onto 0..d-1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .matrices import BinaryMatrix

Word = tuple[int, ...]


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
        if not any(shape.row(i)):
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
def subtree_nodes(tree: MarkovTree, t: int, depth: int) -> int:
    """Node count of the depth-``depth`` follower tree of a type-t node.

    Counts the node itself plus ``depth`` further generations; depth -1 is
    the empty tree.
    """
    if t not in tree.generators():
        raise ValueError(f"generator {t} out of range for d={tree.d}")
    if depth <= -1:
        return 0
    if depth == 0:
        return 1
    return 1 + sum(subtree_nodes(tree, u, depth - 1) for u in tree.children(t))


def delta_size(tree: MarkovTree, n: int) -> int:
    """Number of nodes of the depth-n block (all words of length <= n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return 1 + sum(subtree_nodes(tree, t, n - 1) for t in tree.generators())


def words_of_length(tree: MarkovTree, length: int) -> Iterator[Word]:
    """All admissible words of exactly the given length, lexicographic."""
    if length == 0:
        yield ()
        return
    stack: list[Word] = [(t,) for t in reversed(tree.generators())]
    while stack:
        w = stack.pop()
        if len(w) == length:
            yield w
            continue
        for u in reversed(tree.children(w[-1])):
            stack.append(w + (u,))


def words_up_to(tree: MarkovTree, n: int) -> Iterator[Word]:
    """All admissible words of length <= n (the depth-n block)."""
    for length in range(n + 1):
        yield from words_of_length(tree, length)


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
