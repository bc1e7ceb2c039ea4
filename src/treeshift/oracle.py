"""Independent brute-force ground truth for pattern counts.

Counts admissible labelings of explicit finite node sets by a fold over the
region forest; plain depth-first enumeration of every labeling ("dfs", at
most 30 nodes) stays as the reference the tests check the fold against.
Either can tally one node: it then returns, per symbol s,
the labelings that give that node the label s, all k in one pass.  Both
run on integer positions: a region is a forest whose nodes come parents
first, so the fold, in reverse, meets every descendant before its ancestor.
Each node carries one plain count vector, indexed by its own label, except
the tally node and its in-region ancestors, which carry one such vector per
label of the tally node.  Enumeration walks every labeling once and adds
the completions below the tally node to that node's label.

The oracle deliberately shares no counting tables with the counting and
transfer modules: regions are explicit forests, the fold walks them
directly, and no count is memoized across calls.  This keeps the oracle an
independent witness for everything the transfer machinery computes.  The
strip regions come from ``ray.strip_forest``, which reads the same memoized
strip geometry as the transfer side (``ray.step_profile`` and the site
offsets); the tests check those regions against a letter-by-letter walk.

A node whose parent lies outside the region is unconstrained from above,
and the counts are of locally admissible labelings: every constrained edge
is allowed by the adjacency.  Such a labeling need not extend to the full
tree: an inessential symbol (``matrices.essential``) on a node whose
children lie outside the region has no admissible continuation below it.
The transfer counts count the same patterns, so the two compare integer for
integer; the entropy functions trim inessential symbols first.
"""

from __future__ import annotations

from typing import Mapping

from .errors import SizeGuardError
from .matrices import BinaryMatrix
from .ray import Ray, lay_piece, strip_forest
from .tree import MarkovTree, Word

#: plain enumeration refuses regions with more nodes than this
DFS_NODE_GUARD = 30
#: the fold refuses regions with more nodes than this
FOLD_NODE_GUARD = 10_000
#: no longer read by the program, which always folds; kept because
#: ``perfbench/inproc.py`` imports it
AUTO_DFS_THRESHOLD = 8


class Region:
    """A finite set of tree nodes with optional pinned labels, as a forest.

    ``parents[i]`` is the position of ``nodes[i][:-1]`` (-1 when that word is
    not in the region), always less than i; the (parent, child) pairs are the
    constrained edges.  Given words alone, the region removes repeats, sorts
    them and derives the parents; the two region functions below pass a walk's.
    """

    __slots__ = ("nodes", "pins", "parents")

    def __init__(
        self,
        nodes: tuple[Word, ...],
        pins: Mapping[Word, int] | None = None,
        parents: tuple[int, ...] | None = None,
    ) -> None:
        if parents is None:
            nodes = tuple(sorted(set(nodes)))
            at = {w: i for i, w in enumerate(nodes)}
            parents = tuple(at.get(w[:-1], -1) if w else -1 for w in nodes)
        self.nodes, self.pins, self.parents = nodes, pins or {}, parents
        for w in self.pins:
            if w not in nodes:
                raise ValueError(f"pinned node {w} is not in the region")

    def with_pins(self, pins: Mapping[Word, int]) -> "Region":
        return Region(self.nodes, dict(pins), self.parents)


def block_region(tree: MarkovTree, n: int) -> Region:
    """The depth-n block as an explicit region: the root's strip piece with
    every generator off the path."""
    words: list[Word] = []
    parents: list[int] = []
    lay_piece(tree, words, parents, (), -1, tuple(tree.generators()), n)
    return Region(tuple(words), parents=tuple(parents))


def path_strip_region(tree: MarkovTree, ray: Ray, n: int, m: int) -> Region:
    """Strip pieces at path indices 0..m as an explicit region."""
    words, parents = strip_forest(tree, ray, n, m + 1)
    return Region(tuple(words), parents=tuple(parents))


def _count_fold(parents: tuple, pins: dict, a: BinaryMatrix, tally: int | None) -> list[int]:
    """The labelings per label of node ``tally``, or their total alone if None."""
    k = a.dim
    support = a.supports
    leaf_up = [len(sup) for sup in support]
    # per node, the product of its pin's indicator and its off-chain
    # children's factors; None: neither, all ones
    below: list = [None] * len(parents)
    for i, pin in pins.items():
        below[i] = [int(s == pin) for s in range(k)]
    total = 1  # the product of the component sums off the chain
    holder, chain = tally, None  # the chain node due next and, per tally label, its vector
    chain_sums = [1]
    for i in reversed(range(len(parents))):
        vec, parent = below[i], parents[i]
        if i == holder:
            if chain is None:  # the tally node: split its vector by its own label
                own = vec or [1] * k
                chain = [[v if j == s else 0 for j, v in enumerate(own)] for s in range(k)]
            elif vec is not None:
                chain = [[x * y for x, y in zip(row, vec)] for row in chain]
            if parent >= 0:
                chain = [[sum([row[j] for j in sup]) for sup in support] for row in chain]
                holder = parent
            else:
                chain_sums = [sum(row) for row in chain]
        elif parent >= 0:
            up = leaf_up if vec is None else [sum([vec[j] for j in sup]) for sup in support]
            prev = below[parent]
            below[parent] = up if prev is None else [x * y for x, y in zip(prev, up)]
        else:
            total *= k if vec is None else sum(vec)
    return [total * s for s in chain_sums]


def _count_dfs(parents: tuple, pins: dict, a: BinaryMatrix, tally: int | None) -> list[int]:
    k = a.dim
    support = a.supports
    assignment = [0] * len(parents)
    tallies = [0] * k

    def rec(idx: int) -> int:
        if idx == len(parents):
            return 1
        parent = parents[idx]
        allowed = support[assignment[parent]] if parent >= 0 else range(k)
        total = 0
        for s in allowed:
            if pins.get(idx, s) != s:  # a pinned node takes its pin only
                continue
            assignment[idx] = s
            below = rec(idx + 1)
            if idx == tally:
                tallies[s] += below
            total += below
        return total

    total = rec(0)
    return tallies if tally is not None else [total]


def _count(region: Region, a: BinaryMatrix, method: str, tally: int | None) -> list[int]:
    size = len(region.nodes)
    pins = {region.nodes.index(w): s for w, s in region.pins.items()}
    if method == "dfs":
        if size > DFS_NODE_GUARD:
            raise SizeGuardError(f"dfs count refused: {size} nodes > {DFS_NODE_GUARD}")
        return _count_dfs(region.parents, pins, a, tally)
    if method == "fold":
        if size > FOLD_NODE_GUARD:
            raise SizeGuardError(f"fold count refused: {size} nodes > {FOLD_NODE_GUARD}")
        return _count_fold(region.parents, pins, a, tally)
    raise ValueError(f"unknown method {method!r}")


def count_labelings(region: Region, a: BinaryMatrix, method: str = "fold") -> int:
    """Exact number of labelings respecting every in-region parent-child pair.

    ``method``: "dfs" enumerates assignments outright (<= 30 nodes), "fold"
    runs the dynamic program over the region forest (<= 10^4 nodes).
    """
    [total] = _count(region, a, method, None)
    return total


def tally_labelings(
    region: Region, a: BinaryMatrix, node: Word, method: str = "fold"
) -> tuple[int, ...]:
    """Per symbol s, the labelings counted by ``count_labelings`` that give
    ``node`` the label s; one pass counts all k."""
    if node not in region.nodes:
        raise ValueError(f"tally node {node} is not in the region")
    return tuple(_count(region, a, method, region.nodes.index(node)))


def brute_block_counts(
    tree: MarkovTree, a: BinaryMatrix, n: int, method: str = "fold"
) -> tuple[int, ...]:
    """Depth-n block labelings with the root pinned, per symbol."""
    return tally_labelings(block_region(tree, n), a, (), method)


def brute_strip_counts(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, n: int, m: int, method: str = "fold"
) -> tuple[int, ...]:
    """Strip-region labelings (path indices 0..m) with node m pinned."""
    return tally_labelings(path_strip_region(tree, ray, n, m), a, ray.node(m), method)
