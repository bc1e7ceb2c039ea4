"""Independent brute-force ground truth for pattern counts.

Counts admissible labelings of explicit finite node sets by a fold over the
region forest; plain depth-first enumeration of every labeling ("dfs", at
most 30 nodes) stays as the reference the tests check the fold against.
Either can tally one node: it then returns, per symbol s,
the labelings that give that node the label s, all k in one pass.  The fold
visits nodes by descending word length, so every child before its parent.
Each node carries one count vector, indexed by its own label and computed
once, except the tally node and its in-region ancestors, which carry one such
vector per label of the tally node.  Enumeration walks every labeling once
and adds the completions below the tally node to that node's label.

The oracle deliberately shares no recursion tables with the counting and
transfer modules: regions are explicit word sets, the fold walks those sets
directly, and nothing is memoized across calls.  This keeps the oracle an
independent witness for everything the transfer machinery computes.

A node whose parent lies outside the region is unconstrained from above,
and the counts are of locally admissible labelings: every constrained edge
is allowed by the adjacency.  Such a labeling need not extend to the full
tree: an inessential symbol (``matrices.essential``) on a node whose
children lie outside the region has no admissible continuation below it.
The transfer counts count the same patterns, so the two compare integer for
integer; the entropy functions trim inessential symbols first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import SizeGuardError
from .matrices import BinaryMatrix
from .ray import Ray, strip_region
from .tree import MarkovTree, Word, words_up_to

#: plain enumeration refuses regions with more nodes than this
DFS_NODE_GUARD = 30
#: the post-order fold refuses regions with more nodes than this
FOLD_NODE_GUARD = 10_000
#: no longer read by the program, which always folds; kept because
#: ``perfbench/inproc.py`` imports it
AUTO_DFS_THRESHOLD = 8


@dataclass
class Region:
    """A finite set of tree nodes with optional pinned labels.

    Parent links are derived from the words themselves; pairs (w, w + (t,))
    with both endpoints present are the constrained edges.  ``nodeset`` is
    the node set, built once.
    """

    nodes: tuple[Word, ...]
    pins: Mapping[Word, int] = field(default_factory=dict)
    nodeset: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nodeset = frozenset(self.nodes)
        self.nodes = tuple(sorted(self.nodeset))
        for w in self.pins:
            if w not in self.nodeset:
                raise ValueError(f"pinned node {w} is not in the region")

    def with_pins(self, pins: Mapping[Word, int]) -> "Region":
        return Region(self.nodes, dict(pins))


def block_region(tree: MarkovTree, n: int) -> Region:
    """The depth-n block as an explicit region."""
    return Region(tuple(words_up_to(tree, n)))


def path_strip_region(tree: MarkovTree, ray: Ray, n: int, m: int) -> Region:
    """Strip pieces at path indices 0..m as an explicit region."""
    return Region(strip_region(tree, ray, n, m + 1))


def _times(xs: list, ys: list) -> list:
    """Entrywise products of two lists of vectors; a list of one vector
    stands for that vector repeated."""
    if len(xs) < len(ys):
        xs = xs * len(ys)
    elif len(ys) < len(xs):
        ys = ys * len(xs)
    return [[x * y for x, y in zip(u, v)] for u, v in zip(xs, ys)]


def _count_fold(region: Region, a: BinaryMatrix, tally: Word | None) -> list[int]:
    """The labelings per label of ``tally``, or their total alone if None."""
    k = a.dim
    support = [a.row_support(i) for i in range(k)]
    below: dict[Word, list] = {}  # per node, the product of its children's factors
    totals = [[1]]
    ones, leaf_up = [[1] * k], [[len(sup) for sup in support]]
    # descending word length visits every child before its parent
    for w in sorted(region.nodes, key=len, reverse=True):
        vecs = below.pop(w, ones)
        pin = region.pins.get(w)
        if pin is not None:
            vecs = [[v if i == pin else 0 for i, v in enumerate(vec)] for vec in vecs]
        if w == tally:
            [vec] = vecs
            vecs = [[v if i == s else 0 for i, v in enumerate(vec)] for s in range(k)]
        parent = w[:-1]
        if w and parent in region.nodeset:
            if vecs is ones:  # a leaf, neither pinned nor tallied
                up = leaf_up
            else:
                up = [[sum([vec[j] for j in sup]) for sup in support] for vec in vecs]
            below[parent] = _times(below[parent], up) if parent in below else up
        else:
            totals = _times(totals, [[sum(vec)] for vec in vecs])
    return [t for [t] in totals]


def _count_dfs(region: Region, a: BinaryMatrix, tally: Word | None) -> list[int]:
    k = a.dim
    support = [a.row_support(i) for i in range(k)]
    order = sorted(region.nodes, key=lambda w: (len(w), w))
    at_tally = order.index(tally) if tally is not None else -1
    assignment: dict[Word, int] = {}
    tallies = [0] * k

    def rec(idx: int) -> int:
        if idx == len(order):
            return 1
        w = order[idx]
        parent = w[:-1]
        if w and parent in region.nodeset:
            allowed = support[assignment[parent]]
        else:
            allowed = range(k)
        pin = region.pins.get(w)
        total = 0
        for s in allowed:
            if pin is not None and s != pin:
                continue
            assignment[w] = s
            below = rec(idx + 1)
            if idx == at_tally:
                tallies[s] += below
            total += below
        assignment.pop(w, None)
        return total

    total = rec(0)
    return tallies if tally is not None else [total]


def _count(region: Region, a: BinaryMatrix, method: str, tally: Word | None) -> list[int]:
    size = len(region.nodes)
    if method == "dfs":
        if size > DFS_NODE_GUARD:
            raise SizeGuardError(f"dfs count refused: {size} nodes > {DFS_NODE_GUARD}")
        return _count_dfs(region, a, tally)
    if method == "fold":
        if size > FOLD_NODE_GUARD:
            raise SizeGuardError(f"fold count refused: {size} nodes > {FOLD_NODE_GUARD}")
        return _count_fold(region, a, tally)
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
    if node not in region.nodeset:
        raise ValueError(f"tally node {node} is not in the region")
    return tuple(_count(region, a, method, node))


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
