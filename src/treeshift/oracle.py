"""Independent brute-force ground truth for pattern counts.

Counts admissible labelings of explicit finite node sets by a fold over the
region forest (the tests check it against plain enumeration of every
labeling).  The fold can tally one node: it then returns, per symbol s,
the labelings that give that node the label s, all k in one pass.  It
runs on integer positions: a region is a forest whose nodes come parents
first, so the fold, in reverse, meets every descendant before its ancestor.
Each node carries one plain count vector, indexed by its own label, except
the tally node and its in-region ancestors, which carry one such vector per
label of the tally node.

The oracle deliberately shares no counting tables with the counting and
transfer modules: regions are explicit forests, the fold walks them
directly, and no count is memoized across calls.  This keeps the oracle an
independent witness for everything the transfer machinery computes.  The
oracle lays its regions out itself: ``lay_piece`` walks one strip piece
and ``strip_forest`` the pieces along a ray, from the same memoized strip
geometry as the transfer side (``ray.step_profile``); the tests check those
regions against a letter-by-letter walk.  One limit, ``REGION_GUARD``,
bounds every region: the walks check it on the predicted size
(``tree.delta_size``, ``ray.region_sites``) before they lay out a word,
and the fold checks it again on regions built from words.

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
from .ray import Ray, region_sites, step_profile, validate_ray
from .tree import MarkovTree, Word, delta_size

#: regions with more nodes than this are neither laid out nor folded
REGION_GUARD = 10_000
#: no longer read by the program, which always folds; kept because
#: ``perfbench/inproc.py`` imports it
AUTO_DFS_THRESHOLD = 8


class Region:
    """A finite set of tree nodes with optional pinned labels, as a forest.

    ``parents[i]`` is the position of ``nodes[i][:-1]`` (-1 when that word is
    not in the region), always less than i; the (parent, child) pairs are the
    constrained edges.  Given words alone, the region removes repeats, sorts
    them and derives the parents; the walks below pass their own.
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


def _guard(size: int, what: str) -> None:
    if size > REGION_GUARD:
        raise SizeGuardError(f"{what} refused: {size} nodes > {REGION_GUARD}")


def lay_piece(
    tree: MarkovTree, words: list, parents: list, node: Word, up: int, off: tuple, n: int
) -> int:
    """Append a width-n strip piece to the forest ``words``, ``parents`` and
    return the position of its path node ``node``, whose parent is at ``up``
    (-1: none): the node, then the follower subtrees of its off-path
    children ``off``, breadth first, n levels deep.  Parents come first."""
    top = lo = len(words)
    words.append(node)
    parents.append(up)
    for _ in range(n):  # one level at a time
        hi = len(words)
        for i in range(lo, hi):
            w = words[i]
            for u in off if i == top else tree.children(w[-1]):
                words.append(w + (u,))
                parents.append(i)
        lo = hi
    return top


def strip_forest(tree: MarkovTree, ray: Ray, n: int, m: int) -> tuple[Region, int]:
    """The first m strip pieces (path indices 0..m-1) laid out in path order by
    ``lay_piece`` from ``ray.letter`` and ``step_profile`` alone, as a region,
    and the position of the last path node in it."""
    if m < 1:
        raise ValueError("m must be >= 1")
    validate_ray(tree, ray)
    predicted = region_sites(tree, ray, n, m)
    _guard(predicted, f"strip region (n={n}, m={m})")
    words: list[Word] = []
    parents: list[int] = []
    node, up = (), -1  # path node j and its parent's position
    for j in range(m):
        up = lay_piece(tree, words, parents, node, up, step_profile(tree, ray, j), n)
        node += (ray.letter(j + 1),)
    assert len(words) == predicted, "strip size bookkeeping out of sync"
    return Region(tuple(words), parents=tuple(parents)), up


def block_region(tree: MarkovTree, n: int) -> Region:
    """The depth-n block as an explicit region: the root's strip piece with
    every generator off the path."""
    _guard(delta_size(tree, n), f"block (n={n})")
    words: list[Word] = []
    parents: list[int] = []
    lay_piece(tree, words, parents, (), -1, tuple(tree.generators()), n)
    return Region(tuple(words), parents=tuple(parents))


def path_strip_region(tree: MarkovTree, ray: Ray, n: int, m: int) -> Region:
    """Strip pieces at path indices 0..m as an explicit region."""
    return strip_forest(tree, ray, n, m + 1)[0]


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


def _count(region: Region, a: BinaryMatrix, tally: int | None) -> list[int]:
    _guard(len(region.nodes), "fold count")
    pins = {region.nodes.index(w): s for w, s in region.pins.items()}
    return _count_fold(region.parents, pins, a, tally)


def count_labelings(region: Region, a: BinaryMatrix) -> int:
    """Exact number of labelings respecting every in-region parent-child pair,
    by the fold over the region forest (at most ``REGION_GUARD`` nodes)."""
    [total] = _count(region, a, None)
    return total


def tally_labelings(region: Region, a: BinaryMatrix, node: Word) -> tuple[int, ...]:
    """Per symbol s, the labelings counted by ``count_labelings`` that give
    ``node`` the label s; one pass counts all k."""
    if node not in region.nodes:
        raise ValueError(f"tally node {node} is not in the region")
    return tuple(_count(region, a, region.nodes.index(node)))


def brute_block_counts(tree: MarkovTree, a: BinaryMatrix, n: int) -> tuple[int, ...]:
    """Depth-n block labelings with the root pinned, per symbol."""
    return tuple(_count(block_region(tree, n), a, 0))


def brute_strip_counts(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, n: int, m: int
) -> tuple[int, ...]:
    """Strip-region labelings (path indices 0..m) with node m pinned."""
    region, last = strip_forest(tree, ray, n, m + 1)
    return tuple(_count(region, a, last))
