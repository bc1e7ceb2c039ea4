"""Independent brute-force ground truth for pattern counts.

Counts admissible labelings of explicit finite node sets by a fold over the
region forest (the tests check it against plain enumeration of every
labeling).  A region is a forest of integer parent positions, parents
first.  The fold can tally one node: it then returns, per symbol s, the
labelings that give that node the label s, all k in one pass.  It folds
every node off the tally chain (the tally node and its in-region
ancestors) bottom-up, one count vector per node, indexed by its label;
then it walks the chain top-down with one vector: at each chain node, A's
column sums of the parent's vector times the node's own factor.

The oracle shares no counting tables with the counting and transfer
modules and memoizes no count, so it stays an independent witness for
everything the transfer machinery computes.  It lays its regions out
itself, one strip piece at a time (``lay_piece``), from the same memoized
strip geometry as the transfer side (``ray.step_profile``); the tests
check those regions against a letter-by-letter walk.  A layout is each
node's generator type and parent position, with no word; it is made once
per geometry, in one of two tables of ``LAYOUTS`` entries (blocks by tree
and n, strips by tree, ray, n and m; ``brute_block_counts.cache_clear``
and ``brute_strip_counts.cache_clear`` empty them).  The fold's row and
column getters and leaf vector are made once per adjacency, in a table
keyed by the ``BinaryMatrix`` (``_fold_getters``).  No table holds a count.
One limit, ``REGION_GUARD``, bounds every region: a layout checks it on the
predicted size (``tree.delta_size``, ``ray.region_sites``) before it lays
out a node, and the fold checks it again on a ``Region``.  Regions made
from word lists, and the tally of one node of a ``Region``, are test
helpers (``tests/support.py``): no command makes either.

A node whose parent lies outside the region is unconstrained from above,
and the counts are of locally admissible labelings: every constrained edge
is allowed by the adjacency.  Such a labeling need not extend to the full
tree: an inessential symbol (``matrices.essential``) on a node whose
children lie outside the region has no admissible continuation below it.
The transfer counts count the same patterns, so the two compare integer for
integer; the entropy functions trim inessential symbols first.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, mul
from typing import Mapping, Sequence

from .errors import SizeGuardError
from .matrices import BinaryMatrix
from .ray import Ray, region_sites, step_profile
from .tree import MarkovTree, Word, delta_size

#: regions with more nodes than this are neither laid out nor folded
REGION_GUARD = 10_000
#: layouts kept per table (blocks, strips); the verify grid lays out 15 and 135
LAYOUTS = 256
#: no longer read by the program, which always folds; kept because
#: ``perfbench/inproc.py`` imports it
AUTO_DFS_THRESHOLD = 8


class Region:
    """A finite set of tree nodes with optional pinned labels, as a forest.

    ``parents[i]`` is the position of ``nodes[i][:-1]`` (-1 when that word is
    not in the region), always less than i; the (parent, child) pairs are the
    constrained edges.
    """

    __slots__ = ("nodes", "pins", "parents")

    def __init__(
        self,
        nodes: tuple[Word, ...],
        parents: tuple[int, ...],
        pins: Mapping[Word, int] | None = None,
    ) -> None:
        self.nodes, self.pins, self.parents = nodes, pins or {}, parents
        for w in self.pins:
            if w not in nodes:
                raise ValueError(f"pinned node {w} is not in the region")

    def with_pins(self, pins: Mapping[Word, int]) -> "Region":
        return Region(self.nodes, self.parents, dict(pins))


def _guard(size: int, what: str) -> None:
    if size > REGION_GUARD:
        raise SizeGuardError(f"{what} refused: {size} nodes > {REGION_GUARD}")


def lay_piece(
    tree: MarkovTree, types: list, parents: list, node: int | None, up: int, off: tuple, n: int
) -> int:
    """Append a width-n strip piece to the forest ``types``, ``parents`` and
    return the position of its path node, of generator type ``node`` (None
    at the root), whose parent is at ``up`` (-1: none): the node, then the
    follower subtrees of its off-path children ``off``, breadth first, n
    levels deep.  Parents come first."""
    kids = tree.shape.supports  # tree.children, by type
    top = lo = len(types)
    types.append(node)
    parents.append(up)
    for _ in range(n):  # one level at a time
        hi = len(types)
        for i in range(lo, hi):
            for u in off if i == top else kids[types[i]]:
                types.append(u)
                parents.append(i)
        lo = hi
    return top


def _region(types: tuple, parents: tuple) -> Region:
    """The laid-out forest as a region: the root is (), and every other word
    is its parent's word plus its own type."""
    words: list[Word] = []
    for t, p in zip(types, parents):
        words.append(words[p] + (t,) if p >= 0 else ())
    return Region(tuple(words), parents)


@lru_cache(maxsize=LAYOUTS)
def _strip_layout(tree: MarkovTree, ray: Ray, n: int, m: int) -> tuple[tuple, tuple, int]:
    """The types and parents of the strip pieces at path indices 0..m, laid
    out in path order by ``lay_piece`` from ``ray.letter`` and
    ``step_profile`` alone, and the position of path node m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    predicted = region_sites(tree, ray, n, m + 1)
    _guard(predicted, f"strip region (n={n}, m={m})")
    types, parents = [], []
    node, up = None, -1  # path node j's type and its parent's position
    for j in range(m + 1):
        up = lay_piece(tree, types, parents, node, up, step_profile(tree, ray, j), n)
        node = ray.letter(j + 1)
    assert len(types) == predicted, "strip size bookkeeping out of sync"
    return tuple(types), tuple(parents), up


@lru_cache(maxsize=LAYOUTS)
def _block_layout(tree: MarkovTree, n: int) -> tuple[tuple, tuple]:
    """The types and parents of the depth-n block, laid out as the root's
    strip piece with every generator off the path."""
    _guard(delta_size(tree, n), f"block (n={n})")
    types, parents = [], []
    lay_piece(tree, types, parents, None, -1, tuple(tree.generators()), n)
    return tuple(types), tuple(parents)


def block_region(tree: MarkovTree, n: int) -> Region:
    """The depth-n block as an explicit region."""
    return _region(*_block_layout(tree, n))


def path_strip_region(tree: MarkovTree, ray: Ray, n: int, m: int) -> Region:
    """Strip pieces at path indices 0..m as an explicit region, in walk order."""
    return _region(*_strip_layout(tree, ray, n, m)[:2])


def _summers(supports: tuple) -> tuple:
    """Per support, an itemgetter whose items sum to a vector's entries there;
    one index or none is a slice, so a sink symbol's empty support sums to 0."""
    return tuple(
        itemgetter(*s) if len(s) > 1 else itemgetter(slice(s[0], s[0] + 1) if s else slice(0))
        for s in supports
    )


@lru_cache(maxsize=None)
def _fold_getters(a: BinaryMatrix) -> tuple[tuple, tuple, tuple]:
    """The fold's row getters, column getters and leaf vector, once per adjacency."""
    cols = tuple(tuple(s for s in range(a.dim) if a.rows[s][j]) for j in range(a.dim))
    return _summers(a.supports), _summers(cols), tuple(map(len, a.supports))


def _count_fold(parents: Sequence, pins: dict, a: BinaryMatrix, tally: int | None) -> list[int]:
    """The labelings per label of node ``tally``, or their total alone if None."""
    k = a.dim
    rows, cols, leaf_up = _fold_getters(a)
    # per node, the product of its pin's indicator and its off-chain
    # children's factors; None: neither, all ones
    below: list = [None] * len(parents)
    for i, pin in pins.items():
        below[i] = [int(s == pin) for s in range(k)]
    chain, i = [], -1 if tally is None else tally  # the tally node and its ancestors
    while i >= 0:
        chain.append(i)
        i = parents[i]
    total, hi = 1, len(parents)  # total: the product of the component sums off the chain
    for stop in chain + [-1]:  # bottom-up, every node between two chain nodes
        for i in range(hi - 1, stop, -1):
            vec, parent = below[i], parents[i]
            if parent < 0:
                total *= k if vec is None else sum(vec)
                continue
            up = leaf_up if vec is None else [sum(g(vec)) for g in rows]
            prev = below[parent]
            below[parent] = up if prev is None else list(map(mul, prev, up))
        hi = stop
    vec = (below[chain.pop()] or [1] * k) if chain else [1]  # [1]: the total alone
    for i in reversed(chain):  # top-down: the labelings above and beside, per label of i
        vec = [sum(g(vec)) for g in cols]
        if below[i] is not None:
            vec = list(map(mul, vec, below[i]))
    return [total * x for x in vec]


def count_labelings(region: Region, a: BinaryMatrix) -> int:
    """Exact number of labelings respecting every in-region parent-child pair,
    by the fold over the region forest (at most ``REGION_GUARD`` nodes)."""
    _guard(len(region.nodes), "fold count")
    pins = {region.nodes.index(w): s for w, s in region.pins.items()}
    [total] = _count_fold(region.parents, pins, a, None)
    return total


def brute_block_counts(tree: MarkovTree, a: BinaryMatrix, n: int) -> tuple[int, ...]:
    """Depth-n block labelings with the root pinned, per symbol."""
    return tuple(_count_fold(_block_layout(tree, n)[1], {}, a, 0))


def brute_strip_counts(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, n: int, m: int
) -> tuple[int, ...]:
    """Strip-region labelings (path indices 0..m) with node m pinned."""
    _, parents, last = _strip_layout(tree, ray, n, m)
    return tuple(_count_fold(parents, {}, a, last))


brute_block_counts.cache_clear = _block_layout.cache_clear
brute_strip_counts.cache_clear = _strip_layout.cache_clear
