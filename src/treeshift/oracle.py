"""Independent brute-force ground truth for pattern counts.

Counts admissible labelings of explicit finite node sets, either by plain
depth-first enumeration (small regions) or by a post-order fold over the
region forest (bigger regions).  Deliberately shares no recursion tables
with the counting and transfer modules: regions are explicit word sets, the
fold walks those sets directly, and nothing is memoized across calls.  This
keeps the oracle an independent witness for everything the transfer
machinery computes.

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
#: regions at or below this size enumerate, larger ones fold
AUTO_DFS_THRESHOLD = 8


@dataclass
class Region:
    """A finite set of tree nodes with optional pinned labels.

    Parent links are derived from the words themselves; pairs (w, w + (t,))
    with both endpoints present are the constrained edges.
    """

    nodes: tuple[Word, ...]
    pins: Mapping[Word, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.nodes = tuple(sorted(set(self.nodes)))
        for w in self.pins:
            if w not in set(self.nodes):
                raise ValueError(f"pinned node {w} is not in the region")

    def with_pins(self, pins: Mapping[Word, int]) -> "Region":
        return Region(self.nodes, dict(pins))


def block_region(tree: MarkovTree, n: int) -> Region:
    """The depth-n block as an explicit region."""
    return Region(tuple(words_up_to(tree, n)))


def path_strip_region(tree: MarkovTree, ray: Ray, n: int, m: int) -> Region:
    """Strip pieces at path indices 0..m as an explicit region."""
    return Region(strip_region(tree, ray, n, m + 1))


def _forest(region: Region):
    nodeset = set(region.nodes)
    children: dict[Word, list[Word]] = {w: [] for w in region.nodes}
    roots: list[Word] = []
    for w in region.nodes:
        if len(w) > 0 and w[:-1] in nodeset:
            children[w[:-1]].append(w)
        else:
            roots.append(w)
    return roots, children


def _count_fold(region: Region, a: BinaryMatrix) -> int:
    k = a.dim
    support = [a.row_support(i) for i in range(k)]
    roots, children = _forest(region)
    counts: dict[Word, list[int]] = {}

    def visit(w: Word) -> None:
        stack = [(w, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                for ch in children[node]:
                    stack.append((ch, False))
                continue
            vec = [1] * k
            for ch in children[node]:
                below = counts.pop(ch)
                vec = [v * sum(below[j] for j in support[i]) for i, v in enumerate(vec)]
            pin = region.pins.get(node)
            if pin is not None:
                vec = [v if i == pin else 0 for i, v in enumerate(vec)]
            counts[node] = vec

    total = 1
    for r in roots:
        visit(r)
        total *= sum(counts.pop(r))
    return total


def _count_dfs(region: Region, a: BinaryMatrix) -> int:
    k = a.dim
    support = [a.row_support(i) for i in range(k)]
    nodeset = set(region.nodes)
    order = sorted(region.nodes, key=lambda w: (len(w), w))
    assignment: dict[Word, int] = {}

    def rec(idx: int) -> int:
        if idx == len(order):
            return 1
        w = order[idx]
        parent = w[:-1] if len(w) > 0 else None
        if parent is not None and parent in nodeset:
            allowed = support[assignment[parent]]
        else:
            allowed = range(k)
        pin = region.pins.get(w)
        total = 0
        for s in allowed:
            if pin is not None and s != pin:
                continue
            assignment[w] = s
            total += rec(idx + 1)
        assignment.pop(w, None)
        return total

    return rec(0)


def count_labelings(region: Region, a: BinaryMatrix, method: str = "auto") -> int:
    """Exact number of labelings respecting every in-region parent-child pair.

    ``method``: "dfs" enumerates assignments outright (<= 30 nodes), "fold"
    runs the post-order dynamic program (<= 10^4 nodes), "auto" picks dfs for
    tiny regions and fold otherwise.
    """
    size = len(region.nodes)
    if method == "auto":
        method = "dfs" if size <= AUTO_DFS_THRESHOLD else "fold"
    if method == "dfs":
        if size > DFS_NODE_GUARD:
            raise SizeGuardError(f"dfs count refused: {size} nodes > {DFS_NODE_GUARD}")
        return _count_dfs(region, a)
    if method == "fold":
        if size > FOLD_NODE_GUARD:
            raise SizeGuardError(f"fold count refused: {size} nodes > {FOLD_NODE_GUARD}")
        return _count_fold(region, a)
    raise ValueError(f"unknown method {method!r}")


def brute_block_counts(
    tree: MarkovTree, a: BinaryMatrix, n: int, method: str = "auto"
) -> tuple[int, ...]:
    """Depth-n block labelings with the root pinned, per symbol."""
    region = block_region(tree, n)
    return tuple(
        count_labelings(region.with_pins({(): i}), a, method) for i in range(a.dim)
    )


def brute_strip_counts(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, n: int, m: int, method: str = "auto"
) -> tuple[int, ...]:
    """Strip-region labelings (path indices 0..m) with node m pinned."""
    region = path_strip_region(tree, ray, n, m)
    pin_node = ray.node(m)
    return tuple(
        count_labelings(region.with_pins({pin_node: i}), a, method)
        for i in range(a.dim)
    )
