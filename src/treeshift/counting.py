"""Pattern-count recursions over tree blocks and follower subtrees.

Everything reduces to one typed recursion: the number of admissible labelings
of the depth-n follower subtree of a type-t node, with the node's own label
pinned, is a product over the node's children of a masked sum of the childs'
counts one level down.  The root block (all d children) is the same product
over every generator.

The recursion is written once over a counting semiring: arbitrary-precision
integers (exact mode) or their logs (log mode, -inf encoding a zero count).
``resolve`` is the one place a mode name becomes a semiring: auto picks exact
while the predicted bit size stays desk-scale, and explicit exact mode beyond
that size is refused.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .errors import SizeGuardError
from .matrices import EXACT, LOG, MODE_EXACT, MODE_LOG, BinaryMatrix, Semiring
from .tree import MarkovTree, delta_size

MODE_AUTO = "auto"

#: auto mode switches to logs when predicted exact size exceeds this many bits
EXACT_BIT_GUARD = 10**6

SEMIRINGS = {MODE_EXACT: EXACT, MODE_LOG: LOG}


@dataclass(frozen=True)
class CountVector:
    """Per-root-symbol pattern counts, exact integers or logs."""

    values: tuple
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in SEMIRINGS:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_EXACT:
            if any(v < 0 for v in self.values):
                raise ValueError("exact counts must be nonnegative")
        else:
            if any(math.isnan(v) for v in self.values):
                raise ValueError("log counts must not be NaN")

    @property
    def k(self) -> int:
        return len(self.values)

    def total(self):
        """Sum of the per-symbol counts (logsumexp in log mode)."""
        return SEMIRINGS[self.mode].sum(self.values)


def resolve(mode: str, sites: int, k: int) -> Semiring:
    """The semiring for counts over ``sites`` nodes with ``k`` symbols.

    Auto picks exact while the predicted size, sites * log2(k) bits, stays
    within ``EXACT_BIT_GUARD`` and logs beyond it; explicit exact mode beyond
    it raises ``SizeGuardError``.
    """
    if mode not in (MODE_AUTO, *SEMIRINGS):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_LOG:
        return LOG
    bits = sites * math.log2(max(k, 2))
    if bits <= EXACT_BIT_GUARD:
        return EXACT
    if mode == MODE_EXACT:
        raise SizeGuardError(
            f"exact counts refused: predicted size {bits:.3g} bits beyond {EXACT_BIT_GUARD}"
        )
    return LOG


def resolve_mode(tree: MarkovTree, a: BinaryMatrix, n: int, mode: str = MODE_AUTO) -> str:
    """The mode ``resolve`` picks for depth-n block counts."""
    return resolve(mode, delta_size(tree, max(n, 0)), a.dim).mode


class CountingContext:
    """Memo tables for one (tree, adjacency, semiring) triple.

    The tables are the only shared state: either confine a context to one
    thread or guard it externally.  All returned values are immutable.
    """

    def __init__(self, tree: MarkovTree, a: BinaryMatrix, sr: Semiring):
        self.tree = tree
        self.a = a
        self.sr = sr
        self._subtree: dict[tuple[int, int], CountVector] = {}
        self._block: dict[int, CountVector] = {}
        #: step-matrix entry tables of ``transfer``, by (off-path branches, width)
        self.step_rows: dict[tuple, tuple] = {}
        self._row_support = tuple(a.row_support(i) for i in range(a.dim))

    def branch_factor(self, i: int, child: CountVector):
        """Masked sum over the labels an i-labeled parent allows below."""
        return self.sr.sum([child.values[j] for j in self._row_support[i]])

    def subtree_counts(self, t: int, n: int) -> CountVector:
        """Labelings of the depth-n follower subtree of a type-t node,
        per pinned root symbol."""
        if t not in self.tree.generators():
            raise ValueError(f"generator {t} out of range")
        if n < 0:
            raise ValueError("depth must be >= 0")
        key = (t, n)
        if key not in self._subtree:
            children = self.tree.children(t) if n else ()
            self._subtree[key] = self.product_over(
                [self.subtree_counts(u, n - 1) for u in children]
            )
        return self._subtree[key]

    def product_over(self, children: list[CountVector]) -> CountVector:
        """Per root symbol, the product of the children's branch factors
        (no children: the empty product, one)."""
        vals = tuple(
            self.sr.prod([self.branch_factor(i, ch) for ch in children])
            for i in range(self.a.dim)
        )
        return CountVector(vals, self.sr.mode)

    def block_counts(self, n: int) -> CountVector:
        """Labelings of the depth-n block, per pinned root symbol.

        The root has all d generators as children.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if n not in self._block:
            generators = self.tree.generators() if n else ()
            self._block[n] = self.product_over(
                [self.subtree_counts(t, n - 1) for t in generators]
            )
        return self._block[n]


@lru_cache(maxsize=None)
def context(tree: MarkovTree, a: BinaryMatrix, sr: Semiring) -> CountingContext:
    """Shared memoized context so repeated sweeps reuse tables."""
    return CountingContext(tree, a, sr)


def block_context(tree: MarkovTree, a: BinaryMatrix, n: int, mode: str) -> CountingContext:
    """The context whose semiring ``mode`` resolves to for depth-n blocks."""
    return context(tree, a, resolve(mode, delta_size(tree, max(n, 0)), a.dim))


def subtree_counts(
    tree: MarkovTree, a: BinaryMatrix, t: int, n: int, mode: str = MODE_AUTO
) -> CountVector:
    return block_context(tree, a, n, mode).subtree_counts(t, n)


def block_counts(
    tree: MarkovTree, a: BinaryMatrix, n: int, mode: str = MODE_AUTO
) -> CountVector:
    return block_context(tree, a, n, mode).block_counts(n)


def full_row_counts_match(tree: MarkovTree, a: BinaryMatrix, n: int) -> bool:
    """For every full-row generator, subtree counts equal block counts.

    The follower tree of a full-row node is the whole tree, so the two
    recursions must agree exactly; compared in exact mode.  Vacuously true
    (with a warning) when the tree has no full row.
    """
    full = [t for t in tree.generators() if tree.shape.row_is_full(t)]
    if not full:
        warnings.warn("tree has no full row; full-row count check is vacuous")
        return True
    block = block_counts(tree, a, n, MODE_EXACT)
    return all(
        subtree_counts(tree, a, t, n, MODE_EXACT).values == block.values for t in full
    )
