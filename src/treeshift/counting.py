"""Pattern counts over tree blocks, follower subtrees and strip pieces.

Everything reduces to one typed level step: the number of admissible
labelings of the depth-n follower subtree of a type-t node, with the node's
own label pinned, is a product over the node's children of a masked sum of
the childs' counts one level down.  A level table holds these counts, row n
for every generator, filled bottom-up by a plain loop; the root block (all
d children) is the same product over all of row n - 1, and a strip piece
the same product over its path node's off-path children.

The step is written once over a counting semiring: arbitrary-precision
integers (exact mode) or their logs (log mode, -inf encoding a zero count).
Every count API takes its mode, "exact" or "log", explicitly.  ``resolve``
is the one place a mode name becomes a semiring, on the sites of the region
a count computes (``sized_context``); the level table refuses the rows it
fills by the same rule (``CountingContext.level``): exact mode beyond a
desk-scale predicted bit size is refused, and so are counts in either mode
whose sites or logs may pass floats.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import NamedTuple

from .errors import SizeGuardError
from .matrices import EXACT, LOG, MODE_EXACT, MODE_LOG, BinaryMatrix, Semiring, Value
from .tree import FLOAT_SITES, MarkovTree, delta_size, size_row, subtree_nodes

#: exact counts are refused when their predicted size exceeds this many bits
EXACT_BIT_GUARD = 10**6

#: counts are refused when their largest possible log, ln k + (sites - 1) ln r
#: nats for k symbols and largest row sum r, passes this, the largest float
#: (or their sites pass ``FLOAT_SITES``)
LOG_NAT_GUARD = float(FLOAT_SITES)

SEMIRINGS = {MODE_EXACT: EXACT, MODE_LOG: LOG}


class CountVector(Value):
    """Per-root-symbol pattern counts, exact integers or logs."""

    __slots__ = ("values", "mode")

    def __init__(self, values: tuple, mode: str) -> None:
        if mode not in SEMIRINGS:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == MODE_EXACT:
            if any(v < 0 for v in values):
                raise ValueError("exact counts must be nonnegative")
        else:
            if any(math.isnan(v) for v in values):
                raise ValueError("log counts must not be NaN")
        self._freeze(values, mode)


def resolve(mode: str, sites: int, a: BinaryMatrix) -> Semiring:
    """The semiring for counts over ``sites`` nodes labeled under ``a``.

    Exact mode raises ``SizeGuardError`` when the predicted size, sites *
    log2(k) bits for k symbols, exceeds ``EXACT_BIT_GUARD``.  Either mode
    raises it when the integer sites pass ``FLOAT_SITES`` or the largest
    possible log count passes ``LOG_NAT_GUARD``: the root of a region takes
    at most k labels and every other node at most r given its parent, r the
    largest row sum of ``a``, so the count is at most k r^(sites - 1).  Site
    counts and log counts alike must stay floats.
    """
    if mode not in SEMIRINGS:
        raise ValueError(f"unknown mode {mode!r}")
    k, r = a.dim, max(map(len, a.supports))
    if sites > FLOAT_SITES or math.log(k) + (sites - 1) * math.log(max(r, 1)) > LOG_NAT_GUARD:
        raise SizeGuardError(
            f"counts refused: about 10^{math.log10(sites):.1f} sites with {k} symbols "
            f"and row sum {r} pass the float range"
        )
    if mode == MODE_EXACT and (bits := sites * math.log2(max(k, 2))) > EXACT_BIT_GUARD:
        raise SizeGuardError(
            f"exact counts refused: predicted size {bits:.3g} bits beyond {EXACT_BIT_GUARD}"
        )
    return SEMIRINGS[mode]


def resolve_mode(tree: MarkovTree, a: BinaryMatrix, n: int) -> str:
    """Exact while ``resolve`` admits exact depth-n block counts, else log.

    Not read by the program, whose commands name their modes; kept because
    ``perfbench/inproc.py`` sorts its width sweep by it.
    """
    try:
        return resolve(MODE_EXACT, delta_size(tree, max(n, 0)), a).mode
    except SizeGuardError:
        return MODE_LOG


class PeriodRecord(NamedTuple):
    """A period product D (``CountingContext.period``) and its squares.

    ``squares[i]`` is (table, log scale, square top, stationary) for D^(2^i)
    normalised as ``transfer._factor_max`` does, the log factor of the
    squaring that made it, and whether that squaring returned its input; the
    entries after a stationary one share its table.  Powering q periods
    appends up to q.bit_length() - 1 squares past D, and an exact D^(2^i),
    2^i <= q, stays within the exact size guard of the count it powers.
    """

    d: list
    squares: list


class CountingContext:
    """The count level table, the strip-piece table and the period records
    (``PeriodRecord``) for one (tree, adjacency, semiring) triple.

    The tables are the only shared state: either confine a context to one
    thread or guard it externally.  Returned values are immutable, except a
    period record, whose squares only ``transfer._power_apply`` extends.
    """

    def __init__(self, tree: MarkovTree, a: BinaryMatrix, sr: Semiring):
        self.tree = tree
        self.a = a
        self.sr = sr
        #: row n: the depth-n subtree counts of every generator (row 0: one)
        self._levels: list[tuple[tuple, ...]] = [(self.product_over([]),) * tree.d]
        #: strip-piece weights and step rows, by (off-path branches, width)
        self._pieces: dict[tuple, tuple[tuple, tuple]] = {}
        #: period records, by (off-path branches of phases c+1 .. c+ell, width)
        self._periods: dict[tuple, PeriodRecord] = {}

    def level(self, n: int) -> tuple[tuple, ...]:
        """Row n of the level table, filling the rows below it first.  Rows
        hold every generator, read or not, so the table guards the rows it
        fills: ``resolve`` on row n's largest follower tree bounds them all."""
        if n < 0:
            raise ValueError("depth must be >= 0")
        levels = self._levels
        if len(levels) <= n:
            resolve(self.sr.mode, max(size_row(self.tree, n)), self.a)
        while len(levels) <= n:
            below = levels[-1]
            levels.append(tuple(
                self.product_over([below[u] for u in self.tree.children(t)])
                for t in self.tree.generators()
            ))
        return levels[n]

    def product_over(self, children: list[tuple]) -> tuple:
        """Per root symbol i, the product over the children of the masked sum
        of their labels an i-labeled parent allows (no children: one)."""
        sr = self.sr
        return tuple(
            sr.prod([sr.sum([ch[j] for j in allowed]) for ch in children])
            for allowed in self.a.supports
        )

    def block_counts(self, n: int) -> tuple:
        """Labelings of the depth-n block, per pinned root symbol.

        The root has all d generators as children: all of row n - 1.
        """
        return self.product_over(list(self.level(n - 1)) if n else [])

    def piece(self, off_branches: tuple[int, ...], n: int) -> tuple[tuple, tuple]:
        """Labelings of the width-n strip piece whose path node has the
        off-path children ``off_branches``, per pinned path-node symbol s (a
        product over them of row n - 1, empty product = 1), and the step rows
        R(s, i) = a(i, s) * weight(s); each piece is counted once per context."""
        key = (off_branches, n)
        if key not in self._pieces:
            weights = self.product_over([self.level(n - 1)[t] for t in off_branches])
            k, zero = self.a.dim, self.sr.zero
            self._pieces[key] = weights, tuple(
                tuple(weights[s] if self.a.entry(i, s) else zero for i in range(k))
                for s in range(k)
            )
        return self._pieces[key]

    def period(self, offs: tuple[tuple[int, ...], ...], n: int) -> PeriodRecord:
        """The record of D = R_{c+ell} ... R_{c+1} over the width-n pieces
        with the off-path children ``offs`` of phases c+1 .. c+ell; rays with
        one period's pieces share it, and D is formed once per context."""
        key = (offs, n)
        if key not in self._periods:
            rows = [self.piece(off, n)[1] for off in offs]
            self._periods[key] = PeriodRecord(reduce(self.sr.matmul, rows[::-1]), [])
        return self._periods[key]


@lru_cache(maxsize=None)
def context(tree: MarkovTree, a: BinaryMatrix, sr: Semiring) -> CountingContext:
    """Shared context so repeated sweeps reuse its tables."""
    return CountingContext(tree, a, sr)


def sized_context(tree: MarkovTree, a: BinaryMatrix, mode: str, sites: int) -> CountingContext:
    """The context whose semiring ``mode`` resolves to for a count over
    ``sites`` nodes; the level rows it fills are guarded by ``level``."""
    return context(tree, a, resolve(mode, sites, a))


def subtree_counts(tree: MarkovTree, a: BinaryMatrix, t: int, n: int, mode: str) -> CountVector:
    """Labelings of the depth-n follower subtree of a type-t node, per
    pinned root symbol."""
    ctx = sized_context(tree, a, mode, subtree_nodes(tree, t, n))
    return CountVector(ctx.level(n)[t], ctx.sr.mode)


def block_counts(tree: MarkovTree, a: BinaryMatrix, n: int, mode: str) -> CountVector:
    """Labelings of the depth-n block, per pinned root symbol."""
    ctx = sized_context(tree, a, mode, delta_size(tree, n))
    return CountVector(ctx.block_counts(n), ctx.sr.mode)

