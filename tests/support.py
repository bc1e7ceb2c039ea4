"""Helpers that only the tests use: admissible words, transposes, tree words
and complete prefix sets, sorted strip regions, strip periodicity, the
full-row count identity, random trees and rays, plain enumeration of
every labeling of a region, which the oracle's fold is checked against,
the names a module imports, and the reference kernels of the count loop,
which its log-semiring kernels are checked against bit for bit.

Each checks or samples with the package's public functions; none is part of
the package, whose commands never call them.
"""

from __future__ import annotations

import ast
import math
import operator
import random
import warnings
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Iterable

from treeshift import counting, transfer
from treeshift.counting import MODE_EXACT, block_counts, subtree_counts
from treeshift.errors import SizeGuardError
from treeshift.matrices import LOG, NEG_INF, BinaryMatrix, Semiring
from treeshift.oracle import Region, path_strip_region
from treeshift.ray import Ray, step_profile, validate_ray
from treeshift.sampling import MAX_TRIES
from treeshift.tree import (
    CompleteRecursiveWitness,
    MarkovTree,
    Word,
    delta_size,
    subtree_nodes,
    validate_tree,
)


def is_admissible(tree: MarkovTree, word: Word) -> bool:
    """True iff the shape allows every pair of consecutive letters of ``word``."""
    return all(tree.shape.entry(a, b) == 1 for a, b in zip(word, word[1:]))


def transpose(m: BinaryMatrix) -> BinaryMatrix:
    return BinaryMatrix(tuple(zip(*m.rows)))


def words_up_to(tree: MarkovTree, n: int) -> list[Word]:
    """All admissible words of length <= n (the depth-n block), breadth first."""
    words: list[Word] = [()]
    for w in words:  # the loop also visits the words it appends
        if len(w) < n:
            words.extend(w + (u,) for u in (tree.children(w[-1]) if w else tree.generators()))
    return words


def follower_is_full(tree: MarkovTree, u: Word) -> bool:
    """True iff every word of the tree can follow u.

    The follower tree of u is the whole tree exactly when the row of u's last
    letter is full, so this is a single row test.
    """
    if len(u) == 0:
        raise ValueError("u must be a nonempty word")
    if not is_admissible(tree, u):
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
        if not is_admissible(tree, w):
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


def strip_region(tree: MarkovTree, ray: Ray, n: int, m: int) -> tuple[Word, ...]:
    """The words of the first m strip pieces (path indices 0..m-1), sorted."""
    return tuple(sorted(path_strip_region(tree, ray, n, m - 1).nodes))


def check_strip_periodicity(tree: MarkovTree, ray: Ray, horizon: int) -> bool:
    """Verify strip periodicity: the profile repeats with the ray period.

    Compares the profiles at j and j + ell for every c + 1 <= j <=
    horizon - ell.  The strip size at every width n is a function of the
    profile (``lambda_strip``), so equal profiles have equal sizes.
    """
    c, ell = ray.c, ray.ell
    if horizon < c + 2 * ell:
        raise ValueError("horizon must be >= c + 2*ell")
    for j in range(c + 1, horizon - ell + 1):
        if step_profile(tree, ray, j) != step_profile(tree, ray, j + ell):
            return False
    return True


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


def random_tree_without_full_row(d: int, rng: random.Random) -> MarkovTree:
    """A valid tree shape (no zero rows) in which no row is full; needs d >= 2."""
    if d < 2:
        raise ValueError("no-full-row shapes need d >= 2")
    rows = []
    for _ in range(d):
        row = [1 if rng.random() < 0.5 else 0 for _ in range(d)]
        if all(x == 0 for x in row):
            row[rng.randrange(d)] = 1
        if all(row):
            row[rng.randrange(d)] = 0
        rows.append(tuple(row))
    return validate_tree(BinaryMatrix(tuple(rows)))


def random_ray(
    tree: MarkovTree,
    rng: random.Random,
    max_prefix: int = 2,
    max_period: int = 3,
) -> Ray:
    """An admissible eventually periodic ray sampled by random walk on a
    validated tree (every node has a child).

    Walks prefix + period letters and retries until the period closes up
    (last period letter may be followed by the first).
    """
    for _ in range(MAX_TRIES):
        c = rng.randint(0, max_prefix)
        ell = rng.randint(1, max_period)
        letters: list[int] = []
        for _ in range(c + ell):
            options = tree.children(letters[-1]) if letters else tree.generators()
            letters.append(rng.choice(options))
        ray = Ray(tuple(letters[:c]), tuple(letters[c:]))
        try:
            return validate_ray(tree, ray)
        except ValueError:
            continue
    raise RuntimeError("could not sample an admissible ray")


#: plain enumeration refuses regions with more nodes than this
DFS_NODE_GUARD = 30


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


def count_dfs(region: Region, a: BinaryMatrix, tally: Word | None = None) -> list[int]:
    """Plain depth-first enumeration of every labeling of ``region`` (at most
    ``DFS_NODE_GUARD`` nodes): the labelings per label of node ``tally``, or
    their total alone if None.  Enumeration walks every labeling once and
    adds the completions below the tally node to that node's label."""
    size = len(region.nodes)
    if size > DFS_NODE_GUARD:
        raise SizeGuardError(f"dfs count refused: {size} nodes > {DFS_NODE_GUARD}")
    pins = {region.nodes.index(w): s for w, s in region.pins.items()}
    at = None if tally is None else region.nodes.index(tally)
    return _count_dfs(region.parents, pins, a, at)


def imported_names(module: ModuleType) -> set[str]:
    """Every module and name part that ``module``'s source imports, read from
    its syntax tree (``from .ray import Ray`` gives "ray" and "Ray")."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    return imported


# ---------------------------------------------------------------------------
# reference kernels: the count loop's kernels as they were written before
# their logsumexp was built from iterators, the log matmul looped over rows
# and columns itself, the step fused its matvec with the renormalization and
# powering learned the fixed-point rule.  Each new kernel must return their
# bits.


def reference_log_sum(values):
    """logsumexp over a finite list; a -inf term adds exp(-inf) = 0.0, empty -> -inf."""
    top = max(values, default=NEG_INF)
    if top == NEG_INF:
        return NEG_INF
    return top + math.log(sum([math.exp(v - top) for v in values]))


def reference_matvec(sr: Semiring, m, v) -> list:
    """out[s] = sum_i m[s][i] * v[i]; in log mode the logsumexp runs inline."""
    if sr.mode == MODE_EXACT:
        return [sum(map(operator.mul, row, v)) for row in m]
    out = []
    for row in m:
        terms = [x + y for x, y in zip(row, v)]
        top = max(terms)
        out.append(top if top == NEG_INF else
                   top + math.log(sum([math.exp(t - top) for t in terms])))
    return out


def reference_matmul(sr: Semiring, a, b) -> list:
    """out[i][j] = sum_l a[i][l] * b[l][j]: one ``reference_matvec`` per row."""
    columns = list(zip(*b))
    return [reference_matvec(sr, columns, row) for row in a]


def reference_factor_max(sr: Semiring, rows: list) -> tuple[list, float]:
    """In log mode, the entry table with its largest entry factored out, and
    the log of that factor; exact tables pass through with factor 0.0."""
    if sr is not LOG:
        return rows, 0.0
    top = max(max(row) for row in rows)
    if top == NEG_INF:
        raise ValueError("counts vanished: adjacency admits no labelings here")
    return [[x - top for x in row] for row in rows], top


def reference_step(sr: Semiring, m, v) -> tuple[list, float]:
    """A count loop's step: a matvec, then its one-row table renormalized."""
    [v], top = reference_factor_max(sr, [reference_matvec(sr, m, v)])
    return v, top


def reference_power_apply(sr: Semiring, d: list, q: int, v: list) -> tuple[list, float]:
    """D^q v by square-and-multiply that stops squaring once a squaring
    returns its input, and steps at every set bit of q."""
    power, power_scale = reference_factor_max(sr, d)
    scale, stationary = 0.0, False
    while True:
        if q & 1:
            v, top = reference_step(sr, power, v)
            scale += power_scale + top
        q >>= 1
        if not q:
            return v, scale
        if not stationary:
            squared, square_top = reference_factor_max(sr, reference_matmul(sr, power, power))
            stationary, power = squared == power, squared
        power_scale = 2 * power_scale + square_top


@contextmanager
def reference_kernels():
    """Run the count loop, the period product and the log counts on the
    reference kernels, from cleared counting contexts, and restore the
    package's kernels and clear the contexts again on leaving."""
    patches = [
        (Semiring, "matvec", reference_matvec),
        (Semiring, "matmul", reference_matmul),
        (Semiring, "step", reference_step),
        (transfer, "_factor_max", reference_factor_max),
        (transfer, "_power_apply", reference_power_apply),
        (transfer, "log_sum", reference_log_sum),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    log_sum = LOG.sum
    counting.context.cache_clear()
    try:
        for owner, name, kernel in patches:
            setattr(owner, name, kernel)
        object.__setattr__(LOG, "sum", reference_log_sum)  # the level tables' sums
        yield
    finally:
        for owner, name, kernel in saved:
            setattr(owner, name, kernel)
        object.__setattr__(LOG, "sum", log_sum)
        counting.context.cache_clear()
