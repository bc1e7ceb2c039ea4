"""Topological entropy estimation and the rate fit of convergence studies.

The topological entropy of a Markov hom tree-shift is the limit of
log(block labeling count) / block size.  Because both numerator and
denominator grow like the tree itself, the raw quotient converges only at
rate O(1/block size); the per-level difference quotient
(log count increment) / (block size increment) converges much faster and
is what the reference values here use.  It need not converge
geometrically: on the shape M = [[1,1],[0,1]] with A = G the ratios of its
successive gaps rise towards 1 (0.877 to 0.905 over depths 15 to 20).
The raw quotients are still reported for diagnostics.  ``fit_rate`` fits
the decay of strip-entropy residuals against that reference (``converge``).
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple, Sequence

from .counting import MODE_LOG, sized_context
from .matrices import BinaryMatrix, essential
from .tree import MarkovTree, delta_size

#: residuals below this many machine epsilons are treated as converged noise
NOISE_FLOOR = 10 * sys.float_info.epsilon

DEFAULT_N_BUDGET = 20


class BlockEntropyRow(NamedTuple):
    n: int
    log_count: float
    block_size: int
    ratio: float
    estimate: float | None  # per-level difference quotient, None at n=0


class TopologicalEntropy(NamedTuple):
    """Reference entropy with its per-level table and a gap diagnostic."""

    h_ref: float
    n_used: int
    rows: tuple[BlockEntropyRow, ...]
    gap: float | None  # |estimate(n) - estimate(n-1)| at the budget, None if n_used < 2


def topological_entropy(
    tree: MarkovTree,
    a: BinaryMatrix,
    n_budget: int = DEFAULT_N_BUDGET,
) -> TopologicalEntropy:
    """Log-domain block-count sweep up to n_budget.

    The reference value is the last per-level difference quotient; the table
    carries the raw quotients as well so consumers can judge convergence.
    Counts run on A restricted to its essential symbols
    (``matrices.essential``): the others label no infinite labeling.  A
    block past the float range raises ``SizeGuardError``.
    """
    if n_budget < 1:
        raise ValueError("n_budget must be >= 1")
    a, _, prim = essential(a)
    if not prim:
        warnings.warn("adjacency matrix is not primitive; entropy limit may not exist")
    ctx = sized_context(tree, a, MODE_LOG, delta_size(tree, n_budget))
    rows: list[BlockEntropyRow] = []
    for n in range(n_budget + 1):
        log_count = ctx.sr.sum(ctx.block_counts(n))
        size = delta_size(tree, n)
        estimate = None
        if rows:  # the difference quotient from the previous row
            estimate = (log_count - rows[-1].log_count) / (size - rows[-1].block_size)
        rows.append(
            BlockEntropyRow(
                n=n,
                log_count=log_count,
                block_size=size,
                ratio=log_count / size,
                estimate=estimate,
            )
        )
    gap = None  # one estimate has no gap
    if n_budget >= 2:
        gap = abs(rows[n_budget].estimate - rows[n_budget - 1].estimate)
    return TopologicalEntropy(
        h_ref=rows[n_budget].estimate,
        n_used=n_budget,
        rows=tuple(rows),
        gap=gap,
    )


class RateFit(NamedTuple):
    """Ordinary least squares on (n, log residual)."""

    slope: float | None
    intercept: float | None
    r_squared: float | None
    points: int
    status: str  # "ok", "below-noise-floor" or "too-few-points"


def fit_rate(points: Sequence[tuple[int, float]]) -> RateFit:
    """Fit log(residual) = slope * n + intercept.

    Residuals within the noise floor are excluded (their logs are
    meaningless).  Fewer than three usable points give no fit: the status
    is "below-noise-floor" when the floor excluded a point, and
    "too-few-points" when there were fewer than three to begin with.
    """
    usable = [(n, math.log(r)) for n, r in points if r > NOISE_FLOOR]
    if len(usable) < 3:
        status = "below-noise-floor" if len(usable) < len(points) else "too-few-points"
        return RateFit(None, None, None, len(usable), status)
    x_mean = math.fsum(n for n, _ in usable) / len(usable)
    y_mean = math.fsum(y for _, y in usable) / len(usable)
    sxx = math.fsum((n - x_mean) ** 2 for n, _ in usable)
    sxy = math.fsum((n - x_mean) * (y - y_mean) for n, y in usable)
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((y - (slope * n + intercept)) ** 2 for n, y in usable)
    ss_tot = math.fsum((y - y_mean) ** 2 for _, y in usable)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope, intercept, r2, len(usable), "ok")
