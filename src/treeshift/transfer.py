"""Per-step transfer matrices, period products, and strip entropies.

Pinning the label of the m-th path node turns strip counting into a linear
recursion: appending the next strip piece multiplies the per-symbol count
vector by a k x k step matrix R whose (s, i) entry is a(i, s) times the
number of labelings of the new strip piece with its path node pinned to s.
For an eventually periodic ray the step matrices repeat with the ray period,
so the growth rate per period is the spectral radius of the product of one
period's steps, and the strip entropy has a closed form: log rho divided by
the strip sites of one period.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Iterator

from .counting import MODE_AUTO, CountingContext, CountVector, block_context, context, resolve
from .matrices import (
    LOG,
    NEG_INF,
    BinaryMatrix,
    LogNonnegMatrix,
    PerronData,
    PrimitivityResult,
    essential,
    is_primitive,
    log_sum,
    product,
    spectral_radius,
)
from .ray import Ray, StripProfile, period_sites, region_sites, step_profile, validate_ray
from .tree import MarkovTree

#: iterative fallback length when the closed form refuses
DEFAULT_FALLBACK_STEPS = 1000

METHOD_CLOSED = "closed_form"
METHOD_ITERATIVE = "iterative"


@dataclass(frozen=True)
class TransferStep:
    """One step matrix R together with the strip profile it was built from."""

    matrix: LogNonnegMatrix
    profile: StripProfile
    width: int


@dataclass
class StripEntropyResult:
    """A strip entropy value for one width, with its provenance."""

    width: int
    value: float
    method: str
    denominator: int
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        diagnostics = dict(self.diagnostics)
        if "trimmed_symbols" in diagnostics:  # symbols are 1-based outside the library
            diagnostics["trimmed_symbols"] = [s + 1 for s in diagnostics["trimmed_symbols"]]
        return {
            "n": self.width,
            "method": self.method,
            "value": self.value,
            "denominator": str(self.denominator),
            "diagnostics": diagnostics,
        }


def _piece_weights(ctx: CountingContext, profile: StripProfile, n: int) -> tuple:
    """Labelings of the width-n strip piece, per pinned path-node symbol: a
    product over off-path branches of masked sums, empty product = 1."""
    return ctx.product_over([ctx.subtree_counts(t, n - 1) for t in profile.off_branches]).values


def _step_rows(ctx: CountingContext, profile: StripProfile, n: int) -> list:
    """Entry table of the step matrix R(s, i) = a(i, s) * weight(s)."""
    weights = _piece_weights(ctx, profile, n)
    k = ctx.a.dim
    return [[weights[s] if ctx.a.entry(i, s) else ctx.sr.zero for i in range(k)] for s in range(k)]


def step_matrix(
    tree: MarkovTree,
    a: BinaryMatrix,
    ray: Ray,
    j: int,
    n: int,
    mode: str = MODE_AUTO,
) -> TransferStep:
    """Step matrix carrying the pinned count vector from path node j-1 to j.

    R(s, i) = a(i, s) * (labelings of the width-n strip piece at node j with
    the node pinned to s); the strip factor is a product over off-path
    branches, empty product = 1.
    """
    if j < 1:
        raise ValueError("step index j must be >= 1")
    if n < 1:
        raise ValueError("strip width n must be >= 1")
    ctx = block_context(tree, a, n, mode)
    profile = step_profile(tree, ray, j)
    return TransferStep(ctx.sr.matrix(_step_rows(ctx, profile, n)), profile, n)


def initial_strip_counts(
    tree: MarkovTree,
    a: BinaryMatrix,
    ray: Ray,
    n: int,
    mode: str = MODE_AUTO,
) -> CountVector:
    """Labelings of the root strip piece, per pinned root symbol.

    The root's off-path children are all generators except the ray's first
    letter.
    """
    if n < 1:
        raise ValueError("strip width n must be >= 1")
    ctx = block_context(tree, a, n, mode)
    return CountVector(_piece_weights(ctx, step_profile(tree, ray, 0), n), ctx.sr.mode)


def _phase(ray: Ray, j: int) -> int:
    """Collapse step index j >= 1 onto its representative (prefix or period)."""
    if j <= ray.c:
        return j
    return ray.c + 1 + (j - ray.c - 1) % ray.ell


def _count_loop(ctx: CountingContext, ray: Ray, n: int) -> Iterator[tuple[list, float]]:
    """Yield (count vector, log-normalizer) pinned at path node m = 0, 1, 2, ...

    The vector covers the strip pieces at path indices 0..m.  In log mode it
    is renormalized by its max entry each step, and the log of the
    factored-out scale accumulates in the normalizer (zero in exact mode).
    """
    sr = ctx.sr
    steps: dict[int, list] = {}
    v = list(_piece_weights(ctx, step_profile(ctx.tree, ray, 0), n))
    normalizer = 0.0
    yield v, normalizer
    for j in count(1):
        ph = _phase(ray, j)
        if ph not in steps:
            steps[ph] = _step_rows(ctx, step_profile(ctx.tree, ray, ph), n)
        v = sr.matvec(steps[ph], v)
        if sr is LOG:
            top = max(v)
            if top == NEG_INF:
                raise ValueError("counts vanished: adjacency admits no labelings here")
            v = [x - top for x in v]
            normalizer += top
        yield v, normalizer


def strip_counts(
    tree: MarkovTree,
    a: BinaryMatrix,
    ray: Ray,
    n: int,
    m: int,
    mode: str = MODE_AUTO,
) -> tuple[CountVector, float]:
    """Count vector after m steps, pinned at path node m.

    Covers the strip pieces at path indices 0..m.  Returns the vector and a
    running log-normalizer (zero in exact mode): in log mode the vector is
    renormalized by its max entry each step and the log of the factored-out
    scale accumulates in the normalizer.  The mode is resolved on the size of
    the strip region itself.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    validate_ray(tree, ray)
    sr = resolve(mode, region_sites(tree, ray, n, m + 1), a.dim)
    for v, normalizer in islice(_count_loop(context(tree, a, sr), ray, n), m + 1):
        pass
    return CountVector(tuple(v), sr.mode), normalizer


@dataclass(frozen=True)
class PeriodMatrix:
    """Product of one period's step matrices, plus support primitivity."""

    matrix: LogNonnegMatrix
    support_primitivity: PrimitivityResult
    phases: tuple[int, ...]


def period_matrix(
    tree: MarkovTree,
    a: BinaryMatrix,
    ray: Ray,
    n: int,
    mode: str = MODE_AUTO,
) -> PeriodMatrix:
    """Composition of the step matrices over one ray period.

    The steps at phases c+1 .. c+ell are composed in application order (the
    phase-(c+1) step acts first), which is the operator whose powers drive
    the pinned count vector across whole periods.  Its spectral radius is
    invariant under the choice of starting phase.
    """
    validate_ray(tree, ray)
    ctx = block_context(tree, a, n, mode)
    phases = tuple(range(ray.c + 1, ray.c + ray.ell + 1))
    steps = [ctx.sr.matrix(_step_rows(ctx, step_profile(tree, ray, j), n)) for j in phases]
    composed = product(steps[::-1])
    return PeriodMatrix(
        matrix=composed,
        support_primitivity=is_primitive(composed.support()),
        phases=phases,
    )


def _essential_part(a: BinaryMatrix) -> tuple[BinaryMatrix, dict]:
    """A restricted to its essential symbols, and the diagnostics naming the
    trimmed ones (none when nothing is trimmed)."""
    kept = essential(a)
    trimmed = [s for s in range(a.dim) if s not in kept]
    return a.restrict(kept), ({"trimmed_symbols": trimmed} if trimmed else {})


def strip_entropy_closed(
    tree: MarkovTree,
    a: BinaryMatrix,
    ray: Ray,
    n: int,
    mode: str = MODE_AUTO,
) -> StripEntropyResult:
    """Strip entropy of width n via the period product's spectral radius.

    value = log rho(D) / (strip sites of one period).  Requires the support
    of the period product to be primitive; otherwise the Perron asymptotics
    behind the formula are not justified and the iterative estimator is used
    instead, for ``DEFAULT_FALLBACK_STEPS`` steps (flagged in the
    diagnostics).  A is first trimmed to its essential symbols
    (``matrices.essential``); the trimmed ones are listed in the diagnostics.
    """
    validate_ray(tree, ray)
    a, trimmed = _essential_part(a)
    if not is_primitive(a):
        warnings.warn("adjacency matrix is not primitive; strip entropy may not converge")
    pm = period_matrix(tree, a, ray, n, mode)
    if not pm.support_primitivity:
        result = strip_entropy_iterative(
            tree, a, ray, n, max(DEFAULT_FALLBACK_STEPS, ray.c + 2 * ray.ell)
        )
        result.diagnostics["closed_form_refused"] = "period product support not primitive"
        result.diagnostics.update(trimmed)
        return result
    perron: PerronData = spectral_radius(pm.matrix)
    denominator = period_sites(tree, ray, n)
    value = perron.rho_log / denominator
    return StripEntropyResult(
        width=n,
        value=value,
        method=METHOD_CLOSED,
        denominator=denominator,
        diagnostics={
            "rho_log": perron.rho_log,
            "perron_bracket": perron.bracket,
            "perron_converged": perron.converged,
            "support_primitive": True,
            "support_exponent": pm.support_primitivity.exponent,
            **trimmed,
        },
    )


def strip_entropy_iterative(
    tree: MarkovTree,
    a: BinaryMatrix,
    ray: Ray,
    n: int,
    m_max: int,
) -> StripEntropyResult:
    """Strip entropy of width n estimated from the count iteration itself.

    Runs the log-domain iteration to m_max and takes the growth of the log
    count over the final whole period divided by that period's strip sites.
    Diagnostics carry the oscillation width of the per-step estimates over
    the last period and the raw cumulative quotient log(count)/sites.  A is
    first trimmed to its essential symbols, as in ``strip_entropy_closed``.
    """
    validate_ray(tree, ray)
    a, trimmed = _essential_part(a)
    c, ell = ray.c, ray.ell
    if m_max < c + ell:
        raise ValueError("m_max must be >= c + ell")
    # log totals are only needed near m_max (two periods suffice)
    first_needed = max(0, m_max - 2 * ell)
    totals: dict[int, float] = {}
    loop = _count_loop(context(tree, a, LOG), ray, n)
    for j, (v, normalizer) in enumerate(islice(loop, m_max + 1)):
        if j >= first_needed:
            totals[j] = normalizer + log_sum(v)
    sites = period_sites(tree, ray, n)
    value = (totals[m_max] - totals[m_max - ell]) / sites
    window = [
        (totals[j] - totals[j - ell]) / sites
        for j in range(max(ell, m_max - ell + 1), m_max + 1)
    ]
    return StripEntropyResult(
        width=n,
        value=value,
        method=METHOD_ITERATIVE,
        denominator=sites,
        diagnostics={
            "m_max": m_max,
            "oscillation_width": (max(window) - min(window)) if window else 0.0,
            "raw_quotient": totals[m_max] / region_sites(tree, ray, n, m_max + 1),
            **trimmed,
        },
    )
