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
from functools import reduce
from itertools import chain, cycle, islice
from typing import Iterator, NamedTuple

from .counting import CountingContext, CountVector, sized_context
from .matrices import (
    LOG,
    NEG_INF,
    BinaryMatrix,
    LogNonnegMatrix,
    PerronData,
    Semiring,
    essential,
    log_sum,
    spectral_radius,
)
from .ray import Ray, lambda_strip, period_sites, phase_profiles, region_sites
from .tree import MarkovTree

#: not read by the program; kept because ``perfbench/inproc.py`` imports it
DEFAULT_FALLBACK_STEPS = 1000

METHOD_CLOSED = "closed_form"
METHOD_ITERATIVE = "iterative"


class TransferStep(NamedTuple):
    """One step matrix R together with the off-path children of its path
    node (``ray.step_profile``), from which it was built."""

    matrix: LogNonnegMatrix
    profile: tuple[int, ...]
    width: int


class StripEntropyResult(NamedTuple):
    """A strip entropy value for one width, with its provenance."""

    width: int
    value: float
    method: str
    denominator: int
    diagnostics: dict


def step_matrix(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, j: int, n: int, mode: str
) -> TransferStep:
    """Step matrix carrying the pinned count vector from path node j-1 to j.

    R(s, i) = a(i, s) * (labelings of the width-n strip piece at node j with
    the node pinned to s); the strip factor is a product over off-path
    branches, empty product = 1.
    """
    if j < 1:
        raise ValueError("step index j must be >= 1")
    off = phase_profiles(tree, ray)[j if j <= ray.c else ray.c + 1 + (j - ray.c - 1) % ray.ell]
    ctx = sized_context(tree, a, mode, lambda_strip(tree, off, n))
    return TransferStep(ctx.sr.matrix(ctx.piece(off, n)[1]), off, n)


def initial_strip_counts(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, n: int, mode: str
) -> CountVector:
    """Labelings of the root strip piece, per pinned root symbol.

    The root's off-path children are all generators except the ray's first
    letter.
    """
    off = phase_profiles(tree, ray)[0]
    ctx = sized_context(tree, a, mode, lambda_strip(tree, off, n))
    return CountVector(ctx.piece(off, n)[0], ctx.sr.mode)


def _factor_max(sr: Semiring, rows: list) -> tuple[list, float]:
    """In log mode, the entry table with its largest entry factored out, and
    the log of that factor; exact tables pass through with factor 0.0."""
    if sr is not LOG:
        return rows, 0.0
    top = max(map(max, rows))
    if top == NEG_INF:
        raise ValueError("counts vanished: adjacency admits no labelings here")
    return [[x - top for x in row] for row in rows], top


def _power_apply(sr: Semiring, d: list, q: int, v: list) -> tuple[list, float]:
    """D^q v for q >= 1 by square-and-multiply, and the log scale factored out.

    In log mode each power is kept as (table, scale) with its largest entry
    factored out, and each multiply is one fused ``Semiring.step``.  A power
    is squared only while higher bits of q remain, so an all-zero power is
    met only when D^q itself vanishes.  Once a squaring returns its input,
    every later one would too, and only the scale is updated.  Once a step
    by that stationary power returns its input vector, every later set bit
    of q would repeat it on the same inputs, and only its log factor is added.
    """
    power, power_scale = _factor_max(sr, d)
    scale, stationary, fixed = 0.0, False, False
    while True:
        if q & 1:
            if not fixed:
                w, top = sr.step(power, v)
                fixed, v = stationary and w == v, w
            scale += power_scale + top
        q >>= 1
        if not q:
            return v, scale
        if not stationary:
            squared, square_top = _factor_max(sr, sr.matmul(power, power))
            stationary, power = squared == power, squared
        power_scale = 2 * power_scale + square_top


def _powering_wins(k: int, ell: int, q: int) -> bool:
    """Whether D^q v by binary powering, (ell - 1 + floor(log2 q)) k^3 +
    popcount(q) k^2 semiring products, beats q ell matvecs of k^2 each."""
    return (ell + q.bit_length() - 2) * k + q.bit_count() < q * ell


def _count_loop(
    ctx: CountingContext, ray: Ray, n: int, start: int
) -> Iterator[tuple[list, float]]:
    """Yield (count vector, log scale) pinned at path node m = start, start + 1, ...

    The vector covers the strip pieces at path indices 0..m.  Each phase's
    step rows are read once per call, when first reached, by its off-path
    children in the phase table (``ray.phase_profiles``); ``cycle`` keeps
    one period's.  A step is one fused ``Semiring.step``, the matvec with
    the renormalization.  Node ``start`` is reached by stepping to node
    s = start - q ell, then crossing q = (start - c) // ell whole periods at
    once by powering (``_power_apply``, which stops stepping at a fixed
    point) the period product D = R_{s+ell} ... R_{s+1}, which leaves the
    phase of the next node as it is; q is 0 where stepping takes fewer
    semiring products (``_powering_wins``).  In log mode every vector is
    renormalized by its max entry and the scale yielded is the log of what
    was factored out since the previous yield (at the first yield, since
    node 0); it is zero in exact mode.  Raises ``ValueError`` in log mode
    when the counts vanish.
    """
    sr, table, c = ctx.sr, phase_profiles(ctx.tree, ray), ray.c
    steps = chain((ctx.piece(off, n)[1] for off in table[1:c + 1]),  # of nodes 1, 2, ...
                  cycle(ctx.piece(off, n)[1] for off in table[c + 1:]))
    root, _ = ctx.piece(table[0], n)
    [v], scale = _factor_max(sr, [list(root)])
    q = max(0, start - c) // ray.ell
    if q and not _powering_wins(ctx.a.dim, ray.ell, q):
        q = 0
    for rows in islice(steps, start - q * ray.ell):
        v, top = sr.step(rows, v)
        scale += top
    if q:
        v, top = _power_apply(sr, reduce(sr.matmul, [*islice(steps, ray.ell)][::-1]), q, v)
        scale += top
    yield v, scale
    for rows in steps:
        v, top = sr.step(rows, v)
        yield v, top


def strip_counts(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, n: int, m: int, mode: str
) -> tuple[CountVector, float]:
    """Count vector after m steps, pinned at path node m.

    Covers the strip pieces at path indices 0..m; whole periods are crossed
    by binary powering of the period product (see ``_count_loop``).
    Returns the vector and a log-normalizer (zero in exact mode): in log mode
    the vector is renormalized by its max entry and the log of the
    factored-out scale is the normalizer.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    ctx = sized_context(tree, a, mode, region_sites(tree, ray, n, m + 1))
    v, normalizer = next(_count_loop(ctx, ray, n, m))
    return CountVector(tuple(v), ctx.sr.mode), normalizer


def period_matrix(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, n: int, mode: str
) -> LogNonnegMatrix:
    """Composition of the step matrices over one ray period.

    The steps at phases c+1 .. c+ell are composed in application order (the
    phase-(c+1) step acts first), which is the operator whose powers drive
    the pinned count vector across whole periods.  Its spectral radius is
    invariant under the choice of starting phase.
    """
    ctx = sized_context(tree, a, mode, period_sites(tree, ray, n))
    rows = [ctx.piece(off, n)[1] for off in phase_profiles(tree, ray)[ray.c + 1:]]
    return ctx.sr.matrix(reduce(ctx.sr.matmul, rows[::-1]))


def strip_entropy_closed(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, n: int
) -> StripEntropyResult:
    """Strip entropy of width n via the period product's spectral radius.

    value = log rho(D) / (strip sites of one period), with D built in log
    mode (the Perron solve is in floats either way).  A is first trimmed to
    its essential symbols (``matrices.essential``); the trimmed ones are
    listed in the diagnostics.

    The count grows like rho(D)^q up to a polynomial factor, primitive
    support or not: rho(D) is solved per strongly connected class, and
    rho(D) = 0 raises ``ZeroSpectralRadiusError``.  ``support_primitive``
    and ``support_exponent`` are D's, read from A (``matrices.essential``).
    """
    a, trimmed, prim = essential(a)
    if not prim:
        warnings.warn("adjacency matrix is not primitive; strip entropy may not converge")
    perron: PerronData = spectral_radius(period_matrix(tree, a, ray, n, LOG.mode))
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
            "support_primitive": prim.primitive,
            "support_exponent": -(-prim.exponent // ray.ell) if prim else None,
            **({"trimmed_symbols": list(trimmed)} if trimmed else {}),
        },
    )


def strip_entropy_iterative(
    tree: MarkovTree, a: BinaryMatrix, ray: Ray, n: int, m_max: int
) -> StripEntropyResult:
    """Strip entropy of width n estimated from the count iteration itself.

    The growth of the log count converges over p periods, p the cyclic
    index of the period product D (``PerronData.cyclic_index``): when D is
    cyclic the growth over one period alternates forever.  p is 1 when the
    trimmed A is primitive, because then so is D (``matrices.essential``);
    otherwise it is read from D's Perron solve.

    Drives the log-domain count vector to path node m_max - 2 p ell (whole
    periods by binary powering of the period product, see ``_count_loop``),
    steps the last 2 p periods one matrix at a time, and takes the growth of
    the log count over the final p periods divided by their strip sites.
    The growth is summed from the scales factored out within those steps, so
    it does not lose digits to the size of the count.  Diagnostics carry the
    cyclic index, the oscillation width of the p-period estimates ending at
    the last p ell + 1 nodes (a window over 2 p periods of counts; ``None``
    when m_max = p ell, where the window holds one estimate and so measures
    no agreement) and the raw cumulative quotient log(count)/sites.  A is
    first trimmed to its essential symbols, as in ``strip_entropy_closed``.
    """
    a, trimmed, prim = essential(a)
    p = 1 if prim else spectral_radius(period_matrix(tree, a, ray, n, LOG.mode)).cyclic_index
    span = p * ray.ell
    if m_max < ray.c + span:
        raise ValueError(f"m_max must be >= c + p ell = {ray.c + span} (cyclic index p = {p})")
    start = max(0, m_max - 2 * span)
    region = region_sites(tree, ray, n, m_max + 1)
    loop = _count_loop(sized_context(tree, a, LOG.mode, region), ray, n, start)
    # totals[i] is the log count at node start + i less the log scale of node start
    v, base = next(loop)
    totals, shift = [log_sum(v)], 0.0
    for v, top in islice(loop, m_max - start):
        shift += top
        totals.append(shift + log_sum(v))
    sites = p * period_sites(tree, ray, n)
    # the p-period estimates ending at nodes max(span, m_max - span) .. m_max
    window = [(last - first) / sites for first, last in zip(totals, totals[span:])]
    return StripEntropyResult(
        width=n,
        value=window[-1],
        method=METHOD_ITERATIVE,
        denominator=sites,
        diagnostics={
            "m_max": m_max,
            "cyclic_index": p,
            "oscillation_width": max(window) - min(window) if len(window) > 1 else None,
            "raw_quotient": (base + totals[-1]) / region,
            **({"trimmed_symbols": list(trimmed)} if trimmed else {}),
        },
    )
