"""Eventually periodic rays and their strip geometry.

A ray is an infinite non-self-intersecting path from the root, given as a
finite prefix word followed by an infinitely repeated period word.  Around
each path node sits one strip piece: the node itself plus, for every
off-path child, that child's follower subtree truncated at depth n-1 (so a
width-n strip spans n levels below its path node).  This is the depth
convention under which the per-step transfer formulas hold verbatim; see
``lambda_strip``.

The geometry is computed once, in two module-level memo tables, none of
which holds a count: the phase table (``phase_profiles``), the off-path
children of path indices 0..c+ell (``step_profile``, which reads only the
two letters that fix them, so a letter source needs only ``letter``), keyed
by (tree, ray), which every later index reads by its phase; and the
running strip sizes over those indices, keyed by (tree, ray, n), sized from
the tree's size level table (``tree.subtree_nodes``), which
``region_sites`` and ``period_sites`` read.
The phase table refuses an inadmissible ray (``validate_ray``) first, so
every strip count admits its ray once.  Keys and values are immutable, so
the tables never go stale; like the size tables they are unbounded, and
their ``cache_clear`` empties them.  The regions themselves are laid out
only by the brute-force oracle (``oracle.lay_piece``), from this geometry.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .matrices import Value
from .tree import MarkovTree, Word, subtree_nodes


class Ray(Value):
    """Eventually periodic ray: prefix then repeated period (0-based letters)."""

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: tuple[int, ...], period: tuple[int, ...]) -> None:
        if len(period) < 1:
            raise ValueError("ray period must be nonempty")
        for x in prefix + period:
            if not isinstance(x, int) or x < 0:
                raise ValueError("ray letters must be nonnegative integers")
        self._freeze(prefix, period)

    @property
    def c(self) -> int:
        return len(self.prefix)

    @property
    def ell(self) -> int:
        return len(self.period)

    def letter(self, i: int) -> int:
        """The i-th letter of the ray, i >= 1."""
        c = len(self.prefix)
        if i > c:
            return self.period[(i - c - 1) % len(self.period)]
        if i < 1:
            raise ValueError("letter index starts at 1")
        return self.prefix[i - 1]

    def node(self, j: int) -> Word:
        """The j-th path node (a word of length j)."""
        return tuple(self.letter(i) for i in range(1, j + 1))

    def describe(self) -> str:
        pre = "".join(f"f{x + 1}" for x in self.prefix)
        per = " ".join(f"f{x + 1}" for x in self.period)
        return f"{pre}({per})^inf" if pre else f"({per})^inf"


def validate_ray(tree: MarkovTree, ray: Ray) -> Ray:
    """Check admissibility of prefix . period . period.

    Two copies of the period cover every junction (prefix to period, inside
    the period, and period wrap-around), which suffices by induction.
    """
    for x in ray.prefix + ray.period:
        if x >= tree.d:
            raise ValueError(f"ray inadmissible: letter f{x + 1} out of range for d={tree.d}")
    word = ray.prefix + ray.period + ray.period
    for a, b in zip(word, word[1:]):
        if tree.shape.entry(a, b) != 1:
            raise ValueError(
                f"ray inadmissible: shape forbids f{a + 1} -> f{b + 1}"
            )
    return ray


def step_profile(tree: MarkovTree, ray: Ray, j: int) -> tuple[int, ...]:
    """The off-path children of path node j: the children of its generator
    (all d generators at the root) but letter j + 1, each carrying a
    truncated follower subtree in the strip piece.

    They depend only on letter j (none at the root) and letter j + 1, not
    on the position along the ray, so any object with ``letter`` drives it.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    on = ray.letter(j + 1)
    children = tree.children(ray.letter(j)) if j else tree.generators()
    return tuple(t for t in children if t != on)


def lambda_strip(tree: MarkovTree, off: tuple[int, ...], n: int) -> int:
    """Number of nodes of one width-n strip piece with off-path children ``off``.

    The path node plus, per off-path child, the follower subtree of depth
    n-1 rooted at that child (the strip spans n levels below the path node).
    """
    if n < 1:
        raise ValueError("strip width n must be >= 1")
    return 1 + sum(subtree_nodes(tree, t, n - 1) for t in off)


@lru_cache(maxsize=None)
def phase_profiles(tree: MarkovTree, ray: Ray) -> tuple[tuple[int, ...], ...]:
    """The off-path children (``step_profile``) of path indices 0..c+ell, once
    the ray is admitted; index j > c+ell reads entry c+1+(j-c-1) mod ell."""
    validate_ray(tree, ray)
    return tuple(step_profile(tree, ray, j) for j in range(ray.c + ray.ell + 1))


@lru_cache(maxsize=None)
def _site_offsets(tree: MarkovTree, ray: Ray, n: int) -> tuple[int, ...]:
    """Running strip sizes over path indices 0..c+ell: entry i is the sites
    of the pieces at indices 0..i-1."""
    return (0, *accumulate(lambda_strip(tree, off, n) for off in phase_profiles(tree, ray)))


def period_sites(tree: MarkovTree, ray: Ray, n: int) -> int:
    """Total strip sites contributed by one full period (phases c+1..c+ell)."""
    offsets = _site_offsets(tree, ray, n)
    return offsets[-1] - offsets[ray.c + 1]


def region_sites(tree: MarkovTree, ray: Ray, n: int, m: int) -> int:
    """Total strip sites of the first m strip pieces (path indices 0..m-1).

    Closed form: the pieces up to the period start (path indices 0..c), then
    whole periods times ``period_sites``, then a partial period.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    offsets, c = _site_offsets(tree, ray, n), ray.c
    periods, partial = divmod(max(m - c - 1, 0), ray.ell)
    return offsets[min(m, c + 1) + partial] + periods * (offsets[-1] - offsets[c + 1])
