"""Eventually periodic rays and their strip geometry.

A ray is an infinite non-self-intersecting path from the root, given as a
finite prefix word followed by an infinitely repeated period word.  Around
each path node sits one strip piece: the node itself plus, for every
off-path child, that child's follower subtree truncated at depth n-1 (so a
width-n strip spans n levels below its path node).  This is the depth
convention under which the per-step transfer formulas hold verbatim; see
``lambda_strip``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeGuardError
from .tree import MarkovTree, Word, subtree_nodes

#: explicit strip regions larger than this are refused
REGION_NODE_GUARD = 10**6


@dataclass(frozen=True)
class Ray:
    """Eventually periodic ray: prefix then repeated period (0-based letters)."""

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.period) < 1:
            raise ValueError("ray period must be nonempty")
        for x in self.prefix + self.period:
            if not isinstance(x, int) or x < 0:
                raise ValueError("ray letters must be nonnegative integers")

    @property
    def c(self) -> int:
        return len(self.prefix)

    @property
    def ell(self) -> int:
        return len(self.period)

    def letter(self, i: int) -> int:
        """The i-th letter of the ray, i >= 1."""
        if i < 1:
            raise ValueError("letter index starts at 1")
        if i <= self.c:
            return self.prefix[i - 1]
        return self.period[(i - self.c - 1) % self.ell]

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
            raise ValueError(f"ray inadmissible: letter {x} out of range for d={tree.d}")
    word = ray.prefix + ray.period + ray.period
    for a, b in zip(word, word[1:]):
        if tree.shape.entry(a, b) != 1:
            raise ValueError(
                f"ray inadmissible: shape forbids f{a + 1} -> f{b + 1}"
            )
    return ray


@dataclass(frozen=True)
class StripProfile:
    """Local geometry of the strip piece at one path node.

    ``node_type`` is the generator of the path node (None at the root, whose
    children are all d generators); ``off_branches`` are the children not on
    the path, each carrying a truncated follower subtree.
    """

    node_index: int
    node_type: int | None
    on_path_child: int
    off_branches: tuple[int, ...]

    def kind(self) -> tuple:
        """Profile identity ignoring the position along the ray."""
        return (self.node_type, self.on_path_child, self.off_branches)


def step_profile(tree: MarkovTree, ray: Ray, j: int) -> StripProfile:
    """Profile at path index j; depends only on phase for j >= c + 1."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        on = ray.letter(1)
        off = tuple(t for t in tree.generators() if t != on)
        return StripProfile(0, None, on, off)
    node = ray.letter(j)
    on = ray.letter(j + 1)
    off = tuple(t for t in tree.children(node) if t != on)
    return StripProfile(j, node, on, off)


def lambda_strip(tree: MarkovTree, profile: StripProfile, n: int) -> int:
    """Number of nodes of one width-n strip piece.

    The path node plus, per off-path child, the follower subtree of depth
    n-1 rooted at that child (the strip spans n levels below the path node).
    """
    if n < 1:
        raise ValueError("strip width n must be >= 1")
    return 1 + sum(subtree_nodes(tree, t, n - 1) for t in profile.off_branches)


def period_sites(tree: MarkovTree, ray: Ray, n: int) -> int:
    """Total strip sites contributed by one full period (phases c+1..c+ell)."""
    return sum(
        lambda_strip(tree, step_profile(tree, ray, j), n)
        for j in range(ray.c + 1, ray.c + ray.ell + 1)
    )


def region_sites(tree: MarkovTree, ray: Ray, n: int, m: int) -> int:
    """Total strip sites of the first m strip pieces (path indices 0..m-1).

    Closed form: the pieces up to the period start (path indices 0..c), then
    whole periods times ``period_sites``, then a partial period.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    head = min(m, ray.c + 1)
    periods, partial = divmod(m - head, ray.ell)
    walked = (*range(head), *range(ray.c + 1, ray.c + 1 + partial))
    pieces = sum(lambda_strip(tree, step_profile(tree, ray, j), n) for j in walked)
    return pieces + periods * period_sites(tree, ray, n)


def check_strip_periodicity(tree: MarkovTree, ray: Ray, n: int, horizon: int) -> bool:
    """Verify strip periodicity: the profile repeats with the ray period.

    Compares profile kind and strip size at j and j + ell for every
    c + 1 <= j <= horizon - ell.
    """
    c, ell = ray.c, ray.ell
    if horizon < c + 2 * ell:
        raise ValueError("horizon must be >= c + 2*ell")
    for j in range(c + 1, horizon - ell + 1):
        a = step_profile(tree, ray, j)
        b = step_profile(tree, ray, j + ell)
        if a.kind() != b.kind():
            return False
        if lambda_strip(tree, a, n) != lambda_strip(tree, b, n):
            return False
    return True


def strip_region(tree: MarkovTree, ray: Ray, n: int, m: int) -> tuple[Word, ...]:
    """Explicit node set of the first m strip pieces (path indices 0..m-1).

    Returns sorted words; the size equals the sum of the m strip sizes.
    Guarded against regions beyond ``REGION_NODE_GUARD`` nodes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    validate_ray(tree, ray)
    predicted = region_sites(tree, ray, n, m)
    if predicted > REGION_NODE_GUARD:
        raise SizeGuardError(
            f"strip region guard exceeded: {predicted} nodes (n={n}, m={m})"
        )
    nodes: set[Word] = set()
    for j in range(m):
        base = ray.node(j)
        nodes.add(base)
        profile = step_profile(tree, ray, j)
        for t in profile.off_branches:
            stack: list[Word] = [(t,)]
            while stack:
                w = stack.pop()
                nodes.add(base + w)
                if len(w) < n:
                    for u in tree.children(w[-1]):
                        stack.append(w + (u,))
    out = tuple(sorted(nodes))
    assert len(out) == predicted, "strip size bookkeeping out of sync"
    return out
