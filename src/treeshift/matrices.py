"""0-1 and nonnegative matrix algebra: the counting semirings, primitivity,
matrix products, spectral radii and Perron vectors in log domain.

Matrices here are tiny (symbol alphabets, generator sets), so the emphasis is
on robustness rather than speed: a zero entry is represented by a -inf
sentinel in log space, never by a large negative float, and every log-domain
sum factors out its largest term so that astronomically large pattern counts
never overflow.

All values are immutable after construction and safe for concurrent
read-only use.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")

MODE_EXACT = "exact"
MODE_LOG = "log"

#: a Perron root counts as converged when its bracket is this narrow, relatively
EIG_REL_TOL = 1e-12


class ZeroSpectralRadiusError(ValueError):
    """The matrix has spectral radius zero, so its log is undefined."""


@dataclass(frozen=True)
class BinaryMatrix:
    """A square 0-1 matrix; doubles as symbol adjacency and tree shape."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if d < 1:
            raise ValueError("matrix must have dimension >= 1")
        for row in self.rows:
            if len(row) != d:
                raise ValueError("matrix must be square")
            for x in row:
                if x not in (0, 1):
                    raise ValueError(f"entries must be 0 or 1, got {x!r}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def full(cls, dim: int) -> "BinaryMatrix":
        """The all-ones matrix (the shape of the conventional d-tree)."""
        return cls(tuple((1,) * dim for _ in range(dim)))

    @classmethod
    def identity(cls, dim: int) -> "BinaryMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)))

    @classmethod
    def golden(cls) -> "BinaryMatrix":
        """[[1,1],[1,0]]: golden-mean constraint, as adjacency or tree shape."""
        return cls(((1, 1), (1, 0)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def row_is_full(self, i: int) -> bool:
        return all(self.rows[i])

    def row_support(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, x in enumerate(self.rows[i]) if x)

    def restrict(self, symbols: Sequence[int]) -> "BinaryMatrix":
        """The submatrix on ``symbols``; ``self`` itself when that is all of them."""
        if len(symbols) == self.dim:
            return self
        return BinaryMatrix(tuple(tuple(self.rows[i][j] for j in symbols) for i in symbols))

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(tuple(zip(*self.rows)))

    def to_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)


@dataclass(frozen=True)
class PrimitivityResult:
    primitive: bool
    exponent: int | None  # smallest e with m^e entrywise positive

    def __bool__(self) -> bool:
        return self.primitive


def wielandt_bound(dim: int) -> int:
    """Largest exponent that must be checked: (d-1)^2 + 1."""
    return (dim - 1) ** 2 + 1


def is_primitive(m: BinaryMatrix) -> PrimitivityResult:
    """Primitivity via boolean matrix powers up to the Wielandt bound.

    Returns the smallest exponent e with m^e entrywise positive as witness.
    """
    base = m.to_array() > 0
    cur = base.copy()
    for e in range(1, wielandt_bound(m.dim) + 1):
        if cur.all():
            return PrimitivityResult(True, e)
        cur = (cur.astype(np.int64) @ base.astype(np.int64)) > 0
    return PrimitivityResult(False, None)


def essential(a: BinaryMatrix) -> tuple[int, ...]:
    """The largest symbol set S in which every symbol has an A-successor in S.

    Found by iterated removal of symbols with no successor among those left
    (the essential graph of Lind & Marcus, restricted to successors because
    every tree node has children but the root has no parent).  Symbols
    outside S label no node of any infinite labeling.  Raises ``ValueError``
    when S is empty: then no infinite labeling exists at all.
    """
    kept = tuple(range(a.dim))
    while True:
        alive = tuple(i for i in kept if any(a.entry(i, j) for j in kept))
        if not alive:
            raise ValueError("no essential symbol: every symbol runs out of successors")
        if alive == kept:
            return kept
        kept = alive


def log_sum(values: Sequence[float]) -> float:
    """logsumexp over a finite list; ignores -inf terms, empty -> -inf."""
    mx = max(values, default=NEG_INF)
    if mx == NEG_INF:
        return NEG_INF
    return mx + math.log(sum(math.exp(v - mx) for v in values if v > NEG_INF))


@dataclass(frozen=True, eq=False)
class Semiring:
    """The arithmetic a count recursion runs in.

    ``sum`` takes a sequence of elements and ``mul`` two; ``zero`` and
    ``one`` are their neutral elements.  Exact counts are Python ints; log
    counts are their logs, with -inf for a zero count, so sum is logsumexp
    and mul is float addition.
    """

    mode: str
    zero: Any
    one: Any
    sum: Callable[[Sequence], Any]
    mul: Callable[[Any, Any], Any]

    def prod(self, values: Iterable) -> Any:
        """The product of ``values`` (the empty product is one)."""
        return reduce(self.mul, values, self.one)

    def matvec(self, m: Sequence[Sequence], v: Sequence) -> list:
        """out[s] = sum_i m[s][i] * v[i]."""
        return [self.sum(list(map(self.mul, row, v))) for row in m]

    def matmul(self, a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
        """out[i][j] = sum_l a[i][l] * b[l][j]."""
        columns = list(zip(*b))
        return [self.matvec(columns, row) for row in a]

    def matrix(self, rows: Sequence[Sequence]) -> "LogNonnegMatrix":
        """A matrix from an entry table of this semiring."""
        if self.mode == MODE_EXACT:
            return LogNonnegMatrix.from_exact(rows)
        return LogNonnegMatrix(np.array(rows, dtype=float))

    def entries(self, m: "LogNonnegMatrix"):
        """The entry table of a matrix in this semiring."""
        return m.exact if self.mode == MODE_EXACT else m.logs.tolist()


EXACT = Semiring(MODE_EXACT, 0, 1, sum, operator.mul)
LOG = Semiring(MODE_LOG, NEG_INF, 0.0, log_sum, operator.add)


def _log_of_int(n: int) -> float:
    if n < 0:
        raise ValueError("exact entries must be nonnegative")
    # math.log handles arbitrary-precision ints without float conversion
    return math.log(n) if n > 0 else NEG_INF


class LogNonnegMatrix:
    """Nonnegative square matrix stored in log domain.

    ``logs`` is a float array with -inf marking zero entries.  A matrix built
    by ``from_exact`` also keeps its arbitrary-precision entries in ``exact``;
    products of exact matrices stay exact, so that desk-scale results can be
    compared exactly against brute-force counts.
    """

    __slots__ = ("logs", "exact")

    def __init__(self, logs: np.ndarray, exact: tuple[tuple[int, ...], ...] | None = None):
        logs = np.asarray(logs, dtype=float)
        if logs.ndim != 2 or logs.shape[0] != logs.shape[1]:
            raise ValueError("log matrix must be square")
        if np.isnan(logs).any():
            raise ValueError("log matrix must not contain NaN")
        if np.isposinf(logs).any():
            raise ValueError("log matrix must not contain +inf")
        self.logs = logs
        self.logs.setflags(write=False)
        self.exact = exact

    @classmethod
    def from_exact(cls, rows: Iterable[Iterable[int]]) -> "LogNonnegMatrix":
        exact = tuple(tuple(int(x) for x in row) for row in rows)
        logs = np.array([[_log_of_int(x) for x in row] for row in exact], dtype=float)
        return cls(logs, exact)

    @classmethod
    def from_binary(cls, m: BinaryMatrix) -> "LogNonnegMatrix":
        return cls.from_exact(m.rows)

    @property
    def dim(self) -> int:
        return self.logs.shape[0]

    def support(self) -> BinaryMatrix:
        return BinaryMatrix.from_rows((self.logs > NEG_INF).astype(int).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogNonnegMatrix):
            return NotImplemented
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        return bool(np.array_equal(self.logs, other.logs))

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"LogNonnegMatrix(exact={self.exact!r})"
        return f"LogNonnegMatrix(logs={self.logs.tolist()!r})"


@dataclass(frozen=True)
class PerronData:
    """Spectral radius (as a log) with its bracket and right/left Perron vectors.

    ``bracket`` is the Collatz-Wielandt interval (log lo, log hi) around
    ``rho_log``; ``converged`` means its relative width is within
    ``EIG_REL_TOL``.  ``iterations`` counts eigensolves (one per call).
    Vectors are positive for primitive input, the right one with largest
    entry 1 and the left one scaled so that left . right = 1 if positive.
    """

    rho_log: float
    bracket: tuple[float, float]
    right_vec: tuple[float, ...]
    left_vec: tuple[float, ...]
    iterations: int
    converged: bool


def product(ms: Sequence[LogNonnegMatrix]) -> LogNonnegMatrix:
    """Ordered product, exact when every factor is exact, else in log domain."""
    if len(ms) == 0:
        raise ValueError("product of an empty sequence")
    dim = ms[0].dim
    for m in ms:
        if m.dim != dim:
            raise ValueError("dimension mismatch in product")
    sr = EXACT if all(m.exact is not None for m in ms) else LOG
    acc = sr.entries(ms[0])
    for m in ms[1:]:
        acc = sr.matmul(acc, sr.entries(m))
    return sr.matrix(acc)


def log_matvec(m: LogNonnegMatrix, v: np.ndarray) -> np.ndarray:
    """out[s] = logsumexp_i (m[s,i] + v[i]); -inf rows stay -inf.

    No code in the package calls it: the count loop runs ``LOG.matvec``.  It
    is kept as the vectorised reference kernel that ``LOG.matvec`` is tested
    against and that the benchmark harness replays.
    """
    w = m.logs + np.asarray(v, dtype=float)[None, :]
    mx = w.max(axis=1)
    out = np.full(m.dim, NEG_INF)
    good = mx > NEG_INF
    if good.any():
        out[good] = mx[good] + np.log(np.exp(w[good] - mx[good, None]).sum(axis=1))
    return out


def _perron_vector(lin: np.ndarray) -> np.ndarray:
    """Eigenvector of the eigenvalue of largest real part, which for a
    nonnegative matrix is the Perron root; scaled so its largest entry is 1."""
    values, vectors = np.linalg.eig(lin)
    x = vectors[:, np.argmax(values.real)].real
    return x / x[np.argmax(np.abs(x))]


def spectral_radius(m: LogNonnegMatrix) -> PerronData:
    """Perron data from one dense eigensolve, certified by Collatz-Wielandt.

    The largest log entry is factored out and the right and left Perron
    vectors are read off ``np.linalg.eig`` of the linear matrix M and of its
    transpose.  The root is the midpoint of min (Mx)_i / x_i <= rho <=
    max (Mx)_i / x_i over the coordinates with x_i > 0; the bracket reported
    is that interval widened by the float rounding of M and Mx and rounded
    outward, with the scale added back.  Zero spectral radius is decided
    from the support (M^dim = 0), not from a float.  The left vector is
    scaled so that left . right = 1 where that product is positive.
    """
    if not np.linalg.matrix_power(m.logs > NEG_INF, m.dim).any():
        raise ZeroSpectralRadiusError("zero spectral radius (nilpotent support)")
    scale = float(m.logs.max())
    lin = np.exp(m.logs - scale)
    right = _perron_vector(lin)
    left = _perron_vector(lin.T)
    if left @ right > 0:  # it vanishes only for reducible input, e.g. a Jordan block
        left = left / float(left @ right)
    pos = right > 0
    quotients = (lin @ right)[pos] / right[pos]
    lo, hi = float(quotients.min()), float(quotients.max())
    # rounding bound on the quotients: each entry of lin is within 2 eps of
    # exp(logs - scale), a dot product of nonnegative floats is within
    # dim eps / 2 of its exact value, and the division adds eps / 2
    slack = (m.dim + 2) * np.finfo(float).eps
    bracket = (
        math.nextafter(scale + math.log(lo * (1 - slack)), NEG_INF) if lo > 0 else NEG_INF,
        math.nextafter(scale + math.log(hi * (1 + slack)), math.inf),
    )
    return PerronData(
        rho_log=scale + math.log(0.5 * (lo + hi)),
        bracket=bracket,
        right_vec=tuple(float(v) for v in right),
        left_vec=tuple(float(v) for v in left),
        iterations=1,
        converged=hi - lo <= EIG_REL_TOL * hi,
    )
