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
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")

MODE_EXACT = "exact"
MODE_LOG = "log"

#: relative tolerance for power-iteration convergence
EIG_REL_TOL = 1e-12
#: additive tolerance for inequality checks
BOUND_TOL = 1e-9
#: hard cap on power-iteration steps
ITERATION_CAP = 100_000


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


def log_sum(values: Sequence[float]) -> float:
    """logsumexp over a finite list; ignores -inf terms, empty -> -inf."""
    mx = max(values, default=NEG_INF)
    if mx == NEG_INF:
        return NEG_INF
    return mx + math.log(sum(math.exp(v - mx) for v in values if v > NEG_INF))


@dataclass(frozen=True, eq=False)
class Semiring:
    """The arithmetic a count recursion runs in.

    ``sum`` and ``prod`` take a sequence of elements; ``zero`` and ``one`` are
    their empty values.  Exact counts are Python ints; log counts are their
    logs, with -inf for a zero count, so sum is logsumexp and prod is float
    addition.
    """

    mode: str
    zero: Any
    one: Any
    sum: Callable[[Sequence], Any]
    prod: Callable[[Sequence], Any]

    def matvec(self, m: Sequence[Sequence], v: Sequence) -> list:
        """out[s] = sum_i m[s][i] * v[i]."""
        return [self.sum([self.prod((m_si, v_i)) for m_si, v_i in zip(row, v)]) for row in m]

    def matrix(self, rows: Sequence[Sequence]) -> "LogNonnegMatrix":
        """A matrix from an entry table of this semiring."""
        if self.mode == MODE_EXACT:
            return LogNonnegMatrix.from_exact(rows)
        return LogNonnegMatrix(np.array(rows, dtype=float))

    def entries(self, m: "LogNonnegMatrix"):
        """The entry table of a matrix in this semiring."""
        return m.exact if self.mode == MODE_EXACT else m.logs.tolist()


EXACT = Semiring(MODE_EXACT, 0, 1, sum, math.prod)
LOG = Semiring(MODE_LOG, NEG_INF, 0.0, log_sum, partial(sum, start=0.0))


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
    """Spectral radius (as a log) with right/left Perron vectors.

    Vectors are positive for primitive input and normalized so that
    left . right = 1.
    """

    rho_log: float
    right_vec: tuple[float, ...]
    left_vec: tuple[float, ...]
    iterations: int
    converged: bool

    @property
    def rho(self) -> float:
        return math.exp(self.rho_log)


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
        columns = list(zip(*sr.entries(m)))
        acc = [sr.matvec(columns, row) for row in acc]
    return sr.matrix(acc)


def log_matvec(m: LogNonnegMatrix, v: np.ndarray) -> np.ndarray:
    """out[s] = logsumexp_i (m[s,i] + v[i]); -inf rows stay -inf."""
    w = m.logs + np.asarray(v, dtype=float)[None, :]
    mx = w.max(axis=1)
    out = np.full(m.dim, NEG_INF)
    good = mx > NEG_INF
    if good.any():
        out[good] = mx[good] + np.log(np.exp(w[good] - mx[good, None]).sum(axis=1))
    return out


def _power_iterate(lin: np.ndarray, cap: int, tol: float):
    """Power iteration with Collatz-Wielandt convergence bounds.

    Returns (rho_lin, vector, iterations, converged).  On non-primitive but
    irreducible input the quotients may oscillate forever; in that case the
    Cesaro mean of the last two iterates is used as a fallback estimate and
    the converged flag stays False.
    """
    dim = lin.shape[0]
    x = np.ones(dim)
    prev = x
    rho = 0.0
    stable = 0
    for it in range(1, cap + 1):
        y = lin @ x
        top = y.max()
        if top <= 0.0:
            raise ZeroSpectralRadiusError("zero spectral radius (nilpotent support)")
        if (x > 0).all():
            q = y / x
            hi, lo = q.max(), q.min()
            rho = 0.5 * (hi + lo)
            if hi - lo <= tol * hi:
                return rho, y / top, it, True
        else:
            # zero coordinates block the Collatz-Wielandt bound (reducible
            # support); fall back to growth-rate stabilization
            g = top / x.max()
            stable = stable + 1 if abs(g - rho) <= tol * max(g, 1e-300) else 0
            rho = g
            if stable >= 32:
                return rho, y / top, it, True
        prev = x
        x = y / top
    # Cesaro fallback for oscillating (period-two) iterates
    z = 0.5 * (x + prev)
    y = lin @ z
    if (z > 0).all():
        q = y / z
        rho = 0.5 * (q.max() + q.min())
    else:
        rho = y.max() / z.max()
    return rho, z / z.max(), cap, False


def spectral_radius(m: LogNonnegMatrix, cap: int = ITERATION_CAP) -> PerronData:
    """Perron data by power iteration on the log-scaled matrix.

    The largest log entry is factored out, the iteration runs in the linear
    domain with per-step renormalization, and the scale is added back at the
    end.  The left vector comes from iterating the transpose; it is scaled so
    that left . right = 1.
    """
    scale = float(m.logs.max())
    if scale == NEG_INF:
        raise ZeroSpectralRadiusError("zero spectral radius (zero matrix)")
    lin = np.exp(m.logs - scale)
    rho_r, right, it_r, ok_r = _power_iterate(lin, cap, EIG_REL_TOL)
    _, left, it_l, ok_l = _power_iterate(lin.T, cap, EIG_REL_TOL)
    denom = float(left @ right)
    if denom > 0:
        left = left / denom
    return PerronData(
        rho_log=scale + math.log(rho_r),
        right_vec=tuple(float(v) for v in right),
        left_vec=tuple(float(v) for v in left),
        iterations=max(it_r, it_l),
        converged=ok_r and ok_l,
    )


@dataclass(frozen=True)
class PerronBoundResult:
    ok: bool
    max_violation: float

    def __bool__(self) -> bool:
        return self.ok


def perron_sandwich_check(m: LogNonnegMatrix, n: int, tol: float = BOUND_TOL) -> PerronBoundResult:
    """Measure how far m^n / rho^n falls below its limit v w^T entrywise.

    (v, w) are the Perron vectors with w . v = 1, and m^n / rho^n -> v w^T
    as n -> infinity.  Returns the largest entrywise shortfall
    max(v w^T - m^n / rho^n, 0); ok means it stays within ``tol``.  Requires
    the matrix support to be primitive.

    Note: v w^T <= m^n / rho^n is not a finite-n theorem; the subdominant
    spectral term can push entries below the limit at any finite n, so this
    is a diagnostic, not a theorem checker.  The two-sided bound that does
    hold at every finite n is asserted by acceptance criterion 9
    (``tests/test_acceptance.py::test_09_perron_outer_bound``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prim = is_primitive(m.support())
    if not prim:
        raise ValueError("perron_sandwich_check requires a primitive support")
    pd = spectral_radius(m)
    power = product([m] * n)
    ratio = np.exp(power.logs - n * pd.rho_log)
    outer = np.outer(pd.right_vec, pd.left_vec)
    violation = float((outer - ratio).max())
    return PerronBoundResult(ok=violation <= tol, max_violation=max(violation, 0.0))
