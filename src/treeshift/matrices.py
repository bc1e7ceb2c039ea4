"""0-1 and nonnegative matrix algebra: the counting semirings, primitivity,
matrix products and spectral radii in log domain.

Matrices are tiny (symbol alphabets, generator sets).  Zero is the -inf
sentinel in log space, never a large negative float, and every log sum
(``log_sum``, inline in ``Semiring.matvec`` and ``matmul``, and so in the
count loop's fused step ``Semiring.step``) factors out its largest term, so
only logs past the float range overflow, which ``counting.resolve`` refuses.

All values are immutable after construction and safe for concurrent
read-only use.  ``BinaryMatrix`` here, ``tree.MarkovTree``, ``ray.Ray``
and ``counting.CountVector`` are ``Value``s, which compare by their fields
and hash once; result records are ``NamedTuple``s.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import lru_cache, reduce
from itertools import repeat
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import SizeGuardError

NEG_INF = float("-inf")

MODE_EXACT = "exact"
MODE_LOG = "log"

#: a Perron root counts as converged when its bracket is this narrow, relatively
EIG_REL_TOL = 1e-12


class ZeroSpectralRadiusError(ValueError):
    """The matrix has spectral radius zero, so its log is undefined."""


_set = object.__setattr__


class Value:
    """An immutable, hashable value.

    A subclass lists its fields first in ``__slots__`` and ends its
    ``__init__`` with ``self._freeze(*fields)``, which stores the fields,
    their tuple and its hash, computed once.  Values are equal when they
    are of one class with equal field tuples, so values built apart compare
    and hash equal, as memo keys must, and none equals a plain tuple.
    Assigning or deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ("_key", "_hash")

    def _freeze(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            _set(self, name, value)
        _set(self, "_key", fields)
        _set(self, "_hash", hash(fields))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._key


class BinaryMatrix(Value):
    """A square 0-1 matrix; doubles as symbol adjacency and tree shape.

    The row supports are computed once, at construction."""

    __slots__ = ("rows", "supports")

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        d = len(rows)
        if d < 1:
            raise ValueError("matrix must have dimension >= 1")
        for row in rows:
            if len(row) != d:
                raise ValueError("matrix must be square")
            for x in row:
                if x not in (0, 1):
                    raise ValueError(f"entries must be 0 or 1, got {x!r}")
        self._freeze(rows)
        _set(self, "supports", tuple(tuple(j for j, x in enumerate(row) if x) for row in rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def full(cls, dim: int) -> "BinaryMatrix":
        """The all-ones matrix (the shape of the conventional d-tree)."""
        return cls(tuple((1,) * dim for _ in range(dim)))

    @classmethod
    def golden(cls) -> "BinaryMatrix":
        """[[1,1],[1,0]]: golden-mean constraint, as adjacency or tree shape."""
        return cls(((1, 1), (1, 0)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def row_is_full(self, i: int) -> bool:
        return all(self.rows[i])

    def row_support(self, i: int) -> tuple[int, ...]:
        return self.supports[i]

    def restrict(self, symbols: Sequence[int]) -> "BinaryMatrix":
        """The submatrix on ``symbols``; ``self`` itself when that is all of them."""
        if len(symbols) == self.dim:
            return self
        return BinaryMatrix(tuple(tuple(self.rows[i][j] for j in symbols) for i in symbols))


class PrimitivityResult(NamedTuple):
    primitive: bool
    exponent: int | None  # smallest e with m^e entrywise positive

    def __bool__(self) -> bool:
        return self.primitive


def wielandt_bound(dim: int) -> int:
    """Largest exponent that must be checked: (d-1)^2 + 1."""
    return (dim - 1) ** 2 + 1


def _bit_rows(rows: Iterable[Iterable]) -> list[int]:
    """A 0-1 matrix as one bit mask per row: bit j of row i is entry (i, j)."""
    return [sum(1 << j for j, x in enumerate(row) if x) for row in rows]


def _bool_matmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Boolean product of bit-mask matrices: row i of a.b is the union of
    the rows of b that row i of a selects."""
    out = []
    for row in a:
        acc = 0
        for j, b_row in enumerate(b):
            if row >> j & 1:
                acc |= b_row
        out.append(acc)
    return out


def is_primitive(m: BinaryMatrix) -> PrimitivityResult:
    """Primitivity via boolean matrix powers up to the Wielandt bound.

    Returns the smallest exponent e with m^e entrywise positive as witness.
    """
    base = _bit_rows(m.rows)
    full = (1 << m.dim) - 1
    cur = base
    for e in range(1, wielandt_bound(m.dim) + 1):
        if all(row == full for row in cur):
            return PrimitivityResult(True, e)
        cur = _bool_matmul(cur, base)
    return PrimitivityResult(False, None)


@lru_cache(maxsize=None)
def essential(a: BinaryMatrix) -> tuple[BinaryMatrix, tuple[int, ...], PrimitivityResult]:
    """The admission of an adjacency, memoised so that each one is trimmed
    and tested once: A on the largest symbol set S in which every symbol has
    an A-successor in S, the symbols outside S, ascending, and the
    primitivity of A on S.

    S is found by iterated removal of symbols with no successor among those
    left (the essential graph of Lind & Marcus, restricted to successors
    because every tree node has children but the root has no parent).
    Symbols outside S label no node of any infinite labeling.  Raises
    ``ValueError`` when S is empty: then no infinite labeling exists at all.

    For the trimmed A, the period product D of a ray with period ell
    (``transfer.period_matrix``) is primitive exactly when A is, with
    exponent ceil(e(A) / ell): supp D = supp (A^T)^ell, because each step
    R(s, i) = a(i, s) w(s) has w(s) >= 1 (every essential symbol has a
    successor, so every finite follower tree has a labeling), and products
    of nonnegative matrices cannot cancel.
    """
    kept = tuple(range(a.dim))
    while True:
        alive = tuple(i for i in kept if any(a.entry(i, j) for j in kept))
        if not alive:
            raise ValueError("no essential symbol: every symbol runs out of successors")
        if alive == kept:
            part = a.restrict(kept)
            return part, tuple(s for s in range(a.dim) if s not in kept), is_primitive(part)
        kept = alive


def log_sum(values: Sequence[float]) -> float:
    """logsumexp over a finite list; a -inf term adds exp(-inf) = 0.0, empty -> -inf."""
    top = max(values, default=NEG_INF)
    if top == NEG_INF:
        return NEG_INF
    return top + math.log(sum(map(math.exp, map(operator.sub, values, repeat(top)))))


class Semiring(Value):
    """The arithmetic a count recursion runs in.

    ``sum`` takes a sequence of elements and ``mul`` two; ``zero`` and
    ``one`` are their neutral elements.  Exact counts are Python ints; log
    counts are their logs, with -inf for a zero count, so sum is logsumexp
    and mul is float addition.  Equality and hash are by identity.
    """

    __slots__ = ("mode", "zero", "one", "sum", "mul")

    def __init__(
        self, mode: str, zero: Any, one: Any,
        sum: Callable[[Sequence], Any], mul: Callable[[Any, Any], Any],
    ) -> None:
        self._freeze(mode, zero, one, sum, mul)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def prod(self, values: Iterable) -> Any:
        """The product of ``values`` (the empty product is one)."""
        return reduce(self.mul, values, self.one)

    def matvec(self, m: Sequence[Sequence], v: Sequence) -> list:
        """out[s] = sum_i m[s][i] * v[i]; in log mode ``log_sum`` runs inline."""
        if self.mode == MODE_EXACT:
            return [sum(map(operator.mul, row, v)) for row in m]
        out = []
        for row in m:
            terms = list(map(operator.add, row, v))
            top = max(terms)
            exps = map(math.exp, map(operator.sub, terms, repeat(top)))
            out.append(top if top == NEG_INF else top + math.log(sum(exps)))
        return out

    def step(self, m: Sequence[Sequence], v: Sequence) -> tuple[list, float]:
        """A count loop's step, fused: m v less its largest entry and the log
        of that entry in log mode (m v and 0.0 in exact mode); raises
        ``ValueError`` when every entry of m v is -inf: the counts vanished."""
        out = self.matvec(m, v)
        if self.mode == MODE_EXACT:
            return out, 0.0
        if (top := max(out)) == NEG_INF:
            raise ValueError("counts vanished: adjacency admits no labelings here")
        return [x - top for x in out], top

    def matmul(self, a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
        """out[i][j] = sum_l a[i][l] * b[l][j]; in log mode ``log_sum`` runs inline."""
        columns = list(zip(*b))
        if self.mode == MODE_EXACT:
            return [self.matvec(columns, row) for row in a]
        out = []
        for row in a:
            out.append(out_row := [])
            for column in columns:
                terms = list(map(operator.add, row, column))
                top = max(terms)
                exps = map(math.exp, map(operator.sub, terms, repeat(top)))
                out_row.append(top if top == NEG_INF else top + math.log(sum(exps)))
        return out

    def matrix(self, rows: Sequence[Sequence]) -> "LogNonnegMatrix":
        """A matrix from an entry table of this semiring."""
        if self.mode == MODE_EXACT:
            return LogNonnegMatrix.from_exact(rows)
        return LogNonnegMatrix(rows)

    def entries(self, m: "LogNonnegMatrix"):
        """The entry table of a matrix in this semiring."""
        return m.exact if self.mode == MODE_EXACT else m.logs


EXACT = Semiring(MODE_EXACT, 0, 1, sum, operator.mul)
LOG = Semiring(MODE_LOG, NEG_INF, 0.0, log_sum, operator.add)


def _log_of_int(n: int) -> float:
    if n < 0:
        raise ValueError("exact entries must be nonnegative")
    # math.log handles arbitrary-precision ints without float conversion
    return math.log(n) if n > 0 else NEG_INF


class LogNonnegMatrix:
    """Nonnegative square matrix stored in log domain.

    ``logs`` is a tuple of float rows with -inf marking zero entries.  A
    matrix built by ``from_exact`` also keeps its arbitrary-precision entries
    in ``exact``; products of exact matrices stay exact, so that desk-scale
    results can be compared exactly against brute-force counts.
    """

    __slots__ = ("logs", "exact")

    def __init__(
        self,
        logs: Iterable[Iterable[float]],
        exact: tuple[tuple[int, ...], ...] | None = None,
    ):
        logs = tuple(tuple(map(float, row)) for row in logs)
        if not logs or any(len(row) != len(logs) for row in logs):
            raise ValueError("log matrix must be square")
        entries = [x for row in logs for x in row]
        if any(map(math.isnan, entries)):
            raise ValueError("log matrix must not contain NaN")
        if math.inf in entries:
            raise ValueError("log matrix must not contain +inf")
        self.logs = logs
        self.exact = exact

    @classmethod
    def from_exact(cls, rows: Iterable[Iterable[int]]) -> "LogNonnegMatrix":
        exact = tuple(tuple(int(x) for x in row) for row in rows)
        return cls([[_log_of_int(x) for x in row] for row in exact], exact)

    @property
    def dim(self) -> int:
        return len(self.logs)

    def support(self) -> BinaryMatrix:
        """Not read by the program; kept because ``perfbench/inproc.py`` calls it."""
        return BinaryMatrix(tuple(tuple(int(x > NEG_INF) for x in row) for row in self.logs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogNonnegMatrix):
            return NotImplemented
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        return self.logs == other.logs

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"LogNonnegMatrix(exact={self.exact!r})"
        return f"LogNonnegMatrix(logs={list(map(list, self.logs))!r})"


class PerronData(NamedTuple):
    """Spectral radius (as a log) with its bracket and cyclic index.

    ``bracket`` is the Collatz-Wielandt interval (log lo, log hi) around
    ``rho_log``; ``converged`` means its relative width is within
    ``EIG_REL_TOL``.  ``iterations`` counts certified solves (one per call).
    ``cyclic_index`` is the least p with lambda^p > 0 for every eigenvalue
    lambda of modulus rho: the lcm, over the dominant classes of the
    support, of the gcd of their cycle lengths; 1 for primitive input.
    """

    rho_log: float
    bracket: tuple[float, float]
    iterations: int
    converged: bool
    cyclic_index: int


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


def log_matvec(m: LogNonnegMatrix, v):
    """out[s] = logsumexp_i (m[s,i] + v[i]); -inf rows stay -inf.

    No code in the package calls it: the count loop runs ``LOG.matvec``.  It
    is kept as the vectorised reference kernel that ``LOG.matvec`` is tested
    against and that the benchmark harness replays, so it imports numpy
    itself and the package does not.
    """
    import numpy as np

    w = np.array(m.logs) + np.asarray(v, dtype=float)[None, :]
    mx = w.max(axis=1)
    out = np.full(m.dim, NEG_INF)
    good = mx > NEG_INF
    if good.any():
        out[good] = mx[good] + np.log(np.exp(w[good] - mx[good, None]).sum(axis=1))
    return out


def _collatz_wielandt(
    lin: Sequence[Sequence[float]], x: Sequence[float]
) -> tuple[float, float]:
    """min and max of (Mx)_i / x_i.  An x_i or (Mx)_i below the normal float
    range raises ``SizeGuardError``: its rounding error is no longer relative,
    and the bracket could miss rho."""
    products = [sum(map(operator.mul, row, x)) for row in lin]
    if min(products) < sys.float_info.min or min(x) < sys.float_info.min:
        raise SizeGuardError("Perron solve refused: an iterate left the normal float range")
    quotients = [p / xi for p, xi in zip(products, x)]
    return min(quotients), max(quotients)


def _shifted_solve(
    lin: Sequence[Sequence[float]], sigma: float, slack: float, x: Sequence[float]
) -> list[float]:
    """y with (s I - M) y = x: Gaussian elimination of [s I - M | x] without
    pivoting, then back substitution, for the first s of
    sigma + (2^t - 1) slack sigma, t = 0, 1, 2, ..., at which every pivot is
    positive.

    For s > rho, s I - M is a nonsingular M-matrix: every pivot is positive
    and every multiplier and off-diagonal entry of U is <= 0, so the
    elimination maps a nonnegative x to a nonnegative y whatever the
    rounding.  A non-positive pivot means s has met rho in floats; the
    doubling step takes s past rho in a few tries.
    """
    dim = len(lin)
    step = sigma * slack
    while True:
        a = [[-v for v in row] + [b] for row, b in zip(lin, x)]
        for i in range(dim):
            a[i][i] += sigma
        for p, pivot_row in enumerate(a):
            pivot = pivot_row[p]
            if not pivot > 0:
                break
            for row in a[p + 1 :]:
                factor = row[p] / pivot
                if factor:
                    for j in range(p + 1, dim + 1):
                        row[j] -= factor * pivot_row[j]
        else:
            y = [row[dim] for row in a]
            for i in reversed(range(dim)):
                for j in range(i + 1, dim):
                    y[i] -= a[i][j] * y[j]
                y[i] /= a[i][i]
            return y
        sigma += step
        step += step


def _scaled(v: Sequence[float]) -> list[float]:
    """A nonnegative vector divided by its largest entry."""
    top = max(v)
    return [x / top for x in v]


def _cyclic_classes(support: Sequence[int]) -> list[list[int]]:
    """The strongly connected classes of a bit-mask support that carry a
    cycle, each as a sorted symbol list.  The support is nilpotent exactly
    when there are none."""
    dim = len(support)
    reach = list(support)  # bit j of reach[i]: a path of length >= 1 from i to j
    for k in range(dim):
        for i in range(dim):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    classes, seen = [], 0
    for i in range(dim):
        if reach[i] >> i & 1 and not seen >> i & 1:
            members = [j for j in range(dim) if reach[i] >> j & 1 and reach[j] >> i & 1]
            seen |= sum(1 << j for j in members)
            classes.append(members)
    return classes


def _class_period(support: Sequence[int], members: Sequence[int]) -> int:
    """The gcd of the cycle lengths in one strongly connected class: with
    levels the breadth-first distances from one member, the gcd of
    level(u) + 1 - level(v) over the class's edges u -> v."""
    queue, level, period = [members[0]], {members[0]: 0}, 0
    for u in queue:  # the loop also visits the members it appends
        for v in members:
            if support[u] >> v & 1:
                if v in level:
                    period = math.gcd(period, level[u] + 1 - level[v])
                else:
                    level[v] = level[u] + 1
                    queue.append(v)
    return period


def _noda(lin: Sequence[Sequence[float]], slack: float) -> tuple[float, float]:
    """Noda's iteration on an irreducible nonnegative matrix M: its
    Collatz-Wielandt bracket (lo, hi).

    From x = the row sums of M, each step solves (sigma I - M) y = x with
    sigma = hi (1 + slack) and moves x to y scaled to largest entry 1; every
    iterate's bracket min (Mx)_i / x_i <= rho <= max (Mx)_i / x_i holds, so
    the bracket kept is their intersection.  It stops when the bracket is
    within slack of hi, relatively, or when a step narrows neither end.
    """
    x = _scaled([sum(row) for row in lin])
    lo, hi = _collatz_wielandt(lin, x)
    while hi - lo > slack * hi:
        x = _scaled(_shifted_solve(lin, hi * (1 + slack), slack, x))
        x_lo, x_hi = _collatz_wielandt(lin, x)
        if x_lo <= lo and x_hi >= hi:
            break
        lo, hi = max(lo, x_lo), min(hi, x_hi)
    return lo, hi


def spectral_radius(m: LogNonnegMatrix) -> PerronData:
    """Perron root from Noda's shift-invert iteration, certified by
    Collatz-Wielandt.

    rho is the largest spectral radius of the irreducible diagonal blocks of
    M, one per strongly connected class of the support that carries a cycle
    (the Frobenius normal form); a primitive or irreducible M is one block.
    Each block's largest log entry is factored out and ``_noda`` brackets
    its root (Noda, Numer. Math. 17, 1971: the shift is the bracket's upper
    end, and the iteration converges quadratically).  A block's root is the
    midpoint of its bracket and rho the largest of these; the bracket
    reported runs from the largest lower end to the largest upper end, each
    widened by the float rounding of M and Mx and rounded outward, with the
    scale added back, and ``converged`` is that of the block with the
    largest upper end.  Zero spectral radius (no class with a cycle, i.e.
    M^dim = 0) is decided from the support, not from a float.  A block with an
    entry scaled below the normal float range raises ``SizeGuardError``.

    A class counts as dominant for ``cyclic_index`` unless its bracket lies
    wholly below the largest lower end, so near ties err towards a larger
    index.
    """
    support = _bit_rows([x > NEG_INF for x in row] for row in m.logs)
    classes = _cyclic_classes(support)
    if not classes:
        raise ZeroSpectralRadiusError("zero spectral radius (nilpotent support)")
    rho_log = lower = upper = NEG_INF
    tops = []  # per class, the upper end of its log bracket
    for members in classes:
        logs = [[m.logs[i][j] for j in members] for i in members]
        scale = max(map(max, logs))
        least = min(v for row in logs for v in row if v > NEG_INF)
        if math.exp(least - scale) < sys.float_info.min:
            raise SizeGuardError(
                f"Perron solve refused: a class's entries span {scale - least:.1f} nats, "
                f"past the normal float range ({-math.log(sys.float_info.min):.1f})"
            )
        # rounding bound on the quotients: each entry of lin is within 2 eps
        # of exp(logs - scale), a dot product of nonnegative floats is within
        # dim eps / 2 of its exact value, and the division adds eps / 2
        slack = (len(members) + 2) * sys.float_info.epsilon
        lin = [[math.exp(v - scale) for v in row] for row in logs]
        lo, hi = _noda(lin, slack)
        rho_log = max(rho_log, scale + math.log(0.5 * (lo + hi)))
        if lo > 0:
            lower = max(lower, math.nextafter(scale + math.log(lo * (1 - slack)), NEG_INF))
        top = math.nextafter(scale + math.log(hi * (1 + slack)), math.inf)
        if top > upper:
            upper, converged = top, hi - lo <= EIG_REL_TOL * hi
        tops.append(top)
    cyclic_index = 1
    for members, top in zip(classes, tops):
        if top >= lower:  # not provably below rho: dominant
            cyclic_index = math.lcm(cyclic_index, _class_period(support, members))
    return PerronData(rho_log, (lower, upper), 1, converged, cyclic_index)
