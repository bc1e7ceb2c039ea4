import itertools
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treeshift.errors import SizeGuardError
from treeshift.transfer import _factor_max
from treeshift.matrices import (
    EXACT,
    LOG,
    NEG_INF,
    BinaryMatrix,
    LogNonnegMatrix,
    ZeroSpectralRadiusError,
    _shifted_solve,
    essential,
    is_primitive,
    log_matvec,
    log_sum,
    product,
    spectral_radius,
    wielandt_bound,
)

from support import (
    reference_factor_max,
    reference_log_matvec,
    reference_log_sum,
    reference_matmul,
    reference_matvec,
    reference_step,
    transpose,
)

G = BinaryMatrix.golden()
PHI = (1 + 5**0.5) / 2


def skipping_log_sum(values):
    """logsumexp that skips the -inf terms instead of adding exp(-inf) = 0.0:
    the bit-for-bit reference for ``log_sum`` and the inline log matvec."""
    mx = max(values, default=NEG_INF)
    if mx == NEG_INF:
        return NEG_INF
    return mx + math.log(sum(math.exp(v - mx) for v in values if v > NEG_INF))


def seeded_log_table(rng, k):
    """A k x k log table with some -inf entries, and now and then an all -inf row."""
    rows = [[rng.choice([NEG_INF, rng.uniform(-40.0, 40.0)]) for _ in range(k)] for _ in range(k)]
    if rng.random() < 0.3:
        rows[rng.randrange(k)] = [NEG_INF] * k
    return rows


class TestBinaryMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_rows([[1, 2], [0, 1]])
        with pytest.raises(ValueError):
            BinaryMatrix.from_rows([[1, 1]])
        with pytest.raises(ValueError):
            BinaryMatrix.from_rows([])

    def test_presets(self):
        assert BinaryMatrix.full(2).rows == ((1, 1), (1, 1))
        assert G.rows == ((1, 1), (1, 0))

    def test_transpose(self):
        m = BinaryMatrix.from_rows([[0, 1], [1, 1]])
        assert transpose(m).rows == ((0, 1), (1, 1))


class TestPrimitivity:
    def test_golden_mean(self):
        res = is_primitive(G)
        assert res.primitive and res.exponent == 2

    def test_identity_not_primitive(self):
        assert not is_primitive(BinaryMatrix(((1, 0), (0, 1))))

    def test_swap_not_primitive(self):
        assert not is_primitive(BinaryMatrix.from_rows([[0, 1], [1, 0]]))

    def test_full_is_primitive(self):
        res = is_primitive(BinaryMatrix.full(3))
        assert res.primitive and res.exponent == 1

    def test_one_by_one(self):
        assert is_primitive(BinaryMatrix.from_rows([[1]])).exponent == 1
        assert not is_primitive(BinaryMatrix.from_rows([[0]]))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_exhaustive_agreement_with_definition(self, dim):
        # direct boolean powering up to the Wielandt bound, written independently
        for bits in itertools.product([0, 1], repeat=dim * dim):
            rows = tuple(
                tuple(bits[i * dim + j] for j in range(dim)) for i in range(dim)
            )
            m = BinaryMatrix(rows)
            expected = None
            cur = [[bool(x) for x in row] for row in rows]
            for e in range(1, wielandt_bound(dim) + 1):
                if all(all(row) for row in cur):
                    expected = e
                    break
                cur = [
                    [
                        any(cur[i][k] and rows[k][j] for k in range(dim))
                        for j in range(dim)
                    ]
                    for i in range(dim)
                ]
            got = is_primitive(m)
            assert got.primitive == (expected is not None)
            assert got.exponent == expected


    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_numpy_boolean_powers(self, dim):
        # reference: boolean powers of the matrix as a numpy array
        def reference(rows):
            base = np.array(rows, dtype=np.int64) > 0
            cur = base.copy()
            for e in range(1, wielandt_bound(dim) + 1):
                if cur.all():
                    return True, e
                cur = (cur.astype(np.int64) @ base.astype(np.int64)) > 0
            return False, None

        if dim <= 3:
            cases = itertools.product([0, 1], repeat=dim * dim)
        else:
            rng = random.Random(700 + dim)
            cases = []
            for _ in range(300):
                density = rng.uniform(0.2, 0.9)
                cases.append([int(rng.random() < density) for _ in range(dim * dim)])
        for bits in cases:
            rows = [list(bits[i * dim : (i + 1) * dim]) for i in range(dim)]
            got = is_primitive(BinaryMatrix.from_rows(rows))
            assert (got.primitive, got.exponent) == reference(rows)


class TestLogMatrix:
    def test_exact_log_consistency(self):
        m = LogNonnegMatrix.from_exact([[2, 3], [4, 5]])
        assert m.logs[0][0] == pytest.approx(math.log(2), rel=1e-15)
        assert m.exact == ((2, 3), (4, 5))

    def test_zero_encoding(self):
        m = LogNonnegMatrix.from_exact(G.rows)
        assert m.logs[1][1] == float("-inf")
        assert m.support() == G

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            LogNonnegMatrix(np.array([[0.0, float("nan")], [0.0, 0.0]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            LogNonnegMatrix.from_exact([[1, -2], [0, 1]])


class TestProduct:
    def test_singleton(self):
        g = LogNonnegMatrix.from_exact(G.rows)
        assert product([g]).exact == g.exact

    def test_square(self):
        g = LogNonnegMatrix.from_exact(G.rows)
        assert product([g, g]).exact == ((2, 1), (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product([])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            product(
                [
                    LogNonnegMatrix.from_exact(G.rows),
                    LogNonnegMatrix.from_exact(BinaryMatrix.full(3).rows),
                ]
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_matches_big_integer_product(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 4)
        mats = [
            [[rng.randint(0, 10**6) for _ in range(dim)] for _ in range(dim)]
            for _ in range(rng.randint(2, 4))
        ]
        expected = mats[0]
        for m in mats[1:]:
            expected = [
                [
                    sum(expected[i][k] * m[k][j] for k in range(dim))
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
        got = product([LogNonnegMatrix.from_exact(m) for m in mats])
        assert got.exact == tuple(tuple(row) for row in expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_log_consistent_with_exact(self, seed):
        rng = random.Random(100 + seed)
        dim = rng.randint(2, 4)
        mats = [
            [[rng.randint(0, 50) for _ in range(dim)] for _ in range(dim)]
            for _ in range(3)
        ]
        exact = product([LogNonnegMatrix.from_exact(m) for m in mats])
        logged = product([LogNonnegMatrix(LogNonnegMatrix.from_exact(m).logs) for m in mats])
        for i in range(dim):
            for j in range(dim):
                e = exact.exact[i][j]
                if e == 0:
                    assert logged.logs[i][j] == float("-inf")
                else:
                    assert logged.logs[i][j] == pytest.approx(math.log(e), rel=1e-12)


class TestSemiringMatvec:
    @pytest.mark.parametrize("seed", range(6))
    def test_log_matches_exact_and_numpy_kernel(self, seed):
        # exact ints are the reference; the numpy kernel in support may
        # round exp/log differently in the last bit, hence the tolerance
        rng = random.Random(300 + seed)
        dim = rng.randint(1, 5)
        rows = [[rng.choice([0, rng.randint(1, 10**6)]) for _ in range(dim)] for _ in range(dim)]
        v = [rng.randint(0, 10**9) for _ in range(dim)]
        exact = EXACT.matvec(rows, v)
        assert exact == [sum(r * x for r, x in zip(row, v)) for row in rows]
        m = LogNonnegMatrix.from_exact(rows)
        v_log = [math.log(x) if x else float("-inf") for x in v]
        logged = LOG.matvec(m.logs, v_log)
        assert log_matvec(m, v_log) == logged
        numpy_kernel = reference_log_matvec(m.logs, v_log)
        for e, l, ref in zip(exact, logged, numpy_kernel):
            if e == 0:
                assert l == ref == float("-inf")
            else:
                assert l == pytest.approx(math.log(e), rel=1e-12)
                assert l == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_log_matvec_and_matmul_equal_the_row_by_row_log_sum(self, k):
        # the inline logsumexp of LOG.matvec returns the same bits as one
        # log_sum call per row, which adds exp(-inf) = 0.0 for a -inf term,
        # and as a log_sum that skips those terms
        rng = random.Random(500 + k)
        all_inf_rows = 0
        for _ in range(60):
            m, b = seeded_log_table(rng, k), seeded_log_table(rng, k)
            all_inf_rows += sum(row == [NEG_INF] * k for row in m)
            for v in (seeded_log_table(rng, k)[0], [rng.uniform(-5.0, 5.0) for _ in range(k)],
                      [NEG_INF] * k):
                expected = [log_sum(list(map(operator.add, row, v))) for row in m]
                assert LOG.matvec(m, v) == expected
                assert expected == [skipping_log_sum(list(map(operator.add, row, v))) for row in m]
            columns = list(zip(*b))
            expected = [[log_sum(list(map(operator.add, row, c))) for c in columns] for row in m]
            assert LOG.matmul(m, b) == expected
        assert all_inf_rows > 0

    def test_log_sum_equals_the_skipping_form(self):
        rng = random.Random(17)
        for _ in range(200):
            size = rng.randint(0, 6)
            values = [rng.choice([NEG_INF, rng.uniform(-800.0, 800.0)]) for _ in range(size)]
            assert log_sum(values) == skipping_log_sum(values)

    @pytest.mark.parametrize("seed", range(4))
    def test_matmul_log_matches_exact(self, seed):
        rng = random.Random(400 + seed)
        dim = rng.randint(1, 5)
        a, b = (
            [[rng.choice([0, rng.randint(1, 10**6)]) for _ in range(dim)] for _ in range(dim)]
            for _ in range(2)
        )
        exact = EXACT.matmul(a, b)
        assert exact == (np.array(a, dtype=object) @ np.array(b, dtype=object)).tolist()
        logs = [LogNonnegMatrix.from_exact(m).logs for m in (a, b)]
        for e_row, l_row in zip(exact, LOG.matmul(*logs)):
            for e, l in zip(e_row, l_row):
                if e == 0:
                    assert l == float("-inf")
                else:
                    assert l == pytest.approx(math.log(e), rel=1e-12)


def outcome(kernel, *args):
    """What a kernel returns, or the ``ValueError`` it raises, as a value."""
    try:
        return kernel(*args)
    except ValueError as exc:
        return repr(exc)


def assert_same_bits(got, want):
    # repr tells apart floats that == does not (0.0 and -0.0)
    assert got == want
    assert repr(got) == repr(want)


class TestKernelsMatchReference:
    """The count loop's kernels return the bits of the reference kernels
    kept in ``support``, errors included."""

    @pytest.mark.parametrize("k", range(1, 6))
    def test_log_kernels(self, k):
        rng = random.Random(900 + k)
        all_inf_rows = vanished = 0
        for _ in range(60):
            m, b = seeded_log_table(rng, k), seeded_log_table(rng, k)
            if rng.random() < 0.1:
                m = [[NEG_INF] * k for _ in range(k)]
            all_inf_rows += sum(row == [NEG_INF] * k for row in m)
            for v in (seeded_log_table(rng, k)[0], [rng.uniform(-5.0, 5.0) for _ in range(k)],
                      [NEG_INF] * k):
                assert_same_bits(LOG.matvec(m, v), reference_matvec(LOG, m, v))
                assert_same_bits(log_sum(v), reference_log_sum(v))
                step = outcome(LOG.step, m, v)
                assert_same_bits(step, outcome(reference_step, LOG, m, v))
                vanished += isinstance(step, str)
            assert_same_bits(LOG.matmul(m, b), reference_matmul(LOG, m, b))
            for table in (m, LOG.matmul(m, b)):
                assert_same_bits(outcome(_factor_max, LOG, table),
                                 outcome(reference_factor_max, LOG, table))
        assert all_inf_rows > 0 and vanished > 0

    def test_vanished_counts_raise(self):
        m = [[NEG_INF, 0.0], [NEG_INF, -1.0]]
        for kernel, args in ((LOG.step, (m, [0.0, NEG_INF])), (_factor_max, (LOG, [[NEG_INF] * 2]))):
            with pytest.raises(ValueError, match="counts vanished"):
                kernel(*args)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_exact_kernels(self, k):
        rng = random.Random(950 + k)
        for _ in range(20):
            m, b = ([[rng.choice([0, rng.randint(1, 10**6)]) for _ in range(k)] for _ in range(k)]
                    for _ in range(2))
            v = [rng.randint(0, 10**9) for _ in range(k)]
            assert_same_bits(EXACT.matvec(m, v), reference_matvec(EXACT, m, v))
            assert_same_bits(EXACT.step(m, v), reference_step(EXACT, m, v))
            assert_same_bits(EXACT.matmul(m, b), reference_matmul(EXACT, m, b))
            assert_same_bits(_factor_max(EXACT, m), reference_factor_max(EXACT, m))

    def test_log_sum_over_wide_lists(self):
        rng = random.Random(19)
        for _ in range(200):
            values = [rng.choice([NEG_INF, rng.uniform(-800.0, 800.0)])
                      for _ in range(rng.randint(0, 40))]
            assert_same_bits(log_sum(values), reference_log_sum(values))
            assert_same_bits(log_sum(tuple(values)), reference_log_sum(tuple(values)))


class TestSpectralRadius:
    def test_golden_mean_via_characteristic_polynomial(self):
        pd = spectral_radius(LogNonnegMatrix.from_exact(G.rows))
        rho = math.exp(pd.rho_log)
        # Perron root satisfies x^2 - x - 1 = 0
        assert abs(rho * rho - rho - 1) < 1e-10
        assert pd.rho_log == pytest.approx(math.log(PHI), abs=1e-11)
        assert pd.converged

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_all_ones(self, k):
        pd = spectral_radius(LogNonnegMatrix.from_exact(BinaryMatrix.full(k).rows))
        assert pd.rho_log == pytest.approx(math.log(k), abs=1e-13)

    def test_scalar(self):
        pd = spectral_radius(LogNonnegMatrix.from_exact([[5]]))
        assert pd.rho_log == pytest.approx(math.log(5), abs=1e-13)

    def test_zero_matrix(self):
        with pytest.raises(ZeroSpectralRadiusError):
            spectral_radius(LogNonnegMatrix.from_exact([[0, 0], [0, 0]]))

    def test_nilpotent_support(self):
        with pytest.raises(ZeroSpectralRadiusError):
            spectral_radius(LogNonnegMatrix.from_exact([[0, 3], [0, 0]]))

    def test_periodic_support_exact_root(self):
        # irreducible but not primitive (period two): eigenvalues +-sqrt(6)
        pd = spectral_radius(LogNonnegMatrix.from_exact([[0, 2], [3, 0]]))
        assert pd.converged
        assert pd.iterations == 1
        assert pd.rho_log == pytest.approx(0.5 * math.log(6), abs=1e-14)

    def test_permuted_nilpotent_support(self):
        # strictly triangular only after the symbol order 2, 0, 3, 1
        order = [2, 0, 3, 1]
        rows = [[0] * 4 for _ in range(4)]
        for i, j in itertools.combinations(range(4), 2):
            rows[order[i]][order[j]] = 5
        assert any(rows[i][j] for i in range(4) for j in range(i))
        assert any(rows[i][j] for i in range(4) for j in range(i + 1, 4))
        with pytest.raises(ZeroSpectralRadiusError):
            spectral_radius(LogNonnegMatrix.from_exact(rows))

    def test_symmetric_swap_converges_from_ones(self):
        # all-ones start is the exact Perron vector here
        pd = spectral_radius(LogNonnegMatrix.from_exact([[0, 1], [1, 0]]))
        assert pd.rho_log == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "rows, rho",
        [
            ([[1, 1], [0, 1]], 1),  # a Jordan block: the bracket narrows only linearly
            ([[2, 1, 0], [0, 1, 1], [0, 0, 3]], 3),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
            ([[5, 0, 0], [1, 0, 1], [0, 1, 0]], 5),  # a dominant class above a period-2 one
            # the Perron vector vanishes on the second class, whose quotient
            # would pin the lower end at 1 in a solve of the whole matrix
            ([[2, 0], [0, 1]], 2),
            # the largest entry lies on no cycle and the row sums span 10^189:
            # in a solve of the whole matrix the self-loop's quotient
            # underflows to 0 and the upper end falls below rho
            ([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 10**18, 0], [10**189, 0, 1, 0]], 10**18),
        ],
    )
    def test_reducible_input(self, rows, rho):
        pd = spectral_radius(LogNonnegMatrix.from_exact(rows))
        assert abs(pd.rho_log - math.log(rho)) <= 1e-14
        assert pd.bracket[0] <= math.log(rho) <= pd.bracket[1]

    def test_start_vector_already_perron(self):
        # the row sums (2, 2) are the Perron vector, so the first bracket is
        # exact and no shifted solve runs
        pd = spectral_radius(LogNonnegMatrix.from_exact([[1, 1], [2, 0]]))
        assert pd.rho_log == pytest.approx(math.log(2), abs=1e-15)
        assert pd.converged

    def test_pivot_retry_raises_the_shift_past_rho(self):
        # sigma = 2 = rho of [[1, 1], [1, 1]]: the second pivot of
        # sigma I - M is exactly 0, so the solve must raise the shift
        slack = 4 * sys.float_info.epsilon
        y = _shifted_solve([[1.0, 1.0], [1.0, 1.0]], 2.0, slack, [1.0, 1.0])
        assert all(math.isfinite(v) and v > 0 for v in y)
        assert y[0] == y[1]

    @pytest.mark.parametrize(
        "rows, spread",
        [
            # -744 scales to a subnormal, outside the slack's bound on each entry
            ([[NEG_INF, 0.0], [-744.0, NEG_INF]], "744.0"),
            # -760 scales to 0.0, and the class's cycle with it
            ([[NEG_INF, 0.0, NEG_INF], [NEG_INF, NEG_INF, 0.0], [-760.0, NEG_INF, NEG_INF]], "760.0"),
        ],
    )
    def test_entries_below_the_normal_range_are_refused(self, rows, spread):
        with pytest.raises(SizeGuardError, match=f"span {spread} nats"):
            spectral_radius(LogNonnegMatrix(rows))

    def test_iterate_below_the_normal_range_is_refused(self):
        # every entry is normal once scaled, but (Mx)_1 = e^-700 x_2 underflows
        # to 0, so the largest quotient can fall below rho = e^(-1400 / 3)
        rows = [[NEG_INF, 0.0, NEG_INF], [NEG_INF, NEG_INF, -700.0], [-700.0, NEG_INF, NEG_INF]]
        with pytest.raises(SizeGuardError, match="iterate left the normal float range"):
            spectral_radius(LogNonnegMatrix(rows))

    def test_zero_scaled_entry_refused_without_hanging(self):
        # -800 scales to 0.0, which leaves a zero bracket; in a subprocess, so
        # that a solve whose shift never moves fails at the timeout
        code = (
            "from treeshift.matrices import LogNonnegMatrix, spectral_radius\n"
            "L = float('-inf')\n"
            "spectral_radius(LogNonnegMatrix([[L, 0.0], [-800.0, L]]))\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
        )
        assert proc.returncode == 1
        assert "SizeGuardError: Perron solve refused: a class's entries span 800.0 nats" in proc.stderr

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_dense_eigensolver(self, seed):
        # independent route: numpy's general eigensolver on the linear matrix
        rng = random.Random(400 + seed)
        dim = rng.randint(2, 5)
        while True:
            rows = [
                [rng.randint(0, 6) for _ in range(dim)] for _ in range(dim)
            ]
            m = LogNonnegMatrix.from_exact(rows)
            if is_primitive(m.support()):
                break
        reference = max(abs(w) for w in np.linalg.eigvals(np.array(rows, dtype=float)))
        got = spectral_radius(m)
        assert got.converged
        assert got.rho_log == pytest.approx(math.log(reference), abs=1e-11)

    @pytest.mark.parametrize("seed", range(8))
    def test_log_homogeneity(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(2, 4)
        rows = [[rng.randint(1, 9) for _ in range(dim)] for _ in range(dim)]
        m = LogNonnegMatrix.from_exact(rows)
        shift = rng.uniform(-3, 800)  # includes scales far beyond float range
        base = spectral_radius(m).rho_log
        shifted = LogNonnegMatrix([[x + shift for x in row] for row in m.logs])
        scaled = spectral_radius(shifted).rho_log
        assert scaled == pytest.approx(base + shift, abs=1e-10 * max(1, abs(base + shift)))

    @pytest.mark.parametrize(
        "rows, index",
        [
            ([[1, 1], [1, 0]], 1),
            ([[0, 2], [3, 0]], 2),
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3),
            ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], 2),  # bipartite
            ([[0, 1, 0], [1, 0, 1], [1, 0, 0]], 1),  # cycles of lengths 2 and 3
            ([[5, 0, 0], [1, 0, 1], [0, 1, 0]], 1),  # the period-2 class is below rho
            ([[0, 1, 0], [1, 0, 0], [0, 1, 2]], 1),  # so is this one
            # a 2-cycle and a 3-cycle with the same root: lcm 6
            (
                [
                    [0, 1, 0, 0, 0],
                    [1, 0, 0, 0, 0],
                    [1, 0, 0, 1, 0],
                    [0, 0, 0, 0, 1],
                    [0, 0, 1, 0, 0],
                ],
                6,
            ),
        ],
    )
    def test_cyclic_index(self, rows, index):
        assert spectral_radius(LogNonnegMatrix.from_exact(rows)).cyclic_index == index

    @pytest.mark.parametrize("seed", range(4))
    def test_cyclic_index_against_peripheral_eigenvalues(self, seed):
        # independent route: the least p with (lambda / rho)^p = 1 for every
        # eigenvalue lambda of modulus rho, from numpy's eigensolver
        rng = random.Random(700 + seed)
        checked = 0
        while checked < 50:
            dim = rng.randint(2, 6)
            rows = [[int(rng.random() < 0.3) * rng.randint(1, 2) for _ in range(dim)] for _ in range(dim)]
            m = LogNonnegMatrix.from_exact(rows)
            try:
                got = spectral_radius(m)
            except ZeroSpectralRadiusError:
                continue
            eig = np.linalg.eigvals(np.array(rows, dtype=float))
            rho = max(abs(eig))
            unit = [w / rho for w in eig if abs(abs(w) - rho) <= 1e-6 * rho]
            expected = next(p for p in range(1, 61) if all(abs(u**p - 1) <= 1e-5 for u in unit))
            assert got.cyclic_index == expected, rows
            checked += 1


class TestSpectralRadiusReference:
    # independent reference: mpmath's eigensolver at 50 digits on the linear
    # matrix the solver sees, exp of its float logs
    def reference(self, logs):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            finite = [x for row in logs for x in row if x > float("-inf")]
            scale = mp.mpf(max(finite))
            lin = mp.matrix(
                [[mp.exp(mp.mpf(x) - scale) if x > float("-inf") else 0 for x in row] for row in logs]
            )
            return scale + mp.log(max(abs(e) for e in mp.eig(lin, left=False, right=False)))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_mpmath(self, seed):
        rng = random.Random(1000 + seed)
        dim = rng.randint(2, 5)
        while True:
            rows = [[rng.randint(0, 6) for _ in range(dim)] for _ in range(dim)]
            m = LogNonnegMatrix.from_exact(rows)
            if is_primitive(m.support()):
                break
        # a shift of -log rho puts the bracket ends near 0, where the float
        # rounding of the quotients decides whether they hold ref
        log_rho = float(self.reference(m.logs))
        for shift in (0.0, -log_rho, rng.uniform(0, 800)):
            shifted = LogNonnegMatrix([[x + shift for x in row] for row in m.logs])
            ref = self.reference(shifted.logs)
            pd = spectral_radius(shifted)
            assert abs(pd.rho_log - ref) <= 1e-14 * max(1.0, abs(ref))
            assert pd.bracket[0] <= ref <= pd.bracket[1]
            assert pd.converged


class TestEssential:
    # essential(a) is (a on the kept symbols, the trimmed symbols ascending,
    # the primitivity of the kept part)
    def test_primitive_keeps_everything(self):
        essential.cache_clear()  # else the memo may return an equal matrix admitted earlier
        for a in (G, BinaryMatrix.full(3)):
            kept_part, trimmed, prim = essential(a)
            assert kept_part is a
            assert trimmed == ()
            assert prim == is_primitive(a)

    def test_sink_symbol_trimmed(self):
        a = BinaryMatrix.from_rows([[1, 1], [0, 0]])
        assert essential(a) == (BinaryMatrix.from_rows([[1]]), (1,), (True, 1))

    def test_cascade(self):
        # removing symbol 3 leaves symbol 2 without a successor
        a = BinaryMatrix.from_rows([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert essential(a) == (BinaryMatrix.from_rows([[1]]), (1, 2), (True, 1))

    def test_cycle_kept_tail_trimmed(self):
        a = BinaryMatrix.from_rows([[0, 1, 1], [1, 0, 0], [0, 0, 0]])
        assert essential(a) == (BinaryMatrix.from_rows([[0, 1], [1, 0]]), (2,), (False, None))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            essential(BinaryMatrix.from_rows([[0, 1], [0, 0]]))
