"""The value classes: memo keys and validated values, and the result records.

``BinaryMatrix``, ``MarkovTree`` and ``Ray`` key the memo tables, so values
built apart must compare and hash equal; ``CountVector`` validates its
counts.  The result records are ``NamedTuple``s.
"""

import copy
import math
import pickle

import pytest

from treeshift.counting import MODE_EXACT, MODE_LOG, CountVector
from treeshift.entropy import BlockEntropyRow, RateFit, fit_rate, topological_entropy
from treeshift.matrices import EXACT, LOG, BinaryMatrix, Semiring, is_primitive
from treeshift.ray import Ray, StripProfile
from treeshift.transfer import StripEntropyResult
from treeshift.tree import MarkovTree, crt_preset, validate_tree


def golden_rows():
    return tuple(tuple(row) for row in [[1, 1], [1, 0]])  # a fresh tuple each call


# each key: a builder called twice for two distinct equal values, and the
# plain tuple of the value's fields
KEYS = {
    "BinaryMatrix": (lambda: BinaryMatrix(golden_rows()), (((1, 1), (1, 0)),)),
    "MarkovTree": (lambda: MarkovTree(BinaryMatrix(golden_rows())), (BinaryMatrix.golden(),)),
    "Ray": (lambda: Ray(tuple([1]), tuple([0, 1])), ((1,), (0, 1))),
    "CountVector": (lambda: CountVector(tuple([4, 1]), MODE_EXACT), ((4, 1), MODE_EXACT)),
}


@pytest.mark.parametrize("name", KEYS)
class TestValues:
    def test_equal_values_built_apart_are_equal_and_hash_equal(self, name):
        build, _ = KEYS[name]
        x, y = build(), build()
        assert x is not y
        assert x == y and not x != y
        assert hash(x) == hash(y)
        assert len({x, y}) == 1

    def test_no_value_equals_the_tuple_of_its_fields(self, name):
        build, fields = KEYS[name]
        x = build()
        assert x != fields and fields != x
        assert x != list(fields)

    def test_attributes_cannot_be_assigned_or_deleted(self, name):
        x = KEYS[name][0]()
        field = type(x).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert x == KEYS[name][0]()

    def test_copies_and_pickles_are_equal(self, name):
        x = KEYS[name][0]()
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)


class TestConstruction:
    def test_positional_and_keyword(self):
        rows = ((1, 1), (1, 0))
        assert BinaryMatrix(rows=rows) == BinaryMatrix(rows)
        assert MarkovTree(shape=BinaryMatrix(rows)) == MarkovTree(BinaryMatrix(rows))
        assert Ray(prefix=(), period=(0,)) == Ray((), (0,))
        assert CountVector(values=(4, 1), mode=MODE_EXACT) == CountVector((4, 1), MODE_EXACT)

    def test_values_differ_by_field_and_class(self):
        assert Ray((), (0,)) != Ray((0,), (0,))
        assert Ray((), (0, 1)) != Ray((), (1, 0))
        assert BinaryMatrix.golden() != BinaryMatrix.full(2)
        assert MarkovTree(BinaryMatrix.golden()) != BinaryMatrix.golden()
        assert CountVector((4, 1), MODE_EXACT) != CountVector((4.0, 1.0), MODE_LOG)

    def test_derived_fields_stay_out_of_equality_and_repr(self):
        m = BinaryMatrix(((1, 0), (1, 1)))
        assert m.supports == ((0,), (0, 1))
        assert repr(m) == "BinaryMatrix(rows=((1, 0), (1, 1)))"
        assert repr(Ray((1,), (0, 1))) == "Ray(prefix=(1,), period=(0, 1))"

    def test_trees_equal_across_builders(self):
        assert crt_preset(2) == validate_tree(BinaryMatrix.golden())

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError, match="period must be nonempty"):
            Ray((0,), ())

    def test_negative_letter_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Ray((), (0, -1))
        with pytest.raises(ValueError, match="nonnegative"):
            Ray((-1,), (0,))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            BinaryMatrix(())

    def test_bad_count_vector_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            CountVector((1,), "float")
        with pytest.raises(ValueError, match="nonnegative"):
            CountVector((1, -1), MODE_EXACT)
        with pytest.raises(ValueError, match="NaN"):
            CountVector((math.nan,), MODE_LOG)


class TestSemiring:
    def test_identity_equality_and_hash(self):
        twin = Semiring(EXACT.mode, EXACT.zero, EXACT.one, EXACT.sum, EXACT.mul)
        assert twin != EXACT and EXACT == EXACT
        assert len({EXACT, LOG, twin}) == 3

    def test_immutable(self):
        with pytest.raises(AttributeError):
            LOG.zero = 0.0


class TestRecords:
    def test_asdict_lists_fields_in_declaration_order(self):
        assert list(RateFit._fields) == ["slope", "intercept", "r_squared", "points", "status"]
        assert list(fit_rate([(1, 0.1), (2, 0.01), (3, 0.001)])._asdict()) == list(RateFit._fields)
        row = topological_entropy(validate_tree(BinaryMatrix.golden()), BinaryMatrix.golden(), 2).rows[1]
        assert list(row._asdict()) == ["n", "log_count", "block_size", "ratio", "estimate"]
        assert list(BlockEntropyRow._fields) == list(row._asdict())
        assert list(StripEntropyResult._fields) == ["width", "value", "method", "denominator", "diagnostics"]

    def test_records_are_tuples(self):
        profile = StripProfile(0, 1, (2,))
        assert profile == (0, 1, (2,))
        assert profile.off_branches == (2,)
        result = is_primitive(BinaryMatrix.golden())
        assert result == (True, 2) and result
        assert not is_primitive(BinaryMatrix(((1, 0), (0, 1))))
