import pytest

from treeshift.matrices import BinaryMatrix
from treeshift.tree import MarkovTree, crt_preset, validate_tree

G = BinaryMatrix.golden()
E2 = BinaryMatrix.full(2)
E3 = BinaryMatrix.full(3)


@pytest.fixture
def golden_tree() -> MarkovTree:
    return validate_tree(G)


@pytest.fixture
def two_tree() -> MarkovTree:
    return validate_tree(E2)


@pytest.fixture
def crt3_tree() -> MarkovTree:
    return crt_preset(3)


@pytest.fixture
def chain_tree() -> MarkovTree:
    return validate_tree(BinaryMatrix.from_rows([[1]]))
