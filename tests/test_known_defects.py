"""The known defects of ROADMAP, each pinned as a strict xfail.

Each test asserts what the mended program must do and fails today on that
assertion alone (``raises=AssertionError``), so any other error still fails
the suite.  ``strict=True`` turns an unexpected pass into a failure: the
change that mends a defect drops its marker.
"""

import json

import pytest

from treeshift.cli import EXIT_OK, main
from treeshift.matrices import BinaryMatrix
from treeshift.ray import Ray
from treeshift.transfer import strip_entropy_closed, strip_entropy_iterative


def converge_json(capsys, *argv):
    assert main(["converge", *argv, "--format", "json"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP known defect 1")
def test_reference_error_is_not_fitted_as_a_strip_residual(capsys):
    # along f2^inf every strip entropy is ln(phi) exactly, so each residual
    # is the block reference's own error: today a slope of 0.0 with r^2 = 1.0
    report = converge_json(capsys, "--A", "G", "--M", "[[1,1],[0,1]]", "--ray", "f2^inf",
                           "--n", "2:12")
    assert report["fitted_rate"]["status"] != "ok"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP known defect 2")
@pytest.mark.filterwarnings("ignore:adjacency matrix is not primitive")
def test_oscillation_width_covers_polynomial_growth(chain_tree):
    # rho(D) = 1 and the closed form is 0.0; the iterative value is 3 / m_max,
    # but its oscillation width is about 1 / m_max^2 (9.0e-6 against 3.0e-3)
    a = BinaryMatrix.from_rows([[1, 0, 0, 1], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]])
    ray = Ray((), (0, 0, 0))
    closed = strip_entropy_closed(chain_tree, a, ray, 3).value
    iterative = strip_entropy_iterative(chain_tree, a, ray, 3, 1000)
    assert iterative.diagnostics["oscillation_width"] >= abs(iterative.value - closed)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP known defect 4")
def test_cyclic_shape_is_not_reported_converged(capsys):
    # the bipartite shape f1 -> {f2, f3} -> f1 has no block limit, and the
    # strip entropies alternate between two values: today r^2 = 0.21
    report = converge_json(capsys, "--A", "G", "--M", "[[0,1,1],[1,0,0],[1,0,0]]",
                           "--ray", "(f1 f2)^inf", "--n", "2:12")
    assert report["fitted_rate"]["status"] != "ok"
