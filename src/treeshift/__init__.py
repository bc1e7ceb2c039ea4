"""Strip entropies of Markov hom tree-shifts on Markov-Cayley trees.

A library and CLI for computing topological entropies of Markov hom
tree-shifts and their strip-entropy approximations along eventually periodic
rays, via per-step transfer matrices and Perron data in log domain, with an
independent brute-force oracle and a convergence-rate experiment harness.
"""

from .counting import (
    MODE_AUTO,
    MODE_EXACT,
    MODE_LOG,
    CountVector,
    block_counts,
    subtree_counts,
)
from .entropy import (
    EntropyReport,
    RateFit,
    TopologicalEntropy,
    fit_rate,
    strip_convergence,
    topological_entropy,
)
from .errors import SizeGuardError
from .matrices import (
    BinaryMatrix,
    LogNonnegMatrix,
    PerronData,
    PrimitivityResult,
    ZeroSpectralRadiusError,
    is_primitive,
    product,
    spectral_radius,
)
from .oracle import (
    Region,
    block_region,
    brute_block_counts,
    brute_strip_counts,
    count_labelings,
    path_strip_region,
)
from .ray import (
    Ray,
    StripProfile,
    lambda_strip,
    period_sites,
    region_sites,
    step_profile,
    strip_region,
    validate_ray,
)
from .transfer import (
    StripEntropyResult,
    TransferStep,
    initial_strip_counts,
    period_matrix,
    step_matrix,
    strip_counts,
    strip_entropy_closed,
    strip_entropy_iterative,
)
from .tree import (
    CompleteRecursiveWitness,
    MarkovTree,
    crt_preset,
    delta_size,
    is_complete_recursive,
    subtree_nodes,
    validate_tree,
)

__version__ = "0.1.0"
