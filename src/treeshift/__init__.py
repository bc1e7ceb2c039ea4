"""Strip entropies of Markov hom tree-shifts on Markov-Cayley trees.

A library and CLI for computing topological entropies of Markov hom
tree-shifts and their strip-entropy approximations along eventually periodic
rays, via per-step transfer matrices and Perron data in log domain, with an
independent brute-force oracle and a convergence-rate experiment harness.

Names are imported from their modules (``from treeshift.transfer import
strip_counts``): the package imports none of them, so each command loads
only the modules it runs.
"""

__version__ = "0.1.0"
