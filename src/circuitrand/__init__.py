"""Exact circuit bases and circuit-based randomisation of experimental designs.

The package computes, in exact integer/rational arithmetic, the circuit
basis of an integer matrix, rewrites design matrices in contrast form,
enumerates the valid randomisation systems whose blocks are circuit
supports, tests total unimodularity (the condition under which that
enumeration is complete) and analyses blocked responses with exact least
squares.  The ``circuitrand`` command line exposes the same functionality
on plain-text files.
"""

from .analysis_sim import (
    AbSummary,
    CovarianceOrdering,
    block_shift_invariance,
    covariance_comparison,
    lse_contrast_estimates,
    lse_estimates,
    naive_block_bias,
    simulate_ab,
)
from .circuits import (
    Circuit,
    CircuitBasis,
    NotInKernelError,
    binary_circuits,
    circuit_basis,
    conformal_decompose,
    nonnegative_circuits,
)
from .contrast import (
    ContrastModel,
    DesignModel,
    JNotInColumnSpaceError,
    RankDeficientError,
    to_contrast_form,
)
from .design_catalog import (
    LatinSquare,
    NotBalancedError,
    OutOfBudgetError,
    anova_two_way,
    choice_complementary_pairs,
    choice_k_of_2k,
    digraph_design,
    factorial_two_level,
    latin_square_blocks,
    mols_order3,
)
from .exact_linalg import (
    IntMatrix,
    NonSquareError,
    SingularError,
    rank,
    rational_solve,
)
from .randomisation import (
    DimensionMismatchError,
    NotARandomisationVectorError,
    RandomisationSystem,
    SchemeCatalog,
    enumerate_circuit_randomisations,
    is_decomposable,
    is_valid_randomisation,
    randomisation_vectors,
    refines,
)
from .unimodular import (
    DirectedGraph,
    TooLargeError,
    incidence_matrix,
    is_eulerian_balanced,
    is_totally_unimodular,
)

__version__ = "0.6.1"

__all__ = [
    "AbSummary",
    "Circuit",
    "CircuitBasis",
    "ContrastModel",
    "CovarianceOrdering",
    "DesignModel",
    "DimensionMismatchError",
    "DirectedGraph",
    "IntMatrix",
    "JNotInColumnSpaceError",
    "LatinSquare",
    "NonSquareError",
    "NotARandomisationVectorError",
    "NotBalancedError",
    "NotInKernelError",
    "OutOfBudgetError",
    "RandomisationSystem",
    "RankDeficientError",
    "SchemeCatalog",
    "SingularError",
    "TooLargeError",
    "anova_two_way",
    "binary_circuits",
    "block_shift_invariance",
    "choice_complementary_pairs",
    "choice_k_of_2k",
    "circuit_basis",
    "conformal_decompose",
    "covariance_comparison",
    "digraph_design",
    "enumerate_circuit_randomisations",
    "factorial_two_level",
    "incidence_matrix",
    "is_decomposable",
    "is_eulerian_balanced",
    "is_totally_unimodular",
    "is_valid_randomisation",
    "latin_square_blocks",
    "lse_contrast_estimates",
    "lse_estimates",
    "mols_order3",
    "naive_block_bias",
    "nonnegative_circuits",
    "rank",
    "randomisation_vectors",
    "rational_solve",
    "refines",
    "simulate_ab",
    "to_contrast_form",
]
