"""Stationary measures of column-stochastic matrices via isospectral reduction.

The reduction of a stochastic matrix over a kept vertex set is again
stochastic, never increases the column-diameter semi-norm, and preserves the
spectrum outside the eliminated block; its stationary vector is the
projection of the original one and can be lifted back exactly.  This package
implements the reduction (block and node-by-node), the spectral measurements
around it, an exact rational-function oracle, three stationary solvers, the
heavy-tail instance generators and a benchmark harness.
"""

from .core import (
    IndexSet,
    NonNegativeMatrix,
    ProbabilityVector,
    StochasticMatrix,
    one_norm,
    project_columns,
    residual,
    submatrix,
    validate_stochastic,
)
from .reduction import (
    FirstS,
    PivotGreedy,
    RandomS,
    ReductionRecord,
    eliminate_node,
    reconstruct_stationary,
    reduce_at,
    reduce_block,
    reduce_sequential,
    select_subset,
)
from .solvers import (
    SolveOutcome,
    SolverConfig,
    direct_stationary,
    estimate_inner_radius,
    isospectral_stationary,
    perron_frobenius,
)
from .spectral import (
    ClassDecomposition,
    GershgorinDisk,
    SpectralReport,
    classify,
    contraction_check,
    diameter_tau,
    gershgorin,
    inner_spectral_radius,
    is_non_critical,
    min_entry,
    spectral_gap,
    spectral_report,
)

__version__ = "0.1.0"

__all__ = [
    "IndexSet",
    "NonNegativeMatrix",
    "ProbabilityVector",
    "StochasticMatrix",
    "one_norm",
    "project_columns",
    "residual",
    "submatrix",
    "validate_stochastic",
    "FirstS",
    "PivotGreedy",
    "RandomS",
    "ReductionRecord",
    "eliminate_node",
    "reconstruct_stationary",
    "reduce_at",
    "reduce_block",
    "reduce_sequential",
    "select_subset",
    "SolveOutcome",
    "SolverConfig",
    "direct_stationary",
    "estimate_inner_radius",
    "isospectral_stationary",
    "perron_frobenius",
    "ClassDecomposition",
    "GershgorinDisk",
    "SpectralReport",
    "classify",
    "contraction_check",
    "diameter_tau",
    "gershgorin",
    "inner_spectral_radius",
    "is_non_critical",
    "min_entry",
    "spectral_gap",
    "spectral_report",
]
