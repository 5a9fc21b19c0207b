"""Chimera states on a ring of nonlocally coupled Stuart-Landau oscillators,
with Gaussian quantum-fluctuation signatures (squeezing, weighted
correlations, Renyi-2 mutual information)."""

from .core import (
    CovarianceMatrix,
    DivergenceError,
    InsufficientDataError,
    MeanFieldState,
    NetworkParams,
    PhysicalityError,
    RangeError,
    SingularMatrixError,
    coupling_matrix,
    neighbor_offsets,
)
from .meanfield import (
    CHIMERA,
    DESYNCHRONIZED,
    SYNCHRONIZED,
    InitialConditionSpec,
    MeanFieldTrajectory,
    RegimeLabel,
    classify,
    initial_conditions,
    integrate,
    integrate_many,
    local_order_parameter,
    mean_field_rhs,
    spacetime_grid,
)
from .fluctuations import (
    CovarianceTrajectory,
    physicality_margin,
    propagate_covariance,
    vacuum_covariance,
)
from .analysis import (
    AnalysisRecord,
    SqueezingEllipse,
    build_record,
    husimi_marginal,
    mi_scan,
    mutual_information,
    renyi2_entropy,
    squeezing,
    weighted_correlation,
)

__version__ = "0.1.0"
