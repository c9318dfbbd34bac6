"""wkorient: (w,k)-orientations of random hypergraphs.

Decide and construct orientations where every size-h hyperedge marks w
distinct vertices and no vertex is marked more than k times; peel to the
(w,k+1)-core; predict core size, density, and the sharp orientability
threshold from the core fixed point; and integrate the peeling process's
differential equations.
"""

from .hypergraph import (
    Hypergraph,
    Orientation,
    OrientationParams,
    check_property_T,
    read_hypergraph,
    verify_orientation,
    w_density,
    w_induced_subgraph,
    write_hypergraph,
)
from .models import (
    EdgeCountVector,
    RetryBudgetError,
    RngSeed,
    sample_core_model,
    sample_nonuniform_multi,
    sample_truncated_degree_sequence,
    sample_uniform_multi,
    sample_uniform_simple,
)
from .peeling import (
    CoreStatistics,
    ExtensionConflictError,
    PeelResult,
    ProcessTrace,
    core_statistics,
    extend_orientation,
    rancore,
)
from .flow import (
    CutWitness,
    FlowNetwork,
    build_network,
    max_flow,
    min_max_indegree,
    orient,
)
from .poisson import (
    TruncatedPoisson,
    heavy_bucket_fraction,
    initial_conditions,
    poisson_tail,
    poisson_tail_complement,
    solve_lambda,
    truncated_mean_from_rate,
)
from .ode import (
    BracketError,
    CoreStats,
    DomainError,
    FixedPointError,
    OdeParams,
    OdeState,
    StiffnessError,
    ThresholdResult,
    Trajectory,
    core_fixed_point,
    derivatives,
    find_threshold,
    integrate,
    trajectory_vs_trace,
)

__version__ = "0.1.0"
