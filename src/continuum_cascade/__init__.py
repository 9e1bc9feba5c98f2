"""Height distribution of the continuum cascade model.

Grid recursion for P(H(x) <= n), traveling-wave front analysis (velocity
1/e, logarithmic correction (3/(2e)) ln n, discretization alpha-probe),
Monte Carlo simulation of the branching Poisson point process and of the
discrete cascade random graph, and the boundary-case derivative martingale.
"""

from .errors import (
    CascadeError,
    ConfigurationError,
    ContractViolationError,
    DomainError,
    FitError,
    FrontNotFoundError,
    NumericError,
    ScanError,
)
from .recursion import (
    FrontTrace,
    GridFunction,
    Quadrature,
    RecursionConfig,
    RecursionResult,
    bands,
    closed_form_p1,
    front_clearance_xmax,
    init_p0,
    iterate_step,
    run_recursion,
)
from .fronts import (
    AlphaScanResult,
    FrontFit,
    LOG_COEFFICIENT,
    ProbeSlabs,
    VELOCITY,
    alpha_scan,
    front_constancy_probe,
    front_position,
    log_correction_fit,
    probe_slabs,
    richardson_velocity,
    velocity_estimate,
    wave_shape_collapse,
)
from .simulate import (
    EmpiricalCdf,
    SimConfig,
    empirical_cdf,
    leftmost_trace,
    sample_height,
    sample_heights,
)
from .graphs import (
    CascadeGraphSample,
    compare_discrete_continuum,
    ks_critical_value,
    ks_two_sample,
    longest_path_bruteforce,
    longest_path_dp,
    sample_adjacency,
    sample_cascade_graph,
    sample_longest_paths,
)
from .martingale import (
    LimitLawProbe,
    MartingaleTrajectory,
    MomentReport,
    NormalizedOffspringLaw,
    equivalence_check,
    sample_normalized_offspring,
    simulate_Dn,
    verify_boundary_conditions,
)

__version__ = "0.1.0"

# the recursion has one kernel, the numpy one in kernels.py; run records name it
KERNEL_BACKEND = "python"
