"""Height distribution of the continuum cascade model.

Grid recursion for P(H(x) <= n), traveling-wave front analysis (velocity
1/e, logarithmic correction (3/(2e)) ln n, discretization alpha-probe),
Monte Carlo simulation of the branching Poisson point process and of the
discrete cascade random graph, and the boundary-case derivative martingale.
"""

from . import kernels
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
    bands,
    closed_form_p1,
    front_clearance_xmax,
    front_traces,
    init_p0,
    iterate_step,
    snapshots,
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
    read_probe,
    scheme_velocity,
    velocity_estimate,
    wave_shape_collapse,
)
from .simulate import (
    EmpiricalCdf,
    SimConfig,
    empirical_cdf,
    leftmost_trace,
    sample_heights,
)
from .graphs import (
    compare_discrete_continuum,
    ks_critical_value,
    longest_path_bruteforce,
    longest_path_dp,
    sample_adjacency,
    sample_longest_paths,
)
from .martingale import (
    LimitLawProbe,
    MartingaleTrajectory,
    MomentReport,
    equivalence_check,
    simulate_Dn,
    verify_boundary_conditions,
)

__version__ = "0.1.0"

# which recursion step (compensated prefix sum, Q, linear run and the owned
# exp) the kernel runs, the same bits either way (kernels.py): "c" when the build
# compiled _compensated.c, else the numpy "python" one; run records name it
KERNEL_BACKEND = "python" if kernels._step is kernels._numpy_step else "c"
