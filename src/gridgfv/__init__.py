"""Inertia-weighted spectral placement metrics for power networks.

Pipeline: parse a case file, solve the AC power flow, reduce the network
onto generator internal nodes, assemble the operating-point-weighted
Laplacian and per-bus nodal inertia, and solve the generalized eigenvalue
problem whose second mode scores every bus's frequency strength.  A Monte
Carlo driver validates the ranking under stochastic wind feed-in.
"""

import os
# One BLAS thread unless the caller chose: mc's workers are processes already.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .case_model import (
    Branch,
    Bus,
    Generator,
    NetworkCase,
    Violation,
    connected_components,
    load_case,
    load_validated_case,
    parse_case,
    serialize_case,
    validate_case,
)
from .dynamics import (
    OuParams,
    SwingModel,
    Trajectory,
    TurbineParams,
    build_swing_model,
    simulate,
    simulate_ou,
    wind_to_power,
)
from .errors import (
    CaseError,
    ConvergenceError,
    DisconnectedNetworkError,
    GridGfvError,
    NumericalError,
    SimulationUnstableError,
    SingularMatrixError,
    StabilityRegionError,
)
from .montecarlo import RunConfig, ifd, run_monte_carlo, summarize
from .pipeline import CaseAnalysis, analyze_case
from .powerflow import (
    InternalEmfs,
    PowerFlowSolution,
    build_ybus,
    internal_emfs,
    solve_powerflow,
)
from .reduction import augment_internal_nodes, frequency_participation, kron_reduce
from .spectral import (
    GeneralizedDecomposition,
    SecondMode,
    build_laplacian,
    eigendecompose,
    fiedler,
    gfv,
    nodal_inertia,
    solve_gep,
)

__version__ = "0.1.0"
