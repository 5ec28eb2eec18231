"""End-to-end analysis pipeline: case -> power flow -> reduction -> spectra.

operating_point builds the one model of a case at its solved operating point:
one Ybus, the power flow solved with it, the machine EMFs, the same Ybus
augmented with the internal nodes, and the participation matrix.  The spectral
analysis (analyze_case) and the swing model (dynamics.build_swing_model) both
read that model and neither rebuilds any of it; each reads its Laplacian off aug.

Every array is in the case's row order: the buses in case order (labelled by
case_model.bus_ids), then machine k's internal node at row n_bus+k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case_model import NetworkCase
from .powerflow import (
    PF_MAX_ITER,
    PF_TOL,
    InternalEmfs,
    PowerFlowSolution,
    build_ybus,
    internal_emfs,
    solve_powerflow,
)
from .reduction import augment_internal_nodes, frequency_participation
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


@dataclass(frozen=True)
class OperatingPoint:
    case: NetworkCase
    solution: PowerFlowSolution
    emfs: InternalEmfs
    aug: np.ndarray  # complex, buses then internal nodes
    participation: np.ndarray  # (n_bus, n_gen)


@dataclass(frozen=True)
class CaseAnalysis(OperatingPoint):
    laplacian: np.ndarray  # (n_bus, n_bus)
    fiedler: SecondMode  # of L: value is lambda2
    inertia: np.ndarray  # per bus, seconds
    gep: GeneralizedDecomposition
    gfv: SecondMode  # of (L, diag(inertia)): value is lambda2_bar


def operating_point(
    case: NetworkCase,
    tol: float = PF_TOL,
    max_iter: int = PF_MAX_ITER,
) -> OperatingPoint:
    """Solve a validated case's power flow and build its network model."""
    ybus = build_ybus(case)
    sol = solve_powerflow(case, tol=tol, max_iter=max_iter, ybus=ybus)
    emfs = internal_emfs(case, sol)
    aug = augment_internal_nodes(ybus, case)
    return OperatingPoint(
        case=case,
        solution=sol,
        emfs=emfs,
        aug=aug,
        participation=frequency_participation(aug, case.n_bus),
    )


def analyze_case(
    case: NetworkCase,
    tol: float = PF_TOL,
    max_iter: int = PF_MAX_ITER,
) -> CaseAnalysis:
    """Run the whole analysis chain on a validated case."""
    op = operating_point(case, tol=tol, max_iter=max_iter)
    n, sol = case.n_bus, op.solution
    lap = build_laplacian(case, op.aug[:n, :n], sol.vm, sol.va)  # Ybus's couplings
    inertia = nodal_inertia(case, sol, op.emfs, op.participation, op.aug)
    gep = solve_gep(lap, inertia)
    return CaseAnalysis(**vars(op), laplacian=lap, fiedler=fiedler(eigendecompose(lap)),
                        inertia=inertia, gep=gep, gfv=gfv(gep))
