"""End-to-end analysis pipeline: case -> power flow -> reduction -> spectra.

Thin composition layer so the CLI, the Monte Carlo driver and scripts share
one consistent set of intermediate objects per case.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .reduction import (
    AugmentedAdmittance,
    ParticipationMatrix,
    augment_internal_nodes,
    frequency_participation,
)
from .spectral import (
    FiedlerResult,
    GeneralizedDecomposition,
    GfvResult,
    LaplacianMatrix,
    NodalInertiaVector,
    build_laplacian,
    eigendecompose,
    fiedler,
    gfv,
    nodal_inertia,
    solve_gep,
)


@dataclass(frozen=True)
class CaseAnalysis:
    case: NetworkCase
    solution: PowerFlowSolution
    emfs: InternalEmfs
    aug: AugmentedAdmittance
    participation: ParticipationMatrix
    laplacian: LaplacianMatrix
    decomposition: GeneralizedDecomposition
    fiedler: FiedlerResult
    inertia: NodalInertiaVector
    gep: GeneralizedDecomposition
    gfv: GfvResult


def analyze_case(
    case: NetworkCase,
    tol: float = PF_TOL,
    max_iter: int = PF_MAX_ITER,
) -> CaseAnalysis:
    """Run the whole analysis chain on a validated case."""
    ybus = build_ybus(case)
    sol = solve_powerflow(case, tol=tol, max_iter=max_iter, ybus=ybus)
    emfs = internal_emfs(case, sol)
    aug = augment_internal_nodes(ybus, case)
    participation = frequency_participation(aug)
    lap = build_laplacian(case, sol)
    decomp = eigendecompose(lap)
    fied = fiedler(decomp)
    inertia = nodal_inertia(case, sol, emfs, participation, aug)
    gep = solve_gep(lap, inertia)
    metric = gfv(gep)
    return CaseAnalysis(
        case=case,
        solution=sol,
        emfs=emfs,
        aug=aug,
        participation=participation,
        laplacian=lap,
        decomposition=decomp,
        fiedler=fied,
        inertia=inertia,
        gep=gep,
        gfv=metric,
    )
