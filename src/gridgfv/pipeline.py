"""End-to-end analysis pipeline: case -> power flow -> reduction -> spectra.

analyze_case builds the one model of a case at its solved operating point:
one Ybus, the power flow solved with it, and the same Ybus augmented with the
internal nodes.  Every later stage of the chain (the machine EMFs, the
participation matrix, the Laplacian and its Fiedler mode, the nodal inertia,
the generalized eigenproblem and its GFV mode) is a property of the
CaseAnalysis that runs on its first read and runs once, so a command pays for,
and fails on, only the stages it reads.  The swing model
(dynamics.build_swing_model) reads the same object and rebuilds none of it.

Every array is in the case's row order: the buses in case order (labelled by
case_model.bus_ids), then machine k's internal node at row n_bus+k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
class CaseAnalysis:
    case: NetworkCase
    solution: PowerFlowSolution
    aug: np.ndarray  # complex, buses then internal nodes
    workers: int = 1  # processes that share the nodal inertia's reductions

    @cached_property
    def emfs(self) -> InternalEmfs:
        return internal_emfs(self.case, self.solution)

    @cached_property
    def participation(self) -> np.ndarray:  # (n_bus, n_gen)
        return frequency_participation(self.aug, self.case.n_bus)

    @cached_property
    def laplacian(self) -> np.ndarray:  # (n_bus, n_bus), off Ybus's couplings
        n, sol = self.case.n_bus, self.solution
        return build_laplacian(self.case, self.aug[:n, :n], sol.vm, sol.va)

    @cached_property
    def fiedler(self) -> SecondMode:  # of L: value is lambda2
        return fiedler(eigendecompose(self.laplacian))

    @cached_property
    def inertia(self) -> np.ndarray:  # per bus, seconds
        return nodal_inertia(self.case, self.solution, self.emfs, self.participation,
                             self.aug, self.workers)

    @cached_property
    def gep(self) -> GeneralizedDecomposition:
        return solve_gep(self.laplacian, self.inertia)

    @cached_property
    def gfv(self) -> SecondMode:  # of (L, diag(inertia)): value is lambda2_bar
        return gfv(self.gep)


def analyze_case(
    case: NetworkCase,
    tol: float = PF_TOL,
    max_iter: int = PF_MAX_ITER,
    workers: int = 1,
) -> CaseAnalysis:
    """Solve a validated case's power flow and build its network model; the
    rest of the chain runs as its stages are read."""
    ybus = build_ybus(case)
    sol = solve_powerflow(case, tol=tol, max_iter=max_iter, ybus=ybus)
    return CaseAnalysis(case, sol, augment_internal_nodes(ybus, case), workers)
