"""AC power flow (Newton-Raphson, polar form) and classical-model internal EMFs.

The solved operating point supplies the voltage magnitudes and angle spreads
that weight the network Laplacian, and the generator internal voltages
E*exp(j*delta0) used by the nodal inertia formula.  A DC solve would not do:
it fixes every |V| at 1 and has no reactive picture at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .case_model import NetworkCase, bus_positions
from .errors import CaseError, ConvergenceError, SingularMatrixError

# Newton-Raphson defaults: mismatch tolerance (pu, infinity norm), iterations.
PF_TOL = 1e-8
PF_MAX_ITER = 20


@dataclass(frozen=True)
class PowerFlowSolution:
    """Solved operating point, arrays aligned with the case bus order."""

    vm: np.ndarray
    va: np.ndarray
    p_inj: np.ndarray
    q_inj: np.ndarray
    iterations: int
    max_mismatch: float


@dataclass(frozen=True)
class InternalEmfs:
    """Classical-model internal voltages, aligned with the generator order."""

    e_mag: np.ndarray
    delta0: np.ndarray


def build_ybus(case: NetworkCase) -> np.ndarray:
    """Dense complex bus admittance matrix over the case bus order.

    Off-diagonals are -1/(r+jx) per in-service branch; diagonals collect the
    series terms plus half the line charging at each end plus bus shunts.
    """
    n = case.n_bus
    pos = bus_positions(case)
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        if not br.status:
            continue
        i, j = pos[br.from_bus], pos[br.to_bus]
        ys = 1.0 / complex(br.r, br.x)
        y[i, i] += ys + 0.5j * br.b_ch
        y[j, j] += ys + 0.5j * br.b_ch
        y[i, j] -= ys
        y[j, i] -= ys
    for bus in case.buses:
        i = pos[bus.id]
        y[i, i] += complex(bus.g_shunt, bus.b_shunt)
    return y


def _ds_dv(ybus, v, ibus, vm):
    """dS/dtheta and dS/d|V| of the bus injections S = v conj(ybus v) at
    v = vm exp(j theta), given the bus currents ibus = ybus v.

    Element (r, c) of dS/dtheta is j v_r (conj(i_r) [r = c] - conj(Y_rc v_c)),
    and of dS/d|V| it is v_r conj(Y_rc v_c / vm_c) + conj(i_r) v_r / vm_r
    [r = c]: broadcast products and a diagonal, O(n^2).
    """
    vnorm = np.divide(v, vm, out=np.zeros_like(v), where=vm != 0)  # a zero v: a zero row
    diag = np.diag_indices_from(ybus)
    ds_dva = -np.conj(ybus * v)
    ds_dva[diag] += np.conj(ibus)
    ds_dva *= 1j * v[:, None]
    ds_dvm = v[:, None] * np.conj(ybus * vnorm)
    ds_dvm[diag] += np.conj(ibus) * vnorm
    return ds_dva, ds_dvm


def _scheduled(case: NetworkCase):
    pos = bus_positions(case)
    p = np.zeros(case.n_bus)
    q = np.zeros(case.n_bus)
    for bus in case.buses:
        i = pos[bus.id]
        p[i] -= bus.p_load
        q[i] -= bus.q_load
    for g in case.generators:
        p[pos[g.bus]] += g.p_gen
    return p, q


def solve_powerflow(
    case: NetworkCase,
    tol: float = PF_TOL,
    max_iter: int = PF_MAX_ITER,
    ybus: np.ndarray | None = None,
) -> PowerFlowSolution:
    """Newton-Raphson power flow from a flat start.

    Mismatch is driven below tol in the infinity norm: P at pv and pq buses,
    Q at pq buses.  Angles are referenced to the slack bus (va = 0 there).

    Raises ConvergenceError after max_iter, SingularMatrixError when the
    Jacobian cannot be factorized.
    """
    if ybus is None:
        ybus = build_ybus(case)
    n = case.n_bus
    kinds = [b.kind for b in case.buses]
    slack = [i for i, k in enumerate(kinds) if k == "slack"]
    if len(slack) != 1:
        raise CaseError(f"power flow requires exactly one slack bus, found {len(slack)}")
    pv = np.array([i for i, k in enumerate(kinds) if k == "pv"], dtype=int)
    pq = np.array([i for i, k in enumerate(kinds) if k == "pq"], dtype=int)
    pvpq = np.concatenate([pv, pq])

    vm = np.array([b.v_set if b.kind in ("slack", "pv") else 1.0 for b in case.buses])
    va = np.zeros(n)
    p_sched, q_sched = _scheduled(case)

    iterations = 0
    for iterations in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        ibus = ybus @ v
        s = v * np.conj(ibus)
        dp = p_sched[pvpq] - s.real[pvpq]
        dq = q_sched[pq] - s.imag[pq]
        mismatch = np.concatenate([dp, dq])
        max_mm = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
        if max_mm <= tol:
            return PowerFlowSolution(
                vm=vm,
                va=va,
                p_inj=s.real,
                q_inj=s.imag,
                iterations=iterations,
                max_mismatch=max_mm,
            )
        if iterations == max_iter:
            break

        ds_dva, ds_dvm = _ds_dv(ybus, v, ibus, vm)
        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"power-flow Jacobian singular at iteration {iterations}; "
                "operating point is ill-conditioned"
            ) from exc

        nva = len(pvpq)
        va[pvpq] += dx[:nva]
        vm[pq] += dx[nva:]

    raise ConvergenceError(
        f"power flow did not converge in {max_iter} iterations "
        f"(final max mismatch {max_mm:.3e} pu)",
        iterations=max_iter,
        mismatch=max_mm,
    )


def internal_emfs(case: NetworkCase, sol: PowerFlowSolution) -> InternalEmfs:
    """Internal EMF E*exp(j*delta0) = V + j*xd_p*I per generator.

    The generator current comes from its net injection at the terminal:
    generation = bus injection + local load (shunts already live inside the
    admittance matrix).  Where several machines share a bus, solved reactive
    power and the slack active residual are split in proportion to machine
    rating; scheduled active power stays with each machine.
    """
    pos = bus_positions(case)
    kinds = {b.id: b.kind for b in case.buses}
    load = {b.id: (b.p_load, b.q_load) for b in case.buses}

    by_bus: dict[int, list[int]] = {}
    for k, g in enumerate(case.generators):
        by_bus.setdefault(g.bus, []).append(k)

    e_mag = np.zeros(case.n_gen)
    delta0 = np.zeros(case.n_gen)
    for bus_id, members in by_bus.items():
        i = pos[bus_id]
        if sol.vm[i] <= 0.0:
            raise CaseError(f"zero terminal voltage at bus {bus_id}")
        v = sol.vm[i] * np.exp(1j * sol.va[i])
        p_total = sol.p_inj[i] + load[bus_id][0]
        q_total = sol.q_inj[i] + load[bus_id][1]
        ratings = np.array([case.generators[k].mva_base for k in members])
        shares = ratings / ratings.sum()
        scheduled = sum(case.generators[k].p_gen for k in members)
        p_residual = p_total - scheduled if kinds[bus_id] == "slack" else 0.0
        for k, share in zip(members, shares):
            gen = case.generators[k]
            s_unit = complex(gen.p_gen + share * p_residual, share * q_total)
            current = np.conj(s_unit / v)
            emf = v + 1j * gen.xd_p * current
            e_mag[k] = abs(emf)
            delta0[k] = np.angle(emf)
    return InternalEmfs(e_mag=e_mag, delta0=delta0)
