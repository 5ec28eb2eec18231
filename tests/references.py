"""Dense and direct formulas that the program's faster kernels are checked
against."""

import math

import numpy as np

from gridgfv import kron_reduce, reduction
from gridgfv.case_model import bus_positions


def dense_ds_dv(ybus, vm, va):
    """dS/dtheta and dS/d|V| from diagonal-matrix products (Zimmerman's
    dSbus_dV in polar form): O(n^3)."""
    v = vm * np.exp(1j * va)
    ibus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_vnorm = np.diag(v / vm)
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
    return ds_dva, ds_dvm


def powerflow_jacobian(case, ybus, sol):
    """The Newton-Raphson Jacobian of solve_powerflow at sol: P over the
    angles of the pv and pq buses and the magnitudes of the pq buses, then Q
    of the pq buses over the same unknowns."""
    ds_dva, ds_dvm = dense_ds_dv(ybus, sol.vm, sol.va)
    pvpq = [i for i, b in enumerate(case.buses) if b.kind != "slack"]
    pq = [i for i, b in enumerate(case.buses) if b.kind == "pq"]
    return np.block([[ds_dva[np.ix_(pvpq, pvpq)].real, ds_dvm[np.ix_(pvpq, pq)].real],
                     [ds_dva[np.ix_(pq, pvpq)].imag, ds_dvm[np.ix_(pq, pq)].imag]])


def per_branch_laplacian(case, sol):
    """The bus Laplacian branch by branch: each in-service branch adds
    w = |Vi||Vj| x/(r^2+x^2) cos(ti - tj) to its two diagonal entries and -w
    to its two off-diagonal ones."""
    pos = bus_positions(case)
    lap = np.zeros((case.n_bus, case.n_bus))
    for br in case.branches:
        if not br.status:
            continue
        i, j = pos[br.from_bus], pos[br.to_bus]
        b = br.x / (br.r * br.r + br.x * br.x)
        w = sol.vm[i] * sol.vm[j] * b * math.cos(sol.va[i] - sol.va[j])
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def four_block_kron(y, keep):
    """Schur complement onto the sorted distinct rows of keep, its four
    blocks gathered with np.ix_ and the eliminated block solved as
    kron_reduce solves it."""
    keep_idx = sorted(set(keep))
    elim_idx = [i for i in range(len(y)) if i not in keep_idx]
    y_kk = y[np.ix_(keep_idx, keep_idx)]
    y_ke = y[np.ix_(keep_idx, elim_idx)]
    y_ek = y[np.ix_(elim_idx, keep_idx)]
    y_ee = y[np.ix_(elim_idx, elim_idx)]
    return y_kk - y_ke @ reduction._solve(y_ee, y_ek, "singular")


def per_bus_inertia(analysis):
    """Nodal inertia bus by bus, one Kron reduction onto {bus j, every
    internal node} and one formula evaluation each."""
    case, sol, emfs = analysis.case, analysis.solution, analysis.emfs
    g_rows = list(range(case.n_bus, case.n_bus + case.n_gen))
    h_gen = np.array([g.h for g in case.generators])
    h = np.zeros(case.n_bus)
    for j in range(case.n_bus):
        b_col = kron_reduce(analysis.aug, [j] + g_rows)[1:, 0].imag
        terms = b_col * emfs.e_mag * np.cos(emfs.delta0 - sol.va[j])
        h[j] = float(np.sum(terms)) / float(
            np.sum(terms * analysis.participation[j, :] / h_gen))
    return h


def one_inverse_inertia(analysis):
    """Nodal inertia from one inverse Z = Y_bb^{-1} of the augmented
    admittance's bus block: the susceptance from bus j to internal node k
    after eliminating every other bus is Im[(Y_Gb Z)_kj / Z_jj], since
    Y_bb Z[:, j] = e_j."""
    case, sol, emfs = analysis.case, analysis.solution, analysis.emfs
    n, aug = case.n_bus, analysis.aug
    z = np.linalg.inv(aug[:n, :n])
    b = ((aug[n:, :n] @ z) / np.diag(z)).imag.T  # (n_bus, n_gen)
    terms = b * emfs.e_mag * np.cos(emfs.delta0 - sol.va[:, None])
    h_gen = np.array([g.h for g in case.generators])
    return terms.sum(axis=1) / (terms * analysis.participation / h_gen).sum(axis=1)
