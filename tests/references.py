"""Dense and direct formulas that the program's faster kernels are checked
against."""

import math

import numpy as np

from gridgfv import kron_reduce, reduction, simulate
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


def bus_port_reduction(l_red, n_bus, row):
    """The machines' Laplacian and the injection gains of the bus port at
    row (< n_bus) of a swing model's l_red: the four-block Kron reduction
    onto the internal nodes, and w = -L_GB L_BB^{-1} e_row with L_BB^{-1}
    e_row from np.linalg.solve."""
    g_rows = list(range(n_bus, len(l_red)))
    x = np.linalg.solve(l_red[:n_bus, :n_bus], np.eye(n_bus)[row])
    return four_block_kron(l_red, g_rows), -l_red[n_bus:, :n_bus] @ x


def impulse_responses(model, row, cfg):
    """simulate's trajectories at port row for two inputs of run_monte_carlo's
    linearized wind model: f, the wind path of the normal xi_0 = 1 alone,
    and g, a unit power impulse at step 1.

    The OU deviation x_{k+1} = rho x_k + sigma xi_k from x_0 = 0 and the
    turbine linearized at the mean wind speed mu, dp = kappa x with
    kappa = 3 P_rated mu^2 / v_rated^3, make every series of a trajectory
    linear in the normals: its response to xi_j is f shifted by j steps.
    g, shifted likewise, gives any series' response to a power input that is
    zero at step 0."""
    ou, turbine = cfg.ou, cfg.turbine
    rho = math.exp(-ou.alpha * cfg.dt)
    # expm1, as in simulate_ou: 1 - rho^2 cancels when alpha * dt is small.
    sigma = ou.b * math.sqrt(-math.expm1(-2.0 * ou.alpha * cfg.dt) / (2.0 * ou.alpha))
    kappa = 3.0 * turbine.rated_power * ou.mu**2 / turbine.v_rated**3
    wind, unit = np.zeros(cfg.n_steps + 1), np.zeros(cfg.n_steps + 1)
    wind[1:] = kappa * sigma * rho ** np.arange(cfg.n_steps)
    unit[1] = 1.0
    return simulate(model, row, wind, cfg.dt), simulate(model, row, unit, cfg.dt)


def linearization_error(g, cfg):
    """A bound on the RMS, at any sample, of the part of a series that the
    turbine's linearization leaves out, for a series of unit power impulse
    response g (impulse_responses).

    Without the clamp, dp = kappa (x + x^2/mu + x^3/(3 mu^2)), and x_k is
    normal with a variance below the stationary s^2 = b^2/(2 alpha), so the
    left-out input has an RMS of at most kappa (sqrt(3) s^2/mu +
    sqrt(15) s^3/(3 mu^2)) at every step; the series adds up at most
    ||g||_1 of it (Minkowski)."""
    ou = cfg.ou
    s = ou.b / math.sqrt(2.0 * ou.alpha)
    kappa = 3.0 * cfg.turbine.rated_power * ou.mu**2 / cfg.turbine.v_rated**3
    rms_in = kappa * (math.sqrt(3.0) * s**2 / ou.mu + math.sqrt(15.0) * s**3 / (3.0 * ou.mu**2))
    return np.abs(g).sum(axis=-1) * rms_in


def expected_ifd(response):
    """E[IFD] of the linearized model from its impulse response: bus p's
    sample k is normal with mean 0 and variance V_pk = sum_{i<=k} f_pi^2,
    and E|X| = sqrt(2/pi) sd(X)."""
    return math.sqrt(2.0 / math.pi) * np.sqrt(np.cumsum(response.bus_freq**2, axis=1)).sum()


def ifd_variance_bound(response):
    """An upper bound of one realization's Var[IFD] in the linearized model.

    For jointly normal X, Y of covariance c, Cov(|X|, |Y|) <= (1 - 2/pi)|c|
    (Cov(|X|, |Y|) = (2/pi) sd(X) sd(Y) (r asin r + sqrt(1 - r^2) - 1), which
    is convex in |r| and vanishes at 0).  The covariance of bus p's sample j
    and bus q's sample k is sum_i f_p(j-i) f_q(k-i) over the normals i, so
    the sum of every |c| is at most sum_i (sum_p S_p(n_t - 1 - i))^2, with
    S_p the cumulative sum of |f_p|.  It grows with the correlation time of
    the response: the OU's 1/alpha and the swing model's own."""
    tails = np.cumsum(np.abs(response.bus_freq), axis=1).sum(axis=0)
    return (1.0 - 2.0 / math.pi) * float(tails @ tails)


def series_moments(f):
    """For a series of impulse response f in the linearized model: the mean
    over its samples of E[y_k^2], and the variances of one realization's
    sample mean of y^2 and of its sample mean of y.

    Sample j + d and sample j >= 0 have covariance C = sum_{t<=j} f_t
    f_{t+d}.  With Q the sample mean of y^2, a quadratic form in the
    normals, Var[Q] = 2 ||C||_F^2 / n^2; the sample mean has variance
    sum(C) / n^2."""
    n = len(f)
    later = np.lib.stride_tricks.sliding_window_view(np.concatenate([f, np.zeros(n - 1)]), n)
    cov = np.cumsum(f * later, axis=1)  # cov[d, j] = C_{j, j+d}, once j + d < n
    cov[np.add.outer(np.arange(n), np.arange(n)) >= n] = 0.0
    twice = np.full(n, 2.0)  # each lag d > 0 stands for C_{j, j+d} and C_{j+d, j}
    twice[0] = 1.0
    return (cov[0].mean(), 2.0 * (twice @ (cov**2).sum(axis=1)) / n**2,
            (twice @ cov.sum(axis=1)) / n**2)


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
