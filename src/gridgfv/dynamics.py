"""Linearized frequency dynamics under deterministic and stochastic injections.

The dynamic states live at the generator internal nodes only: load buses are
algebraic and their frequencies are reconstructed through the participation
matrix (f_bus = D @ f_gen), so the state dimension stays at 2 * n_gen.  The
disturbance's port, a bus or an internal node, is kept as a pure injection.

Wind speed follows a mean-reverting Ornstein-Uhlenbeck process sampled with
the exact discretization (unconditionally stable, exact stationary moments at
any step), and maps to power through a clamped cubic turbine law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridGfvError, NumericalError, SimulationUnstableError
from .pipeline import CaseAnalysis
from .reduction import kron_reduce
from .spectral import build_laplacian

OMEGA_SYNC = 2.0 * math.pi * 60.0  # rad/s at 60 Hz nominal
# Damping (pu) of machines whose case entry gives none.
DEFAULT_DAMPING = 1.0
# Steps per block of the time-blocked recurrence of _kernel and _apply.
_BLOCK = 64


@dataclass(frozen=True)
class OuParams:
    """Mean-reverting wind-speed process parameters.

    Defaults give a wind-speed variance of b^2/(2*alpha) ~ 0.049 (m/s)^2
    around a 14 m/s mean.
    """

    mu: float = 14.0
    alpha: float = 0.1
    b: float = 0.099

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.b < 0:
            raise ValueError(f"b must be non-negative, got {self.b}")


@dataclass(frozen=True)
class TurbineParams:
    """Cubic-law wind turbine: P(v) = rated * clamp((v/v_rated)^3, 0, 1)."""

    rated_power: float = 1.0  # pu on the system base
    v_rated: float = 15.0  # m/s
    v_ref: float = 14.0  # m/s; deviations are taken about P(v_ref)

    def __post_init__(self):
        if not self.v_rated > 0:
            raise ValueError(f"v_rated must be positive, got {self.v_rated}")


@dataclass(frozen=True)
class SwingModel:
    """Linearized multi-machine model at one operating point.

    m holds 2H per machine, damp the damping coefficients.  l_red is the
    operating-point-weighted Laplacian over all network buses, in case order,
    and then the internal nodes, machine k's at row n_bus + k; each row is an
    injection port.  simulate() eliminates every bus in one Kron reduction of
    l_red bordered with the port's unit column (_injection_reduction), so
    every port, bus or machine, gets the same machines' Laplacian, bit for
    bit, and its own gain vector.  participation is the (n_bus, n_gen)
    matrix D of f_bus = D @ f_gen.

    The model keeps the RK4 propagator of the last port and step size that
    simulate() has built, its block input map included, and reuses it for
    every later call at that port and step size; a call at another port or
    step size replaces it.  Outputs are the same as from a fresh model.  The
    store lives and dies with the model (dataclasses.replace starts an empty
    one).
    """

    m: np.ndarray
    damp: np.ndarray
    l_red: np.ndarray
    participation: np.ndarray
    # simulate's propagator (R, _kernel's fill, input map and R^m), at most
    # one, keyed by the bytes of the port's reduced Laplacian and gain vector
    # and by dt.
    _propagators: dict = field(default_factory=dict, init=False, compare=False,
                               repr=False)


@dataclass(frozen=True)
class Trajectory:
    """One realization: shared time grid, per-machine and per-bus frequency
    deviation series (pu) and COI frequency.  The applied injection is the
    caller's dp, which simulate does not copy."""

    t: np.ndarray
    gen_freq: np.ndarray  # (n_gen, n_t)
    bus_freq: np.ndarray  # (n_bus, n_t)
    coi_freq: np.ndarray  # (n_t,)


def simulate_ou(params: OuParams, dt: float, n_steps: int, seed) -> np.ndarray:
    """Exact-discretization OU path of n_steps + 1 samples, dt apart,
    starting at mu.

    eta_{k+1} = mu + (eta_k - mu) e^{-a dt} + b sqrt((1 - e^{-2 a dt})/(2a)) xi_k
    with xi_k standard normal from the stream numpy.random.default_rng(seed).
    Deterministic given its arguments.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_steps > np.iinfo(np.intp).max:  # numpy would raise a ValueError
        raise MemoryError(f"Unable to allocate an OU path of {n_steps} steps")
    dt = _checked_dt(dt)
    rho = math.exp(-params.alpha * dt)
    # expm1, not 1 - rho^2, which cancels to 0 when alpha * dt is small.
    sigma = params.b * math.sqrt(-math.expm1(-2.0 * params.alpha * dt) / (2.0 * params.alpha))
    xi = np.random.default_rng(seed).standard_normal(n_steps)
    # x_{k+1} = rho x_k + sigma xi_k from x_0 = 0; the appended input sample
    # would only drive x_{n_steps + 1}.
    deviations = _apply(*_ou_kernel(rho, sigma), np.append(xi, 0.0))
    return params.mu + deviations[0]


@lru_cache(maxsize=1)
def _ou_kernel(rho: float, sigma: float):
    """_apply's operands for x_{k+1} = rho x_k + sigma xi_k.  One entry: a
    run draws every path with the same rho and sigma."""
    return _read_only(*_kernel(np.array([[rho]]), np.array([sigma]), np.zeros(1),
                               slice(None)))


def _checked_dt(dt) -> float:
    """dt as a float, which must be positive and finite."""
    dt = float(dt)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return dt


def _read_only(*arrays) -> tuple:
    """arrays, made read-only: a stored propagator serves later calls."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def wind_to_power(v: np.ndarray, turbine: TurbineParams) -> np.ndarray:
    """Power deviation series for a wind-speed series, about P(v_ref)."""
    v = np.asarray(v, dtype=float)
    p = turbine.rated_power * np.clip((v / turbine.v_rated) ** 3, 0.0, 1.0)
    ref = min(max(turbine.v_ref / turbine.v_rated, 0.0), 1.0)
    return p - turbine.rated_power * ref**3


def build_swing_model(
    analysis: CaseAnalysis, default_damping: float = DEFAULT_DAMPING
) -> SwingModel:
    """Assemble the second-order model M dw/dt = dP - D w - L_red theta,
    d theta/dt = OMEGA_SYNC * w over generator internal nodes.

    L_red is the weighted Laplacian (spectral.build_laplacian) of analysis's
    augmented admittance at the bus voltages and the machine EMFs: the bus
    Laplacian plus one edge per machine, internal node to terminal.  No
    spectral stage of analysis runs.  Machines missing a damping value in
    the case file get default_damping.
    """
    case, sol, emfs = analysis.case, analysis.solution, analysis.emfs
    return SwingModel(
        m=np.array([2.0 * g.h for g in case.generators]),
        damp=np.array(
            [g.d if g.d is not None else default_damping for g in case.generators]
        ),
        l_red=build_laplacian(case, analysis.aug, np.concatenate([sol.vm, emfs.e_mag]),
                              np.concatenate([sol.va, emfs.delta0])),
        participation=analysis.participation,
    )


def _injection_reduction(model: SwingModel, row: int):
    """Laplacian over internal nodes and the injection gain vector for the
    port at row of l_red.

    l_red is bordered with the unit column of the port's row, and one Kron
    reduction eliminates every bus.  The kept block is the machines'
    Laplacian L_GG - L_GB L_BB^-1 L_BG, the same for every port; the border
    column is the gain vector w = e_G - L_GB L_BB^-1 e_B.  A bus port has
    e_G = 0: with zero inertia there, its angle tracks the machines, which
    folds the injection onto them with weights summing to 1.  A machine port
    has e_B = 0, so w is its unit vector.
    """
    n = len(model.l_red)
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = model.l_red
    bordered[row, n] = 1.0
    kept = kron_reduce(bordered, np.arange(len(model.participation), n + 1))
    return kept[:-1, :-1], kept[:-1, -1]


def _rk4_step_operators(a: np.ndarray, g: np.ndarray, dt: float):
    """Classical RK4 update for the LTI system dx/dt = A x + g u(t), with the
    input linearly interpolated between samples, folded into constant
    matrices: x_{k+1} = R x_k + s0 u_k + s1 u_{k+1}."""
    n = a.shape[0]
    eye = np.eye(n)
    a2 = a @ a
    a3 = a2 @ a
    a4 = a3 @ a
    r = eye + dt * a + (dt**2 / 2) * a2 + (dt**3 / 6) * a3 + (dt**4 / 24) * a4
    ag = a @ g
    a2g = a2 @ g
    a3g = a3 @ g
    b_start = (dt / 6) * (g + dt * ag + (dt**2 / 2) * a2g + (dt**3 / 4) * a3g)
    b_mid = (dt / 6) * (4 * g + 2 * dt * ag + (dt**2 / 2) * a2g)
    b_end = (dt / 6) * g
    return r, b_start + 0.5 * b_mid, b_end + 0.5 * b_mid


def _kernel(r: np.ndarray, s0: np.ndarray, s1: np.ndarray, rows: slice):
    """The block kernel of x_{k+1} = R x_k + s0 u_k + s1 u_{k+1}, m = _BLOCK:
    the rows `rows` of R^0 ... R^(m-1) stacked by rows, the (m + 1, m * k + n)
    input map from a block's input window to its forced requested rows, step
    by step, and to its forced end state, and R^m.  All three come from
    stepping the recurrence m times on x = [R^0 | 0]: after step i, x is
    [R^i | G_i], column c of G_i the state x_i that a unit input u_c drives."""
    n, m = len(s0), _BLOCK
    x = np.concatenate([np.eye(n), np.zeros((n, m + 1))], axis=1)
    k = len(x[rows])
    fill = np.empty((m * k, n))
    input_map = np.empty((m + 1, m * k + n))
    for i in range(m):
        fill[i * k : (i + 1) * k] = x[rows, :n]
        input_map[:, i * k : (i + 1) * k] = x[rows, n:].T
        x = r @ x
        x[:, n + i] += s0
        x[:, n + i + 1] += s1
    input_map[:, m * k :] = x[:, n:].T
    return fill, input_map, x[:, :n].copy()


def _apply(fill: np.ndarray, g: np.ndarray, power: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The requested rows of x_0 ... x_{N-1}, as columns, from x_0 = 0 for an
    input series u of N samples, given _kernel's fill, input map g and R^m.

    Blocked in time: with m = _BLOCK and k0 a multiple of m,
    x_{k0+i} = R^i x_{k0} + sum_c G[i, c] u_{k0+c} for i = 0 ... m.  One
    matmul gives the forced part of the requested rows inside every block and
    of every state at each block's end, a doubling prefix scan carries the
    block-start states, and one more matmul fills in the requested rows.  The
    result is that of stepping the recurrence up to summation order.
    """
    n, m = len(power), _BLOCK
    k = len(fill) // m
    n_blocks = -(-len(u) // m)
    # Input windows u_{k0} ... u_{k0+m}; the zeros past the end drive only
    # states past x_{N-1}.
    padded = np.zeros((n_blocks + 1) * m)
    padded[: len(u)] = u
    blocks = padded.reshape(n_blocks + 1, m)
    forced = np.concatenate([blocks[:-1], blocks[1:, :1]], axis=1) @ g
    # Block starts s_0 = 0, s_{b+1} = R^m s_b + (forced end of block b).
    # After the pass at distance d, starts[b] holds the ends of the up to 2d
    # blocks before b, each carried to b.  starts[0] = 0 is never read, so an
    # overflowing power cannot turn it into NaN.
    starts = np.zeros((n_blocks, n))
    starts[1:] = forced[:-1, m * k :]
    d = 1
    while d < n_blocks - 1:
        starts[d + 1 :] += starts[1 : n_blocks - d] @ power.T
        d *= 2
        if d < n_blocks - 1:
            power = power @ power
    states = starts @ fill.T + forced[:, : m * k]
    return states.reshape(-1, k)[: len(u)].T


def simulate(model: SwingModel, port: int, dp: np.ndarray, dt: float,
             out: np.ndarray | None = None) -> Trajectory:
    """Integrate the swing model for one injection series.

    port is the row of model.l_red that dp enters: bus i of the case at row i,
    machine k's internal node at n_bus + k.  dp samples live on the grid
    t_k = k*dt, the series length fixes the horizon, and dt must be positive
    and finite.  Fixed-step 4th-order (RK4) integration, advanced in blocks of
    time steps (_kernel, _apply); zero input from zero state stays identically zero.

    The port's propagator (R and its block kernel, input map included) is
    built on the model's first call at this port and dt, replacing the one of
    the port and dt before, and reused by the calls that follow at the same
    port and dt, which then only reduce the network to the port and apply it;
    the result is the same, byte for byte, as from a fresh model.

    Without out, every returned array is new.  With out, an (n_bus, len(dp))
    float array that the caller owns, bus_freq is written into it and
    returned as out itself, so a later call with the same out overwrites it.
    """
    dp = np.asarray(dp, dtype=float)
    if dp.ndim != 1 or len(dp) < 1:
        raise ValueError("dp must be a non-empty 1-d series")
    if not np.all(np.isfinite(dp)):
        raise ValueError("dp must be finite")
    dt = _checked_dt(dt)
    if (not isinstance(port, (int, np.integer)) or isinstance(port, bool)
            or not 0 <= port < len(model.l_red)):
        raise GridGfvError(f"unknown injection port {port!r}")
    l_red, w = _injection_reduction(model, port)
    ng = len(model.m)
    rows = slice(ng, None)
    # A, R and the kernel depend on the port only through l_red and w, so
    # equal bytes give equal operators.
    key = (l_red.tobytes(), w.tobytes(), dt)
    n_t = len(dp)
    with np.errstate(over="ignore", invalid="ignore"):
        if key not in model._propagators:
            # One entry, as _ou_kernel: callers finish a port before the next.
            model._propagators.clear()
            a = np.zeros((2 * ng, 2 * ng))
            a[:ng, ng:] = OMEGA_SYNC * np.eye(ng)
            a[ng:, :ng] = -l_red / model.m[:, None]
            a[ng:, ng:] = np.diag(-model.damp / model.m)
            g = np.zeros(2 * ng)
            g[ng:] = w / model.m
            r, s0, s1 = _rk4_step_operators(a, g, dt)
            model._propagators[key] = _read_only(r, *_kernel(r, s0, s1, rows))
        r, fill, input_map, power = model._propagators[key]
        omega = _apply(fill, input_map, power, dp)

    if not np.all(np.isfinite(omega)):
        # The rigid-body mode puts an eigenvalue of R at 1, computed to within
        # about 1e-12; 1e-8 above 1 grows the states by 1% in 1e6 steps.  An
        # R that overflowed itself comes from a step far outside the region.
        if np.all(np.isfinite(r)) and np.max(np.abs(np.linalg.eigvals(r))) <= 1.0 + 1e-8:
            raise NumericalError(
                "non-finite state; the input drives the states past the float "
                "range (the linear model is stable at this step size)"
            )
        bad = np.nonzero(~np.isfinite(omega).all(axis=0))[0][0]
        raise SimulationUnstableError(
            f"non-finite state at t = {bad * dt:.4f} s; the linear model is "
            "unstable at this step size",
            first_time=bad * dt,
        )

    h_weights = 0.5 * model.m
    coi = (h_weights @ omega) / h_weights.sum()
    return Trajectory(
        t=np.arange(n_t) * dt,
        gen_freq=omega,
        bus_freq=np.matmul(model.participation, omega, out=out),
        coi_freq=coi,
    )
