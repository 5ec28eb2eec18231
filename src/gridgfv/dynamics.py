"""Linearized frequency dynamics under deterministic and stochastic injections.

The dynamic states live at the generator internal nodes only: load buses are
algebraic and their frequencies are reconstructed through the participation
matrix (f_bus = D @ f_gen), so the state dimension stays at 2 * n_gen.  The
disturbance bus is retained through the reduction as a pure injection port.

Wind speed follows a mean-reverting Ornstein-Uhlenbeck process sampled with
the exact discretization (unconditionally stable, exact stationary moments at
any step), and maps to power through a clamped cubic turbine law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .case_model import bus_ids
from .errors import GridGfvError, NumericalError, SimulationUnstableError
from .pipeline import OperatingPoint
from .reduction import kron_reduce
from .spectral import build_laplacian

OMEGA_SYNC = 2.0 * math.pi * 60.0  # rad/s at 60 Hz nominal
# Damping (pu) of machines whose case entry gives none.
DEFAULT_DAMPING = 1.0
# Steps per block of the time-blocked recurrence in _advance.
_BLOCK = 64
# Rows of _kernel's lag table that _input_map gathers, by input c (rows) and
# step i (columns) of a block, m = _BLOCK: the s0-only row m + 2 + i for
# c = 0, lag i - c for 0 < c <= i, and the zero row m + 1 for c > i.
_LAGS = np.fromfunction(
    lambda c, i: np.where(c == 0, _BLOCK + 2 + i, np.where(c <= i, i - c, _BLOCK + 1)),
    (_BLOCK + 1, _BLOCK + 1), dtype=int)


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
    operating-point-weighted Laplacian over all network buses (rows in
    bus_ids order, every bus stays available as an injection port) and then
    the internal nodes, machine k's at row len(bus_ids)+k; simulate() does
    the final algebraic elimination per injection node.  participation is
    the (n_bus, n_gen) matrix D of f_bus = D @ f_gen.

    The model keeps the RK4 propagator of each port and step size that
    simulate() has built, and reuses it for every later call at that port and
    step size; outputs are the same as from a fresh model.  The store lives
    and dies with the model (dataclasses.replace starts an empty one).
    """

    m: np.ndarray
    damp: np.ndarray
    l_red: np.ndarray
    participation: np.ndarray
    bus_ids: tuple[int, ...]
    # simulate's propagators, keyed by the bytes of the port's reduced
    # Laplacian and gain vector and by dt.
    _propagators: dict = field(default_factory=dict, init=False, compare=False,
                               repr=False)


@dataclass(frozen=True)
class Trajectory:
    """One realization: shared time grid, per-machine and per-bus frequency
    deviation series (pu), COI frequency, and the applied injection."""

    t: np.ndarray
    gen_freq: np.ndarray  # (n_gen, n_t)
    bus_freq: np.ndarray  # (n_bus, n_t)
    coi_freq: np.ndarray  # (n_t,)
    injection: np.ndarray  # (n_t,)


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
    rho = math.exp(-params.alpha * dt)
    sigma = params.b * math.sqrt((1.0 - rho * rho) / (2.0 * params.alpha))
    xi = np.random.default_rng(seed).standard_normal(n_steps)
    # x_{k+1} = rho x_k + sigma xi_k from x_0 = 0; the appended input sample
    # would only drive x_{n_steps + 1}.
    deviations = _apply(*_ou_kernel(np.array([rho, sigma]).tobytes()), np.append(xi, 0.0))
    return params.mu + deviations[0]


@lru_cache(maxsize=1)
def _ou_kernel(rho_sigma: bytes):
    """_apply's operands for x_{k+1} = rho x_k + sigma xi_k, rho and sigma
    the two float64s of rho_sigma.  One entry: a run draws every path with
    the same rho and sigma."""
    rho, sigma = np.frombuffer(rho_sigma)
    fill, table, power = _kernel(np.array([[rho]]), np.array([sigma]), np.zeros(1),
                                 slice(None))
    return _read_only(fill, _input_map(table, slice(None)), power)


def _read_only(*arrays) -> tuple:
    """arrays, made read-only: a stored propagator serves every later call."""
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
    op: OperatingPoint, default_damping: float = DEFAULT_DAMPING
) -> SwingModel:
    """Assemble the second-order model M dw/dt = dP - D w - L_red theta,
    d theta/dt = OMEGA_SYNC * w over generator internal nodes.

    L_red is the weighted Laplacian (spectral.build_laplacian) of the
    augmented admittance at the bus voltages and the machine EMFs: the bus
    Laplacian plus one edge per machine, internal node to terminal.
    Machines missing a damping value in the case file get default_damping.
    """
    case, sol, emfs = op.case, op.solution, op.emfs
    return SwingModel(
        m=np.array([2.0 * g.h for g in case.generators]),
        damp=np.array(
            [g.d if g.d is not None else default_damping for g in case.generators]
        ),
        l_red=build_laplacian(case, op.aug, np.concatenate([sol.vm, emfs.e_mag]),
                              np.concatenate([sol.va, emfs.delta0])),
        participation=op.participation,
        bus_ids=bus_ids(case),
    )


def _resolve_node(model: SwingModel, injection_bus) -> int:
    """The row of l_red of an injection port: a bus id, ("bus", id), or
    ("gen", k) for machine k's internal node.  Ids and k are integers; a
    float or a bool is no port."""
    port = injection_bus if isinstance(injection_bus, tuple) else ("bus", injection_bus)
    kind, index = port if len(port) == 2 else (None, None)
    if isinstance(index, (int, np.integer)) and not isinstance(index, bool):
        if kind == "bus" and index in model.bus_ids:
            return model.bus_ids.index(index)
        if kind == "gen" and 0 <= index < len(model.m):
            return len(model.bus_ids) + int(index)
    raise GridGfvError(f"unknown injection node {injection_bus!r}")


def _injection_reduction(model: SwingModel, row: int):
    """Laplacian over internal nodes and the injection gain vector for the
    port at row of l_red.

    A bus port is eliminated algebraically: with zero inertia there, its
    angle tracks 0 = dP - L_bG theta_G - L_bb theta_b, which folds the
    injection onto the machines with weights -L_Gb / L_bb (summing to 1).
    An internal-node port injects directly on that machine.
    """
    n = len(model.bus_ids)
    g_rows = list(range(n, len(model.l_red)))
    if row >= n:
        l_red = kron_reduce(model.l_red, g_rows)
        w = np.zeros(len(g_rows))
        w[row - n] = 1.0
        return l_red, w
    # kron_reduce keeps row order, and bus rows precede the internal nodes:
    # the bus port lands in row 0.
    kept = kron_reduce(model.l_red, g_rows + [row])
    l_gb = kept[1:, 0]
    l_bb = kept[0, 0]
    l_red = kept[1:, 1:] - np.outer(l_gb, l_gb) / l_bb
    w = -l_gb / l_bb
    return l_red, w


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
    the rows `rows` of R^0 ... R^(m-1) stacked by rows, the lag table that
    _apply gathers the block's input map from, and R^m."""
    n, m = len(s0), _BLOCK
    # By doubling (m is a power of two), the columns R^i s0 and R^i s1
    # interleaved.
    fill = np.eye(n)[rows]
    k = len(fill)
    vecs = np.stack([s0, s1], axis=1)
    power = r
    while len(fill) < m * k:
        fill = np.concatenate([fill, fill @ power])
        vecs = np.concatenate([vecs, power @ vecs], axis=1)
        power = power @ power
    # G[i, c] = R^{i-1-c} s0 [c < i] + R^{i-c} s1 [0 < c <= i] depends on the
    # lag i - c alone but in column 0, which lacks the s1 term: _LAGS gathers
    # it from the lag sequence, a zero row and the s0 terms.
    from_s0 = np.concatenate([np.zeros((1, n)), vecs[:, 0::2].T])
    by_lag = from_s0 + np.concatenate([vecs[:, 1::2].T, (power @ s1)[None]])
    return fill, np.concatenate([by_lag, np.zeros((1, n)), from_s0]), power


def _input_map(table: np.ndarray, rows: slice) -> np.ndarray:
    """The (m + 1, m * k + n) map from a block's input window to its forced
    requested rows, step by step, and to its forced end state."""
    m = _BLOCK
    return np.concatenate([table[:, rows].take(_LAGS[:, :m], axis=0).reshape(m + 1, -1),
                           table.take(_LAGS[:, m], axis=0)], axis=1)


def _apply(fill: np.ndarray, g: np.ndarray, power: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The requested rows of x_0 ... x_{N-1}, as columns, from x_0 = 0 for an
    input series u of N samples, given _kernel's fill and R^m and the
    _input_map g."""
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


def _advance(r: np.ndarray, s0: np.ndarray, s1: np.ndarray, u: np.ndarray,
             rows: slice) -> np.ndarray:
    """The rows `rows` of the states x_0 ... x_{N-1}, as columns, of
    x_{k+1} = R x_k + s0 u_k + s1 u_{k+1} from x_0 = 0, for an input series u
    of N samples.

    Blocked in time: with m = _BLOCK and k0 a multiple of m,
    x_{k0+i} = R^i x_{k0} + sum_c G[i, c] u_{k0+c} for i = 0 ... m.  One
    matmul gives the forced part of the requested rows inside every block and
    of every state at each block's end, a doubling prefix scan carries the
    block-start states, and one more matmul fills in the requested rows.  The
    result is that of stepping the recurrence up to summation order.  It is
    _kernel's build followed by _apply.
    """
    fill, table, power = _kernel(r, s0, s1, rows)
    return _apply(fill, _input_map(table, rows), power, u)


def simulate(model: SwingModel, injection_bus, dp: np.ndarray, dt: float) -> Trajectory:
    """Integrate the swing model for one injection series.

    injection_bus is a network bus id, or a ("gen", k) node key to drive a
    machine directly.  dp samples live on the time grid t_k = k*dt; the
    series length fixes the horizon.  Fixed-step 4th-order (RK4) integration,
    advanced in blocks of time steps (_advance); zero input from zero state
    stays identically zero.

    The port's propagator (R and its block kernel) is built on the model's
    first call at this port and dt and reused by later calls, which then
    only reduce the network to the port and apply it; the result is the
    same, byte for byte, as from a fresh model.
    """
    dp = np.asarray(dp, dtype=float)
    if dp.ndim != 1 or len(dp) < 1:
        raise ValueError("dp must be a non-empty 1-d series")
    if not np.all(np.isfinite(dp)):
        raise ValueError("dp must be finite")
    l_red, w = _injection_reduction(model, _resolve_node(model, injection_bus))
    ng = len(model.m)
    rows = slice(ng, None)
    # A, R and the kernel depend on the port only through l_red and w, so
    # equal bytes give equal operators; dt's type enters the RK4 arithmetic.
    key = (l_red.tobytes(), w.tobytes(), type(dt), np.float64(dt).tobytes())
    n_t = len(dp)
    with np.errstate(over="ignore", invalid="ignore"):
        if key not in model._propagators:
            a = np.zeros((2 * ng, 2 * ng))
            a[:ng, ng:] = OMEGA_SYNC * np.eye(ng)
            a[ng:, :ng] = -l_red / model.m[:, None]
            a[ng:, ng:] = np.diag(-model.damp / model.m)
            g = np.zeros(2 * ng)
            g[ng:] = w / model.m
            r, s0, s1 = _rk4_step_operators(a, g, dt)
            model._propagators[key] = _read_only(r, *_kernel(r, s0, s1, rows))
        r, fill, table, power = model._propagators[key]
        omega = _apply(fill, _input_map(table, rows), power, dp)

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
    bus_freq = model.participation @ omega
    return Trajectory(
        t=np.arange(n_t) * dt,
        gen_freq=omega,
        bus_freq=bus_freq,
        coi_freq=coi,
        injection=dp.copy(),
    )
