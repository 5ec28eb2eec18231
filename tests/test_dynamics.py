"""OU wind paths, turbine mapping, swing model, simulation, closed form."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gridgfv import (
    GridGfvError,
    NumericalError,
    OuParams,
    StabilityRegionError,
    TurbineParams,
    analyze_case,
    build_swing_model,
    parse_case,
    simulate,
    simulate_ou,
    solve_powerflow,
    wind_to_power,
)
from gridgfv import pipeline
from gridgfv.case_model import bus_positions
from gridgfv.cli import main
from gridgfv.dynamics import (
    OMEGA_SYNC,
    _BLOCK,
    _apply,
    _injection_reduction,
    _exact_step,
    _kernel,
)
from gridgfv.reduction import kron_reduce

from closed_form import closed_form_response
from conftest import FIXTURE_NAMES, SYNTH120, fixture_path, get_analysis, get_case
from references import bus_port_reduction, exact_stepping, step_rounding_bound

# The row of case9's bus 5 in l_red: its injection port.
CASE9_BUS5 = bus_positions(get_case("case9"))[5]

def test_ou_zero_diffusion_is_constant():
    path = simulate_ou(OuParams(b=0.0), 0.01, 500, 9)
    assert path.shape == (501,)
    assert np.all(path == 14.0)


def test_ou_noise_survives_a_mean_reversion_below_rounding():
    # At alpha * dt = 1e-17, rho rounds to 1 and 1 - rho^2 to 0; the path is
    # then a random walk whose increments are sigma xi_k, sigma^2 -> b^2 dt.
    p, dt, n = OuParams(alpha=1e-15, b=0.1), 0.01, 2000
    path = simulate_ou(p, dt, n, 1)
    assert np.ptp(path) > 0.0
    # The ratio is chi^2 with n - 1 degrees of freedom over n - 1: mean 1 and
    # standard deviation sqrt(2 / (n - 1)); 5 of them hold for any seed with
    # probability above 1 - 1e-6.
    ratio = np.diff(path).var(ddof=1) / (p.b**2 * dt)
    assert abs(ratio - 1.0) <= 5.0 * math.sqrt(2.0 / (n - 1))


def test_ou_deterministic_for_fixed_seed():
    p = OuParams()
    assert np.array_equal(simulate_ou(p, 0.01, 2000, 1234),
                          simulate_ou(p, 0.01, 2000, 1234))


def test_ou_stationary_moments():
    # Stationary mean mu and variance b^2 / (2 alpha).
    p = OuParams(mu=14.0, alpha=0.1, b=0.099)
    path = simulate_ou(p, 0.01, 10**6, 7)
    assert abs(path.mean() - 14.0) < 0.05
    target_var = 0.099**2 / (2 * 0.1)
    assert abs(path.var() - target_var) < 0.1 * target_var


def test_ou_matches_a_first_order_filter_of_its_normals():
    # The OU deviations are the filter y_k = rho y_{k-1} + sigma xi_k.
    from scipy.signal import lfilter

    p, dt, n = OuParams(), 0.01, 10_000
    rho = math.exp(-p.alpha * dt)
    sigma = p.b * math.sqrt((1.0 - rho * rho) / (2.0 * p.alpha))
    xi = np.random.default_rng(5).standard_normal(n)
    reference = lfilter([sigma], [1.0, -rho], xi)
    path = simulate_ou(p, dt, n, 5)
    assert path[0] == p.mu
    assert np.max(np.abs((path[1:] - p.mu) - reference)) <= 1e-12 * np.abs(reference).max()


def test_ou_single_step():
    p, dt = OuParams(), 0.01
    rho = math.exp(-p.alpha * dt)
    sigma = p.b * math.sqrt((1.0 - rho * rho) / (2.0 * p.alpha))
    xi = np.random.default_rng(4).standard_normal(1)
    path = simulate_ou(p, dt, 1, 4)
    assert path.shape == (2,)
    assert path[0] == p.mu
    assert path[1] == pytest.approx(p.mu + sigma * xi[0], rel=1e-15)


def test_ou_rejects_bad_params():
    with pytest.raises(ValueError):
        OuParams(alpha=0.0)
    with pytest.raises(ValueError):
        simulate_ou(OuParams(), 0.01, 0, 0)


def test_wind_power_zero_at_reference():
    v = np.full(100, 14.0)
    assert np.all(wind_to_power(v, TurbineParams(1.0, 15.0, 14.0)) == 0.0)


def test_wind_power_cubic_arithmetic():
    # Reference chosen so P(v_ref) = rated/2; at rated speed dp = +rated/2.
    v_ref = 15.0 * 0.5 ** (1 / 3)
    dp = wind_to_power(np.array([15.0]), TurbineParams(2.0, 15.0, v_ref))
    assert dp[0] == pytest.approx(1.0, rel=1e-12)


def test_wind_power_clamps_above_rated():
    dp = wind_to_power(np.array([40.0]), TurbineParams(2.0, 15.0, 15.0))
    assert dp[0] == 0.0  # both at the rated plateau


def test_wind_power_reference_far_above_rated_is_the_plateau():
    # (v_ref / v_rated) ** 3 is beyond the float range here.
    dp = wind_to_power(np.array([40.0]), TurbineParams(2.0, 15.0, 1e200))
    assert dp[0] == 0.0


def test_wind_power_delta_method_std():
    p = OuParams(mu=14.0, alpha=0.1, b=0.099)
    path = simulate_ou(p, 0.01, 2 * 10**5, 3)
    dp = wind_to_power(path, TurbineParams(1.5, 15.0, 14.0))
    sigma_v = math.sqrt(0.099**2 / (2 * 0.1))
    predicted = 3 * 1.5 * (14.0**2 / 15.0**3) * sigma_v
    assert abs(dp.std() - predicted) <= 0.25 * predicted


def _internal_rows(model):
    # Machine k's internal node is row n_bus + k of l_red.
    return list(range(len(model.participation), len(model.l_red)))


def _model_from(doc, default_damping=1.0):
    case = parse_case(json.dumps(doc))
    return case, build_swing_model(analyze_case(case), default_damping)


SINGLE = {
    "base_mva": 100.0,
    "buses": [{"id": 1, "kind": "slack", "v_set": 1.0}],
    "branches": [],
    "generators": [{"bus": 1, "h": 4.0, "d": 2.0, "xd_p": 0.25}],
}

PAIR = {
    "base_mva": 100.0,
    "buses": [
        {"id": 1, "kind": "slack", "v_set": 1.0},
        {"id": 2, "kind": "pv", "v_set": 1.0},
    ],
    "branches": [{"from_bus": 1, "to_bus": 2, "x": 0.4}],
    "generators": [
        {"bus": 1, "h": 3.0, "d": 1.0, "xd_p": 0.2},
        {"bus": 2, "h": 3.0, "d": 1.0, "xd_p": 0.2},
    ],
}


def test_single_machine_step_settles_at_dp_over_d():
    # With the network eliminated the model is first order:
    # w(t) = dP/D (1 - exp(-D t / M)).
    case, model = _model_from(SINGLE)
    dt = 0.01
    dp = np.full(3001, 0.08)
    traj = simulate(model, bus_positions(case)[1], dp, dt)
    m, d = model.m[0], model.damp[0]
    expected = 0.08 / d * (1.0 - np.exp(-d * traj.t / m))
    assert np.max(np.abs(traj.gen_freq[0] - expected)) <= 1e-6
    assert traj.gen_freq[0, -1] == pytest.approx(0.08 / d, rel=1e-3)


def test_two_identical_machines_coi_aggregates():
    case, model = _model_from(PAIR)
    dt = 0.01
    dp = np.full(2001, 0.05)
    traj = simulate(model, bus_positions(case)[1], dp, dt)
    m_tot = model.m.sum()
    d_tot = model.damp.sum()
    expected = 0.05 / d_tot * (1.0 - np.exp(-d_tot * traj.t / m_tot))
    assert np.max(np.abs(traj.coi_freq - expected)) <= 1e-8


def test_nine_bus_swing_coupling_is_psd():
    case = get_case("case9")
    model = build_swing_model(analyze_case(case))
    lred = kron_reduce(model.l_red, _internal_rows(model))
    assert np.max(np.abs(lred.sum(axis=1))) <= 1e-9
    vals = np.linalg.eigvalsh(lred)
    assert vals.min() >= -1e-9 * vals.max()
    assert np.all(model.m > 0)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_swing_laplacian_is_the_admittance_weighted_laplacian(name):
    # Reference: every coupled pair of buses and internal nodes weighted by
    # |U_i||U_j| Im(Y_aug)_ij cos(a_i - a_j), with U, a the bus voltage and
    # angle or the machine EMF and rotor angle.
    analysis = get_analysis(name)
    sol, emfs, aug = analysis.solution, analysis.emfs, analysis.aug
    mag = np.concatenate([sol.vm, emfs.e_mag])
    ang = np.concatenate([sol.va, emfs.delta0])
    b_off = aug.imag.copy()
    np.fill_diagonal(b_off, 0.0)
    w = np.outer(mag, mag) * b_off * np.cos(ang[:, None] - ang[None, :])
    reference = np.diag(w.sum(axis=1)) - w
    model = build_swing_model(analysis)
    assert model.l_red.shape == aug.shape
    assert np.max(np.abs(model.l_red - reference)) <= 1e-12 * np.abs(reference).max()


def test_swing_model_rejects_ninety_degree_branch(monkeypatch):
    case = get_case("case2")
    sol = solve_powerflow(case)
    sol = replace(sol, va=np.array([0.0, -math.pi / 2]))
    monkeypatch.setattr(pipeline, "solve_powerflow", lambda *args, **kwargs: sol)
    with pytest.raises(StabilityRegionError):
        build_swing_model(analyze_case(case))
    with pytest.raises(StabilityRegionError):
        analyze_case(case).laplacian


@pytest.mark.parametrize("name", ["case2", "case7_study", "case9", "case9_lossless"])
def test_swing_model_takes_angle_spreads_modulo_a_turn(monkeypatch, name):
    # Turning every bus angle by 3 rad turns the EMFs with them, and the
    # wrapped EMF angle of some machine then trails its unwrapped terminal
    # angle by nearly a full turn; the couplings are the same.
    case = get_case(name)
    want = build_swing_model(analyze_case(case)).l_red
    real = pipeline.solve_powerflow

    def turned(*args, **kwargs):
        sol = real(*args, **kwargs)
        return replace(sol, va=sol.va + 3.0)

    monkeypatch.setattr(pipeline, "solve_powerflow", turned)
    analysis = analyze_case(case)
    term = [bus_positions(case)[g.bus] for g in case.generators]
    assert np.any(np.abs(analysis.emfs.delta0 - analysis.solution.va[term]) > math.pi)
    got = build_swing_model(analysis).l_red
    # Each angle moves by a few ulps of 2 pi and cos is 1-Lipschitz; the
    # EMF magnitudes and the diagonal sums add a few ulps more.
    bound = 16 * np.finfo(float).eps * 2 * math.pi * np.abs(want).max()
    assert np.max(np.abs(got - want)) <= bound


def _lead_machine(monkeypatch, k, degrees):
    """analyze_case then gives machine k an EMF angle that leads its
    terminal's voltage angle by degrees."""
    real = pipeline.internal_emfs

    def leading(case, sol):
        emfs = real(case, sol)
        delta0 = emfs.delta0.copy()
        term = bus_positions(case)[case.generators[k].bus]
        delta0[k] = sol.va[term] + math.radians(degrees)
        return replace(emfs, delta0=delta0)

    monkeypatch.setattr(pipeline, "internal_emfs", leading)


def test_swing_model_rejects_ninety_degree_machine_edge(monkeypatch):
    # Machine 1 of case9 sits at bus 2; its edge would take a negative weight.
    _lead_machine(monkeypatch, 1, 95.0)
    analysis = analyze_case(get_case("case9"))
    message = (r"^angle spread -95\.0 deg between bus 2 and generator\[1\] at "
               r"bus 2 reaches 90 deg at the operating point$")
    with pytest.raises(StabilityRegionError, match=message):
        build_swing_model(analysis)


def test_simulate_command_reports_a_ninety_degree_machine_edge(monkeypatch, capsys):
    _lead_machine(monkeypatch, 1, 95.0)
    assert main(["simulate", str(fixture_path("case9")), "--bus", "5", "--t", "1"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("numerical failure: angle spread ")
    assert "generator[1] at bus 2" in err


def test_simulate_zero_input_stays_zero():
    case, model = _model_from(PAIR)
    traj = simulate(model, bus_positions(case)[2], np.zeros(500), 0.01)
    assert np.all(traj.gen_freq == 0.0)
    assert np.all(traj.bus_freq == 0.0)
    assert np.all(traj.coi_freq == 0.0)


def test_simulate_deterministic():
    case, model = _model_from(PAIR)
    rng = np.random.default_rng(0)
    dp = 0.01 * rng.standard_normal(400)
    a = simulate(model, bus_positions(case)[1], dp, 0.01)
    b = simulate(model, bus_positions(case)[1], dp, 0.01)
    assert np.array_equal(a.gen_freq, b.gen_freq)
    assert np.array_equal(a.bus_freq, b.bus_freq)


def test_simulate_matches_closed_form_two_nodes():
    # Step at one machine of the reduced two-node system.  A constant input
    # is linear between samples, so the exact step and the spectral closed
    # form differ by rounding alone: within step_rounding_bound of the
    # largest frequency.
    case, model = _model_from(PAIR)
    lred = kron_reduce(model.l_red, _internal_rows(model))
    w_s = OMEGA_SYNC
    dp = np.full(1001, 0.05)
    for dt in (0.01, 0.1):
        traj = simulate(model, case.n_bus, dp, dt)
        expected = (
            closed_form_response(lred, model.m[0] / w_s, model.damp[0] / w_s, 0, 0.05, traj.t)
            / w_s
        )
        bound = step_rounding_bound(*_swing_operators(model, case.n_bus), dt, len(dp))
        assert np.max(np.abs(traj.gen_freq - expected)) <= bound * np.abs(expected).max(), dt


def test_simulate_matches_independent_integrator():
    # Cross-check the fixed-step scheme against scipy's adaptive RK45 on the
    # heterogeneous nine-bus model with a wandering injection.
    from scipy.integrate import solve_ivp

    case = get_case("case9")
    model = build_swing_model(analyze_case(case))
    dt = 0.01
    dp = wind_to_power(simulate_ou(OuParams(), 0.01, 500, 8),
                       TurbineParams(1.0, 15.0, 14.0))
    port = bus_positions(case)[8]
    traj = simulate(model, port, dp, dt)

    l_red, w = _injection_reduction(model, port)
    ng = 3
    t_grid = traj.t

    def rhs(t, x):
        theta, omega = x[:ng], x[ng:]
        u = np.interp(t, t_grid, dp)
        return np.concatenate(
            [
                OMEGA_SYNC * omega,
                (w * u - model.damp * omega - l_red @ theta) / model.m,
            ]
        )

    ref = solve_ivp(
        rhs, (0.0, t_grid[-1]), np.zeros(2 * ng), t_eval=t_grid,
        rtol=1e-10, atol=1e-12, max_step=dt,
    )
    assert np.max(np.abs(traj.gen_freq - ref.y[ng:])) <= 1e-7


def test_simulate_coi_is_inertia_weighted_mean():
    case = get_case("case9")
    model = build_swing_model(analyze_case(case))
    dp = wind_to_power(simulate_ou(OuParams(), 0.01, 300, 21),
                       TurbineParams(1.0, 15.0, 14.0))
    traj = simulate(model, bus_positions(case)[5], dp, 0.01)
    h = np.array([g.h for g in case.generators])
    expected = (h @ traj.gen_freq) / h.sum()
    assert np.max(np.abs(traj.coi_freq - expected)) <= 1e-12
    assert traj.bus_freq.shape == (9, 301)
    assert np.allclose(traj.bus_freq, model.participation @ traj.gen_freq)


def test_momentum_balance_zero_damping():
    # Undamped machines accumulate exactly the integrated impulse; the COI
    # stays put afterwards.  The step takes the sampled series as
    # piecewise-linear, so "integrated" means its trapezoid.
    doc = json.loads(json.dumps(PAIR))
    for gen in doc["generators"]:
        gen["d"] = 0.0
    case, model = _model_from(doc)
    dt = 0.01
    k_imp = 50
    dp = np.zeros(1000)
    dp[:k_imp] = 0.2
    traj = simulate(model, case.n_bus, dp, dt)
    expected = np.trapezoid(dp, dx=dt) / model.m.sum()
    tail = traj.coi_freq[k_imp + 1 :]
    assert np.max(np.abs(tail - expected)) <= 1e-12
    assert traj.coi_freq[-1] == pytest.approx(0.2 * dt * (k_imp - 0.5) / model.m.sum())


def _port_bound(l_red, n_bus):
    """How far two evaluations of the same port reduction of l_red, in
    different operation orders, may differ: in the machines' Laplacian
    (largest entry), in the gain vector (1-norm) and in its sum.

    Each evaluation solves L_BB X = [L_BG, I] by LU with partial pivoting.
    L_BB is a Laplacian block with diagonally dominant columns, so no row
    is swapped and the growth factor is at most 2: the backward error is
    within 2 gamma_3n |L_BB| (Higham, Thm 9.4), n = n_bus, and each column
    x of X has a forward error of at most 6 n eps kappa_1(L_BB) ||x||_1.
    The product with L_GB and the subtraction from L_GG add n eps
    |L_GB| |X| + eps |L_GG|.  Two evaluations each carry this error, which
    16 n eps kappa_1(L_BB) (||L_GB||_1 ||X||_1 + ||L_GG||_1) covers, and it
    also bounds a computed gain vector's distance from its exact sum 1.
    """
    l_bb, l_gb = l_red[:n_bus, :n_bus], l_red[n_bus:, :n_bus]
    x = np.linalg.solve(l_bb, np.concatenate([l_red[:n_bus, n_bus:], np.eye(n_bus)], axis=1))
    scale = (np.linalg.norm(l_gb, 1) * np.linalg.norm(x, 1)
             + np.linalg.norm(l_red[n_bus:, n_bus:], 1))
    return 16 * n_bus * np.finfo(float).eps * np.linalg.cond(l_bb, 1) * scale


@pytest.mark.parametrize("name", FIXTURE_NAMES + [SYNTH120])
def test_every_port_is_one_bordered_reduction(name):
    # Every bus and machine port shares one machines' Laplacian, bit for
    # bit; a machine port injects on its machine alone; a bus port's gains
    # and the Laplacian are the four-block Kron reduction and the solve of
    # the reference, and the gains sum to 1 (a Laplacian's columns sum to 0).
    model = build_swing_model(get_analysis(name))
    n_bus, n_gen = len(model.participation), len(model.m)
    reductions = [_injection_reduction(model, row) for row in range(len(model.l_red))]
    shared = reductions[0][0]
    bound = _port_bound(model.l_red, n_bus)
    for row, (l_red, w) in enumerate(reductions):
        assert l_red.tobytes() == shared.tobytes(), row
        if row >= n_bus:
            assert w.tobytes() == np.eye(n_gen)[row - n_bus].tobytes(), row
            continue
        want_l, want_w = bus_port_reduction(model.l_red, n_bus, row)
        assert np.max(np.abs(l_red - want_l)) <= bound, row
        assert np.abs(w - want_w).sum() <= bound, row
        assert abs(w.sum() - 1.0) <= bound, row


@pytest.mark.parametrize("port", [99, ("bus", 99), ("gen", 3), ("gen", -1), ("node", 1),
                                  ("gen", 1.7), ("bus", 2.9), 3.0, True, -1, 9 + 3,
                                  ("gen", 0)])
def test_simulate_rejects_an_unknown_injection_port(port):
    # case9 has 9 buses and 3 machines, so rows 0-11 of l_red; a negative row
    # must not wrap around to the last machine.  A port is an integer row:
    # a float, a bool or a tuple, even one that names a machine, is none.
    model = build_swing_model(get_analysis("case9"))
    with pytest.raises(GridGfvError, match="unknown injection port"):
        simulate(model, port, np.zeros(10), 0.01)


@pytest.mark.parametrize("dp", [np.zeros(0), np.zeros((2, 10))], ids=["empty", "2-d"])
def test_simulate_rejects_a_dp_that_is_not_a_non_empty_series(dp):
    model = build_swing_model(get_analysis("case9"))
    with pytest.raises(ValueError, match="dp must be a non-empty 1-d series"):
        simulate(model, CASE9_BUS5, dp, 0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_rejects_a_non_finite_dp(bad):
    # Not an unstable model: the block kernel would spread NaN * 0 over the
    # whole block and report a non-finite state at t = 0.
    model = build_swing_model(get_analysis("case9"))
    dp = np.zeros(100)
    dp[50] = bad
    with pytest.raises(ValueError, match="dp must be finite"):
        simulate(model, CASE9_BUS5, dp, 0.01)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.01])
def test_simulate_and_simulate_ou_reject_a_step_that_is_not_positive_and_finite(dt):
    # Without the check, nan reads as an unstable model, -0.01 integrates
    # backwards and 0 returns zeros.
    model = build_swing_model(get_analysis("case9"))
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        simulate(model, CASE9_BUS5, _wind_dp(100, 5), dt)
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        simulate_ou(OuParams(), dt, 100, 5)
    assert model._propagators == {}


def test_a_numpy_step_gives_the_bytes_of_a_python_float_step():
    # Both are converted to one float: they share one stored propagator.
    model = build_swing_model(get_analysis("case9"))
    dp = _wind_dp(300, 5)
    a, b = (simulate(model, CASE9_BUS5, dp, dt) for dt in (0.01, np.float64(0.01)))
    for name in ("t", "gen_freq", "bus_freq", "coi_freq"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert len(model._propagators) == 1
    assert (simulate_ou(OuParams(), 0.01, 300, 5).tobytes()
            == simulate_ou(OuParams(), np.float64(0.01), 300, 5).tobytes())


def test_simulate_overflow_of_a_stable_model_is_not_an_instability():
    # dt = 0.01 is well inside case9's stability region: a constant 1e306 pu
    # step makes the angles grow linearly until they leave the float range.
    model = build_swing_model(get_analysis("case9"))
    with pytest.raises(NumericalError, match="past the float range"):
        simulate(model, CASE9_BUS5, np.full(5000, 1e306), 0.01)


def test_a_long_step_gives_the_exact_solution():
    # dt = 1 s is past every explicit scheme's stability limit on this model;
    # the exact step is stable at any dt.
    case, model = _model_from(PAIR)
    dp = np.full(4000, 0.1)
    got = simulate(model, bus_positions(case)[1], dp, 1.0).gen_freq
    want, bound = exact_stepping(model, bus_positions(case)[1], dp, 1.0)
    assert np.max(np.abs(got - want)) <= bound


def test_a_long_step_settles_at_the_synchronous_steady_state():
    # A constant input u into damped machines settles them at one frequency,
    # sum(w) u / sum(D): the Laplacian's column sums vanish.  PAIR's slowest
    # mode decays as exp(-D t / 2M) with 2M / D = 12 s, so from t = 1000 s on
    # the exact solution is that steady state to within 1e-36, and the
    # computed steps stay within exact_stepping's rounding bound of it.
    case, model = _model_from(PAIR)
    row = bus_positions(case)[1]
    dp = np.full(4000, 0.1)
    got = simulate(model, row, dp, 1.0).gen_freq
    _, w = bus_port_reduction(model.l_red, len(model.participation), row)
    _, bound = exact_stepping(model, row, dp, 1.0)
    steady = w.sum() * 0.1 / model.damp.sum()
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got[:, 1000:] - steady)) <= bound


def test_a_stiff_damping_gives_the_quasi_static_frequencies_without_a_warning():
    # A damping of 1e100 settles each machine within 1e-98 s, so it runs at
    # w u / D from the first step, and its angles stay below 1e-98 rad.
    # scipy's expm returns NaN for this step: the exact solution is the
    # quasi-static one, to within a relative 1e-95.  Each step forgets the
    # last, so no error accumulates: the bound is (n + 2)^2 eps, 64 eps at
    # n = 6 states, of step_rounding_bound's per-step rounding.
    model = build_swing_model(get_analysis("case9"))
    model = replace(model, damp=np.full(len(model.m), 1e100))
    _, w = bus_port_reduction(model.l_red, len(model.participation), CASE9_BUS5)
    dp = _wind_dp(300, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = simulate(model, CASE9_BUS5, dp, 0.01).gen_freq
    want = np.outer(w, dp) / 1e100  # dp starts at 0, as the state does
    assert np.max(np.abs(got - want)) <= 64 * np.finfo(float).eps * np.abs(want).max()


def test_a_reused_propagator_gives_the_bytes_of_a_fresh_model():
    # One model simulates each port twice in a row, in case order, then in
    # reverse order, then at a second dt: the second call at a port reuses
    # the propagator that the first built, and every array must equal a fresh
    # model's byte for byte.  The machine ports share one reduced Laplacian
    # and differ in the gain vector alone.
    dp = _wind_dp(700, 5)
    model = build_swing_model(get_analysis("case9"))
    ports = range(len(model.l_red))
    for port, dt in ([(p, 0.01) for p in ports for _ in range(2)]
                     + [(p, 0.01) for p in ports[::-1] for _ in range(2)]
                     + [(p, 0.02) for p in ports for _ in range(2)]):
        got = simulate(model, port, dp, dt)
        want = simulate(build_swing_model(get_analysis("case9")), port, dp, dt)
        for name in ("t", "gen_freq", "bus_freq", "coi_freq"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (port, dt, name)


def test_a_model_holds_the_propagator_of_one_port_only():
    # Callers finish a port before they start the next, so the store keeps
    # the last one, not one entry per port: 1056 n_gen^2 + 34,320 n_gen
    # bytes, 112,464 at 3 machines.  The fill and R^m take 1056 n_gen^2;
    # the (65, 66 n_gen) input map takes 34,320 n_gen.
    model = build_swing_model(get_analysis("case9"))
    dp = _wind_dp(300, 5)
    for row in range(get_case("case9").n_bus):
        simulate(model, row, dp, 0.01)
    (entry,) = model._propagators.values()
    assert sum(a.nbytes for a in entry) == 112_464


def test_out_receives_bus_freq_and_no_earlier_trajectory_changes():
    # Without out every array is new, so a later call that writes its out
    # leaves a kept trajectory as it was; with out, bus_freq is out itself.
    model = build_swing_model(get_analysis("case9"))
    dp = _wind_dp(300, 5)
    kept = simulate(model, CASE9_BUS5, dp, 0.01)
    names = ("t", "gen_freq", "bus_freq", "coi_freq")
    before = {name: getattr(kept, name).copy() for name in names}
    out = np.empty_like(kept.bus_freq)
    for port in (CASE9_BUS5, 0):
        traj = simulate(model, port, dp, 0.01, out=out)
        assert traj.bus_freq is out
        want = simulate(build_swing_model(get_analysis("case9")), port, dp, 0.01)
        assert out.tobytes() == want.bus_freq.tobytes(), port
    for name, value in before.items():
        assert getattr(kept, name).tobytes() == value.tobytes(), name


@pytest.mark.parametrize("damp", [None, 0.0], ids=["damped", "undamped"])
def test_a_reused_propagator_at_a_long_step_gives_the_exact_solution(damp):
    # dt = 0.5 s is past every explicit scheme's stability limit on case9;
    # the second call reuses the first call's propagator.
    model = build_swing_model(get_analysis("case9"))
    if damp is not None:
        model = replace(model, damp=np.full(len(model.m), damp))
    dp = _wind_dp(700, 5)
    want, bound = exact_stepping(model, CASE9_BUS5, dp, 0.5)
    for _ in range(2):
        got = simulate(model, CASE9_BUS5, dp, 0.5).gen_freq
        assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_simulate_matches_exact_stepping_at_every_bus_port(name):
    # Against scipy's expm of the step, on the reduction of bus_port_reduction,
    # stepped one sample at a time: at short and long steps, damped and not.
    damped = build_swing_model(get_analysis(name))
    dp = _wind_dp(299, 5)
    for model in (damped, replace(damped, damp=np.zeros(len(damped.m)))):
        for dt in (0.01, 0.5, 5.0):
            for row in range(len(model.participation)):
                got = simulate(model, row, dp, dt).gen_freq
                want, bound = exact_stepping(model, row, dp, dt)
                assert np.max(np.abs(got - want)) <= bound, (dt, row)


def _swing_operators(model, port):
    """A and g of the swing model at port: dx/dt = A x + g u, x the
    machines' angles, then their frequencies."""
    l_red, w = _injection_reduction(model, port)
    ng = len(model.m)
    a = np.zeros((2 * ng, 2 * ng))
    a[:ng, ng:] = OMEGA_SYNC * np.eye(ng)
    a[ng:, :ng] = -l_red / model.m[:, None]
    a[ng:, ng:] = np.diag(-model.damp / model.m)
    g = np.zeros(2 * ng)
    g[ng:] = w / model.m
    return a, g


def _stepped_gen_freq(model, port, dp, dt):
    """Machine frequencies by the exact-step recurrence stepped one sample at
    a time: the definition the time-blocked integration is held to."""
    ng = len(model.m)
    r, s0, s1 = _exact_step(*_swing_operators(model, port), dt)
    omega = np.zeros((ng, len(dp)))
    x = np.zeros(2 * ng)
    for k in range(len(dp) - 1):
        x = r @ x + s0 * dp[k] + s1 * dp[k + 1]
        omega[:, k + 1] = x[ng:]
    return omega


def _wind_dp(n_steps, seed):
    return wind_to_power(simulate_ou(OuParams(), 0.01, n_steps, seed),
                         TurbineParams(1.0, 15.0, 14.0))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_blocked_integration_matches_stepping(name):
    case = get_case(name)
    model = build_swing_model(get_analysis(name))
    dp = _wind_dp(1500, 17)
    for port in range(case.n_bus + 1):  # every bus, then machine 0
        reference = _stepped_gen_freq(model, port, dp, 0.01)
        traj = simulate(model, port, dp, 0.01)
        assert traj.gen_freq.shape == reference.shape
        assert np.all(traj.gen_freq[:, 0] == 0.0)
        scale = np.abs(reference).max()
        assert np.max(np.abs(traj.gen_freq - reference)) <= 1e-10 * scale, port


@pytest.mark.parametrize("n_t", [1, 2, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_blocked_integration_at_block_edges(n_t):
    model = build_swing_model(get_analysis("case9"))
    dp = _wind_dp(n_t - 1, 3) if n_t > 1 else np.array([0.02])
    traj = simulate(model, CASE9_BUS5, dp, 0.01)
    reference = _stepped_gen_freq(model, CASE9_BUS5, dp, 0.01)
    assert traj.t.shape == (n_t,)
    assert traj.gen_freq.shape == (3, n_t)
    assert traj.bus_freq.shape == (9, n_t)
    assert traj.coi_freq.shape == (n_t,)
    scale = max(np.abs(reference).max(), np.finfo(float).tiny)
    assert np.max(np.abs(traj.gen_freq - reference)) <= 1e-10 * scale


@pytest.mark.parametrize("n_t", [_BLOCK * b + extra for b in (2, 3, 4, 5, 8, 9, 16, 17, 33, 65)
                                 for extra in (0, 1)])
def test_blocked_integration_at_every_scan_level(n_t):
    # The block starts are carried by a doubling scan: block counts at and
    # just past each power of two reach every level and its edges.
    model = build_swing_model(get_analysis("case9"))
    dp = _wind_dp(n_t - 1, 5)
    traj = simulate(model, CASE9_BUS5, dp, 0.01)
    reference = _stepped_gen_freq(model, CASE9_BUS5, dp, 0.01)
    assert traj.gen_freq.shape == (3, n_t)
    scale = np.abs(reference).max()
    assert np.max(np.abs(traj.gen_freq - reference)) <= 1e-10 * scale


def _random_swing_operators(ng, seed, dt=0.01):
    """Step operators of a random stable, connected swing model of ng machines."""
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.5, 2.0, (ng, ng)), 1)
    w = w + w.T
    lap = np.diag(w.sum(axis=1)) - w + np.diag(rng.uniform(0.1, 1.0, ng))
    m = rng.uniform(4.0, 10.0, ng)
    a = np.zeros((2 * ng, 2 * ng))
    a[:ng, ng:] = OMEGA_SYNC * np.eye(ng)
    a[ng:, :ng] = -lap / m[:, None]
    a[ng:, ng:] = np.diag(-rng.uniform(0.5, 2.0, ng) / m)
    g = np.zeros(2 * ng)
    g[ng:] = rng.uniform(0.0, 1.0, ng) / m
    return _exact_step(a, g, dt)


def _blocked(r, s0, s1, u, rows):
    """The rows `rows` of the states of x_{k+1} = R x_k + s0 u_k + s1 u_{k+1}
    from x_0 = 0, through _kernel's build and _apply."""
    return _apply(*_kernel(r, s0, s1, rows), u)


@pytest.mark.parametrize("rows", [slice(20, None), slice(0, 20), slice(7, 8), slice(0, 1)])
def test_advance_rows_are_rows_of_the_whole_state(rows):
    r, s0, s1 = _random_swing_operators(20, 4)
    u = np.random.default_rng(8).standard_normal(9 * _BLOCK + 17)
    whole = _blocked(r, s0, s1, u, slice(None))
    part = _blocked(r, s0, s1, u, rows)
    assert whole.shape == (40, len(u))
    assert part.shape == whole[rows].shape
    scale = np.abs(whole[rows]).max()
    assert np.max(np.abs(part - whole[rows])) <= 1e-13 * scale
    # Held against the recurrence stepped one sample at a time.
    x = np.zeros(40)
    stepped = np.zeros((40, len(u)))
    for k in range(len(u) - 1):
        x = r @ x + s0 * u[k] + s1 * u[k + 1]
        stepped[:, k + 1] = x
    assert np.max(np.abs(whole - stepped)) <= 1e-10 * np.abs(stepped).max()


@pytest.mark.parametrize("block", [1, 48, 64, 100])
def test_a_block_of_any_length_gives_the_stepped_recurrence(monkeypatch, block):
    # _kernel steps the recurrence, so a block may be any number of steps,
    # not only a power of two; the frequency rows of 3 machines, as simulate
    # asks for them.
    monkeypatch.setattr("gridgfv.dynamics._BLOCK", block)
    r, s0, s1 = _random_swing_operators(3, 6)
    u = np.random.default_rng(9).standard_normal(5 * 64 + 17)
    x = np.zeros(6)
    stepped = np.zeros((3, len(u)))
    for k in range(len(u) - 1):
        x = r @ x + s0 * u[k] + s1 * u[k + 1]
        stepped[:, k + 1] = x[3:]
    blocked = _blocked(r, s0, s1, u, slice(3, None))
    assert blocked.shape == stepped.shape
    assert np.max(np.abs(blocked - stepped)) <= 1e-10 * np.abs(stepped).max()


def test_blocked_zero_input_is_exactly_zero_at_seventy_blocks():
    case = get_case("case9")
    model = build_swing_model(get_analysis("case9"))
    for port in [*range(case.n_bus), case.n_bus + 2]:
        traj = simulate(model, port, np.zeros(70 * _BLOCK + 3), 0.01)
        assert np.all(traj.gen_freq == 0.0)
        assert np.all(traj.bus_freq == 0.0)


def test_blocked_zero_input_is_exactly_zero_at_every_port():
    case = get_case("case9")
    model = build_swing_model(get_analysis("case9"))
    for port in [*range(case.n_bus), case.n_bus + 1]:
        traj = simulate(model, port, np.zeros(3 * _BLOCK + 5), 0.01)
        assert np.all(traj.gen_freq == 0.0)
        assert np.all(traj.bus_freq == 0.0)


def test_closed_form_zero_at_t_zero():
    lred = np.array([[1.0, -1.0], [-1.0, 1.0]])
    out = closed_form_response(lred, 0.1, 0.02, 0, 1.0, np.array([0.0, 0.5]))
    assert np.all(out[:, 0] == 0.0)


def test_closed_form_rigid_body_ramp():
    # Single free node, no damping: the zero mode integrates the step.
    t = np.linspace(0.0, 2.0, 21)
    out = closed_form_response(np.array([[0.0]]), 2.0, 0.0, 0, 1.0, t)
    assert np.allclose(out[0], t / 2.0, atol=1e-14)


def test_closed_form_rejects_heterogeneous():
    lred = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError):
        closed_form_response(lred, np.array([1.0, 2.0]), 0.1, 0, 1.0, np.zeros(3))
