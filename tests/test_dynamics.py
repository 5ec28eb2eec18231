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
    SimulationUnstableError,
    StabilityRegionError,
    TurbineParams,
    analyze_case,
    build_swing_model,
    operating_point,
    parse_case,
    simulate,
    simulate_ou,
    solve_powerflow,
    wind_to_power,
)
from gridgfv import pipeline
from gridgfv.case_model import bus_ids, bus_positions
from gridgfv.cli import main
from gridgfv.dynamics import (
    OMEGA_SYNC,
    _BLOCK,
    _advance,
    _injection_reduction,
    _resolve_node,
    _rk4_step_operators,
)
from gridgfv.reduction import kron_reduce

from closed_form import closed_form_response
from conftest import FIXTURE_NAMES, fixture_path, get_analysis, get_case


def test_ou_zero_diffusion_is_constant():
    path = simulate_ou(OuParams(b=0.0), 0.01, 500, 9)
    assert path.shape == (501,)
    assert np.all(path == 14.0)


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
    return list(range(len(model.bus_ids), len(model.l_red)))


def _model_from(doc, default_damping=1.0):
    case = parse_case(json.dumps(doc))
    return case, build_swing_model(operating_point(case), default_damping)


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
    traj = simulate(model, 1, dp, dt)
    m, d = model.m[0], model.damp[0]
    expected = 0.08 / d * (1.0 - np.exp(-d * traj.t / m))
    assert np.max(np.abs(traj.gen_freq[0] - expected)) <= 1e-6
    assert traj.gen_freq[0, -1] == pytest.approx(0.08 / d, rel=1e-3)


def test_two_identical_machines_coi_aggregates():
    case, model = _model_from(PAIR)
    dt = 0.01
    dp = np.full(2001, 0.05)
    traj = simulate(model, 1, dp, dt)
    m_tot = model.m.sum()
    d_tot = model.damp.sum()
    expected = 0.05 / d_tot * (1.0 - np.exp(-d_tot * traj.t / m_tot))
    assert np.max(np.abs(traj.coi_freq - expected)) <= 1e-8


def test_nine_bus_swing_coupling_is_psd():
    case = get_case("case9")
    model = build_swing_model(operating_point(case))
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
    assert model.bus_ids == bus_ids(analysis.case)
    assert np.max(np.abs(model.l_red - reference)) <= 1e-12 * np.abs(reference).max()


def test_swing_model_rejects_ninety_degree_branch(monkeypatch):
    case = get_case("case2")
    sol = solve_powerflow(case)
    sol = replace(sol, va=np.array([0.0, -math.pi / 2]))
    monkeypatch.setattr(pipeline, "solve_powerflow", lambda *args, **kwargs: sol)
    with pytest.raises(StabilityRegionError):
        build_swing_model(operating_point(case))
    with pytest.raises(StabilityRegionError):
        analyze_case(case)


@pytest.mark.parametrize("name", ["case2", "case7_study", "case9", "case9_lossless"])
def test_swing_model_takes_angle_spreads_modulo_a_turn(monkeypatch, name):
    # Turning every bus angle by 3 rad turns the EMFs with them, and the
    # wrapped EMF angle of some machine then trails its unwrapped terminal
    # angle by nearly a full turn; the couplings are the same.
    case = get_case(name)
    want = build_swing_model(operating_point(case)).l_red
    real = pipeline.solve_powerflow

    def turned(*args, **kwargs):
        sol = real(*args, **kwargs)
        return replace(sol, va=sol.va + 3.0)

    monkeypatch.setattr(pipeline, "solve_powerflow", turned)
    op = operating_point(case)
    term = [bus_positions(case)[g.bus] for g in case.generators]
    assert np.any(np.abs(op.emfs.delta0 - op.solution.va[term]) > math.pi)
    got = build_swing_model(op).l_red
    # Each angle moves by a few ulps of 2 pi and cos is 1-Lipschitz; the
    # EMF magnitudes and the diagonal sums add a few ulps more.
    bound = 16 * np.finfo(float).eps * 2 * math.pi * np.abs(want).max()
    assert np.max(np.abs(got - want)) <= bound


def _lead_machine(monkeypatch, k, degrees):
    """operating_point then gives machine k an EMF angle that leads its
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
    op = operating_point(get_case("case9"))
    message = (r"^angle spread -95\.0 deg between bus 2 and generator\[1\] at "
               r"bus 2 reaches 90 deg at the operating point$")
    with pytest.raises(StabilityRegionError, match=message):
        build_swing_model(op)


def test_simulate_command_reports_a_ninety_degree_machine_edge(monkeypatch, capsys):
    _lead_machine(monkeypatch, 1, 95.0)
    assert main(["simulate", str(fixture_path("case9")), "--bus", "5", "--t", "1"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("numerical failure: angle spread ")
    assert "generator[1] at bus 2" in err


def test_simulate_zero_input_stays_zero():
    case, model = _model_from(PAIR)
    traj = simulate(model, 2, np.zeros(500), 0.01)
    assert np.all(traj.gen_freq == 0.0)
    assert np.all(traj.bus_freq == 0.0)
    assert np.all(traj.coi_freq == 0.0)


def test_simulate_deterministic():
    case, model = _model_from(PAIR)
    rng = np.random.default_rng(0)
    dp = 0.01 * rng.standard_normal(400)
    a = simulate(model, 1, dp, 0.01)
    b = simulate(model, 1, dp, 0.01)
    assert np.array_equal(a.gen_freq, b.gen_freq)
    assert np.array_equal(a.bus_freq, b.bus_freq)


def test_simulate_matches_closed_form_two_nodes():
    # Step at one machine of the reduced two-node system; the spectral
    # closed form and the RK4 integration must agree.
    case, model = _model_from(PAIR)
    dt = 0.01
    dp = np.full(1001, 0.05)
    traj = simulate(model, ("gen", 0), dp, dt)
    lred = kron_reduce(model.l_red, _internal_rows(model))
    w_s = OMEGA_SYNC
    expected = (
        closed_form_response(lred, model.m[0] / w_s, model.damp[0] / w_s, 0, 0.05, traj.t)
        / w_s
    )
    assert np.max(np.abs(traj.gen_freq - expected)) <= 1e-6


def test_simulate_matches_independent_integrator():
    # Cross-check the fixed-step scheme against scipy's adaptive RK45 on the
    # heterogeneous nine-bus model with a wandering injection.
    from scipy.integrate import solve_ivp

    from gridgfv.dynamics import _injection_reduction, _resolve_node

    case = get_case("case9")
    model = build_swing_model(operating_point(case))
    dt = 0.01
    dp = wind_to_power(simulate_ou(OuParams(), 0.01, 500, 8),
                       TurbineParams(1.0, 15.0, 14.0))
    traj = simulate(model, 8, dp, dt)

    l_red, w = _injection_reduction(model, _resolve_node(model, 8))
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
    model = build_swing_model(operating_point(case))
    dp = wind_to_power(simulate_ou(OuParams(), 0.01, 300, 21),
                       TurbineParams(1.0, 15.0, 14.0))
    traj = simulate(model, 5, dp, 0.01)
    h = np.array([g.h for g in case.generators])
    expected = (h @ traj.gen_freq) / h.sum()
    assert np.max(np.abs(traj.coi_freq - expected)) <= 1e-12
    assert traj.bus_freq.shape == (9, 301)
    assert np.allclose(traj.bus_freq, model.participation @ traj.gen_freq)


def test_momentum_balance_zero_damping():
    # Undamped machines accumulate exactly the integrated impulse; the COI
    # stays put afterwards.  RK4 sees the sampled series piecewise-linear,
    # so "integrated" means its trapezoid.
    doc = json.loads(json.dumps(PAIR))
    for gen in doc["generators"]:
        gen["d"] = 0.0
    case, model = _model_from(doc)
    dt = 0.01
    k_imp = 50
    dp = np.zeros(1000)
    dp[:k_imp] = 0.2
    traj = simulate(model, ("gen", 0), dp, dt)
    expected = np.trapezoid(dp, dx=dt) / model.m.sum()
    tail = traj.coi_freq[k_imp + 1 :]
    assert np.max(np.abs(tail - expected)) <= 1e-12
    assert traj.coi_freq[-1] == pytest.approx(0.2 * dt * (k_imp - 0.5) / model.m.sum())


def test_injection_ports_resolve_to_their_rows():
    case = get_case("case9")
    model = build_swing_model(get_analysis("case9"))
    for row, bus in enumerate(case.buses):
        assert _resolve_node(model, bus.id) == row
        assert _resolve_node(model, ("bus", bus.id)) == row
    for k in range(case.n_gen):
        assert _resolve_node(model, ("gen", k)) == case.n_bus + k


@pytest.mark.parametrize("port", [99, ("bus", 99), ("gen", 3), ("gen", -1), ("node", 1),
                                  ("gen", 1.7), ("bus", 2.9), 3.0, True])
def test_simulate_rejects_an_unknown_injection_port(port):
    # case9 has buses 1-9 and three machines; a negative machine index must
    # not wrap around to the last machine.
    model = build_swing_model(get_analysis("case9"))
    with pytest.raises(GridGfvError, match="unknown injection node"):
        simulate(model, port, np.zeros(10), 0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_rejects_a_non_finite_dp(bad):
    # Not an unstable model: the block kernel would spread NaN * 0 over the
    # whole block and report a non-finite state at t = 0.
    model = build_swing_model(get_analysis("case9"))
    dp = np.zeros(100)
    dp[50] = bad
    with pytest.raises(ValueError, match="dp must be finite"):
        simulate(model, 5, dp, 0.01)


def test_simulate_unstable_step_reports_time():
    case, model = _model_from(PAIR)
    with pytest.raises(SimulationUnstableError) as err:
        simulate(model, 1, np.full(4000, 0.1), 1.0)
    assert err.value.first_time is not None


def test_simulate_overflow_of_a_stable_model_is_not_an_instability():
    # dt = 0.01 is well inside case9's stability region: a constant 1e306 pu
    # step makes the angles grow linearly until they leave the float range.
    model = build_swing_model(get_analysis("case9"))
    with pytest.raises(NumericalError, match="past the float range") as err:
        simulate(model, 5, np.full(5000, 1e306), 0.01)
    assert not isinstance(err.value, SimulationUnstableError)


def test_simulate_step_operator_overflow_is_an_instability():
    # A damping of 1e100 makes dt * A so large that R = I + dt A + ... +
    # (dt A)^4 / 24 itself overflows; the failure is an error, not a warning.
    model = build_swing_model(get_analysis("case9"))
    model = replace(model, damp=np.full(len(model.m), 1e100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationUnstableError, match="unstable at this step size"):
            simulate(model, 5, np.full(10, 0.1), 0.01)


def test_a_reused_propagator_gives_the_bytes_of_a_fresh_model():
    # One model simulates every port in case order, then in reverse order,
    # then at a second dt: the later calls reuse the propagators of the
    # earlier ones, and every array must equal a fresh model's byte for byte.
    # The machine ports share one reduced Laplacian and differ in the gain
    # vector alone.
    case = get_case("case9")
    ports = [bus.id for bus in case.buses] + [("gen", k) for k in range(case.n_gen)]
    dp = _wind_dp(700, 5)
    model = build_swing_model(get_analysis("case9"))
    for port, dt in ([(p, 0.01) for p in ports] + [(p, 0.01) for p in ports[::-1]]
                     + [(p, 0.02) for p in ports]):
        got = simulate(model, port, dp, dt)
        want = simulate(build_swing_model(get_analysis("case9")), port, dp, dt)
        for name in ("t", "gen_freq", "bus_freq", "coi_freq", "injection"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (port, dt, name)


@pytest.mark.parametrize("damp, dt", [(None, 0.5), (1e100, 0.01)],
                         ids=["unstable-step", "overflowing-step-operator"])
def test_a_reused_unstable_propagator_fails_again_at_the_same_time(damp, dt):
    # dt = 0.5 is outside case9's stability region; a damping of 1e100 makes
    # R itself overflow.  The second call reuses the first call's R.
    model = build_swing_model(get_analysis("case9"))
    if damp is not None:
        model = replace(model, damp=np.full(len(model.m), damp))
    dp = _wind_dp(700, 5)
    times = []
    for _ in range(2):
        with pytest.raises(SimulationUnstableError) as err:
            simulate(model, 5, dp, dt)
        times.append(err.value.first_time)
    assert times[0] is not None and times[0] == times[1]


def _stepped_gen_freq(model, injection_bus, dp, dt):
    """Machine frequencies by the RK4 recurrence stepped one sample at a
    time: the definition the time-blocked integration is held to."""
    l_red, w = _injection_reduction(model, _resolve_node(model, injection_bus))
    ng = len(model.m)
    a = np.zeros((2 * ng, 2 * ng))
    a[:ng, ng:] = OMEGA_SYNC * np.eye(ng)
    a[ng:, :ng] = -l_red / model.m[:, None]
    a[ng:, ng:] = np.diag(-model.damp / model.m)
    g = np.zeros(2 * ng)
    g[ng:] = w / model.m
    r, s0, s1 = _rk4_step_operators(a, g, dt)
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
    for node in [bus.id for bus in case.buses] + [("gen", 0)]:
        reference = _stepped_gen_freq(model, node, dp, 0.01)
        traj = simulate(model, node, dp, 0.01)
        assert traj.gen_freq.shape == reference.shape
        assert np.all(traj.gen_freq[:, 0] == 0.0)
        scale = np.abs(reference).max()
        assert np.max(np.abs(traj.gen_freq - reference)) <= 1e-10 * scale, node


@pytest.mark.parametrize("n_t", [1, 2, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_blocked_integration_at_block_edges(n_t):
    model = build_swing_model(get_analysis("case9"))
    dp = _wind_dp(n_t - 1, 3) if n_t > 1 else np.array([0.02])
    traj = simulate(model, 5, dp, 0.01)
    reference = _stepped_gen_freq(model, 5, dp, 0.01)
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
    traj = simulate(model, 5, dp, 0.01)
    reference = _stepped_gen_freq(model, 5, dp, 0.01)
    assert traj.gen_freq.shape == (3, n_t)
    scale = np.abs(reference).max()
    assert np.max(np.abs(traj.gen_freq - reference)) <= 1e-10 * scale


def _random_swing_operators(ng, seed, dt=0.01):
    """RK4 operators of a random stable, connected swing model of ng machines."""
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
    return _rk4_step_operators(a, g, dt)


@pytest.mark.parametrize("rows", [slice(20, None), slice(0, 20), slice(7, 8), slice(0, 1)])
def test_advance_rows_are_rows_of_the_whole_state(rows):
    r, s0, s1 = _random_swing_operators(20, 4)
    u = np.random.default_rng(8).standard_normal(9 * _BLOCK + 17)
    whole = _advance(r, s0, s1, u, slice(None))
    part = _advance(r, s0, s1, u, rows)
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


def test_blocked_zero_input_is_exactly_zero_at_seventy_blocks():
    case = get_case("case9")
    model = build_swing_model(get_analysis("case9"))
    for node in [bus.id for bus in case.buses] + [("gen", 2)]:
        traj = simulate(model, node, np.zeros(70 * _BLOCK + 3), 0.01)
        assert np.all(traj.gen_freq == 0.0)
        assert np.all(traj.bus_freq == 0.0)


def test_blocked_zero_input_is_exactly_zero_at_every_port():
    case = get_case("case9")
    model = build_swing_model(get_analysis("case9"))
    for node in [bus.id for bus in case.buses] + [("gen", 1)]:
        traj = simulate(model, node, np.zeros(3 * _BLOCK + 5), 0.01)
        assert np.all(traj.gen_freq == 0.0)
        assert np.all(traj.bus_freq == 0.0)


def test_simulate_unstable_step_reports_the_first_non_finite_time():
    case, model = _model_from(PAIR)
    with pytest.raises(SimulationUnstableError) as err:
        simulate(model, 1, np.full(4000, 0.1), 1.0)
    assert err.value.first_time == 104.0


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
