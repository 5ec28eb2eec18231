"""Admittance assembly, Newton-Raphson solve, and internal EMFs."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gridgfv import (
    CaseError,
    ConvergenceError,
    SingularMatrixError,
    build_ybus,
    internal_emfs,
    parse_case,
    solve_powerflow,
)
from gridgfv import powerflow
from gridgfv.case_model import bus_positions

from conftest import FIXTURE_NAMES, SYNTH120, get_analysis, get_case
from references import dense_ds_dv


def two_bus(b_ch=0.0):
    return parse_case(
        json.dumps(
            {
                "base_mva": 100.0,
                "buses": [
                    {"id": 1, "kind": "slack", "v_set": 1.0},
                    {"id": 2, "kind": "pq", "p_load": 0.5},
                ],
                "branches": [
                    {"from_bus": 1, "to_bus": 2, "x": 0.2, "b_ch": b_ch}
                ],
                "generators": [{"bus": 1, "h": 5.0, "xd_p": 0.3}],
            }
        )
    )


def test_ybus_two_bus_reactance_only():
    y = build_ybus(two_bus())
    assert y[0, 1] == pytest.approx(5j)
    assert y[1, 0] == pytest.approx(5j)
    assert y[0, 0] == pytest.approx(-5j)
    assert y[1, 1] == pytest.approx(-5j)


def test_ybus_charging_half_per_end():
    y = build_ybus(two_bus(b_ch=0.1))
    assert y[0, 0] == pytest.approx(-5j + 0.05j)
    assert y[1, 1] == pytest.approx(-5j + 0.05j)


def naive_ybus(case):
    # Oracle: per-element double loop over the branch list.
    n = case.n_bus
    pos = bus_positions(case)
    y = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for br in case.branches:
                if not br.status:
                    continue
                a, b = pos[br.from_bus], pos[br.to_bus]
                ys = 1.0 / complex(br.r, br.x)
                if (i, j) in ((a, b), (b, a)):
                    y[i, j] -= ys
                if i == j and i in (a, b):
                    y[i, j] += ys + 0.5j * br.b_ch
    for bus in case.buses:
        y[pos[bus.id], pos[bus.id]] += complex(bus.g_shunt, bus.b_shunt)
    return y


def test_ybus_nine_bus_matches_naive():
    case = get_case("case9")
    assert np.allclose(build_ybus(case), naive_ybus(case), atol=1e-14)


def test_flat_case_converges_immediately():
    # No loads, no scheduled generation: the flat start is the solution.
    sol = solve_powerflow(get_case("case4_path"))
    assert sol.iterations <= 1
    assert np.allclose(sol.vm, 1.0)
    assert np.allclose(sol.va, 0.0)


def test_two_bus_against_bisection():
    # With Q-load zero, V2 = cos(d) and the active balance collapses to
    # sin(2d) = -2 P x: one unknown, solvable by bisection.
    case = two_bus()
    sol = solve_powerflow(case, tol=1e-12)

    def g(delta):
        return np.sin(2 * delta) + 2 * 0.5 * 0.2

    lo, hi = -np.pi / 4, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    delta = 0.5 * (lo + hi)
    assert sol.va[1] == pytest.approx(delta, abs=1e-10)
    assert sol.vm[1] == pytest.approx(np.cos(delta), abs=1e-10)
    assert sol.va[0] == 0.0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_converged_solution_satisfies_balance(name):
    # Oracle: direct substitution into the nonlinear power balance.
    case = get_case(name)
    sol = get_analysis(name).solution
    y = build_ybus(case)
    v = sol.vm * np.exp(1j * sol.va)
    s = v * np.conj(y @ v)
    pos = bus_positions(case)
    p_sched = np.zeros(case.n_bus)
    q_sched = np.zeros(case.n_bus)
    for bus in case.buses:
        p_sched[pos[bus.id]] -= bus.p_load
        q_sched[pos[bus.id]] -= bus.q_load
    for g in case.generators:
        p_sched[pos[g.bus]] += g.p_gen
    for bus in case.buses:
        i = pos[bus.id]
        if bus.kind in ("pv", "pq"):
            assert abs(s.real[i] - p_sched[i]) <= 1e-8
        if bus.kind == "pq":
            assert abs(s.imag[i] - q_sched[i]) <= 1e-8


@pytest.mark.parametrize("name", FIXTURE_NAMES + [SYNTH120])
def test_power_derivatives_match_the_dense_formula(name):
    # At a seeded non-flat point every term carries weight: the bus currents
    # are far from zero and no voltage has unit magnitude.
    case = get_case(name)
    ybus = build_ybus(case)
    rng = np.random.default_rng(7)
    vm = rng.uniform(0.9, 1.1, case.n_bus)
    va = rng.uniform(-0.5, 0.5, case.n_bus)
    v = vm * np.exp(1j * va)
    got = powerflow._ds_dv(ybus, v, ybus @ v, vm)
    for fast, dense in zip(got, dense_ds_dv(ybus, vm, va)):
        assert np.abs(fast - dense).max() <= 1e-13 * np.abs(dense).max()


def test_nine_bus_converges_quickly():
    sol = solve_powerflow(get_case("case9"), tol=1e-8)
    assert sol.iterations <= 6
    assert sol.max_mismatch <= 1e-8
    assert np.all(sol.vm > 0)


def test_nonconvergence_reports_mismatch():
    case = two_bus()
    hopeless = replace(
        case, buses=(case.buses[0], replace(case.buses[1], p_load=50.0))
    )
    with pytest.raises(ConvergenceError) as err:
        solve_powerflow(hopeless, max_iter=15)
    assert err.value.mismatch is None or err.value.mismatch > 1e-8


def _first_pv_bus(case, **changes):
    """case, unvalidated, with changes made to its first pv bus."""
    k = next(k for k, bus in enumerate(case.buses) if bus.kind == "pv")
    return replace(case, buses=case.buses[:k] + (replace(case.buses[k], **changes),)
                   + case.buses[k + 1:])


def test_two_slack_buses_are_a_case_error():
    with pytest.raises(CaseError, match="exactly one slack bus, found 2"):
        solve_powerflow(_first_pv_bus(get_case("case9"), kind="slack"))


def test_a_zero_voltage_setpoint_makes_the_jacobian_singular():
    # Every derivative at a bus held at vm = 0 vanishes, and the solver says
    # so with no warning on the way.
    with warnings.catch_warnings(), \
            pytest.raises(SingularMatrixError, match="Jacobian singular at iteration 0"):
        warnings.simplefilter("error")
        solve_powerflow(_first_pv_bus(get_case("case9"), v_set=0.0))


def test_emf_zero_reactance_degenerates_to_terminal():
    case = two_bus()
    case = replace(case, generators=(replace(case.generators[0], xd_p=0.0),))
    sol = solve_powerflow(case)
    emfs = internal_emfs(case, sol)
    assert emfs.e_mag[0] == pytest.approx(sol.vm[0], abs=1e-14)
    assert emfs.delta0[0] == pytest.approx(sol.va[0], abs=1e-14)


def test_emf_no_load_generator():
    # Nothing flows anywhere, so the internal voltage is the terminal one.
    case = get_case("case4_path")
    sol = solve_powerflow(case)
    emfs = internal_emfs(case, sol)
    assert emfs.e_mag[0] == pytest.approx(1.0, abs=1e-12)
    assert emfs.delta0[0] == pytest.approx(0.0, abs=1e-12)


def test_emf_matches_direct_complex_arithmetic():
    case = get_case("case2")
    sol = solve_powerflow(case, tol=1e-12)
    emfs = internal_emfs(case, sol)
    v = sol.vm[0] * np.exp(1j * sol.va[0])
    s = complex(sol.p_inj[0], sol.q_inj[0])  # slack bus carries no load
    expected = v + 1j * 0.3 * np.conj(s / v)
    assert emfs.e_mag[0] == pytest.approx(abs(expected), rel=1e-14)
    assert emfs.delta0[0] == pytest.approx(np.angle(expected), abs=1e-14)


@pytest.mark.parametrize("shift", [0.3, -1.1])
def test_emf_invariant_under_angle_reference_shift(shift):
    case = get_case("case9")
    sol = get_analysis("case9").solution
    emfs = internal_emfs(case, sol)
    shifted = replace(sol, va=sol.va + shift)
    emfs2 = internal_emfs(case, shifted)
    assert np.allclose(emfs2.e_mag, emfs.e_mag, rtol=1e-12)
    assert np.allclose(emfs2.delta0 - shift, emfs.delta0, atol=1e-12)
