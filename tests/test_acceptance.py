"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget.

Run with  pytest tests/test_acceptance.py -v -s  to see the summary lines.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from gridgfv import (
    OuParams,
    RunConfig,
    analyze_case,
    gfv,
    load_case,
    run_monte_carlo,
    simulate,
    simulate_ou,
    solve_gep,
    solve_powerflow,
)
from gridgfv.cli import _load_run_config, main
from gridgfv.case_model import bus_ids, bus_positions
from gridgfv.dynamics import OMEGA_SYNC, TurbineParams, build_swing_model
from gridgfv.reduction import kron_reduce

from closed_form import closed_form_response
from references import expected_ifd, impulse_responses
from conftest import (
    FIXTURE_NAMES,
    fixture_path,
    get_analysis,
    get_case,
    is_lossless_shuntfree,
)


class _Gate:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.name}]: {verdict} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_01_homogeneity_collapse():
    with _Gate(1, "homogeneity collapse", 1.0):
        for name in FIXTURE_NAMES:
            analysis = get_analysis(name)
            h = 3.7
            uniform = np.full(analysis.case.n_bus, h)
            result = gfv(solve_gep(analysis.laplacian, uniform))
            assert np.max(np.abs(result.vector - analysis.fiedler.vector)) <= 1e-9, name
            lam2 = analysis.fiedler.value
            assert abs(result.value - lam2 / h) <= 1e-9 * lam2 / h, name


def _random_connected_laplacian(rng, n):
    w = np.zeros((n, n))
    for j in range(1, n):
        i = int(rng.integers(0, j))
        w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    return np.diag(w.sum(axis=1)) - w


def _pencil_roots_by_determinant(l, n_diag):
    # Characteristic polynomial of det(L - lambda N) from n+1 point
    # evaluations and a Vandermonde solve; roots via numpy.
    n = l.shape[0]
    pts = np.linspace(0.0, float(n), n + 1)
    dets = [np.linalg.det(l - lam * np.diag(n_diag)) for lam in pts]
    coeffs = np.linalg.solve(np.vander(pts, n + 1), dets)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def test_02_gep_oracle():
    with _Gate(2, "GEP correctness", 10.0):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(2, 13))
            lap = _random_connected_laplacian(rng, n)
            h = rng.uniform(0.5, 3.0, size=n)
            gep = solve_gep(lap, h)
            norm_l = np.linalg.norm(lap, 2)
            n_mat = np.diag(h)
            for k in range(n):
                v = gep.eigenvectors[:, k]
                res = np.linalg.norm(lap @ v - gep.eigenvalues[k] * (n_mat @ v))
                assert res <= 1e-8 * norm_l, f"trial {trial}"
            if n <= 4:
                brute = _pencil_roots_by_determinant(lap, h)
                scale = max(abs(brute).max(), 1.0)
                assert np.max(np.abs(np.sort(gep.eigenvalues) - brute)) <= 1e-6 * scale


def test_03_single_generator_nodal_inertia():
    with _Gate(3, "single-generator nodal inertia", 1.0):
        for name in ("case2", "case4_path"):
            analysis = get_analysis(name)
            assert analysis.case.n_gen == 1
            h_machine = analysis.case.generators[0].h
            assert np.max(np.abs(analysis.inertia - h_machine)) <= 1e-10, name


def test_04_ou_stationary_moments():
    with _Gate(4, "OU stationary moments", 5.0):
        params = OuParams(mu=14.0, alpha=0.1, b=0.099)
        path = simulate_ou(params, 0.01, 10**6, 314159)
        assert abs(path.mean() - 14.0) <= 0.05
        target = 0.099**2 / (2 * 0.1)  # 0.049005
        assert abs(path.var() - target) <= 0.10 * target


def test_05_simulator_vs_closed_form():
    with _Gate(5, "simulator vs closed form", 5.0):
        case = get_case("case4_ring")
        model = build_swing_model(analyze_case(case))
        dt, horizon, dp_mag = 0.01, 10.0, 0.1
        n = int(round(horizon / dt))
        dp = np.full(n + 1, dp_mag)
        traj = simulate(model, case.n_bus + 2, dp, dt)
        lred = kron_reduce(model.l_red, range(case.n_bus, len(model.l_red)))
        w_s = OMEGA_SYNC
        reference = (
            closed_form_response(
                lred, model.m[0] / w_s, model.damp[0] / w_s, 2, dp_mag, traj.t
            )
            / w_s
        )
        assert np.max(np.abs(traj.gen_freq - reference)) <= 1e-4


def test_06_powerflow_residuals():
    with _Gate(6, "power-flow residuals", 1.0):
        for name in FIXTURE_NAMES:
            sol = solve_powerflow(get_case(name), tol=1e-8, max_iter=10)
            assert sol.iterations <= 10, name
            assert sol.max_mismatch <= 1e-8, name


def test_07_participation_row_sums():
    with _Gate(7, "frequency-divider row sums", 1.0):
        checked = 0
        for name in FIXTURE_NAMES:
            case = get_case(name)
            if not is_lossless_shuntfree(case):
                continue
            d = get_analysis(name).participation
            assert np.max(np.abs(d.sum(axis=1) - 1.0)) <= 1e-9, name
            checked += 1
        assert checked >= 4


# Desk-scale study: bundled 7-bus system with gustier wind (same stationary
# variance as the defaults) so the placement signal is stationary rather
# than onset-transient.
STUDY_BUSES = (3, 4, 5, 7)
STUDY_OU = OuParams(mu=14.0, alpha=2.0, b=0.4427)


def test_08_placement_ranking_reproduction():
    with _Gate(8, "placement ranking vs GFV", 300.0):
        case = get_case("case7_study")
        analysis = get_analysis("case7_study")
        cfg = RunConfig(
            n_realizations=200,
            horizon=50.0,
            dt=0.01,
            ou=STUDY_OU,
            turbine=TurbineParams(rated_power=1.0, v_rated=15.0, v_ref=14.0),
            seed=2024,
        )
        summary = run_monte_carlo(case, STUDY_BUSES, cfg)
        gfv_at = dict(zip(bus_ids(case), analysis.gfv.vector))
        gfv_values = [gfv_at[b] for b in STUDY_BUSES]
        medians = [
            summary[b].ifd_quartiles.median for b in STUDY_BUSES
        ]
        rho = spearmanr(gfv_values, medians).statistic
        assert rho > 0.0
        assert STUDY_BUSES[int(np.argmin(gfv_values))] == STUDY_BUSES[
            int(np.argmin(medians))
        ]


def test_08_the_second_moment_oracle_ranks_the_placements_as_gfv_does():
    # test_08 without sampling: at the study's run parameters, E[IFD] of the
    # linearized model (tests/references.py) orders the placement buses as
    # their GFV entries do.
    case = get_case("case7_study")
    cfg = _load_run_config(fixture_path("case7_study_run"))
    model = build_swing_model(analyze_case(case), cfg.damping)
    rows = bus_positions(case)
    expected = [expected_ifd(impulse_responses(model, rows[b], cfg)[0]) for b in STUDY_BUSES]
    gfv_at = dict(zip(bus_ids(case), get_analysis("case7_study").gfv.vector))
    assert np.argsort(expected).tolist() == np.argsort([gfv_at[b] for b in STUDY_BUSES]).tolist()


def _reference_case_path():
    env = os.environ.get("GRID_GFV_CASE68")
    if env and os.path.exists(env):
        return env
    bundled = fixture_path("case68")
    return str(bundled) if bundled.exists() else None


@pytest.mark.skipif(
    _reference_case_path() is None,
    reason="68-bus benchmark case not supplied (set GRID_GFV_CASE68)",
)
def test_09_reference_gfv_ordering():
    with _Gate(9, "68-bus GFV ordering", 60.0):
        analysis = analyze_case(load_case(_reference_case_path()))
        at = dict(zip(bus_ids(analysis.case), analysis.gfv.vector))
        assert at[53] < at[61] < at[51] < at[20]


def test_10_mc_determinism_across_workers(tmp_path):
    with _Gate(10, "MC determinism across workers", 60.0):
        study = str(fixture_path("case7_study"))

        def run(name, threads):
            out = tmp_path / name
            previous = os.environ.get("GRID_GFV_THREADS")
            os.environ["GRID_GFV_THREADS"] = str(threads)
            try:
                code = main(
                    ["mc", study, "--buses", "3,5,7", "--n", "6", "--t", "2.0",
                     "--dt", "0.01", "--seed", "99", "--out-dir", str(out)]
                )
            finally:
                if previous is None:
                    del os.environ["GRID_GFV_THREADS"]
                else:
                    os.environ["GRID_GFV_THREADS"] = previous
            assert code == 0
            return {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(Path(out).rglob("*"))
                if p.is_file()
            }

        assert run("serial", 1) == run("pooled", 4)
