"""Internal-node augmentation, Kron reduction, participation matrix."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgfv import (
    SingularMatrixError,
    analyze_case,
    augment_internal_nodes,
    build_swing_model,
    build_ybus,
    frequency_participation,
    kron_reduce,
    parse_case,
)
from gridgfv import dynamics, reduction
from gridgfv.case_model import bus_positions
from gridgfv.dynamics import _injection_reduction

from conftest import FIXTURE_NAMES, get_analysis, get_case
from references import four_block_kron


def single_bus_single_gen(xd_p=0.25):
    return parse_case(
        json.dumps(
            {
                "base_mva": 100.0,
                "buses": [{"id": 1, "kind": "slack", "v_set": 1.0}],
                "branches": [],
                "generators": [{"bus": 1, "h": 3.0, "xd_p": xd_p}],
            }
        )
    )


def test_augment_single_machine():
    case = single_bus_single_gen()
    aug = augment_internal_nodes(build_ybus(case), case)
    expected = np.array([[-4j, 4j], [4j, -4j]])
    assert np.allclose(aug, expected, atol=1e-14)
    # The bus is row 0, the machine's internal node row n_bus + 0 = 1.
    assert aug[1, 0] == aug[0, 1] == -1 / (1j * 0.25)


def test_augment_leaves_other_buses_untouched():
    case = get_case("case2")
    y = build_ybus(case)
    aug = augment_internal_nodes(y, case)
    assert aug.shape == (3, 3)
    assert np.allclose(aug[1, :2], y[1, :])
    assert aug[1, 2] == 0


def test_augment_rejects_zero_reactance():
    case = single_bus_single_gen(xd_p=0.25)
    from dataclasses import replace

    broken = replace(case, generators=(replace(case.generators[0], xd_p=0.0),))
    with pytest.raises(SingularMatrixError, match="1e-4"):
        augment_internal_nodes(build_ybus(broken), broken)


def naive_augmented(case):
    # Oracle: fresh assembly, one generator at a time.
    y = build_ybus(case)
    n, ng = case.n_bus, case.n_gen
    out = np.zeros((n + ng, n + ng), dtype=complex)
    out[:n, :n] = y
    order = [b.id for b in case.buses]
    for k, gen in enumerate(case.generators):
        t = order.index(gen.bus)
        ygen = -1j / gen.xd_p
        out[n + k, n + k] += ygen
        out[t, t] += ygen
        out[t, n + k] -= ygen
        out[n + k, t] -= ygen
    return out


def test_augment_nine_bus_matches_naive():
    case = get_case("case9")
    aug = augment_internal_nodes(build_ybus(case), case)
    expected = naive_augmented(case)
    assert aug.shape == (12, 12)
    assert np.allclose(aug, expected, atol=1e-14)
    assert np.allclose(aug, aug.T, atol=1e-14)
    # Internal rows couple to exactly one bus.
    for row in aug[9:]:
        assert np.count_nonzero(row) == 2


def test_kron_keep_all_is_identity():
    case = get_case("case9")
    y = build_ybus(case)
    for keep in (range(9), [8, 0, 3, 1, 2, 4, 5, 6, 7, 0]):
        red = kron_reduce(y, keep)
        assert np.array_equal(red, y) and not np.shares_memory(red, y)


@pytest.mark.parametrize("keep", [[-1], [0, -1], [9], [2, 9], [0.5]])
def test_kron_rejects_indices_outside_the_matrix(keep):
    # -1 would wrap to the last row under numpy indexing.
    with pytest.raises(ValueError, match="outside the matrix"):
        kron_reduce(build_ybus(get_case("case9")), keep)


def test_kron_ignores_the_order_and_repeats_of_keep():
    y = augment_internal_nodes(build_ybus(get_case("case9")), get_case("case9"))
    red = kron_reduce(y, [2, 9, 10, 11])
    assert np.array_equal(kron_reduce(y, [11, 2, 10, 9]), red)
    assert np.array_equal(kron_reduce(y, [9, 2, 11, 2, 10, 9]), red)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_kron_equals_the_four_block_formula_bit_for_bit(name, monkeypatch):
    # At the kept rows of nodal_inertia's per-bus reductions ({bus j} and the
    # internal nodes) and at the internal nodes alone, on the augmented
    # admittance and the swing Laplacian; and at _injection_reduction's own
    # inputs: the swing Laplacian bordered with each port's unit column, bus
    # or internal node, kept at the internal nodes and the border.
    analysis = get_analysis(name)
    n = analysis.case.n_bus
    g_rows = list(range(n, n + analysis.case.n_gen))
    model = build_swing_model(analysis)
    inputs = [(y, keep) for y in (analysis.aug, model.l_red)
              for keep in [[j] + g_rows for j in range(n)] + [g_rows]]
    monkeypatch.setattr(dynamics, "kron_reduce",
                        lambda y, keep: inputs.append((y, keep)) or kron_reduce(y, keep))
    for row in range(len(model.l_red)):
        _injection_reduction(model, row)
    assert len(inputs) == 2 * (n + 1) + len(model.l_red)
    for y, keep in inputs:
        assert np.array_equal(kron_reduce(y, keep), four_block_kron(y, keep))


def test_kron_chain_series_combination():
    # a - b - c with unit reactances; eliminating b leaves the series
    # equivalent x = 2, i.e. off-diagonal +0.5j.
    y = np.array(
        [[-1j, 1j, 0], [1j, -2j, 1j], [0, 1j, -1j]], dtype=complex
    )
    red = kron_reduce(y, [0, 2])
    assert red[0, 1] == pytest.approx(0.5j)
    assert red[0, 0] == pytest.approx(-0.5j)


def test_kron_terminal_equivalence_nine_bus():
    # Voltages on kept nodes with zero injection at eliminated nodes must
    # draw the same kept-node currents through the reduced matrix.
    case = get_case("case9")
    aug = augment_internal_nodes(build_ybus(case), case)
    keep = list(range(9, 12))
    elim = list(range(9))
    red = kron_reduce(aug, keep)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v_keep = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v_elim = -np.linalg.solve(aug[np.ix_(elim, elim)], aug[np.ix_(elim, keep)] @ v_keep)
        i_full = aug[np.ix_(keep, keep)] @ v_keep + aug[np.ix_(keep, elim)] @ v_elim
        assert np.allclose(red @ v_keep, i_full, atol=1e-12)


def _random_network(seed, n):
    # Connected susceptance-only network: spanning tree plus extra edges.
    rng = np.random.default_rng(seed)
    y = np.zeros((n, n), dtype=complex)

    def add(i, j, b):
        y[i, j] += 1j * b
        y[j, i] += 1j * b
        y[i, i] -= 1j * b
        y[j, j] -= 1j * b

    for j in range(1, n):
        add(int(rng.integers(0, j)), j, rng.uniform(0.5, 2.0))
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            add(int(i), int(j), rng.uniform(0.5, 2.0))
    # Small shunts keep every principal submatrix comfortably nonsingular.
    y -= 1j * np.diag(rng.uniform(0.05, 0.2, size=n))
    return y


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_kron_composes_and_preserves_symmetry(seed):
    y = _random_network(seed, 8)
    once = kron_reduce(kron_reduce(y, [0, 1, 2, 3, 4, 5, 6]), [0, 1, 2, 3, 4, 5])
    both = kron_reduce(y, [0, 1, 2, 3, 4, 5])
    scale = np.abs(both).max()
    assert np.allclose(once, both, atol=1e-10 * scale)
    assert np.allclose(both, both.T, atol=1e-12 * scale)


def test_kron_singular_block_rejected():
    # Eliminated nodes {2, 3} form an island: their block is singular.
    y = np.zeros((4, 4), dtype=complex)
    y[0, 0] = y[1, 1] = -1j
    y[0, 1] = y[1, 0] = 1j
    y[2, 2] = y[3, 3] = -1j
    y[2, 3] = y[3, 2] = 1j
    with pytest.raises(SingularMatrixError):
        kron_reduce(y, [0, 1])


def test_kron_rejects_a_nan_in_the_eliminated_block():
    # The LU factorization goes through; its result is not finite.
    y = 2.0 * np.eye(4) - 0.5
    y[2, 3] = np.nan
    with pytest.raises(SingularMatrixError):
        kron_reduce(y, [0, 1])


def test_participation_single_source():
    case = single_bus_single_gen()
    aug = augment_internal_nodes(build_ybus(case), case)
    d = frequency_participation(aug, case.n_bus)
    assert d.shape == (1, 1)
    assert d[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_participation_symmetric_pair():
    case = parse_case(
        json.dumps(
            {
                "base_mva": 100.0,
                "buses": [
                    {"id": 1, "kind": "slack", "v_set": 1.0},
                    {"id": 2, "kind": "pv", "v_set": 1.0},
                ],
                "branches": [{"from_bus": 1, "to_bus": 2, "x": 0.4}],
                "generators": [
                    {"bus": 1, "h": 3.0, "xd_p": 0.2},
                    {"bus": 2, "h": 3.0, "xd_p": 0.2},
                ],
            }
        )
    )
    aug = augment_internal_nodes(build_ybus(case), case)
    d = frequency_participation(aug, case.n_bus)
    # Oracle: direct 2x2 inversion of the bus susceptance block.
    b_ext = aug[:2, :2].imag
    b_g = aug[:2, 2:].imag
    expected = -np.linalg.inv(b_ext) @ b_g
    assert np.allclose(d, expected, atol=1e-13)
    a = d[0, 0]
    assert 0.5 < a <= 1.0
    assert d[0, 1] == pytest.approx(1.0 - a, abs=1e-12)
    assert d[1, 0] == pytest.approx(1.0 - a, abs=1e-12)
    assert d[1, 1] == pytest.approx(a, abs=1e-12)
    assert np.allclose(d.sum(axis=1), 1.0, atol=1e-12)


def test_participation_row_sums_lossless_nine_bus():
    d = get_analysis("case9_lossless").participation
    assert np.allclose(d.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_internal_nodes_follow_the_buses(name):
    # Row order: the buses in case order, then machine k at n_bus + k, wired
    # to its terminal row alone through -1/(j xd_p).
    case = get_case(name)
    n = case.n_bus
    aug = augment_internal_nodes(build_ybus(case), case)
    rows = bus_positions(case)
    for k, gen in enumerate(case.generators):
        t = rows[gen.bus]
        assert aug[n + k, t] == aug[t, n + k] == -1 / (1j * gen.xd_p)
        assert np.count_nonzero(aug[n + k]) == 2
    expected = -np.linalg.inv(aug[:n, :n].imag) @ aug[:n, n:].imag
    assert np.allclose(frequency_participation(aug, n), expected, atol=1e-12)


def _susceptance_network(n, edges):
    # Pure-susceptance admittance over n nodes, edges (i, j, b).
    y = np.zeros((n, n), dtype=complex)
    for i, j, b in edges:
        y[i, j] += 1j * b
        y[j, i] += 1j * b
        y[i, i] -= 1j * b
        y[j, j] -= 1j * b
    return y


@pytest.mark.parametrize("tie", [1e-13, 0.0], ids=["ill-conditioned", "singular"])
def test_island_blocks_are_rejected_without_warnings(tie):
    # Buses 3 and 4 form an island held to bus 2 by a tie of susceptance
    # `tie`; the last node is a machine's internal node behind bus 1.
    y = _susceptance_network(5, [(0, 1, 1.0), (1, 2, tie), (2, 3, 1.0), (0, 4, 5.0)])
    island, b_ext = y[2:4, 2:4], y[:4, :4].imag
    assert np.linalg.cond(island) > 1e12 and np.linalg.cond(b_ext) > 1e12
    if tie:  # ill-conditioned, but LU meets no exact zero pivot
        np.linalg.solve(island, np.eye(2))
        np.linalg.solve(b_ext, np.eye(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="isolated subnetwork"):
            kron_reduce(y, [0, 1, 4])
        with pytest.raises(SingularMatrixError, match="B_ext"):
            frequency_participation(y, 4)


def _assert_solves(x, a, b):
    # x comes from one solve against [b | probes]: its columns must match a
    # solve against b alone.
    ref = np.linalg.solve(a, b)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def _gecon_rcond(a):
    # LAPACK's 1-norm reciprocal condition estimate, the check _solve made
    # before it moved to numpy.
    from scipy.linalg.lapack import get_lapack_funcs

    getrf, gecon = get_lapack_funcs(("getrf", "gecon"), (a,))
    lu, _, info = getrf(a)
    return 0.0 if info else gecon(lu, np.linalg.norm(a, 1), norm="1")[0]


def _program_blocks(monkeypatch):
    # Every (a, b, message) _solve factors for the bundled cases: B_ext, the
    # per-bus nodal inertia reductions and the injection reduction at every
    # bus.
    blocks = []
    solve = reduction._solve

    def spy(a, b, message):
        blocks.append((a.copy(), b.copy(), message))
        return solve(a, b, message)

    with monkeypatch.context() as patch:
        patch.setattr(reduction, "_solve", spy)
        for name in FIXTURE_NAMES:
            analysis = analyze_case(get_case(name))
            analysis.inertia  # its reductions run on first read
            model = build_swing_model(analysis)
            for row in range(analysis.case.n_bus):
                _injection_reduction(model, row)
    return blocks


def test_program_blocks_pass_the_condition_check_without_the_exact_fallback(monkeypatch):
    blocks = _program_blocks(monkeypatch)
    conds = [np.linalg.cond(a, 1) for a, _, _ in blocks]
    # One B_ext per case, and one inertia and one injection reduction per bus.
    assert len(blocks) == sum(1 + 2 * get_case(name).n_bus for name in FIXTURE_NAMES)
    assert max(conds) < 1e4
    assert all(_gecon_rcond(a) > 1.0 / reduction._COND_LIMIT for a, _, _ in blocks)

    def no_inverse(a):
        raise AssertionError("the exact condition number was computed")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    for a, b, message in blocks:
        _assert_solves(reduction._solve(a, b, message), a, b)


def _haar(rng, n, complex_):
    z = rng.standard_normal((n, n))
    if complex_:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 4, 9, 30, 120, 220])
def test_condition_check_rejects_whatever_gecon_puts_past_the_limit(n, complex_):
    # U diag(s) V^H with 2-norm condition number kappa in [1e9, 1e15] (the
    # 1-norm one is within a factor n of it), graded singular values or one
    # small one, at scales 1e-3 ... 1e3.  The probe bound is at most a few
    # hundred below the exact value here, well inside the 1e4 margin, so
    # exactly the matrices whose exact 1-norm condition number passes the
    # limit are rejected; LAPACK's estimate, a lower bound too, may fall
    # short of it.
    rng = np.random.default_rng([n, int(complex_)])
    for graded in (True, False) * 6:
        kappa = 10 ** rng.uniform(9, 15)
        s = np.geomspace(1.0, 1.0 / kappa, n) if graded else np.r_[np.ones(n - 1), 1 / kappa]
        a = (_haar(rng, n, complex_) * s) @ _haar(rng, n, complex_).conj().T
        a *= 10 ** rng.uniform(-3, 3)
        b = rng.standard_normal((n, 2)).astype(a.dtype)
        past_limit = np.linalg.cond(a, 1) > reduction._COND_LIMIT
        if past_limit or _gecon_rcond(a) < 1.0 / reduction._COND_LIMIT:
            assert past_limit
            with pytest.raises(SingularMatrixError, match="msg"):
                reduction._solve(a, b, "msg")
        else:
            _assert_solves(reduction._solve(a, b, "msg"), a, b)
