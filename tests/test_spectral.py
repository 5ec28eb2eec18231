"""Laplacian, Fiedler analysis, nodal inertia, and the generalized problem."""

import errno
import json
import math
import os
import signal
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gridgfv import (
    DisconnectedNetworkError,
    NumericalError,
    SingularMatrixError,
    StabilityRegionError,
    analyze_case,
    augment_internal_nodes,
    build_laplacian,
    build_ybus,
    eigendecompose,
    fiedler,
    frequency_participation,
    gfv,
    internal_emfs,
    kron_reduce,
    load_case,
    nodal_inertia,
    parse_case,
    solve_gep,
    solve_powerflow,
)
from gridgfv import spectral
from gridgfv.case_model import bus_ids

from conftest import (
    FIXTURE_NAMES,
    SYNTH120,
    assert_no_child_left,
    fixture_path,
    get_analysis,
    get_case,
    synth_case_bytes,
)
from references import one_inverse_inertia, per_branch_laplacian, per_bus_inertia


def flat_laplacian(case, va=None):
    """The bus Laplacian of case at |V| = 1 and angles va (default 0)."""
    va = np.zeros(case.n_bus) if va is None else np.asarray(va, dtype=float)
    return build_laplacian(case, build_ybus(case), np.ones(case.n_bus), va)


def test_laplacian_two_bus_flat():
    case = get_case("case2")
    lap = flat_laplacian(case)
    assert np.allclose(lap, [[5.0, -5.0], [-5.0, 5.0]], atol=1e-14)


def test_laplacian_sixty_degree_spread():
    case = get_case("case2")
    lap = flat_laplacian(case, va=[0.0, -math.pi / 3])
    assert lap[0, 1] == pytest.approx(-2.5, abs=1e-12)


def test_laplacian_rejects_ninety_degree_branch():
    case = get_case("case2")
    message = (r"^angle spread 91\.7 deg between bus 1 and bus 2 reaches 90 deg "
               r"at the operating point$")
    with pytest.raises(StabilityRegionError, match=message):
        flat_laplacian(case, va=[0.0, -1.6])


def test_laplacian_nine_bus_rows_and_oracle():
    analysis = get_analysis("case9")
    lap = analysis.laplacian
    assert np.max(np.abs(lap.sum(axis=1))) <= 1e-10
    assert np.array_equal(lap, lap.T)
    assert np.allclose(lap, per_branch_laplacian(analysis.case, analysis.solution),
                       atol=1e-12)


@pytest.mark.parametrize("name", FIXTURE_NAMES + [SYNTH120])
def test_laplacian_equals_the_per_branch_loop(name):
    # Rounding bound.  Both formulas weigh a branch vm_i vm_j b cos(t_i - t_j).
    # The susceptance b (complex division in Ybus against x/(r^2+x^2)) and
    # the cosine (numpy against math) each differ by at most 2 eps, and the
    # three products round by eps/2 in each formula, so a weight differs by
    # at most 7 eps relative.  An entry sums at most d weights, d the most
    # branches at one bus, in another order, which adds (d - 1) eps of the
    # sum of their magnitudes: (d + 8) eps covers both.
    analysis = get_analysis(name)
    case = analysis.case
    reference = per_branch_laplacian(case, analysis.solution)
    ends = Counter(b for br in case.branches if br.status
                   for b in (br.from_bus, br.to_bus))
    weights = np.abs(reference - np.diag(np.diag(reference))).sum(axis=1).max()
    bound = (max(ends.values()) + 8) * np.finfo(float).eps * weights
    assert np.max(np.abs(analysis.laplacian - reference)) <= bound


def test_eigendecompose_two_bus():
    lap = np.array([[5.0, -5.0], [-5.0, 5.0]])
    decomp = eigendecompose(lap)
    assert np.allclose(decomp.eigenvalues, [0.0, 10.0], atol=1e-12)
    assert decomp.zero_multiplicity == 1
    ratio = decomp.eigenvectors[0, 1] / decomp.eigenvectors[1, 1]
    assert ratio == pytest.approx(-1.0, rel=1e-12)


def test_fiedler_two_bus():
    lap = np.array([[5.0, -5.0], [-5.0, 5.0]])
    res = fiedler(eigendecompose(lap))
    assert res.value == pytest.approx(10.0, rel=1e-12)
    assert np.allclose(res.vector, [1.0, 1.0], atol=1e-12)


def test_eigendecompose_path_graph_closed_form():
    # Unit-weight path of 4 nodes: eigenvalues 2 - 2 cos(k pi / 4).
    case = get_case("case4_path")
    lap = flat_laplacian(case)
    decomp = eigendecompose(lap)
    expected = [2 - 2 * math.cos(k * math.pi / 4) for k in range(4)]
    assert np.allclose(decomp.eigenvalues, expected, atol=1e-12)
    res = fiedler(decomp)
    assert res.value == pytest.approx(2 - math.sqrt(2), abs=1e-12)
    # Magnitudes fall monotonically from the ends toward the middle.
    v = res.vector
    assert v[0] == pytest.approx(1.0)
    assert v[0] > v[1] > 0 and v[3] > v[2] > 0


def test_zero_multiplicity_tracks_components():
    # Cross-module property: one zero eigenvalue per island.
    doc = {
        "base_mva": 100.0,
        "buses": [
            {"id": 1, "kind": "slack", "v_set": 1.0},
            {"id": 2, "kind": "pq"},
            {"id": 3, "kind": "pv", "v_set": 1.0},
            {"id": 4, "kind": "pq"},
        ],
        "branches": [
            {"from_bus": 1, "to_bus": 2, "x": 0.2},
            {"from_bus": 3, "to_bus": 4, "x": 0.2},
        ],
        "generators": [
            {"bus": 1, "h": 3.0, "xd_p": 0.2},
            {"bus": 3, "h": 3.0, "xd_p": 0.2},
        ],
    }
    case = parse_case(json.dumps(doc))
    lap = flat_laplacian(case)
    decomp = eigendecompose(lap)
    assert decomp.zero_multiplicity == 2
    with pytest.raises(DisconnectedNetworkError):
        fiedler(decomp)


def test_nodal_inertia_single_generator_exact():
    analysis = get_analysis("case2")
    h_gen = analysis.case.generators[0].h
    assert np.max(np.abs(analysis.inertia - h_gen)) <= 1e-10


def test_nodal_inertia_symmetric_three_bus():
    # Two identical machines either side of a middle bus, flat operating
    # point.  Direct evaluation of the nodal-inertia formula with the
    # hand-built participation row [1/2, 1/2] gives exactly 2H there.
    doc = {
        "base_mva": 100.0,
        "buses": [
            {"id": 1, "kind": "slack", "v_set": 1.0},
            {"id": 2, "kind": "pq"},
            {"id": 3, "kind": "pv", "v_set": 1.0},
        ],
        "branches": [
            {"from_bus": 1, "to_bus": 2, "x": 0.3},
            {"from_bus": 2, "to_bus": 3, "x": 0.3},
        ],
        "generators": [
            {"bus": 1, "h": 4.0, "xd_p": 0.2},
            {"bus": 3, "h": 4.0, "xd_p": 0.2},
        ],
    }
    case = parse_case(json.dumps(doc))
    sol = solve_powerflow(case)
    emfs = internal_emfs(case, sol)
    aug = augment_internal_nodes(build_ybus(case), case)
    part = frequency_participation(aug, case.n_bus)
    inertia = nodal_inertia(case, sol, emfs, part, aug)
    middle = 1  # bus 2

    assert part[middle, 0] == pytest.approx(0.5, abs=1e-12)
    reduced = kron_reduce(aug, [middle, 3, 4])
    b = reduced[1:, 0].imag
    terms = b * emfs.e_mag * np.cos(emfs.delta0 - sol.va[middle])
    by_hand = terms.sum() / np.sum(terms * np.array([0.5, 0.5]) / 4.0)
    assert inertia[middle] == pytest.approx(by_hand, rel=1e-12)
    assert inertia[middle] == pytest.approx(8.0, rel=1e-12)


def test_gep_identity_weight_reduces_to_standard():
    analysis = get_analysis("case9")
    lap = analysis.laplacian
    ones = np.ones(9)
    gep = solve_gep(lap, ones)
    std = eigendecompose(lap)
    assert np.allclose(gep.eigenvalues, std.eigenvalues, atol=1e-9)


def test_gep_uniform_weight_scales_spectrum():
    analysis = get_analysis("case9")
    lap = analysis.laplacian
    std = eigendecompose(lap)
    uniform = np.full(9, 4.0)
    gep = solve_gep(lap, uniform)
    assert np.allclose(gep.eigenvalues, std.eigenvalues / 4.0, atol=1e-9)


def test_gep_two_bus_pencil_oracle():
    # det(L - lambda N) = 0 for L = [[5,-5],[-5,5]], N = diag(1, 4):
    # 4 lambda^2 - 25 lambda = 0, so the nonzero root is 6.25 and the
    # eigenvector direction solves (L - 6.25 N) v = 0 as [1, -0.25].
    lap = np.array([[5.0, -5.0], [-5.0, 5.0]])
    inertia = np.array([1.0, 4.0])
    gep = solve_gep(lap, inertia)
    assert gep.eigenvalues[1] == pytest.approx(6.25, rel=1e-12)
    v = gep.eigenvectors[:, 1]
    assert v[1] / v[0] == pytest.approx(-0.25, rel=1e-10)
    result = gfv(gep)
    assert result.vector == pytest.approx([1.0, 0.25], rel=1e-10)
    assert result.value == pytest.approx(6.25, rel=1e-12)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_gep_residuals_on_fixtures(name):
    analysis = get_analysis(name)
    lap, gep = analysis.laplacian, analysis.gep
    n_mat = np.diag(analysis.inertia)
    norm_l = np.linalg.norm(lap, 2)
    for k in range(len(gep.eigenvalues)):
        v = gep.eigenvectors[:, k]
        res = np.linalg.norm(lap @ v - gep.eigenvalues[k] * (n_mat @ v))
        assert res <= 1e-8 * norm_l
    assert np.all(gep.eigenvalues >= -1e-9 * gep.eigenvalues.max())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_standard_eigen_residuals(name):
    decomp = eigendecompose(get_analysis(name).laplacian)
    lap = get_analysis(name).laplacian
    scale = max(decomp.eigenvalues.max(), 1e-30)
    for k in range(len(decomp.eigenvalues)):
        v = decomp.eigenvectors[:, k]
        res = np.linalg.norm(lap @ v - decomp.eigenvalues[k] * v)
        assert res <= 1e-8 * scale


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_homogeneity_collapse(name):
    # Uniform inertia folds the generalized problem back onto the plain
    # Fiedler analysis, with the spectrum scaled by 1/h.
    analysis = get_analysis(name)
    c = 2.5
    uniform = np.full(analysis.case.n_bus, c)
    gep = solve_gep(analysis.laplacian, uniform)
    result = gfv(gep)
    assert np.max(np.abs(result.vector - analysis.fiedler.vector)) <= 1e-9
    assert result.value == pytest.approx(
        analysis.fiedler.value / c, rel=1e-9
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_gfv_scale_invariance(name):
    analysis = get_analysis(name)
    scaled = analysis.inertia * 7.0
    gep = solve_gep(analysis.laplacian, scaled)
    result = gfv(gep)
    assert np.allclose(result.vector, analysis.gfv.vector, atol=1e-9)
    assert result.value == pytest.approx(
        analysis.gfv.value / 7.0, rel=1e-9
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_constant_vector_is_zero_mode(name):
    analysis = get_analysis(name)
    lap = analysis.laplacian
    ones = np.ones(lap.shape[0])
    scale = max(np.abs(analysis.gep.eigenvalues).max(), 1e-30)
    assert np.linalg.norm(lap @ ones) <= 1e-9 * max(np.linalg.norm(lap, 2), 1.0)
    assert abs(analysis.gep.eigenvalues[0]) <= 1e-9 * scale


def test_gfv_max_is_exactly_one():
    for name in FIXTURE_NAMES:
        vec = get_analysis(name).gfv.vector
        assert vec.max() == 1.0
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


def test_nodal_inertia_names_the_buses_of_non_positive_inertia():
    # Flipping two participation rows flips the sign of h at those buses.
    analysis = get_analysis("case9")
    flipped = analysis.participation.copy()
    flipped[[2, 4]] *= -1.0
    bad = [analysis.case.buses[2].id, analysis.case.buses[4].id]
    message = rf"^non-positive nodal inertia at buses \[{bad[0]}, {bad[1]}\]$"
    with pytest.raises(NumericalError, match=message):
        nodal_inertia(analysis.case, analysis.solution, analysis.emfs, flipped,
                      analysis.aug)


@pytest.mark.parametrize("name", FIXTURE_NAMES + [SYNTH120])
def test_nodal_inertia_equals_the_per_bus_loop(name):
    analysis = get_analysis(name)
    assert np.array_equal(analysis.inertia, per_bus_inertia(analysis))


@pytest.mark.parametrize("name", [name for name in FIXTURE_NAMES
                                  if get_case(name).n_gen > 1] + [SYNTH120])
def test_nodal_inertia_agrees_with_the_one_inverse_formula(name):
    analysis = get_analysis(name)
    np.testing.assert_allclose(analysis.inertia, one_inverse_inertia(analysis),
                               rtol=1e-12, atol=0.0)


def test_nodal_inertia_names_the_first_bus_of_zero_denominator():
    # A zero participation row zeroes the denominator at that bus.
    analysis = get_analysis("case9")
    zeroed = analysis.participation.copy()
    zeroed[[6, 3]] = 0.0
    bus = analysis.case.buses[3].id
    message = rf"^nodal inertia undefined at bus {bus}: denominator 0\.000e\+00 "
    with pytest.raises(NumericalError, match=message):
        nodal_inertia(analysis.case, analysis.solution, analysis.emfs, zeroed,
                      analysis.aug)


def _peak_bytes(call) -> int:
    """The peak of the memory tracemalloc traces while call runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nodal_inertia_holds_one_bus_reduction_at_a_time():
    # Each bus's row is copied out of its reduction, which is then freed.
    # Beyond one reduction, at most four (n_bus, n_gen) float arrays live at
    # once: b and up to three of the arrays and temporaries computed from it
    # (terms, weighted, |weighted|).  Keeping every reduction alive would add
    # a whole complex (n_gen + 1)^2 matrix per bus.
    a = get_analysis(SYNTH120)
    n, n_gen = a.case.n_bus, a.case.n_gen
    one = _peak_bytes(lambda: kron_reduce(a.aug, [0] + list(range(n, n + n_gen))))
    peak = _peak_bytes(lambda: nodal_inertia(a.case, a.solution, a.emfs,
                                             a.participation, a.aug))
    assert peak <= one + 4 * n * n_gen * 8


def _inertia(analysis, workers):
    return nodal_inertia(analysis.case, analysis.solution, analysis.emfs,
                         analysis.participation, analysis.aug, workers)


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made in this process."""
    calls = []
    real = os.fork

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_inertia_is_the_serial_bytes_on_synth120(workers, forks):
    # 120 buses in 3 spans of 40, or 2 of 60: each child fills its rows in the
    # shared mapping, and the parent the first span.
    analysis = get_analysis(SYNTH120)
    serial = _inertia(analysis, 1)
    assert not forks
    forked = _inertia(analysis, workers)
    assert len(forks) == workers - 1
    assert forked.tobytes() == serial.tobytes()
    assert_no_child_left()


SPAN = spectral.FORK_MIN_SPAN


@pytest.mark.parametrize("n_bus, workers, processes", [
    (2 * SPAN, 2, 2), (2 * SPAN - 1, 2, 1),  # the smallest case that forks, one bus fewer
    (3 * SPAN, 3, 3), (3 * SPAN - 1, 3, 2),
    (3 * SPAN - 1, 64, 2),  # far more workers than spans of FORK_MIN_SPAN buses
    (2 * SPAN, 0, 1), (2 * SPAN, -1, 1),  # no worker count below 1
])
def test_each_process_reduces_at_least_fork_min_span_buses(forks, n_bus, workers, processes):
    analysis = analyze_case(parse_case(synth_case_bytes(n_bus).decode()))
    forked = _inertia(analysis, workers)
    assert len(forks) == processes - 1
    assert forked.tobytes() == _inertia(analysis, 1).tobytes()
    assert_no_child_left()


@pytest.mark.parametrize("failing_fork", [1, 2])
def test_spans_without_a_process_are_reduced_here(monkeypatch, failing_fork):
    # os.fork raising (EAGAIN under a process limit) stops the forking; this
    # process reduces the spans that got no child.
    analysis = get_analysis(SYNTH120)
    serial = _inertia(analysis, 1)
    calls, real = [], os.fork

    def fork():
        calls.append(1)
        if len(calls) == failing_fork:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, "fork", fork)
    assert _inertia(analysis, 3).tobytes() == serial.tobytes()
    assert len(calls) == failing_fork
    assert_no_child_left()


@pytest.mark.parametrize("bus", [10, 100], ids=["parent-span", "child-span"])
def test_forked_inertia_raises_the_serial_error(monkeypatch, bus):
    # At 3 workers SYNTH120's spans are rows 0-39 (this process), 40-79 and
    # 80-119 (children).  A child that raises leaves its rows from that bus on
    # at 0; they are reduced again here, so the same exception is raised as
    # serially.
    analysis = get_analysis(SYNTH120)
    real = spectral.kron_reduce

    def reduce(y, keep):  # the forked children inherit this binding
        if keep[0] == bus:
            raise SingularMatrixError(f"injected failure at row {bus}")
        return real(y, keep)

    monkeypatch.setattr(spectral, "kron_reduce", reduce)
    with pytest.raises(SingularMatrixError) as serial:
        _inertia(analysis, 1)
    with pytest.raises(SingularMatrixError) as forked:
        _inertia(analysis, 3)
    assert str(forked.value) == str(serial.value) == f"injected failure at row {bus}"
    assert_no_child_left()


def test_children_are_killed_when_the_parent_span_is_interrupted(monkeypatch):
    # The children would sleep for 30 s in their first reduction and then
    # exit; an interrupt in this process's span kills them before they are
    # reaped.
    analysis = get_analysis(SYNTH120)
    real, parent = spectral.kron_reduce, os.getpid()

    def reduce(y, keep):
        if os.getpid() != parent:
            time.sleep(30)
            os._exit(0)
        if keep[0] == 5:
            raise KeyboardInterrupt
        return real(y, keep)

    monkeypatch.setattr(spectral, "kron_reduce", reduce)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _inertia(analysis, 3)
    assert time.monotonic() - start < 15
    assert_no_child_left()


def test_children_are_killed_when_the_wait_for_them_is_interrupted(monkeypatch):
    # This process reduces its 40 buses at once while the children sleep; an
    # alarm whose handler raises interrupts the wait for the first child, and
    # both children are killed and reaped before the interrupt propagates.
    analysis = get_analysis(SYNTH120)
    real, parent, reduced = spectral.kron_reduce, os.getpid(), []

    def reduce(y, keep):
        if os.getpid() != parent:
            time.sleep(30)
            os._exit(0)
        reduced.append(keep[0])
        return real(y, keep)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(spectral, "kron_reduce", reduce)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            _inertia(analysis, 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert reduced == list(range(40))  # the interrupt came in the wait
    assert time.monotonic() - start < 15
    assert_no_child_left()


def test_a_killed_child_span_is_reduced_again(monkeypatch):
    analysis = get_analysis(SYNTH120)
    serial = _inertia(analysis, 1)
    real, parent = spectral.kron_reduce, os.getpid()

    def reduce(y, keep):
        if keep[0] == 100 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(y, keep)

    monkeypatch.setattr(spectral, "kron_reduce", reduce)
    assert _inertia(analysis, 3).tobytes() == serial.tobytes()
    assert_no_child_left()


def test_a_row_a_killed_child_wrote_in_part_is_reduced_again(monkeypatch):
    # A kill in the middle of a row's copy leaves the row's first entries
    # written and the rest at 0: the child here writes row 99 so, then dies.
    analysis = get_analysis(SYNTH120)
    serial = _inertia(analysis, 1)
    real, parent = spectral.kron_reduce, os.getpid()

    def reduce(y, keep):
        if os.getpid() != parent and keep[0] == 100:
            os.kill(os.getpid(), signal.SIGKILL)
        reduced = real(y, keep)
        if os.getpid() != parent and keep[0] == 99:
            reduced[2:, 0] = 0  # only the first machine's entry is written
        return reduced

    monkeypatch.setattr(spectral, "kron_reduce", reduce)
    assert _inertia(analysis, 3).tobytes() == serial.tobytes()
    assert_no_child_left()


def test_gep_rejects_non_positive_inertia():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    bad = np.array([1.0, -2.0])
    with pytest.raises(Exception, match="non-positive"):
        solve_gep(lap, bad)


def test_degenerate_second_mode_is_flagged():
    # Uniform 4-cycle: the second and third eigenvalues coincide exactly.
    w = np.zeros((4, 4))
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
        w[i, j] = w[j, i] = 1.0
    lap = np.diag(w.sum(axis=1)) - w
    res = fiedler(eigendecompose(lap))
    assert res.degenerate
    uniform = np.ones(4)
    assert gfv(solve_gep(lap, uniform)).degenerate


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
def test_reference_68_bus_gfv_ordering():
    analysis = analyze_case(load_case(_reference_case_path()))
    at = dict(zip(bus_ids(analysis.case), analysis.gfv.vector))
    assert at[53] < at[61] < at[51] < at[20]
