"""IFD metric, aggregation, and the Monte Carlo driver."""

import math
import pickle
import weakref
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridgfv import OuParams, RunConfig, ifd, montecarlo, run_monte_carlo, summarize
from gridgfv.case_model import bus_ids
from gridgfv.dynamics import Trajectory, TurbineParams, build_swing_model, simulate
from gridgfv.errors import SimulationUnstableError
from gridgfv.montecarlo import _histogram, _one_span
from gridgfv.pipeline import analyze_case

from conftest import FIXTURE_NAMES, SYNTH120, get_analysis, get_case
from references import (expected_ifd, ifd_variance_bound, impulse_responses,
                        linearization_error, series_moments)


def fake_trajectory(bus_freq):
    bus_freq = np.asarray(bus_freq, dtype=float)
    n_t = bus_freq.shape[1]
    return Trajectory(
        t=np.arange(n_t) * 0.01,
        gen_freq=np.zeros((1, n_t)),
        bus_freq=bus_freq,
        coi_freq=np.zeros(n_t),
    )


def test_ifd_zero_for_nominal():
    assert ifd(fake_trajectory(np.zeros((3, 10)))) == 0.0


def test_ifd_small_arithmetic():
    traj = fake_trajectory(np.full((2, 3), 1e-3))
    assert ifd(traj) == pytest.approx(0.006, rel=1e-12)


@given(
    arrays(
        np.float64,
        (4, 25),
        elements=st.floats(-0.1, 0.1, allow_nan=False),
    )
)
@settings(max_examples=50, deadline=None)
def test_ifd_matches_brute_force(bus_freq):
    traj = fake_trajectory(bus_freq)
    total = 0.0
    for i in range(bus_freq.shape[0]):
        for k in range(bus_freq.shape[1]):
            total += abs(bus_freq[i, k])
    assert ifd(traj) == pytest.approx(total, abs=1e-12)
    assert ifd(traj) >= 0.0
    assert (ifd(traj) == 0.0) == bool(np.all(bus_freq == 0.0))


@given(
    arrays(
        np.float64,
        (4, 25),
        elements=st.floats(-0.1, 0.1, allow_nan=False),
    )
)
@settings(max_examples=50, deadline=None)
def test_the_loop_takes_the_ifd_of_montecarlo_ifd_bit_for_bit(bus_freq):
    # _one_span takes each IFD in place, in its span's work buffer;
    # montecarlo.ifd stays the definition that it must match.
    def write(model, row, dp, dt, out=None):
        out[...] = bus_freq
        return fake_trajectory(out)

    cfg = RunConfig(horizon=0.24, dt=0.01)
    model = SimpleNamespace(participation=np.zeros((4, 1)))
    slots = np.zeros((1, 2, 1, 25))
    with mock.patch.object(montecarlo, "simulate", write):
        (got,) = _one_span(cfg, model, (0, 2), slots, np.zeros((1, 25)), 1, range(1))
    assert got.hex() == ifd(fake_trajectory(bus_freq)).hex()


def _samples(ifd_values, series):
    """summarize's outcomes and (COI, POI) series, both series equal."""
    return list(ifd_values), np.array([series, series], dtype=float)


def test_summarize_single_sample_degenerate():
    stats = summarize(1, *_samples([2.5], [np.zeros(4)]), bins=10)
    q = stats.ifd_quartiles
    assert q.q1 == q.median == q.q3 == 2.5
    assert q.whisker_low == q.whisker_high == 2.5
    assert list(stats.coi_histogram.counts) == [4]
    assert list(stats.coi_histogram.edges) == [0.0, 0.0]


def test_summarize_five_point_quartiles():
    s = summarize(
        1, *_samples([1.0, 2.0, 3.0, 4.0, 5.0], [np.zeros(2)] * 5), bins=4
    )
    q = s.ifd_quartiles
    assert (q.q1, q.median, q.q3) == (2.0, 3.0, 4.0)
    assert q.whisker_low == 1.0  # clamped to the data range
    assert q.whisker_high == 5.0


def test_summarize_normal_quantiles():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(10**4)
    s = summarize(1, *_samples(values.tolist(), [values]), bins=50)
    q = s.ifd_quartiles
    assert abs(q.median) < 0.05
    iqr = q.q3 - q.q1
    assert abs(iqr - 1.349) < 0.05 * 1.349


def test_histogram_conserves_counts():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(5000)
    hist = _histogram(samples, 50)
    assert hist.counts.sum() == 5000
    assert len(hist.edges) == 51


def test_single_deterministic_realization():
    # b = 0 keeps the wind at the reference speed: nothing moves.
    case = get_case("case7_study")
    cfg = RunConfig(
        n_realizations=1,
        horizon=2.0,
        dt=0.01,
        ou=OuParams(mu=14.0, alpha=0.1, b=0.0),
        turbine=TurbineParams(rated_power=1.0, v_rated=15.0, v_ref=14.0),
        seed=5,
    )
    summary = run_monte_carlo(case, (3,), cfg, workers=1)
    stats = summary[3]
    assert stats.ifd_samples.tolist() == [0.0]
    assert list(stats.coi_histogram.counts) == [201]
    assert not stats.failures


def test_identical_seed_identical_summary():
    case = get_case("case7_study")
    cfg = RunConfig(n_realizations=6, horizon=3.0, dt=0.01, seed=17)
    a = run_monte_carlo(case, (3, 5), cfg, workers=1)
    b = run_monte_carlo(case, (3, 5), cfg, workers=1)
    for bus in (3, 5):
        assert np.array_equal(
            a[bus].ifd_samples, b[bus].ifd_samples
        )
        assert np.array_equal(
            a[bus].coi_histogram.counts,
            b[bus].coi_histogram.counts,
        )


def test_worker_count_does_not_change_results():
    case = get_case("case7_study")
    cfg = RunConfig(n_realizations=6, horizon=2.0, dt=0.01, seed=23)
    serial = run_monte_carlo(case, (3, 7), cfg, workers=1)
    pooled = run_monte_carlo(case, (3, 7), cfg, workers=3)
    for bus in (3, 7):
        assert np.array_equal(
            serial[bus].ifd_samples, pooled[bus].ifd_samples
        )
        assert np.array_equal(
            serial[bus].poi_histogram.counts,
            pooled[bus].poi_histogram.counts,
        )
        assert_same_stats(serial[bus], pooled[bus])


def assert_same_stats(a, b):
    for hist in ("coi_histogram", "poi_histogram"):
        assert np.array_equal(getattr(a, hist).edges, getattr(b, hist).edges)
        assert np.array_equal(getattr(a, hist).counts, getattr(b, hist).counts)
    assert np.array_equal(a.ifd_samples, b.ifd_samples)
    assert (a.coi_std, a.poi_std, a.failures) == (b.coi_std, b.poi_std, b.failures)


@pytest.mark.parametrize("buses", [(3,), (3, 7), (3, 5, 7)])
def test_partial_runs_agree_across_worker_counts(monkeypatch, buses):
    # The failing (realization, bus) pairs are picked from the wind data, not
    # from call order, so forked workers, which inherit the patch, fail the
    # same ones as the serial run.  One, two and three buses run with one
    # slot and no kept wind, one slot and the wind, and two slots.
    simulate = montecarlo.simulate

    def flaky(model, row, dp, dt, out=None):
        if dp[row] > dp[0]:
            raise SimulationUnstableError("non-finite state (injected)")
        return simulate(model, row, dp, dt, out=out)

    monkeypatch.setattr(montecarlo, "simulate", flaky)
    case = get_case("case7_study")
    cfg = RunConfig(n_realizations=8, horizon=1.0, dt=0.01, seed=29)
    serial = run_monte_carlo(case, buses, cfg, workers=1)
    pooled = run_monte_carlo(case, buses, cfg, workers=2)
    assert any(s.failures for s in serial.values())
    assert any(s.failures for s in pooled.values())
    for stats in (*serial.values(), *pooled.values()):
        assert len(stats.ifd_samples) + len(stats.failures) == 8
    failed = {bus: {f.split(":")[0] for f in serial[bus].failures}
              for bus in buses}
    if 7 in buses:
        assert failed[3] != failed[7]  # some realization fails at one bus only
    for bus in buses:
        a, b = serial[bus], pooled[bus]
        assert 0 < len(a.failures) < 8
        assert_same_stats(a, b)
        n_ok = len(a.ifd_samples)
        assert n_ok + len(a.failures) == 8
        assert a.coi_histogram.counts.sum() == n_ok * (cfg.n_steps + 1)
        assert a.poi_histogram.counts.sum() == n_ok * (cfg.n_steps + 1)


def test_placement_order_changes_no_bus_statistics():
    # Common random numbers, and each bus simulated on its own: listing the
    # placement buses in another order reorders the summary only.  The CLI
    # sorts --buses itself, so this calls the library.
    case = get_case("case7_study")
    cfg = RunConfig(n_realizations=6, horizon=5.0, seed=3)
    ordered = run_monte_carlo(case, (3, 5, 7), cfg, workers=2)
    rotated = run_monte_carlo(case, (7, 3, 5), cfg, workers=2)
    assert list(rotated) == [7, 3, 5]
    for bus in (3, 5, 7):
        a, b = ordered[bus], rotated[bus]
        assert_same_stats(a, b)
        assert a.ifd_quartiles == b.ifd_quartiles


# A wind-speed std s = b / sqrt(2 alpha) of 0.01 m/s: the rated speed lies
# 100 stds above the mean, so the turbine's clamp does not act, and the part
# of the cubic law beyond its linearization stays small (linearization_error).
# A correlation time of 0.1 s and a damping of 100 pu make each 20 s
# realization hold many independent stretches of frequency.
ORACLE_RUN = RunConfig(n_realizations=100, horizon=20.0, dt=0.02, damping=100.0, seed=11,
                       ou=OuParams(mu=14.0, alpha=10.0, b=0.01 * math.sqrt(20.0)),
                       turbine=TurbineParams(rated_power=1.0, v_rated=15.0, v_ref=14.0))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_the_statistics_agree_with_the_second_moment_oracle(name):
    # The linearized model's statistics at every bus, from two simulate
    # calls and no sampling (tests/references.py), against a seeded run.
    # Each bound is z = 5 standard errors of the N realizations' means, from
    # the exact variances of one realization's statistics; the correlation
    # time of the response (the OU's 1 / alpha and the swing model's) sets
    # these.  Plus z times the RMS the linearization leaves out.
    case, cfg, z = get_case(name), ORACLE_RUN, 5.0
    n, n_t = cfg.n_realizations, cfg.n_steps + 1
    summary = run_monte_carlo(case, bus_ids(case), cfg, workers=2)
    model = build_swing_model(analyze_case(case), cfg.damping)
    for row, bus in enumerate(bus_ids(case)):
        f, g = impulse_responses(model, row, cfg)
        stats = summary[bus]
        # E|y| = sqrt(2/pi) sd(y) per sample; Var[IFD] from ifd_variance_bound.
        tol = (z * math.sqrt(ifd_variance_bound(f) / n)
               + z * n_t * linearization_error(g.bus_freq, cfg).sum())
        assert abs(stats.ifd_samples.mean() - expected_ifd(f)) <= tol, bus
        # The pooled std: mean y^2 and the mean y of the pooled samples
        # deviate by z standard errors at most, and |s - s_lin| is at most
        # the pooled RMS of the left-out part.
        for got, f_k, g_k in ((stats.coi_std, f.coi_freq, g.coi_freq),
                              (stats.poi_std, f.bus_freq[row], g.bus_freq[row])):
            m2, var_q, var_mean = series_moments(f_k)
            tol = ((z * math.sqrt(var_q / n) + z * z * var_mean / n) / math.sqrt(m2)
                   + z * linearization_error(g_k, cfg))
            assert abs(got - math.sqrt(m2)) <= tol, bus


_SHORT_RUN = RunConfig(n_realizations=2, horizon=0.5, seed=3)


@lru_cache(maxsize=None)
def _alone(bus):
    return run_monte_carlo(get_case("case7_study"), (bus,), _SHORT_RUN, workers=1)[bus]


@settings(derandomize=True, deadline=None, max_examples=10)
@given(buses=st.lists(st.sampled_from(bus_ids(get_case("case7_study"))), min_size=1,
                      unique=True))
def test_every_bus_of_a_drawn_placement_gets_its_statistics_alone(buses):
    # Common random numbers: whatever placement buses run with it, and in
    # whatever order, a bus's statistics are the bytes of that bus alone.
    summary = run_monte_carlo(get_case("case7_study"), buses, _SHORT_RUN, workers=1)
    assert list(summary) == buses
    for bus in buses:
        assert_same_stats(summary[bus], _alone(bus))
        assert summary[bus].ifd_quartiles == _alone(bus).ifd_quartiles


def test_a_task_returns_one_scalar_per_realization():
    # What a pool worker sends back for one bus and a span of realizations:
    # an IFD or a failure message per realization; the series stay in the
    # shared slots.  The first bus draws the wind that the later ones replay.
    cfg = RunConfig(horizon=50.0, dt=0.01, seed=3)
    model = build_swing_model(analyze_case(get_case("case7_study")), cfg.damping)
    rows = tuple(montecarlo.placement_rows(get_case("case7_study"), (3, 4, 5)).values())
    slots = np.zeros((2, 2, 3, cfg.n_steps + 1))
    wind = np.zeros((3, cfg.n_steps + 1))
    for k in range(3):
        results = _one_span(cfg, model, rows, slots, wind, k, range(1, 3))
        assert [type(r) for r in results] == [float] * 2
        assert len(pickle.dumps(results)) < 1024
        assert np.all(slots[k % 2, :, 1:, 1:] != 0.0)  # every series was written
        assert np.all(slots[k % 2, :, 0] == 0.0)  # and no other realization's
    # The wind starts at the reference speed, where the power deviation is 0.
    assert np.all(wind[1:, 1:] != 0.0) and np.all(wind[0] == 0.0)


@pytest.mark.parametrize("name", ["case7_study", SYNTH120])
def test_spans_on_one_model_give_the_bytes_of_fresh_models(name):
    # One model runs two buses over two spans each, and each span writes
    # every realization's bus_freq into its one work buffer and takes the IFD
    # there.  At SYNTH120's 12 machines the stored input map is 792 columns
    # wide.
    case, analysis = get_case(name), get_analysis(name)
    cfg = RunConfig(n_realizations=4, horizon=1.0, dt=0.01, seed=11)
    model = build_swing_model(analysis, cfg.damping)
    rows = (1, case.n_bus - 1)
    slots = np.zeros((1, 2, 4, cfg.n_steps + 1))
    wind = np.zeros((4, cfg.n_steps + 1))
    for k, row in enumerate(rows):
        results = [x for span in (range(2), range(2, 4))
                   for x in _one_span(cfg, model, rows, slots, wind, k, span)]
        for r in range(4):
            want = simulate(build_swing_model(analysis, cfg.damping), row, wind[r], cfg.dt)
            assert results[r] == ifd(want), (k, r)
            assert slots[0, 0, r].tobytes() == want.coi_freq.tobytes(), (k, r)
            assert slots[0, 1, r].tobytes() == want.bus_freq[row].tobytes(), (k, r)


@pytest.fixture
def mappings(monkeypatch):
    """Every mapping montecarlo makes, in order."""
    made = []
    real = montecarlo.mmap.mmap

    def recording_mmap(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(montecarlo, "mmap", SimpleNamespace(mmap=recording_mmap))
    return made


def test_the_series_mapping_is_released_before_the_run_returns(mappings):
    cfg = RunConfig(n_realizations=4, horizon=0.5, dt=0.01, seed=4)
    for workers in (1, 2):
        run_monte_carlo(get_case("case7_study"), (3, 5), cfg, workers=workers)
        released = weakref.ref(mappings.pop())
        assert released() is None


@pytest.mark.parametrize("n_buses, blocks", [(1, 2), (2, 3), (3, 5), (5, 5)])
def test_the_series_mapping_holds_two_buses_at_most(mappings, n_buses, blocks):
    # Blocks of n * (n_steps + 1) float64s: the COI and POI series of one bus,
    # or of two from three buses on, plus the wind power series that the
    # first bus draws when another bus replays it.
    cfg = RunConfig(n_realizations=4, horizon=0.5, dt=0.01, seed=4)
    block = 8 * cfg.n_realizations * (cfg.n_steps + 1)
    run_monte_carlo(get_case("case7_study"), (3, 4, 5, 6, 7)[:n_buses], cfg, workers=2)
    (mapping,) = mappings
    assert len(mapping) == blocks * block <= 2 * n_buses * block


def test_symmetric_placements_equivalent():
    # Buses 2 and 4 are exchangeable by the network automorphism, and the
    # common-random-number stream feeds both the same wind paths, so the
    # two placements must agree to numerical reduction error.
    case = get_case("case4_sym")
    cfg = RunConfig(n_realizations=10, horizon=5.0, dt=0.01, seed=31)
    s = run_monte_carlo(case, (2, 4), cfg, workers=1)
    a, b = s[2], s[4]
    assert np.allclose(a.ifd_samples, b.ifd_samples, rtol=1e-9)
    assert a.ifd_quartiles.median == pytest.approx(b.ifd_quartiles.median, rel=1e-9)
    assert a.poi_std == pytest.approx(b.poi_std, rel=1e-9)
    assert a.coi_std == pytest.approx(b.coi_std, rel=1e-9)


def test_diffusion_scaling_raises_ifd():
    case = get_case("case7_study")
    common = dict(n_realizations=8, horizon=5.0, dt=0.01, seed=2)
    small = run_monte_carlo(
        case, (3, 5), RunConfig(ou=OuParams(b=0.05), **common), workers=1
    )
    large = run_monte_carlo(
        case, (3, 5), RunConfig(ou=OuParams(b=0.1), **common), workers=1
    )
    for bus in (3, 5):
        assert (
            large[bus].ifd_quartiles.median
            > small[bus].ifd_quartiles.median
        )


def test_histogram_counts_pool_all_samples():
    case = get_case("case7_study")
    n, horizon, dt = 4, 2.0, 0.01
    cfg = RunConfig(n_realizations=n, horizon=horizon, dt=dt, seed=13)
    s = run_monte_carlo(case, (5,), cfg, workers=1)
    samples_per_run = int(round(horizon / dt)) + 1
    assert s[5].coi_histogram.counts.sum() == n * samples_per_run
    assert s[5].poi_histogram.counts.sum() == n * samples_per_run


def test_unknown_placement_bus_rejected():
    case = get_case("case7_study")
    with pytest.raises(Exception, match="placement buses"):
        run_monte_carlo(case, (99,), RunConfig(n_realizations=1))


def test_a_study_without_placement_buses_is_refused():
    with pytest.raises(ValueError, match="at least one placement bus is required"):
        run_monte_carlo(get_case("case7_study"), (), RunConfig(n_realizations=1))


@pytest.mark.parametrize("horizon, dt", [(0.001, 0.01), (0.005, 0.01), (1e300, 1e-10),
                                         (1.0, 0.0), (-1.0, 0.01)])
def test_horizon_must_cover_at_least_one_step(horizon, dt):
    with pytest.raises(ValueError, match="at least one step"):
        RunConfig(horizon=horizon, dt=dt)


def test_failed_realizations_mark_summary_partial():
    # A step size far beyond the stability limit blows the integration up;
    # the failures are recorded per realization instead of aborting the run.
    case = get_case("case7_study")
    cfg = RunConfig(n_realizations=3, horizon=400.0, dt=1.0, seed=1)
    with pytest.raises(ValueError, match="no successful realizations"):
        run_monte_carlo(case, (3,), cfg, workers=1)


def test_recorded_failures_mark_summary_partial():
    # Realization 1 failed: its column holds what its slot held, 1e9, and
    # must not enter any pooled statistic.
    outcomes = [1.0, "realization 1: non-finite state", 2.0]
    series = np.array([[[0.0, 1.0, 2.0], [1e9] * 3, [3.0, 4.0, 5.0]],
                       [[5.0, 7.0, 6.0], [1e9] * 3, [8.0, 9.0, 4.0]]])
    s = summarize(1, outcomes, series, bins=4)
    kept = series[:, [0, 2]]
    assert s.failures == ("realization 1: non-finite state",)
    assert s.ifd_samples.tolist() == [1.0, 2.0]
    assert s.ifd_realizations.tolist() == [0, 2]
    assert s.coi_histogram.edges.tolist() == [0.0, 1.25, 2.5, 3.75, 5.0]
    assert s.poi_histogram.edges.tolist() == [4.0, 5.25, 6.5, 7.75, 9.0]
    assert s.coi_histogram.counts.sum() == s.poi_histogram.counts.sum() == 6
    assert (s.coi_std, s.poi_std) == (kept[0].std(), kept[1].std())


def test_kept_poi_series_share_no_memory_with_trajectories(monkeypatch):
    # A row view would keep each realization's whole (n_bus, n_t) bus_freq
    # alive until the summary is made.
    trajectories, kept = [], []
    simulate, summarize_ = montecarlo.simulate, montecarlo.summarize

    def recording_simulate(*args, out=None):
        trajectories.append(simulate(*args, out=out))
        return trajectories[-1]

    def recording_summarize(bus, outcomes, series, bins):
        kept.extend(series[1])
        return summarize_(bus, outcomes, series, bins)

    monkeypatch.setattr(montecarlo, "simulate", recording_simulate)
    monkeypatch.setattr(montecarlo, "summarize", recording_summarize)
    cfg = RunConfig(n_realizations=2, horizon=0.5, dt=0.01)
    run_monte_carlo(get_case("case7_study"), (3, 5), cfg, workers=1)
    assert len(kept) == len(trajectories) == 4
    assert not any(np.shares_memory(series, traj.bus_freq)
                   for series in kept for traj in trajectories)


def test_a_serial_run_keeps_the_propagator_of_one_placement_bus(monkeypatch):
    # The run finishes a bus before it starts the next, so its swing model
    # keeps the last bus's propagator alone: 1088 n_gen^2 + 34,320 n_gen
    # bytes, 112,752 at 3 machines.
    models = []

    def recording_build(*args):
        models.append(build_swing_model(*args))
        return models[-1]

    monkeypatch.setattr(montecarlo, "build_swing_model", recording_build)
    cfg = RunConfig(n_realizations=3, horizon=0.5, dt=0.01)
    run_monte_carlo(get_case("case7_study"), (3, 4, 5, 7), cfg, workers=1)
    (model,) = models
    (entry,) = model._propagators.values()
    assert sum(a.nbytes for a in entry) == 112_752


def test_impossible_bins_fail_before_any_simulation(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the case was analyzed")

    monkeypatch.setattr(montecarlo, "analyze_case", unreachable)
    cfg = RunConfig(n_realizations=1000, horizon=200.0, bins=2**63 - 1)
    with pytest.raises(MemoryError, match=r"^Unable to allocate a histogram of \d+ bins$"):
        run_monte_carlo(get_case("case7_study"), [3], cfg)
