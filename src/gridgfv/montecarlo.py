"""Monte Carlo study across candidate placement buses.

Each realization draws one wind-speed path and replays it at every placement
bus (common random numbers: the per-realization stream depends on the base
seed and realization index only, so placements are compared on identical
draws and adding a placement bus never perturbs the others).  Results are
deterministic for a given base seed regardless of how many workers run the
realizations.

The study runs bus by bus: the first bus draws the power series that later
buses replay, and each bus's COI and POI series fill one of two slots, which
the parent summarizes while the workers simulate the next bus.
A run simulates on one swing model, which keeps each placement bus's RK4
propagator after its first realization (in each worker), so later
realizations only reduce the network to the bus and apply it; the results
are the same bytes as with a fresh model per realization.

Frequency samples are recorded as deviations in pu from the nominal
frequency; nothing adds the nominal value back onto the series.
"""

from __future__ import annotations

import errno
import math
import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .case_model import NetworkCase, bus_positions
from .dynamics import (
    DEFAULT_DAMPING,
    OuParams,
    SwingModel,
    Trajectory,
    TurbineParams,
    build_swing_model,
    simulate,
    simulate_ou,
    wind_to_power,
)
from .errors import CaseError, GridGfvError, UnusableResultError
from .pipeline import operating_point
from .powerflow import PF_MAX_ITER, PF_TOL


@dataclass(frozen=True)
class RunConfig:
    """The run parameters of an analysis, a simulation or a Monte Carlo
    study, each with its default and range rule.  The fields are the keys of
    a --config file: ou and turbine are its sections of those names, and
    n_realizations, horizon, dt and bins sit in its section mc."""

    tol: float = PF_TOL
    max_iter: int = PF_MAX_ITER
    seed: int = 0
    damping: float = DEFAULT_DAMPING
    ou: OuParams = OuParams()
    turbine: TurbineParams = TurbineParams()
    n_realizations: int = 1000
    horizon: float = 200.0  # s
    dt: float = 0.01  # s
    bins: int = 50

    def __post_init__(self):
        for ok, rule in (
            (self.tol > 0, f"tol must be positive, got {self.tol}"),
            (self.dt > 0 and 0.5 < self.horizon / self.dt < math.inf,
             f"horizon must cover at least one step of dt and finitely many, "
             f"got horizon {self.horizon} and dt {self.dt}"),
            (self.max_iter >= 0, f"max_iter must be non-negative, got {self.max_iter}"),
            (self.seed >= 0, f"seed must be non-negative, got {self.seed}"),
            (self.n_realizations >= 1,
             f"n_realizations must be at least 1, got {self.n_realizations}"),
            (self.bins >= 1, f"bins must be at least 1, got {self.bins}"),
        ):
            if not ok:
                raise ValueError(rule)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class BoxStats:
    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float


@dataclass(frozen=True)
class PlacementSamples:
    """Raw per-bus collections, one entry (row) per successful realization."""

    ifd_values: tuple[float, ...]
    coi: np.ndarray  # (n_ok, n_t)
    poi: np.ndarray  # (n_ok, n_t)
    failures: tuple[str, ...]


@dataclass(frozen=True)
class PlacementStats:
    coi_histogram: Histogram
    poi_histogram: Histogram
    ifd_samples: np.ndarray
    ifd_quartiles: BoxStats
    coi_std: float
    poi_std: float
    failures: tuple[str, ...]


def ifd(traj: Trajectory) -> float:
    """Integral frequency deviation: sum over buses and samples of the
    absolute gap between bus frequency and nominal.  The trajectory stores
    deviations, so this is their plain absolute sum."""
    return float(np.abs(traj.bus_freq).sum())


def _histogram(samples: np.ndarray, bins: int) -> Histogram:
    lo, hi = float(samples.min()), float(samples.max())
    if lo == hi:
        return Histogram(edges=np.array([lo, hi]), counts=np.array([samples.size]))
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    return Histogram(edges=edges, counts=counts)


def _box_stats(values: np.ndarray) -> BoxStats:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    return BoxStats(q1, median, q3, whisker_low=max(q1 - 1.5 * iqr, float(values.min())),
                    whisker_high=min(q3 + 1.5 * iqr, float(values.max())))


def summarize(bus: int, group: PlacementSamples, bins: int = RunConfig.bins) -> PlacementStats:
    """The statistics of placement bus from its raw collections, group:
    histograms, boxplot quartiles and pooled standard deviations.  A bus with
    no successful realization is an UnusableResultError that names it.

    Histograms are equal-width over the pooled min/max per metric (a single
    degenerate bin when every sample coincides); whiskers sit at 1.5 IQR
    clamped to the data range, with all samples retained in ifd_samples.
    """
    if not group.ifd_values:
        first = f" ({group.failures[0]})" if group.failures else ""
        raise UnusableResultError(f"placement bus {bus} has no successful realizations{first}")
    coi_pool = group.coi.reshape(-1)
    poi_pool = group.poi.reshape(-1)
    ifd_arr = np.asarray(group.ifd_values)
    return PlacementStats(
        coi_histogram=_histogram(coi_pool, bins),
        poi_histogram=_histogram(poi_pool, bins),
        ifd_samples=ifd_arr,
        ifd_quartiles=_box_stats(ifd_arr),
        coi_std=float(coi_pool.std()),
        poi_std=float(poi_pool.std()),
        failures=group.failures,
    )


def _one_span(cfg: RunConfig, model: SwingModel, placements: tuple, slots: np.ndarray,
              wind: np.ndarray | None, k: int, span: range) -> list:
    """Bus k of placements, (bus, row of bus_freq) pairs, at each realization r
    of span: the IFD or failure message per r, the COI and POI series to
    slots[k % len(slots), :, r].  Bus 0 draws each power series, to wind[r]
    unless wind is None, and the later buses replay it from there."""
    bus, row = placements[k]
    results = []
    for r in span:
        # The seed is shared across placement buses: common random numbers.
        dp = wind[r] if k else wind_to_power(
            simulate_ou(cfg.ou, cfg.dt, cfg.n_steps, (cfg.seed, r)), cfg.turbine)
        if k == 0 and wind is not None:
            wind[r] = dp
        try:
            traj = simulate(model, bus, dp, cfg.dt)
        except GridGfvError as exc:
            results.append(f"realization {r}: {exc}")
            continue
        slots[k % len(slots), :, r] = traj.coi_freq, traj.bus_freq[row]
        results.append(ifd(traj))
    return results


_realize = None  # in a forked pool worker, the run's _one_span, set by _attach


def _attach(realize):
    global _realize
    _realize = realize


def _attached(k: int, span: range) -> list:
    return _realize(k, span)


def resolve_workers(workers: int | None, n_tasks: int) -> int:
    """workers, or GRID_GFV_THREADS when it is None, or all cores when that
    is unset or empty; at least 1 and at most n_tasks."""
    if workers is None:
        env = os.environ.get("GRID_GFV_THREADS")
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ValueError(f"GRID_GFV_THREADS must be an integer, got {env!r}") from None
    return max(1, min(workers, n_tasks))


def placement_rows(case: NetworkCase, buses) -> dict[int, int]:
    """Each placement bus, in the order given and once, with its row in the
    case's bus order; a CaseError names the buses the case lacks."""
    if not buses:
        raise ValueError("at least one placement bus is required")
    pos = bus_positions(case)
    missing = [b for b in buses if b not in pos]
    if missing:
        raise CaseError(f"placement buses not in case: {missing}")
    return {b: pos[b] for b in buses}


def run_monte_carlo(
    case: NetworkCase, buses, cfg: RunConfig = RunConfig(), workers: int | None = None
) -> dict[int, PlacementStats]:
    """Run the placement study of a validated case at buses, one bus after
    another: each bus's statistics, in placement order.  A bus none of whose
    realizations succeeded is an UnusableResultError.  The series mapping
    holds 8 n (n_steps + 1) bytes 2, 3 or 5 times, for 1, 2 or more buses.

    workers=None honors GRID_GFV_THREADS, else uses all available cores.
    """
    rows = placement_rows(case, buses)
    if (cfg.bins + 1) * 8 > np.iinfo(np.intp).max:  # numpy would fail with no MemoryError
        raise MemoryError(f"Unable to allocate a histogram of {cfg.bins} bins")
    op = operating_point(case, tol=cfg.tol, max_iter=cfg.max_iter)
    model = build_swing_model(op, cfg.damping)
    # The slots, then the wind, in an anonymous shared mapping that forked
    # workers write into; it is unmapped with the last view of it.  Bus k +
    # n_slots starts once bus k is summarized, bus 1 once bus 0 drew the wind.
    n, n_buses = cfg.n_realizations, len(rows)
    n_slots = 2 if n_buses >= 3 else 1
    shape = (2 * n_slots + (n_buses >= 2), n, cfg.n_steps + 1)
    try:
        series = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)
    except (OSError, OverflowError) as exc:  # OverflowError: past any ssize_t
        if getattr(exc, "errno", errno.ENOMEM) != errno.ENOMEM:
            raise
        raise MemoryError(f"Unable to map the COI/POI series of shape {shape}") from None
    slots = series[:2 * n_slots].reshape(n_slots, 2, *shape[1:])
    realize = partial(_one_span, cfg, model, tuple(rows.items()), slots,
                      series[-1] if n_buses >= 2 else None)
    n_workers = resolve_workers(workers, n)
    spans = [range(n * i // n_workers, n * (i + 1) // n_workers) for i in range(n_workers)]
    serial = n_workers == 1 or "fork" not in multiprocessing.get_all_start_methods()
    placements, pending = {}, []  # pending: per started bus, the calls for its results
    # Forked workers inherit realize, the series mapping with it, unpickled.
    with (nullcontext() if serial else ProcessPoolExecutor(
            n_workers, multiprocessing.get_context("fork"),
            initializer=_attach, initargs=(realize,))) as pool:
        def start(j):
            if j < n_buses:
                pending.append([partial(realize, j, span) if serial else
                                pool.submit(_attached, j, span).result for span in spans])

        start(0)
        for k, bus in enumerate(rows):
            per_bus = [r for result in pending.pop(0) for r in result()]
            if k == 0 and n_slots == 2:
                start(1)
            ok = [not isinstance(r, str) for r in per_bus]
            kept = slots[k % n_slots]
            kept = kept if all(ok) else kept[:, ok]  # a view unless some failed
            placements[bus] = summarize(bus, PlacementSamples(
                ifd_values=tuple(r for r in per_bus if not isinstance(r, str)),
                coi=kept[0], poi=kept[1],
                failures=tuple(r for r in per_bus if isinstance(r, str))), bins=cfg.bins)
            start(k + n_slots)
    return placements
