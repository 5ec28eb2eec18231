"""Monte Carlo study across candidate placement buses.

Each realization draws one wind-speed path and replays it at every placement
bus (common random numbers: the per-realization stream depends on the base
seed and realization index only, so placements are compared on identical
draws and adding a placement bus never perturbs the others).  Results are
deterministic for a given base seed regardless of how many workers run the
realizations.

Frequency samples are recorded as deviations in pu from the nominal
frequency; nothing adds the nominal value back onto the series.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
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
from .errors import GridGfvError, UnusableResultError
from .pipeline import operating_point

DEFAULT_BINS = 50


@dataclass(frozen=True)
class McConfig:
    case: NetworkCase
    placement_buses: tuple[int, ...]
    n_realizations: int = 1000
    horizon: float = 200.0  # s
    dt: float = 0.01  # s
    ou: OuParams = field(default_factory=OuParams)
    turbine: TurbineParams = field(default_factory=TurbineParams)
    base_seed: int = 0
    default_damping: float = DEFAULT_DAMPING

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if not (self.dt > 0 and 0.5 < self.horizon / self.dt < math.inf):
            raise ValueError("horizon must cover at least one step of dt")
        if not self.placement_buses:
            raise ValueError("at least one placement bus is required")
        known = {b.id for b in self.case.buses}
        missing = [b for b in self.placement_buses if b not in known]
        if missing:
            raise GridGfvError(f"placement buses not in case: {missing}")

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
    """Raw per-bus collections, one entry per successful realization."""

    ifd_values: tuple[float, ...]
    coi: tuple[np.ndarray, ...]
    poi: tuple[np.ndarray, ...]
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


@dataclass(frozen=True)
class McSummary:
    placements: dict[int, PlacementStats]  # in placement order
    n_realizations: int
    partial: bool


def ifd(traj: Trajectory) -> float:
    """Integral frequency deviation: sum over buses and samples of the
    absolute gap between bus frequency and nominal.  The trajectory stores
    deviations, so this is their plain absolute sum."""
    return float(np.abs(traj.bus_freq).sum())


def _histogram(samples: np.ndarray, bins: int) -> Histogram:
    lo = float(samples.min())
    hi = float(samples.max())
    if lo == hi:
        return Histogram(edges=np.array([lo, hi]), counts=np.array([samples.size]))
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    return Histogram(edges=edges, counts=counts)


def _box_stats(values: np.ndarray) -> BoxStats:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    return BoxStats(
        q1=q1,
        median=median,
        q3=q3,
        whisker_low=max(q1 - 1.5 * iqr, float(values.min())),
        whisker_high=min(q3 + 1.5 * iqr, float(values.max())),
    )


def summarize(samples: dict[int, PlacementSamples], bins: int = DEFAULT_BINS) -> McSummary:
    """Aggregate raw collections, in placement order, into histograms and
    boxplot quartiles.

    Histograms are equal-width over the pooled min/max per metric (a single
    degenerate bin when every sample coincides); whiskers sit at 1.5 IQR
    clamped to the data range, with all samples retained in ifd_samples.
    n_realizations counts one bus's successes and failures.
    """
    if not samples:
        raise ValueError("no realizations to summarize")
    placements = {}
    for bus, group in samples.items():
        if not group.ifd_values:
            first = f" ({group.failures[0]})" if group.failures else ""
            raise UnusableResultError(
                f"placement bus {bus} has no successful realizations{first}")
        coi_pool = np.concatenate(group.coi)
        poi_pool = np.concatenate(group.poi)
        ifd_arr = np.asarray(group.ifd_values)
        placements[bus] = PlacementStats(
            coi_histogram=_histogram(coi_pool, bins),
            poi_histogram=_histogram(poi_pool, bins),
            ifd_samples=ifd_arr,
            ifd_quartiles=_box_stats(ifd_arr),
            coi_std=float(coi_pool.std()),
            poi_std=float(poi_pool.std()),
            failures=group.failures,
        )
    groups = samples.values()
    return McSummary(
        placements=placements,
        n_realizations=max(len(g.ifd_values) + len(g.failures) for g in groups),
        partial=any(g.failures for g in groups),
    )


# ---------------------------------------------------------------------------
# Realization execution (serial or process pool)
# ---------------------------------------------------------------------------


def _one_realization(cfg: McConfig, model: SwingModel, realization: int) -> list:
    """One wind path replayed at every placement bus: per bus, (ifd, coi,
    poi) or the failure message."""
    # The seed is shared across placement buses: common random numbers.
    params = replace(cfg.ou, dt=cfg.dt, seed=(cfg.base_seed, realization))
    wind = simulate_ou(params, cfg.n_steps)
    turbine = cfg.turbine
    dp = wind_to_power(wind, turbine.rated_power, turbine.v_rated, turbine.v_ref)
    rows = bus_positions(cfg.case)
    results = []
    for bus in cfg.placement_buses:
        try:
            traj = simulate(model, bus, dp, cfg.dt)
        except GridGfvError as exc:
            results.append(f"realization {realization}: {exc}")
            continue
        # A copy, so the kept series does not hold all of bus_freq.
        results.append((ifd(traj), traj.coi_freq, traj.bus_freq[rows[bus]].copy()))
    return results


def resolve_workers(workers: int | None, n_tasks: int) -> int:
    if workers is None:
        env = os.environ.get("GRID_GFV_THREADS")
        workers = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(workers, n_tasks))


def run_monte_carlo(
    cfg: McConfig, workers: int | None = None, bins: int = DEFAULT_BINS
) -> McSummary:
    """Run the full placement study and aggregate the statistics.

    workers=None honors GRID_GFV_THREADS, else uses all available cores.
    """
    model = build_swing_model(operating_point(cfg.case), cfg.default_damping)
    realize = partial(_one_realization, cfg, model)
    n_workers = resolve_workers(workers, cfg.n_realizations)
    if n_workers == 1:
        rows = [realize(r) for r in range(cfg.n_realizations)]
    else:
        chunk = max(1, cfg.n_realizations // (4 * n_workers))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(realize, range(cfg.n_realizations), chunksize=chunk))

    collected = {}
    for bus, results in zip(cfg.placement_buses, zip(*rows)):
        ok = [r for r in results if not isinstance(r, str)]
        collected[bus] = PlacementSamples(
            ifd_values=tuple(r[0] for r in ok),
            coi=tuple(r[1] for r in ok),
            poi=tuple(r[2] for r in ok),
            failures=tuple(r for r in results if isinstance(r, str)),
        )
    return summarize(collected, bins=bins)
