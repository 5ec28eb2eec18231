"""Monte Carlo study across candidate placement buses.

Each realization draws one wind-speed path and replays it at every placement
bus (common random numbers: the per-realization stream depends on the base
seed and realization index only, so placements are compared on identical
draws and adding a placement bus never perturbs the others).  Results are
deterministic for a given base seed regardless of how many workers run the
realizations.

The study runs bus by bus: the first bus draws the power series that later
buses replay, and each bus's COI and POI series fill one of two slots, which
the parent summarizes while the workers simulate the next bus.  Each forked
worker owns one span of realizations for the whole study and simulates it at
every bus in turn, so it touches only its span's part of the shared series.
A run simulates on one swing model, which keeps the current placement bus's
RK4 propagator after its first realization (in each worker), so later
realizations only reduce the network to the bus and apply it; the next bus's
propagator replaces it, so a process holds one.  Each span of realizations
writes their bus frequencies into one work buffer and takes each IFD there in
place, so a realization allocates no (n_bus, n_t) array it does not keep.
The results are the same bytes as with a fresh model per realization.

Frequency samples are recorded as deviations in pu from the nominal
frequency; nothing adds the nominal value back onto the series.
"""

from __future__ import annotations

import contextlib
import errno
import math
import mmap
import os
import pickle
import signal
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
from .pipeline import analyze_case
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
            (self.damping >= 0, f"damping must be non-negative, got {self.damping}"),
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
class PlacementStats:
    """A placement bus's statistics; realization ifd_realizations[i] had IFD ifd_samples[i]."""

    coi_histogram: Histogram
    poi_histogram: Histogram
    ifd_samples: np.ndarray
    ifd_realizations: np.ndarray
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


def summarize(bus: int, outcomes: list, series: np.ndarray,
              bins: int = RunConfig.bins) -> PlacementStats:
    """The statistics of placement bus from its realizations: histograms,
    boxplot quartiles and pooled standard deviations.  outcomes holds each
    realization's IFD, or its failure message, in realization order, and
    series (2, len(outcomes), n_t) their COI and POI series, of which the
    failed realizations' columns are left out.  A bus with no successful
    realization is an UnusableResultError that names it.

    Histograms are equal-width over the pooled min/max per metric (a single
    bin when every sample coincides); whiskers sit at 1.5 IQR clamped to the
    data range.  ifd_samples keeps every successful IFD, ifd_realizations its realization.
    """
    ok = [not isinstance(r, str) for r in outcomes]
    failures = tuple(r for r in outcomes if isinstance(r, str))
    if not any(ok):
        first = f" ({failures[0]})" if failures else ""
        raise UnusableResultError(f"placement bus {bus} has no successful realizations{first}")
    kept = series if all(ok) else series[:, ok]  # a view unless some failed
    coi_pool = kept[0].reshape(-1)
    poi_pool = kept[1].reshape(-1)
    ifd_arr = np.array([r for r, good in zip(outcomes, ok) if good])
    return PlacementStats(
        coi_histogram=_histogram(coi_pool, bins),
        poi_histogram=_histogram(poi_pool, bins),
        ifd_samples=ifd_arr,
        ifd_realizations=np.flatnonzero(ok),
        ifd_quartiles=_box_stats(ifd_arr),
        coi_std=float(coi_pool.std()),
        poi_std=float(poi_pool.std()),
        failures=failures,
    )


def _one_span(cfg: RunConfig, model: SwingModel, rows: tuple, slots: np.ndarray,
              wind: np.ndarray | None, k: int, span: range) -> list:
    """Placement bus k, whose injection port and bus_freq row is rows[k], at
    each realization r of span: the IFD or failure message per r, the COI and
    POI series to slots[k % len(slots), :, r].  Bus 0 draws each power series,
    to wind[r] unless wind is None, and the later buses replay it from there.
    Each realization's bus_freq is written into the span's one work buffer,
    and its IFD, ifd's sum, is taken there in place."""
    row = rows[k]
    results = []
    buf = np.empty((len(model.participation), cfg.n_steps + 1))
    for r in span:
        # The seed is shared across placement buses: common random numbers.
        dp = wind[r] if k else wind_to_power(
            simulate_ou(cfg.ou, cfg.dt, cfg.n_steps, (cfg.seed, r)), cfg.turbine)
        if k == 0 and wind is not None:
            wind[r] = dp
        try:
            traj = simulate(model, row, dp, cfg.dt, out=buf)
        except GridGfvError as exc:
            results.append(f"realization {r}: {exc}")
            continue
        slots[k % len(slots), :, r] = traj.coi_freq, traj.bus_freq[row]
        results.append(float(np.abs(buf, out=buf).sum()))
    return results


def _serve(realize, n_buses: int, n_slots: int, span: range, out, gate):
    """A forked worker's study: its pid, then each placement bus k's
    realize(k, span), or the exception it raised, pickled to out; bus k >=
    n_slots first waits for the byte on gate that frees bus k - n_slots's slot."""
    pickle.dump(os.getpid(), out)
    for k in range(n_buses):
        out.flush()  # the pid, or the last bus's outcomes, before any wait
        if k >= n_slots and not gate.read(1):
            return  # the parent closed the gate
        try:
            result = realize(k, span)
        except Exception as exc:  # MemoryError among them; the parent raises it
            result = exc
        pickle.dump(result, out)
    out.flush()


def _received(out):
    """The next result a worker pickled to out; an exception is raised."""
    try:
        result = pickle.load(out)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError("a Monte Carlo worker process ended abruptly "
                                "(killed, e.g. out of memory)") from None
    if isinstance(result, BaseException):
        raise result
    return result


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
    another on the swing model of analyze_case(case), whose analysis is
    dropped first: each bus's statistics, in placement order.  A bus none of whose
    realizations succeeded is an UnusableResultError.  The series mapping
    holds 8 n (n_steps + 1) bytes 2, 3 or 5 times, for 1, 2 or more buses.

    workers=None honors GRID_GFV_THREADS, else uses all available cores.  At
    2 or more, one forked worker per span of realizations simulates its span
    at every bus; one that ends abruptly (killed, e.g. out of memory) is a
    ChildProcessError.  Every worker is killed and reaped before this returns
    or raises.
    """
    rows = placement_rows(case, buses)
    if (cfg.bins + 1) * 8 > np.iinfo(np.intp).max:  # numpy would fail with no MemoryError
        raise MemoryError(f"Unable to allocate a histogram of {cfg.bins} bins")
    model = build_swing_model(analyze_case(case, tol=cfg.tol, max_iter=cfg.max_iter),
                              cfg.damping)
    # The slots, then the wind, in an anonymous shared mapping that forked
    # workers write into; it is unmapped with the last view of it.  Bus k +
    # n_slots starts once bus k is summarized.
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
    realize = partial(_one_span, cfg, model, tuple(rows.values()), slots,
                      series[-1] if n_buses >= 2 else None)
    n_workers = resolve_workers(workers, n) if hasattr(os, "fork") else 1
    spans = [range(n * i // n_workers, n * (i + 1) // n_workers) for i in range(n_workers)]
    if n_workers == 1:
        return {bus: summarize(bus, realize(k, spans[0]), slots[k % n_slots], cfg.bins)
                for k, bus in enumerate(rows)}
    parent, placements, outs, gates, pids, theirs = os.getpid(), {}, [], [], [], ()
    try:  # outs and gates: this process's ends of each worker's two pipes
        # No signal handler runs from a fork to the worker's study, nor before
        # this process keeps the worker's pid.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        try:
            for span in spans:  # registered before the fork, which an exception may follow
                (out, their_out), (their_gate, gate) = os.pipe(), os.pipe()
                outs.append(open(out, "rb"))
                gates.append(open(gate, "wb", buffering=0))
                theirs = open(their_out, "wb"), open(their_gate, "rb", buffering=0)
                if os.fork() == 0:  # the worker keeps its own two ends only
                    for end in outs + gates:
                        end.close()
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    _serve(realize, n_buses, n_slots, span, *theirs)
                    os._exit(0)
                for end in theirs:  # so that a dead worker reads as EOF
                    end.close()
            for out in outs:
                pids.append(_received(out))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for k, bus in enumerate(rows):
            per_bus = [r for out in outs for r in _received(out)]
            placements[bus] = summarize(bus, per_bus, slots[k % n_slots], cfg.bins)
            if k + n_slots < n_buses:  # bus k's slot is free for bus k + n_slots
                for gate in gates:
                    with contextlib.suppress(BrokenPipeError):  # its EOF is read next
                        gate.write(b"\0")
    finally:
        if os.getpid() != parent:  # a worker that raised leaves here
            os._exit(0)
        for end in theirs:  # then each worker that was forked sends its pid
            end.close()
        for out in outs[len(pids):]:
            with contextlib.suppress(EOFError):
                pids.append(pickle.load(out))
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for end in outs + gates:
            end.close()
    return placements
