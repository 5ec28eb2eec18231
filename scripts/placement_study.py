#!/usr/bin/env python3
"""Desk-scale placement study: score every bus, then validate the ranking
with a Monte Carlo sweep of stochastic wind feed-in across candidate buses.

Example:
    python scripts/placement_study.py fixtures/case7_study.json \
        --buses 3,4,5,7 --n 200 --t 50 --seed 2024 --out-dir out/study
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from gridgfv import (
    OuParams,
    RunConfig,
    TurbineParams,
    analyze_case,
    load_validated_case,
    run_monte_carlo,
)
from gridgfv.case_model import bus_ids
from gridgfv.cli import report_failures
from gridgfv.csvio import write_table


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("case")
    ap.add_argument("--buses", default="", help="candidate bus ids (default: all)")
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--t", type=float, default=50.0)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--ou-alpha", type=float, default=2.0,
                    help="wind mean-reversion rate (1/s)")
    ap.add_argument("--ou-std", type=float, default=0.2214,
                    help="stationary wind-speed std (m/s)")
    ap.add_argument("--rated", type=float, default=1.0)
    ap.add_argument("--out-dir", default="out/placement_study")
    return ap.parse_args()


def run_config(args) -> RunConfig:
    # diffusion b so that b^2 / (2 alpha) = std^2
    b = args.ou_std * np.sqrt(2.0 * args.ou_alpha)
    try:
        return RunConfig(
            seed=args.seed,
            ou=OuParams(mu=14.0, alpha=args.ou_alpha, b=b),
            turbine=TurbineParams(rated_power=args.rated, v_rated=15.0, v_ref=14.0),
            n_realizations=args.n,
            horizon=args.t,
            dt=args.dt,
        )
    except ValueError as exc:  # a run parameter out of its range
        sys.exit(f"placement_study: {exc}")


def study(args, cfg: RunConfig) -> int:
    case = load_validated_case(args.case)
    analysis = analyze_case(case)
    ids = bus_ids(case)
    gfv_at = dict(zip(ids, analysis.gfv.vector))

    print(f"lambda2 = {analysis.fiedler.value:.6f}   "
          f"lambda2_bar = {analysis.gfv.value:.6f}")
    print(f"{'bus':>4} {'h [s]':>10} {'fiedler':>9} {'gfv':>7}")
    for bus, h, fied, g in zip(ids, analysis.inertia, analysis.fiedler.vector,
                               analysis.gfv.vector):
        print(f"{bus:>4} {h:>10.2f} {fied:>9.4f} {g:>7.4f}")

    buses = tuple(int(tok) for tok in args.buses.split(",") if tok) or ids
    t0 = time.time()
    summary = run_monte_carlo(case, buses, cfg)
    print(f"\n{args.n} realizations x {args.t:.0f} s at {len(buses)} buses "
          f"in {time.time() - t0:.1f} s")

    gl = [gfv_at[bus] for bus in buses]
    ml = [summary.placements[bus].ifd_quartiles.median for bus in buses]
    rho = spearmanr(gl, ml).statistic
    print(f"\n{'bus':>4} {'gfv':>7} {'median_ifd':>11} {'iqr':>8} "
          f"{'coi_std':>9} {'poi_std':>9}")
    rows = []
    for bus in buses:
        stats = summary.placements[bus]
        q = stats.ifd_quartiles
        print(f"{bus:>4} {gfv_at[bus]:>7.4f} {q.median:>11.4f} "
              f"{q.q3 - q.q1:>8.4f} {stats.coi_std:>9.2e} {stats.poi_std:>9.2e}")
        rows.append([bus, float(gfv_at[bus]), q.median, q.q3 - q.q1,
                     stats.coi_std, stats.poi_std])
    print(f"\nSpearman(gfv, median_ifd) = {rho:.3f}")
    best_gfv = buses[int(np.argmin(gl))]
    best_ifd = buses[int(np.argmin(ml))]
    print(f"strongest by gfv: bus {best_gfv}   lowest median IFD: bus {best_ifd}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table(
        out_dir / "ranking.csv",
        ["bus_id", "gfv", "median_ifd", "ifd_iqr", "coi_std", "poi_std"],
        rows,
        comment=f"spearman={rho!r} seed={args.seed}",
    )
    print(f"ranking written to {out_dir / 'ranking.csv'}")
    return 0


def main() -> int:
    args = parse_args()
    cfg = run_config(args)
    return report_failures(lambda: study(args, cfg))


if __name__ == "__main__":
    sys.exit(main())
