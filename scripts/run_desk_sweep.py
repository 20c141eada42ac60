#!/usr/bin/env python3
"""Run the desk-scale hourly sweep and print the headline findings.

Builds the four attack variants of the desk fleet (2 nuclear, 2 hydro,
3 gas), solves all 96 (variant, hour) cells with the transient solver at
the calibrated horizon, writes CSV and gnuplot outputs, then reports the
peak-hour blackout ordering, each variant's worst hour and the rank
correlation between demand and no-attack over-demand probability.  If any
cell fails, it prints one error line per failed cell instead and exits 1;
a bad --workers or --horizon prints one error line and exits 1.

Takes well under a minute on one core.
"""

import argparse
import sys
import time
from pathlib import Path

from scipy.stats import spearmanr

from gridlock.experiments import (
    DESK_HORIZON_MINUTES,
    ExperimentPlan,
    desk_demand_profile,
    desk_scenario,
    format_gnuplot,
    make_attack_variants,
    run_hourly_sweep,
)
from gridlock.scenario_io import write_results_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for desk_sweep.csv and desk_sweep.dat")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep")
    parser.add_argument("--horizon", type=float, default=DESK_HORIZON_MINUTES,
                        help="transient horizon in minutes")
    args = parser.parse_args(argv)

    profile = desk_demand_profile()
    started = time.perf_counter()
    try:
        plan = ExperimentPlan(variants=make_attack_variants(desk_scenario()),
                              horizon_minutes=args.horizon)
        rows, failures = run_hourly_sweep(plan, profile, max_workers=args.workers)
    except ValueError as e:  # a bad --horizon or --workers
        print(f"error: {e}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    if failures:
        print("\n".join(f"error: {f}" for f in failures), file=sys.stderr)
        return 1
    print(f"solved {len(rows)} cells in {elapsed:.1f} s")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "desk_sweep.csv"
    dat_path = args.out_dir / "desk_sweep.dat"
    csv_path.write_text(write_results_csv(rows))
    dat_path.write_text(format_gnuplot(rows))
    print(f"wrote {csv_path} and {dat_path}")

    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row.scenario, []).append(row)

    peak_hour = max(range(24), key=lambda h: profile.mw_by_hour[h])
    print(f"\ndemand peaks at hour {peak_hour} "
          f"({profile.mw_by_hour[peak_hour]:.1f} MW)")

    print(f"\np_blackout at hour {peak_hour}:")
    for name, cells in sorted(by_scenario.items()):
        if name == "NO-ATTACK":
            continue
        peak_cell = next(r for r in cells if r.hour == peak_hour)
        worst = max(cells, key=lambda r: r.p_blackout)
        print(f"  {name:<10} {peak_cell.p_blackout:.9f}   "
              f"worst hour {worst.hour} ({worst.p_blackout:.9f})")

    na = sorted(by_scenario["NO-ATTACK"], key=lambda r: r.hour)
    rho = spearmanr(profile.mw_by_hour, [r.p_over_demand for r in na]).statistic
    print(f"\nNO-ATTACK: Spearman(demand, p_over_demand) = {rho:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
