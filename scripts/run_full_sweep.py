#!/usr/bin/env python3
"""Run the full-scale hourly sweep over the packaged reference grid.

Builds the four attack variants of the reference fleet (4 nuclear,
5 hydro, 6 gas; 320 MW) and solves all 96 (variant, hour) cells with the
transient solver at a 60 minute horizon.  Attack-variant models reach
8 000 to 21 000 states and 1 s trip times push the uniformisation rate
high, so a full run takes several minutes; --workers cuts it down and
--hours restricts the sweep while iterating.

Writes full_sweep.csv and full_sweep.dat (gnuplot blocks) to --out-dir.
"""

import argparse
import sys
import time
from pathlib import Path

from gridlock.experiments import (
    ExperimentPlan,
    format_gnuplot,
    make_attack_variants,
    run_hourly_sweep,
)
from gridlock.scenario_io import (
    default_demand_profile,
    default_scenario,
    write_results_csv,
)


def parse_hours(spec):
    hours = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            hours.extend(range(int(lo), int(hi) + 1))
        else:
            hours.append(int(part))
    return tuple(hours)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for full_sweep.csv and full_sweep.dat")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep")
    parser.add_argument("--hours", default="0-23",
                        help="hours to solve, e.g. '0-23' or '4,12,18'")
    parser.add_argument("--horizon", type=float, default=60.0,
                        help="transient horizon in minutes")
    args = parser.parse_args(argv)

    variants = make_attack_variants(default_scenario())
    profile = default_demand_profile()
    hours = parse_hours(args.hours)

    # one sweep per hour so progress is visible on long runs
    rows = []
    started = time.perf_counter()
    for i, hour in enumerate(hours):
        plan = ExperimentPlan(variants=variants, hours=(hour,),
                              horizon_minutes=args.horizon)
        rows.extend(run_hourly_sweep(plan, profile, max_workers=args.workers))
        done = time.perf_counter() - started
        eta = done / (i + 1) * (len(hours) - i - 1)
        print(f"hour {hour:2d} done  ({i + 1}/{len(hours)}, "
              f"{done:.0f} s elapsed, ~{eta:.0f} s left)", flush=True)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "full_sweep.csv"
    dat_path = args.out_dir / "full_sweep.dat"
    csv_path.write_text(write_results_csv(rows))
    dat_path.write_text(format_gnuplot(rows))
    print(f"wrote {csv_path} and {dat_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
