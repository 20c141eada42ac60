#!/usr/bin/env python3
"""Run the full-scale hourly sweep over the packaged reference grid.

Builds the four attack variants of the reference fleet (4 nuclear,
5 hydro, 6 gas; 320 MW) and solves all 96 (variant, hour) cells with the
transient solver at a 60 minute horizon.  Attack-variant models reach
8 000 to 21 000 states and 1 s trip times push the uniformisation rate
high, so a full run takes several minutes; --workers cuts it down and
--hours restricts the sweep while iterating.  All cells run as one sweep
in one worker pool (cells that build the same chain share one solve),
and a progress line with an ETA is printed after each finished cell.

Writes full_sweep.csv and full_sweep.dat (gnuplot blocks) to --out-dir.
"""

import argparse
import sys
import time
from pathlib import Path

from gridlock.cli import _parse_hours
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


def hour_list(spec):
    try:
        return _parse_hours(spec)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for full_sweep.csv and full_sweep.dat")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep")
    parser.add_argument("--hours", type=hour_list, default="0-23",
                        help="hours to solve, e.g. '0-23' or '4,12,18'")
    parser.add_argument("--horizon", type=float, default=60.0,
                        help="transient horizon in minutes")
    args = parser.parse_args(argv)

    plan = ExperimentPlan(variants=make_attack_variants(default_scenario()),
                          hours=args.hours, horizon_minutes=args.horizon)
    started = time.perf_counter()

    def report(done, total):
        elapsed = time.perf_counter() - started
        eta = elapsed / done * (total - done)
        print(f"{done}/{total} cells done  ({elapsed:.0f} s elapsed, ~{eta:.0f} s left)",
              flush=True)

    rows = run_hourly_sweep(plan, default_demand_profile(), max_workers=args.workers,
                            progress=report)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "full_sweep.csv"
    dat_path = args.out_dir / "full_sweep.dat"
    csv_path.write_text(write_results_csv(rows))
    dat_path.write_text(format_gnuplot(rows))
    print(f"wrote {csv_path} and {dat_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
