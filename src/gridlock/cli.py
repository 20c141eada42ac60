"""Command line front end.

Subcommands:
  check      expand attack variants, solve the hourly sweep, emit results CSV
  simulate   Monte Carlo label estimates for one scenario file at one hour
  inspect    state-space statistics for one scenario file at one hour

Exit codes: 0 success, 1 input or capacity problems, 2 solver
non-convergence, 3 state-space limit exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    GridlockError,
    InputFileError,
    InsufficientCapacity,
    NonConvergence,
    StateSpaceLimitExceeded,
)
from .experiments import (
    ExperimentPlan,
    format_gnuplot,
    make_attack_variants,
    run_hourly_sweep,
)
from .grid import build_grid_ctmc, state_space_stats
from .scenario_io import (
    default_demand_profile,
    default_scenario,
    load_demand_csv,
    parse_scenario,
    write_results_csv,
)
from .sim import estimate_label_metrics
from .solvers import SolverConfig


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # non-convergence exit code; remap to the generic input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_hours(spec: str) -> tuple[int, ...]:
    hours: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty hour entry in {spec!r}")
        if "-" in part:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError(f"bad hour range {part!r}")
            hours.extend(range(lo, hi + 1))
        else:
            hours.append(int(part))
    for h in hours:
        if not 0 <= h <= 23:
            raise ValueError(f"hour {h} outside 0-23")
    return tuple(hours)


def _load_inputs(args):
    if args.scenario is None:
        scenario = default_scenario()
    else:
        scenario = parse_scenario(Path(args.scenario).read_text())
    if args.demand is None:
        profile = default_demand_profile()
    else:
        profile = load_demand_csv(Path(args.demand).read_text())
    return scenario, profile


def _cmd_check(args) -> int:
    scenario, profile = _load_inputs(args)
    plan = ExperimentPlan(
        variants=tuple(make_attack_variants(scenario)),
        hours=_parse_hours(args.hours),
        mode=args.mode,
        horizon_minutes=args.horizon,
        solver=SolverConfig(tolerance=args.tolerance, max_iterations=args.max_iterations),
        sim_trials=args.sim_trials,
        sim_seed=args.sim_seed,
        max_states=args.max_states,
    )
    failures = []
    rows = run_hourly_sweep(plan, profile, failures=failures, max_workers=args.workers)
    csv_text = write_results_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.gnuplot:
        Path(args.gnuplot).write_text(format_gnuplot(rows))
    if failures:
        for f in failures:
            kind = "" if isinstance(f.error, GridlockError) else f"{type(f.error).__name__}: "
            print(f"error: {f.variant} hour {f.hour}: {kind}{f.error}", file=sys.stderr)
        return max(_exit_code(f.error) for f in failures)
    return 0


def _cmd_simulate(args) -> int:
    scenario, profile = _load_inputs(args)
    chain = build_grid_ctmc(scenario, profile.mw_by_hour[args.hour],
                            max_states=args.max_states)
    print(f"hour {args.hour}: {chain.n_states} states, "
          f"{args.trials} trials, horizon {args.horizon:g} min")
    print("label point_probability point_se occupancy occupancy_se")
    for label in ("overSupply", "equilibrium", "overDemand", "blackout"):
        est = estimate_label_metrics(chain, label, args.horizon, args.trials, args.seed)
        print(
            f"{label} {est.point_probability:.9f} {est.point_standard_error:.9f} "
            f"{est.occupancy:.9f} {est.occupancy_standard_error:.9f}"
        )
    return 0


def _cmd_inspect(args) -> int:
    scenario, profile = _load_inputs(args)
    chain = build_grid_ctmc(scenario, profile.mw_by_hour[args.hour],
                            max_states=args.max_states)
    stats = state_space_stats(chain)
    print(f"states {stats.n_states}")
    print(f"transitions {stats.n_transitions}")
    for label in sorted(stats.label_counts):
        print(f"label {label}: {stats.label_counts[label]}")
    print(f"initial {chain.state_meta[chain.initial]}")
    return 0


def _exit_code(exc: Exception) -> int:
    cause = exc.__cause__ if isinstance(exc.__cause__, GridlockError) else exc
    if isinstance(cause, StateSpaceLimitExceeded) or isinstance(exc, StateSpaceLimitExceeded):
        return 3
    if isinstance(cause, NonConvergence) or isinstance(exc, NonConvergence):
        return 2
    return 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridlock", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", default=None,
                       help="scenario file (default: packaged reference grid)")
        p.add_argument("--demand", default=None,
                       help="hourly demand CSV (default: packaged profile)")
        p.add_argument("--max-states", type=int, default=5_000_000,
                       help="abort model construction beyond this many states")

    check = sub.add_parser("check", help="solve the hourly variant sweep")
    add_common(check)
    check.add_argument("--hours", default="0-23", help="hour list, e.g. 4,12,18 or 0-23")
    check.add_argument("--mode", choices=("steady", "transient"), default="transient")
    check.add_argument("--horizon", type=float, default=60.0, help="transient horizon, minutes")
    check.add_argument("--tolerance", type=float, default=1e-10)
    check.add_argument("--max-iterations", type=int, default=1_000_000)
    check.add_argument("--out", help="results CSV path (default stdout)")
    check.add_argument("--gnuplot", help="also write a gnuplot data file")
    check.add_argument("--workers", type=int, default=1)
    check.add_argument("--sim-trials", type=int, default=None,
                       help="cross-check each cell against this many simulated trials")
    check.add_argument("--sim-seed", type=int, default=0)
    check.set_defaults(func=_cmd_check)

    sim = sub.add_parser("simulate", help="Monte Carlo estimates at one hour")
    add_common(sim)
    sim.add_argument("--hour", type=int, required=True, choices=range(24), metavar="H")
    sim.add_argument("--trials", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--horizon", type=float, default=60.0)
    sim.set_defaults(func=_cmd_simulate)

    ins = sub.add_parser("inspect", help="state-space statistics at one hour")
    add_common(ins)
    ins.add_argument("--hour", type=int, default=18, choices=range(24), metavar="H")
    ins.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse handles --help and usage errors by raising; fold the
        # status into the normal return path so main always returns
        return int(e.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: cannot read {e.filename}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GridlockError as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)


if __name__ == "__main__":
    sys.exit(main())
