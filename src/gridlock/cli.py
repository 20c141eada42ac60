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
import time
from pathlib import Path

from .errors import GridlockError, NonConvergence, StateSpaceLimitExceeded
from .experiments import (
    REPORT_LABELS,
    ExperimentPlan,
    format_gnuplot,
    make_attack_variants,
    run_hourly_sweep,
)
from .grid import MAX_STATES, build_grid_ctmc, describe_state, initial_state, state_space_stats
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
        lo_s, dash, hi_s = part.partition("-")
        try:
            lo, hi = int(lo_s), int(hi_s if dash else lo_s)
        except ValueError:
            raise ValueError(f"--hours: bad entry {part!r} in {spec!r}") from None
        if lo > hi:
            raise ValueError(f"--hours: bad hour range {part!r}")
        # any 25 hours in a row hold one past 23, where the plan's checks stop
        hours.extend(range(lo, min(hi, lo + 24) + 1))
    return tuple(hours)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        raise ValueError(f"cannot read {path}") from None


def _load_inputs(args):
    scenario = default_scenario() if args.scenario is None else parse_scenario(_read(args.scenario))
    profile = default_demand_profile() if args.demand is None else load_demand_csv(_read(args.demand))
    return scenario, profile


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError:
        raise ValueError(f"cannot write {path}") from None


def _progress_reporter():
    """A sweep progress callback that prints done/total and an ETA to
    stderr, or None when stderr is not a terminal."""
    if not sys.stderr.isatty():
        return None
    started = time.perf_counter()

    def report(done, total):
        elapsed = time.perf_counter() - started
        eta = elapsed / done * (total - done)
        print(f"{done}/{total} cells done ({elapsed:.0f} s elapsed, ~{eta:.0f} s left)",
              file=sys.stderr, flush=True)

    return report


def _cmd_check(args) -> int:
    scenario, profile = _load_inputs(args)
    try:
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
    except ValueError as e:
        # the plan's hour rules (0-23, no repeats) word their errors "hour H ..."
        if str(e).startswith("hour "):
            raise ValueError(f"--hours: {e}") from None
        raise
    rows, failures = run_hourly_sweep(plan, profile, max_workers=args.workers,
                                      progress=_progress_reporter())
    csv_text = write_results_csv(rows)
    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.gnuplot:
        _write(args.gnuplot, format_gnuplot(rows))
    for f in failures:
        print(f"error: {f}", file=sys.stderr)
    return max((_exit_code(f.error) for f in failures), default=0)


def _cmd_simulate(args) -> int:
    scenario, profile = _load_inputs(args)
    chain = build_grid_ctmc(scenario, profile.mw_by_hour[args.hour],
                            max_states=args.max_states)
    result = estimate_label_metrics(chain, REPORT_LABELS, args.horizon, args.trials, args.seed)
    print(f"hour {args.hour}: {chain.n_states} states, "
          f"{args.trials} trials, horizon {args.horizon:g} min")
    print("label point_probability point_se occupancy occupancy_se")
    for est in result.estimates:
        print(
            f"{est.label} {est.point_probability:.9f} {est.point_standard_error:.9f} "
            f"{est.occupancy:.9f} {est.occupancy_standard_error:.9f}"
        )
    return 0


def _cmd_inspect(args) -> int:
    scenario, profile = _load_inputs(args)
    base_mw = profile.mw_by_hour[args.hour]
    chain = build_grid_ctmc(scenario, base_mw, max_states=args.max_states)
    stats = state_space_stats(chain)
    print(f"states {stats.n_states}")
    print(f"transitions {stats.n_transitions}")
    for label in sorted(stats.label_counts):
        print(f"label {label}: {stats.label_counts[label]}")
    print(f"initial {describe_state(scenario, initial_state(scenario, base_mw))}")
    return 0


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, StateSpaceLimitExceeded):
        return 3
    if isinstance(exc, NonConvergence):
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
        p.add_argument("--max-states", type=int, default=MAX_STATES,
                       help="abort model construction beyond this many states")

    check = sub.add_parser("check", help="solve the hourly variant sweep")
    add_common(check)
    check.add_argument("--hours", default="0-23", help="hour list, e.g. 4,12,18 or 0-23")
    check.add_argument("--mode", choices=("steady", "transient"), default="transient")
    check.add_argument("--horizon", type=float, default=60.0, help="transient horizon, minutes")
    check.add_argument("--tolerance", type=float, default=SolverConfig.tolerance,
                       help="steady mode: target for the absorption gap and for the "
                            "balance residual max|pi Q|, in (0, 1); transient mode: "
                            "total-variation error budget of uniformization, in (0, 1e-3]")
    check.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations,
                       help="steady mode: cap on absorption sweeps and on power "
                            "iterations per BSCC")
    check.add_argument("--out", help="results CSV path (default stdout)")
    check.add_argument("--gnuplot", help="also write a gnuplot data file")
    check.add_argument("--workers", type=int, default=1, help="worker processes, one per cell at most")
    check.add_argument("--sim-trials", type=int, default=None,
                       help="cross-check each cell against this many simulated trials")
    check.add_argument("--sim-seed", type=int, default=0, help="seed of the per-cell simulation seeds")
    check.set_defaults(func=_cmd_check)

    sim = sub.add_parser("simulate", help="Monte Carlo estimates at one hour")
    add_common(sim)
    sim.add_argument("--hour", type=int, required=True, choices=range(24), metavar="H")
    sim.add_argument("--trials", type=int, default=10_000, help="simulated paths")
    sim.add_argument("--seed", type=int, default=0, help="random seed")
    sim.add_argument("--horizon", type=float, default=60.0, help="path length, minutes")
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
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GridlockError as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)


if __name__ == "__main__":
    sys.exit(main())
