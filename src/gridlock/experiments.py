"""Experiment orchestration: attack variants and the hourly model sweep.

A sweep builds one CTMC per (scenario variant, hour), solves it in the
requested mode and reports the four label probabilities.  Cells are
independent; with a worker pool the output is still deterministic
because rows are sorted and per-cell simulation seeds derive from the
cell's position in the plan, not from scheduling.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .errors import GridlockError
from .grid import BLACKOUT, EQUILIBRIUM, OVER_DEMAND, OVER_SUPPLY, DemandProfile, Scenario
from .grid import build_grid_ctmc
from .scenario_io import default_demand_profile, default_scenario
from .sim import derive_trial_seed, estimate_label_metrics
from .solvers import SolverConfig, label_probability, steady_state, transient

REPORT_LABELS = (OVER_SUPPLY, EQUILIBRIUM, OVER_DEMAND, BLACKOUT)

# Desk-scale preset: the reference fleet shrunk to 2 nuclear / 2 hydro /
# 3 gas units (150 MW).  The demand scale and horizon are calibrated, not
# arbitrary: with a 30 percent spike, 1 s trip times and a 1 percent
# tolerance band, attack-variant blackout probability saturates at 1.0
# within the hour once peak utilisation passes roughly 35 percent, and at
# near-capacity scales all attack variants trip the same serving set and
# become indistinguishable.  0.265 of the default profile keeps the three
# variants structurally distinct and the no-attack over-demand signal
# correlated with demand; 10 minutes keeps the curves off saturation so
# orderings are resolved well above solver tolerance.
DESK_COUNTS = {"nuclear": 2, "hydro": 2, "gas": 3}
DESK_DEMAND_SCALE = 0.265
DESK_HORIZON_MINUTES = 10.0


def desk_scenario() -> Scenario:
    """The packaged reference scenario at desk-scale unit counts."""
    base = default_scenario()
    classes = tuple(replace(g, count=DESK_COUNTS[g.name]) for g in base.classes)
    return replace(base, classes=classes)


def desk_demand_profile() -> DemandProfile:
    """The packaged demand profile scaled for the desk fleet."""
    full = default_demand_profile()
    return DemandProfile(tuple(m * DESK_DEMAND_SCALE for m in full.mw_by_hour))


@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: scenario variants, hours, solver mode and options."""

    variants: tuple[tuple[str, Scenario], ...]
    hours: tuple[int, ...] = tuple(range(24))
    mode: str = "transient"
    horizon_minutes: float = 60.0
    solver: SolverConfig = field(default_factory=SolverConfig)
    sim_trials: int | None = None
    sim_seed: int = 0
    max_states: int = 5_000_000

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "hours", tuple(self.hours))
        if not self.variants:
            raise ValueError("plan needs at least one variant")
        if not self.hours:
            raise ValueError("plan needs at least one hour")
        for h in self.hours:
            if not 0 <= h <= 23:
                raise ValueError(f"hour {h} outside 0-23")
        if self.mode not in ("steady", "transient"):
            raise ValueError(f"mode must be steady or transient, got {self.mode!r}")
        if not self.horizon_minutes > 0:
            raise ValueError("horizon_minutes must be > 0")
        if self.sim_trials is not None:
            if self.sim_trials < 1:
                raise ValueError("sim_trials must be >= 1")
            if self.mode != "transient":
                raise ValueError("simulation cross-check needs transient mode")
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")


@dataclass(frozen=True)
class ResultRow:
    """Solved probabilities for one (variant, hour) cell."""

    hour: int
    scenario: str
    mode: str
    p_over_supply: float
    p_equilibrium: float
    p_over_demand: float
    p_blackout: float
    state_count: int
    solve_time_ms: float

    def __post_init__(self):
        total = self.p_over_supply + self.p_equilibrium + self.p_over_demand
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"classification probabilities sum to {total!r}")
        if self.p_blackout > self.p_over_demand + 1e-12:
            raise ValueError("p_blackout cannot exceed p_over_demand")


class CellFailure(NamedTuple):
    """A cell that raised; any error other than a GridlockError is a fault
    in the program, kept with its traceback and mapped to exit code 1."""

    variant: str
    hour: int
    error: Exception


class SweepError(GridlockError):
    """A sweep cell failed and no failure collector was supplied."""

    def __init__(self, variant: str, hour: int, error: Exception):
        super().__init__(f"{variant} hour {hour}: {error}")
        self.variant = variant
        self.hour = hour


class SimulationMismatch(GridlockError):
    """Solver and simulator disagree beyond 3 standard errors."""


def make_attack_variants(base: Scenario) -> list[tuple[str, Scenario]]:
    """NO-ATTACK plus one botnet-enabled variant per class, that class first.

    Variant tags use class initials when unambiguous (nuclear -> ATTACK-N),
    full upper-case names otherwise.
    """
    names = [g.name for g in base.classes]
    initials = [n[:1].upper() for n in names]
    tags = initials if len(set(initials)) == len(names) else [n.upper() for n in names]

    variants = [
        ("NO-ATTACK", replace(base, botnet=replace(base.botnet, enabled=False)))
    ]
    for name, tag in zip(names, tags):
        priority = (name,) + tuple(p for p in base.controller.priority if p != name)
        variants.append(
            (
                f"ATTACK-{tag}",
                replace(
                    base,
                    botnet=replace(base.botnet, enabled=True),
                    controller=replace(base.controller, priority=priority),
                ),
            )
        )
    return variants


def _solve_cell(
    name: str, scen: Scenario, hour: int, base_mw: float, plan: ExperimentPlan, cell_index: int
) -> ResultRow:
    t0 = time.perf_counter()
    chain = build_grid_ctmc(scen, base_mw, max_states=plan.max_states)
    if plan.mode == "steady":
        dist = steady_state(chain, plan.solver)
    else:
        dist = transient(chain, plan.horizon_minutes)
    probs = {lab: label_probability(dist, chain, lab) for lab in REPORT_LABELS}
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    if plan.sim_trials is not None:
        seed = derive_trial_seed(plan.sim_seed, cell_index)
        for lab in REPORT_LABELS:
            est = estimate_label_metrics(
                chain, lab, plan.horizon_minutes, plan.sim_trials, seed
            )
            # zero-count guard: with k successes in n trials the plug-in
            # standard error degenerates at k=0 or k=n, so clamp through
            # a continuity-corrected proportion
            n = est.trials
            k = est.point_probability * n
            p_tilde = (k + 0.5) / (n + 1.0)
            se = max(est.point_standard_error, math.sqrt(p_tilde * (1 - p_tilde) / n))
            if abs(probs[lab] - est.point_probability) > 3.0 * se:
                raise SimulationMismatch(
                    f"{name} hour {hour} label {lab}: solver {probs[lab]:.6g} vs "
                    f"simulation {est.point_probability:.6g} "
                    f"(3 SE = {3.0 * se:.3g}, {n} trials)"
                )

    return ResultRow(
        hour=hour,
        scenario=name,
        mode=plan.mode,
        p_over_supply=probs[OVER_SUPPLY],
        p_equilibrium=probs[EQUILIBRIUM],
        p_over_demand=probs[OVER_DEMAND],
        p_blackout=probs[BLACKOUT],
        state_count=chain.n_states,
        solve_time_ms=elapsed_ms,
    )


def run_hourly_sweep(
    plan: ExperimentPlan,
    profile: DemandProfile,
    failures: list[CellFailure] | None = None,
    max_workers: int = 1,
) -> list[ResultRow]:
    """Solve every (variant, hour) cell; rows come back sorted.

    A failing cell, whatever it raised, is appended to `failures` when a
    collector is given; otherwise the first failure, in (variant, hour)
    order, is raised as a SweepError naming the cell once every cell ran.
    """
    cells = [
        (idx, name, scen, hour)
        for idx, (name, scen, hour) in enumerate(
            (name, scen, hour)
            for name, scen in plan.variants
            for hour in plan.hours
        )
    ]
    rows: list[ResultRow] = []
    problems: list[CellFailure] = []

    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                (
                    name,
                    hour,
                    pool.submit(
                        _solve_cell, name, scen, hour, profile.mw_by_hour[hour], plan, idx
                    ),
                )
                for idx, name, scen, hour in cells
            ]
            for name, hour, fut in futures:
                try:
                    rows.append(fut.result())
                except Exception as e:  # one bad cell must not abort the sweep
                    problems.append(CellFailure(name, hour, e))
    else:
        for idx, name, scen, hour in cells:
            try:
                rows.append(
                    _solve_cell(name, scen, hour, profile.mw_by_hour[hour], plan, idx)
                )
            except Exception as e:  # one bad cell must not abort the sweep
                problems.append(CellFailure(name, hour, e))

    problems.sort(key=lambda f: (f.variant, f.hour))
    if problems and failures is None:
        first = problems[0]
        raise SweepError(first.variant, first.hour, first.error) from first.error
    if failures is not None:
        failures.extend(problems)
    return sorted(rows, key=lambda r: (r.scenario, r.hour))


def format_gnuplot(rows: list[ResultRow]) -> str:
    """Blocked gnuplot data: one index per scenario, hours ascending."""
    blocks = []
    for name in sorted({r.scenario for r in rows}):
        lines = [f"# scenario: {name}", "# hour p_over_supply p_equilibrium p_over_demand p_blackout"]
        for r in sorted((r for r in rows if r.scenario == name), key=lambda r: r.hour):
            lines.append(
                f"{r.hour} {r.p_over_supply:.9f} {r.p_equilibrium:.9f} "
                f"{r.p_over_demand:.9f} {r.p_blackout:.9f}"
            )
        blocks.append("\n".join(lines))
    return "\n\n\n".join(blocks) + "\n"
