"""Experiment orchestration: attack variants and the hourly model sweep.

A sweep builds one CTMC per (scenario variant, hour), solves it in the
requested mode and reports the four label probabilities.  A chain depends
on the hour's demand only through each state's dispatch comparisons, so
cells often build bit-identical chains; each distinct chain is solved
once and its probabilities are copied to every cell that shares it.
With a worker pool the output is still deterministic because rows are
sorted and per-cell simulation seeds derive from the cell's position in
the plan, not from scheduling.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np
from scipy.special import betaincinv

from .ctmc import Ctmc, _integer
from .errors import GridlockError
from .grid import BLACKOUT, EQUILIBRIUM, OVER_DEMAND, OVER_SUPPLY, DemandProfile, Scenario
from .grid import MAX_STATES, build_grid_ctmc
from .scenario_io import default_demand_profile, default_scenario
from .sim import derive_trial_seed, estimate_label_metrics
from .solvers import SolverConfig, label_probability, lump, steady_state, transient

REPORT_LABELS = (OVER_SUPPLY, EQUILIBRIUM, OVER_DEMAND, BLACKOUT)

# Family-wise false-alarm rate of the simulation cross-check; it is split
# by Sidak over every (cell, label) test of a plan.
SIM_FAMILY_ALPHA = 1e-3

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
    max_states: int = MAX_STATES

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "hours", tuple(_integer("hour", h) for h in self.hours))
        if not self.variants:
            raise ValueError("plan needs at least one variant")
        if not self.hours:
            raise ValueError("plan needs at least one hour")
        names = [name for name, _ in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variant names in {names}")
        for i, h in enumerate(self.hours):
            if not 0 <= h <= 23:
                raise ValueError(f"hour {h} outside 0-23")
            if h in self.hours[:i]:
                raise ValueError(f"hour {h} given twice")
        if self.mode not in ("steady", "transient"):
            raise ValueError(f"mode must be steady or transient, got {self.mode!r}")
        if self.mode == "transient" and (tol := self.solver.tolerance) > 1e-3:
            raise ValueError(f"transient mode needs tolerance <= 1e-3, got {tol!r}")
        if not 0 < self.horizon_minutes < math.inf:
            raise ValueError(
                f"horizon_minutes must be finite and > 0, got {self.horizon_minutes}"
            )
        object.__setattr__(self, "sim_seed", _integer("sim_seed", self.sim_seed))
        if self.sim_trials is not None:
            object.__setattr__(self, "sim_trials", _integer("sim_trials", self.sim_trials))
            if self.sim_trials < 1:
                raise ValueError("sim_trials must be >= 1")
            if self.mode != "transient":
                raise ValueError("simulation cross-check needs transient mode")
        object.__setattr__(self, "max_states", _integer("max_states", self.max_states))
        if self.max_states < 1:
            raise ValueError(f"max_states must be >= 1, got {self.max_states}")


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

    def __post_init__(self):
        total = self.p_over_supply + self.p_equilibrium + self.p_over_demand
        if not abs(total - 1.0) <= 1e-6:
            raise ValueError(f"classification probabilities sum to {total!r}")
        if not self.p_blackout <= self.p_over_demand + 1e-12:
            raise ValueError("p_blackout cannot exceed p_over_demand")


class CellFailure(NamedTuple):
    """A cell that raised; any error other than a GridlockError is a fault
    in the program, kept with its traceback, mapped to exit code 1 and
    named by its type in the failure's text."""

    variant: str
    hour: int
    error: Exception

    def __str__(self):
        kind = "" if isinstance(self.error, GridlockError) else f"{type(self.error).__name__}: "
        return f"{self.variant} hour {self.hour}: {kind}{self.error}"


class SimulationMismatch(GridlockError):
    """A solver value lies outside the exact interval of its simulation."""


def make_attack_variants(base: Scenario) -> list[tuple[str, Scenario]]:
    """NO-ATTACK plus one botnet-enabled variant per class, that class first.

    Variant tags use class initials when unambiguous (nuclear -> ATTACK-N),
    else full upper-case names when those are, else the names as written.
    """
    names = [g.name for g in base.classes]
    tags = next((t for t in ([n[:1].upper() for n in names], [n.upper() for n in names])
                 if len(set(t)) == len(names)), names)

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


# (variant name, scenario, hour, base demand in MW)
_Cell = tuple[str, Scenario, int, float]
# a cell's row, or the exception that failed it
_Outcome = ResultRow | Exception


def _chain_key(chain: Ctmc) -> bytes:
    """sha256 over all that the solvers and the simulator read of a chain:
    size, initial state, CSR arrays with their dtypes and the label arrays
    (ascending), by name: everything a `Ctmc` holds."""
    h = hashlib.sha256(np.array([chain.n_states, chain.initial], dtype=np.int64))
    for a in (chain.indptr, chain.indices, chain.data):
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a))
    for name, states in sorted(chain.label_arrays.items()):
        h.update(f"{name}\0{len(states)}\0".encode())
        h.update(states)
    return h.digest()


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: one bad cell must not abort
    the sweep."""
    try:
        return fn(*args)
    except Exception as e:
        return e


def _solve(chain: Ctmc, plan: ExperimentPlan) -> dict[str, float]:
    if plan.mode == "steady":
        dist = steady_state(chain, plan.solver)
    else:
        chain = lump(chain)
        dist = transient(chain, plan.horizon_minutes, epsilon=plan.solver.tolerance)
    return {lab: label_probability(dist, chain, lab) for lab in REPORT_LABELS}


def _clopper_pearson(k: int, n: int, alpha: float) -> tuple[float, float]:
    """Exact two-sided 1 - alpha interval for a proportion seen k times in n."""
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


def _finish_cell(
    plan: ExperimentPlan, chain: Ctmc, probs: dict[str, float] | Exception,
    name: str, hour: int, cell_index: int,
) -> _Outcome:
    """The cell's row from its chain's solved probabilities, after the
    cell's own simulation cross-check; a failed solve fails the cell."""
    if isinstance(probs, Exception):
        return probs
    if plan.sim_trials is not None:
        seed = derive_trial_seed(plan.sim_seed, cell_index)
        sim = estimate_label_metrics(
            chain, REPORT_LABELS, plan.horizon_minutes, plan.sim_trials, seed
        )
        tests = len(plan.variants) * len(plan.hours) * len(REPORT_LABELS)
        alpha = -math.expm1(math.log1p(-SIM_FAMILY_ALPHA) / tests)
        # the solver's value is itself known only to within its tolerance,
        # the total-variation bound of the transient solve
        slack = plan.solver.tolerance
        n = sim.trials
        for est in sim.estimates:
            k = round(est.point_probability * n)
            lo, hi = _clopper_pearson(k, n, alpha)
            solved = probs[est.label]
            if not lo - slack <= solved <= hi + slack:
                raise SimulationMismatch(
                    f"label {est.label}: solver {solved:.6g} vs simulation "
                    f"{est.point_probability:.6g} ({k} of {n} paths, Clopper-Pearson "
                    f"interval [{lo:.6g}, {hi:.6g}] at alpha {alpha:.3g}, "
                    f"{SIM_FAMILY_ALPHA:g} family-wise over {tests} tests)"
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
    )


def _serial_cell(
    plan: ExperimentPlan, cell: _Cell, cell_index: int,
    solved: dict[bytes, dict[str, float] | Exception],
) -> _Outcome:
    name, scen, hour, base_mw = cell
    chain = build_grid_ctmc(scen, base_mw, max_states=plan.max_states)
    key = _chain_key(chain)
    if key not in solved:
        solved[key] = _attempt(_solve, chain, plan)
    return _finish_cell(plan, chain, solved[key], name, hour, cell_index)


def _serial_outcomes(plan: ExperimentPlan, cells: list[_Cell]) -> Iterator[tuple[int, _Outcome]]:
    # cells stream in plan order through this module's globals; only the
    # probabilities of each distinct chain are kept: a chain dies with its
    # _serial_cell frame, before the next cell builds
    solved: dict[bytes, dict[str, float] | Exception] = {}
    for idx, cell in enumerate(cells):
        yield idx, _attempt(_serial_cell, plan, cell, idx, solved)


def _digest_cell(plan: ExperimentPlan, scen: Scenario, base_mw: float) -> tuple[bytes, float]:
    """A cell's chain key and predicted solve cost, states x max exit rate."""
    chain = build_grid_ctmc(scen, base_mw, max_states=plan.max_states)
    return _chain_key(chain), chain.n_states * float(chain.exit_rates.max())


def _solve_shared(
    plan: ExperimentPlan, scen: Scenario, base_mw: float,
    sharers: list[tuple[int, str, int]],
) -> list[_Outcome]:
    """Rebuild one distinct chain, solve it once and finish each
    (cell index, variant, hour) that shares it."""
    chain = build_grid_ctmc(scen, base_mw, max_states=plan.max_states)
    probs = _attempt(_solve, chain, plan)
    return [_attempt(_finish_cell, plan, chain, probs, name, hour, idx)
            for idx, name, hour in sharers]


def _pool_outcomes(
    plan: ExperimentPlan, cells: list[_Cell], pool: ProcessPoolExecutor
) -> Iterator[tuple[int, _Outcome]]:
    # workers build and key every cell, and each solve job rebuilds its
    # chain: shipping the built chains through this process instead holds
    # them all here at once, which triples the sweep's peak memory
    keyed = [pool.submit(_digest_cell, plan, scen, base_mw) for _, scen, _, base_mw in cells]
    groups: dict[bytes, tuple[float, list[int]]] = {}
    for idx, future in enumerate(keyed):
        got = _attempt(future.result)
        if isinstance(got, Exception):
            yield idx, got
        else:
            key, cost = got
            groups.setdefault(key, (cost, []))[1].append(idx)

    # one job per distinct chain, costliest first (stable, so ties keep
    # plan order)
    jobs = {}
    for _, members in sorted(groups.values(), key=lambda g: -g[0]):
        _, scen, _, base_mw = cells[members[0]]
        sharers = [(i, cells[i][0], cells[i][2]) for i in members]
        jobs[pool.submit(_solve_shared, plan, scen, base_mw, sharers)] = members
    for future in as_completed(jobs):
        got = _attempt(future.result)
        for k, idx in enumerate(jobs[future]):
            yield idx, got if isinstance(got, Exception) else got[k]


def run_hourly_sweep(
    plan: ExperimentPlan,
    profile: DemandProfile,
    max_workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[list[ResultRow], list[CellFailure]]:
    """Solve every (variant, hour) cell; return (rows, failures), sorted by
    (scenario, hour) and by (variant, hour).  A cell that raised, whatever
    it raised, is a failure.  Cells whose chains are bit-identical share one
    solve; each still gets its own row, simulation seed and failure.
    `progress(done, total)` is called after each finished cell.  The pool
    gets at most one worker per cell; with one worker, cells run here.
    """
    max_workers = _integer("max_workers", max_workers)
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    cells = [(name, scen, hour, profile.mw_by_hour[hour])
             for name, scen in plan.variants for hour in plan.hours]
    workers = min(max_workers, len(cells))
    rows: list[ResultRow] = []
    failures: list[CellFailure] = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        outcomes = (_serial_outcomes(plan, cells) if pool is None
                    else _pool_outcomes(plan, cells, pool))
        for done, (idx, outcome) in enumerate(outcomes, start=1):
            name, _, hour, _ = cells[idx]
            if isinstance(outcome, Exception):
                failures.append(CellFailure(name, hour, outcome))
            else:
                rows.append(outcome)
            if progress is not None:
                progress(done, len(cells))

    return (sorted(rows, key=lambda r: (r.scenario, r.hour)),
            sorted(failures, key=lambda f: (f.variant, f.hour)))


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
