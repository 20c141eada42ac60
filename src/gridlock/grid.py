"""Power-grid scenario model and its compilation into a labeled CTMC.

A scenario bundles generator classes, a three-level demand process, an
optional load-spiking botnet and a greedy controller.  States use a
counting abstraction: units of a class are exchangeable, so a state
tracks per-class (available, serving, offline) counts and transition
rates scale with the source count.  That lumping is exact (the test
suite checks it against a per-unit construction) and keeps the state
space in the tens of thousands where a per-unit encoding explodes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import NamedTuple

import numpy as np

from .ctmc import Ctmc, ctmc_from_arrays
from .errors import InsufficientCapacity, StateSpaceLimitExceeded

DEMAND_LEVELS = ("low", "normal", "high")

OVER_SUPPLY = "overSupply"
EQUILIBRIUM = "equilibrium"
OVER_DEMAND = "overDemand"
BLACKOUT = "blackout"
MAX_STATES = 5_000_000  # default cap on the states of one chain


def _positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


@dataclass(frozen=True)
class GeneratorClass:
    """One class of identical units; durations in minutes, None = never."""

    name: str
    capacity_mw: float
    count: int
    t_start: float
    t_stop: float
    t_trip: float
    t_recover: float | None = None

    def __post_init__(self):
        name = self.name  # must survive a scenario file, where ',' and '#' are syntax
        if name.splitlines() != [name] or name != name.strip() or "," in name or "#" in name:
            raise ValueError(f"class name {name!r} must be one nonempty line without ',', "
                             "'#' or leading or trailing whitespace")
        _positive("capacity_mw", self.capacity_mw)
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        _positive("t_start", self.t_start)
        _positive("t_stop", self.t_stop)
        _positive("t_trip", self.t_trip)
        if self.t_recover is not None:
            _positive("t_recover", self.t_recover)


@dataclass(frozen=True)
class DemandProcess:
    """Hourly-mean demand wobbling between low/normal/high levels."""

    delta_fraction: float
    t_normal_to_low: float
    t_low_to_normal: float
    t_normal_to_high: float
    t_high_to_normal: float

    def __post_init__(self):
        if not 0 <= self.delta_fraction < 1:
            raise ValueError(
                f"delta_fraction must be in [0, 1), got {self.delta_fraction!r}"
            )
        _positive("t_normal_to_low", self.t_normal_to_low)
        _positive("t_low_to_normal", self.t_low_to_normal)
        _positive("t_normal_to_high", self.t_normal_to_high)
        _positive("t_high_to_normal", self.t_high_to_normal)


@dataclass(frozen=True)
class Botnet:
    spike_fraction: float
    t_off_to_on: float
    t_on_to_off: float
    enabled: bool

    def __post_init__(self):
        if not 0 <= self.spike_fraction <= 1:
            raise ValueError(
                f"spike_fraction must be in [0, 1], got {self.spike_fraction!r}"
            )
        _positive("t_off_to_on", self.t_off_to_on)
        _positive("t_on_to_off", self.t_on_to_off)


@dataclass(frozen=True)
class Controller:
    """Greedy dispatcher: turn on from the front of priority, off from the back."""

    priority: tuple[str, ...]
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "priority", tuple(self.priority))
        if not 0 < self.tolerance < 1:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance!r}")


@dataclass(frozen=True)
class Scenario:
    classes: tuple[GeneratorClass, ...]
    demand: DemandProcess
    botnet: Botnet
    controller: Controller

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        names = [g.name for g in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names in {names}")
        if sorted(self.controller.priority) != sorted(names):
            raise ValueError(
                f"priority {self.controller.priority} is not a permutation "
                f"of class names {names}"
            )

    def class_index(self, name: str) -> int:
        for i, g in enumerate(self.classes):
            if g.name == name:
                return i
        raise KeyError(name)

    @property
    def total_capacity_mw(self) -> float:
        return sum(g.capacity_mw * g.count for g in self.classes)


@dataclass(frozen=True)
class DemandProfile:
    """Mean demand in MW for each hour of the day."""

    mw_by_hour: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "mw_by_hour", tuple(self.mw_by_hour))
        if len(self.mw_by_hour) != 24:
            raise ValueError(f"expected 24 hourly values, got {len(self.mw_by_hour)}")
        for h, mw in enumerate(self.mw_by_hour):
            if not mw > 0:
                raise ValueError(f"hour {h}: demand must be > 0, got {mw!r}")


def initial_state(s: Scenario, base_mw: float) -> tuple[int, ...]:
    """The key of the start state: whole units go serving in priority order
    until supply covers base_mw, at demand level normal with the botnet off.

    A state key is the flat int tuple (a0, s0, o0, a1, s1, o1, ..., level,
    botnet): each class's available, serving and offline counts in class
    order, the level's index in DEMAND_LEVELS, and botnet 0 (off) or 1 (on).
    """
    if base_mw > s.total_capacity_mw:
        raise InsufficientCapacity(
            f"base demand {base_mw} MW exceeds fleet capacity "
            f"{s.total_capacity_mw} MW"
        )
    serving = {name: 0 for name in s.controller.priority}
    acc = 0.0
    for name in s.controller.priority:
        cls = s.classes[s.class_index(name)]
        while acc < base_mw and serving[name] < cls.count:
            serving[name] += 1
            acc += cls.capacity_mw
        if acc >= base_mw:
            break
    counts = sum(((g.count - serving[g.name], serving[g.name], 0) for g in s.classes), ())
    return counts + (DEMAND_LEVELS.index("normal"), 0)


def _descriptions(names: tuple[str, ...], keys: list[tuple[int, ...]]) -> tuple[str, ...]:
    """Each key as text: 'name=Aa/Ss/Oo' per class, the demand level and
    'botnet-on' or 'botnet-off'."""
    return tuple(
        " ".join([*(f"{name}={a}a/{s}s/{o}o"
                    for name, a, s, o in zip(names, k[0:-2:3], k[1:-2:3], k[2:-2:3])),
                  DEMAND_LEVELS[k[-2]], "botnet-on" if k[-1] else "botnet-off"])
        for k in keys
    )


def _rules(s: Scenario, base_mw: float):
    """The demand, botnet, controller, trip and recovery rules over state
    keys (laid out in `initial_state`).

    Returns step(key) -> (band, [(successor key, rate), ...]) with moves in
    the order demand, botnet, turn-on, turn-off, trips, recovery.  Rates,
    priorities and the effective demand per (level, botnet) are set up once.
    """
    caps = [g.capacity_mw for g in s.classes]
    priority = [s.class_index(name) for name in s.controller.priority]
    on_order = [(3 * k, s.classes[k].t_start) for k in priority]
    off_order = [(3 * k, s.classes[k]) for k in reversed(priority)]
    trips = [(3 * k, g.t_trip) for k, g in enumerate(s.classes)]
    recovers = [(3 * k, g.t_recover) for k, g in enumerate(s.classes) if g.t_recover is not None]
    level_moves = (
        ((1, 1.0 / s.demand.t_low_to_normal),),
        ((0, 1.0 / s.demand.t_normal_to_low), (2, 1.0 / s.demand.t_normal_to_high)),
        ((1, 1.0 / s.demand.t_high_to_normal),),
    )
    botnet = s.botnet
    botnet_rates = (1.0 / botnet.t_off_to_on, 1.0 / botnet.t_on_to_off) if botnet.enabled else None
    # effective demand: the hourly mean shifted by the level, plus the
    # botnet spike when on; indexed by 2 * level + botnet
    demand = []
    for delta in (-1.0, 0.0, 1.0):
        level = base_mw * (1.0 + delta * s.demand.delta_fraction)
        demand += [level, level + s.botnet.spike_fraction * base_mw]
    width = [s.controller.tolerance * dem for dem in demand]

    def step(key):
        counts, lvl, on = key[:-2], key[-2], key[-1]
        moves = [(counts + (new, on), rate) for new, rate in level_moves[lvl]]
        if botnet_rates:
            moves.append((counts + (lvl, 1 - on), botnet_rates[on]))
        sup = sum(map(mul, caps, key[1:-2:3]))
        dem = demand[2 * lvl + on]
        if abs(sup - dem) <= width[2 * lvl + on]:
            band = EQUILIBRIUM
        elif sup < dem:
            band = OVER_DEMAND
            # highest-priority class with anything available starts one
            for b, t_start in on_order:
                avail = key[b]
                if avail > 0:
                    moves.append((key[:b] + (avail - 1, key[b + 1] + 1) + key[b + 2 :], avail / t_start))
                    break
            # under attack pressure every serving class trips
            for b, t_trip in trips if on else ():
                serv = key[b + 1]
                if serv > 0:
                    moves.append((key[: b + 1] + (serv - 1, key[b + 2] + 1) + key[b + 3 :], serv / t_trip))
        else:
            band = OVER_SUPPLY
            # lowest-priority serving class whose shutdown keeps supply
            # at or above demand stops one
            for b, cls in off_order:
                serv = key[b + 1]
                if serv > 0 and sup - cls.capacity_mw >= dem:
                    moves.append((key[:b] + (key[b] + 1, serv - 1) + key[b + 2 :], serv / cls.t_stop))
                    break
        for b, t_recover in recovers:
            off = key[b + 2]
            if off > 0:
                moves.append((key[:b] + (key[b] + 1, key[b + 1], off - 1) + key[b + 3 :], off / t_recover))
        return band, moves

    return step


def build_grid_ctmc(
    s: Scenario, base_mw: float, max_states: int = MAX_STATES
) -> Ctmc:
    """Breadth-first compilation of a scenario at one hourly demand level.

    State indices follow discovery order, so two builds of the same
    inputs are identical.  Labels: the classification partition plus
    "blackout" for overDemand states with at least one unit offline.
    State descriptions are built on the first read of `state_meta`.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    step = _rules(s, base_mw)
    keys = [initial_state(s, base_mw)]
    index = {keys[0]: 0}
    src, dst, rates = array("q"), array("q"), array("d")
    labels: dict[str, list[int]] = {OVER_SUPPLY: [], EQUILIBRIUM: [], OVER_DEMAND: [], BLACKOUT: []}
    # keys grows while it is walked, so it is also the FIFO queue
    for i, key in enumerate(keys):
        band, moves = step(key)
        labels[band].append(i)
        if band == OVER_DEMAND and any(key[2:-2:3]):
            labels[BLACKOUT].append(i)
        for succ, rate in moves:
            j = index.get(succ)
            if j is None:
                if len(keys) >= max_states:
                    raise StateSpaceLimitExceeded(
                        f"state space exceeds cap of {max_states} states"
                    )
                j = index[succ] = len(keys)
                keys.append(succ)
            src.append(i)
            dst.append(j)
            rates.append(rate)
    del index  # freed before the assembly below
    return ctmc_from_arrays(len(keys), *map(np.asarray, (src, dst, rates)), 0, labels,
                            partial(_descriptions, tuple(g.name for g in s.classes), keys))


class StateSpaceStats(NamedTuple):
    n_states: int
    n_transitions: int
    label_counts: dict[str, int]


def state_space_stats(c: Ctmc) -> StateSpaceStats:
    """Exact size counts of a built chain."""
    return StateSpaceStats(
        n_states=c.n_states,
        n_transitions=c.rate_matrix.nnz,
        label_counts={name: len(states) for name, states in c.labels.items()},
    )
