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

import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

from .ctmc import Ctmc, _integer
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


def initial_state(s: Scenario, base_mw: float) -> int:
    """The code (see `_layout`) of the start state: whole units go serving
    in priority order until supply covers base_mw, none offline, at demand
    level normal with the botnet off.
    """
    _positive("demand", base_mw)
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
    place, _ = _layout([g.count for g in s.classes])
    return 2 * DEMAND_LEVELS.index("normal") + sum(
        map(mul, place[1::2, 0].tolist(), (serving[g.name] for g in s.classes)))


def _layout(counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Place values and radices of the count digits of a state code, as
    columns: `codes // place % radix` has one row per digit.

    A code is mixed radix, least significant first: j = 2 * level + botnet
    (radix 6), then each class's offline and serving counts, each in
    [0, count]; available units are count - serving - offline.  Codes are
    int64 when all fit, else Python ints in object arrays.
    """
    radix = [c + 1 for c in counts for _ in "os"]
    place = [6 * math.prod(radix[:i]) for i in range(len(radix) + 1)]
    dtype = np.int64 if place[-1] < 2**63 else object
    return np.array(place[:-1], dtype)[:, None], np.array(radix, dtype)[:, None]


def describe_state(s: Scenario, code: int) -> str:
    """A state code (see `_layout`) as text: 'name=Aa/Ss/Oo' per class,
    the demand level and 'botnet-on' or 'botnet-off'."""
    place, radix = _layout([g.count for g in s.classes])
    digits = (code // place % radix).ravel().tolist()
    parts = [f"{g.name}={g.count - sv - o}a/{sv}s/{o}o"
             for g, o, sv in zip(s.classes, digits[::2], digits[1::2])]
    parts.append(f"{DEMAND_LEVELS[code % 6 // 2]} botnet-{'on' if code % 2 else 'off'}")
    return " ".join(parts)


def _rules(s: Scenario, base_mw: float):
    """The demand, botnet, controller, trip and recovery rules over the state
    codes of `_layout`, each a code delta under a validity mask.

    Returns (start, expand): the initial code in a one-element array, and
    expand(codes) -> (band, blackout, parent, child, rate) for one BFS
    level: each code's index in (overSupply, equilibrium, overDemand) and
    blackout flag, then its moves in (parent, rule) order, with rules in
    the order demand, botnet, turn-on or turn-off, trips, recovery.
    """
    counts = [g.count for g in s.classes]
    place, radix = _layout(counts)
    stride_o, stride_s = place[::2], place[1::2]
    start = np.array([initial_state(s, base_mw)], place.dtype)
    count = np.array(counts, place.dtype)[:, None]
    caps = np.array([g.capacity_mw for g in s.classes])[:, None]
    on = np.array([s.class_index(name) for name in s.controller.priority])
    off, recover = on[::-1], [k for k, g in enumerate(s.classes) if g.t_recover is not None]
    # the per-class rules, one row per class: turn-on in priority order,
    # turn-off in reverse priority order, trips, then recovery; each row's
    # code delta, mean time and the row of its condition in `when` (short,
    # short with the botnet on, always, spare and the class's guard)
    delta = np.concatenate((stride_s[on], -stride_s[off], stride_o - stride_s, -stride_o[recover]))
    t_move = np.array([[s.classes[k].t_start for k in on] + [s.classes[k].t_stop for k in off]
                       + [g.t_trip for g in s.classes] + [s.classes[k].t_recover for k in recover]]).T
    when_row = np.array([0] * len(on) + list(range(3, 3 + len(off))) + [1] * len(counts) + [2] * len(recover))
    d, botnet = s.demand, s.botnet
    # by j: each level's first demand move (to normal, to low, to normal),
    # normal to high, the botnet toggle; and the effective demand, the
    # hourly mean shifted by the level plus the botnet spike when on
    head_valid = np.array([np.full(6, True), np.arange(6) // 2 == 1, np.full(6, botnet.enabled)])
    head_delta = np.array([[2, 2, -2, -2, -2, -2], [2] * 6, [1, -1] * 3])
    head_rate = np.array([np.repeat([1.0 / d.t_low_to_normal, 1.0 / d.t_normal_to_low, 1.0 / d.t_high_to_normal], 2),
                          np.full(6, 1.0 / d.t_normal_to_high), [1.0 / botnet.t_off_to_on, 1.0 / botnet.t_on_to_off] * 3])
    means = [base_mw * (1.0 + f * d.delta_fraction) for f in (-1.0, 0.0, 1.0)]
    demand = np.array([[mw, mw + botnet.spike_fraction * base_mw] for mw in means]).ravel()
    width, caps_off = s.controller.tolerance * demand, caps[off]

    def expand(x):
        j = (x % 6).astype(np.intp)
        digits = x // place % radix
        serving, offline = digits[1::2], digits[::2]
        sup = sum(caps * serving.astype(float))  # row by row, in class order
        dem = demand[j]
        band = np.where(abs(sup - dem) <= width[j], 1, np.where(sup < dem, 2, 0))
        short, spare = band == 2, band == 0
        units = np.concatenate(((count - serving - offline)[on], serving[off], serving, offline[recover]))
        # short: the first class in priority with a unit available starts
        # one, and under attack pressure every serving class trips; spare:
        # the last class in priority whose shutdown keeps supply at or
        # above demand stops one
        when = np.concatenate(((short, short & (j % 2 == 1), j >= 0), spare & (sup - caps_off >= dem)))
        ok = (units > 0) & when[when_row]
        ok[: 2 * len(on)] &= np.cumsum(ok[: 2 * len(on)], axis=0) == 1
        valid = np.concatenate((head_valid[:, j], ok))
        child = np.concatenate((x + head_delta[:, j], x + delta))
        rate = np.concatenate((head_rate[:, j], units / t_move))
        parent, rule = np.nonzero(valid.T)
        return band, short & (offline > 0).any(0), parent, child[rule, parent], rate[rule, parent]

    return start, expand


def _table_numbering(size: int, start: np.ndarray):
    """number(child, n) -> (indices, fresh) over a dense table of every
    code in [0, size): the state index of each child, and its new codes in
    order of first appearance, numbered from n."""
    table = np.full(size, -1, np.int32)  # -1 while unvisited
    table[start] = 0

    def number(child, n):
        new = child[table[child] < 0]
        fresh = new[np.sort(np.unique(new, return_index=True)[1])]
        table[fresh] = np.arange(n, n + len(fresh), dtype=np.int32)
        return table[child], fresh

    return number


def _run_numbering(start: np.ndarray):
    """`_table_numbering` for any code space: the visited codes sit in
    sorted runs, each with its state indices."""
    runs = [(start, np.zeros(1, np.int64))]

    def number(child, n):
        codes, first, inverse = np.unique(child, return_index=True, return_inverse=True)
        index = np.full(len(codes), -1)
        for run, run_index in runs:
            pos = np.minimum(np.searchsorted(run, codes), len(run) - 1)
            index = np.where(run[pos] == codes, run_index[pos], index)
        new = index < 0
        fresh = np.flatnonzero(new)[np.argsort(first[new], kind="stable")]
        index[fresh] = np.arange(n, n + len(fresh))
        # merge until each run is over twice the next: a lookup searches
        # O(log n) runs, and each code is merged O(log n) times
        run = codes[new], index[new]
        while runs and len(runs[-1][0]) <= 2 * len(run[0]):
            merged, merged_index = map(np.concatenate, zip(runs.pop(), run))
            order = np.argsort(merged, kind="stable")
            run = merged[order], merged_index[order]
        runs.append(run)
        return index[inverse], codes[fresh]

    return number


# the largest code space numbered through a dense table (8 MiB of int32)
_TABLE_CODES = 2**21


def build_grid_ctmc(
    s: Scenario, base_mw: float, max_states: int = MAX_STATES
) -> Ctmc:
    """Breadth-first compilation of a scenario at one hourly demand level,
    one BFS level of state codes at a time (`_rules`).

    New codes take the next index in (parent, rule) order, which is FIFO
    discovery order, so two builds of the same inputs are identical.
    State 0 is the start state, whose code is `initial_state`.  Labels:
    the classification partition plus "blackout" for overDemand states
    with at least one unit offline.
    """
    max_states = _integer("max_states", max_states)
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    frontier, expand = _rules(s, base_mw)
    size = 6 * math.prod((g.count + 1) ** 2 for g in s.classes)
    number = (_table_numbering(size, frontier) if size <= _TABLE_CODES
              else _run_numbering(frontier))
    levels, n = [], 1
    while len(frontier):
        band, blackout, parent, child, rate = expand(frontier)
        index, fresh = number(child, n)
        if n + len(fresh) > max_states:
            raise StateSpaceLimitExceeded(f"state space exceeds cap of {max_states} states")
        levels.append((parent + n - len(frontier), index, rate, band, blackout))
        frontier, n = fresh, n + len(fresh)
    del number  # frees the table before the chain is assembled
    src, dst, rates, band, blackout = map(np.concatenate, zip(*levels))
    labels = {name: np.flatnonzero(band == i)
              for i, name in enumerate((OVER_SUPPLY, EQUILIBRIUM, OVER_DEMAND))}
    labels[BLACKOUT] = np.flatnonzero(blackout)
    return Ctmc(n, src, dst, rates, 0, labels)


class StateSpaceStats(NamedTuple):
    n_states: int
    n_transitions: int
    label_counts: dict[str, int]


def state_space_stats(c: Ctmc) -> StateSpaceStats:
    """Exact size counts of a built chain."""
    return StateSpaceStats(
        n_states=c.n_states,
        n_transitions=c.rate_matrix.nnz,
        label_counts={name: len(states) for name, states in c.label_arrays.items()},
    )
