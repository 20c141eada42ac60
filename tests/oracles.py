"""Independent reference implementations used only by the test suite.

These deliberately avoid the library's own numerics: the matrix
exponential below is a plain scaling-and-squaring Taylor evaluation on
dense arrays, good enough for the tiny chains the tests feed it on mild
rates, and `exact_transient_oracle` takes mpmath's at 50 digits, for stiff
ones; the grid models take their band test from the supply and demand
rules written out here, not from the builder's.  The one exception is marked: `classify` and
`enabled_transitions` run the builder's rules on a one-state BFS level so
that rule-level tests can address them one GridState at a time.
`GridState` is the state type of the reference builders and the readable
form of a builder state code.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from gridlock.ctmc import Ctmc, new_ctmc
from gridlock.errors import NegativeTime
from gridlock.grid import (
    BLACKOUT,
    DEMAND_LEVELS,
    EQUILIBRIUM,
    OVER_DEMAND,
    OVER_SUPPLY,
    Scenario,
    _rules,
    initial_state,
)
from gridlock.sim import _draw, _to_unit


def dense_expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a small dense matrix, by scaling and squaring."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=1).max() if a.size else 0.0
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    b = a / (2.0**squarings)

    n = a.shape[0]
    term = np.eye(n)
    out = np.eye(n)
    for k in range(1, 60):
        term = term @ b / k
        out = out + term
        if np.abs(term).max() < 1e-20:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def dense_generator(c: Ctmc) -> np.ndarray:
    q = np.zeros((c.n_states, c.n_states))
    for (src, dst), rate in c.transitions.items():
        q[src, dst] = rate
        q[src, src] -= rate
    return q


def transient_oracle(c: Ctmc, t: float) -> np.ndarray:
    """pi0 @ exp(Q t), computed densely and independently."""
    pi0 = np.zeros(c.n_states)
    pi0[c.initial] = 1.0
    return pi0 @ dense_expm(dense_generator(c) * t)


def exact_transient_oracle(c: Ctmc, t: float, digits: int = 50) -> np.ndarray:
    """pi0 @ exp(Q t) by mpmath's expm at `digits` significant digits,
    rounded to floats.  Unlike `transient_oracle` it keeps the mass of
    stiff chains over long horizons, where the float Taylor sum and its
    squarings lose up to about 1e-9."""
    n = c.n_states
    with mpmath.workdps(digits):
        q = mpmath.zeros(n, n)
        for (src, dst), rate in c.transitions.items():
            q[src, dst] += mpmath.mpf(rate)
            q[src, src] -= mpmath.mpf(rate)
        row = mpmath.expm(q * mpmath.mpf(t))[c.initial, :]
        return np.array([float(p) for p in row])


def _bscc_split(q: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """(BSCCs, transient states) of a dense generator, from a dense
    reachability closure."""
    n = len(q)
    reach = (q != 0) | np.eye(n, dtype=bool)
    for _ in range(max(1, int(np.ceil(np.log2(n))))):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    bsccs = []
    for i in range(n):
        members = np.flatnonzero(reach[i])
        if reach[members, i].all() and not any(i in b for b in bsccs):
            bsccs.append(members)
    trans = np.array([i for i in range(n) if not any(i in b for b in bsccs)], dtype=int)
    return bsccs, trans


def steady_oracle(c: Ctmc) -> np.ndarray:
    """Long-run distribution from c.initial, computed densely and independently.

    BSCCs come from a dense reachability closure; each one's stationary
    vector solves pi Q_BB = 0 with sum(pi) = 1, and the BSCCs are weighted
    by a dense solve of the absorption equations -Q_TT h = Q_TB 1.
    """
    q = dense_generator(c)
    bsccs, trans = _bscc_split(q)
    pi = np.zeros(c.n_states)
    for b in bsccs:
        if c.initial in b:
            weight = 1.0
        elif c.initial in trans:
            rhs = q[np.ix_(trans, b)].sum(axis=1)
            h = np.linalg.solve(-q[np.ix_(trans, trans)], rhs)
            weight = h[np.searchsorted(trans, c.initial)]
        else:
            weight = 0.0
        a = np.vstack([q[np.ix_(b, b)].T, np.ones(len(b))])
        rhs = np.zeros(len(b) + 1)
        rhs[-1] = 1.0
        local = np.linalg.lstsq(a, rhs, rcond=None)[0]
        pi[b] = weight * local
    return pi


def residual_condition(c: Ctmc) -> float:
    """How far a balance residual lets a stationary vector err: the largest
    column sum of |Q_B#|, the group inverse of a BSCC's generator, over the
    BSCCs of c.  A vector x on B that sums to 1 with x Q_B = r equals
    pi_B + r Q_B#, so no entry is off by more than max|r| times this."""
    q = dense_generator(c)
    worst = 0.0
    for b in _bscc_split(q)[0]:
        q_b = q[np.ix_(b, b)]
        a = np.vstack([q_b.T, np.ones(len(b))])
        rhs = np.zeros(len(b) + 1)
        rhs[-1] = 1.0
        # Q_B# = (Q_B - 1 pi_B)^-1 + 1 pi_B
        w = np.outer(np.ones(len(b)), np.linalg.lstsq(a, rhs, rcond=None)[0])
        worst = max(worst, np.abs(np.linalg.inv(q_b - w) + w).sum(axis=0).max())
    return float(worst)


def _gauss_jordan(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """x with a x = b, exactly, for a nonsingular square a and the columns of b."""
    n = len(a)
    m = [row + rhs for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and (f := m[r][col]) != 0:
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [row[n:] for row in m]


def exact_steady_oracle(c: Ctmc) -> list[Fraction]:
    """Long-run distribution from c.initial in rational arithmetic, exact
    for the rates as the floats hold them; for chains of at most 40 states.

    As `steady_oracle`, but each BSCC's system pi Q_BB = 0, sum(pi) = 1
    (the last balance equation replaced by the sum) and the absorption
    system -Q_TT h = Q_TB 1 are solved by Gauss-Jordan over Fractions.
    """
    if c.n_states > 40:
        raise ValueError(f"exact oracle is for <= 40 states, got {c.n_states}")
    n = c.n_states
    q = [[Fraction(0)] * n for _ in range(n)]
    for (src, dst), rate in c.transitions.items():
        q[src][dst] += Fraction(rate)
        q[src][src] -= Fraction(rate)
    bsccs, trans = _bscc_split(dense_generator(c))
    t_at = {s: i for i, s in enumerate(trans.tolist())}
    if c.initial in t_at:
        h = _gauss_jordan([[-q[i][j] for j in trans] for i in trans],
                          [[sum((q[i][j] for j in b), Fraction(0)) for b in bsccs] for i in trans])
        weights = h[t_at[c.initial]]
    else:
        weights = [Fraction(int(c.initial in b)) for b in bsccs]

    pi = [Fraction(0)] * n
    for w, b in zip(weights, bsccs):
        b = b.tolist()
        a = [[q[j][i] for j in b] for i in b[:-1]] + [[Fraction(1)] * len(b)]
        local = _gauss_jordan(a, [[Fraction(0)]] * (len(b) - 1) + [[Fraction(1)]])
        for s, (v,) in zip(b, local):
            pi[s] = w * v
    return pi


# -- scalar path sampler ----------------------------------------------
#
# One trajectory at a time, on the same counter-based draws as
# sim._run_chunk: draw 2j gives the j-th sojourn, draw 2j+1 the j-th
# successor.  The successor rule is written out here over the chain's
# CSR rows (`successor`), not taken from sim's tables.
# estimate_label_metrics must agree with it bit for bit.


@dataclass(frozen=True)
class Path:
    """One sampled trajectory: (state, entry time) pairs up to a horizon."""

    entries: tuple[tuple[int, float], ...]
    horizon: float

    def __post_init__(self):
        if not self.entries or self.entries[0][1] != 0.0:
            raise ValueError("path must start at time 0")
        times = [t for _, t in self.entries]
        # a sojourn draw of 1.0 gives a zero-length sojourn, so two entries
        # may share a time
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("entry times must not decrease")

    @property
    def final_state(self) -> int:
        return self.entries[-1][0]


def successor(c: Ctmc, s: int, threshold: float) -> int:
    """The target of the first transition of s, in target order, whose
    running rate sum exceeds the threshold, else of its last transition."""
    running = 0.0
    for k in range(c.indptr[s], c.indptr[s + 1]):
        running += c.data[k]
        if running > threshold:
            break
    return int(c.indices[k])


def simulate_path(c: Ctmc, horizon: float, seed: int) -> Path:
    """Sample one trajectory; deterministic in (chain, horizon, seed)."""
    if not 0 < horizon < math.inf:
        raise NegativeTime(f"horizon must be finite and > 0, got {horizon}")
    exits = c.exit_rates
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    entries = [(c.initial, 0.0)]
    s = c.initial
    t = 0.0
    for j in range(1 << 62):
        e = exits[s]
        if e == 0.0:
            break
        u = float(_to_unit(_draw(key, 2 * j)))
        end = t + float(-np.log(u)) / e
        if end > horizon:
            break
        v = float(_to_unit(_draw(key, 2 * j + 1)))
        s = successor(c, s, v * e)
        t = end
        entries.append((s, t))
    return Path(tuple(entries), horizon)


# -- grid rules --------------------------------------------------------


@dataclass(frozen=True)
class GridState:
    """Per-class (available, serving, offline) counts + demand level + botnet."""

    counts: tuple[tuple[int, int, int], ...]
    demand_level: str
    botnet_on: bool

    def __post_init__(self):
        object.__setattr__(
            self, "counts", tuple(tuple(c) for c in self.counts)
        )
        if self.demand_level not in DEMAND_LEVELS:
            raise ValueError(f"unknown demand level {self.demand_level!r}")
        for triple in self.counts:
            if len(triple) != 3 or any(c < 0 for c in triple):
                raise ValueError(f"bad count triple {triple!r}")

    # A builder state code (grid._layout), written out: mixed radix, least
    # significant first, 2 * level + botnet (radix 6), then each class's
    # offline and serving counts (radix count + 1).

    @classmethod
    def decode(cls, code: int, s: Scenario) -> GridState:
        """The state a builder code stands for."""
        code, j = divmod(code, 6)
        counts = []
        for g in s.classes:
            code, o = divmod(code, g.count + 1)
            code, sv = divmod(code, g.count + 1)
            counts.append((g.count - sv - o, sv, o))
        return cls(counts, DEMAND_LEVELS[j // 2], bool(j % 2))

    def code(self) -> int:
        code = 0
        for a, sv, o in reversed(self.counts):
            code = (code * (a + sv + o + 1) + sv) * (a + sv + o + 1) + o
        return code * 6 + 2 * DEMAND_LEVELS.index(self.demand_level) + int(self.botnet_on)

    def describe(self, scenario: Scenario) -> str:
        parts = [
            f"{g.name}={a}a/{s}s/{o}o"
            for g, (a, s, o) in zip(scenario.classes, self.counts)
        ]
        parts.append(self.demand_level)
        parts.append("botnet-on" if self.botnet_on else "botnet-off")
        return " ".join(parts)


def initial_grid_state(s: Scenario, base_mw: float) -> GridState:
    return GridState.decode(initial_state(s, base_mw), s)


def supply(g: GridState, s: Scenario) -> float:
    """Generated power: serving units times their class capacity."""
    return sum(cls.capacity_mw * serv for cls, (_, serv, _) in zip(s.classes, g.counts))


def effective_demand(g: GridState, s: Scenario, base_mw: float) -> float:
    """Hourly mean shifted by the demand level, plus the botnet spike if on."""
    delta = {"low": -1.0, "normal": 0.0, "high": 1.0}[g.demand_level]
    demand = base_mw * (1.0 + delta * s.demand.delta_fraction)
    if g.botnet_on:
        demand += s.botnet.spike_fraction * base_mw
    return demand


def _band(g: GridState, s: Scenario, base_mw: float) -> str:
    """Band test against the controller tolerance; exactly one outcome."""
    sup, dem = supply(g, s), effective_demand(g, s, base_mw)
    if abs(sup - dem) <= s.controller.tolerance * dem:
        return EQUILIBRIUM
    return OVER_DEMAND if sup < dem else OVER_SUPPLY


# Not independent: the builder's own rules, one GridState at a time.


def _expand(g: GridState, s: Scenario, base_mw: float):
    """grid._rules' expand on the one-state level [code of g]."""
    return _rules(s, base_mw)[1](np.array([g.code()]))


def classify(g: GridState, s: Scenario, base_mw: float) -> str:
    """The band the builder's rules give g."""
    return (OVER_SUPPLY, EQUILIBRIUM, OVER_DEMAND)[_expand(g, s, base_mw)[0][0]]


def enabled_transitions(g: GridState, s: Scenario, base_mw: float) -> list[tuple[GridState, float]]:
    """The successors with rates that the builder's rules give g, in rule order."""
    *_, child, rate = _expand(g, s, base_mw)
    return [(GridState.decode(code, s), r) for code, r in zip(child.tolist(), rate.tolist())]


# -- explicit per-unit grid model ------------------------------------
#
# Brute-force counterpart of the counting abstraction: every unit is
# tracked by identity, transitions carry rate 1/t per unit.  Only
# viable for tiny fleets; exists to show the lumped chain is exact.


def _counts_of(units):
    return tuple(
        (sum(1 for u in cls if u == "A"), sum(1 for u in cls if u == "S"),
         sum(1 for u in cls if u == "O"))
        for cls in units
    )


def _grid_view(units, level, botnet_on):
    return GridState(_counts_of(units), level, botnet_on)


def _unit_moves(units, level, botnet_on, s: Scenario, base_mw: float):
    g = _grid_view(units, level, botnet_on)
    out = []
    if level == "normal":
        out.append(((units, "low", botnet_on), 1.0 / s.demand.t_normal_to_low))
        out.append(((units, "high", botnet_on), 1.0 / s.demand.t_normal_to_high))
    elif level == "low":
        out.append(((units, "normal", botnet_on), 1.0 / s.demand.t_low_to_normal))
    else:
        out.append(((units, "normal", botnet_on), 1.0 / s.demand.t_high_to_normal))
    if s.botnet.enabled:
        rate = s.botnet.t_on_to_off if botnet_on else s.botnet.t_off_to_on
        out.append(((units, level, not botnet_on), 1.0 / rate))

    def swap(k, i, to):
        cls = list(units[k])
        cls[i] = to
        return units[:k] + (tuple(cls),) + units[k + 1 :]

    band = _band(g, s, base_mw)
    if band == OVER_DEMAND:
        for name in s.controller.priority:
            k = s.class_index(name)
            if "A" in units[k]:
                for i, u in enumerate(units[k]):
                    if u == "A":
                        out.append(((swap(k, i, "S"), level, botnet_on),
                                    1.0 / s.classes[k].t_start))
                break
    if band == OVER_SUPPLY:
        sup = supply(g, s)
        dem = effective_demand(g, s, base_mw)
        for name in reversed(s.controller.priority):
            k = s.class_index(name)
            if "S" in units[k] and sup - s.classes[k].capacity_mw >= dem:
                for i, u in enumerate(units[k]):
                    if u == "S":
                        out.append(((swap(k, i, "A"), level, botnet_on),
                                    1.0 / s.classes[k].t_stop))
                break
    if band == OVER_DEMAND and botnet_on:
        for k, cls in enumerate(s.classes):
            for i, u in enumerate(units[k]):
                if u == "S":
                    out.append(((swap(k, i, "O"), level, botnet_on), 1.0 / cls.t_trip))
    for k, cls in enumerate(s.classes):
        if cls.t_recover is not None:
            for i, u in enumerate(units[k]):
                if u == "O":
                    out.append(((swap(k, i, "A"), level, botnet_on), 1.0 / cls.t_recover))
    return out


def per_unit_ctmc(s: Scenario, base_mw: float):
    g0 = initial_grid_state(s, base_mw)
    units0 = tuple(
        tuple("S" if i < serv else "A" for i in range(cls.count))
        for cls, (_, serv, _) in zip(s.classes, g0.counts)
    )
    start = (units0, "normal", False)
    index = {start: 0}
    order = [start]
    transitions = []
    queue = deque([start])
    while queue:
        st = queue.popleft()
        i = index[st]
        for succ, rate in _unit_moves(*st, s, base_mw):
            j = index.get(succ)
            if j is None:
                j = len(index)
                index[succ] = j
                order.append(succ)
                queue.append(succ)
            transitions.append((i, j, rate))
    labels = {OVER_SUPPLY: set(), EQUILIBRIUM: set(), OVER_DEMAND: set(), BLACKOUT: set()}
    for i, (units, level, botnet_on) in enumerate(order):
        g = _grid_view(units, level, botnet_on)
        band = _band(g, s, base_mw)
        labels[band].add(i)
        if band == OVER_DEMAND and any(o for _, _, o in g.counts):
            labels[BLACKOUT].add(i)
    return new_ctmc(len(order), transitions, 0, labels)


# -- GridState-per-successor grid model ----------------------------------
#
# The counting abstraction written out over GridState objects, one new
# validated state per move, with the band test taken from _band().
# build_grid_ctmc must give the same chain bit for bit: same discovery
# order, rates, labels and descriptions.


def _bump(g: GridState, k: int, d_avail: int, d_serv: int, d_off: int) -> GridState:
    a, sv, o = g.counts[k]
    counts = g.counts[:k] + ((a + d_avail, sv + d_serv, o + d_off),) + g.counts[k + 1 :]
    return GridState(counts, g.demand_level, g.botnet_on)


def _grid_moves(g: GridState, s: Scenario, base_mw: float):
    out = []
    d = s.demand
    if g.demand_level == "normal":
        out.append((GridState(g.counts, "low", g.botnet_on), 1.0 / d.t_normal_to_low))
        out.append((GridState(g.counts, "high", g.botnet_on), 1.0 / d.t_normal_to_high))
    else:
        t = d.t_low_to_normal if g.demand_level == "low" else d.t_high_to_normal
        out.append((GridState(g.counts, "normal", g.botnet_on), 1.0 / t))
    if s.botnet.enabled:
        t = s.botnet.t_on_to_off if g.botnet_on else s.botnet.t_off_to_on
        out.append((GridState(g.counts, g.demand_level, not g.botnet_on), 1.0 / t))
    sup, dem = supply(g, s), effective_demand(g, s, base_mw)
    band = _band(g, s, base_mw)
    if band == OVER_DEMAND:
        for name in s.controller.priority:
            k = s.class_index(name)
            if g.counts[k][0] > 0:
                out.append((_bump(g, k, -1, 1, 0), g.counts[k][0] / s.classes[k].t_start))
                break
    if band == OVER_SUPPLY:
        for name in reversed(s.controller.priority):
            k = s.class_index(name)
            serv = g.counts[k][1]
            if serv > 0 and sup - s.classes[k].capacity_mw >= dem:
                out.append((_bump(g, k, 1, -1, 0), serv / s.classes[k].t_stop))
                break
    if band == OVER_DEMAND and g.botnet_on:
        for k, cls in enumerate(s.classes):
            if g.counts[k][1] > 0:
                out.append((_bump(g, k, 0, -1, 1), g.counts[k][1] / cls.t_trip))
    for k, cls in enumerate(s.classes):
        if g.counts[k][2] > 0 and cls.t_recover is not None:
            out.append((_bump(g, k, 1, 0, -1), g.counts[k][2] / cls.t_recover))
    return band, out


def grid_state_ctmc(s: Scenario, base_mw: float) -> tuple[Ctmc, list[GridState]]:
    """The chain of a scenario at one hourly demand, one GridState per
    successor, and its states in discovery order."""
    start = initial_grid_state(s, base_mw)
    index = {start: 0}
    order = [start]
    transitions = []
    labels = {OVER_SUPPLY: set(), EQUILIBRIUM: set(), OVER_DEMAND: set(), BLACKOUT: set()}
    queue = deque([start])
    while queue:
        g = queue.popleft()
        i = index[g]
        band, moves = _grid_moves(g, s, base_mw)
        labels[band].add(i)
        if band == OVER_DEMAND and any(o for _, _, o in g.counts):
            labels[BLACKOUT].add(i)
        for succ, rate in moves:
            if succ not in index:
                index[succ] = len(order)
                order.append(succ)
                queue.append(succ)
            transitions.append((i, index[succ], rate))
    src, dst, rates = np.array(transitions, dtype=float).reshape(-1, 3).T
    return Ctmc(len(order), src, dst, rates, 0, labels), order
