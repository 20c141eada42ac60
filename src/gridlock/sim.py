"""Monte-Carlo path simulation over labeled CTMCs.

Randomness comes from a counter-based scheme: draw k of a stream is
splitmix64(key + (k+1) * golden), so any draw is addressable without
per-path generator state.  Trial i of an experiment runs on the stream
key derived from the master seed and i.  Aggregates are therefore
independent of execution order, and the vectorized batch runner below
reproduces a plain per-path loop bit for bit (the scalar sampler in
tests/oracles.py; both take their logarithms through numpy, since libm's
log differs in the last ulp).

The batch keeps its live trials in contiguous arrays and compacts them
each round, as trials cross the horizon.  A jump's successor is the first
outgoing transition whose running rate sum exceeds v * E(s) for the unit
draw v, else the last one; the batch finds it by a branch-free binary
search over per-chain tables padded to a power-of-two width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctmc import Ctmc
from .errors import NegativeTime

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_TRIAL_STRIDE = np.uint64(0xD1342543DE82EF95)
_CHUNK = 16384


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _draw(keys: np.ndarray, counter: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _mix64(keys + np.uint64(counter + 1) * _GOLDEN)


def _to_unit(bits: np.ndarray) -> np.ndarray:
    """Map uint64 draws to doubles in (0, 1].

    The top 53 bits plus one half, times 2**-53: the largest draw rounds up
    to exactly 1.0, so a successor threshold v * E(s) can reach E(s).
    """
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _trial_keys(master: int, trials: int | np.ndarray) -> np.ndarray:
    """Stream keys of the given trial indices under a master seed."""
    with np.errstate(over="ignore"):
        return _mix64(np.uint64(master & 0xFFFFFFFFFFFFFFFF)
                      + np.asarray(trials, dtype=np.uint64) * _TRIAL_STRIDE)


def derive_trial_seed(master: int, trial: int) -> int:
    """Stream key for one trial; a scalar path sampled on it replays that trial."""
    return int(_trial_keys(master, trial))


@dataclass(frozen=True)
class LabelEstimate:
    """Monte-Carlo estimates for one label at a fixed horizon."""

    label: str
    point_probability: float
    point_standard_error: float
    occupancy: float
    occupancy_standard_error: float
    trials: int

    def __post_init__(self):
        if not 0.0 <= self.point_probability <= 1.0:
            raise ValueError("point_probability outside [0, 1]")
        if not 0.0 <= self.occupancy <= 1.0 + 1e-12:
            raise ValueError("occupancy outside [0, 1]")
        if self.point_standard_error < 0 or self.occupancy_standard_error < 0:
            raise ValueError("standard errors must be nonnegative")


class _Compiled:
    """Per-chain tables the sampler indexes into.

    Row s of cum_rates holds the running sums of s's outgoing rates in
    target order, padded with +inf to `width`, the smallest power of two
    that holds the widest row; row s of targets holds the matching
    targets, padded with the row's last real target (an absorbing state's
    row with the state itself).  The rates are scattered into zero-padded
    rows first: a row's cumsum is a left-to-right accumulation, so the
    padding after a row's rates leaves their running sums bit for bit
    unchanged.
    """

    def __init__(self, c: Ctmc):
        m = c.rate_matrix
        self.initial = c.initial
        self.exits = c.exit_rates
        counts = np.diff(m.indptr)
        self.width = 1 << (max(int(counts.max()), 1) - 1).bit_length()
        rows = np.repeat(np.arange(c.n_states), counts)
        cols = np.arange(m.nnz) - np.repeat(m.indptr[:-1], counts)
        padded = np.zeros((c.n_states, self.width))
        padded[rows, cols] = m.data
        self.cum_rates = np.cumsum(padded, axis=1)
        self.cum_rates[np.arange(self.width) >= counts[:, None]] = np.inf
        last = np.arange(c.n_states)
        moving = counts > 0
        last[moving] = m.indices[m.indptr[1:][moving] - 1]
        self.targets = np.repeat(last[:, None], self.width, axis=1)
        self.targets[rows, cols] = m.indices

    def successors(self, src: np.ndarray, threshold: np.ndarray) -> np.ndarray:
        """Per source state, the target of the first column whose cumulative
        rate exceeds the threshold, else of the row's last real column.

        A branch-free binary search: the step of size h (width/2, ..., 1)
        moves column c to c + h when the entry in column c + h - 1 is at or
        below the threshold.  Rows are nondecreasing, so the column ends
        on the first entry above the threshold, or on the last column if
        none is.  A threshold at or above a row's last running sum (a unit
        draw of 1.0, or an exit rate that sums to more than the running
        sum) so ends on a pad or on the last real column, and both hold the
        row's last real target.
        """
        cum = self.cum_rates.ravel()
        pos = src * self.width
        half = self.width >> 1
        while half:
            pos += (np.take(cum[half - 1:], pos) <= threshold) * half
            half >>= 1
        return np.take(self.targets, pos)


@dataclass(frozen=True)
class LabelEstimates:
    """Estimates for several labels, all scored on one set of paths."""

    trials: int
    estimates: tuple[LabelEstimate, ...]


def estimate_label_metrics(
    c: Ctmc, labels: str | tuple[str, ...], horizon: float, trials: int, seed: int
) -> LabelEstimate | LabelEstimates:
    """Estimate point probability and occupancy of labels by simulation.

    Runs `trials` paths on per-trial streams derived from the master
    seed, vectorized in fixed-size chunks; per-trial results land in
    index order, so the aggregate never depends on scheduling.  Each path
    is sampled once and scored against every label, so a label's estimate
    does not depend on which other labels are asked for.  One label name
    gives its LabelEstimate; a tuple of names gives LabelEstimates in the
    order given.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < horizon < math.inf:
        raise NegativeTime(f"horizon must be finite and > 0, got {horizon}")
    names = (labels,) if isinstance(labels, str) else tuple(labels)
    in_label = np.zeros((c.n_states, len(names)))
    for col, name in enumerate(names):
        in_label[c.label_states(name), col] = 1.0

    comp = _Compiled(c)
    # one row per label, so each label's statistics run over contiguous
    # memory exactly as they would for that label alone
    at_horizon = np.empty((len(names), trials), dtype=bool)
    occupancy = np.empty((len(names), trials), dtype=np.float64)
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        _run_chunk(comp, in_label, horizon, _trial_keys(seed, np.arange(lo, hi)),
                   at_horizon[:, lo:hi], occupancy[:, lo:hi])

    estimates = tuple(
        _estimate(name, flags, occ) for name, flags, occ in zip(names, at_horizon, occupancy)
    )
    if isinstance(labels, str):
        return estimates[0]
    return LabelEstimates(trials, estimates)


def _estimate(label: str, at_horizon: np.ndarray, occupancy: np.ndarray) -> LabelEstimate:
    trials = len(at_horizon)
    p = float(at_horizon.sum()) / trials
    point_se = math.sqrt(p * (1.0 - p) / trials)
    occ_mean = float(occupancy.sum()) / trials
    occ_se = (
        float(occupancy.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    )
    return LabelEstimate(
        label=label,
        point_probability=p,
        point_standard_error=point_se,
        occupancy=occ_mean,
        occupancy_standard_error=occ_se,
        trials=trials,
    )


def _run_chunk(
    comp: _Compiled,
    in_label: np.ndarray,
    horizon: float,
    keys: np.ndarray,
    at_horizon: np.ndarray,
    occupancy: np.ndarray,
) -> None:
    """All trials of one chunk, advanced one jump per round.

    in_label is a (states, labels) table of 0.0 and 1.0; the chunk's flags
    at the horizon and occupancies go to the (labels, trials) arrays
    at_horizon and occupancy.  The live trials sit in contiguous arrays,
    label times as (trials, labels) rows, and each round moves the trials
    that crossed the horizon out to the results and compacts the rest.
    Per trial this performs exactly the operations of a one-path loop
    (draw 2j picks the sojourn, draw 2j+1 the successor) in the same
    order, which is what makes the batch bitwise-comparable to that loop.
    A trial in an absorbing state draws an infinite sojourn, so it crosses
    the horizon like any other.
    """
    m = len(keys)
    final = np.empty(m, dtype=np.int64)
    trial = np.arange(m)
    state = np.full(m, comp.initial, dtype=np.int64)
    t = np.zeros(m)
    label_time = np.zeros((m, in_label.shape[1]))
    total_time = np.zeros(m)

    j = 0
    while trial.size:
        exits = comp.exits[state]
        u = _to_unit(_draw(keys, 2 * j))
        with np.errstate(divide="ignore"):
            end = t + (-np.log(u)) / exits
        crossed = end > horizon
        seg = np.where(crossed, horizon, end) - t
        label_time += np.take(in_label, state, axis=0) * seg[:, None]
        total_time += seg

        if crossed.any():
            done = np.flatnonzero(crossed)
            final[trial[done]] = state[done]
            occupancy[:, trial[done]] = (label_time[done] / total_time[done, None]).T
            live = np.flatnonzero(~crossed)
            trial, keys, state, exits, end, total_time = (
                np.take(a, live) for a in (trial, keys, state, exits, end, total_time))
            label_time = np.take(label_time, live, axis=0)
        if trial.size:
            v = _to_unit(_draw(keys, 2 * j + 1))
            state = comp.successors(state, v * exits)
        t = end
        j += 1

    at_horizon[:] = in_label[final].T > 0.0
