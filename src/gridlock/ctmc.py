"""Finite labeled continuous-time Markov chains.

A chain is a finite state set, a strictly positive transition-rate map
``(source, target) -> rate`` (events per minute), an initial state and
named label sets.  Absorbing states simply have no outgoing entries;
self-loops are rejected because they have no effect on CTMC dynamics.

Derived objects (exit rates, infinitesimal generator, embedded jump
chain) are computed lazily and cached; ``Ctmc`` instances are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from .errors import (
    DuplicateTransition,
    IndexOutOfRange,
    NegativeTime,
    NonPositiveRate,
    SelfLoop,
    UnknownLabel,
)

CLASSIFICATION_LABELS = ("overSupply", "equilibrium", "overDemand")


@dataclass(frozen=True)
class Ctmc:
    """Labeled CTMC with sparse rates, in events per minute."""

    n_states: int
    transitions: Mapping[tuple[int, int], float]
    initial: int
    labels: Mapping[str, frozenset[int]] = field(default_factory=dict)
    state_meta: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_states < 0:
            raise IndexOutOfRange(f"n_states must be >= 0, got {self.n_states}")
        if not 0 <= self.initial < self.n_states:
            raise IndexOutOfRange(
                f"initial state {self.initial} not in [0, {self.n_states})"
            )
        for (src, dst), rate in self.transitions.items():
            if not (0 <= src < self.n_states and 0 <= dst < self.n_states):
                raise IndexOutOfRange(f"transition ({src}, {dst}) out of range")
            if src == dst:
                raise SelfLoop(f"self-loop at state {src}")
            if not (math.isfinite(rate) and rate > 0):
                raise NonPositiveRate(f"rate {rate!r} for ({src}, {dst})")
        for name, states in self.labels.items():
            for s in states:
                if not 0 <= s < self.n_states:
                    raise IndexOutOfRange(f"label {name!r} contains state {s}")
        if all(name in self.labels for name in CLASSIFICATION_LABELS):
            union: set[int] = set()
            total = 0
            for name in CLASSIFICATION_LABELS:
                union.update(self.labels[name])
                total += len(self.labels[name])
            if total != self.n_states or len(union) != self.n_states:
                raise IndexOutOfRange(
                    "overSupply/equilibrium/overDemand must partition the states"
                )
        if self.state_meta is not None and len(self.state_meta) != self.n_states:
            raise IndexOutOfRange("state_meta length must equal n_states")

    # -- sparse views (cached; safe on a frozen dataclass because
    #    cached_property writes straight to __dict__) ------------------

    @cached_property
    def _coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.transitions:
            src, dst = zip(*self.transitions.keys())
            rates = np.fromiter(self.transitions.values(), dtype=float)
            return (
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                rates,
            )
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=float)

    @cached_property
    def rate_matrix(self) -> sp.csr_matrix:
        """R as a CSR matrix; R[s, s'] is the transition rate s -> s'."""
        src, dst, rates = self._coo
        return sp.csr_matrix(
            (rates, (src, dst)), shape=(self.n_states, self.n_states)
        )

    @cached_property
    def exit_rates(self) -> np.ndarray:
        """Vector of exit rates E(s) = sum of outgoing rates."""
        return np.asarray(self.rate_matrix.sum(axis=1)).ravel()

    def exit_rate(self, s: int) -> float:
        if not 0 <= s < self.n_states:
            raise IndexOutOfRange(f"state {s} not in [0, {self.n_states})")
        return float(self.exit_rates[s])

    def generator_matrix(self) -> sp.csr_matrix:
        """Infinitesimal generator Q: off-diagonal R, diagonal -E(s)."""
        return (self.rate_matrix - sp.diags(self.exit_rates)).tocsr()

    def embedded_dtmc(self) -> sp.csr_matrix:
        """Jump chain: rows of R divided by E(s); absorbing states self-loop."""
        exits = self.exit_rates
        src, dst, rates = self._coo
        absorbing = np.flatnonzero(exits == 0.0)
        rows = np.concatenate([src, absorbing])
        cols = np.concatenate([dst, absorbing])
        vals = np.concatenate(
            [rates / exits[src] if len(src) else rates, np.ones(len(absorbing))]
        )
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n_states, self.n_states))

    def sojourn_cdf(self, s: int, t: float) -> float:
        """P(leave state s within t minutes) = 1 - exp(-E(s) * t)."""
        if t < 0:
            raise NegativeTime(f"t must be >= 0, got {t}")
        return -math.expm1(-self.exit_rate(s) * t)

    def successors(self, s: int) -> list[tuple[int, float]]:
        """Outgoing (target, rate) pairs of state s, by target index."""
        m = self.rate_matrix
        lo, hi = m.indptr[s], m.indptr[s + 1]
        return list(zip(m.indices[lo:hi].tolist(), m.data[lo:hi].tolist()))

    def label_states(self, label: str) -> frozenset[int]:
        try:
            return self.labels[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not defined") from None


def new_ctmc(
    n_states: int,
    transitions: Iterable[tuple[int, int, float]],
    initial: int,
    labels: Mapping[str, Iterable[int]] | None = None,
    state_meta: Iterable[str] | None = None,
) -> Ctmc:
    """Validated constructor from a transition list.

    Duplicate (source, target) pairs are rejected rather than summed, so
    that model-construction bugs surface instead of silently merging.
    """
    tmap: dict[tuple[int, int], float] = {}
    for src, dst, rate in transitions:
        key = (src, dst)
        if key in tmap:
            raise DuplicateTransition(f"duplicate transition ({src}, {dst})")
        tmap[key] = rate
    frozen_labels = {
        name: frozenset(states) for name, states in (labels or {}).items()
    }
    meta = tuple(state_meta) if state_meta is not None else None
    return Ctmc(n_states, tmap, initial, frozen_labels, meta)


@dataclass(frozen=True)
class Distribution:
    """Probability vector over the states of a chain."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1:
            raise ValueError("probability vector must be one-dimensional")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, s: int) -> float:
        return float(self.probs[s])
