"""Finite labeled continuous-time Markov chains.

A chain is a finite state set, strictly positive transition rates
``(source, target) -> rate`` (events per minute), an initial state and
named label sets.  Absorbing states simply have no outgoing entries;
self-loops are rejected because they have no effect on CTMC dynamics.
The rates are stored once, as CSR arrays with targets ascending within
each row.  Everything else (rate and generator matrices, exit rates, the
``transitions`` mapping, state descriptions) is derived and cached, lazily
but for the exit rates, which construction checks to be finite; ``Ctmc``
instances are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DuplicateTransition,
    IndexOutOfRange,
    NonPositiveRate,
    SelfLoop,
    UnknownLabel,
)

CLASSIFICATION_LABELS = ("overSupply", "equilibrium", "overDemand")


@dataclass(frozen=True, eq=False)
class Ctmc:
    """Labeled CTMC with CSR rates, in events per minute; built by `new_ctmc`
    or `ctmc_from_arrays`.  `describe` runs on the first read of `state_meta`."""

    n_states: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    initial: int
    labels: Mapping[str, frozenset[int]] = field(default_factory=dict)
    describe: Callable[[], Sequence[str]] | None = field(default=None, repr=False)

    def __eq__(self, other):
        fields = ("n_states", "initial", "labels", "state_meta")
        return isinstance(other, Ctmc) and all(
            getattr(self, f) == getattr(other, f) for f in fields
        ) and all(map(np.array_equal, (self.indptr, self.indices, self.data),
                      (other.indptr, other.indices, other.data)))

    # -- derived views (cached; safe on a frozen dataclass because
    #    cached_property writes straight to __dict__) ------------------

    @cached_property
    def state_meta(self) -> tuple[str, ...] | None:
        """One description per state, or None."""
        return None if self.describe is None else tuple(self.describe())

    @cached_property
    def transitions(self) -> Mapping[tuple[int, int], float]:
        """Read-only ``(source, target) -> rate`` view of the CSR arrays."""
        src = np.repeat(np.arange(self.n_states), np.diff(self.indptr)).tolist()
        return MappingProxyType(dict(zip(zip(src, self.indices.tolist()), self.data.tolist())))

    @cached_property
    def rate_matrix(self) -> sp.csr_matrix:
        """R as a CSR matrix; R[s, s'] is the transition rate s -> s'."""
        shape = (self.n_states, self.n_states)
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=shape)

    @cached_property
    def exit_rates(self) -> np.ndarray:
        """Vector of exit rates E(s) = sum of outgoing rates."""
        return np.asarray(self.rate_matrix.sum(axis=1)).ravel()

    def generator_matrix(self) -> sp.csr_matrix:
        """Infinitesimal generator Q: off-diagonal R, diagonal -E(s)."""
        return (self.rate_matrix - sp.diags(self.exit_rates)).tocsr()

    def label_states(self, label: str) -> frozenset[int]:
        try:
            return self.labels[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not defined") from None


def new_ctmc(
    n_states: int, transitions: Iterable[tuple[int, int, float]], initial: int,
    labels: Mapping[str, Iterable[int]] | None = None, state_meta: Iterable[str] | None = None,
) -> Ctmc:
    """Validated constructor from (source, target, rate) triples."""
    t = np.array(list(transitions), dtype=float).reshape(-1, 3)
    meta = None if state_meta is None else tuple(state_meta)
    if meta is not None and len(meta) != n_states:
        raise IndexOutOfRange("state_meta length must equal n_states")
    describe = None if meta is None else (lambda: meta)
    return ctmc_from_arrays(n_states, t[:, 0], t[:, 1], t[:, 2], initial, labels, describe)


def ctmc_from_arrays(
    n_states: int, src: np.ndarray, dst: np.ndarray, rates: np.ndarray, initial: int,
    labels: Mapping[str, Iterable[int]] | None = None,
    describe: Callable[[], Sequence[str]] | None = None,
) -> Ctmc:
    """Validated constructor from parallel source, target and rate arrays.

    Duplicate (source, target) pairs are rejected rather than summed, so
    that model-construction bugs surface instead of silently merging.
    """
    if not (0 <= initial < n_states and initial == int(initial)):
        raise IndexOutOfRange(f"initial state {initial!r} is not an integer in [0, {n_states})")
    initial = int(initial)
    src_in, dst_in = np.asarray(src), np.asarray(dst)
    rates = np.asarray(rates, dtype=float)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught here
        src, dst = src_in.astype(np.int64), dst_in.astype(np.int64)
    fractional = (src != src_in) | (dst != dst_in)
    if fractional.any():
        i = int(np.argmax(fractional))
        raise IndexOutOfRange(f"transition ({src_in[i]}, {dst_in[i]}, rate {float(rates[i])!r}) "
                              "has a state index that is not an integer")
    key = src * n_states + dst
    order = np.argsort(key, kind="stable")
    duplicate = np.zeros(len(key), dtype=bool)
    duplicate[order[1:]] = np.diff(key[order]) == 0
    for error, what, bad in (
        (IndexOutOfRange, "out of range", (src < 0) | (src >= n_states) | (dst < 0) | (dst >= n_states)),
        (SelfLoop, "a self-loop", src == dst),
        (NonPositiveRate, "not positive and finite", ~(np.isfinite(rates) & (rates > 0))),
        (DuplicateTransition, "a duplicate", duplicate),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise error(f"transition ({src[i]}, {dst[i]}, rate {float(rates[i])!r}) is {what}")

    frozen_labels = {name: frozenset(states) for name, states in (labels or {}).items()}
    for name, states in frozen_labels.items():
        if states and not 0 <= min(states) <= max(states) < n_states:
            raise IndexOutOfRange(f"label {name!r} contains a state outside [0, {n_states})")
    bands = [frozen_labels[name] for name in CLASSIFICATION_LABELS if name in frozen_labels]
    if len(bands) == 3 and not sum(map(len, bands)) == len(frozenset().union(*bands)) == n_states:
        raise IndexOutOfRange("overSupply/equilibrium/overDemand must partition the states")

    index_dtype = np.int32 if max(n_states, len(key)) < 2**31 else np.int64
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n_states))))
    chain = Ctmc(n_states, indptr.astype(index_dtype), dst[order].astype(index_dtype),
                 rates[order], initial, frozen_labels, describe)
    with np.errstate(over="ignore"):  # finite rates can still sum past the float range
        overflow = ~np.isfinite(chain.exit_rates)
    if overflow.any():
        raise NonPositiveRate(f"state {np.argmax(overflow)} has exit rate inf, not finite")
    return chain


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
