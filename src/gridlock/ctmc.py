"""Finite labeled continuous-time Markov chains.

A chain is a finite state set, strictly positive transition rates
``(source, target) -> rate`` (events per minute), an initial state and
named label sets.  Absorbing states simply have no outgoing entries;
self-loops are rejected because they have no effect on CTMC dynamics.
The rates are stored once, as CSR arrays with targets ascending within
each row, and each label as an ascending int64 array.  Everything else
(matrices, exit rates, the ``transitions`` mapping) is derived and cached,
lazily but for the exit rates, which construction checks to be finite.
`Ctmc(...)` is the one constructor and validates all of its input.  It
copies what it keeps (the rates and targets into CSR order, each label
into an array of its own) and nothing else of full length: integer
sources and targets are read in place, other ones cast to int64.  Its
largest temporaries are the int64 (source, target) key, sorted in place,
and that sort's order: 16 bytes a rate.
Instances are immutable (no attribute can be set, the label map and every
array are read-only) and thread-safe; a pickle holds only the defining
fields and loads through the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from types import MappingProxyType
from typing import Iterable, Mapping

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


def _integer(name: str, value) -> int:
    """value as an int; a bool or a value of another type is rejected."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _state_indices(src: np.ndarray, dst: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """src and dst as integer arrays: integer input as it is, other input
    cast to int64, which must keep every value."""
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught here
        ints = [a if a.dtype.kind in "iu" else a.astype(np.int64) for a in (src, dst)]
    fractional = np.logical_or.reduce([i != a for i, a in zip(ints, (src, dst)) if i is not a])
    if fractional.any():
        i = int(np.argmax(fractional))
        raise IndexOutOfRange(f"transition ({src[i]}, {dst[i]}, rate {float(rates[i])!r}) "
                              "has a state index that is not an integer")
    return ints[0], ints[1]


def _reject(error: type[Exception], what: str, bad: np.ndarray, src, dst, rates) -> None:
    """Raise error naming the first transition where bad holds."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(f"transition ({src[i]}, {dst[i]}, rate {float(rates[i])!r}) is {what}")


class Ctmc:
    """Labeled CTMC from parallel source, target and rate arrays, rates in
    events per minute.  It holds `n_states`, the CSR arrays `indptr`,
    `indices` and `data`, `initial` and the `label_arrays` map.

    Duplicate (source, target) pairs are rejected rather than summed, so
    that model-construction bugs surface instead of silently merging.
    Index arrays of any integer dtype are read without a copy; float or
    other index input is cast to int64 and must keep its values.  The
    chain shares no array with the caller: changing the arrays passed in
    afterwards does not change it.
    """

    def __init__(
        self, n_states: int, src: np.ndarray, dst: np.ndarray, rates: np.ndarray, initial: int,
        labels: Mapping[str, Iterable[int]] | None = None,
    ):
        if vars(self):  # a second call would leave the cached views stale
            raise AttributeError("a Ctmc is immutable: __init__ cannot run again")
        if not (0 <= initial < n_states and initial == int(initial)):
            raise IndexOutOfRange(f"initial state {initial!r} is not an integer in [0, {n_states})")
        initial = int(initial)
        rates = np.asarray(rates, dtype=float)
        src, dst = _state_indices(np.asarray(src), np.asarray(dst), rates)
        _reject(IndexOutOfRange, "out of range",
                (src < 0) | (src >= n_states) | (dst < 0) | (dst >= n_states), src, dst, rates)
        _reject(SelfLoop, "a self-loop", src == dst, src, dst, rates)
        _reject(NonPositiveRate, "not positive and finite",
                ~(np.isfinite(rates) & (rates > 0)), src, dst, rates)
        key = np.multiply(src, n_states, dtype=np.int64)
        np.add(key, dst, out=key, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        key.sort(kind="stable")  # fast on the nearly sorted input of a build
        duplicate = np.zeros(len(key), dtype=bool)
        duplicate[order[1:]] = key[1:] == key[:-1]
        del key
        _reject(DuplicateTransition, "a duplicate", duplicate, src, dst, rates)
        del duplicate
        index_dtype = np.int32 if max(n_states, len(order)) < 2**31 else np.int64
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n_states)))).astype(index_dtype)
        indices, data = dst[order].astype(index_dtype, copy=False), rates[order]
        del order

        label_arrays = {}
        for name, states in (labels or {}).items():
            values = np.asarray(states if isinstance(states, np.ndarray) else list(states))
            numeric = values.ndim == 1 and values.dtype.kind in "iuf"  # not bool, text, None or past int64
            with np.errstate(invalid="ignore"):
                ints = values.astype(np.int64) if numeric else values  # a copy of our own
            if not numeric or ((ints != values) | (ints < 0) | (ints >= n_states)).any():
                raise IndexOutOfRange(f"label {name!r} holds a state that is not an integer in [0, {n_states})")
            ints = ints if (np.diff(ints) > 0).all() else np.flatnonzero(np.bincount(ints, minlength=n_states))
            ints.flags.writeable = False
            label_arrays[name] = ints
        bands = [label_arrays[name] for name in CLASSIFICATION_LABELS if name in label_arrays]
        if len(bands) == 3 and not (np.bincount(np.concatenate(bands), minlength=n_states) == 1).all():
            raise IndexOutOfRange("overSupply/equilibrium/overDemand must partition the states")

        for a in (indptr, indices, data):
            a.flags.writeable = False
        # straight into the instance dict, past __setattr__, as cached_property does
        vars(self).update(n_states=n_states, indptr=indptr, indices=indices, data=data,
                          initial=initial, label_arrays=MappingProxyType(label_arrays))
        with np.errstate(over="ignore"):  # finite rates can still sum past the float range
            overflow = ~np.isfinite(self.exit_rates)
        if overflow.any():
            raise NonPositiveRate(f"state {np.argmax(overflow)} has exit rate inf, not finite")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a Ctmc is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        src = np.repeat(np.arange(self.n_states), np.diff(self.indptr))
        return Ctmc, (self.n_states, src, self.indices, self.data, self.initial, dict(self.label_arrays))

    # -- derived views (cached) -----------------------------------------

    @cached_property
    def transitions(self) -> Mapping[tuple[int, int], float]:
        """Read-only ``(source, target) -> rate`` view of the CSR arrays."""
        src = np.repeat(np.arange(self.n_states), np.diff(self.indptr)).tolist()
        return MappingProxyType(dict(zip(zip(src, self.indices.tolist()), self.data.tolist())))

    @property
    def labels(self) -> Mapping[str, frozenset[int]]:
        """Read-only ``name -> frozenset`` view of `label_arrays`."""
        return MappingProxyType({k: frozenset(a.tolist()) for k, a in self.label_arrays.items()})

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

    def label_states(self, label: str) -> np.ndarray:
        try:
            return self.label_arrays[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not defined") from None


def new_ctmc(
    n_states: int, transitions: Iterable[tuple[int, int, float]], initial: int,
    labels: Mapping[str, Iterable[int]] | None = None,
) -> Ctmc:
    """`Ctmc` from (source, target, rate) triples."""
    t = np.array(list(transitions), dtype=float).reshape(-1, 3)
    return Ctmc(n_states, t[:, 0], t[:, 1], t[:, 2], initial, labels)


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
