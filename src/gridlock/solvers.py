"""Steady-state and transient solvers for labeled CTMCs.

Steady state on a reducible chain is defined as the absorption-weighted
mixture of the stationary distributions of its bottom strongly connected
components; transient states carry probability 0.  The weights come from
sweeps of the embedded jump chain and each component is solved by power
iteration on its uniformized matrix.  Transient analysis
uses uniformization with two-sided Poisson truncation and stops early
once the iterate is provably stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.stats import poisson

from .ctmc import Ctmc, Distribution
from .errors import IndexOutOfRange, NegativeTime, NonConvergence

# Uniformization rate is strictly above the max exit rate so the
# uniformized matrix has positive diagonal everywhere (aperiodicity).
_UNIF_SLACK = 1.02

# Steps between stationarity tests in the uniformization loop; a test
# costs about one SpMV's worth of vector work.
_STATIONARITY_CHECK = 32


@dataclass(frozen=True)
class SolverConfig:
    """Stopping parameters of the steady-state iterations."""

    tolerance: float = 1e-10
    max_iterations: int = 1_000_000

    def __post_init__(self):
        # a tolerance of 1 or more ends the absorption sweeps before any
        # sweep means anything
        if not 0 < self.tolerance < 1:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance!r}")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class BsccPartition:
    """Bottom strongly connected components and the remaining states, each
    an ascending int64 array of state indices."""

    bsccs: tuple[np.ndarray, ...]
    transient_states: np.ndarray


def bscc_decomposition(c: Ctmc) -> BsccPartition:
    """Split states into bottom SCCs (ordered by smallest member) and the rest."""
    n_comp, comp = connected_components(
        c.rate_matrix, directed=True, connection="strong"
    )
    src_comp = comp[np.repeat(np.arange(c.n_states), np.diff(c.indptr))]
    is_bottom = np.ones(n_comp, dtype=bool)
    is_bottom[src_comp[src_comp != comp[c.indices]]] = False

    # states grouped by component, ascending within each group
    members = np.split(
        np.argsort(comp, kind="stable"), np.cumsum(np.bincount(comp, minlength=n_comp))[:-1]
    )
    bottom = np.flatnonzero(is_bottom)
    bottom = bottom[np.argsort([members[i][0] for i in bottom])]
    return BsccPartition(tuple(members[i] for i in bottom), np.flatnonzero(~is_bottom[comp]))


def absorption_probabilities(
    c: Ctmc, p: BsccPartition, cfg: SolverConfig | None = None
) -> np.ndarray:
    """Probability of eventually entering each BSCC, starting from c.initial.

    Runs Jacobi-style sweeps of the embedded jump chain restricted to the
    transient states.  After j sweeps the accumulator holds the exact
    probability of absorption within j jumps, so the shortfall of its row
    sum from 1 bounds the remaining error and drives the stopping rule.
    """
    cfg = cfg or SolverConfig()
    k = len(p.bsccs)
    for i, b in enumerate(p.bsccs):
        if c.initial in b:
            out = np.zeros(k)
            out[i] = 1.0
            return out

    trans = p.transient_states
    row_of = int(np.searchsorted(trans, c.initial))
    # jump-chain rows R/E of the transient states; each has E > 0, as a
    # state without exits is a BSCC of its own
    rows = c.rate_matrix[trans]
    jump_t = sp.csr_matrix((rows.data / np.repeat(c.exit_rates[trans], np.diff(rows.indptr)),
                            rows.indices, rows.indptr), shape=rows.shape)
    ptt = jump_t[:, trans].tocsr()
    first_hit = np.zeros((len(trans), k))
    for i, b in enumerate(p.bsccs):
        first_hit[:, i] = np.asarray(jump_t[:, b].sum(axis=1)).ravel()

    h = np.zeros_like(first_hit)
    for _ in range(cfg.max_iterations):
        h = ptt @ h + first_hit
        if 1.0 - h[row_of].sum() < cfg.tolerance:
            return h[row_of].copy()
    raise NonConvergence(
        f"absorption probabilities did not converge within "
        f"{cfg.max_iterations} sweeps (gap {1.0 - h[row_of].sum():.3e})"
    )


def steady_state(c: Ctmc, cfg: SolverConfig | None = None) -> Distribution:
    """Long-run distribution; raises NonConvergence if the residual target fails."""
    cfg = cfg or SolverConfig()
    part = bscc_decomposition(c)
    weights = absorption_probabilities(c, part, cfg)

    pi = np.zeros(c.n_states)
    for w, b in zip(weights, part.bsccs):
        if w == 0.0:
            continue
        pi[b] = w * _solve_bscc(c, b, cfg)
    pi /= pi.sum()

    residual = float(np.abs(c.generator_matrix().T @ pi).max())
    if residual >= cfg.tolerance:
        raise NonConvergence(
            f"steady-state residual {residual:.3e} >= tolerance {cfg.tolerance:.3e}"
        )
    return Distribution(pi)


def _solve_bscc(c: Ctmc, states: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Stationary vector of the sub-chain on one BSCC, normalized to 1.

    Power iteration on the uniformized matrix P = I + Q/lam of the BSCC;
    no rate leaves a BSCC, so its exit rates are those of the whole chain.
    """
    n_b = len(states)
    if n_b == 1:
        # a singleton BSCC is an absorbing state
        return np.ones(1)

    pt, lam = _uniformized_transpose(c.rate_matrix[states][:, states], c.exit_rates[states])
    x = np.full(n_b, 1.0 / n_b)
    for _ in range(cfg.max_iterations):
        x_new = pt @ x
        x_new /= x_new.sum()
        # lam * (xP - x) equals the balance residual of x, so return the
        # verified iterate; the margin absorbs rounding between this
        # check and the final one done on Q itself
        if lam * np.abs(x_new - x).max() < 0.5 * cfg.tolerance:
            return x
        x = x_new
    raise NonConvergence(f"power method hit the {cfg.max_iterations}-iteration cap")


def transient(c: Ctmc, t: float, epsilon: float = SolverConfig.tolerance) -> Distribution:
    """State distribution after t minutes, by uniformization.

    The error budget epsilon is split in two halves.  The Poisson window
    drops at most epsilon/4 of mass on each side (for small Lambda*t
    only the right tail, at most epsilon/2), and the result is
    renormalized.  The power series then stops early once the iterate is
    provably stationary: P is stochastic, so d_k = ||x_{k+1} - x_k||_1
    never increases with k, and handing the remaining Poisson mass to
    x_{k+1} costs at most d_k * (hi - k) / 2 in total variation.  The
    test runs every _STATIONARITY_CHECK steps and stops once
    d_k * (hi - k) <= epsilon.  Together the total-variation error is
    <= epsilon, on reducible chains too; a chain that never settles runs
    the full window.
    """
    if not 0 <= t < math.inf:
        raise NegativeTime(f"t must be finite and >= 0, got {t}")
    if not 0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon!r}")

    pi0 = np.zeros(c.n_states)
    pi0[c.initial] = 1.0
    if t == 0.0 or not c.exit_rates.any():
        return Distribution(pi0)

    pt, lam = _uniformized_transpose(c.rate_matrix, c.exit_rates)
    mu = float(lam) * t  # a Python float overflows to inf without a warning
    if mu > 25:
        lo, hi = poisson.ppf(epsilon / 4, mu), poisson.ppf(1 - epsilon / 4, mu)
    else:
        lo, hi = 0, poisson.isf(epsilon / 2, mu)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        # scipy's Poisson quantiles turn NaN from about Lambda*t = 1e12
        raise NegativeTime(f"t = {t} min gives Lambda*t = {mu:.3g}, too large "
                           "for a finite Poisson window")
    lo, hi = int(lo), int(hi)
    weights = poisson.pmf(np.arange(lo, hi + 1), mu)

    out, _ = _uniformize(pt, pi0, weights, lo, epsilon)
    out /= out.sum()
    return Distribution(out)


def _uniformized_transpose(rates: sp.csr_matrix, exits: np.ndarray) -> tuple[sp.csr_matrix, float]:
    """P^T for P = I + Q/lam and lam, for rates R with exit rates E.

    lam is _UNIF_SLACK times the largest exit rate, and P^T is assembled
    as R^T/lam + diag(1 - E/lam).  Both terms scale by 1/lam, as scipy's
    scalar division does, so the entries equal those of (I + Q/lam)^T
    bit for bit.
    """
    lam = _UNIF_SLACK * exits.max()
    inv = 1.0 / lam
    return (rates.T * inv + sp.diags(1.0 - exits * inv)).tocsr(), lam


def _uniformize(
    pt: sp.csr_matrix, x: np.ndarray, weights: np.ndarray, lo: int, epsilon: float
) -> tuple[np.ndarray, int]:
    """Sum weights[k - lo] * x P^k over k in [lo, lo + len(weights)).

    Returns the unnormalized sum and the number of steps (SpMVs) taken.
    Stops early by the stationarity rule documented on `transient`.
    """
    hi = lo + len(weights) - 1
    out = np.zeros_like(x)
    for k in range(hi):
        if k >= lo:
            out += weights[k - lo] * x
        x_next = pt @ x
        if (k + 1) % _STATIONARITY_CHECK == 0:
            d = float(np.abs(x_next - x).sum())
            if d * (hi - k) <= epsilon:
                out += weights[max(k + 1 - lo, 0):].sum() * x_next
                return out, k + 1
        x = x_next
    out += weights[-1] * x
    return out, hi


def label_probability(d: Distribution, c: Ctmc, label: str) -> float:
    """Probability mass the distribution places on a label's state set."""
    states = c.label_states(label)
    if len(d) != c.n_states:
        raise IndexOutOfRange(
            f"distribution has {len(d)} entries for a {c.n_states}-state chain"
        )
    idx = np.fromiter(sorted(states), dtype=np.int64)
    return float(d.probs[idx].sum())
