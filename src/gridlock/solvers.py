"""Steady-state and transient solvers for labeled CTMCs.

Steady state on a reducible chain is defined as the absorption-weighted
mixture of the stationary distributions of its bottom strongly connected
components; transient states carry probability 0.  Transient analysis
uses uniformization with two-sided Poisson truncation and stops early
once the iterate is provably stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve_triangular
from scipy.stats import poisson

from .ctmc import Ctmc, Distribution
from .errors import IndexOutOfRange, NegativeTime, NonConvergence

_METHODS = ("power", "jacobi", "gauss-seidel")

# Damping for the Jacobi sweep.  The undamped update cycles on chains
# whose embedded matrix is periodic (a 2-state cycle already breaks it);
# damping kills those modes without moving the fixed point.
_JOR_WEIGHT = 0.9

# Uniformization rate is strictly above the max exit rate so the
# uniformized matrix has positive diagonal everywhere (aperiodicity).
_UNIF_SLACK = 1.02

# Steps between stationarity tests in the uniformization loop; a test
# costs about one SpMV's worth of vector work.
_STATIONARITY_CHECK = 32


@dataclass(frozen=True)
class SolverConfig:
    """Choice of iterative method plus its stopping parameters."""

    method: str = "power"
    tolerance: float = 1e-10
    max_iterations: int = 1_000_000

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class BsccPartition:
    """Bottom strongly connected components and the remaining states."""

    bsccs: tuple[frozenset[int], ...]
    transient_states: frozenset[int]


def bscc_decomposition(c: Ctmc) -> BsccPartition:
    """Split states into bottom SCCs (ordered by smallest member) and the rest."""
    n_comp, comp = connected_components(
        c.rate_matrix, directed=True, connection="strong"
    )
    coo = c.rate_matrix.tocoo()
    is_bottom = np.ones(n_comp, dtype=bool)
    leaving = comp[coo.row] != comp[coo.col]
    is_bottom[comp[coo.row[leaving]]] = False

    members: list[list[int]] = [[] for _ in range(n_comp)]
    for s in range(c.n_states):
        members[comp[s]].append(s)
    bsccs = sorted(
        (frozenset(members[i]) for i in range(n_comp) if is_bottom[i]), key=min
    )
    transient = frozenset(
        s for i in range(n_comp) if not is_bottom[i] for s in members[i]
    )
    return BsccPartition(tuple(bsccs), transient)


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

    trans = np.fromiter(sorted(p.transient_states), dtype=np.int64)
    row_of = int(np.searchsorted(trans, c.initial))
    jump = c.embedded_dtmc().tocsr()
    ptt = jump[trans][:, trans].tocsr()
    first_hit = np.zeros((len(trans), k))
    for i, b in enumerate(p.bsccs):
        cols = np.fromiter(sorted(b), dtype=np.int64)
        first_hit[:, i] = np.asarray(jump[trans][:, cols].sum(axis=1)).ravel()

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
        states = np.fromiter(sorted(b), dtype=np.int64)
        pi[states] = w * _solve_bscc(c, states, cfg)
    pi /= pi.sum()

    residual = float(np.abs(c.generator_matrix().T @ pi).max())
    if residual >= cfg.tolerance:
        raise NonConvergence(
            f"steady-state residual {residual:.3e} >= tolerance {cfg.tolerance:.3e}"
        )
    return Distribution(pi)


def _solve_bscc(c: Ctmc, states: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Stationary vector of the sub-chain on one BSCC, normalized to 1."""
    n_b = len(states)
    if n_b == 1:
        # a singleton BSCC is an absorbing state
        return np.ones(1)

    local = c.rate_matrix[states][:, states].tocsr()
    exits = np.asarray(local.sum(axis=1)).ravel()
    q_local = local - sp.diags(exits)

    if cfg.method == "power":
        return _power(q_local, exits, cfg)
    if cfg.method == "jacobi":
        return _jacobi(local, exits, cfg)
    return _gauss_seidel(q_local, cfg)


def _power(q_local: sp.spmatrix, exits: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    lam = _UNIF_SLACK * exits.max()
    n_b = q_local.shape[0]
    pt = (sp.eye(n_b) + q_local / lam).T.tocsr()
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


def _jacobi(local: sp.spmatrix, exits: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    rt = local.T.tocsr()
    n_b = local.shape[0]
    x = np.full(n_b, 1.0 / n_b)
    for _ in range(cfg.max_iterations):
        inflow = rt @ x
        if np.abs(inflow - x * exits).max() < 0.5 * cfg.tolerance:
            return x
        x = (1.0 - _JOR_WEIGHT) * x + _JOR_WEIGHT * (inflow / exits)
        x /= x.sum()
    raise NonConvergence(f"jacobi method hit the {cfg.max_iterations}-iteration cap")


def _gauss_seidel(q_local: sp.spmatrix, cfg: SolverConfig) -> np.ndarray:
    a = q_local.T.tocsr()
    lower = sp.tril(a, k=0).tocsr()
    upper = sp.triu(a, k=1).tocsr()
    n_b = a.shape[0]
    x = np.full(n_b, 1.0 / n_b)
    for _ in range(cfg.max_iterations):
        if np.abs(a @ x).max() < 0.5 * cfg.tolerance:
            return x
        x = spsolve_triangular(lower, -(upper @ x), lower=True)
        total = x.sum()
        if not total > 0:
            raise NonConvergence("gauss-seidel sweep collapsed to the zero vector")
        x /= total
    raise NonConvergence(
        f"gauss-seidel method hit the {cfg.max_iterations}-iteration cap"
    )


def transient(c: Ctmc, t: float, epsilon: float = 1e-10) -> Distribution:
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
    if t < 0:
        raise NegativeTime(f"t must be >= 0, got {t}")
    if not 0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon!r}")

    pi0 = np.zeros(c.n_states)
    pi0[c.initial] = 1.0
    max_exit = float(c.exit_rates.max()) if c.n_states else 0.0
    if t == 0.0 or max_exit == 0.0:
        return Distribution(pi0)

    lam = _UNIF_SLACK * max_exit
    mu = lam * t
    if mu > 25:
        lo = int(poisson.ppf(epsilon / 4, mu))
        hi = int(poisson.ppf(1 - epsilon / 4, mu))
    else:
        lo = 0
        hi = int(poisson.isf(epsilon / 2, mu))
    weights = poisson.pmf(np.arange(lo, hi + 1), mu)

    out, _ = _uniformize(_uniformized_transpose(c, lam), pi0, weights, lo, epsilon)
    out /= out.sum()
    return Distribution(out)


def _uniformized_transpose(c: Ctmc, lam: float) -> sp.csr_matrix:
    """P^T for P = I + Q/lam, assembled as R^T/lam + diag(1 - E/lam).

    Both terms scale by 1/lam, as scipy's scalar division does, so the
    entries equal those of (I + Q/lam)^T bit for bit.
    """
    inv = 1.0 / lam
    return (c.rate_matrix.T * inv + sp.diags(1.0 - c.exit_rates * inv)).tocsr()


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
    if not states:
        return 0.0
    idx = np.fromiter(sorted(states), dtype=np.int64)
    return float(d.probs[idx].sum())
