"""Steady-state and transient solvers for labeled CTMCs.

Steady state on a reducible chain is defined as the absorption-weighted
mixture of the stationary distributions of its bottom strongly connected
components; transient states carry probability 0.  The weights come from
steps of the jump chain with each component merged into one absorbing
state (none for one component), and each component is solved by power
iteration on its jump chain with slack, I + D^-1 Q / _UNIF_SLACK for the
diagonal D of exit rates, so that each state steps on its own time scale;
the stop test is the exact balance residual of the vector it returns.
Accuracy is that residual, not an absolute error: on a chain whose
slowest rates are 1e-3 a residual of 1e-10 still allows entries off by
about 5e-8.  Transient analysis uses uniformization with two-sided
Poisson truncation and stops early once the iterate is provably
stationary; a chain certified absorbed by the horizon, but for half the
error budget, gets its absorption distribution instead, with no step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.csgraph import connected_components
from scipy.special import gammaln, gdtrib, pdtr, pdtrc, pdtrik, xlogy

from .ctmc import Ctmc, Distribution, _integer
from .errors import IndexOutOfRange, NegativeTime, NonConvergence

# Uniformization rate is strictly above the max exit rate so the
# uniformized matrix has positive diagonal everywhere (aperiodicity).
_UNIF_SLACK = 1.02

# Steps between stationarity tests in the uniformization and power
# loops; a test costs about one SpMV's worth of vector work.
_STATIONARITY_CHECK = 32

# The absorption certificate of `transient` proves decay at a rate that
# beats its budget by this power, and iterates at this multiple of it.
_CERT_RATIO = 1.25


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
        object.__setattr__(self, "max_iterations", _integer("max_iterations", self.max_iterations))
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
    n_comp, comp = connected_components(c.rate_matrix, directed=True, connection="strong")
    src_comp = comp[np.repeat(np.arange(c.n_states), np.diff(c.indptr))]
    is_bottom = np.ones(n_comp, dtype=bool)
    is_bottom[src_comp[src_comp != comp[c.indices]]] = False

    bsccs = sorted((np.flatnonzero(comp == i) for i in np.flatnonzero(is_bottom)),
                   key=lambda b: b[0])
    return BsccPartition(tuple(bsccs), np.flatnonzero(~is_bottom[comp]))


def absorption_probabilities(
    c: Ctmc, p: BsccPartition, cfg: SolverConfig | None = None
) -> np.ndarray:
    """Probability of eventually entering each BSCC, starting from c.initial.

    Steps a point mass at c.initial through the jump chain R/E of the
    transient states, with each BSCC merged into one absorbing state
    numbered after them.  After j steps the merged states hold the exact
    probability of absorption within j jumps, so the shortfall of their
    sum from 1 bounds the remaining error and drives the stopping rule.
    With one BSCC the answer is exactly 1 and no step runs.
    """
    cfg = cfg or SolverConfig()
    if len(p.bsccs) == 1:
        return np.ones(1)

    trans = p.transient_states
    n_t, k = len(trans), len(p.bsccs)
    merged = np.empty(c.n_states, dtype=np.int64)
    merged[trans] = np.arange(n_t)
    for i, b in enumerate(p.bsccs):
        merged[b] = n_t + i
    # the jump chain R/E of the transient states (E > 0, as a state without
    # exits is a BSCC of its own) over the merged columns, then one
    # absorbing row per BSCC; transposed for _step
    rows = c.rate_matrix[trans]
    jump = sp.csr_matrix((rows.data / np.repeat(c.exit_rates[trans], np.diff(rows.indptr)),
                          merged[rows.indices], rows.indptr), shape=(n_t, n_t + k))
    pt = sp.vstack((jump, sp.eye(k, n_t + k, n_t))).T.tocsr()

    x, y = np.zeros(n_t + k), np.empty(n_t + k)
    x[merged[c.initial]] = 1.0
    for _ in range(cfg.max_iterations):
        x, y = _step(pt, x, y), x
        gap = 1.0 - x[n_t:].sum()
        if gap < cfg.tolerance:
            return x[n_t:].copy()
    raise NonConvergence(f"absorption probabilities did not converge within "
                         f"{cfg.max_iterations} sweeps (gap {gap:.3e})")


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

    Power iteration on the BSCC's jump chain with slack,
    P = I + D^-1 Q / alpha, where D holds the exit rates and alpha is
    _UNIF_SLACK: each state moves on its own time scale, so a stiff BSCC
    needs no more steps than a mild one.  No rate leaves a BSCC, so its
    exit rates are those of the whole chain.  If x is stationary for P,
    x/D is stationary for Q.  Every _STATIONARITY_CHECK iterations, and at
    the last one the cap allows, x is normalized and tested against one
    more step.
    """
    n_b = len(states)
    if n_b == 1:
        # a singleton BSCC is an absorbing state
        return np.ones(1)

    rates, exits = c.rate_matrix[states][:, states], c.exit_rates[states]
    # the jump chain's rates R/E have exit rate 1 in every state, so its
    # uniformized matrix is P with alpha = _UNIF_SLACK
    jump = sp.csr_matrix((rates.data / np.repeat(exits, np.diff(rates.indptr)), rates.indices,
                          rates.indptr), shape=rates.shape)
    pt, alpha = _uniformized_transpose(jump, np.ones(n_b))
    x, y = np.full(n_b, 1.0 / n_b), np.empty(n_b)
    for i in range(1, cfg.max_iterations + 1):
        if i % _STATIONARITY_CHECK and i < cfg.max_iterations:
            x, y = _step(pt, x, y), x
            continue
        x /= x.sum()
        _step(pt, x, y)
        y /= y.sum()
        # (x/D) Q = alpha * (xP - x), so alpha * (xP - x) / sum(x/D) is the
        # balance residual of the returned vector; the margin absorbs
        # rounding between this check and the final one done on Q itself
        pi = x / exits
        total = pi.sum()
        if alpha * np.abs(y - x).max() < 0.5 * cfg.tolerance * total:
            return pi / total
        x, y = y, x
    raise NonConvergence(f"power method hit the {cfg.max_iterations}-iteration cap")


def transient(c: Ctmc, t: float, epsilon: float = SolverConfig.tolerance) -> Distribution:
    """State distribution after t minutes, by uniformization, or by the
    absorption distribution where the chain is certified absorbed by t.

    Uniformization splits the error budget epsilon in two halves.  The
    Poisson window [lo, hi] drops at most epsilon/4 of mass on each side,
    whatever Lambda*t: lo is the smallest k with P(N <= k) >= epsilon/4
    and hi the smallest with P(N > k) <= epsilon/4, each rounded from a
    continuous inverse and then checked; the result is renormalized.  The
    power series then stops early once the iterate is provably
    stationary: P is stochastic, so d_k = ||x_{k+1} - x_k||_1
    never increases with k, and handing the remaining Poisson mass to
    x_{k+1} costs at most d_k * (hi - k) / 2 in total variation.  The
    test runs every _STATIONARITY_CHECK steps and stops once
    d_k * (hi - k) <= epsilon.  Together the total-variation error is
    <= epsilon, on reducible chains too; a chain that never settles runs
    the full window.

    Before the first step, once the window is known, `_absorbed` tries to
    certify that the absorption time T exceeds t with probability at most
    epsilon/2.  If it can, the result is the absorption distribution, whose
    shortfall is below epsilon/2 (a point mass when one state absorbs), so
    the total-variation error is again <= epsilon and no step runs.
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
    q = epsilon / 4
    lo, hi = pdtrik(q, mu), gdtrib(1.0, q, mu) - 1.0  # P(N > k) = gdtr(1, k + 1, mu)
    if math.isnan(lo) or math.isnan(hi):
        # pdtrik turns NaN from about Lambda*t = 5e10
        raise NegativeTime(f"t = {t} min gives Lambda*t = {mu:.3g}, too large "
                           "for a finite Poisson window")
    lo, hi = max(math.ceil(lo), 0), max(math.ceil(hi), 0)
    if lo > 0 and pdtr(lo - 1, mu) >= q:
        lo -= 1
    while hi > 0 and pdtrc(hi - 1, mu) <= q:
        hi -= 1
    while pdtrc(hi, mu) > q:
        hi += 1
    k = np.arange(lo, hi + 1)
    weights = np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)  # the Poisson pmf, as scipy.stats computes it

    out = _absorbed(c, t, epsilon, hi)
    if out is None:
        out, _ = _uniformize(pt, pi0, weights, lo, epsilon)
    out /= out.sum()
    return Distribution(out)


def _absorbed(c: Ctmc, t: float, epsilon: float, cap: int) -> np.ndarray | None:
    """c's absorption distribution, unnormalized, if P(T > t) <= epsilon/2
    is certified for the absorption time T; otherwise None.

    Every BSCC must be one absorbing state, so that T is finite, and every
    other state's exit rate E must exceed theta = _CERT_RATIO * rate, where
    e^(-rate t) = (epsilon/2)^_CERT_RATIO: the decay rate of T is at most
    the smallest E.  From g = 0 on those states, and g = 1 on the
    absorbing ones, it iterates g <- R g / (E - theta), R the rates.
    Once (E - rate) g >= R g holds in every state, up to rounding,
    e^(rate min(t, T)) g(X) is a supermartingale and g >= 1, so
    P(T > t) <= g(initial) e^(-rate t), within budget while
    g(initial) <= (2/epsilon)^(_CERT_RATIO - 1).  The attempt gives up
    once the bound exceeds epsilon/2 (g only grows), after cap iterations,
    or if the absorption weights do not come within epsilon/2 of 1 in cap
    jumps.  It never raises or warns.  An iterate that overflows cannot
    certify a state that initial reaches, as g(initial) stays finite.
    """
    exits = c.exit_rates
    moving = exits > 0
    rate = _CERT_RATIO * math.log(2 / epsilon) / t
    theta = _CERT_RATIO * rate
    if exits[moving].min() <= theta:
        return None
    part = bscc_decomposition(c)
    if any(len(b) > 1 for b in part.bsccs):
        return None
    denom = np.where(moving, exits - theta, 1.0)
    # g certifies once g_next <= g * (1 + (theta - rate) / (E - theta)) where
    # E > 0; the slack covers the rounding of a row's sums and of E itself
    room = np.where(moving, 1.0 + (theta - rate) / denom, np.inf)
    room /= 1.0 + 16 * np.finfo(float).eps * (np.diff(c.indptr).max() + 4)
    decay = math.exp(-rate * t)
    g, nxt = np.where(moving, 0.0, 1.0), np.empty(c.n_states)
    with np.errstate(over="ignore"):
        for k in range(1, cap + 1):
            _step(c.rate_matrix, g, nxt)
            nxt /= denom
            nxt[~moving] = 1.0
            if (k % _STATIONARITY_CHECK == 0 or k == cap) and (nxt <= g * room).all():
                break  # g, within budget since the last round, certifies
            if nxt[c.initial] * decay > epsilon / 2:
                return None
            g, nxt = nxt, g
        else:
            return None
    cfg = SolverConfig(tolerance=epsilon / 2, max_iterations=cap)
    try:
        weights = absorption_probabilities(c, part, cfg)
    except NonConvergence:
        return None
    out = np.zeros(c.n_states)
    out[[b[0] for b in part.bsccs]] = weights
    return out


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
    x, x_next, tmp = x.copy(), np.empty_like(x), np.empty_like(x)
    for k in range(hi):
        if k >= lo:
            out += np.multiply(weights[k - lo], x, out=tmp)
        _step(pt, x, x_next)
        if (k + 1) % _STATIONARITY_CHECK == 0:
            d = float(np.abs(np.subtract(x_next, x, out=tmp), out=tmp).sum())
            if d * (hi - k) <= epsilon:
                out += weights[max(k + 1 - lo, 0):].sum() * x_next
                return out, k + 1
        x, x_next = x_next, x
    out += weights[-1] * x
    return out, hi


def _step(pt: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = pt @ x, bit for bit, in place: scipy's private CSR kernel, no allocation."""
    out.fill(0.0)
    csr_matvec(*pt.shape, pt.indptr, pt.indices, pt.data, x, out)
    return out


def lump(c: Ctmc) -> Ctmc:
    """The coarsest ordinary-lumpable quotient of c that keeps its labels
    (Katoen et al., TACAS 2007): label classes split by each state's rate
    sums into other blocks, added in ascending order, until none splits.
    Rounds compare sums by hash, so c comes back unless each state's sums
    equal those of its block's smallest member, which the quotient takes
    and which orders the blocks."""
    n, lengths = c.n_states, np.diff(c.indptr)
    order = np.lexsort((c.data, np.repeat(np.arange(n), lengths)))  # rates ascend within each row
    dst, rates = c.indices[order].astype(np.int32 if n * n < 2**31 else np.int64), c.data[order]
    blocks = np.zeros(n, dtype=dst.dtype)
    for states in c.label_arrays.values():
        blocks = _split(blocks, np.bincount(states, minlength=n))
    while True:
        state, block, sums = _rate_sums(blocks, lengths, dst, rates)
        signature = np.zeros(n, dtype=np.uint64)
        np.add.at(signature, state, _hash(block, sums))
        split = _split(blocks, signature)
        if split.max() == blocks.max():
            break
        blocks = split
    rep = np.unique(blocks, return_index=True)[1][blocks]
    size = np.bincount(state, minlength=n)
    start = np.cumsum(size) - size
    at = start[rep[state]] + np.arange(len(state)) - start[state]
    if (size != size[rep]).any() or (block[at] != block).any() or (sums[at] != sums).any():
        return c
    mine = rep[state] == state
    return Ctmc(int(blocks.max()) + 1, blocks[state[mine]], block[mine], sums[mine], blocks[c.initial],
                {name: blocks[states] for name, states in c.label_arrays.items()})


def _rate_sums(blocks, lengths, dst, rates):
    """(state, other block, rate sum) triples, ascending; the temporaries,
    as long as the rates, die on return."""
    n = len(blocks)
    state, block = np.repeat(np.arange(n, dtype=blocks.dtype), lengths), blocks[dst]
    other = blocks[state] != block  # a rate into the own block is no transition of the quotient
    key, r = state[other] * n + block[other], rates[other]
    order = np.argsort(key, kind="stable")
    key, r = key[order], r[order]
    new = np.diff(key, prepend=-1) != 0
    state, block = np.divmod(key[new], n)
    return state, block, np.add.reduceat(r, np.flatnonzero(new)) if len(r) else r


def _hash(block: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """64-bit hash of each (target block, rate sum) pair: the pair's bits
    through splitmix64's finalizer, so that sums of hashes seldom collide."""
    x = (block.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) ^ sums.view(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _split(blocks: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The states grouped by (block, h), numbered by smallest member."""
    order = np.lexsort((h, blocks))
    b, h = blocks[order], h[order]
    new = np.concatenate(([True], (b[1:] != b[:-1]) | (h[1:] != h[:-1])))
    smallest = np.zeros(len(order), dtype=bool)
    smallest[order[new]] = True  # lexsort is stable
    out = np.empty_like(blocks)
    out[order] = (np.cumsum(smallest) - 1)[order[new]][np.cumsum(new) - 1]
    return out


def label_probability(d: Distribution, c: Ctmc, label: str) -> float:
    """Probability mass the distribution places on a label's state set."""
    states = c.label_states(label)
    if len(d) != c.n_states:
        raise IndexOutOfRange(
            f"distribution has {len(d)} entries for a {c.n_states}-state chain"
        )
    return float(d.probs[states].sum())
