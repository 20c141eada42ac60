"""Steady-state and transient solvers for labeled CTMCs.

Steady state on a reducible chain is defined as the absorption-weighted
mixture of the stationary distributions of its bottom strongly connected
components; transient states carry probability 0.  The weights come from
steps of the jump chain with each component merged into one absorbing
state (none for one component), and each component is solved by power
iteration on its jump chain with slack, I + D^-1 Q / _UNIF_SLACK for the
diagonal D of exit rates, so that each state steps on its own time scale;
the stop test is the exact balance residual of the vector it returns.
Accuracy is that residual, not an absolute error: on a 5-state chain
whose slowest rates are 1e-3 a residual of 1e-10 still allows entries off
by 2e-7.  Transient analysis uses uniformization with two-sided
Poisson truncation and stops early once the iterate is provably
stationary.  `Batches` is the one queue of chains to uniformize: chains
of exactly equal uniformization rate share one Poisson window and step
together, their P^T stacked block-diagonally into batches of about
BATCH_NNZ nonzeros, one SpMV a step for the batch, each chain with its
own stop test; a chain that steps alike with one waiting in its batch,
differing only in labels, rides that chain's block instead of stacking
its own.  Every result equals the chain's solve alone bit for bit, and
`transient` is a queue of one chain.  On small chains a step's fixed call
costs weigh as much as its SpMV: the 54 uniformized desk chains of a
24-hour sweep share only 5 rates, and 7 of them ride, so 47 are stacked.
`settle` answers a transient cell without uniformization where the chain
is certified settled by the horizon, but for half the error budget: in
closed sets of states that keep one label pattern.  Where it cannot, it
collapses each such set into one absorbing state, and only the states
outside them are left to step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.special import gammaln, gdtrib, pdtr, pdtrc, pdtrik, xlogy

from .ctmc import Ctmc, Distribution, _integer
from .errors import IndexOutOfRange, NegativeTime, NonConvergence

# Uniformization rate is strictly above the max exit rate so the
# uniformized matrix has positive diagonal everywhere (aperiodicity).
_UNIF_SLACK = 1.02

# Steps between stationarity tests in the uniformization and power
# loops; a test costs about one SpMV's worth of vector work.
_STATIONARITY_CHECK = 32

# Stacked nonzeros of P^T at which `Batches` steps a batch, the working
# set of its SpMV (a chain that rides another's block stacks none).  A
# step of one 3.3k-nonzero desk chain costs 8.7 us, 2.7 ns a nonzero,
# mostly fixed call costs; stacked chains of equal Lambda cost 1.1 ns a
# nonzero at 11k, 0.94-0.96 ns at 18k-24k, then more as the batch
# outgrows the cache: 1.1 ns at 31k, 1.4 ns at 39k and 2.0 ns at 89k
# (Xeon, 2 shared cores).  Closed at 16k, a desk batch holds 16k-20k
# nonzeros, at the bottom of that curve, with less held at once than a
# 24k cap and no slower.
BATCH_NNZ = 16_000

# The certificate of `settle` proves decay at a rate that beats
# its budget by this power, and iterates at this multiple of it.
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
    """Closed sets of states (the bottom strongly connected components, or
    the settled classes of `settle`) and the remaining states, each
    an ascending int64 array of state indices."""

    bsccs: tuple[np.ndarray, ...]
    transient_states: np.ndarray


def bscc_decomposition(c: Ctmc) -> BsccPartition:
    """Split states into bottom SCCs (ordered by smallest member) and the rest."""
    n_comp, comp = connected_components(c.rate_matrix, directed=True, connection="strong")
    src_comp = np.repeat(comp, np.diff(c.indptr))
    is_bottom = np.ones(n_comp, dtype=bool)
    is_bottom[src_comp[src_comp != comp[c.indices]]] = False

    bsccs = sorted((np.flatnonzero(comp == i) for i in np.flatnonzero(is_bottom)),
                   key=lambda b: b[0])
    return BsccPartition(tuple(bsccs), np.flatnonzero(~is_bottom[comp]))


def absorption_probabilities(
    c: Ctmc, p: BsccPartition, cfg: SolverConfig | None = None
) -> np.ndarray:
    """Probability of eventually entering each closed set of p.bsccs (the
    BSCCs, or the classes of `settle`), starting from c.initial.

    Steps a point mass at c.initial through the jump chain R/E of the
    other states, with each closed set merged into one absorbing state
    numbered after them.  After j steps the merged states hold the exact
    probability of absorption within j jumps, so the shortfall of their
    sum from 1 bounds the remaining error and drives the stopping rule.
    With one closed set the answer is 1 and no step runs.
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
    # the jump chain R/E of the other states (E > 0, as a state without
    # exits is a closed set of its own) over the merged columns, then one
    # absorbing row per closed set; transposed for _step
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

    residual = _balance_residual(c, part.bsccs, pi)
    if residual >= cfg.tolerance:
        raise NonConvergence(
            f"steady-state residual {residual:.3e} >= tolerance {cfg.tolerance:.3e}"
        )
    return Distribution(pi)


def _balance_residual(c: Ctmc, bsccs: tuple[np.ndarray, ...], pi: np.ndarray) -> float:
    """max |pi Q| for pi zero off the BSCCs, bit for bit as on the whole Q.

    No rate leaves a BSCC, so off the BSCCs every entry of pi Q sums only
    zeros, and on one BSCC it sums only that BSCC's rows, in the same
    order: each entry is read from the BSCC's own block of Q.  An
    absorbing state's entry is 0.
    """
    residual = 0.0
    for b in (b for b in bsccs if len(b) > 1):
        block = c.rate_matrix[b][:, b] - sp.diags(c.exit_rates[b])
        residual = max(residual, float(np.abs(block.T @ pi[b]).max()))
    return residual


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
    """State distribution after t minutes, by uniformization: a `Batches`
    queue of c alone.  Raises NegativeTime where Lambda*t is too large for a
    finite Poisson window."""
    queue = Batches(t, epsilon)
    ((_, got),) = queue.add(None, c) or queue.close()
    if isinstance(got, Exception):
        raise got
    return got


class Batches:
    """A queue of chains to uniformize to t minutes, each solved bit for bit
    as if it were solved alone.

    `add(tag, c)` puts c in the open batch of its exact Lambda: chains of
    one Lambda step in batches, in the order added, all on one Poisson
    window, their P^T stacked block-diagonally, one SpMV a step for the
    whole batch.  A chain with the n_states, initial and CSR arrays of a
    chain already in the open batch rides that chain's block: it stacks
    nothing and adds nothing toward the cap, and its tag gets the block's
    Distribution, whose states are numbered alike.  Once its batch holds
    BATCH_NNZ stacked nonzeros, `add` steps it and returns (tag, result)
    for each chain in it; `close` steps every batch still open.  A result
    is the chain's Distribution, or what stepping its batch raised, for
    each chain of that batch only, riders too: the NegativeTime of a
    Lambda*t too large for a finite Poisson window, or any other
    exception.  At t = 0, or without exits, a chain stays where it starts
    and comes back from `add` at once.

    The error budget epsilon splits in two halves.  The window [lo, hi] of
    `_window` drops at most epsilon/4 of mass on each side; each result is
    renormalized.  Each block then stops early once its iterate is provably
    stationary: P is stochastic, so d_k = ||x_{k+1} - x_k||_1 never
    increases with k, and handing the remaining Poisson mass to x_{k+1}
    costs at most d_k * (hi - k) / 2 in total variation.  The test runs
    every _STATIONARITY_CHECK steps on each block's own slice and stops the
    block once d_k * (hi - k) <= epsilon.  Together the total-variation
    error is <= epsilon, on reducible chains too; a chain that never
    settles runs the full window.
    """

    def __init__(self, t: float, epsilon: float = SolverConfig.tolerance):
        _check_horizon(t, epsilon)
        self.t, self.epsilon = t, epsilon
        self._open: dict[float, list[tuple[list, Ctmc]]] = {}  # Lambda: [(tags, chain)]
        self._windows: dict[float, tuple[np.ndarray, int]] = {}  # Lambda: (weights, lo)

    def add(self, tag: object, c: Ctmc) -> list[tuple[object, Distribution | Exception]]:
        if self.t == 0.0 or not c.exit_rates.any():
            pi0 = np.zeros(c.n_states)
            pi0[c.initial] = 1.0
            return [(tag, Distribution(pi0))]
        batch = self._open.setdefault(lam := _slot(c)[0], [])
        twin = next((tags for tags, b in batch if _same_steps(b, c)), None)
        if twin is not None:
            twin.append(tag)
            return []
        batch.append(([tag], c))
        return self._step(lam) if sum(_slot(b)[1] for _, b in batch) >= BATCH_NNZ else []

    def close(self) -> list[tuple[object, Distribution | Exception]]:
        return [got for lam in list(self._open) for got in self._step(lam)]

    def _step(self, lam: float) -> list[tuple[object, Distribution | Exception]]:
        batch = self._open.pop(lam)
        try:
            if lam not in self._windows:
                mu = lam * self.t  # a Python float overflows to inf without a warning
                lo, hi = _window(mu, self.t, self.epsilon)
                k = np.arange(lo, hi + 1)  # the Poisson pmf over k, as scipy.stats computes it
                self._windows[lam] = np.exp(xlogy(k, mu) - gammaln(k + 1) - mu), lo
            sums, _ = _uniformize(*_stack([c for _, c in batch]), *self._windows[lam], self.epsilon)
            dists = [Distribution(s / s.sum()) for s in sums]
            return [(tag, d) for (tags, _), d in zip(batch, dists) for tag in tags]
        except Exception as e:
            return [(tag, e) for tags, _ in batch for tag in tags]


def _slot(c: Ctmc) -> tuple[float, int]:
    """(Lambda, nonzeros of P^T) of c, for P = I + Q/Lambda."""
    return _UNIF_SLACK * float(c.exit_rates.max()), len(c.data) + c.n_states


def _same_steps(a: Ctmc, b: Ctmc) -> bool:
    """Whether a and b step alike: equal size, start state and CSR arrays."""
    return a.n_states == b.n_states and a.initial == b.initial and all(
        np.array_equal(x, y) for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))


def _check_horizon(t: float, epsilon: float) -> None:
    if not 0 <= t < math.inf:
        raise NegativeTime(f"t must be finite and >= 0, got {t}")
    if not 0 < epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in (0, 1e-3], got {epsilon!r}")


def _window(mu: float, t: float, epsilon: float) -> tuple[int, int]:
    """The Poisson window [lo, hi] for mean mu = Lambda*t: lo is the
    smallest k with P(N <= k) >= epsilon/4 and hi the smallest with
    P(N > k) <= epsilon/4, each rounded from a continuous inverse and then
    checked.  Raises NegativeTime where mu is too large for a finite one."""
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
    return lo, hi


def settle(c: Ctmc, t: float, epsilon: float) -> dict[str, float] | Ctmc:
    """Each label's probability after t minutes where c is certified
    settled by t (`_certify`), else c with each settled class collapsed into
    one absorbing state (`_collapse`); both read one computation of the
    label patterns, the sources of a change and the classes (`_settled`).
    Without a change, or at t = 0, c.initial's labels have probability 1."""
    _check_horizon(t, epsilon)
    pattern = _patterns(c)
    sources = _change_sources(c, pattern)
    if t == 0.0 or not sources.any():
        return _class_labels(c, np.array([c.initial]), np.ones(1))
    part = _settled(c, pattern, sources)
    labels = _certify(c, t, epsilon, part)
    return _collapse(c, part.bsccs) if labels is None else labels


def _certify(c: Ctmc, t: float, epsilon: float, part: BsccPartition) -> dict[str, float] | None:
    """Each label's probability after t minutes, if c is certified settled
    by t but for epsilon/2 of its mass; otherwise None.

    A state is settled when it cannot reach a transition between two label
    patterns (the sets of labels states carry).  The settled states split
    by pattern into the closed classes of `part`, and a path that enters
    one keeps its labels.  The tests run cheapest first:
    - a settled c.initial gives its own labels;
    - the exit rate E of every unsettled state must exceed
      theta = _CERT_RATIO * rate, where e^(-rate t) = (epsilon/2)^_CERT_RATIO,
      as the decay rate of the time T to settle is at most the smallest E;
    - every state must reach a settled one, so that T is finite;
    - t must give a Poisson window (`_window`), whose hi caps the
      iterations; a longer t is left to `transient`, which raises
      NegativeTime naming the Lambda*t of the chain it solves.
    From g = 0 on the unsettled states and g = 1 on the settled ones, the
    certificate then iterates g <- R g / (E - theta) on the unsettled
    states, R the rates.  Once (E - rate) g >= R g holds in every unsettled
    state, up to rounding, e^(rate min(t, T)) g(X) is a supermartingale and
    g >= 1, so P(T > t) <= g(initial) e^(-rate t), within budget while
    g(initial) <= (2/epsilon)^(_CERT_RATIO - 1).  The attempt gives up once
    the bound exceeds epsilon/2 (g only grows), after hi iterations, or if
    the classes' absorption weights do not come within epsilon/2 of 1 in hi
    jumps.  A label's probability is then the sum of the normalized weights
    of the classes in it: epsilon/2 for the mass not yet settled plus
    epsilon/2 for the weights keeps the total-variation error within
    epsilon.  It never raises or warns.  An iterate that overflows cannot
    certify a state that initial reaches, as g(initial) stays finite.
    """
    unsettled = np.zeros(c.n_states, dtype=bool)
    unsettled[part.transient_states] = True
    if not unsettled[c.initial]:
        return _class_labels(c, np.array([c.initial]), np.ones(1))
    exits = c.exit_rates
    rate = _CERT_RATIO * math.log(2 / epsilon) / t
    theta = _CERT_RATIO * rate
    if exits[unsettled].min() <= theta or not _reaching(c, np.flatnonzero(~unsettled)).all():
        return None
    try:
        _, cap = _window(_UNIF_SLACK * float(exits.max()) * t, t, epsilon)
    except NegativeTime:
        return None
    denom = np.where(unsettled, exits - theta, 1.0)
    # g certifies once g_next <= g * (1 + (theta - rate) / (E - theta)) on
    # the unsettled states; the slack covers the rounding of a row's sums
    # and of E itself
    room = np.where(unsettled, 1.0 + (theta - rate) / denom, np.inf)
    room /= 1.0 + 16 * np.finfo(float).eps * (np.diff(c.indptr).max() + 4)
    decay = math.exp(-rate * t)
    g, nxt = np.where(unsettled, 0.0, 1.0), np.empty(c.n_states)
    with np.errstate(over="ignore"):
        for k in range(1, cap + 1):
            _step(c.rate_matrix, g, nxt)
            nxt /= denom
            nxt[~unsettled] = 1.0
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
    return _class_labels(c, np.array([b[0] for b in part.bsccs]), weights / weights.sum())


def _patterns(c: Ctmc) -> np.ndarray:
    """Each state's label pattern (the set of labels it carries), numbered
    by smallest member, in the dtype of c's indices, which halves the
    edge-length arrays of `_change_sources` on every chain that fits int32."""
    pattern = np.zeros(c.n_states, dtype=c.indices.dtype)
    for states in c.label_arrays.values():
        member = np.zeros(c.n_states, dtype=bool)
        member[states] = True
        pattern = _split(pattern, member)
    return pattern


def _change_sources(c: Ctmc, pattern: np.ndarray) -> np.ndarray:
    """Mask of the states with a rate into a state of another pattern."""
    src = np.repeat(np.arange(c.n_states), np.diff(c.indptr))  # intp: no cast when it indexes
    sources = np.zeros(c.n_states, dtype=bool)
    sources[src[pattern[src] != pattern[c.indices]]] = True
    return sources


def _settled(c: Ctmc, pattern: np.ndarray, sources: np.ndarray) -> BsccPartition:
    """The settled states of c, grouped by pattern into closed classes
    ordered by smallest member, and the unsettled states: those that reach
    one of the sources (`_change_sources`)."""
    unsettled = _reaching(c, np.flatnonzero(sources))
    settled, classes = np.flatnonzero(~unsettled), ()
    if len(settled):
        within = _split(pattern[settled], np.zeros(len(settled), dtype=bool))
        classes = tuple(settled[within == i] for i in range(within.max() + 1))
    return BsccPartition(classes, np.flatnonzero(unsettled))


def _reaching(c: Ctmc, targets: np.ndarray) -> np.ndarray:
    """Mask of the states with a path to one of targets (targets included):
    a search of the reversed rates from a virtual root n with an edge to
    each target."""
    n, rev = c.n_states, c.rate_matrix.tocsc()  # column j lists the states with a rate into j
    graph = sp.csr_matrix((np.ones(rev.nnz + len(targets)), np.concatenate((rev.indices, targets)),
                           np.append(rev.indptr, rev.nnz + len(targets))), shape=(n + 1, n + 1))
    hit = np.zeros(n + 1, dtype=bool)
    hit[breadth_first_order(graph, n, return_predecessors=False)] = True
    return hit[:n]


def _class_labels(c: Ctmc, members: np.ndarray, weights: np.ndarray) -> dict[str, float]:
    """Each label's probability: the weights of the classes whose member,
    one per class, it holds."""
    return {name: float(weights[np.isin(members, states)].sum())
            for name, states in c.label_arrays.items()}


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


def _stack(chains: list[Ctmc]) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """P^T of each chain (`_uniformized_transpose`) stacked block-diagonally,
    the initial point masses stacked alike, and the block bounds: chain b
    holds states [bounds[b], bounds[b + 1]).  Each block's CSR arrays are
    copied in with their offsets as soon as it is made, so every row keeps
    its entries in their order and only one block is held twice."""
    bounds = np.cumsum([0] + [c.n_states for c in chains])
    n, most = int(bounds[-1]), sum(_slot(c)[1] for c in chains)
    x = np.zeros(n)
    x[bounds[:-1] + [c.initial for c in chains]] = 1.0
    if len(chains) == 1:
        return _uniformized_transpose(chains[0].rate_matrix, chains[0].exit_rates)[0], x, bounds
    dtype = np.int32 if max(n, most) < 2**31 else np.int64
    indptr, indices, data = np.zeros(n + 1, dtype), np.empty(most, dtype), np.empty(most)
    for c, start in zip(chains, bounds):
        p = _uniformized_transpose(c.rate_matrix, c.exit_rates)[0]
        at = indptr[start]
        indptr[start + 1:start + c.n_states + 1] = p.indptr[1:] + at
        indices[at:at + p.nnz] = p.indices
        indices[at:at + p.nnz] += start
        data[at:at + p.nnz] = p.data
    nnz = indptr[-1]  # below most where a rate / Lambda underflows to 0
    return sp.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(n, n)), x, bounds


def _uniformize(
    pt: sp.csr_matrix, x: np.ndarray, bounds: np.ndarray, weights: np.ndarray, lo: int,
    epsilon: float,
) -> tuple[list[np.ndarray], list[int]]:
    """Sum weights[k - lo] * x P^k over k in [lo, lo + len(weights)) on
    each block [bounds[b], bounds[b + 1]) of a block-diagonal P^T.

    Returns each block's unnormalized sum and the number of steps (SpMVs)
    it took.  Each block stops early by the stationarity rule documented
    on `Batches`, tested on its own slice; a stopped block keeps
    stepping with the others, unread.
    """
    hi = lo + len(weights) - 1
    n_blocks = len(bounds) - 1
    shape, indptr, indices, data = pt.shape, pt.indptr, pt.indices, pt.data
    sums: list[np.ndarray | None] = [None] * n_blocks
    steps = [hi] * n_blocks
    out = np.zeros_like(x)
    x, x_next, tmp = x.copy(), np.empty_like(x), np.empty_like(x)
    running = list(range(n_blocks))
    for k in range(hi):
        if k >= lo:
            out += np.multiply(weights[k - lo], x, out=tmp)
        x_next.fill(0.0)
        csr_matvec(*shape, indptr, indices, data, x, x_next)  # _step, without its call costs
        if (k + 1) % _STATIONARITY_CHECK == 0:
            np.abs(np.subtract(x_next, x, out=tmp), out=tmp)
            for b in tuple(running):
                s, e = bounds[b], bounds[b + 1]
                if float(tmp[s:e].sum()) * (hi - k) <= epsilon:
                    sums[b] = out[s:e] + weights[max(k + 1 - lo, 0):].sum() * x_next[s:e]
                    steps[b] = k + 1
                    running.remove(b)
            if not running:
                return sums, steps
        x, x_next = x_next, x
    for b in running:
        s, e = bounds[b], bounds[b + 1]
        sums[b] = out[s:e] + weights[-1] * x[s:e]
    return sums, steps


def _step(pt: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = pt @ x, bit for bit, in place: scipy's private CSR kernel, no allocation."""
    out.fill(0.0)
    csr_matvec(*pt.shape, pt.indptr, pt.indices, pt.data, x, out)
    return out


def _collapse(c: Ctmc, classes: tuple[np.ndarray, ...]) -> Ctmc:
    """c with each settled class (`_settled`) collapsed into one absorbing
    state.  A path that enters a class keeps its labels, so the quotient
    gives every label the probability c gives it at every time.  Blocks are
    numbered by smallest member; an unsettled state keeps its rates, and its
    rates into one class add in ascending order.  c comes back when no class
    has two states."""
    if all(len(b) == 1 for b in classes):
        return c
    n = c.n_states
    rep = np.arange(n)
    for b in classes:
        rep[b] = b[0]
    first = rep == np.arange(n)
    blocks = (np.cumsum(first) - 1)[rep]
    src, dst = np.repeat(blocks, np.diff(c.indptr)), blocks[c.indices]
    moving = src != dst  # every rate of an unsettled state, none of a class
    src, dst, rates = src[moving], dst[moving], c.data[moving]
    order = np.lexsort((rates, dst, src))  # rates ascend within each (state, block) pair
    src, dst, rates = src[order], dst[order], rates[order]
    new = np.flatnonzero(np.diff(src * n + dst, prepend=-1))
    return Ctmc(int(first.sum()), src[new], dst[new], np.add.reduceat(rates, new), blocks[c.initial],
                {name: blocks[states] for name, states in c.label_arrays.items()})


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
