"""Checks of gridlock's outputs against computations made apart from it.

The chains come from the program's build_grid_ctmc; everything computed from a
chain here (generator, matrix exponential, BSCCs, absorption and
stationary vectors, interval bounds) uses numpy/scipy directly and none
of gridlock's solver code.  Every check returns a list of problems; an
empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components
from scipy.stats import beta

HEADER = "hour,scenario,mode,p_over_supply,p_equilibrium,p_over_demand,p_blackout"
LABELS = ("overSupply", "equilibrium", "overDemand", "blackout")
# the CSV prints 9 decimals, so each value is off by up to 5e-10
CSV_ROUNDING = 5e-10


def parse_results(text: str) -> dict[tuple[str, int], tuple[float, float, float, float]]:
    """(scenario, hour) -> (over_supply, equilibrium, over_demand, blackout)."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("results CSV has no header")
    out = {}
    for line in lines[1:]:
        hour, scenario, _mode, *probs = line.split(",")
        key = (scenario, int(hour))
        if key in out:
            raise ValueError(f"cell {key} appears twice")
        out[key] = tuple(float(p) for p in probs)
    return out


def parse_simulation(text: str) -> dict[int, dict[str, float]]:
    """hour -> label -> point probability, from `gridlock simulate` tables."""
    out: dict[int, dict[str, float]] = {}
    hour = None
    for line in text.splitlines():
        words = line.split()
        if words[0] == "hour":
            hour = int(words[1].rstrip(":"))
            out[hour] = {}
        elif words[0] in LABELS:
            out[hour][words[0]] = float(words[1])
    return out


# -- independent numerics ---------------------------------------------

def generator(chain) -> sp.csr_matrix:
    """Q assembled from the chain's transition map: rates off the diagonal,
    minus the row sums on it."""
    n = chain.n_states
    src = np.fromiter((s for s, _ in chain.transitions), dtype=np.int64, count=len(chain.transitions))
    dst = np.fromiter((d for _, d in chain.transitions), dtype=np.int64, count=len(chain.transitions))
    rates = np.fromiter(chain.transitions.values(), dtype=float, count=len(chain.transitions))
    out = np.bincount(src, weights=rates, minlength=n)
    rows = np.concatenate([src, np.arange(n)])
    cols = np.concatenate([dst, np.arange(n)])
    return sp.csr_matrix((np.concatenate([rates, -out]), (rows, cols)), shape=(n, n))


def label_sums(chain, probs: np.ndarray) -> tuple[float, ...]:
    return tuple(
        float(probs[np.fromiter(sorted(chain.labels[lab]), dtype=np.int64)].sum())
        if chain.labels[lab] else 0.0
        for lab in LABELS
    )


def dense_transient(chain, t: float) -> np.ndarray:
    """Row `initial` of expm(Q t), by scipy's dense Pade expm."""
    return scipy.linalg.expm(generator(chain).toarray() * t)[chain.initial]


def sparse_transient(chain, t: float) -> np.ndarray:
    """pi0 expm(Q t) by scipy's expm_multiply on Q transposed."""
    pi0 = np.zeros(chain.n_states)
    pi0[chain.initial] = 1.0
    # expm_multiply picks its step count from a randomized 1-norm estimate
    # drawn from numpy's global generator; seed it so reruns agree exactly
    np.random.seed(0)
    return spla.expm_multiply(generator(chain).T.tocsc() * t, pi0)


def direct_steady(chain) -> tuple[np.ndarray, float]:
    """Long-run distribution by direct sparse solves, and ||pi Q||_inf.

    BSCCs are the strong components with no edge leaving them.  A finite
    chain leaves its transient states with probability 1, so with one
    BSCC its absorption probability is 1; with several, the row of the
    initial state in h = -Q_TT^-1 Q_TB is y Q_TB with Q_TT^T y = -e_init.
    Each BSCC's stationary vector solves pi Q_B = 0 with one balance
    equation replaced by the normalisation.
    """
    q = generator(chain).tocsr()
    n = chain.n_states
    n_comp, comp = connected_components(q, directed=True, connection="strong")
    coo = q.tocoo()
    leaves = comp[coo.row] != comp[coo.col]
    bottom = np.ones(n_comp, dtype=bool)
    bottom[comp[coo.row[leaves]]] = False
    bsccs = [np.flatnonzero(comp == k) for k in np.flatnonzero(bottom)]
    trans = np.flatnonzero(~bottom[comp])

    weights = np.zeros(len(bsccs))
    init_bscc = [i for i, b in enumerate(bsccs) if chain.initial in b]
    if init_bscc:
        weights[init_bscc[0]] = 1.0
    elif len(bsccs) == 1:
        weights[0] = 1.0
    else:
        e_init = np.zeros(len(trans))
        e_init[int(np.searchsorted(trans, chain.initial))] = -1.0
        y = spla.spsolve(q[trans][:, trans].T.tocsc(), e_init)
        into = np.asarray(q[trans] @ sp.csr_matrix(
            (np.ones(n), (np.arange(n), comp)), shape=(n, n_comp)).toarray())
        weights = (y @ into)[np.flatnonzero(bottom)]

    pi = np.zeros(n)
    for w, b in zip(weights, bsccs):
        if w == 0.0:
            continue
        if len(b) == 1:
            pi[b] = w
            continue
        a = q[b][:, b].T.tolil()
        a[0, :] = 1.0
        rhs = np.zeros(len(b))
        rhs[0] = 1.0
        pi[b] = w * spla.spsolve(a.tocsc(), rhs)
    residual = float(np.abs(q.T @ pi).max())
    return pi, residual


# -- checks ------------------------------------------------------------

def check_structure(rows, cells, no_attack_blackout_zero: bool) -> list[str]:
    """The cell set, the label partition and blackout <= overDemand."""
    problems = []
    if set(rows) != set(cells):
        problems.append(f"cells {sorted(set(cells) ^ set(rows))} missing or unexpected")
    for (name, hour), (os_, eq, od, bo) in sorted(rows.items()):
        if abs(os_ + eq + od - 1.0) > 1e-9 + 3 * CSV_ROUNDING:
            problems.append(f"{name} h{hour}: classification labels sum to {os_ + eq + od!r}")
        if bo > od:
            problems.append(f"{name} h{hour}: p_blackout {bo} > p_over_demand {od}")
        if no_attack_blackout_zero and name == "NO-ATTACK" and bo != 0.0:
            problems.append(f"{name} h{hour}: p_blackout {bo} != 0")
    return problems


def check_values(rows, expected, tol: float) -> list[str]:
    """Each expected cell's four probabilities within tol of the CSV."""
    problems = []
    for key, want in sorted(expected.items()):
        got = rows.get(key)
        if got is None:
            problems.append(f"{key}: missing from results")
            continue
        err = max(abs(g - w) for g, w in zip(got, want))
        if not err <= tol:
            problems.append(f"{key[0]} h{key[1]}: off by {err:.3g} (tolerance {tol:g})")
    return problems


def clopper_pearson(k: int, n: int, alpha: float) -> tuple[float, float]:
    lo = 0.0 if k == 0 else float(beta.ppf(alpha / 2, k, n - k + 1))
    hi = 1.0 if k == n else float(beta.ppf(1 - alpha / 2, k + 1, n - k))
    return lo, hi


def sidak(family_alpha: float, tests: int) -> float:
    return -math.expm1(math.log1p(-family_alpha) / tests)


def check_simulation(estimates, exact, trials: int, family_alpha: float) -> list[str]:
    """Point estimates against exact transient probabilities.

    estimates: hour -> label -> estimate; exact: hour -> label -> value.
    Each estimate's exact Clopper-Pearson interval must hold the exact
    value, at a family-wise alpha split by Sidak over all label x hour
    tests.  From one seed every label scores the same paths, so the
    three exclusive labels count exactly `trials` and blackout never
    exceeds overDemand.
    """
    problems = []
    alpha = sidak(family_alpha, sum(len(v) for v in exact.values()))
    if set(estimates) != set(exact):
        problems.append(f"hours {sorted(estimates)} != {sorted(exact)}")
    for hour in sorted(set(estimates) & set(exact)):
        counts = {}
        for lab in LABELS:
            p = estimates[hour].get(lab)
            if p is None:
                problems.append(f"h{hour} {lab}: no estimate")
                continue
            k = round(p * trials)
            if abs(p * trials - k) > 1e-3:
                problems.append(f"h{hour} {lab}: {p} is not a count over {trials} trials")
            counts[lab] = k
            lo, hi = clopper_pearson(k, trials, alpha)
            # the exact values carry the matrix exponential's rounding
            if not lo - 1e-12 <= exact[hour][lab] <= hi + 1e-12:
                problems.append(
                    f"h{hour} {lab}: exact {exact[hour][lab]:.9f} outside "
                    f"[{lo:.9f}, {hi:.9f}] around {k}/{trials}"
                )
        if len(counts) == len(LABELS):
            if counts["overSupply"] + counts["equilibrium"] + counts["overDemand"] != trials:
                problems.append(f"h{hour}: exclusive labels count {counts} over {trials} trials")
            if counts["blackout"] > counts["overDemand"]:
                problems.append(f"h{hour}: blackout {counts['blackout']} > overDemand")
    return problems
