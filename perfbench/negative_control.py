#!/usr/bin/env python3
"""Show that the benchmark's checks pass on good outputs and fail on bad ones.

    python3 perfbench/negative_control.py

Run from the root of a gridlock source tree; takes a few seconds.  Each
control feeds a check in perfbench/checks.py first the program's own
numbers, which must pass, then the same numbers with one fault put in,
which must fail.  Exits 0 only if every fault is caught.
"""

from __future__ import annotations

import sys

import numpy as np

import checks
from checks import LABELS
from run import SRC

sys.path.insert(0, str(SRC))


def _desk_chain(hour: int):
    """The desk fleet's ATTACK-N chain at one hour."""
    from gridlock.experiments import desk_demand_profile, desk_scenario, make_attack_variants
    from gridlock.grid import build_grid_ctmc

    attack_n = dict(make_attack_variants(desk_scenario()))["ATTACK-N"]
    return build_grid_ctmc(attack_n, desk_demand_profile().mw_by_hour[hour])


def _outcome(label: str, problems: list[str], want_fail: bool) -> bool:
    ok = bool(problems) == want_fail
    verdict = "caught" if want_fail and problems else "passes" if not problems else "FAILS"
    print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    return ok


def main() -> int:
    from gridlock.ctmc import new_ctmc
    from gridlock.sim import estimate_label_metrics
    from gridlock.solvers import label_probability, transient

    results = []

    # transient values against the dense matrix exponential
    chain = _desk_chain(18)
    probs = tuple(label_probability(transient(chain, 10.0), chain, lab) for lab in LABELS)
    rows = {("ATTACK-N", 18): probs}
    expected = {("ATTACK-N", 18): checks.label_sums(chain, checks.dense_transient(chain, 10.0))}
    results.append(_outcome("transient vs dense expm", checks.check_values(rows, expected, 1e-8), False))
    nudged = {("ATTACK-N", 18): (probs[0], probs[1], probs[2] + 1e-6, probs[3])}
    results.append(_outcome("transient nudged by 1e-6", checks.check_values(nudged, expected, 1e-8), True))

    # structural properties of a results table
    cells = [("ATTACK-N", 18)]
    results.append(_outcome("label partition", checks.check_structure(rows, cells, False), False))
    raised = {("ATTACK-N", 18): (probs[0], probs[1], probs[2], probs[2] + 1e-6)}
    results.append(_outcome("blackout above overDemand", checks.check_structure(raised, cells, False), True))

    # direct steady solve on a chain with two BSCCs, solved by hand:
    # from 0, {1, 3} is entered w.p. 1/4 and split 1:2; state 2 absorbs 3/4
    toy = new_ctmc(4, [(0, 1, 1.0), (0, 2, 3.0), (1, 3, 2.0), (3, 1, 1.0)], initial=0)
    pi, residual = checks.direct_steady(toy)
    hand = np.array([0.0, 1 / 12, 3 / 4, 2 / 12])
    err = float(np.abs(pi - hand).max())
    results.append(_outcome("direct steady solve, two BSCCs",
                            [] if err < 1e-12 and residual < 1e-12 else [f"off by {err:.3g}"], False))

    # simulated estimates against exact Clopper-Pearson intervals
    trials, hours = 20_000, (12, 18)
    estimates, exact = {}, {}
    for hour in hours:
        chain = _desk_chain(hour)
        estimates[hour] = {lab: estimate_label_metrics(chain, lab, 10.0, trials, 7).point_probability
                           for lab in LABELS}
        exact[hour] = dict(zip(LABELS, checks.label_sums(chain, checks.dense_transient(chain, 10.0))))
    results.append(_outcome("simulation in its intervals",
                            checks.check_simulation(estimates, exact, trials, 1e-3), False))
    alpha = checks.sidak(1e-3, 4 * len(hours))
    k = round(estimates[18]["overSupply"] * trials)
    # the fewest extra counts whose interval no longer holds the exact value,
    # taken from overDemand so the exclusive labels still count every path
    shift = next(j for j in range(1, trials - k + 1)
                 if checks.clopper_pearson(k + j, trials, alpha)[0] > exact[18]["overSupply"])
    moved = {h: dict(v) for h, v in estimates.items()}
    moved[18]["overSupply"] += shift / trials
    moved[18]["overDemand"] -= shift / trials
    results.append(_outcome(f"overSupply moved by {shift} counts out of its interval",
                            checks.check_simulation(moved, exact, trials, 1e-3), True))
    lost = {h: dict(v) for h, v in estimates.items()}
    lost[12]["equilibrium"] -= 1 / trials
    results.append(_outcome("one path missing from the exclusive labels",
                            checks.check_simulation(lost, exact, trials, 1e-3), True))

    print("all controls behave" if all(results) else "some control misbehaves")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
