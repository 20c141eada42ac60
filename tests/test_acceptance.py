"""Acceptance suite: seven numbered criteria, one test and one printed
PASS/FAIL line each (run with ``pytest -s`` to see the lines live; for a
failing criterion the line appears in the captured output).

1. solver correctness on hand-solved fixture chains, with residuals
2. two-mode supply chain reproduces its hand-derived steady state
3. counting abstraction is exact against a per-unit oracle model
4. transient label probabilities agree with 100k-trial simulation
5. desk-scale sweep: attack ordering, worst hours, demand correlation
6. structural invariants on every model construction path
7. byte-identical CLI output, parse/format fixpoint, reference values
"""

import math
import re
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from gridlock.cli import main as cli_main
from gridlock.ctmc import new_ctmc
from gridlock.experiments import (
    REPORT_LABELS,
    _chain_key,
    desk_demand_profile,
    desk_scenario,
    make_attack_variants,
)
from gridlock.grid import (
    BLACKOUT,
    EQUILIBRIUM,
    OVER_DEMAND,
    OVER_SUPPLY,
    Botnet,
    Controller,
    DemandProcess,
    GeneratorClass,
    Scenario,
    build_grid_ctmc,
    describe_state,
)
from gridlock.scenario_io import (
    default_scenario,
    default_scenario_text,
    format_demand_csv,
    format_scenario,
    parse_scenario,
)
from gridlock.sim import derive_trial_seed, estimate_label_metrics
from gridlock.solvers import label_probability, steady_state, transient

from oracles import grid_state_ctmc, per_unit_ctmc, transient_oracle

SEC = 1.0 / 60.0
EXCLUSIVE_LABELS = (OVER_SUPPLY, EQUILIBRIUM, OVER_DEMAND)


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def _residual(c, dist):
    q = c.generator_matrix()
    return float(np.abs(dist.probs @ q).max())


# -- 1: solver correctness ---------------------------------------------

def test_criterion_1_solver_correctness():
    started = time.perf_counter()
    # (chain, hand-solved steady state or None)
    fixtures = [
        (new_ctmc(2, [(0, 1, 2.0), (1, 0, 1.0)], initial=0),
         (1.0 / 3.0, 2.0 / 3.0)),
        (new_ctmc(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)], initial=0),
         (6.0 / 11.0, 3.0 / 11.0, 2.0 / 11.0)),
        (new_ctmc(4, [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 2.0), (3, 1, 4.0)],
                  initial=0),
         (0.0, 4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0)),
        (new_ctmc(6, [(0, 1, 3.0), (1, 2, 1.5), (2, 0, 0.7), (2, 3, 2.2),
                      (3, 4, 5.0), (4, 5, 1.1), (5, 0, 4.0), (3, 1, 0.3),
                      (5, 2, 0.9), (4, 0, 2.5)], initial=0),
         None),
    ]
    worst_residual = 0.0
    worst_steady = 0.0
    worst_transient = 0.0
    for c, expected in fixtures:
        pi = steady_state(c)
        worst_residual = max(worst_residual, _residual(c, pi))
        if expected is not None:
            worst_steady = max(worst_steady,
                               float(np.abs(pi.probs - expected).max()))
        for t in (0.1, 1.0, 5.0):
            diff = np.abs(transient(c, t).probs - transient_oracle(c, t))
            worst_transient = max(worst_transient, float(diff.max()))
    elapsed = time.perf_counter() - started

    ok = (worst_residual < 1e-9 and worst_steady < 1e-9
          and worst_transient < 1e-7 and elapsed < 1.0)
    _report(1, ok,
            f"residual {worst_residual:.1e}, steady err {worst_steady:.1e}, "
            f"transient err {worst_transient:.1e}, {elapsed:.2f} s")
    assert worst_residual < 1e-9
    assert worst_steady < 1e-9
    assert worst_transient < 1e-7
    assert elapsed < 1.0


# -- 2: two-mode supply chain ------------------------------------------

def _supply_chain(a_s, s_a, d_a):
    # states: 0 available, 1 serving, 2 disconnected
    return new_ctmc(3, [(0, 1, a_s), (1, 0, s_a), (2, 0, d_a)], initial=0)


def test_criterion_2_supply_chain_steady_state():
    slow = _supply_chain(0.50, 0.50, 0.25)
    fast = _supply_chain(1200.0, 1200.0, 600.0)
    worst = 0.0
    for c in (slow, fast):
        pi = steady_state(c).probs
        worst = max(worst, float(np.abs(pi - (0.5, 0.5, 0.0)).max()))
    ok = worst < 1e-9
    _report(2, ok, f"both idle-attacker chains reach (0.5, 0.5, 0), "
                   f"err {worst:.1e}")
    assert worst < 1e-9


# -- 3: counting abstraction is exact ----------------------------------

def test_criterion_3_lumpability():
    started = time.perf_counter()
    scen = Scenario(
        classes=(GeneratorClass("hydro", 20.0, 2, SEC, SEC, SEC, 20.0),),
        demand=DemandProcess(0.05, 5.0, 1.0, 5.0, 1.0),
        botnet=Botnet(0.30, 1.0, 1.0, enabled=True),
        controller=Controller(("hydro",), 0.01),
    )
    lumped = build_grid_ctmc(scen, 20.0)
    explicit = per_unit_ctmc(scen, 20.0)
    worst = 0.0
    for dist_of in (steady_state, lambda c: transient(c, 60.0)):
        da, db = dist_of(lumped), dist_of(explicit)
        for label in REPORT_LABELS:
            a = label_probability(da, lumped, label)
            b = label_probability(db, explicit, label)
            worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 10.0
    _report(3, ok, f"lumped {lumped.n_states} vs per-unit "
                   f"{explicit.n_states} states, label err {worst:.1e}, "
                   f"{elapsed:.2f} s")
    assert worst < 1e-9
    assert elapsed < 10.0


# -- 4: simulator cross-validation -------------------------------------

def test_criterion_4_simulation_cross_validation():
    started = time.perf_counter()
    scen, prof = desk_scenario(), desk_demand_profile()
    trials = 100_000
    within = 0
    cells = []
    for i, hour in enumerate((4, 12, 18)):
        c = build_grid_ctmc(scen, prof.mw_by_hour[hour])
        dist = transient(c, 60.0)
        sim = estimate_label_metrics(c, REPORT_LABELS, 60.0, trials, derive_trial_seed(11, i))
        for est in sim.estimates:
            p = label_probability(dist, c, est.label)
            # half-count guard keeps a zero-count estimate from collapsing
            # the band to zero width
            k = round(est.point_probability * trials)
            p_tilde = (k + 0.5) / (trials + 1.0)
            se = max(est.point_standard_error,
                     math.sqrt(p_tilde * (1.0 - p_tilde) / trials))
            hit = abs(p - est.point_probability) <= 3.0 * se
            within += hit
            cells.append((hour, est.label, hit))
    elapsed = time.perf_counter() - started
    ok = within >= 11 and elapsed < 120.0
    misses = [(h, lab) for h, lab, hit in cells if not hit]
    _report(4, ok, f"{within}/12 cells within 3 SE of {trials}-trial "
                   f"estimates, {elapsed:.1f} s"
                   + (f", misses {misses}" if misses else ""))
    assert within >= 11, misses
    assert elapsed < 120.0


# -- 5: desk-scale sweep findings --------------------------------------

def test_criterion_5_desk_sweep_findings(desk_transient_sweep):
    profile = desk_demand_profile()
    rows, elapsed = desk_transient_sweep
    assert len(rows) == 96

    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row.scenario, []).append(row)
    for cells in by_scenario.values():
        cells.sort(key=lambda r: r.hour)

    peak = max(range(24), key=lambda h: profile.mw_by_hour[h])

    # (a) at the peak hour, attacking hydro works less well than nuclear
    p_h = by_scenario["ATTACK-H"][peak].p_blackout
    p_n = by_scenario["ATTACK-N"][peak].p_blackout
    ok_a = p_h < p_n

    # (b) every attack variant is worst within one hour of the peak
    worst = {name: max(cells, key=lambda r: r.p_blackout).hour
             for name, cells in by_scenario.items() if name != "NO-ATTACK"}
    ok_b = all(abs(h - peak) <= 1 for h in worst.values())

    # (c) without the attacker, over-demand risk tracks demand by rank
    rho = spearmanr(
        profile.mw_by_hour,
        [r.p_over_demand for r in by_scenario["NO-ATTACK"]],
    ).statistic
    ok_c = rho > 0.7

    ok = ok_a and ok_b and ok_c and elapsed < 300.0
    _report(5, ok,
            f"(a) {'PASS' if ok_a else 'FAIL'} H={p_h:.6f} vs N={p_n:.6f}; "
            f"(b) {'PASS' if ok_b else 'FAIL'} worst hours {worst} "
            f"vs peak {peak}; "
            f"(c) {'PASS' if ok_c else 'FAIL'} rho={rho:.4f}; "
            f"{elapsed:.1f} s")
    assert ok_a, (p_h, p_n)
    assert ok_b, (worst, peak)
    assert ok_c, rho
    assert elapsed < 300.0


# -- 6: structural invariants ------------------------------------------

_META_RE = re.compile(r"(\w+)=(\d+)a/(\d+)s/(\d+)o")


def _structural_violations(c, descriptions, counts, expect_no_blackout):
    bad = []
    q = c.generator_matrix()
    row_err = float(np.abs(np.asarray(q.sum(axis=1))).max())
    if row_err >= 1e-12:
        bad.append(f"generator row sum {row_err:.1e}")

    # how many exclusive labels hold each state: exactly one
    hits = np.bincount(np.concatenate([c.label_states(lab) for lab in EXCLUSIVE_LABELS]),
                       minlength=c.n_states)
    if (hits == 0).any():
        bad.append("labels do not cover the state space")
    if (hits > 1).any():
        bad.append("exclusive labels overlap")
    if not np.isin(c.label_states(BLACKOUT), c.label_states(OVER_DEMAND)).all():
        bad.append("blackout outside overDemand")
    if expect_no_blackout and c.label_states(BLACKOUT).size:
        bad.append("blackout state in a no-attack model")

    for meta in descriptions:
        for name, a, s, o in _META_RE.findall(meta):
            if int(a) + int(s) + int(o) != counts[name]:
                bad.append(f"count leak in {meta!r}")
                break
    return bad


def test_criterion_6_structural_invariants():
    models = []
    prof = desk_demand_profile()
    for name, scen in make_attack_variants(desk_scenario()):
        for hour in (4, 12, 18):
            models.append((f"{name}/h{hour}", scen, prof.mw_by_hour[hour]))
    models.append(("reference/h18", default_scenario(), 317.0))
    tiny = Scenario(
        classes=(GeneratorClass("solo", 5.0, 1, 1.0, 1.0, 1.0),),
        demand=DemandProcess(0.05, 5.0, 1.0, 5.0, 1.0),
        botnet=Botnet(0.30, 1.0, 1.0, enabled=True),
        controller=Controller(("solo",), 0.01),
    )
    models.append(("tiny/solo", tiny, 4.0))

    problems = []
    checked_states = 0
    for tag, scen, base in models:
        c = build_grid_ctmc(scen, base)
        checked_states += c.n_states
        counts = {g.name: g.count for g in scen.classes}
        # the chain holds no state codes: the GridState reference gives
        # them, once it is shown to have built the same chain
        ref, order = grid_state_ctmc(scen, base)
        if _chain_key(c) != _chain_key(ref):
            problems.append(f"{tag}: differs from the GridState reference")
        descriptions = [describe_state(scen, g.code()) for g in order]
        bad = _structural_violations(c, descriptions, counts, not scen.botnet.enabled)
        problems.extend(f"{tag}: {msg}" for msg in bad)

    ok = not problems
    _report(6, ok, f"{len(models)} models / {checked_states} states checked"
                   + (f"; {problems}" if problems else ""))
    assert not problems, problems


# -- 7: deterministic i/o ----------------------------------------------

def test_criterion_7_io_determinism(tmp_path):
    scen_path = tmp_path / "desk.scenario"
    demand_path = tmp_path / "desk_demand.csv"
    scen_path.write_text(format_scenario(desk_scenario()))
    demand_path.write_text(format_demand_csv(desk_demand_profile()))

    outputs = []
    for run, workers in enumerate(("1", "2", "1")):
        out = tmp_path / f"out{run}.csv"
        code = cli_main([
            "check", "--scenario", str(scen_path), "--demand",
            str(demand_path), "--hours", "4,18", "--workers", workers,
            "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]

    once = format_scenario(parse_scenario(default_scenario_text()))
    fixpoint = format_scenario(parse_scenario(once)) == once

    expected = Scenario(
        classes=(
            GeneratorClass("nuclear", 40.0, 4, 0.5, 40.0, SEC, None),
            GeneratorClass("hydro", 20.0, 5, SEC, SEC, SEC, 20.0),
            GeneratorClass("gas", 10.0, 6, SEC, 0.5, SEC, None),
        ),
        demand=DemandProcess(0.05, 5.0, 1.0, 5.0, 1.0),
        botnet=Botnet(0.30, 1.0, 1.0, enabled=True),
        controller=Controller(("nuclear", "hydro", "gas"), 0.01),
    )
    reference_exact = default_scenario() == expected

    ok = identical and fixpoint and reference_exact
    _report(7, ok, f"byte-identical across runs/workers: {identical}; "
                   f"format fixpoint: {fixpoint}; "
                   f"reference values exact: {reference_exact}")
    assert identical
    assert fixpoint
    assert reference_exact
