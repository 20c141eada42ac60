import csv
import io
import math
import re
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridlock import experiments
from gridlock.errors import (
    InputFileError,
    NonConvergence,
    StateSpaceLimitExceeded,
)
from gridlock.experiments import (
    DESK_COUNTS,
    DESK_DEMAND_SCALE,
    DESK_HORIZON_MINUTES,
    CellFailure,
    ExperimentPlan,
    ResultRow,
    SimulationMismatch,
    SweepError,
    desk_demand_profile,
    desk_scenario,
    format_gnuplot,
    make_attack_variants,
    run_hourly_sweep,
)
from gridlock.cli import _exit_code
from gridlock.ctmc import new_ctmc
from gridlock.grid import (
    Botnet,
    Controller,
    DemandProcess,
    DemandProfile,
    EQUILIBRIUM,
    GeneratorClass,
    OVER_SUPPLY,
    Scenario,
    build_grid_ctmc,
)
from gridlock.scenario_io import (
    default_demand_profile,
    default_demand_text,
    default_scenario,
    default_scenario_text,
    format_demand_csv,
    format_scenario,
    write_results_csv,
)
from gridlock.sim import derive_trial_seed
from gridlock.solvers import SolverConfig


def tiny_scenario(enabled=True):
    # two single-unit classes keep every sweep model below ~100 states
    return Scenario(
        classes=(
            GeneratorClass("coal", 50.0, 1, t_start=2.0, t_stop=2.0, t_trip=1.0, t_recover=5.0),
            GeneratorClass("wind", 30.0, 1, t_start=1.0, t_stop=1.0, t_trip=1.0, t_recover=5.0),
        ),
        demand=DemandProcess(0.05, 5.0, 1.0, 5.0, 1.0),
        botnet=Botnet(0.30, 1.0, 1.0, enabled=enabled),
        controller=Controller(("coal", "wind"), 0.01),
    )


def tiny_profile():
    return DemandProfile(tuple(30.0 + 2.0 * h for h in range(24)))


def break_hour_12_attack_rows(monkeypatch):
    """Make ResultRow raise ValueError on the 6-state attack chains of the
    tiny sweep (hour 12).  Forked pool workers inherit the patch."""
    real = experiments.label_probability

    def skewed(dist, chain, label):
        p = real(dist, chain, label)
        return p + 0.5 if chain.n_states == 6 and label == OVER_SUPPLY else p

    monkeypatch.setattr(experiments, "label_probability", skewed)


class TestMakeAttackVariants:
    def test_reference_names_and_order(self):
        variants = make_attack_variants(default_scenario())
        assert [name for name, _ in variants] == [
            "NO-ATTACK",
            "ATTACK-N",
            "ATTACK-H",
            "ATTACK-G",
        ]

    def test_no_attack_disables_botnet_keeps_priority(self):
        base = default_scenario()
        name, scen = make_attack_variants(base)[0]
        assert not scen.botnet.enabled
        assert scen.controller.priority == base.controller.priority
        assert scen.classes == base.classes

    def test_attack_variants_enable_botnet(self):
        for name, scen in make_attack_variants(tiny_scenario(enabled=False))[1:]:
            assert scen.botnet.enabled

    def test_attacked_class_moves_first(self):
        variants = dict(make_attack_variants(default_scenario()))
        assert variants["ATTACK-N"].controller.priority == ("nuclear", "hydro", "gas")
        assert variants["ATTACK-H"].controller.priority == ("hydro", "nuclear", "gas")
        assert variants["ATTACK-G"].controller.priority == ("gas", "nuclear", "hydro")

    def test_initial_collision_falls_back_to_full_names(self):
        base = tiny_scenario()
        collided = Scenario(
            classes=(
                GeneratorClass("coal", 50.0, 1, 2.0, 2.0, 1.0, 5.0),
                GeneratorClass("cogen", 30.0, 1, 1.0, 1.0, 1.0, 5.0),
            ),
            demand=base.demand,
            botnet=base.botnet,
            controller=Controller(("coal", "cogen"), 0.01),
        )
        names = [name for name, _ in make_attack_variants(collided)]
        assert names == ["NO-ATTACK", "ATTACK-COAL", "ATTACK-COGEN"]

    def test_base_scenario_not_mutated(self):
        base = tiny_scenario()
        make_attack_variants(base)
        assert base.controller.priority == ("coal", "wind")
        assert base.botnet.enabled


class TestDeskPreset:
    def test_counts_and_fleet(self):
        scen = desk_scenario()
        assert {g.name: g.count for g in scen.classes} == DESK_COUNTS
        assert DESK_COUNTS == {"nuclear": 2, "hydro": 2, "gas": 3}
        assert sum(g.count * g.capacity_mw for g in scen.classes) == pytest.approx(150.0)

    def test_only_counts_change(self):
        ref, desk = default_scenario(), desk_scenario()
        assert desk.demand == ref.demand
        assert desk.botnet == ref.botnet
        assert desk.controller == ref.controller
        for a, b in zip(ref.classes, desk.classes):
            assert (a.name, a.capacity_mw, a.t_start, a.t_stop, a.t_trip, a.t_recover) == (
                b.name, b.capacity_mw, b.t_start, b.t_stop, b.t_trip, b.t_recover)

    def test_profile_is_scaled_default(self):
        full, desk = default_demand_profile(), desk_demand_profile()
        assert 0.0 < DESK_DEMAND_SCALE < 1.0
        for a, b in zip(full.mw_by_hour, desk.mw_by_hour):
            assert b == pytest.approx(a * DESK_DEMAND_SCALE)

    def test_peak_stays_buildable(self):
        # greedy whole-unit start-up must succeed at every hour
        scen, prof = desk_scenario(), desk_demand_profile()
        fleet = sum(g.count * g.capacity_mw for g in scen.classes)
        assert max(prof.mw_by_hour) < fleet
        for hour in range(24):
            build_grid_ctmc(scen, prof.mw_by_hour[hour])

    def test_horizon_positive(self):
        assert DESK_HORIZON_MINUTES > 0.0


class TestPlanValidation:
    def test_defaults(self):
        plan = ExperimentPlan(variants=(("X", tiny_scenario()),))
        assert plan.hours == tuple(range(24))
        assert plan.mode == "transient"

    def test_rejects_empty_variants(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=())

    def test_rejects_empty_hours(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), hours=())

    def test_rejects_hour_out_of_range(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), hours=(24,))

    @pytest.mark.parametrize("hours", [(12, 12), (0, 1, 2, 1)])
    def test_rejects_repeated_hour(self, hours):
        with pytest.raises(ValueError, match=f"hour {hours[-1]} given twice"):
            ExperimentPlan(variants=(("X", tiny_scenario()),), hours=hours)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), mode="fast")

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), horizon_minutes=0.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), horizon_minutes=horizon)

    def test_rejects_sim_check_in_steady_mode(self):
        with pytest.raises(ValueError):
            ExperimentPlan(
                variants=(("X", tiny_scenario()),), mode="steady", sim_trials=100
            )

    def test_rejects_loose_transient_tolerance(self):
        with pytest.raises(ValueError, match="1e-3"):
            ExperimentPlan(variants=(("X", tiny_scenario()),), solver=SolverConfig(tolerance=0.5))
        # the steady iterations take any tolerance in (0, 1)
        ExperimentPlan(
            variants=(("X", tiny_scenario()),), mode="steady", solver=SolverConfig(tolerance=0.5)
        )

    def test_rejects_bad_trials_and_max_states(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), sim_trials=0)
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), max_states=0)


class TestResultRow:
    def test_rejects_bad_probability_sum(self):
        with pytest.raises(ValueError):
            ResultRow(0, "X", "transient", 0.5, 0.5, 0.5, 0.0, 10)

    def test_rejects_blackout_above_over_demand(self):
        with pytest.raises(ValueError):
            ResultRow(0, "X", "transient", 0.5, 0.4, 0.1, 0.2, 10)

    def test_accepts_consistent_row(self):
        row = ResultRow(4, "X", "steady", 0.25, 0.5, 0.25, 0.1, 10)
        assert row.p_blackout == 0.1


class TestSweep:
    def test_row_count_and_sort_order(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(18, 4)
        )
        rows = run_hourly_sweep(plan, tiny_profile())
        assert len(rows) == 6
        assert [(r.scenario, r.hour) for r in rows] == [
            ("ATTACK-C", 4),
            ("ATTACK-C", 18),
            ("ATTACK-W", 4),
            ("ATTACK-W", 18),
            ("NO-ATTACK", 4),
            ("NO-ATTACK", 18),
        ]

    def test_no_attack_has_zero_blackout(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(12,)
        )
        rows = run_hourly_sweep(plan, tiny_profile())
        for r in rows:
            if r.scenario == "NO-ATTACK":
                assert r.p_blackout == 0.0

    def test_probabilities_form_distribution(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(4, 18)
        )
        for r in run_hourly_sweep(plan, tiny_profile()):
            total = r.p_over_supply + r.p_equilibrium + r.p_over_demand
            assert abs(total - 1.0) < 1e-9
            assert r.p_blackout <= r.p_over_demand + 1e-12
            assert r.state_count > 0
            assert r.mode == "transient"

    def test_steady_mode(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())),
            hours=(12,),
            mode="steady",
        )
        rows = run_hourly_sweep(plan, tiny_profile())
        assert all(r.mode == "steady" for r in rows)
        for r in rows:
            assert abs(r.p_over_supply + r.p_equilibrium + r.p_over_demand - 1.0) < 1e-9

    def test_repeat_runs_are_identical(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(4, 18)
        )
        first = run_hourly_sweep(plan, tiny_profile())
        second = run_hourly_sweep(plan, tiny_profile())
        assert write_results_csv(first) == write_results_csv(second)
        for a, b in zip(first, second):
            assert a.p_blackout == b.p_blackout
            assert a.p_over_demand == b.p_over_demand

    def test_failure_collector_tags_every_cell(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())),
            hours=(4, 18),
            mode="steady",
            solver=SolverConfig(max_iterations=2),
        )
        failures: list[CellFailure] = []
        rows = run_hourly_sweep(plan, tiny_profile(), failures=failures)
        assert rows == []
        assert [(f.variant, f.hour) for f in failures] == [
            ("ATTACK-C", 4),
            ("ATTACK-C", 18),
            ("ATTACK-W", 4),
            ("ATTACK-W", 18),
            ("NO-ATTACK", 4),
            ("NO-ATTACK", 18),
        ]
        assert all(isinstance(f.error, NonConvergence) for f in failures)

    def test_sweep_error_without_collector(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())),
            hours=(4,),
            mode="steady",
            solver=SolverConfig(max_iterations=2),
        )
        with pytest.raises(SweepError) as exc:
            run_hourly_sweep(plan, tiny_profile())
        assert exc.value.variant == "ATTACK-C"
        assert exc.value.hour == 4
        assert isinstance(exc.value.__cause__, NonConvergence)

    def test_partial_failure_keeps_good_rows(self):
        variants = tuple(make_attack_variants(tiny_scenario()))
        profile = tiny_profile()
        small = build_grid_ctmc(dict(variants)["NO-ATTACK"], profile.mw_by_hour[12])
        big = build_grid_ctmc(dict(variants)["ATTACK-C"], profile.mw_by_hour[12])
        assert small.n_states < big.n_states
        plan = ExperimentPlan(variants=variants, hours=(12,), max_states=small.n_states)
        failures: list[CellFailure] = []
        rows = run_hourly_sweep(plan, profile, failures=failures)
        assert [r.scenario for r in rows] == ["NO-ATTACK"]
        assert sorted(f.variant for f in failures) == ["ATTACK-C", "ATTACK-W"]
        assert all(isinstance(f.error, StateSpaceLimitExceeded) for f in failures)

    def test_simulation_cross_check_passes(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())),
            hours=(18,),
            sim_trials=400,
            sim_seed=7,
        )
        failures: list[CellFailure] = []
        rows = run_hourly_sweep(plan, tiny_profile(), failures=failures)
        assert failures == []
        assert len(rows) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shifted_solver_value_is_caught(self, monkeypatch, workers):
        real = experiments._solve

        def shifted(chain, plan):
            probs = real(chain, plan)
            p = probs[EQUILIBRIUM]
            return dict(probs, **{EQUILIBRIUM: p + (0.05 if p < 0.5 else -0.05)})

        monkeypatch.setattr(experiments, "_solve", shifted)
        plan = ExperimentPlan(variants=tuple(make_attack_variants(tiny_scenario())),
                              hours=(18,), sim_trials=20_000, sim_seed=3)
        failures: list[CellFailure] = []
        assert run_hourly_sweep(plan, tiny_profile(), failures=failures,
                                max_workers=workers) == []
        assert len(failures) == 3
        for f in failures:
            assert isinstance(f.error, SimulationMismatch)
            # the CLI prefixes variant and hour; the message names neither
            assert str(f.error).startswith("label equilibrium: solver ")
            assert f.variant not in str(f.error) and "hour" not in str(f.error)
            # 3 cells x 4 labels share the family-wise alpha
            assert f"alpha {-math.expm1(math.log1p(-1e-3) / 12):.3g}" in str(f.error)

    def test_transient_gets_the_plan_tolerance(self, monkeypatch):
        seen = []
        real = experiments.transient

        def spy(chain, t, epsilon=1e-10):
            seen.append(epsilon)
            return real(chain, t, epsilon)

        monkeypatch.setattr(experiments, "transient", spy)
        plan = ExperimentPlan(
            variants=(("X", tiny_scenario()),), hours=(4, 12), solver=SolverConfig(tolerance=1e-6)
        )
        run_hourly_sweep(plan, tiny_profile())
        assert seen == [1e-6, 1e-6]

    def test_worker_pool_matches_serial(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(4, 18)
        )
        serial = run_hourly_sweep(plan, tiny_profile(), max_workers=1)
        pooled = run_hourly_sweep(plan, tiny_profile(), max_workers=2)
        assert write_results_csv(serial) == write_results_csv(pooled)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_nonpositive_workers_before_building(self, monkeypatch, workers):
        def no_build(*args, **kwargs):
            raise AssertionError("built a chain")

        monkeypatch.setattr(experiments, "build_grid_ctmc", no_build)
        plan = ExperimentPlan(variants=(("X", tiny_scenario()),), hours=(12,))
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            run_hourly_sweep(plan, tiny_profile(), max_workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_program_fault_names_its_cell(self, monkeypatch, workers):
        break_hour_12_attack_rows(monkeypatch)
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(4, 12)
        )
        failures: list[CellFailure] = []
        rows = run_hourly_sweep(
            plan, tiny_profile(), failures=failures, max_workers=workers
        )
        assert [(f.variant, f.hour) for f in failures] == [
            ("ATTACK-C", 12),
            ("ATTACK-W", 12),
        ]
        assert all(isinstance(f.error, ValueError) for f in failures)
        assert [(r.scenario, r.hour) for r in rows] == [
            ("ATTACK-C", 4),
            ("ATTACK-W", 4),
            ("NO-ATTACK", 4),
            ("NO-ATTACK", 12),
        ]

    def test_program_fault_without_collector(self, monkeypatch):
        break_hour_12_attack_rows(monkeypatch)
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(12,)
        )
        with pytest.raises(SweepError) as exc:
            run_hourly_sweep(plan, tiny_profile())
        assert (exc.value.variant, exc.value.hour) == ("ATTACK-C", 12)
        assert isinstance(exc.value.__cause__, ValueError)


def shared_chain_plan(**kw):
    """Six tiny cells, ATTACK-C and ATTACK-W at hours 12-14, that all build
    one bit-identical chain although their demands differ."""
    attacks = tuple(v for v in make_attack_variants(tiny_scenario()) if v[0] != "NO-ATTACK")
    return ExperimentPlan(variants=attacks, hours=(12, 13, 14), **kw)


def log_calls(monkeypatch, tmp_path, name, record=lambda *a, **k: ""):
    """Spy on experiments.<name>: each call, in this process or in a forked
    pool worker, appends record(*args) as one line to a file.  Returns a
    function that reads the lines back."""
    log = tmp_path / f"{name}.log"
    real = getattr(experiments, name)

    def spy(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{record(*args, **kwargs)}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, spy)
    return lambda: log.read_text().splitlines() if log.exists() else []


def _keyed_chain(rates=(1.0, 2.0, 3.0), initial=0, labels=None, meta=("x", "y", "z")):
    return new_ctmc(3, [(0, 1, rates[0]), (1, 2, rates[1]), (2, 0, rates[2])], initial,
                    labels or {"a": [0], "b": [1, 2]}, meta)


class TestChainKey:
    def test_descriptions_do_not_count(self):
        assert (experiments._chain_key(_keyed_chain())
                == experiments._chain_key(_keyed_chain(meta=("u", "v", "w"))))

    @pytest.mark.parametrize("other", [
        _keyed_chain(rates=(1.0, 2.5, 3.0)),
        _keyed_chain(initial=1),
        _keyed_chain(labels={"a": [0, 1], "b": [2]}),
        _keyed_chain(labels={"a": [0], "c": [1, 2]}),
        replace(_keyed_chain(), indptr=_keyed_chain().indptr.astype(np.int64),
                indices=_keyed_chain().indices.astype(np.int64)),
    ], ids=["rate", "initial", "label-states", "label-name", "index-dtype"])
    def test_what_the_solvers_read_counts(self, other):
        assert experiments._chain_key(_keyed_chain()) != experiments._chain_key(other)


def fail_every_job(*_):
    raise RuntimeError("worker lost")


class TestSharedChains:
    def test_lost_pool_job_fails_every_sharing_cell(self, monkeypatch):
        monkeypatch.setattr(experiments, "_solve_shared", fail_every_job)
        failures: list[CellFailure] = []
        rows = run_hourly_sweep(shared_chain_plan(), tiny_profile(), failures=failures,
                                max_workers=2)
        assert rows == []
        assert [(f.variant, f.hour) for f in failures] == [
            (v, h) for v in ("ATTACK-C", "ATTACK-W") for h in (12, 13, 14)
        ]
        assert all(isinstance(f.error, RuntimeError) for f in failures)

    def test_plan_cells_share_one_chain(self):
        plan, profile = shared_chain_plan(), tiny_profile()
        keys = {experiments._chain_key(build_grid_ctmc(scen, profile.mw_by_hour[h]))
                for _, scen in plan.variants for h in plan.hours}
        assert len(keys) == 1
        assert len({profile.mw_by_hour[h] for h in plan.hours}) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_transient_for_six_cells(self, monkeypatch, tmp_path, workers):
        calls = log_calls(monkeypatch, tmp_path, "transient")
        rows = run_hourly_sweep(shared_chain_plan(), tiny_profile(), max_workers=workers)
        assert len(calls()) == 1
        assert [(r.scenario, r.hour) for r in rows] == [
            (v, h) for v in ("ATTACK-C", "ATTACK-W") for h in (12, 13, 14)
        ]
        probs = {(r.p_over_supply, r.p_equilibrium, r.p_over_demand, r.p_blackout,
                  r.state_count) for r in rows}
        assert len(probs) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_hour_18_steady_solves_three_chains(self, monkeypatch, tmp_path, workers):
        # ATTACK-H and ATTACK-N build one 8 190-state chain at hour 18
        plan = ExperimentPlan(variants=tuple(make_attack_variants(default_scenario())),
                              hours=(18,), mode="steady")
        profile = default_demand_profile()

        every = tmp_path / "every"
        every.mkdir()
        with monkeypatch.context() as m:
            m.setattr(experiments, "_chain_key", lambda chain: object())
            solves = log_calls(m, every, "steady_state")
            reference = run_hourly_sweep(plan, profile)
        assert len(solves()) == 4

        calls = log_calls(monkeypatch, tmp_path, "steady_state")
        rows = run_hourly_sweep(plan, profile, max_workers=workers)
        assert len(calls()) == 3
        assert rows == reference
        by_name = {r.scenario: r for r in rows}
        assert by_name["ATTACK-H"].state_count == by_name["ATTACK-N"].state_count == 8190

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_solve_fails_every_sharing_cell(self, monkeypatch, workers):
        def diverge(*_, **__):
            raise NonConvergence("uniformization diverged")

        monkeypatch.setattr(experiments, "transient", diverge)
        failures: list[CellFailure] = []
        rows = run_hourly_sweep(shared_chain_plan(), tiny_profile(), failures=failures,
                                max_workers=workers)
        assert rows == []
        assert [(f.variant, f.hour) for f in failures] == [
            (v, h) for v in ("ATTACK-C", "ATTACK-W") for h in (12, 13, 14)
        ]
        assert all(isinstance(f.error, NonConvergence) for f in failures)
        assert {_exit_code(f.error) for f in failures} == {2}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_sharing_cell_simulates_with_its_own_seed(self, monkeypatch, tmp_path, workers):
        seeds = log_calls(monkeypatch, tmp_path, "estimate_label_metrics",
                          record=lambda chain, labels, t, trials, seed: seed)
        plan = shared_chain_plan(sim_trials=400, sim_seed=7)
        failures: list[CellFailure] = []
        rows = run_hourly_sweep(plan, tiny_profile(), failures=failures, max_workers=workers)
        assert failures == []
        assert len(rows) == 6
        # one pass over all four labels per cell, on the cell's position in
        # the plan
        assert Counter(map(int, seeds())) == Counter(
            {derive_trial_seed(7, idx): 1 for idx in range(6)}
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_counts_every_cell(self, workers):
        seen = []
        plan = ExperimentPlan(variants=tuple(make_attack_variants(tiny_scenario())),
                              hours=(12, 13, 14))
        run_hourly_sweep(plan, tiny_profile(), max_workers=workers,
                         progress=lambda done, total: seen.append((done, total)))
        assert seen == [(done, 9) for done in range(1, 10)]


@pytest.mark.parametrize("alpha", [1e-3, 2.6e-6])
@pytest.mark.parametrize("k,n", [(0, 1), (1, 1), (0, 4000), (3, 4000), (2000, 4000),
                                 (3999, 4000), (4000, 4000), (17, 20_000)])
def test_clopper_pearson_matches_the_beta_quantiles(k, n, alpha):
    from scipy.stats import beta

    lo, hi = experiments._clopper_pearson(k, n, alpha)
    assert lo == (0.0 if k == 0 else pytest.approx(beta.ppf(alpha / 2, k, n - k + 1), rel=1e-9))
    assert hi == (1.0 if k == n else pytest.approx(beta.ppf(1 - alpha / 2, k + 1, n - k), rel=1e-9))


# Desk transient sweep (desk_scenario, hours 0-23, 10 min) as written by the
# full-window uniformization solver; solver speed-ups must keep these bytes.
GOLDEN_DESK_CSV = Path(__file__).parent / "data" / "desk_transient_sweep.csv"

# Desk steady sweep (desk_scenario, hours 0-23) as written when the steady
# solver could still choose between power, Jacobi and Gauss-Seidel sweeps.
GOLDEN_DESK_STEADY_CSV = Path(__file__).parent / "data" / "desk_steady_sweep.csv"


def test_desk_transient_sweep_matches_golden_bytes(desk_transient_sweep):
    rows, _ = desk_transient_sweep
    assert write_results_csv(rows).encode() == GOLDEN_DESK_CSV.read_bytes()


def test_desk_steady_sweep_matches_golden_bytes():
    plan = ExperimentPlan(
        variants=tuple(make_attack_variants(desk_scenario())), mode="steady"
    )
    rows = run_hourly_sweep(plan, desk_demand_profile())
    assert write_results_csv(rows).encode() == GOLDEN_DESK_STEADY_CSV.read_bytes()


# `gridlock simulate` stdout on the desk files at hours 4, 12 and 18 (10 min,
# 20 000 trials, so each run spans two chunks, seed 1), one run after another.
GOLDEN_DESK_SIMULATE = Path(__file__).parent / "data" / "desk_simulate.txt"


# `gridlock check` on the packaged reference fleet: steady at hours 4, 12
# and 18 (CSV and gnuplot), and transient at hour 18 (60 min, CSV).
GOLDEN_FULL = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv,goldens", [
    (["--mode", "steady", "--hours", "4,12,18"],
     {"--out": "full_steady_sweep.csv", "--gnuplot": "full_steady_sweep.dat"}),
    (["--hours", "18"], {"--out": "full_transient_hour18.csv"}),
], ids=["steady", "transient"])
def test_full_fleet_check_matches_golden_bytes(tmp_path, argv, goldens):
    from gridlock.cli import main

    outputs = [arg for flag, name in goldens.items() for arg in (flag, str(tmp_path / name))]
    assert main(["check", *argv, *outputs]) == 0
    for name in goldens.values():
        assert (tmp_path / name).read_bytes() == (GOLDEN_FULL / name).read_bytes(), name


# `gridlock inspect` stdout on the packaged reference fleet at hours 4 and 18.
@pytest.mark.parametrize("hour", ["4", "18"])
def test_full_fleet_inspect_matches_golden_bytes(capsys, hour):
    from gridlock.cli import main

    assert main(["inspect", "--hour", hour]) == 0
    golden = GOLDEN_FULL / f"full_inspect_hour{hour}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_desk_simulate_matches_golden_bytes(tmp_path, capsys):
    from gridlock.cli import main

    scen, dem = tmp_path / "desk.scenario", tmp_path / "desk_demand.csv"
    scen.write_text(format_scenario(desk_scenario()))
    dem.write_text(format_demand_csv(desk_demand_profile()))
    for hour in ("4", "12", "18"):
        assert main(["simulate", "--scenario", str(scen), "--demand", str(dem), "--hour", hour,
                     "--horizon", "10", "--trials", "20000", "--seed", "1"]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_DESK_SIMULATE.read_bytes()


class TestGnuplot:
    def test_blocked_output(self):
        rows = [
            ResultRow(1, "B", "transient", 0.25, 0.5, 0.25, 0.1, 5),
            ResultRow(0, "B", "transient", 0.5, 0.25, 0.25, 0.0, 5),
            ResultRow(0, "A", "transient", 0.0, 1.0, 0.0, 0.0, 5),
        ]
        text = format_gnuplot(rows)
        blocks = text.split("\n\n\n")
        assert len(blocks) == 2
        assert blocks[0].startswith("# scenario: A\n")
        assert blocks[1].startswith("# scenario: B\n")
        lines = blocks[1].splitlines()
        assert lines[2] == "0 0.500000000 0.250000000 0.250000000 0.000000000"
        assert lines[3] == "1 0.250000000 0.500000000 0.250000000 0.100000000"
        assert text.endswith("\n")


TINY_SCENARIO_TEXT = """\
[controller]
tolerance = 0.01
priority = coal,wind

[demand]
delta = 0.05
t_normal_to_low = 5m
t_low_to_normal = 1m
t_normal_to_high = 5m
t_high_to_normal = 1m

[botnet]
enabled = true
spike_fraction = 0.30
t_off_to_on = 1m
t_on_to_off = 1m

[generator coal]
capacity_mw = 50
count = 1
t_start = 2m
t_stop = 2m
t_trip = 1m
t_recover = 5m

[generator wind]
capacity_mw = 30
count = 1
t_start = 1m
t_stop = 1m
t_trip = 1m
t_recover = 5m
"""

TINY_DEMAND_TEXT = "hour,mw\n" + "".join(
    f"{h},{30 + 2 * h}\n" for h in range(24)
)


@pytest.fixture
def cli_files(tmp_path):
    scen = tmp_path / "tiny.scenario"
    scen.write_text(TINY_SCENARIO_TEXT)
    dem = tmp_path / "tiny_demand.csv"
    dem.write_text(TINY_DEMAND_TEXT)
    return scen, dem


class TestCli:
    def run(self, *argv):
        from gridlock.cli import main

        return main(list(argv))

    def test_check_writes_sorted_csv(self, cli_files, tmp_path):
        scen, dem = cli_files
        out = tmp_path / "results.csv"
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem),
            "--hours", "4,18", "--out", str(out),
        )
        assert code == 0
        records = csv.DictReader(out.read_text().splitlines())
        assert [(r["scenario"], int(r["hour"])) for r in records] == [
            ("ATTACK-C", 4),
            ("ATTACK-C", 18),
            ("ATTACK-W", 4),
            ("ATTACK-W", 18),
            ("NO-ATTACK", 4),
            ("NO-ATTACK", 18),
        ]

    def test_check_repeat_is_byte_identical(self, cli_files, tmp_path):
        scen, dem = cli_files
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["check", "--scenario", str(scen), "--demand", str(dem), "--hours", "4"]
        assert self.run(*args, "--out", str(out1)) == 0
        assert self.run(*args, "--out", str(out2), "--workers", "2") == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_check_stdout_default(self, cli_files, capsys):
        scen, dem = cli_files
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem), "--hours", "12"
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith(
            "hour,scenario,mode,p_over_supply,p_equilibrium,p_over_demand,p_blackout\n"
        )
        assert len(captured.strip().splitlines()) == 4

    def test_check_hour_ranges(self, cli_files, tmp_path):
        scen, dem = cli_files
        out = tmp_path / "r.csv"
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem),
            "--hours", "4,12-14", "--out", str(out),
        )
        assert code == 0
        hours = {int(r["hour"]) for r in csv.DictReader(out.read_text().splitlines())}
        assert hours == {4, 12, 13, 14}

    def test_check_gnuplot_export(self, cli_files, tmp_path):
        scen, dem = cli_files
        out = tmp_path / "r.csv"
        gp = tmp_path / "r.dat"
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem),
            "--hours", "4", "--out", str(out), "--gnuplot", str(gp),
        )
        assert code == 0
        text = gp.read_text()
        assert text.startswith("# scenario: ATTACK-C\n")
        assert len(text.split("\n\n\n")) == 3

    def test_missing_scenario_file_exits_1(self, cli_files, tmp_path, capsys):
        _, dem = cli_files
        code = self.run(
            "check", "--scenario", str(tmp_path / "nope.scenario"), "--demand", str(dem)
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_scenario_exits_1(self, cli_files, tmp_path, capsys):
        _, dem = cli_files
        bad = tmp_path / "bad.scenario"
        bad.write_text("[controller]\ntolerance ten\n")
        code = self.run("check", "--scenario", str(bad), "--demand", str(dem))
        assert code == 1
        assert "line" in capsys.readouterr().err

    # each bad --hours value and what its error line must name
    BAD_HOURS = {
        "25": "hour 25", "4-x": "--hours: bad entry '4-x'",
        "12-4": "--hours: bad hour range '12-4'", "": "--hours: bad entry ''",
        "4,,5": "--hours: bad entry ''", "4-": "--hours: bad entry '4-'",
        "12,12": "hour 12", "0-5,3": "hour 3",
    }

    @pytest.mark.parametrize("hours", list(BAD_HOURS))
    def test_bad_hours_exit_1(self, cli_files, capsys, hours):
        scen, dem = cli_files
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem), "--hours", hours
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert self.BAD_HOURS[hours] in captured.err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_exit_1(self, cli_files, capsys, workers):
        scen, dem = cli_files
        code = self.run("check", "--scenario", str(scen), "--demand", str(dem),
                        "--hours", "4", "--workers", workers)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: max_workers must be >= 1, got {workers}\n"

    @pytest.mark.parametrize("tty", [True, False])
    def test_check_progress_only_on_a_terminal(self, cli_files, tmp_path, monkeypatch, tty):
        class Stderr(io.StringIO):
            def isatty(self):
                return tty

        stderr = Stderr()
        monkeypatch.setattr(sys, "stderr", stderr)
        scen, dem = cli_files
        code = self.run("check", "--scenario", str(scen), "--demand", str(dem),
                        "--hours", "4,12,18", "--out", str(tmp_path / "r.csv"))
        assert code == 0
        if not tty:
            assert stderr.getvalue() == ""
            return
        lines = stderr.getvalue().splitlines()
        assert [line.split(" ", 1)[0] for line in lines] == [f"{d}/9" for d in range(1, 10)]
        assert all(re.fullmatch(r"\d/9 cells done \(\d+ s elapsed, ~\d+ s left\)", line)
                   for line in lines)

    def test_usage_error_exits_1(self, capsys):
        code = self.run("check", "--scenario")
        assert code == 1
        capsys.readouterr()

    def test_non_convergence_exits_2(self, cli_files, tmp_path, capsys):
        scen, dem = cli_files
        out = tmp_path / "r.csv"
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem),
            "--hours", "4", "--mode", "steady", "--max-iterations", "2",
            "--out", str(out),
        )
        assert code == 2
        assert "hour 4" in capsys.readouterr().err
        # partial output still written, here just the header
        assert out.read_text().startswith("hour,scenario,mode,")

    def test_infinite_tolerance_exits_1_without_nan(self, cli_files, capsys):
        scen, dem = cli_files
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem),
            "--hours", "4", "--mode", "steady", "--tolerance", "inf",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out + captured.err
        assert captured.err.startswith("error: tolerance must be in (0, 1)")

    def test_loose_transient_tolerance_exits_1_with_one_error(self, cli_files, capsys):
        scen, dem = cli_files
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem),
            "--hours", "4", "--tolerance", "0.5",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: transient mode needs tolerance <= 1e-3, got 0.5"
        ]

    @pytest.mark.parametrize(
        "kind,old,new,line",
        [
            ("scenario", "t_start = 1s", "t_start = " + "9" * 400 + "m", 29),
            ("scenario", "capacity_mw = 40", "capacity_mw = inf", 19),
            ("demand", "\n4,200\n", "\n4,inf\n", 6),
            # 1e-321 min: every trip rate of the first class is infinite
            ("scenario", "t_trip = 1s", "t_trip = 0." + "0" * 320 + "1m", 23),
            # 1e-308 min: 1/t is finite, 4/t is not
            ("scenario", "t_trip = 1s", "t_trip = 0." + "0" * 307 + "1m", 23),
        ],
        ids=["duration-overflow", "capacity-inf", "demand-inf", "rate-overflow",
             "count-rate-overflow"],
    )
    def test_non_finite_input_exits_1_with_one_error(self, tmp_path, capsys, kind, old, new, line):
        texts = {"scenario": default_scenario_text(), "demand": default_demand_text()}
        assert old in texts[kind]
        texts[kind] = texts[kind].replace(old, new, 1)
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        code = self.run("check", "--scenario", str(tmp_path / "scenario"),
                        "--demand", str(tmp_path / "demand"), "--mode", "steady", "--hours", "4")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [err] = captured.err.splitlines()
        assert err.startswith(f"error: line {line}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            # the cap lets NO-ATTACK converge and stops the attack cells
            # of a chain with infinite exit rates instead of sweeping forever
            ["check", "--mode", "steady", "--hours", "4", "--max-iterations", "5000"],
            ["check", "--hours", "4", "--horizon", "10"],
            ["simulate", "--hour", "4", "--trials", "100"],
        ],
        ids=["steady", "transient", "simulate"],
    )
    def test_exit_rate_overflow_exits_1_with_error_lines(self, tmp_path, capsys, recwarn, argv):
        # 5e-308 min: each class's count/t is finite, but a state's rates sum past it
        scen = tmp_path / "scenario"
        tiny = "t_trip = 0." + "0" * 307 + "5m"
        scen.write_text(default_scenario_text().replace("t_trip = 1s", tiny))
        code = self.run(*argv, "--scenario", str(scen))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("error: ") for line in err)
        assert all("exit rate inf, not finite" in line for line in err)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_unwritable_output_exits_1_cannot_write(self, cli_files, tmp_path, capsys):
        scen, dem = cli_files
        for option in ("--out", "--gnuplot"):
            path = tmp_path / "no" / "such" / "x.csv"
            code = self.run("check", "--scenario", str(scen), "--demand", str(dem),
                            "--hours", "4", "--mode", "steady", option, str(path))
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [f"error: cannot write {path}"]

    @pytest.mark.parametrize("command", [["check", "--hours", "4"], ["simulate", "--hour", "4"],
                                         ["inspect"]], ids=["check", "simulate", "inspect"])
    @pytest.mark.parametrize("flag", ["--scenario", "--demand"])
    def test_unreadable_input_exits_1_cannot_read(self, tmp_path, capsys, command, flag):
        code = self.run(*command, flag, str(tmp_path))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: cannot read {tmp_path}"]

    def test_check_infinite_horizon_exits_1_with_one_error(self, cli_files, capsys):
        scen, dem = cli_files
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem),
            "--hours", "4", "--horizon", "inf",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: horizon_minutes must be finite and > 0, got inf"
        ]

    def test_simulate_infinite_horizon_exits_1_with_one_error(self, monkeypatch, capsys):
        # an absorbing chain: without the horizon check the paths end and
        # the run fails on NaN occupancy instead of sampling forever
        chain = new_ctmc(
            2, [(0, 1, 1.0)], 0,
            {"overSupply": [0], "equilibrium": [1], "overDemand": [], "blackout": []},
        )
        monkeypatch.setattr("gridlock.cli.build_grid_ctmc", lambda *a, **k: chain)
        code = self.run("simulate", "--hour", "4", "--trials", "10", "--horizon", "inf")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: horizon must be finite and > 0, got inf"
        ]

    def test_program_fault_exits_1_and_names_cell(self, cli_files, monkeypatch, capsys):
        break_hour_12_attack_rows(monkeypatch)
        scen, dem = cli_files
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem), "--hours", "4,12"
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error: ATTACK-C hour 12: ValueError: " in captured.err
        assert "error: ATTACK-W hour 12: ValueError: " in captured.err
        assert len(captured.out.splitlines()) == 1 + 4

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_shared_chain_failure_names_each_cell(self, capsys, workers):
        # full hour 18: ATTACK-H and ATTACK-N share the chain whose solve fails
        code = self.run("check", "--hours", "18", "--mode", "steady",
                        "--max-iterations", "2", "--workers", workers)
        assert code == 2
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1
        err = captured.err.splitlines()
        assert [line.split(":")[1] for line in err] == [
            " ATTACK-G hour 18", " ATTACK-H hour 18", " ATTACK-N hour 18", " NO-ATTACK hour 18"
        ]
        assert err[1].split(":", 2)[2] == err[2].split(":", 2)[2]

    def test_state_space_limit_exits_3(self, cli_files, capsys):
        scen, dem = cli_files
        code = self.run(
            "inspect", "--scenario", str(scen), "--demand", str(dem),
            "--max-states", "2",
        )
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["check", "--hours", "4"], ["simulate", "--hour", "4"],
                                         ["inspect"]], ids=["check", "simulate", "inspect"])
    def test_max_states_below_1_exits_1(self, capsys, command):
        code = self.run(*command, "--max-states", "0")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: max_states must be >= 1, got 0"]

    @pytest.mark.parametrize("horizon", ["1e300", "1e308"])
    def test_horizon_too_long_to_uniformize_exits_1(self, capsys, recwarn, horizon):
        code = self.run("check", "--hours", "4", "--horizon", horizon)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4
        for line in err:
            assert re.fullmatch(r"error: [\w-]+ hour 4: t = [^ ]+ min gives Lambda\*t = \S+, "
                                r"too large for a finite Poisson window", line), line
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_simulate_output_shape(self, cli_files, capsys):
        scen, dem = cli_files
        code = self.run(
            "simulate", "--scenario", str(scen), "--demand", str(dem),
            "--hour", "18", "--trials", "200", "--seed", "3",
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        labels = [ln.split()[0] for ln in lines[2:]]
        assert labels == ["overSupply", "equilibrium", "overDemand", "blackout"]
        for ln in lines[2:]:
            parts = ln.split()
            assert len(parts) == 5
            float(parts[1]), float(parts[2]), float(parts[3]), float(parts[4])

    def test_simulate_deterministic(self, cli_files, capsys):
        scen, dem = cli_files
        args = (
            "simulate", "--scenario", str(scen), "--demand", str(dem),
            "--hour", "4", "--trials", "150", "--seed", "11",
        )
        assert self.run(*args) == 0
        first = capsys.readouterr().out
        assert self.run(*args) == 0
        assert capsys.readouterr().out == first

    def test_inspect_reports_counts(self, cli_files, capsys):
        scen, dem = cli_files
        code = self.run(
            "inspect", "--scenario", str(scen), "--demand", str(dem), "--hour", "12"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("states ")
        n_states = int(out.splitlines()[0].split()[1])
        assert n_states > 0
        assert "label blackout:" in out
        assert "transitions " in out

    def test_omitted_inputs_use_packaged_data(self, capsys):
        assert self.run("inspect", "--hour", "18") == 0
        out = capsys.readouterr().out
        # packaged reference grid: 4 serving nuclear at the peak hour
        assert "nuclear=0a/4s/0o" in out.splitlines()[-1]
