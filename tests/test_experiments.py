import csv
import hashlib
import io
import math
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gridlock import experiments, solvers
from gridlock.errors import (
    InputFileError,
    NonConvergence,
    StateSpaceLimitExceeded,
)
from gridlock.experiments import (
    DESK_COUNTS,
    DESK_DEMAND_SCALE,
    DESK_HORIZON_MINUTES,
    ExperimentPlan,
    ResultRow,
    SimulationMismatch,
    desk_demand_profile,
    desk_scenario,
    format_gnuplot,
    make_attack_variants,
    run_hourly_sweep,
)
from gridlock.cli import _exit_code, _parse_hours
from gridlock.ctmc import Ctmc, new_ctmc
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


def sweep_rows(plan, profile, **kw):
    """The sweep's rows, for a plan none of whose cells may fail."""
    rows, failures = run_hourly_sweep(plan, profile, **kw)
    assert failures == []
    return rows


def break_hour_12_attack_rows(monkeypatch):
    """Make ResultRow raise ValueError on the 6-state attack chains of the
    tiny sweep (hour 12).  Forked pool workers inherit the patch."""
    real = experiments._finish_cell

    def skewed(plan, probs, held):
        if held.states == 6:  # the chain as built; its lumped chain has 1 state
            probs = dict(probs, **{OVER_SUPPLY: probs[OVER_SUPPLY] + 0.5})
        return real(plan, probs, held)

    monkeypatch.setattr(experiments, "_finish_cell", skewed)


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
        for classes, tags in [
            (("coal", "cogen"), ["COAL", "COGEN"]),
            # upper-cased names collide too: the names as written
            (("GAS", "hydro", "gas"), ["GAS", "hydro", "gas"]),
        ]:
            collided = Scenario(
                classes=tuple(GeneratorClass(n, 50.0, 1, 2.0, 2.0, 1.0, 5.0) for n in classes),
                demand=base.demand,
                botnet=base.botnet,
                controller=Controller(classes, 0.01),
            )
            names = [name for name, _ in make_attack_variants(collided)]
            assert names == ["NO-ATTACK"] + [f"ATTACK-{t}" for t in tags]

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

    def test_rejects_repeated_variant_name(self):
        with pytest.raises(ValueError, match="duplicate variant names in"):
            ExperimentPlan(variants=(("X", tiny_scenario()), ("X", tiny_scenario(False))))

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

    @pytest.mark.parametrize("value", [np.int64(4), np.uint8(4), True, np.True_, 4.0, 2.5, math.nan, "4"],
                             ids=["int64", "uint8", "True", "np.True_", "4.0", "2.5", "nan", "text"])
    @pytest.mark.parametrize("name,make", [
        ("hour", lambda v: ExperimentPlan(variants=(("X", tiny_scenario()),), hours=(v,)).hours[0]),
        ("sim_trials", lambda v: ExperimentPlan(variants=(("X", tiny_scenario()),), sim_trials=v).sim_trials),
        ("sim_seed", lambda v: ExperimentPlan(variants=(("X", tiny_scenario()),), sim_seed=v).sim_seed),
        ("max_iterations", lambda v: SolverConfig(max_iterations=v).max_iterations),
        ("max_states", lambda v: ExperimentPlan(variants=(("X", tiny_scenario()),), max_states=v).max_states),
    ], ids=["hours", "sim_trials", "sim_seed", "max_iterations", "max_states"])
    def test_counts_are_integers(self, name, make, value):
        # a bool hour used to write a 'True' CSV row, and a float count
        # to fail every cell with a bare TypeError
        if isinstance(value, np.integer):
            stored = make(value)
            assert stored == 4 and type(stored) is int
        else:
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
                make(value)

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
        rows = sweep_rows(plan, tiny_profile())
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
        rows = sweep_rows(plan, tiny_profile())
        for r in rows:
            if r.scenario == "NO-ATTACK":
                assert r.p_blackout == 0.0

    def test_probabilities_form_distribution(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(4, 18)
        )
        for r in sweep_rows(plan, tiny_profile()):
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
        rows = sweep_rows(plan, tiny_profile())
        assert all(r.mode == "steady" for r in rows)
        for r in rows:
            assert abs(r.p_over_supply + r.p_equilibrium + r.p_over_demand - 1.0) < 1e-9

    def test_repeat_runs_are_identical(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(4, 18)
        )
        first = sweep_rows(plan, tiny_profile())
        second = sweep_rows(plan, tiny_profile())
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
        rows, failures = run_hourly_sweep(plan, tiny_profile())
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

    def test_partial_failure_keeps_good_rows(self):
        variants = tuple(make_attack_variants(tiny_scenario()))
        profile = tiny_profile()
        small = build_grid_ctmc(dict(variants)["NO-ATTACK"], profile.mw_by_hour[12])
        big = build_grid_ctmc(dict(variants)["ATTACK-C"], profile.mw_by_hour[12])
        assert small.n_states < big.n_states
        plan = ExperimentPlan(variants=variants, hours=(12,), max_states=small.n_states)
        rows, failures = run_hourly_sweep(plan, profile)
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
        rows, failures = run_hourly_sweep(plan, tiny_profile())
        assert failures == []
        assert len(rows) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shifted_solver_value_is_caught(self, monkeypatch, workers):
        real = experiments._finish_cell

        def shifted(plan, probs, held):
            p = probs[EQUILIBRIUM]
            return real(plan, dict(probs, **{EQUILIBRIUM: p + (0.05 if p < 0.5 else -0.05)}), held)

        monkeypatch.setattr(experiments, "_finish_cell", shifted)
        plan = ExperimentPlan(variants=tuple(make_attack_variants(tiny_scenario())),
                              hours=(18,), sim_trials=20_000, sim_seed=3)
        rows, failures = run_hourly_sweep(plan, tiny_profile(), max_workers=workers)
        assert rows == []
        assert len(failures) == 3
        for f in failures:
            assert isinstance(f.error, SimulationMismatch)
            # the CLI prefixes variant and hour; the message names neither
            assert str(f.error).startswith("label equilibrium: solver ")
            assert f.variant not in str(f.error) and "hour" not in str(f.error)
            # 3 cells x 4 labels share the family-wise alpha
            assert f"alpha {-math.expm1(math.log1p(-1e-3) / 12):.3g}" in str(f.error)

    def test_transient_gets_the_plan_tolerance(self, monkeypatch):
        # hour 4's chain is uniformized, in a batch of its own; hour 12's
        # starts settled
        seen = {"settle": [], "_uniformize": []}
        real_settle, real_uniformize = experiments.settle, solvers._uniformize

        def settle(chain, t, epsilon):
            seen["settle"].append(epsilon)
            return real_settle(chain, t, epsilon)

        def uniformize(pt, x, bounds, weights, lo, epsilon):
            seen["_uniformize"].append(epsilon)
            return real_uniformize(pt, x, bounds, weights, lo, epsilon)

        monkeypatch.setattr(experiments, "settle", settle)
        monkeypatch.setattr(solvers, "_uniformize", uniformize)
        plan = ExperimentPlan(
            variants=(("X", tiny_scenario()),), hours=(4, 12), solver=SolverConfig(tolerance=1e-6)
        )
        sweep_rows(plan, tiny_profile())
        assert seen == {"settle": [1e-6, 1e-6], "_uniformize": [1e-6]}

    def test_worker_pool_matches_serial(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(4, 18)
        )
        serial = sweep_rows(plan, tiny_profile(), max_workers=1)
        pooled = sweep_rows(plan, tiny_profile(), max_workers=2)
        assert write_results_csv(serial) == write_results_csv(pooled)

    @pytest.mark.parametrize("hours,workers,pools", [((4, 12), 64, [2]), ((4,), 8, [])])
    def test_no_more_pool_workers_than_cells(self, monkeypatch, hours, workers, pools):
        seen = []
        real = experiments.ProcessPoolExecutor

        def spy(max_workers):
            seen.append(max_workers)
            # start two at most, whatever the sweep asks for
            return real(min(max_workers, 2))

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", spy)
        plan = ExperimentPlan(variants=(("X", tiny_scenario()),), hours=hours)
        assert len(sweep_rows(plan, tiny_profile(), max_workers=workers)) == len(hours)
        assert seen == pools

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_nonpositive_workers_before_building(self, monkeypatch, workers):
        def no_build(*args, **kwargs):
            raise AssertionError("built a chain")

        monkeypatch.setattr(experiments, "build_grid_ctmc", no_build)
        plan = ExperimentPlan(variants=(("X", tiny_scenario()),), hours=(12,))
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            run_hourly_sweep(plan, tiny_profile(), max_workers=workers)

    @pytest.mark.parametrize("workers", [True, 2.0, 2.5, math.nan, "2"],
                             ids=["True", "2.0", "2.5", "nan", "text"])
    def test_rejects_non_integer_workers_before_building(self, monkeypatch, workers):
        # a float count used to fail in the executor with a bare TypeError,
        # and NaN to run serially
        def no_build(*args, **kwargs):
            raise AssertionError("built a chain")

        monkeypatch.setattr(experiments, "build_grid_ctmc", no_build)
        plan = ExperimentPlan(variants=(("X", tiny_scenario()),), hours=(12,))
        with pytest.raises(ValueError, match=rf"^max_workers must be an integer, got {workers!r}$"):
            run_hourly_sweep(plan, tiny_profile(), max_workers=workers)

    def test_integer_workers_of_numpy_type_run(self):
        plan = ExperimentPlan(variants=(("X", tiny_scenario()),), hours=(12,))
        rows, failures = run_hourly_sweep(plan, tiny_profile(), max_workers=np.int64(1))
        assert len(rows) == 1 and not failures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_program_fault_names_its_cell(self, monkeypatch, workers):
        break_hour_12_attack_rows(monkeypatch)
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(4, 12)
        )
        rows, failures = run_hourly_sweep(plan, tiny_profile(), max_workers=workers)
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


def shared_chain_plan(**kw):
    """Six tiny cells, ATTACK-C and ATTACK-W at hours 12-14, that all build
    one bit-identical chain although their demands differ."""
    attacks = tuple(v for v in make_attack_variants(tiny_scenario()) if v[0] != "NO-ATTACK")
    return ExperimentPlan(variants=attacks, hours=(12, 13, 14), **kw)


def log_calls(monkeypatch, tmp_path, name, record=lambda *a, **k: "", module=experiments):
    """Spy on module.<name>: each call, in this process or in a forked
    pool worker, appends record(*args) as one line to a file.  Returns a
    function that reads the lines back."""
    log = tmp_path / f"{name}.log"
    real = getattr(module, name)

    def spy(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{record(*args, **kwargs)}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return lambda: log.read_text().splitlines() if log.exists() else []


def _keyed_chain(rates=(1.0, 2.0, 3.0), initial=0, labels=None):
    return Ctmc(3, [0, 1, 2], [1, 2, 0], rates, initial, labels or {"a": [0], "b": [1, 2]})


def _int64_indexed(c):
    """The fields `_chain_key` reads of c, with int64 CSR index arrays; a
    chain of this size always gets int32 ones."""
    return SimpleNamespace(n_states=c.n_states, indptr=c.indptr.astype(np.int64),
                           indices=c.indices.astype(np.int64), data=c.data,
                           initial=c.initial, label_arrays=c.label_arrays)


class TestChainKey:
    @pytest.mark.parametrize("other", [
        _keyed_chain(rates=(1.0, 2.5, 3.0)),
        _keyed_chain(initial=1),
        _keyed_chain(labels={"a": [0, 1], "b": [2]}),
        _keyed_chain(labels={"a": [0], "c": [1, 2]}),
        _int64_indexed(_keyed_chain()),
    ], ids=["rate", "initial", "label-states", "label-name", "index-dtype"])
    def test_what_the_solvers_read_counts(self, other):
        assert experiments._chain_key(_keyed_chain()) != experiments._chain_key(other)

    @pytest.mark.parametrize("labels", [
        {"b": [2, 1, 2, 1], "a": [0, 0]},
        {"a": {0}, "b": np.array([2, 1], dtype=np.int32)},
    ], ids=["unsorted-duplicates", "set-int32"])
    def test_label_input_form_does_not_count(self, labels):
        assert experiments._chain_key(_keyed_chain()) == experiments._chain_key(_keyed_chain(labels=labels))


def fail_every_job(*_):
    raise RuntimeError("worker lost")


class Lumped(Exception):
    pass


class TestTransientLumping:
    """`settle` lumps every transient chain that its certificate does not
    certify, and no steady one."""

    @staticmethod
    def spy(monkeypatch):
        lumped = []

        def record(chain, classes):
            lumped.append(experiments._chain_key(chain))
            raise Lumped  # skips the solve; the spy has seen the chain

        monkeypatch.setattr(solvers, "_collapse", record)
        return lumped

    @pytest.mark.parametrize("variants, profile, hours, certified", [
        (make_attack_variants(desk_scenario()), desk_demand_profile(), tuple(range(24)),
         {("ATTACK-N", h) for h in range(2, 6)}
         | {("NO-ATTACK", h) for h in (*range(8), 11, 13, 14, 15, 21, 22, 23)}),
        (make_attack_variants(default_scenario()), default_demand_profile(), (4, 18),
         {("ATTACK-G", 4), ("ATTACK-N", 4), ("ATTACK-G", 18), ("ATTACK-H", 18),
          ("ATTACK-N", 18)}),
    ], ids=["desk", "full"])
    def test_every_transient_cell_is_certified_or_lumped(self, monkeypatch, variants, profile,
                                                         hours, certified):
        lumped = self.spy(monkeypatch)
        settled = []
        real = experiments.settle

        def attempt(chain, t, epsilon):
            try:
                got = real(chain, t, epsilon)
            except Lumped:
                settled.append((experiments._chain_key(chain), False))
                raise
            settled.append((experiments._chain_key(chain), True))
            return got

        monkeypatch.setattr(experiments, "settle", attempt)
        rows, failures = run_hourly_sweep(ExperimentPlan(variants=tuple(variants), hours=hours), profile)
        assert {(r.scenario, r.hour) for r in rows} == certified
        assert len(rows) + len(failures) == 4 * len(hours)
        assert all(isinstance(f.error, Lumped) for f in failures)
        # each distinct chain is attempted once, and lumped only if it fails
        keys = [key for key, _ in settled]
        assert len(set(keys)) == len(keys)
        assert sorted(lumped) == sorted(key for key, ok in settled if not ok)

    def test_full_hour_18_attack_cells_are_not_lumped(self, monkeypatch, tmp_path):
        lumped = log_calls(monkeypatch, tmp_path, "_collapse", module=solvers)
        attacks = tuple(make_attack_variants(default_scenario()))[1:]
        rows = sweep_rows(ExperimentPlan(variants=attacks, hours=(18,)), default_demand_profile())
        assert lumped() == []
        assert [(r.p_over_demand, r.p_blackout, r.state_count) for r in rows] == [(1.0, 1.0, 8190)] * 3

    def test_steady_cells_are_never_lumped(self, monkeypatch):
        lumped = self.spy(monkeypatch)
        plan = ExperimentPlan(variants=tuple(make_attack_variants(desk_scenario())), mode="steady")
        assert len(sweep_rows(plan, desk_demand_profile())) == 96
        assert lumped == []


def test_desk_sweep_settles_each_distinct_chain_in_one_pass(monkeypatch):
    # the 56 distinct chains of the 24-hour desk sweep each take one
    # `settle`, which finds the label patterns once and the settled
    # classes at most once, for its certificate and its collapse alike
    calls = []
    for name in ("settle", "_patterns", "_settled"):
        module = experiments if name == "settle" else solvers
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    plan = ExperimentPlan(variants=tuple(make_attack_variants(desk_scenario())),
                          horizon_minutes=DESK_HORIZON_MINUTES)
    assert len(sweep_rows(plan, desk_demand_profile())) == 96
    assert calls.count("settle") == calls.count("_patterns") == 56
    # the 2 chains without a change of labels need no classes
    assert calls.count("_settled") == 54
    passes = []
    for name in calls:
        if name == "settle":
            passes.append([])
        else:
            passes[-1].append(name)
    assert all(p in (["_patterns"], ["_patterns", "_settled"]) for p in passes)


class TestSharedChains:
    def test_lost_pool_job_fails_every_sharing_cell(self, monkeypatch):
        monkeypatch.setattr(experiments, "_solve_shared", fail_every_job)
        rows, failures = run_hourly_sweep(shared_chain_plan(), tiny_profile(), max_workers=2)
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
        # the shared chain starts settled: one certificate, no uniformization
        # (the pool uniformizes by transient, the serial sweep by a Batches
        # queue; both step in solvers._uniformize)
        calls = log_calls(monkeypatch, tmp_path, "settle")
        uniformized = [log_calls(monkeypatch, tmp_path, "transient"),
                       log_calls(monkeypatch, tmp_path, "_uniformize", module=solvers)]
        rows = sweep_rows(shared_chain_plan(), tiny_profile(), max_workers=workers)
        assert len(calls()) == 1
        assert [log() for log in uniformized] == [[], []]
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
            reference = sweep_rows(plan, profile)
        assert len(solves()) == 4

        calls = log_calls(monkeypatch, tmp_path, "steady_state")
        rows = sweep_rows(plan, profile, max_workers=workers)
        assert len(calls()) == 3
        assert rows == reference
        by_name = {r.scenario: r for r in rows}
        assert by_name["ATTACK-H"].state_count == by_name["ATTACK-N"].state_count == 8190

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_solve_fails_every_sharing_cell(self, monkeypatch, workers):
        def diverge(*_, **__):
            raise NonConvergence("uniformization diverged")

        # the shared chain is answered by its certificate
        monkeypatch.setattr(experiments, "settle", diverge)
        rows, failures = run_hourly_sweep(shared_chain_plan(), tiny_profile(),
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
        rows, failures = run_hourly_sweep(plan, tiny_profile(), max_workers=workers)
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
        sweep_rows(plan, tiny_profile(), max_workers=workers,
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


def test_desk_transient_sweep_with_two_workers_matches_golden_bytes():
    plan = ExperimentPlan(variants=tuple(make_attack_variants(desk_scenario())),
                          horizon_minutes=DESK_HORIZON_MINUTES)
    rows = sweep_rows(plan, desk_demand_profile(), max_workers=2)
    assert write_results_csv(rows).encode() == GOLDEN_DESK_CSV.read_bytes()


# The same sweep at 1 min, where the 54 chains left to uniformize take
# Lambda*t of about 370 each, as written when lumping refined each chain to
# its coarsest label-keeping ordinary-lumpable quotient.
GOLDEN_DESK_CSV_1MIN = Path(__file__).parent / "data" / "desk_transient_sweep_1min.csv"


@pytest.mark.parametrize("workers", [1, 2])
def test_desk_transient_sweep_at_1_min_matches_golden_bytes(workers):
    plan = ExperimentPlan(variants=tuple(make_attack_variants(desk_scenario())), horizon_minutes=1.0)
    rows = sweep_rows(plan, desk_demand_profile(), max_workers=workers)
    assert write_results_csv(rows).encode() == GOLDEN_DESK_CSV_1MIN.read_bytes()


def steps_alike(a, b):
    """Whether chains a and b step alike: equal size, start state and CSR arrays."""
    return a.n_states == b.n_states and a.initial == b.initial and all(
        np.array_equal(x, y) for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))


def spy_on_batches(monkeypatch):
    """Records each lumped chain by key, and each batch the queue steps as
    [(key, (Lambda, nonzeros of P^T), chain)] of the chains it stacks."""
    lumped, batches = {}, []
    real_settle, real_stack = experiments.settle, solvers._stack

    def settle(chain, t, epsilon):
        if isinstance(q := real_settle(chain, t, epsilon), Ctmc):
            lumped[experiments._chain_key(q)] = q
        return q

    def stack(chains):
        batches.append([(experiments._chain_key(c), solvers._slot(c), c) for c in chains])
        return real_stack(chains)

    monkeypatch.setattr(experiments, "settle", settle)
    monkeypatch.setattr(solvers, "_stack", stack)
    return lumped, batches


def test_desk_sweep_uniformizes_each_lumped_chain_once_in_equal_lambda_batches(monkeypatch):
    # 54 distinct desk chains are left to uniformize, with 5 distinct
    # Lambdas; 7 of them differ from the chain queued just before them only
    # in labels and ride its block, so 47 are stacked.  A batch is stepped
    # as soon as it holds BATCH_NNZ nonzeros, so only the last batch of
    # each Lambda may hold fewer
    lumped, batches = spy_on_batches(monkeypatch)
    handed = []  # the lumped chains each stepped batch hands back
    real_step = solvers.Batches._step

    def step(self, lam):
        got = real_step(self, lam)
        handed.append([q for (_, q), _ in got])
        return got

    def alone(*_):
        raise AssertionError("the serial sweep uniformized a chain alone")

    monkeypatch.setattr(solvers.Batches, "_step", step)
    monkeypatch.setattr(experiments, "transient", alone)
    plan = ExperimentPlan(variants=tuple(make_attack_variants(desk_scenario())),
                          horizon_minutes=DESK_HORIZON_MINUTES)
    assert len(sweep_rows(plan, desk_demand_profile())) == 96
    keys = [key for batch in batches for key, _, _ in batch]
    assert len(keys) == len(set(keys)) == 47
    assert len(lumped) == 54 and set(keys) <= set(lumped)
    assert sorted(experiments._chain_key(q) for got in handed for q in got) == sorted(lumped)
    for batch, got in zip(batches, handed, strict=True):
        stacked = [c for _, _, c in batch]
        assert all(any(q is c or steps_alike(q, c) for c in stacked) for q in got)
    short = Counter()
    for batch in batches:
        (lam,) = {lam for _, (lam, _), _ in batch}
        sizes = [nnz for _, (_, nnz), _ in batch]
        assert sum(sizes[:-1]) < solvers.BATCH_NNZ
        short[lam] += sum(sizes) < solvers.BATCH_NNZ
    assert max(short.values()) == 1
    by_lambda = Counter(lam for batch in batches for _, (lam, _), _ in batch)
    assert sorted(by_lambda.values()) == [1, 2, 3, 10, 31]


def test_a_batch_that_raises_fails_only_the_cells_waiting_on_it(monkeypatch):
    # the first batch the serial desk sweep steps raises: exactly the cells
    # whose lumped chains it stacks, or that ride one of them, fail, and
    # every other cell keeps its row
    plan = ExperimentPlan(variants=tuple(make_attack_variants(desk_scenario())),
                          horizon_minutes=DESK_HORIZON_MINUTES)
    profile = desk_demand_profile()
    reference = sweep_rows(plan, profile)
    lumped, batches = spy_on_batches(monkeypatch)
    real_uniformize = solvers._uniformize

    def uniformize(*args):
        if len(batches) == 1:
            raise RuntimeError("stepping failed")
        return real_uniformize(*args)

    monkeypatch.setattr(solvers, "_uniformize", uniformize)
    rows, failures = run_hourly_sweep(plan, profile)
    assert len(batches) > 1
    stacked = {key: c for key, _, c in batches[0]}
    ever_stacked = {key for batch in batches for key, _, _ in batch}
    riders = {key for key, q in lumped.items()
              if key not in ever_stacked and any(steps_alike(q, c) for c in stacked.values())}
    failed, rider_cells = [], []
    for name, scen in plan.variants:
        for h in plan.hours:
            q = solvers.settle(build_grid_ctmc(scen, profile.mw_by_hour[h]),
                               DESK_HORIZON_MINUTES, plan.solver.tolerance)
            key = experiments._chain_key(q) if isinstance(q, Ctmc) else None
            if key in stacked or key in riders:
                failed.append((name, h))
            if key in riders:
                rider_cells.append((name, h))
    assert rider_cells
    assert [(f.variant, f.hour) for f in failures] == sorted(failed)
    assert all(isinstance(f.error, RuntimeError) for f in failures)
    assert rows == [r for r in reference if (r.scenario, r.hour) not in failed]


def test_desk_steady_sweep_matches_golden_bytes():
    plan = ExperimentPlan(
        variants=tuple(make_attack_variants(desk_scenario())), mode="steady"
    )
    rows = sweep_rows(plan, desk_demand_profile())
    assert write_results_csv(rows).encode() == GOLDEN_DESK_STEADY_CSV.read_bytes()


# `gridlock simulate` stdout on the desk files at hours 4, 12 and 18 (10 min,
# 20 000 trials, so each run spans two chunks, seed 1), one run after another.
GOLDEN_DESK_SIMULATE = Path(__file__).parent / "data" / "desk_simulate.txt"


# `gridlock check` on the packaged reference fleet: steady at hours 4, 12
# and 18 (CSV and gnuplot), and transient at hour 18 (60 min, CSV).
GOLDEN_FULL = Path(__file__).parent / "data"


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv,goldens", [
    (["--mode", "steady", "--hours", "4,12,18"],
     {"--out": "full_steady_sweep.csv", "--gnuplot": "full_steady_sweep.dat"}),
    (["--hours", "18"], {"--out": "full_transient_hour18.csv"}),
], ids=["steady", "transient"])
def test_full_fleet_check_matches_golden_bytes(tmp_path, argv, goldens, workers):
    from gridlock.cli import main

    outputs = [arg for flag, name in goldens.items() for arg in (flag, str(tmp_path / name))]
    assert main(["check", *argv, *outputs, "--workers", workers]) == 0
    for name in goldens.values():
        assert (tmp_path / name).read_bytes() == (GOLDEN_FULL / name).read_bytes(), name


def test_desk_script_names_every_failed_cell_and_exits_1(tmp_path, monkeypatch, capsys):
    import runpy

    def diverge(*_):
        raise NonConvergence("uniformization diverged")

    monkeypatch.setattr(experiments, "_solve_or_lump", diverge)
    script = Path(__file__).parents[1] / "scripts" / "run_desk_sweep.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 96
    assert all(re.fullmatch(r"error: (NO-ATTACK|ATTACK-[NHG]) hour \d+: uniformization diverged",
                            line) for line in err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["--workers", "0"], "max_workers must be >= 1, got 0"),
    (["--horizon", "0"], "horizon_minutes must be finite and > 0, got 0.0"),
    (["--horizon", "nan"], "horizon_minutes must be finite and > 0, got nan"),
], ids=["workers-0", "horizon-0", "horizon-nan"])
def test_desk_script_rejects_bad_input_in_one_line(tmp_path, capsys, argv, message):
    import runpy

    script = Path(__file__).parents[1] / "scripts" / "run_desk_sweep.py"
    main = runpy.run_path(str(script))["main"]
    assert main(["--out-dir", str(tmp_path / "out"), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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
        "25": "--hours: hour 25 outside 0-23", "4-x": "--hours: bad entry '4-x'",
        "12-4": "--hours: bad hour range '12-4'", "": "--hours: bad entry ''",
        "4,,5": "--hours: bad entry ''", "4-": "--hours: bad entry '4-'",
        "12,12": "--hours: hour 12 given twice", "0-5,3": "--hours: hour 3 given twice",
        # expanded in full, this range would take gigabytes
        "0-100000000": "--hours: hour 24 outside 0-23",
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

    @pytest.mark.parametrize("spec,expanded", [
        ("0-100000000", list(range(25))),
        ("30-99999999,2-3", list(range(30, 55)) + [2, 3]),
        ("0-23", list(range(24))),
        ("5-7,1", [5, 6, 7, 1]),
    ])
    def test_parse_hours_expands_at_most_25_per_range(self, spec, expanded):
        assert _parse_hours(spec) == tuple(expanded)

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

    def test_tiny_transient_tolerance_solves_every_cell(self, cli_files, tmp_path):
        # 1 - 1e-17 / 4 rounds to 1.0, so the Poisson window's right end
        # comes from the upper tail; every cell solves, to the same 9 decimals
        scen, dem = cli_files
        outs = []
        for tol in ("1e-10", "1e-17"):
            out = tmp_path / f"r{tol}.csv"
            code = self.run("check", "--scenario", str(scen), "--demand", str(dem),
                            "--hours", "4,18", "--tolerance", tol, "--out", str(out))
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 7

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

    # sha256 of the CSV, as written when every transient cell was lumped
    # before any certificate ran, and of stderr, as written since lumping
    # collapses only the settled classes: the desk's three hour-0 attack
    # chains keep their Lambda as built, 369.24 a minute
    HORIZON_1E300 = {
        "desk": ("8e02fb9d51d5d6b81e9c2796206def8e05cd418d9b38da062bb692a2ed41038e",
                 "d97976995a3c17161d13f0b7f0a5c66ff015713deebf44b42c8f425f248216ca"),
        "full-hour-4": ("7396f1eb02e46d147a1274cc840fe195ca5e72b287b129d7eb9f82ac5e3a7c9b",
                        "d3d75a635e577c80876cfe56501920ad052fc9144b11ced1388807f798648f34"),
    }

    @pytest.mark.parametrize("fleet", ["desk", "full-hour-4"])
    def test_horizon_1e300_fails_and_answers_the_same_cells(self, tmp_path, capsys, fleet):
        # only cells that start settled answer, each with its own labels;
        # every other cell fails naming the Lambda*t of its lumped chain
        if fleet == "desk":
            scen, dem = tmp_path / "desk.scenario", tmp_path / "desk_demand.csv"
            scen.write_text(format_scenario(desk_scenario()))
            dem.write_text(format_demand_csv(desk_demand_profile()))
            argv = ["--scenario", str(scen), "--demand", str(dem)]
            answered = ({("ATTACK-N", h) for h in range(2, 6)}
                        | {("NO-ATTACK", h) for h in (*range(8), 11, 13, 14, 15, 21, 22, 23)})
        else:
            argv, answered = ["--hours", "4"], set()
        out = tmp_path / "out.csv"
        assert self.run("check", *argv, "--horizon", "1e300", "--out", str(out)) == 1
        err = capsys.readouterr().err
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert {(r["scenario"], int(r["hour"])) for r in rows} == answered
        assert {tuple(map(float, list(r.values())[3:])) for r in rows} <= {(1.0, 0.0, 0.0, 0.0)}
        assert len(err.splitlines()) == (96 if fleet == "desk" else 4) - len(answered)
        assert all("too large for a finite Poisson window" in line for line in err.splitlines())
        digests = tuple(hashlib.sha256(b).hexdigest() for b in (out.read_bytes(), err.encode()))
        assert digests == self.HORIZON_1E300[fleet]

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
