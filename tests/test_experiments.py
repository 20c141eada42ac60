from pathlib import Path

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
    SweepError,
    desk_demand_profile,
    desk_scenario,
    format_gnuplot,
    make_attack_variants,
    run_hourly_sweep,
)
from gridlock.grid import (
    Botnet,
    Controller,
    DemandProcess,
    DemandProfile,
    GeneratorClass,
    OVER_SUPPLY,
    Scenario,
    build_grid_ctmc,
)
from gridlock.scenario_io import (
    default_demand_profile,
    default_scenario,
    read_results_csv,
    write_results_csv,
)
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

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), mode="fast")

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), horizon_minutes=0.0)

    def test_rejects_sim_check_in_steady_mode(self):
        with pytest.raises(ValueError):
            ExperimentPlan(
                variants=(("X", tiny_scenario()),), mode="steady", sim_trials=100
            )

    def test_rejects_bad_trials_and_max_states(self):
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), sim_trials=0)
        with pytest.raises(ValueError):
            ExperimentPlan(variants=(("X", tiny_scenario()),), max_states=0)


class TestResultRow:
    def test_rejects_bad_probability_sum(self):
        with pytest.raises(ValueError):
            ResultRow(0, "X", "transient", 0.5, 0.5, 0.5, 0.0, 10, 1.0)

    def test_rejects_blackout_above_over_demand(self):
        with pytest.raises(ValueError):
            ResultRow(0, "X", "transient", 0.5, 0.4, 0.1, 0.2, 10, 1.0)

    def test_accepts_consistent_row(self):
        row = ResultRow(4, "X", "steady", 0.25, 0.5, 0.25, 0.1, 10, 1.0)
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

    def test_worker_pool_matches_serial(self):
        plan = ExperimentPlan(
            variants=tuple(make_attack_variants(tiny_scenario())), hours=(4, 18)
        )
        serial = run_hourly_sweep(plan, tiny_profile(), max_workers=1)
        pooled = run_hourly_sweep(plan, tiny_profile(), max_workers=2)
        assert write_results_csv(serial) == write_results_csv(pooled)

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


# Desk transient sweep (desk_scenario, hours 0-23, 10 min) as written by the
# full-window uniformization solver; solver speed-ups must keep these bytes.
GOLDEN_DESK_CSV = Path(__file__).parent / "data" / "desk_transient_sweep.csv"


def test_desk_transient_sweep_matches_golden_bytes():
    plan = ExperimentPlan(
        variants=tuple(make_attack_variants(desk_scenario())),
        horizon_minutes=DESK_HORIZON_MINUTES,
    )
    rows = run_hourly_sweep(plan, desk_demand_profile())
    assert write_results_csv(rows).encode() == GOLDEN_DESK_CSV.read_bytes()


class TestGnuplot:
    def test_blocked_output(self):
        rows = [
            ResultRow(1, "B", "transient", 0.25, 0.5, 0.25, 0.1, 5, 1.0),
            ResultRow(0, "B", "transient", 0.5, 0.25, 0.25, 0.0, 5, 1.0),
            ResultRow(0, "A", "transient", 0.0, 1.0, 0.0, 0.0, 5, 1.0),
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
        records = read_results_csv(out.read_text())
        assert [(r.scenario, r.hour) for r in records] == [
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
        hours = {r.hour for r in read_results_csv(out.read_text())}
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

    def test_bad_hours_exit_1(self, cli_files, capsys):
        scen, dem = cli_files
        code = self.run(
            "check", "--scenario", str(scen), "--demand", str(dem), "--hours", "25"
        )
        assert code == 1
        capsys.readouterr()

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

    def test_state_space_limit_exits_3(self, cli_files, capsys):
        scen, dem = cli_files
        code = self.run(
            "inspect", "--scenario", str(scen), "--demand", str(dem),
            "--max-states", "2",
        )
        assert code == 3
        capsys.readouterr()

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
