import time

import pytest

from gridlock.experiments import (
    DESK_HORIZON_MINUTES,
    ExperimentPlan,
    desk_demand_profile,
    desk_scenario,
    make_attack_variants,
    run_hourly_sweep,
)


@pytest.fixture(scope="session")
def desk_transient_sweep():
    """The 96-cell desk transient sweep (hours 0-23, 10 min), run once per
    session: its sorted rows and the seconds the sweep took."""
    started = time.perf_counter()
    plan = ExperimentPlan(variants=tuple(make_attack_variants(desk_scenario())),
                          horizon_minutes=DESK_HORIZON_MINUTES)
    rows = run_hourly_sweep(plan, desk_demand_profile())
    return rows, time.perf_counter() - started
