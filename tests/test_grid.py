import hashlib
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlock import InsufficientCapacity, StateSpaceLimitExceeded, grid
from gridlock.grid import (
    Botnet,
    Controller,
    DemandProcess,
    DemandProfile,
    GeneratorClass,
    Scenario,
    _layout,
    build_grid_ctmc,
    describe_state,
    initial_state,
    state_space_stats,
)
from gridlock.ctmc import new_ctmc
from gridlock.experiments import _chain_key, desk_demand_profile, desk_scenario, make_attack_variants
from gridlock.scenario_io import default_demand_profile, default_scenario
from gridlock.solvers import label_probability, steady_state, transient

from oracles import (
    GridState,
    classify,
    effective_demand,
    enabled_transitions,
    initial_grid_state,
    grid_state_ctmc,
    per_unit_ctmc,
    supply,
)

SEC = 1.0 / 60.0


def _builder_descriptions(c, scen, base):
    """`describe_state` of each state of a built chain, in index order.  The
    chain holds no state codes, so they come from the GridState reference,
    after checking that it built the same chain."""
    ref, order = grid_state_ctmc(scen, base)
    assert _chain_key(c) == _chain_key(ref)
    return [describe_state(scen, g.code()) for g in order]


def reference_fleet():
    return (
        GeneratorClass("nuclear", 40.0, 4, t_start=0.5, t_stop=40.0, t_trip=SEC),
        GeneratorClass("hydro", 20.0, 5, t_start=SEC, t_stop=SEC, t_trip=SEC, t_recover=20.0),
        GeneratorClass("gas", 10.0, 6, t_start=SEC, t_stop=0.5, t_trip=SEC),
    )


def make_scenario(priority=("nuclear", "hydro", "gas"), enabled=True):
    return Scenario(
        classes=reference_fleet(),
        demand=DemandProcess(0.05, 5.0, 1.0, 5.0, 1.0),
        botnet=Botnet(0.30, 1.0, 1.0, enabled=enabled),
        controller=Controller(priority, 0.01),
    )


@pytest.fixture
def scen():
    return make_scenario()


class TestTypes:
    def test_generator_class_validation(self):
        with pytest.raises(ValueError):
            GeneratorClass("x", 0.0, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GeneratorClass("x", 10.0, 0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            GeneratorClass("x", 10.0, 1, 1.0, 1.0, 1.0, t_recover=0.0)

    def test_demand_process_validation(self):
        with pytest.raises(ValueError):
            DemandProcess(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DemandProcess(0.05, 0.0, 1.0, 1.0, 1.0)

    def test_botnet_validation(self):
        with pytest.raises(ValueError):
            Botnet(1.5, 1.0, 1.0, True)

    def test_controller_tolerance(self):
        with pytest.raises(ValueError):
            Controller(("a",), 0.0)

    def test_scenario_priority_permutation(self):
        with pytest.raises(ValueError):
            Scenario(
                classes=reference_fleet(),
                demand=DemandProcess(0.05, 5.0, 1.0, 5.0, 1.0),
                botnet=Botnet(0.3, 1.0, 1.0, True),
                controller=Controller(("nuclear", "hydro"), 0.01),
            )

    def test_scenario_duplicate_names(self):
        g = GeneratorClass("dup", 10.0, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Scenario(
                classes=(g, g),
                demand=DemandProcess(0.05, 5.0, 1.0, 5.0, 1.0),
                botnet=Botnet(0.3, 1.0, 1.0, True),
                controller=Controller(("dup", "dup"), 0.01),
            )

    def test_demand_profile_validation(self):
        with pytest.raises(ValueError):
            DemandProfile((100.0,) * 23)
        with pytest.raises(ValueError):
            DemandProfile((100.0,) * 23 + (0.0,))

    def test_grid_state_validation(self):
        with pytest.raises(ValueError):
            GridState(((1, 0, 0),), "weird", False)
        with pytest.raises(ValueError):
            GridState(((-1, 0, 0),), "normal", False)


class TestSupplyAndDemand:
    def test_nuclear_block(self, scen):
        g = GridState(((0, 4, 0), (5, 0, 0), (6, 0, 0)), "normal", False)
        assert supply(g, scen) == 160.0

    def test_nothing_serving(self, scen):
        g = GridState(((4, 0, 0), (5, 0, 0), (6, 0, 0)), "normal", False)
        assert supply(g, scen) == 0.0

    def test_full_fleet(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (0, 6, 0)), "normal", False)
        assert supply(g, scen) == 320.0
        assert scen.total_capacity_mw == 320.0

    def test_effective_demand_normal(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (0, 6, 0)), "normal", False)
        assert effective_demand(g, scen, 300.0) == 300.0

    def test_effective_demand_high(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (0, 6, 0)), "high", False)
        assert effective_demand(g, scen, 300.0) == pytest.approx(315.0)

    def test_effective_demand_spiked(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (0, 6, 0)), "normal", True)
        assert effective_demand(g, scen, 300.0) == pytest.approx(390.0)

    def test_low_level_subtracts(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (0, 6, 0)), "low", False)
        assert effective_demand(g, scen, 300.0) == pytest.approx(285.0)


class TestClassify:
    def test_over_supply(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (0, 6, 0)), "normal", False)
        assert classify(g, scen, 300.0) == "overSupply"

    def test_equilibrium_boundary(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (2, 4, 0)), "normal", False)
        assert supply(g, scen) == 300.0
        assert classify(g, scen, 300.0) == "equilibrium"

    def test_over_demand_spike(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (0, 6, 0)), "normal", True)
        assert classify(g, scen, 300.0) == "overDemand"

    def test_partition_is_exhaustive(self, scen):
        # sweep supply levels against one demand; bands must be exclusive
        for n_gas in range(7):
            g = GridState(((0, 4, 0), (0, 5, 0), (6 - n_gas, n_gas, 0)), "normal", False)
            assert classify(g, scen, 300.0) in ("overSupply", "equilibrium", "overDemand")


class TestInitialState:
    def test_code_layout(self, scen):
        # 2 * level "normal" + botnet off, then serving 4, 5, 4 at the
        # places 30, 900 and 37800 of radices 6, 5, 5, 6, 6, 7, 7
        code = initial_state(scen, 300.0)
        assert type(code) is int and code == 2 + 4 * 30 + 5 * 900 + 4 * 37800
        g = GridState(((0, 4, 0), (0, 5, 0), (2, 4, 0)), "normal", False)
        assert GridState.decode(code, scen) == g and g.code() == code

    def test_greedy_reference(self, scen):
        g = initial_grid_state(scen, 300.0)
        assert g.counts == ((0, 4, 0), (0, 5, 0), (2, 4, 0))
        assert g.demand_level == "normal" and not g.botnet_on
        assert supply(g, scen) == 300.0

    def test_tiny_base_single_unit(self, scen):
        g = initial_grid_state(scen, 0.001)
        assert g.counts == ((3, 1, 0), (5, 0, 0), (6, 0, 0))

    def test_insufficient_capacity(self, scen):
        with pytest.raises(InsufficientCapacity):
            initial_state(scen, 321.0)

    def test_exact_capacity(self, scen):
        g = initial_grid_state(scen, 320.0)
        assert supply(g, scen) == 320.0

    @pytest.mark.parametrize("base", [float("nan"), 0.0, -5.0], ids=["nan", "zero", "negative"])
    def test_base_demand_must_be_positive(self, scen, base):
        # a chain at such a demand used to build and solve to one band
        # with probability 1
        for build in (initial_state, build_grid_ctmc):
            with pytest.raises(ValueError, match=r"^demand must be > 0, got "):
                build(scen, base)

    def test_priority_order_respected(self):
        scen = make_scenario(priority=("gas", "nuclear", "hydro"))
        g = initial_grid_state(scen, 65.0)
        # gas first: all six gas units, then one nuclear crosses 65
        assert g.counts == ((3, 1, 0), (5, 0, 0), (0, 6, 0))


def _moves_by_kind(g, scen, base):
    kinds = {"demand": [], "botnet": [], "on": [], "off": [], "trip": [], "recover": []}
    for succ, rate in enabled_transitions(g, scen, base):
        if succ.demand_level != g.demand_level:
            kinds["demand"].append((succ, rate))
        elif succ.botnet_on != g.botnet_on:
            kinds["botnet"].append((succ, rate))
        else:
            for k, (old, new) in enumerate(zip(g.counts, succ.counts)):
                if old == new:
                    continue
                da, ds, do = (n - o for n, o in zip(new, old))
                if (da, ds, do) == (-1, 1, 0):
                    kinds["on"].append((k, rate))
                elif (da, ds, do) == (1, -1, 0):
                    kinds["off"].append((k, rate))
                elif (da, ds, do) == (0, -1, 1):
                    kinds["trip"].append((k, rate))
                elif (da, ds, do) == (1, 0, -1):
                    kinds["recover"].append((k, rate))
    return kinds


class TestEnabledTransitions:
    def test_equilibrium_quiet(self, scen):
        g = initial_grid_state(scen, 300.0)
        kinds = _moves_by_kind(g, scen, 300.0)
        assert len(kinds["demand"]) == 2
        assert len(kinds["botnet"]) == 1
        assert not kinds["on"] and not kinds["off"] and not kinds["trip"]

    def test_equilibrium_quiet_without_botnet(self):
        scen = make_scenario(enabled=False)
        g = initial_grid_state(scen, 300.0)
        moves = enabled_transitions(g, scen, 300.0)
        assert len(moves) == 2
        assert {m.demand_level for m, _ in moves} == {"low", "high"}

    def test_spiked_trips_every_class(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (0, 6, 0)), "normal", True)
        kinds = _moves_by_kind(g, scen, 300.0)
        trip_rates = dict(kinds["trip"])
        assert trip_rates == {0: 4 / SEC, 1: 5 / SEC, 2: 6 / SEC}
        assert not kinds["on"]  # nothing left to start

    def test_over_supply_sheds_lowest_priority(self, scen):
        g = GridState(((0, 4, 0), (0, 5, 0), (0, 6, 0)), "normal", False)
        kinds = _moves_by_kind(g, scen, 300.0)
        assert kinds["off"] == [(2, 6 / 0.5)]

    def test_turn_off_guard_blocks_big_class(self):
        # hydro-first priority, only nuclear serving: shedding 40 MW would
        # dip below demand, so gas (10 MW, still serving) sheds instead
        scen = make_scenario(priority=("hydro", "nuclear", "gas"))
        g = GridState(((0, 4, 0), (5, 0, 0), (5, 1, 0)), "normal", False)
        assert supply(g, scen) == 170.0
        kinds = _moves_by_kind(g, scen, 155.0)
        assert kinds["off"] == [(2, 1 / 0.5)]

    def test_turn_off_skips_guard_failing_class(self):
        # last class in priority is nuclear; shedding its 40 MW would
        # undershoot, so the next class up (hydro) sheds instead
        scen = make_scenario(priority=("gas", "hydro", "nuclear"))
        g = GridState(((3, 1, 0), (2, 3, 0), (6, 0, 0)), "normal", False)
        assert supply(g, scen) == 100.0
        kinds = _moves_by_kind(g, scen, 78.0)
        assert kinds["off"] == [(1, 3 / SEC)]

    def test_turn_off_can_be_fully_blocked(self):
        scen = make_scenario(priority=("hydro", "nuclear", "gas"))
        g = GridState(((0, 4, 0), (5, 0, 0), (6, 0, 0)), "normal", False)
        # 160 supply vs 125 demand is overSupply, but dropping 40 MW
        # would undershoot: no shutdown offered
        kinds = _moves_by_kind(g, scen, 125.0)
        assert classify(g, scen, 125.0) == "overSupply"
        assert kinds["off"] == []

    def test_turn_on_highest_priority_only(self, scen):
        g = GridState(((2, 2, 0), (0, 5, 0), (2, 4, 0)), "normal", False)
        assert classify(g, scen, 300.0) == "overDemand"
        kinds = _moves_by_kind(g, scen, 300.0)
        assert kinds["on"] == [(0, 2 / 0.5)]

    def test_recovery_only_for_recoverable(self, scen):
        g = GridState(((2, 2, 0), (3, 0, 2), (4, 0, 2)), "normal", False)
        kinds = _moves_by_kind(g, scen, 300.0)
        assert kinds["recover"] == [(1, 2 / 20.0)]


class TestBuild:
    def test_reference_fleet_bound(self, scen):
        c = build_grid_ctmc(scen, 300.0)
        assert c.n_states <= 15 * 21 * 28 * 6

    def test_botnet_disabled_bound_and_no_blackout(self):
        c = build_grid_ctmc(make_scenario(enabled=False), 300.0)
        assert c.n_states <= 15 * 21 * 28 * 3
        assert c.labels["blackout"] == frozenset()

    def test_initial_label_matches_classify(self, scen):
        c = build_grid_ctmc(scen, 300.0)
        band = classify(initial_grid_state(scen, 300.0), scen, 300.0)
        assert 0 in c.labels[band]

    def test_state_cap(self, scen):
        with pytest.raises(StateSpaceLimitExceeded):
            build_grid_ctmc(scen, 300.0, max_states=50)

    def test_determinism(self, scen):
        a = build_grid_ctmc(scen, 250.0)
        b = build_grid_ctmc(scen, 250.0)
        assert _chain_key(a) == _chain_key(b)

    def test_pickle_round_trip(self, scen):
        c = build_grid_ctmc(scen, 250.0)
        assert _chain_key(pickle.loads(pickle.dumps(c))) == _chain_key(c)

    def test_insufficient_capacity_propagates(self, scen):
        with pytest.raises(InsufficientCapacity):
            build_grid_ctmc(scen, 500.0)


class TestStats:
    def test_two_state_cycle(self):
        c = new_ctmc(2, [(0, 1, 1.0), (1, 0, 2.0)], 0)
        assert state_space_stats(c) == (2, 2, {})

    def test_recount_matches(self, scen):
        # the GridState-per-successor reference walks the chain again
        c = build_grid_ctmc(scen, 280.0)
        assert state_space_stats(c) == state_space_stats(grid_state_ctmc(scen, 280.0)[0])

    def test_label_counts_partition(self, scen):
        stats = state_space_stats(build_grid_ctmc(scen, 300.0))
        bands = [stats.label_counts[k] for k in ("overSupply", "equilibrium", "overDemand")]
        assert sum(bands) == stats.n_states


class TestLumpability:
    @pytest.mark.parametrize("recover", [20.0, None])
    def test_two_unit_class_matches_per_unit_model(self, recover):
        scen = Scenario(
            classes=(GeneratorClass("hydro", 20.0, 2, SEC, SEC, SEC, recover),),
            demand=DemandProcess(0.05, 5.0, 1.0, 5.0, 1.0),
            botnet=Botnet(0.30, 1.0, 1.0, enabled=True),
            controller=Controller(("hydro",), 0.01),
        )
        lumped = build_grid_ctmc(scen, 20.0)
        explicit = per_unit_ctmc(scen, 20.0)
        assert explicit.n_states >= lumped.n_states
        for label in ("overSupply", "equilibrium", "overDemand", "blackout"):
            for dist_of in (
                lambda c: steady_state(c),
                lambda c: transient(c, 60.0),
            ):
                a = label_probability(dist_of(lumped), lumped, label)
                b = label_probability(dist_of(explicit), explicit, label)
                assert a == pytest.approx(b, abs=1e-9), label


class TestNoAttackBlackout:
    def test_blackout_impossible_without_botnet(self):
        c = build_grid_ctmc(make_scenario(enabled=False), 300.0)
        assert label_probability(steady_state(c), c, "blackout") == 0.0
        assert label_probability(transient(c, 60.0), c, "blackout") == 0.0


def _exclusivity_violations(scen, base):
    """States of the built chain with more than one turn-on or more than
    one turn-off move, and each state's per-class count triples."""
    c = build_grid_ctmc(scen, base)
    triples = np.array([[[int(n) for n in re.findall(r"\d+", part.split("=")[1])] for part in meta.split()[:-2]]
                        for meta in _builder_descriptions(c, scen, base)])
    src = np.repeat(np.arange(c.n_states), np.diff(c.indptr))
    step = triples[c.indices] - triples[src]
    bad = np.zeros(c.n_states, bool)
    for move in ((-1, 1, 0), (1, -1, 0)):  # turn-on, turn-off
        bad |= np.bincount(src[(step == move).all(-1).any(-1)], minlength=c.n_states) > 1
    return int(bad.sum()), triples


@pytest.mark.parametrize(
    "priority",
    [("nuclear", "hydro", "gas"), ("hydro", "nuclear", "gas"), ("gas", "nuclear", "hydro")],
)
def test_priority_exclusivity_and_count_conservation(priority):
    scen = make_scenario(priority=priority)
    bad, triples = _exclusivity_violations(scen, 290.0)
    assert bad == 0
    assert (triples.sum(-1) == [cls.count for cls in scen.classes]).all()


@st.composite
def small_scenarios(draw):
    n_classes = draw(st.integers(min_value=1, max_value=2))
    dur = st.floats(min_value=0.05, max_value=30.0, allow_nan=False)
    classes = []
    for i in range(n_classes):
        classes.append(
            GeneratorClass(
                name=f"c{i}",
                capacity_mw=draw(st.sampled_from([5.0, 10.0, 25.0])),
                count=draw(st.integers(min_value=1, max_value=3)),
                t_start=draw(dur),
                t_stop=draw(dur),
                t_trip=draw(dur),
                t_recover=draw(st.one_of(st.none(), dur)),
            )
        )
    names = [c.name for c in classes]
    priority = tuple(draw(st.permutations(names)))
    scen = Scenario(
        classes=tuple(classes),
        demand=DemandProcess(
            draw(st.floats(min_value=0.0, max_value=0.2)), *(draw(dur) for _ in range(4))
        ),
        botnet=Botnet(
            draw(st.floats(min_value=0.0, max_value=0.5)),
            draw(dur),
            draw(dur),
            enabled=draw(st.booleans()),
        ),
        controller=Controller(priority, draw(st.floats(min_value=0.005, max_value=0.1))),
    )
    cap = scen.total_capacity_mw
    base = draw(st.floats(min_value=cap * 0.2, max_value=cap))
    return scen, base


@settings(max_examples=30, deadline=None)
@given(small_scenarios())
def test_random_scenarios_build_clean(scen_base):
    scen, base = scen_base
    c = build_grid_ctmc(scen, base)
    stats = state_space_stats(c)
    assert (
        stats.label_counts["overSupply"]
        + stats.label_counts["equilibrium"]
        + stats.label_counts["overDemand"]
        == stats.n_states
    )
    assert _chain_key(c) == _chain_key(build_grid_ctmc(scen, base))
    if not scen.botnet.enabled:
        assert stats.label_counts["blackout"] == 0


@settings(max_examples=60, deadline=None)
@given(small_scenarios())
def test_build_matches_grid_state_reference(scen_base):
    # bit for bit: CSR arrays, labels and descriptions
    scen, base = scen_base
    c = build_grid_ctmc(scen, base)
    ref, order = grid_state_ctmc(scen, base)
    assert _chain_key(c) == _chain_key(ref)
    assert c.rate_matrix.data.tobytes() == ref.rate_matrix.data.tobytes()
    assert order[0].code() == initial_state(scen, base)
    assert [describe_state(scen, g.code()) for g in order] == [g.describe(scen) for g in order]


def _chain_digest(c, descriptions):
    """sha256 over the CSR rate arrays, the sorted label sets and the state
    descriptions."""
    h = hashlib.sha256()
    m = c.rate_matrix
    for a in (m.indptr, m.indices, m.data):
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    for name in sorted(c.labels):
        h.update(name.encode())
        h.update(np.array(sorted(c.labels[name]), dtype=np.int64).tobytes())
    h.update("\n".join(descriptions).encode())
    return h.hexdigest()


def _cell(fleet, variant, hour):
    """(scenario, base demand) of one sweep cell of the reference or desk fleet."""
    if fleet == "full":
        scen, profile = default_scenario(), default_demand_profile()
    else:
        scen, profile = desk_scenario(), desk_demand_profile()
    return dict(make_attack_variants(scen))[variant], profile.mw_by_hour[hour]


PINNED_CELLS = [("full", "ATTACK-N", 4), ("full", "ATTACK-N", 18), ("full", "NO-ATTACK", 18),
                ("desk", "ATTACK-G", 16), ("desk", "ATTACK-H", 8), ("desk", "NO-ATTACK", 12)]
DESK_CELLS = [("desk", variant, hour) for variant in ("NO-ATTACK", "ATTACK-G", "ATTACK-N", "ATTACK-H")
              for hour in range(24)]


# Digests written by the GridState-per-successor builder; a build that
# changes the discovery order, a rate bit, a label or a description fails.
@pytest.mark.parametrize(
    "fleet,variant,hour,n_states,n_trans,digest",
    [
        ("full", "ATTACK-N", 4, 17544, 88722,
         "5adbe28601f2c052389d3651617362951ab225f63140e9e22e50027b33e26936"),
        ("full", "ATTACK-N", 18, 8190, 41554,
         "a057c40ba7a6f48f3b6d79d5871d68405d459b98a40455feb91abd00cbaf5e35"),
        ("full", "NO-ATTACK", 18, 6, 11,
         "02da23c7ea57754bea699aa321bc3c9dbf1e20e3e98992850ec047a18fb8a1dc"),
        ("desk", "ATTACK-G", 16, 930, 4026,
         "6fc531f433f3bc95485444ceb347ec7faa1569fc0c0e66d7326558625993e07b"),
        ("desk", "ATTACK-H", 8, 1320, 5626,
         "16b2762c0804478de18913dbfabfa4e44e66a02076ed5464bf9e90ac567d7b32"),
        ("desk", "NO-ATTACK", 12, 3, 4,
         "d2482e6c7112f739c2954d85ca7d08406eb48b6ebd39eddecfa4ecf768464c9e"),
    ],
)
def test_build_matches_pinned_digest(fleet, variant, hour, n_states, n_trans, digest):
    scen, base = _cell(fleet, variant, hour)
    c = build_grid_ctmc(scen, base)
    stats = state_space_stats(c)
    assert (stats.n_states, stats.n_transitions) == (n_states, n_trans)
    assert _chain_digest(c, _builder_descriptions(c, scen, base)) == digest


def _counts_at(count):
    """The reference fleet's variants, every class `count` units, and the
    demand at hour 4."""
    scen = default_scenario()
    scen = replace(scen, classes=tuple(replace(g, count=count) for g in scen.classes))
    return dict(make_attack_variants(scen)), default_demand_profile().mw_by_hour[4]


# 6 * 1074**6 < 2**63 <= 6 * 1075**6: state codes of three classes of 1073
# units fit int64, and from 1074 units on they are Python ints
@pytest.mark.parametrize("count,dtype", [(1073, np.int64), (1074, object), (10**19, object)])
def test_huge_counts_build_on_python_int_codes(count, dtype):
    variants, mw = _counts_at(count)
    assert _layout([count] * 3)[0].dtype == dtype
    scen = variants["NO-ATTACK"]
    c = build_grid_ctmc(scen, mw)
    assert c.n_states == 6
    ref, order = grid_state_ctmc(scen, mw)
    assert _chain_key(c) == _chain_key(ref)
    assert [describe_state(scen, g.code()) for g in order] == [g.describe(scen) for g in order]


def test_huge_counts_hit_the_state_cap():
    variants, mw = _counts_at(10**19)
    with pytest.raises(StateSpaceLimitExceeded, match=r"^state space exceeds cap of 200000 states$"):
        build_grid_ctmc(variants["ATTACK-N"], mw, max_states=200000)


def _force_runs(monkeypatch):
    """Number every code space through the sorted runs."""
    monkeypatch.setattr(grid, "_TABLE_CODES", 0)


@pytest.mark.parametrize("fleet,variant,hour", PINNED_CELLS + DESK_CELLS)
def test_table_and_runs_build_the_same_chain(monkeypatch, fleet, variant, hour):
    scen, base = _cell(fleet, variant, hour)
    table = build_grid_ctmc(scen, base)
    _force_runs(monkeypatch)
    assert _chain_key(build_grid_ctmc(scen, base)) == _chain_key(table)


@pytest.mark.parametrize("runs", [False, True], ids=["table", "runs"])
def test_both_numberings_hit_the_cap_alike(monkeypatch, runs):
    if runs:
        _force_runs(monkeypatch)
    scen, base = _cell("full", "ATTACK-N", 18)
    with pytest.raises(StateSpaceLimitExceeded, match=r"^state space exceeds cap of 100 states$"):
        build_grid_ctmc(scen, base, max_states=100)
    assert build_grid_ctmc(scen, base, max_states=8190).n_states == 8190
    with pytest.raises(StateSpaceLimitExceeded, match=r"^state space exceeds cap of 8189 states$"):
        build_grid_ctmc(scen, base, max_states=8189)


@pytest.mark.parametrize("spare,path", [(0, "table"), (-1, "runs")])
def test_table_bound_includes_the_whole_code_space(monkeypatch, spare, path):
    # the reference fleet has 6 * (5 * 6 * 7)**2 = 264 600 codes
    def refused(*args):
        raise AssertionError("numbered through the other path")

    monkeypatch.setattr(grid, "_TABLE_CODES", 264_600 + spare)
    monkeypatch.setattr(grid, "_run_numbering" if path == "table" else "_table_numbering", refused)
    assert build_grid_ctmc(*_cell("full", "NO-ATTACK", 18)).n_states == 6


@pytest.mark.parametrize("value", [math.nan, 2.5, 100.0, True, "100"], ids=["nan", "2.5", "100.0", "True", "text"])
def test_max_states_must_be_an_integer(value):
    # NaN used to switch the cap off, and 2.5 or True to read as a cap
    scen, base = _cell("desk", "ATTACK-H", 18)
    with pytest.raises(ValueError, match=rf"^max_states must be an integer, got {value!r}$"):
        build_grid_ctmc(scen, base, max_states=value)


def test_max_states_of_numpy_integer_type_caps():
    scen, base = _cell("desk", "ATTACK-H", 18)
    with pytest.raises(StateSpaceLimitExceeded, match=r"^state space exceeds cap of 100 states$"):
        build_grid_ctmc(scen, base, max_states=np.int64(100))
