import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlock import NegativeTime, UnknownLabel, new_ctmc, sim
from gridlock.cli import REPORT_LABELS
from gridlock.experiments import desk_demand_profile, desk_scenario
from gridlock.grid import build_grid_ctmc
from gridlock.sim import (
    LabelEstimates,
    _Compiled,
    _to_unit,
    derive_trial_seed,
    estimate_label_metrics,
)
from gridlock.solvers import label_probability, transient

from oracles import Path, simulate_path, successor


@pytest.fixture
def decay():
    return new_ctmc(2, [(0, 1, 1.0)], 0, {"done": [1], "all": [0, 1]})


@pytest.fixture
def stiff_loop():
    # wide rate spread exercises both tiny and long sojourns
    return new_ctmc(
        4,
        [(0, 1, 2.0), (1, 0, 0.5), (1, 2, 60.0), (2, 3, 1.0), (3, 0, 0.25)],
        0,
        {"busy": [1, 2], "all": [0, 1, 2, 3]},
    )


class TestPath:
    def test_only_possible_shape(self, decay):
        p = simulate_path(decay, 5.0, seed=11)
        states = [s for s, _ in p.entries]
        assert states in ([0], [0, 1])
        if len(p.entries) == 2:
            assert p.entries[1][1] > 0.0

    def test_same_seed_same_path(self, stiff_loop):
        a = simulate_path(stiff_loop, 50.0, seed=99)
        b = simulate_path(stiff_loop, 50.0, seed=99)
        assert a == b

    def test_absorbing_initial(self):
        c = new_ctmc(2, [(1, 0, 1.0)], 0)
        p = simulate_path(c, 10.0, seed=3)
        assert p.entries == ((0, 0.0),)

    def test_nonpositive_horizon(self, decay):
        with pytest.raises(NegativeTime):
            simulate_path(decay, 0.0, seed=1)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon(self, decay, horizon):
        # decay absorbs after one jump, so an unchecked infinite horizon
        # returns instead of sampling forever
        with pytest.raises(NegativeTime):
            simulate_path(decay, horizon, seed=1)
        with pytest.raises(NegativeTime):
            estimate_label_metrics(decay, "done", horizon, 10, seed=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Path(((0, 0.0), (1, 0.0)), 1.0)
        with pytest.raises(ValueError):
            Path(((0, 0.5),), 1.0)


def _metrics_from_path(path, label_states, horizon):
    """Reference per-trial metrics, straight from a sampled path."""
    label_t = 0.0
    total_t = 0.0
    entries = list(path.entries) + [(None, horizon)]
    for (s, t0), (_, t1) in zip(entries, entries[1:]):
        seg = min(t1, horizon) - t0
        label_t += seg * (1.0 if s in label_states else 0.0)
        total_t += seg
    return path.final_state in label_states, label_t / total_t


def _assert_batch_matches_loop(chain, labels, horizon, trials, master):
    """Every label's estimate equals the one-path loop's, bit for bit."""
    names = (labels,) if isinstance(labels, str) else labels
    res = estimate_label_metrics(chain, labels, horizon, trials, master)
    estimates = (res,) if isinstance(labels, str) else res.estimates

    paths = [simulate_path(chain, horizon, derive_trial_seed(master, i)) for i in range(trials)]
    for name, est in zip(names, estimates, strict=True):
        states = chain.label_states(name)
        flags, occs = zip(*(_metrics_from_path(p, states, horizon) for p in paths))
        assert est.point_probability == sum(flags) / trials
        assert est.occupancy == float(np.asarray(occs).sum()) / trials


class TestBatchMatchesLoop:
    # decay absorbs in state 1, so its trials end on an absorbing state
    @pytest.mark.parametrize(
        "chain,label",
        [("stiff_loop", "busy"), ("stiff_loop", "all"), ("decay", "done"), ("decay", "all")],
        ids=["busy", "all", "decay-done", "decay-all"],
    )
    def test_bitwise_agreement(self, request, chain, label):
        _assert_batch_matches_loop(request.getfixturevalue(chain), label, 30.0, 400, 20260825)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_bitwise_agreement_on_random_chains(self, data):
        # chains with absorbing states, unreachable states and empty labels
        chain = data.draw(sim_chains())
        label = data.draw(st.sampled_from(sorted(chain.labels)))
        # horizons of about 0.5, 5 and 50 jumps keep the one-path loop fast
        jumps = data.draw(st.sampled_from([0.5, 5.0, 50.0]))
        horizon = jumps / (float(chain.exit_rates.max()) or 1.0)
        master = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
        _assert_batch_matches_loop(chain, label, horizon, 100, master)

    def test_bitwise_agreement_on_the_desk_chain(self):
        # the chain `gridlock simulate` samples for the desk preset at hour
        # 12, whose widest rows (8 transitions) take every search step
        chain = build_grid_ctmc(desk_scenario(), desk_demand_profile().mw_by_hour[12])
        assert _Compiled(chain).width == 8
        _assert_batch_matches_loop(chain, REPORT_LABELS, 2.0, 300, 20261019)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_chunk_boundaries_do_not_matter(self, monkeypatch, stiff_loop, chunk):
        # 5000 trials fill one default chunk; smaller chunks split them, so
        # compaction within a chunk must not depend on where chunks end
        labels = ("busy", "all")
        default = estimate_label_metrics(stiff_loop, labels, 3.0, 5000, 5)
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        assert estimate_label_metrics(stiff_loop, labels, 3.0, 5000, 5) == default


class TestOnePassForManyLabels:
    def test_tuple_gives_estimates_in_order(self, stiff_loop):
        res = estimate_label_metrics(stiff_loop, ("all", "busy"), 7.0, 300, seed=9)
        assert isinstance(res, LabelEstimates)
        assert (res.trials, res.seed) == (300, 9)
        assert [e.label for e in res.estimates] == ["all", "busy"]

    def test_unknown_label_in_tuple(self, decay):
        with pytest.raises(UnknownLabel):
            estimate_label_metrics(decay, ("done", "nope"), 1.0, 10, seed=0)

    def test_seed_is_reported_modulo_2_64(self, decay):
        res = estimate_label_metrics(decay, ("done",), 1.0, 10, seed=-1)
        assert res.seed == res.estimates[0].seed == 2**64 - 1

    def test_chunk_boundaries(self, stiff_loop):
        # above one chunk, so every label's row is filled chunk by chunk
        res = estimate_label_metrics(stiff_loop, ("busy", "all"), 3.0, 20_000, seed=5)
        assert res.estimates == tuple(
            estimate_label_metrics(stiff_loop, lab, 3.0, 20_000, seed=5) for lab in ("busy", "all")
        )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_tuple_equals_single_label_calls(self, data):
        # chains with absorbing states, unreachable states and empty labels;
        # every subset of the labels, in any order
        chain = data.draw(sim_chains())
        names = data.draw(st.permutations(sorted(chain.labels)))
        subset = tuple(names[: data.draw(st.integers(min_value=1, max_value=len(names)))])
        jumps = data.draw(st.sampled_from([0.5, 5.0, 50.0]))
        horizon = jumps / (float(chain.exit_rates.max()) or 1.0)
        master = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
        res = estimate_label_metrics(chain, subset, horizon, 300, master)
        assert res.trials == 300
        assert res.estimates == tuple(
            estimate_label_metrics(chain, lab, horizon, 300, master) for lab in subset
        )


def _compiled_by_loop(c):
    """_Compiled's tables built one state at a time."""
    m = c.rate_matrix
    width = 1
    while width < np.diff(m.indptr).max(initial=1):
        width *= 2
    cum_rates = np.full((c.n_states, width), np.inf)
    targets = np.empty((c.n_states, width), dtype=np.int64)
    for s in range(c.n_states):
        lo, hi = m.indptr[s], m.indptr[s + 1]
        cum_rates[s, : hi - lo] = np.cumsum(m.data[lo:hi])
        targets[s, : hi - lo] = m.indices[lo:hi]
        targets[s, hi - lo :] = m.indices[hi - 1] if hi > lo else s
    return cum_rates, targets


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_compiled_tables_match_a_per_state_loop(data):
    chain = data.draw(sim_chains())
    comp = _Compiled(chain)
    cum_rates, targets = _compiled_by_loop(chain)
    assert comp.cum_rates.tobytes() == cum_rates.tobytes()
    assert np.array_equal(comp.targets, targets)


@st.composite
def wide_chains(draw):
    """Chains with rows of 0 to 17 transitions; a rate far below the running
    sum before it repeats that sum, so rows hold equal running sums."""
    widest = draw(st.integers(min_value=1, max_value=17))
    n = widest + 1
    rate = st.sampled_from([0.25, 1.0, 3.0, 1e-20, 1e20])
    transitions = []
    for s in range(n):
        others = [t for t in range(n) if t != s]
        k = widest if s == 0 else draw(st.integers(min_value=0, max_value=widest))
        transitions += [(s, t, draw(rate)) for t in draw(st.permutations(others))[:k]]
    return new_ctmc(n, transitions, 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_successor_search_matches_the_first_exceeding_rule(data):
    chain = data.draw(wide_chains())
    src, thresholds = [], []
    for s in np.flatnonzero(np.diff(chain.indptr)):
        lo, hi = chain.indptr[s], chain.indptr[s + 1]
        cum = np.cumsum(chain.data[lo:hi])
        # every running sum (a tie), the exit rate (a unit draw of 1.0), the
        # smallest unit draw and one in between
        drawn = data.draw(st.floats(min_value=0.0, max_value=1.0))
        for threshold in (*cum, chain.exit_rates[s], 2.0**-54 * chain.exit_rates[s],
                          drawn * chain.exit_rates[s]):
            src.append(s)
            thresholds.append(threshold)
    got = _Compiled(chain).successors(np.array(src), np.array(thresholds))
    assert got.tolist() == [successor(chain, s, x) for s, x in zip(src, thresholds)]


class TestUnitDrawOfOne:
    # (2**53 - 0.5) * 2**-53 rounds up, so the largest draw maps to 1.0 and
    # the successor threshold v * E(s) equals E(s)
    def test_largest_draw_is_one(self):
        bits = np.array([0, 2**64 - 1], dtype=np.uint64)
        assert _to_unit(bits).tolist() == [2.0**-54, 1.0]

    def test_threshold_at_exit_rate_takes_the_last_transition(self):
        # state 0's row is full width and its last running sum equals E(0);
        # state 1's row is padded
        c = new_ctmc(3, [(0, 1, 0.1), (0, 2, 0.2), (1, 0, 1.0)], 0)
        comp = _Compiled(c)
        assert comp.width == 2
        src = np.array([0, 1])
        assert comp.successors(src, c.exit_rates[src]).tolist() == [2, 0]
        assert [successor(c, s, c.exit_rates[s]) for s in src] == [2, 0]

    def test_exit_rate_above_the_last_running_sum(self):
        # the exit rates are summed by scipy, not left to right, and can
        # exceed a row's last running sum
        chain = build_grid_ctmc(desk_scenario(), desk_demand_profile().mw_by_hour[12])
        comp = _Compiled(chain)
        last = comp.cum_rates[np.arange(chain.n_states), np.diff(chain.indptr) - 1]
        src = np.flatnonzero(chain.exit_rates > last)
        assert src.size
        got = comp.successors(src, chain.exit_rates[src])
        assert got.tolist() == [int(chain.indices[chain.indptr[s + 1] - 1]) for s in src]


class TestEstimates:
    def test_point_probability_matches_analytic(self, decay):
        est = estimate_label_metrics(decay, "done", 1.0, 100_000, seed=42)
        truth = 1.0 - math.exp(-1.0)
        assert abs(est.point_probability - truth) < 3 * est.point_standard_error
        assert est.point_standard_error < 0.002

    def test_full_label_occupancy_is_exactly_one(self, stiff_loop):
        est = estimate_label_metrics(stiff_loop, "all", 12.0, 500, seed=8)
        assert est.occupancy == 1.0
        assert est.occupancy_standard_error == 0.0

    def test_batch_consistency(self, decay):
        # 3-sigma coverage: allow one miss in twenty batches
        truth = 1.0 - math.exp(-1.0)
        misses = 0
        for b in range(20):
            est = estimate_label_metrics(decay, "done", 1.0, 20_000, seed=1000 + b)
            if abs(est.point_probability - truth) >= 3 * est.point_standard_error:
                misses += 1
        assert misses <= 1

    def test_matches_transient_solver(self, stiff_loop):
        est = estimate_label_metrics(stiff_loop, "busy", 7.0, 60_000, seed=77)
        truth = label_probability(transient(stiff_loop, 7.0), stiff_loop, "busy")
        assert abs(est.point_probability - truth) < 3 * est.point_standard_error

    def test_occupancy_tracks_long_run_share(self):
        c = new_ctmc(2, [(0, 1, 1.0), (1, 0, 1.0)], 0, {"up": [0]})
        est = estimate_label_metrics(c, "up", 200.0, 4_000, seed=13)
        assert abs(est.occupancy - 0.5) < 3 * est.occupancy_standard_error

    def test_unknown_label(self, decay):
        with pytest.raises(UnknownLabel):
            estimate_label_metrics(decay, "nope", 1.0, 10, seed=0)

    def test_bad_trials(self, decay):
        with pytest.raises(ValueError):
            estimate_label_metrics(decay, "done", 1.0, 0, seed=0)

    def test_single_trial(self, decay):
        est = estimate_label_metrics(decay, "done", 1.0, 1, seed=4)
        assert est.point_probability in (0.0, 1.0)
        assert est.occupancy_standard_error == 0.0


def test_mean_sojourn_is_inverse_exit_rate():
    c = new_ctmc(2, [(0, 1, 2.0), (1, 0, 2.0)], 0)
    path = simulate_path(c, 50_000.0, seed=314)
    times = np.array([t for _, t in path.entries] + [path.horizon])
    states = np.array([s for s, _ in path.entries])
    stays = np.diff(times)[:-1]  # drop the horizon-truncated stay
    in_zero = stays[states[:-1] == 0]
    assert len(in_zero) > 40_000
    se = in_zero.std(ddof=1) / math.sqrt(len(in_zero))
    assert abs(in_zero.mean() - 0.5) < 3 * se


@st.composite
def sim_chains(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    rates = [
        draw(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
        for _ in chosen
    ]
    marked = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return new_ctmc(n, [(s, t, r) for (s, t), r in zip(chosen, rates)], 0,
                    {"marked": marked, "none": [], "all": range(n)})


@settings(max_examples=50, deadline=None)
@given(sim_chains(), st.integers(min_value=0, max_value=2**64 - 1))
def test_path_invariants(chain, seed):
    p = simulate_path(chain, 5.0, seed)
    assert p.entries[0] == (chain.initial, 0.0)
    assert all(0 <= s < chain.n_states for s, _ in p.entries)
    assert all(t <= p.horizon for _, t in p.entries)
    assert p == simulate_path(chain, 5.0, seed)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_trial_seeds_spread(master):
    keys = {derive_trial_seed(master, i) for i in range(512)}
    assert len(keys) == 512
