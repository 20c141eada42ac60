import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlock import NegativeTime, UnknownLabel, new_ctmc
from gridlock.sim import LabelEstimates, _Compiled, derive_trial_seed, estimate_label_metrics
from gridlock.solvers import label_probability, transient

from oracles import Path, simulate_path


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


def _assert_batch_matches_loop(chain, label, horizon, trials, master):
    est = estimate_label_metrics(chain, label, horizon, trials, master)

    states = chain.label_states(label)
    flags, occs = [], []
    for i in range(trials):
        p = simulate_path(chain, horizon, derive_trial_seed(master, i))
        f, o = _metrics_from_path(p, states, horizon)
        flags.append(f)
        occs.append(o)
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

    def test_chunk_boundaries_do_not_matter(self, decay):
        # trials above one chunk; rerun must be identical
        a = estimate_label_metrics(decay, "done", 2.0, 20000, 5)
        b = estimate_label_metrics(decay, "done", 2.0, 20000, 5)
        assert a == b


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
    width = max(int(np.diff(m.indptr).max()), 1)
    cum_rates = np.full((c.n_states, width), np.inf)
    targets = np.full((c.n_states, width), -1, dtype=np.int64)
    for s in range(c.n_states):
        lo, hi = m.indptr[s], m.indptr[s + 1]
        cum_rates[s, : hi - lo] = np.cumsum(m.data[lo:hi])
        targets[s, : hi - lo] = m.indices[lo:hi]
    return cum_rates, targets


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_compiled_tables_match_a_per_state_loop(data):
    chain = data.draw(sim_chains())
    comp = _Compiled(chain)
    cum_rates, targets = _compiled_by_loop(chain)
    assert comp.cum_rates.tobytes() == cum_rates.tobytes()
    assert np.array_equal(comp.targets, targets)


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
