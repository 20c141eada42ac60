import math
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.special import pdtr, pdtrc
from scipy.stats import poisson

from gridlock import Ctmc, NegativeTime, NonConvergence, UnknownLabel, new_ctmc
from gridlock import solvers
from gridlock.ctmc import Distribution
from gridlock.experiments import (
    REPORT_LABELS,
    ExperimentPlan,
    _chain_key,
    desk_demand_profile,
    desk_scenario,
    make_attack_variants,
    run_hourly_sweep,
)
from gridlock.grid import build_grid_ctmc
from gridlock.scenario_io import default_demand_profile, default_scenario
from gridlock.solvers import (
    SolverConfig,
    absorption_probabilities,
    bscc_decomposition,
    label_probability,
    steady_state,
    transient,
)

from oracles import (
    dense_generator,
    exact_steady_oracle,
    exact_transient_oracle,
    residual_condition,
    steady_oracle,
    transient_oracle,
)


@pytest.fixture
def cycle():
    return new_ctmc(2, [(0, 1, 2.0), (1, 0, 1.0)], 0)


@pytest.fixture
def bipartite():
    # the jump chain alternates between state 1 and the set {0, 2}
    return new_ctmc(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.2), (2, 1, 0.3)], 0)


@pytest.fixture
def slow_unit_idle():
    # repair state unreachable from the start: a reducible chain
    return new_ctmc(3, [(0, 1, 0.50), (1, 0, 0.50), (2, 0, 0.25)], 0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-10
        assert cfg.max_iterations == 1_000_000

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, math.inf, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=tol)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)


def _lists(p):
    """The partition as lists, after checking it holds ascending int64 arrays."""
    for a in (*p.bsccs, p.transient_states):
        assert a.dtype == np.int64 and (np.diff(a) > 0).all()
    return [b.tolist() for b in p.bsccs], p.transient_states.tolist()


class TestBsccDecomposition:
    def test_cycle_is_one_bscc(self, cycle):
        assert _lists(bscc_decomposition(cycle)) == ([[0, 1]], [])

    def test_absorbing_target(self):
        p = bscc_decomposition(new_ctmc(2, [(0, 1, 1.0)], 0))
        assert _lists(p) == ([[1]], [0])

    def test_two_absorbing_targets(self):
        p = bscc_decomposition(new_ctmc(3, [(0, 1, 1.0), (0, 2, 3.0)], 0))
        assert _lists(p) == ([[1], [2]], [0])

    def test_ordering_by_smallest_member(self):
        # two 2-state cycles fed from a common source
        c = new_ctmc(
            5,
            [(0, 3, 1.0), (0, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
            0,
        )
        assert _lists(bscc_decomposition(c)) == ([[1, 2], [3, 4]], [0])

    def test_unreachable_state_with_exit_is_transient(self, slow_unit_idle):
        assert _lists(bscc_decomposition(slow_unit_idle))[1] == [2]


class TestAbsorptionProbabilities:
    def test_single_absorbing(self):
        c = new_ctmc(2, [(0, 1, 1.0)], 0)
        np.testing.assert_allclose(
            absorption_probabilities(c, bscc_decomposition(c)), [1.0]
        )

    def test_embedded_branching(self):
        c = new_ctmc(3, [(0, 1, 1.0), (0, 2, 3.0)], 0)
        got = absorption_probabilities(c, bscc_decomposition(c))
        np.testing.assert_allclose(got, [0.25, 0.75], atol=1e-9)

    def test_irreducible_is_certain(self, cycle):
        got = absorption_probabilities(cycle, bscc_decomposition(cycle))
        np.testing.assert_allclose(got, [1.0])

    def test_multi_hop_transient(self):
        # 0 -> 1 -> {2 or 3}: branch decided two jumps in
        c = new_ctmc(4, [(0, 1, 5.0), (1, 2, 1.0), (1, 3, 1.0)], 0)
        got = absorption_probabilities(c, bscc_decomposition(c))
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-9)

    def test_sums_to_one(self):
        c = new_ctmc(
            6,
            [
                (0, 1, 2.0),
                (1, 0, 1.0),
                (0, 2, 0.5),
                (1, 3, 0.25),
                (2, 4, 1.0),
                (4, 2, 1.0),
                (3, 5, 1.0),
                (5, 3, 2.0),
            ],
            0,
        )
        got = absorption_probabilities(c, bscc_decomposition(c))
        assert abs(got.sum() - 1.0) < 1e-9

    def test_iteration_cap(self):
        # 0 <-> 1 leaks slowly into two absorbing states
        c = new_ctmc(4, [(0, 1, 1.0), (1, 0, 1000.0), (1, 2, 1e-6), (1, 3, 1e-6)], 0)
        with pytest.raises(NonConvergence):
            absorption_probabilities(
                c, bscc_decomposition(c), SolverConfig(max_iterations=3)
            )

    def test_initial_state_in_a_bscc_is_one_hot_after_one_step(self):
        # cycles {1, 2} and {3, 4} fed from 0; the chain starts in the second
        c = new_ctmc(5, [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0),
                         (4, 3, 1.0)], 4)
        got = absorption_probabilities(c, bscc_decomposition(c), SolverConfig(max_iterations=1))
        assert got.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("hour", [2, 3, 4, 5])
    @pytest.mark.parametrize("variant", ["ATTACK-H", "ATTACK-G"])
    def test_matches_dense_solve_on_multi_bscc_desk_cells(self, variant, hour):
        # the desk cells with two (ATTACK-H) or five (ATTACK-G) BSCCs
        scen = dict(make_attack_variants(desk_scenario()))[variant]
        c = build_grid_ctmc(scen, desk_demand_profile().mw_by_hour[hour])
        p = bscc_decomposition(c)
        trans = p.transient_states
        assert len(p.bsccs) in (2, 5) and c.initial in trans
        # h = P_tt h + b, with b[:, i] the one-jump probability into BSCC i
        jump = c.rate_matrix[trans].toarray() / c.exit_rates[trans, None]
        b = np.column_stack([jump[:, bs].sum(axis=1) for bs in p.bsccs])
        h = np.linalg.solve(np.eye(len(trans)) - jump[:, trans], b)
        # the steps stop once the mass still missing is below the tolerance
        got = absorption_probabilities(c, p, SolverConfig(tolerance=1e-13))
        np.testing.assert_allclose(got, h[np.searchsorted(trans, c.initial)], rtol=0, atol=1e-12)

    def test_one_bscc_is_certain_without_sweeps(self):
        # three sweeps would fall far short here, one BSCC needs none
        c = new_ctmc(3, [(0, 1, 1.0), (1, 0, 1000.0), (1, 2, 1e-6)], 0)
        got = absorption_probabilities(c, bscc_decomposition(c), SolverConfig(max_iterations=1))
        assert got.tolist() == [1.0]


class TestSteadyState:
    def test_two_state_balance(self, cycle):
        pi = steady_state(cycle, SolverConfig())
        np.testing.assert_allclose(pi.probs, [1 / 3, 2 / 3], atol=1e-9)

    def test_absorbing_chain(self):
        c = new_ctmc(2, [(0, 1, 1.0)], 0)
        pi = steady_state(c, SolverConfig())
        np.testing.assert_allclose(pi.probs, [0.0, 1.0])

    def test_unreachable_repair_state(self, slow_unit_idle):
        pi = steady_state(slow_unit_idle, SolverConfig())
        np.testing.assert_allclose(pi.probs, [0.5, 0.5, 0.0], atol=1e-9)

    def test_default_config(self, cycle):
        np.testing.assert_allclose(steady_state(cycle).probs, [1 / 3, 2 / 3])

    def test_mixture_of_bsccs(self):
        # equal race into two cycles; each local solve is uniform
        c = new_ctmc(
            5,
            [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 2.0), (2, 1, 2.0), (3, 4, 5.0), (4, 3, 5.0)],
            0,
        )
        pi = steady_state(c)
        np.testing.assert_allclose(pi.probs, [0, 0.25, 0.25, 0.25, 0.25], atol=1e-9)

    def test_residual_bound(self):
        c = new_ctmc(
            4,
            [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 1200.0), (2, 0, 0.25), (2, 3, 60.0), (3, 2, 2.0)],
            0,
        )
        cfg = SolverConfig()
        pi = steady_state(c, cfg)
        from oracles import dense_generator

        residual = np.abs(pi.probs @ dense_generator(c)).max()
        assert residual < cfg.tolerance

    def test_residual_check_stays(self, cycle):
        # a vector that is not stationary fails the final balance check
        uniform = lambda c, states, cfg: np.full(len(states), 1.0 / len(states))
        with mock.patch.object(solvers, "_solve_bscc", uniform), \
                pytest.raises(NonConvergence, match=r"^steady-state residual 5\.000e-01 >= tolerance 1\.000e-10$"):
            steady_state(cycle)

    def test_residual_reads_only_the_bscc_blocks(self):
        # off the BSCCs pi is zero and pi Q sums only zeros, so the largest
        # entry of each BSCC's block gives the whole chain's residual bit
        # for bit, for the steady vector and for any other on the BSCCs
        desk, full = desk_demand_profile(), default_demand_profile()
        cells = [(scen, desk.mw_by_hour[h]) for _, scen in make_attack_variants(desk_scenario())
                 for h in range(24)]
        cells += [(scen, full.mw_by_hour[h]) for _, scen in make_attack_variants(default_scenario())
                  for h in (4, 12, 18)]
        seen = set()
        for scen, base in cells:
            c = build_grid_ctmc(scen, base)
            if _chain_key(c) in seen:
                continue
            seen.add(_chain_key(c))
            bsccs, q = bscc_decomposition(c).bsccs, c.generator_matrix()
            pi = steady_state(c).probs
            skewed = pi * (1.0 + np.arange(c.n_states) % 3)
            for x in (pi, skewed / skewed.sum()):
                assert solvers._balance_residual(c, bsccs, x) == np.abs(q.T @ x).max()
        assert len(seen) == 66  # 56 distinct desk chains, 10 full ones

    def test_nonconvergence_raised(self, bipartite):
        # the 2-state cycle's jump chain is stationary from the start, so it
        # would converge; this one's jump chain is not
        with pytest.raises(NonConvergence):
            steady_state(bipartite, SolverConfig(max_iterations=2, tolerance=1e-14))

    def test_cap_between_stationarity_tests_is_exact(self, bipartite):
        # the per-iteration power test passes first at an iteration that
        # is not a multiple of _STATIONARITY_CHECK; that cap must suffice.
        # The power method steps the jump chain with slack,
        # P = I + D^-1 Q / alpha.
        c = bipartite
        r, exits = c.rate_matrix, c.exit_rates
        jump = sp.csr_matrix((r.data / np.repeat(exits, np.diff(r.indptr)), r.indices, r.indptr),
                             shape=r.shape)
        pt, alpha = solvers._uniformized_transpose(jump, np.ones(3))
        assert alpha == solvers._UNIF_SLACK
        x = np.full(3, 1 / 3)
        for n in range(1, 1000):
            x_new = pt @ x
            x_new /= x_new.sum()
            if alpha * np.abs(x_new - x).max() < 0.5 * SolverConfig().tolerance * (x / exits).sum():
                break
            x = x_new
        assert n > solvers._STATIONARITY_CHECK and n % solvers._STATIONARITY_CHECK
        pi = steady_state(c, SolverConfig(max_iterations=n))
        np.testing.assert_allclose(pi.probs, steady_oracle(c), atol=1e-10)
        with pytest.raises(NonConvergence, match=f"{n - 1}-iteration cap"):
            steady_state(c, SolverConfig(max_iterations=n - 1))


class TestStiffSteadyState:
    """Steady solves of stiff grid chains: steps, size and accuracy."""

    @staticmethod
    def _attack_n(base, hour):
        scen = dict(make_attack_variants(base))["ATTACK-N"]
        return build_grid_ctmc(scen, default_demand_profile().mw_by_hour[hour])

    def test_full_hour_18_attack_bscc_within_128_steps(self):
        c = self._attack_n(default_scenario(), 18)
        (bscc,) = bscc_decomposition(c).bsccs
        assert len(bscc) == 126
        assert c.exit_rates[bscc].max() / c.exit_rates[bscc].min() > 200
        pi = steady_state(c, SolverConfig(max_iterations=128))
        assert np.abs(c.generator_matrix().T @ pi.probs).max() < SolverConfig().tolerance

    def test_52920_state_bscc(self):
        # every t_recover = 20 min makes every state recurrent
        base = default_scenario()
        c = self._attack_n(replace(base, classes=tuple(replace(g, t_recover=20.0)
                                                       for g in base.classes)), 18)
        assert [len(b) for b in bscc_decomposition(c).bsccs] == [52920]
        pi = steady_state(c)
        assert np.abs(c.generator_matrix().T @ pi.probs).max() < 1e-10

    @pytest.mark.parametrize("fleet", ["full", "desk"])
    def test_no_attack_cells_within_1e_10_of_exact(self, fleet):
        scen, profile = ((default_scenario(), default_demand_profile()) if fleet == "full"
                         else (desk_scenario(), desk_demand_profile()))
        variants = make_attack_variants(scen)[:1]
        rows, failures = run_hourly_sweep(ExperimentPlan(variants, mode="steady"), profile)
        assert failures == [] and len(rows) == 24
        for row in rows:
            c = build_grid_ctmc(variants[0][1], profile.mw_by_hour[row.hour])
            pi = exact_steady_oracle(c)
            got = (row.p_over_supply, row.p_equilibrium, row.p_over_demand, row.p_blackout)
            for label, value in zip(REPORT_LABELS, got):
                want = sum((pi[s] for s in c.label_states(label).tolist()), Fraction(0))
                assert abs(value - float(want)) < 1e-10, (row.hour, label, value, want)


class TestTransient:
    def test_analytic_one_jump(self):
        c = new_ctmc(2, [(0, 1, 1.0)], 0)
        pi = transient(c, 1.0)
        assert pi.probs[1] == pytest.approx(0.632121, abs=1e-6)

    def test_zero_time_is_point_mass(self, cycle):
        pi = transient(cycle, 0.0)
        np.testing.assert_allclose(pi.probs, [1.0, 0.0])

    def test_symmetric_cycle_limit(self):
        c = new_ctmc(2, [(0, 1, 1.0), (1, 0, 1.0)], 0)
        pi = transient(c, 20.0)
        np.testing.assert_allclose(pi.probs, [0.5, 0.5], atol=1e-6)

    def test_negative_time_rejected(self, cycle):
        with pytest.raises(NegativeTime):
            transient(cycle, -1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, cycle, t):
        with pytest.raises(NegativeTime):
            transient(cycle, t)

    @pytest.mark.parametrize("eps", [0.0, -1e-6, 1e-2])
    def test_epsilon_domain(self, cycle, eps):
        with pytest.raises(ValueError):
            transient(cycle, 1.0, epsilon=eps)

    def test_all_absorbing_chain(self):
        c = new_ctmc(2, {}, 1)
        pi = transient(c, 5.0)
        np.testing.assert_allclose(pi.probs, [0.0, 1.0])

    def test_large_lambda_t_left_truncation(self):
        # rates around 1200/min push the window's left edge far from 0
        c = new_ctmc(2, [(0, 1, 1200.0), (1, 0, 1200.0)], 0)
        pi = transient(c, 60.0)
        np.testing.assert_allclose(pi.probs, [0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("eps", [1e-3, 1e-10])
    @pytest.mark.parametrize("mu", [24.9, 25.0, 25.1])
    def test_one_window_rule_around_lambda_t_25(self, mu, eps):
        # at epsilon = 1e-10 the window's left edge leaves 0 near Lambda*t =
        # 24.4; on a pure-birth line x P^k moves on with every jump, so the
        # Poisson mass the window drops shows in the result (about epsilon/3)
        c = new_ctmc(80, [(i, i + 1, 1.0) for i in range(79)], 0)
        t = mu / (solvers._UNIF_SLACK * c.exit_rates.max())
        assert tv(transient(c, t, eps).probs, transient_oracle(c, t)) <= eps

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-10])
    @pytest.mark.parametrize("rate", [0.05, 2.0, 24.5, 1000.0, 54000.0])
    def test_window_matches_scipy_stats(self, window, rate, eps):
        # the window and its weights equal scipy.stats' Poisson ppf and
        # pmf, bit for bit, at the tolerances the benchmarks and goldens use
        c = new_ctmc(2, [(0, 1, rate), (1, 0, rate)], 0)
        transient(c, 1.0, eps)
        mu = float(solvers._uniformized_transpose(c.rate_matrix, c.exit_rates)[1])
        lo, weights = window[-1]
        assert lo == poisson.ppf(eps / 4, mu)
        assert lo + len(weights) - 1 == poisson.ppf(1 - eps / 4, mu)
        assert weights.tobytes() == poisson.pmf(np.arange(lo, lo + len(weights)), mu).tobytes()

    @pytest.mark.parametrize("rate", [2.0, 3650.0])
    def test_tiny_epsilon_has_a_finite_window(self, window, rate):
        # 1 - 1e-17 / 4 rounds to 1.0, so a right end taken from the lower
        # tail is infinite; the upper tail gives the smallest hi with
        # P(N > hi) <= eps / 4
        eps, c = 1e-17, new_ctmc(2, [(0, 1, rate), (1, 0, rate)], 0)
        got = transient(c, 1.0, eps).probs
        mu = float(solvers._uniformized_transpose(c.rate_matrix, c.exit_rates)[1])
        lo, weights = window[-1]
        hi = lo + len(weights) - 1
        assert (lo == 0 or pdtr(lo - 1, mu) < eps / 4) and eps / 4 <= pdtr(lo, mu)
        assert pdtrc(hi, mu) <= eps / 4 < pdtrc(hi - 1, mu)
        np.testing.assert_allclose(got, transient_oracle(c, 1.0), atol=1e-9)

    def test_matches_oracle_on_stiff_chain(self):
        c = new_ctmc(
            3, [(0, 1, 0.50), (1, 0, 0.50), (1, 2, 1200.0), (2, 0, 0.25)], 0
        )
        for t in (0.1, 1.0, 7.5):
            got = transient(c, t).probs
            np.testing.assert_allclose(got, transient_oracle(c, t), atol=1e-7)


def full_window_transient(c, t, epsilon=1e-10):
    """Uniformization over the whole two-sided Poisson window (Lambda*t >
    25) with dense P: the solver as it was before the stationarity stop,
    kept as a reference."""
    lam = 1.02 * c.exit_rates.max()
    mu = lam * t
    lo = int(poisson.ppf(epsilon / 2, mu))
    hi = int(poisson.ppf(1 - epsilon / 2, mu))
    p = np.eye(c.n_states) + dense_generator(c) / lam
    x = np.zeros(c.n_states)
    x[c.initial] = 1.0
    out = np.zeros(c.n_states)
    for k in range(hi + 1):
        if k >= lo:
            out += poisson.pmf(k, mu) * x
        x = x @ p
    return out / out.sum()


@pytest.fixture
def steps(monkeypatch):
    """Records (steps taken, right window edge) of each uniformized chain."""
    calls = []
    inner = solvers._uniformize

    def spy(pt, x, bounds, weights, lo, epsilon):
        sums, ks = inner(pt, x, bounds, weights, lo, epsilon)
        calls.extend((k, lo + len(weights) - 1) for k in ks)
        return sums, ks

    monkeypatch.setattr(solvers, "_uniformize", spy)
    return calls


@pytest.fixture
def window(monkeypatch):
    """Records (lo, weights) of each uniformized batch."""
    calls = []
    inner = solvers._uniformize

    def spy(pt, x, bounds, weights, lo, epsilon):
        calls.append((lo, weights))
        return inner(pt, x, bounds, weights, lo, epsilon)

    monkeypatch.setattr(solvers, "_uniformize", spy)
    return calls


def tv(a, b):
    return 0.5 * np.abs(a - b).sum()


class TestStationarityStop:
    EPS = 1e-10

    def test_stiff_single_bscc_stops_early(self, steps):
        # trip-like 1200/min exit next to 2-5/min repairs: one BSCC that
        # settles within a fifth of the Poisson window
        c = new_ctmc(3, [(0, 1, 5.0), (1, 0, 5.0), (1, 2, 1200.0), (2, 0, 2.0)], 0)
        got = transient(c, 20.0, self.EPS).probs
        (k, hi), = steps
        assert k < hi / 2
        assert tv(got, transient_oracle(c, 20.0)) <= self.EPS

    def test_two_bsccs_stop_early(self, steps):
        # state 0 splits its mass between the BSCCs {1, 3} and {2, 4}
        c = new_ctmc(
            5,
            [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 500.0), (3, 1, 300.0),
             (2, 4, 800.0), (4, 2, 100.0)],
            0,
        )
        got = transient(c, 30.0, self.EPS).probs
        (k, hi), = steps
        assert k < hi / 2
        assert tv(got, transient_oracle(c, 30.0)) <= self.EPS
        assert got[[1, 3]].sum() == pytest.approx(1 / 3, abs=1e-9)

    def test_slow_mixing_chain_runs_full_window(self, steps):
        # the 0 <-> 1 exchange at 0.01/min is far from settled after 10 min
        c = new_ctmc(3, [(0, 1, 0.01), (1, 0, 0.01), (1, 2, 100.0), (2, 1, 100.0)], 0)
        got = transient(c, 10.0, self.EPS).probs
        (k, hi), = steps
        assert k == hi
        assert tv(got, full_window_transient(c, 10.0, self.EPS)) <= self.EPS

    @pytest.mark.parametrize("t", [0.05, 5.0, 20.0])
    def test_in_place_steps_match_allocating_loop_bitwise(self, t):
        # 0.05 min runs the whole window from step 0; 5 min stops inside
        # the window and 20 min before its left edge
        c = new_ctmc(4, [(0, 1, 5.0), (1, 0, 5.0), (1, 2, 120.0), (2, 0, 2.0), (2, 3, 1.0),
                         (3, 2, 3.0)], 0)
        pt, lam = solvers._uniformized_transpose(c.rate_matrix, c.exit_rates)
        mu = lam * t
        lo = int(poisson.ppf(self.EPS / 4, mu))
        weights = poisson.pmf(np.arange(lo, int(poisson.ppf(1 - self.EPS / 4, mu)) + 1), mu)
        hi = lo + len(weights) - 1
        x0 = np.zeros(4)
        x0[0] = 1.0
        (got,), (got_k,) = solvers._uniformize(pt, x0, np.array([0, 4]), weights, lo, self.EPS)
        assert x0.tolist() == [1.0, 0.0, 0.0, 0.0]

        x, want, want_k = x0, np.zeros(4), hi
        for k in range(hi):
            if k >= lo:
                want += weights[k - lo] * x
            x_next = pt @ x
            if (k + 1) % solvers._STATIONARITY_CHECK == 0:
                if float(np.abs(x_next - x).sum()) * (hi - k) <= self.EPS:
                    want += weights[max(k + 1 - lo, 0):].sum() * x_next
                    want_k = k + 1
                    break
            x = x_next
        else:
            want += weights[-1] * x
        assert got_k == want_k
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_step_kernel_equals_matmul_bitwise(self, index_dtype):
        # pins the private scipy kernel behind solvers._step
        rng = np.random.default_rng(7)
        pt = sp.random(300, 300, density=0.05, format="csr", random_state=rng)
        pt.indptr, pt.indices = pt.indptr.astype(index_dtype), pt.indices.astype(index_dtype)
        x = rng.random(300) * 10.0 ** rng.integers(-12, 3, 300)
        out = np.full(300, np.nan)
        assert solvers._step(pt, x, out) is out
        assert pt.indices.dtype == index_dtype
        assert np.array_equal(out, pt @ x)

    @pytest.mark.parametrize(
        "transitions",
        [
            [(0, 1, 2.0), (1, 0, 1.0)],
            [(0, 1, 0.50), (1, 0, 0.50), (2, 0, 0.25)],
            [(0, 1, 0.50), (1, 0, 0.50), (1, 2, 1200.0), (2, 0, 0.25)],
            [(0, 1, 3.0), (0, 2, 1.0 / 3.0)],
        ],
    )
    def test_uniformized_matrix_is_bitwise_i_plus_q_over_lambda(self, transitions):
        n = 1 + max(max(s, d) for s, d, _ in transitions)
        c = new_ctmc(n, transitions, 0)
        lam = 1.02 * c.exit_rates.max()
        want = (sp.eye(n) + c.generator_matrix() / lam).T.tocsr()
        got, got_lam = solvers._uniformized_transpose(c.rate_matrix, c.exit_rates)
        assert got_lam == lam
        assert got.shape == want.shape
        assert np.array_equal(got.toarray(), want.toarray())


def settled(c):
    """c's settled classes and unsettled states."""
    pattern = solvers._patterns(c)
    return solvers._settled(c, pattern, solvers._change_sources(c, pattern))


def lump(c):
    """c with each settled class collapsed into one absorbing state."""
    return solvers._collapse(c, settled(c).bsccs)


def cert_threshold(c, epsilon):
    """The horizon below which no unsettled state's exit rate clears the
    certificate's iteration rate theta, so `settle` cannot certify."""
    unsettled = c.exit_rates[settled(c).transient_states]
    return solvers._CERT_RATIO**2 * math.log(2 / epsilon) / unsettled.min()


@pytest.fixture
def spmvs(monkeypatch):
    """Records each `_step` call: the certificate's iterations and the
    absorption solve's jumps."""
    calls = []
    inner = solvers._step
    monkeypatch.setattr(solvers, "_step", lambda *a: calls.append(1) or inner(*a))
    return calls


def label_error(got, c, t):
    """The largest difference of a label's probability from the 50-digit oracle."""
    exact = exact_transient_oracle(c, t)
    return max(abs(got[name] - exact[states].sum()) for name, states in c.label_arrays.items())


class TestAbsorbedExit:
    """`settle`, the certificate that a chain has settled by t, and the
    lumped chain where it fails."""

    EPS = 1e-10

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_full_hour_18_attack_cells_take_no_step(self, spmvs, variant):
        # on the chain as built, the 126-state blackout BSCC lies inside
        # one settled class of 7 434 states, and 32 iterations certify it
        _, scen = make_attack_variants(default_scenario())[variant]
        c = build_grid_ctmc(scen, default_demand_profile().mw_by_hour[18])
        got = solvers.settle(c, 60.0, self.EPS)
        assert len(spmvs) == 32
        assert got == {"overSupply": 0.0, "equilibrium": 0.0, "overDemand": 1.0, "blackout": 1.0}
        (blackout,) = settled(c).bsccs
        (bscc,) = bscc_decomposition(c).bsccs
        assert len(blackout) == 7434 and np.isin(bscc, blackout).all()
        assert np.isin(blackout, c.label_states("blackout")).all()

    def test_full_attack_h_hour_4_falls_back_within_the_budget_stop(self, spmvs):
        # unsaturated: P(T > 60 min) is far above 5e-11, so g(initial)
        # leaves the budget after a few dozen iterations, far below the
        # window's hi of 56 753
        scen = dict(make_attack_variants(default_scenario()))["ATTACK-H"]
        c = build_grid_ctmc(scen, default_demand_profile().mw_by_hour[4])
        assert cert_threshold(c, self.EPS) < 60.0  # every exit rate clears theta
        assert isinstance(solvers.settle(c, 60.0, self.EPS), Ctmc)
        assert 0 < len(spmvs) < 200

    def test_non_singleton_bscc_falls_back(self, spmvs):
        # 0 feeds the closed pair {1, 2}: settled while the pair keeps one
        # label pattern; with a change inside it no state is settled, and
        # the attempt gives up before iterating
        rates = [(0, 1, 50.0), (1, 2, 40.0), (2, 1, 30.0)]
        pure = new_ctmc(3, rates, 0, {"start": [0]})
        assert solvers.settle(pure, 10.0, self.EPS) == {"start": 0.0}
        assert label_error({"start": 0.0}, pure, 10.0) <= self.EPS
        spmvs.clear()
        mixed = new_ctmc(3, rates, 0, {"start": [0], "one": [1]})
        assert settled(mixed).bsccs == ()
        assert isinstance(solvers.settle(mixed, 10.0, self.EPS), Ctmc)
        assert spmvs == []  # rejected before the first iteration

    def test_exit_fires_past_the_threshold_only(self, spmvs):
        c = new_ctmc(4, [(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0), (1, 3, 4.0)], 0,
                     {"two": [2], "three": [3]})
        t = cert_threshold(c, self.EPS)
        assert isinstance(solvers.settle(c, 0.99 * t, self.EPS), Ctmc)
        assert spmvs == []
        for horizon in (2 * t, 4 * t):
            got = solvers.settle(c, horizon, self.EPS)
            assert label_error(got, c, horizon) <= self.EPS

    def test_overflowing_iterates_do_not_warn(self):
        # the pair {1, 2}, unreachable from 0, leaks so slowly that g grows
        # about 1000-fold a step there and overflows; the attempt still
        # certifies 0's fast settling, and nothing warns
        t = 60.0
        theta = solvers._CERT_RATIO**2 * math.log(2 / self.EPS) / t
        a = 1.001 * theta
        c = new_ctmc(4, [(0, 3, 100.0), (1, 2, a), (2, 1, a), (2, 3, 1e-9)], 0, {"done": [3]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solvers.settle(c, t, self.EPS) == {"done": 1.0}

    def test_absorption_cap_falls_back(self, monkeypatch):
        # two classes; an absorption solve held to one jump hits its cap,
        # and the attempt gives up instead of raising NonConvergence
        c = new_ctmc(4, [(0, 1, 5.0), (1, 0, 5.0), (0, 2, 1.0), (1, 3, 2.0)], 0,
                     {"a": [2], "b": [3]})
        t = 4 * cert_threshold(c, self.EPS)
        inner = solvers.absorption_probabilities
        monkeypatch.setattr(solvers, "absorption_probabilities",
                            lambda c, p, cfg: inner(c, p, replace(cfg, max_iterations=1)))
        assert isinstance(solvers.settle(c, t, self.EPS), Ctmc)
        # unheld, the same chain is certified
        monkeypatch.setattr(solvers, "absorption_probabilities", inner)
        assert label_error(solvers.settle(c, t, self.EPS), c, t) <= self.EPS

    def test_a_settled_start_needs_no_window(self, spmvs):
        # no Lambda*t is too large for a chain that starts settled, nor for
        # t = 0; an unsettled start past the Poisson window (Lambda*t =
        # 5.1e12) is left to `transient`, which raises NegativeTime, though
        # one iteration would certify it
        def chain(start):
            return new_ctmc(4, [(0, 1, 5.0), (1, 0, 5.0), (2, 0, 1.0), (3, 0, 1.0)], start,
                            {"pair": [0, 1], "three": [3]})

        assert solvers.settle(chain(0), 1e300, self.EPS) == {"pair": 1.0, "three": 0.0}
        assert solvers.settle(chain(3), 0.0, self.EPS) == {"pair": 0.0, "three": 1.0}
        # nor any exit rate: the unsettled 2 and 3 leave at rate 1, below
        # theta = 3.7 at 10 min
        assert solvers.settle(chain(0), 10.0, self.EPS) == {"pair": 1.0, "three": 0.0}
        assert spmvs == []
        assert isinstance(solvers.settle(chain(3), 1e12, self.EPS), Ctmc)
        with pytest.raises(NegativeTime, match="too large for a finite Poisson window"):
            transient(solvers.settle(chain(3), 1e12, self.EPS), 1e12, self.EPS)

    def test_fast_loop_with_a_slow_exit_falls_back(self):
        # every exit rate clears theta, but the pair {0, 1} leaves for the
        # settled state 2 only from 1, once in 28 visits: P(T > 60 min) is
        # 2.0e-3, and g, which grows while e^(theta T) has no finite mean,
        # must not certify merely by satisfying E g >= R g
        c = new_ctmc(3, [(0, 1, 3.0), (1, 0, 25.0), (1, 2, 1.0)], 0, {"done": [2]})
        assert cert_threshold(c, self.EPS) < 60.0
        assert transient_oracle(c, 60.0)[:2].sum() > 1e-3
        assert isinstance(solvers.settle(c, 60.0, self.EPS), Ctmc)

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, t):
        with pytest.raises(NegativeTime):
            solvers.settle(new_ctmc(2, [(0, 1, 1.0)], 0), t, self.EPS)


class TestLabelProbability:
    def test_single_state_label(self):
        c = new_ctmc(3, [(0, 1, 1.0)], 0, {"tail": [2]})
        d = Distribution(np.array([0.2, 0.3, 0.5]))
        assert label_probability(d, c, "tail") == 0.5

    def test_empty_label(self):
        c = new_ctmc(2, [(0, 1, 1.0)], 0, {"none": []})
        d = Distribution(np.array([0.4, 0.6]))
        assert label_probability(d, c, "none") == 0.0

    def test_full_label(self):
        c = new_ctmc(2, [(0, 1, 1.0)], 0, {"all": [0, 1]})
        d = Distribution(np.array([0.4, 0.6]))
        assert label_probability(d, c, "all") == pytest.approx(1.0, abs=1e-12)

    def test_unknown_label(self):
        c = new_ctmc(2, [(0, 1, 1.0)], 0)
        with pytest.raises(UnknownLabel):
            label_probability(Distribution(np.array([1.0, 0.0])), c, "x")


class TestLump:
    """`_collapse` merges each settled class into one absorbing state."""

    # states 1 and 2 enter the labelled state 0 at the same rate, state 3
    # at another
    STAR = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 0, 3.0), (2, 0, 3.0), (3, 0, 5.0)]

    def test_a_closed_label_pure_class_becomes_one_absorbing_state(self):
        # 1 enters the x-cycle {0, 3} and the y-pair {2, 4}, which 2 leaves
        # for 4 alone
        c = new_ctmc(5, [(1, 0, 2.0), (1, 3, 1.0), (0, 3, 5.0), (3, 0, 4.0), (1, 2, 1.5),
                         (2, 4, 3.0)], 1, {"x": [0, 3], "y": [2, 4]})
        q = lump(c)
        # blocks {0, 3}, {1}, {2, 4}, numbered by smallest member
        assert q.n_states == 3 and q.initial == 1
        assert dict(q.transitions) == {(1, 0): 3.0, (1, 2): 1.5}
        assert {k: v.tolist() for k, v in q.label_arrays.items()} == {"x": [0], "y": [2]}

    def test_rates_add_in_ascending_order(self):
        # 1 and 2 send 0.1, 0.2 and 0.3 into the t-cycle {3, 4, 5} in
        # opposite target order, and their sum depends on the order
        rates = [0.1, 0.2, 0.3]
        ascending, descending = (np.add.reduceat(np.array(r), [0])[0] for r in (rates, rates[::-1]))
        assert ascending != descending
        c = new_ctmc(6, [(0, 1, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0)]
                     + [(1, 3 + i, r) for i, r in enumerate(rates)]
                     + [(2, 5 - i, r) for i, r in enumerate(rates)], 0, {"x": [0], "t": [3, 4, 5]})
        q = lump(c)
        assert q.n_states == 4
        assert q.transitions[(1, 3)] == q.transitions[(2, 3)] == ascending

    def test_unsettled_states_with_equal_rates_stay_apart(self):
        # 1 and 2 are ordinary-lumpable, but every state reaches a change
        # of labels, so none is settled
        c = new_ctmc(4, self.STAR, 3, {"x": [0]})
        assert lump(c) is c

    def test_a_label_keeps_states_apart(self):
        # two absorbing states merge only where they carry the same labels
        arms = [(0, 1, 1.0), (0, 2, 2.0)]
        q = lump(new_ctmc(3, arms, 0, {"x": [1, 2]}))
        assert (q.n_states, dict(q.transitions)) == (2, {(0, 1): 3.0})
        c = new_ctmc(3, arms, 0, {"x": [1, 2], "y": [2]})
        assert lump(c) is c

    def test_a_chain_without_transitions_lumps_by_labels(self):
        q = lump(new_ctmc(4, [], 3, {"x": [1, 2]}))
        assert (q.n_states, q.initial, q.label_arrays["x"].tolist()) == (2, 0, [1])

    def test_nothing_to_merge_gives_the_same_chain(self):
        c = build_grid_ctmc(make_attack_variants(default_scenario())[0][1],
                            default_demand_profile().mw_by_hour[18])
        assert lump(c) is c

    # (variant, hour): the chain's size as built and lumped, and the
    # lumped chain's `_chain_key`, as the coarsest label-keeping
    # ordinary-lumpable quotient gave them
    FULL = {
        ("ATTACK-N", 18): ((8190, 41554), (757, 3850),
                           "887d6d48d6fc190877b94e4501f1f1efbcba35f5a5fc0c1fba71ca6970c3c403"),
        ("ATTACK-H", 3): ((21120, 106067), (13561, 68834),
                          "fb125c0a32cd15d2f932e7266683381de56297f4b3f522dc2ae0777ab04a3ed8"),
        ("ATTACK-H", 4): ((21072, 105550), (14773, 74866),
                          "feb5a0fae384ff9a9e2ed4f94c4d526d426361a8f39833239e2f3f3d7bc054f5"),
    }

    def test_full_hour_18_attack_chain(self):
        self.check_full("ATTACK-N", 18)

    @pytest.mark.parametrize("hour", [3, 4])
    def test_full_attack_h_chains_of_hours_3_and_4(self, hour):
        self.check_full("ATTACK-H", hour)

    def check_full(self, variant, hour):
        built, lumped, key = self.FULL[(variant, hour)]
        scen = dict(make_attack_variants(default_scenario()))[variant]
        c = build_grid_ctmc(scen, default_demand_profile().mw_by_hour[hour])
        q = lump(c)
        assert (c.n_states, len(c.data)) == built
        assert (q.n_states, len(q.data)) == lumped
        assert _chain_key(q).hex() == key
        assert lump(q) is q
        assert q.exit_rates.max() == c.exit_rates.max()


# -- randomized structural properties --------------------------------


MILD_RATES = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
# log-uniform over six decades, 1e-3 to 1e3
STIFF_RATES = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


@st.composite
def irreducible_chains(draw, rate=MILD_RATES):
    """Random chain over a guaranteed Hamiltonian cycle, so one BSCC."""
    n = draw(st.integers(min_value=2, max_value=6))
    trans = {(i, (i + 1) % n): draw(rate) for i in range(n)}
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=8,
        )
    )
    for src, dst in extras:
        if src != dst and (src, dst) not in trans:
            trans[(src, dst)] = draw(rate)
    init = draw(st.integers(min_value=0, max_value=n - 1))
    return new_ctmc(n, [(s, t, r) for (s, t), r in trans.items()], init)


@settings(max_examples=40, deadline=None)
@given(irreducible_chains())
def test_steady_state_is_distribution(chain):
    pi = steady_state(chain).probs
    assert np.all(pi >= 0)
    assert abs(pi.sum() - 1.0) < 1e-9


@st.composite
def reducible_chains(draw, rate=MILD_RATES):
    """Random chain with 2-3 BSCCs of 1-3 states each, fed from 1-3
    transient states; the start state enters two different BSCCs, so the
    result mixes their stationary vectors."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3))
    n_trans = draw(st.integers(min_value=1, max_value=3))
    n = n_trans + sum(sizes)
    relabel = draw(st.permutations(range(n)))

    trans = {}
    bsccs, start = [], n_trans
    for size in sizes:
        b = list(range(start, start + size))
        start += size
        bsccs.append(b)
        if size > 1:
            for i, s in enumerate(b):
                trans[(s, b[(i + 1) % size])] = draw(rate)
    bscc_state = st.sampled_from([s for b in bsccs for s in b])
    # the start state 0 enters two different BSCCs; every transient state
    # has an exit
    trans[(0, draw(st.sampled_from(bsccs[0])))] = draw(rate)
    trans[(0, draw(st.sampled_from(bsccs[1])))] = draw(rate)
    for t in range(1, n_trans):
        trans[(t, draw(bscc_state))] = draw(rate)
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_trans - 1),
                st.one_of(st.integers(min_value=0, max_value=n_trans - 1), bscc_state),
            ),
            max_size=6,
        )
    )
    for src, dst in extras:
        if src != dst and (src, dst) not in trans:
            trans[(src, dst)] = draw(rate)
    return new_ctmc(
        n, [(relabel[s], relabel[t], r) for (s, t), r in trans.items()], relabel[0]
    )


@settings(max_examples=40, deadline=None)
@given(st.one_of(irreducible_chains(), reducible_chains()))
def test_steady_state_matches_dense_oracle(chain):
    got = steady_state(chain).probs
    assert np.abs(got - steady_oracle(chain)).max() < 1e-8


@settings(max_examples=40, deadline=None)
@given(st.one_of(irreducible_chains(STIFF_RATES), reducible_chains(STIFF_RATES)))
@example(new_ctmc(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 3, 1e-3), (3, 4, 1e-2),
                      (4, 3, 1.0), (4, 0, 1e-2)], 0))
def test_steady_state_matches_dense_oracle_on_stiff_chains(chain):
    # the tolerance bounds each BSCC's balance residual and the absorption
    # weights' shortfall, not the entries: a residual r lets a BSCC's vector
    # err by up to r * residual_condition, which on these rates reaches
    # thousands (a 5-state chain with a 4.3e-4 slowest decay rate errs by
    # 2.1e-8 at 1e-11), so the 1e-8 comparison asks for a tolerance that
    # puts that bound below it
    steady_state(chain)
    tolerance = min(1e-11, 1e-8 / (1.0 + residual_condition(chain)))
    got = steady_state(chain, SolverConfig(tolerance=tolerance)).probs
    assert np.abs(got - steady_oracle(chain)).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(reducible_chains())
def test_reducible_chains_mix_two_or_more_bsccs(chain):
    part = bscc_decomposition(chain)
    assert len(part.bsccs) >= 2
    assert np.count_nonzero(absorption_probabilities(chain, part)) >= 2


@settings(max_examples=40, deadline=None)
@given(st.one_of(irreducible_chains(), reducible_chains()))
def test_bscc_partition_matches_per_state_grouping(chain):
    # reference: group states into components one by one, then keep the
    # components no transition leaves
    n_comp, comp = connected_components(chain.rate_matrix, directed=True, connection="strong")
    members = [set() for _ in range(n_comp)]
    for s in range(chain.n_states):
        members[comp[s]].add(s)
    leaves = {comp[s] for (s, d) in chain.transitions if comp[s] != comp[d]}
    assert _lists(bscc_decomposition(chain)) == (
        sorted(sorted(m) for i, m in enumerate(members) if i not in leaves),
        sorted(set().union(*(m for i, m in enumerate(members) if i in leaves))),
    )


@settings(max_examples=25, deadline=None)
@given(irreducible_chains())
def test_steady_state_ignores_initial_state(chain):
    base = steady_state(chain).probs
    other = new_ctmc(
        chain.n_states,
        [(s, t, r) for (s, t), r in chain.transitions.items()],
        (chain.initial + 1) % chain.n_states,
    )
    assert np.abs(base - steady_state(other).probs).max() < 1e-9


@settings(max_examples=300, deadline=None)
@given(st.one_of(irreducible_chains(), reducible_chains()), st.floats(min_value=0.0, max_value=50.0),
       st.sampled_from([1e-3, 1e-6, 1e-10]))
def test_transient_matches_expm_oracle(chain, t, epsilon):
    # the documented bound: total variation at most epsilon, on chains with
    # one BSCC and with several
    got = transient(chain, t, epsilon).probs
    assert 0.5 * np.abs(got - transient_oracle(chain, t)).sum() <= epsilon + 1e-12


@settings(max_examples=20, deadline=None)
@given(irreducible_chains())
def test_transient_converges_to_steady_state(chain):
    # the distance to steady state decays as exp(-gap * t), gap the slowest
    # decay rate of Q; it can be far below the smallest exit rate
    gap = np.sort(-np.linalg.eigvals(dense_generator(chain)).real)[1]
    horizon = 50.0 / gap
    late = transient(chain, horizon).probs
    assert np.abs(late - steady_state(chain).probs).max() < 1e-4


@st.composite
def expanded_chains(draw):
    """(n, chain): a random chain of n states, each cloned 1-3 times with
    the base state's labels.  Every clone splits each rate of its state
    into halves and quarters over the target's clones, and clones of one
    state may move among themselves, so the clones of each state form an
    ordinary-lumpable partition.  Rates are multiples of 1/4, so that every
    sum of them is exact whatever its order."""
    base = draw(st.one_of(irreducible_chains(), reducible_chains()))
    n = base.n_states
    quarter = st.integers(min_value=1, max_value=400).map(lambda k: k / 4)
    copies = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    start = np.concatenate(([0], np.cumsum(copies))).tolist()
    clones = [list(range(start[s], start[s + 1])) for s in range(n)]
    trans = {}
    for (s, d) in base.transitions:
        rate = draw(quarter)
        for i in clones[s]:
            parts = [rate]
            for _ in range(draw(st.integers(min_value=0, max_value=copies[d] - 1))):
                part = parts.pop(draw(st.integers(min_value=0, max_value=len(parts) - 1)))
                parts += [part / 2, part / 2]
            trans.update({(i, j): p for j, p in zip(draw(st.permutations(clones[d])), parts)})
    for s in range(n):
        pairs = st.tuples(st.sampled_from(clones[s]), st.sampled_from(clones[s]))
        trans.update({(i, j): draw(quarter) for i, j in draw(st.lists(pairs, max_size=2)) if i != j})
    labels = {name: [i for s in draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
                     for i in clones[s]] for name in ("a", "b")}
    initial = draw(st.sampled_from(clones[base.initial]))
    return n, new_ctmc(start[-1], [(i, j, r) for (i, j), r in trans.items()], initial, labels)


@settings(max_examples=150, deadline=None)
@given(expanded_chains(), st.floats(min_value=0.0, max_value=2.0), st.sampled_from([1e-6, 1e-10]))
def test_lumped_transient_matches_expm_oracle(expanded, t, epsilon):
    _, chain = expanded
    q = lump(chain)
    assert lump(q) is q
    got = transient(q, t, epsilon)
    exact = transient_oracle(chain, t)
    for label in ("a", "b"):
        want = exact[chain.label_states(label)].sum()
        assert abs(label_probability(got, q, label) - want) <= epsilon + 1e-12


@st.composite
def settling_chains(draw, rate=MILD_RATES):
    """Random chain whose settled classes are closed, label-pure sets of
    2-3 states (a cycle each, as the built chains' 126-state blackout BSCC
    is strongly connected), fed by 1-4 other states: each leads to the
    next, the last into a class, and up to 8 more rates leave them.  Every
    state carries a random subset of the labels a and b, one per class."""
    n_moving = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(st.lists(st.integers(min_value=2, max_value=3), min_size=1, max_size=2))
    n = n_moving + sum(sizes)
    patterns = st.sets(st.sampled_from("ab"))
    trans, labels, first = {}, [draw(patterns) for _ in range(n_moving)], n_moving
    for size in sizes:
        members = list(range(first, first + size))
        first += size
        trans.update({(s, members[(i + 1) % size]): draw(rate) for i, s in enumerate(members)})
        labels += [draw(patterns)] * size
    into = st.integers(min_value=n_moving, max_value=n - 1)
    trans.update({(s, s + 1 if s + 1 < n_moving else draw(into)): draw(rate)
                  for s in range(n_moving)})
    extras = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=n_moving - 1),
                                     st.integers(min_value=0, max_value=n - 1)), max_size=8))
    for src, dst in extras:
        if src != dst and (src, dst) not in trans:
            trans[(src, dst)] = draw(rate)
    relabel = draw(st.permutations(range(n)))
    init = relabel[draw(st.integers(min_value=0, max_value=n_moving - 1))]
    return new_ctmc(n, [(relabel[s], relabel[d], r) for (s, d), r in trans.items()], init,
                    {name: [relabel[s] for s in range(n) if name in labels[s]] for name in "ab"})


@settings(max_examples=200, deadline=None)
@given(st.one_of(settling_chains(), settling_chains(STIFF_RATES)),
       st.floats(min_value=-1.0, max_value=3.0), st.sampled_from([1e-3, 1e-6, 1e-10]))
def test_absorbed_exit_matches_expm_oracle(chain, scale, epsilon):
    # horizons from half the threshold below which the certificate cannot
    # fire to eight times it; where it fires, the chain holds at most
    # epsilon/2 outside the settled states and every label is within
    # epsilon, by the 50-digit oracle, which keeps the mass of stiff chains
    unsettled = settled(chain).transient_states
    t = 2.0**scale * (cert_threshold(chain, epsilon) if len(unsettled) else 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solvers.settle(chain, t, epsilon)
    if isinstance(got, Ctmc):
        # where it does not fire, the chain comes back lumped
        assert _chain_key(got) == _chain_key(lump(chain))
    else:
        assert exact_transient_oracle(chain, t)[unsettled].sum() <= epsilon / 2 + 1e-12
        assert label_error(got, chain, t) <= epsilon + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.one_of(settling_chains(), settling_chains(STIFF_RATES)),
       st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0**e), st.sampled_from([1e-6, 1e-10]))
def test_lumped_stiff_transient_matches_exact_oracle(chain, t, epsilon):
    # each settled class becomes one state, and every label is within
    # epsilon of the 50-digit oracle on the chain as built, over horizons
    # from 1e-3 to 10 minutes against rates from 1e-3 to 1e3
    q = lump(chain)
    assert q.n_states == chain.n_states - sum(len(b) - 1 for b in settled(chain).bsccs)
    assert lump(q) is q
    got = transient(q, t, epsilon)
    assert label_error({name: label_probability(got, q, name) for name in q.label_arrays},
                       chain, t) <= epsilon + 1e-12


def paced(transitions, n, initial=0, labels=None):
    """An n-state chain plus a pacer, state n, whose one rate, 2 000 a
    minute into state 0, outruns every other exit rate: chains paced alike
    have exactly equal Lambda."""
    return new_ctmc(n + 1, [*transitions, (n, 0, 2000.0)], initial, labels)


def batched(chains, t, epsilon=1e-10):
    """Each chain's result from one `Batches` queue, in the order added."""
    queue = solvers.Batches(t, epsilon)
    got = [r for i, c in enumerate(chains) for r in queue.add(i, c)] + queue.close()
    assert sorted(i for i, _ in got) == list(range(len(chains)))
    return [r for _, r in sorted(got, key=lambda r: r[0])]


class TestBatches:
    """`Batches` steps chains of equal Lambda as one block-diagonal batch."""

    EPS = 1e-10

    def test_blocks_stop_on_their_own(self, steps):
        # one batch: a stiff chain that settles, a slow one that runs the
        # whole window, a chain without exits; then a group of its own
        stops = paced([(0, 1, 50.0), (1, 0, 50.0), (1, 2, 1200.0), (2, 0, 20.0)], 3)
        runs = paced([(0, 1, 0.01), (1, 0, 0.01), (1, 2, 100.0), (2, 1, 100.0)], 3)
        still = new_ctmc(2, {}, 1)
        other = new_ctmc(2, [(0, 1, 3.0), (1, 0, 1.0)], 0)
        chains = [stops, still, runs, other]
        got = batched(chains, 2.0, self.EPS)
        (k_stops, hi), (k_runs, hi_runs), _ = steps
        assert hi == hi_runs and k_stops < hi / 2 and k_runs == hi
        for c, g in zip(chains, got):
            assert np.array_equal(g.probs, transient(c, 2.0, self.EPS).probs)
        assert got[1].probs.tolist() == [0.0, 1.0]

    def test_a_group_splits_at_the_cap(self, monkeypatch, window):
        # each P^T has 4 + 3 nonzeros; a cap of 10 closes a batch at the
        # second chain, so three chains make two batches of one window
        chains = [paced([(0, 1, r)], 2) for r in (1.0, 2.0, 3.0)]
        alone = [transient(c, 0.5, self.EPS).probs for c in chains]
        window.clear()
        monkeypatch.setattr(solvers, "BATCH_NNZ", 10)
        queue = solvers.Batches(0.5, self.EPS)
        assert queue.add(0, chains[0]) == [] and len(window) == 0
        first = queue.add(1, chains[1])
        assert [tag for tag, _ in first] == [0, 1] and len(window) == 1
        assert queue.add(2, chains[2]) == []
        last = queue.close()
        assert [tag for tag, _ in last] == [2] and queue.close() == []
        got = [d for _, d in first + last]
        assert len(window) == 2 and window[0][1] is window[1][1]
        assert all(np.array_equal(g.probs, a) for g, a in zip(got, alone))

    def test_a_horizon_past_the_window_fails_its_group_only(self):
        # Lambda*t is 1.02e12 for the fast pair, past any finite window,
        # and 1.02e6 for the slow chain, which stops after 32 steps
        fast = [new_ctmc(2, [(0, 1, 1000.0), (1, 0, 1000.0)], 0),
                new_ctmc(3, [(0, 1, 1000.0), (1, 2, 1.0)], 0)]
        slow, still, t = new_ctmc(2, [(0, 1, 1e-3)], 0), new_ctmc(2, {}, 1), 1e9
        got = batched([fast[0], slow, fast[1], still], t)
        for c, g in zip(fast, got[::2]):
            with pytest.raises(NegativeTime) as alone:
                transient(c, t)
            assert isinstance(g, NegativeTime) and str(g) == str(alone.value)
            assert "Lambda*t = 1.02e+12" in str(g)
        for c, g in zip((slow, still), got[1::2]):
            assert np.array_equal(g.probs, transient(c, t).probs)

    def test_chains_that_differ_only_in_labels_share_a_block(self, monkeypatch):
        # twin relabels first and rides its block; moved has the same rates
        # but another start state, and other differs in one rate on the
        # same pairs, so each of those stacks a block of its own
        rates = [(0, 1, 50.0), (1, 0, 5.0), (1, 2, 30.0)]
        first = paced(rates, 3, labels={"a": [0]})
        twin = paced(rates, 3, labels={"a": [1, 2], "b": [3]})
        moved = paced(rates, 3, initial=1, labels={"a": [0]})
        other = paced(rates[:2] + [(1, 2, 31.0)], 3, labels={"a": [0]})
        stacked, real_stack = [], solvers._stack
        monkeypatch.setattr(solvers, "_stack", lambda chains: stacked.append(chains) or real_stack(chains))
        chains = [other, first, twin, moved]
        got = batched(chains, 0.5, self.EPS)
        assert stacked == [[other, first, moved]]
        assert got[2] is got[1]
        for c, g in zip(chains, got):
            assert np.array_equal(g.probs, transient(c, 0.5, self.EPS).probs)

    def test_a_batch_that_fails_fails_its_riders(self):
        # Lambda*t is 1.02e12, past any finite window: the chain and the
        # relabelled copy that rides its block get the NegativeTime of the
        # chain alone
        rates = [(0, 1, 1000.0), (1, 0, 1000.0)]
        chains = [new_ctmc(2, rates, 0, {"a": [0]}), new_ctmc(2, rates, 0, {"a": [1]})]
        with pytest.raises(NegativeTime) as alone:
            transient(chains[0], 1e9)
        got = batched(chains, 1e9)
        assert all(isinstance(g, NegativeTime) and str(g) == str(alone.value) for g in got)

    def test_arguments_are_checked_once_for_all(self, cycle):
        with pytest.raises(NegativeTime):
            batched([cycle, cycle], -1.0)
        with pytest.raises(ValueError):
            batched([cycle], 1.0, 1e-2)
        assert batched([], 1.0) == []


@st.composite
def batchable_chains(draw):
    """1-8 chains of 1-4 states, each with up to 6 log-uniform rates from
    1e-3 to 1e3 (so some have none) and random labels a and b, two thirds
    of them `paced` so that groups of equal Lambda are common; about a
    quarter after the first are a relabelled copy of a chain drawn before,
    which rides its block while that waits in an open batch."""

    def labels(size):
        return {name: draw(st.sets(st.integers(min_value=0, max_value=size - 1))) for name in "ab"}

    chains = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if chains and draw(st.integers(min_value=0, max_value=3)) == 0:
            c = draw(st.sampled_from(chains))
            chains.append(new_ctmc(c.n_states, [(*pair, r) for pair, r in c.transitions.items()],
                                   c.initial, labels(c.n_states)))
            continue
        n = draw(st.integers(min_value=1, max_value=4))
        pairs = st.tuples(st.integers(min_value=0, max_value=n - 1),
                          st.integers(min_value=0, max_value=n - 1))
        trans = [(i, j, draw(STIFF_RATES)) for i, j in set(draw(st.lists(pairs, max_size=6)))
                 if i != j]
        pace = draw(st.sampled_from([None, 1, 2]))
        if pace is not None:
            trans.append((n, 0, 2000.0 * pace))
        size = n + (pace is not None)
        chains.append(new_ctmc(size, trans, draw(st.integers(min_value=0, max_value=size - 1)),
                               labels(size)))
    return chains


@settings(max_examples=40, deadline=None)
@given(batchable_chains(), st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=400.0)),
       st.sampled_from([1, 12, 40, solvers.BATCH_NNZ]), st.sampled_from([1e-6, 1e-10]))
def test_batched_transients_match_each_chain_alone(chains, steps, cap, epsilon):
    # t gives the fastest chain about `steps` steps; caps of 1, 12 and 40
    # nonzeros split groups across batches; labels are within epsilon of
    # the 50-digit oracle
    lam = max(solvers._slot(c)[0] for c in chains)
    t = steps / lam if lam else steps
    with mock.patch.object(solvers, "BATCH_NNZ", cap):
        got = batched(chains, t, epsilon)
    for c, g in zip(chains, got):
        assert np.array_equal(g.probs, transient(c, t, epsilon).probs)
        exact = exact_transient_oracle(c, t)
        for states in c.label_arrays.values():
            assert abs(g.probs[states].sum() - exact[states].sum()) <= epsilon + 1e-12
