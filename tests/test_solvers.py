import math
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.special import pdtr, pdtrc
from scipy.stats import poisson

from gridlock import NegativeTime, NonConvergence, UnknownLabel, new_ctmc
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
    lump,
    steady_state,
    transient,
)

from oracles import dense_generator, exact_steady_oracle, steady_oracle, transient_oracle


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
    """Records (steps taken, right window edge) of each uniformization."""
    calls = []
    inner = solvers._uniformize

    def spy(pt, x, weights, lo, epsilon):
        out, k = inner(pt, x, weights, lo, epsilon)
        calls.append((k, lo + len(weights) - 1))
        return out, k

    monkeypatch.setattr(solvers, "_uniformize", spy)
    return calls


@pytest.fixture
def window(monkeypatch):
    """Records (lo, weights) of each uniformization."""
    calls = []
    inner = solvers._uniformize

    def spy(pt, x, weights, lo, epsilon):
        calls.append((lo, weights))
        return inner(pt, x, weights, lo, epsilon)

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
        got, got_k = solvers._uniformize(pt, x0, weights, lo, self.EPS)
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


def cert_threshold(c, epsilon):
    """The horizon below which no state's exit rate clears the certificate's
    iteration rate theta, so the absorbed exit cannot fire."""
    moving = c.exit_rates[c.exit_rates > 0]
    return solvers._CERT_RATIO**2 * math.log(2 / epsilon) / moving.min()


class TestAbsorbedExit:
    EPS = 1e-10

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_full_hour_18_attack_cells_take_no_step(self, steps, variant):
        _, scen = make_attack_variants(default_scenario())[variant]
        c = lump(build_grid_ctmc(scen, default_demand_profile().mw_by_hour[18]))
        got = transient(c, 60.0, self.EPS).probs
        assert steps == []
        (absorbing,) = np.flatnonzero(c.exit_rates == 0)
        assert got[absorbing] == 1.0 and got.sum() == 1.0
        assert label_probability(Distribution(got), c, "blackout") == 1.0

    def test_full_attack_h_hour_4_falls_back_within_the_budget_stop(self, monkeypatch):
        # unsaturated: P(T > 60 min) is far above 5e-11, so g(initial)
        # leaves the budget after a few dozen iterations, far below the cap
        scen = dict(make_attack_variants(default_scenario()))["ATTACK-H"]
        c = lump(build_grid_ctmc(scen, default_demand_profile().mw_by_hour[4]))
        assert cert_threshold(c, self.EPS) < 60.0  # every exit rate clears theta
        calls = []
        inner = solvers._step
        monkeypatch.setattr(solvers, "_step", lambda *a: calls.append(1) or inner(*a))
        assert solvers._absorbed(c, 60.0, self.EPS, 10**6) is None
        assert 0 < len(calls) < 200

    def test_non_singleton_bscc_falls_back(self, steps):
        # 0 feeds the closed pair {1, 2}: absorbed in no single state
        c = new_ctmc(3, [(0, 1, 50.0), (1, 2, 40.0), (2, 1, 30.0)], 0)
        got = transient(c, 10.0, self.EPS).probs
        assert len(steps) == 1
        assert tv(got, transient_oracle(c, 10.0)) <= self.EPS

    def test_exit_fires_past_the_threshold_only(self, steps):
        c = new_ctmc(4, [(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0), (1, 3, 4.0)], 0)
        t = cert_threshold(c, self.EPS)
        transient(c, 0.99 * t, self.EPS)
        assert len(steps) == 1
        for horizon in (2 * t, 4 * t):
            got = transient(c, horizon, self.EPS).probs
            assert len(steps) == 1
            assert tv(got, transient_oracle(c, horizon)) <= self.EPS

    def test_overflowing_iterates_do_not_warn(self, steps):
        # the pair {1, 2}, unreachable from 0, leaks so slowly that g grows
        # about 1000-fold a step there and overflows; the attempt still
        # certifies 0's fast absorption, and nothing warns
        t = 60.0
        theta = solvers._CERT_RATIO**2 * math.log(2 / self.EPS) / t
        a = 1.001 * theta
        c = new_ctmc(4, [(0, 3, 100.0), (1, 2, a), (2, 1, a), (2, 3, 1e-9)], 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transient(c, t, self.EPS).probs
        assert steps == []
        assert got.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_absorption_cap_falls_back(self, steps, monkeypatch):
        # two absorbing states; an absorption solve held to one jump hits
        # its cap, and uniformization answers instead of NonConvergence
        c = new_ctmc(4, [(0, 1, 5.0), (1, 0, 5.0), (0, 2, 1.0), (1, 3, 2.0)], 0)
        t = 4 * cert_threshold(c, self.EPS)
        inner = solvers.absorption_probabilities
        monkeypatch.setattr(solvers, "absorption_probabilities",
                            lambda c, p, cfg: inner(c, p, replace(cfg, max_iterations=1)))
        got = transient(c, t, self.EPS).probs
        assert len(steps) == 1
        assert tv(got, transient_oracle(c, t)) <= self.EPS
        # unheld, the same chain takes the exit
        monkeypatch.setattr(solvers, "absorption_probabilities", inner)
        assert tv(transient(c, t, self.EPS).probs, got) <= self.EPS
        assert len(steps) == 1


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
    # states 1 and 2 enter the labelled state 0 at the same rate, state 3
    # at another
    STAR = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 0, 3.0), (2, 0, 3.0), (3, 0, 5.0)]

    def test_merges_states_with_equal_rates_into_each_block(self):
        c = new_ctmc(4, self.STAR, 3, {"x": [0], "y": [3]})
        q = lump(c)
        # blocks {0}, {1, 2}, {3}, numbered by smallest member
        assert q.n_states == 3 and q.initial == 2
        assert dict(q.transitions) == {(0, 1): 2.0, (0, 2): 1.0, (1, 0): 3.0, (2, 0): 5.0}
        assert {k: v.tolist() for k, v in q.label_arrays.items()} == {"x": [0], "y": [2]}

    def test_rates_add_in_ascending_order(self):
        # 1 and 2 send 0.1, 0.2 and 0.3 into the block {3, 4, 5} in
        # opposite target order, and their sum depends on the order
        assert 0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3
        rates = [0.1, 0.2, 0.3]
        c = new_ctmc(6, [(0, 1, 1.0), (0, 2, 1.0), (3, 0, 1.0), (4, 0, 1.0), (5, 0, 1.0)]
                     + [(1, 3 + i, r) for i, r in enumerate(rates)]
                     + [(2, 5 - i, r) for i, r in enumerate(rates)], 0, {"x": [0], "t": [3, 4, 5]})
        q = lump(c)
        assert q.n_states == 3 and q.transitions[(1, 2)] == pytest.approx(0.6)

    def test_a_label_keeps_states_apart(self):
        assert lump(new_ctmc(4, self.STAR, 0, {"x": [0]})).n_states == 3
        c = new_ctmc(4, self.STAR, 0, {"x": [0], "y": [2]})
        assert _chain_key(lump(c)) == _chain_key(c)

    def test_rates_within_a_block_do_not_count(self):
        # 1 <-> 2 at different rates: no transition of the quotient
        c = new_ctmc(3, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 4.0), (2, 1, 7.0), (1, 0, 3.0), (2, 0, 3.0)],
                     0, {"x": [0]})
        q = lump(c)
        assert q.n_states == 2 and dict(q.transitions) == {(0, 1): 3.0, (1, 0): 3.0}

    def test_a_chain_without_transitions_lumps_by_labels(self):
        q = lump(new_ctmc(4, [], 3, {"x": [1, 2]}))
        assert (q.n_states, q.initial, q.label_arrays["x"].tolist()) == (2, 0, [1])

    def test_nothing_to_merge_gives_the_same_chain(self):
        # blocks numbered by smallest member keep every state's number
        c = build_grid_ctmc(make_attack_variants(default_scenario())[0][1],
                            default_demand_profile().mw_by_hour[18])
        assert _chain_key(lump(c)) == _chain_key(c)

    def test_a_hash_collision_returns_the_chain(self, monkeypatch):
        # every signature collides: 1, 2 and 3 share a block, which the
        # exact check refuses
        c = new_ctmc(4, self.STAR, 0, {"x": [0]})
        monkeypatch.setattr(solvers, "_hash", lambda block, sums: np.zeros(len(sums), np.uint64))
        assert lump(c) is c

    def test_full_hour_18_attack_chain(self):
        scen = make_attack_variants(default_scenario())[1][1]
        c = build_grid_ctmc(scen, default_demand_profile().mw_by_hour[18])
        q = lump(c)
        assert (c.n_states, len(c.data)) == (8190, 41554)
        assert (q.n_states, len(q.data)) == (757, 3850)
        assert _chain_key(lump(q)) == _chain_key(q)
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
def test_steady_state_matches_dense_oracle_on_stiff_chains(chain):
    # the default tolerance bounds the balance residual by 1e-10; with rates
    # down to 1e-3 that still lets entries err by about 5e-8, so the 1e-8
    # comparison asks for a residual ten times smaller
    steady_state(chain)
    got = steady_state(chain, SolverConfig(tolerance=1e-11)).probs
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
    horizon = 50.0 / chain.exit_rates.min()
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
    n, chain = expanded
    q = lump(chain)
    assert q.n_states <= n
    assert _chain_key(lump(q)) == _chain_key(q)
    got = transient(q, t, epsilon)
    exact = transient_oracle(chain, t)
    for label in ("a", "b"):
        want = exact[chain.label_states(label)].sum()
        assert abs(label_probability(got, q, label) - want) <= epsilon + 1e-12


@st.composite
def absorbing_chains(draw, rate=MILD_RATES):
    """Random chain of 1-5 states with exits over 1-2 absorbing ones: each
    state with exits leads to the next, the last into an absorbing one, so
    every BSCC is one absorbing state."""
    n_moving = draw(st.integers(min_value=1, max_value=5))
    n = n_moving + draw(st.integers(min_value=1, max_value=2))
    last = draw(st.integers(min_value=n_moving, max_value=n - 1))
    trans = {(s, s + 1 if s + 1 < n_moving else last): draw(rate) for s in range(n_moving)}
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_moving - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=8,
        )
    )
    for src, dst in extras:
        if src != dst and (src, dst) not in trans:
            trans[(src, dst)] = draw(rate)
    relabel = draw(st.permutations(range(n)))
    init = relabel[draw(st.integers(min_value=0, max_value=n_moving - 1))]
    return new_ctmc(n, [(relabel[s], relabel[d], r) for (s, d), r in trans.items()], init)


@settings(max_examples=200, deadline=None)
@given(absorbing_chains(), st.floats(min_value=-1.0, max_value=3.0),
       st.sampled_from([1e-3, 1e-6, 1e-10]))
def test_absorbed_exit_matches_expm_oracle(chain, scale, epsilon):
    # horizons from half the threshold below which the exit cannot fire to
    # eight times it; where it fires, the chain holds at most epsilon/2
    # outside the absorbing states and the result is within epsilon
    t = cert_threshold(chain, epsilon) * 2.0**scale
    with warnings.catch_warnings(), patch.object(solvers, "_uniformize",
                                                 wraps=solvers._uniformize) as spy:
        warnings.simplefilter("error")
        got = transient(chain, t, epsilon).probs
    exact = transient_oracle(chain, t)
    assert tv(got, exact) <= epsilon + 1e-12
    if not spy.called:
        assert exact[chain.exit_rates > 0].sum() <= epsilon / 2 + 1e-12
        assert (got[chain.exit_rates > 0] == 0).all()
