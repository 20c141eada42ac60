import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from gridlock import NegativeTime, NonConvergence, UnknownLabel, new_ctmc
from gridlock import solvers
from gridlock.ctmc import Distribution
from gridlock.solvers import (
    SolverConfig,
    absorption_probabilities,
    bscc_decomposition,
    label_probability,
    steady_state,
    transient,
)

from oracles import dense_generator, transient_oracle

ALL_METHODS = ["power", "jacobi", "gauss-seidel"]


@pytest.fixture
def cycle():
    return new_ctmc(2, [(0, 1, 2.0), (1, 0, 1.0)], 0)


@pytest.fixture
def slow_unit_idle():
    # repair state unreachable from the start: a reducible chain
    return new_ctmc(3, [(0, 1, 0.50), (1, 0, 0.50), (2, 0, 0.25)], 0)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.method == "power"
        assert cfg.tolerance == 1e-10
        assert cfg.max_iterations == 1_000_000

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="newton")

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=tol)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)


class TestBsccDecomposition:
    def test_cycle_is_one_bscc(self, cycle):
        p = bscc_decomposition(cycle)
        assert p.bsccs == (frozenset({0, 1}),)
        assert p.transient_states == frozenset()

    def test_absorbing_target(self):
        p = bscc_decomposition(new_ctmc(2, [(0, 1, 1.0)], 0))
        assert p.bsccs == (frozenset({1}),)
        assert p.transient_states == frozenset({0})

    def test_two_absorbing_targets(self):
        p = bscc_decomposition(new_ctmc(3, [(0, 1, 1.0), (0, 2, 3.0)], 0))
        assert p.bsccs == (frozenset({1}), frozenset({2}))
        assert p.transient_states == frozenset({0})

    def test_ordering_by_smallest_member(self):
        # two 2-state cycles fed from a common source
        c = new_ctmc(
            5,
            [(0, 3, 1.0), (0, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
            0,
        )
        p = bscc_decomposition(c)
        assert p.bsccs == (frozenset({1, 2}), frozenset({3, 4}))

    def test_unreachable_state_with_exit_is_transient(self, slow_unit_idle):
        p = bscc_decomposition(slow_unit_idle)
        assert p.transient_states == frozenset({2})


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
        c = new_ctmc(3, [(0, 1, 1.0), (1, 0, 1000.0), (1, 2, 1e-6)], 0)
        with pytest.raises(NonConvergence):
            absorption_probabilities(
                c, bscc_decomposition(c), SolverConfig(max_iterations=3)
            )


class TestSteadyState:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_two_state_balance(self, cycle, method):
        pi = steady_state(cycle, SolverConfig(method=method))
        np.testing.assert_allclose(pi.probs, [1 / 3, 2 / 3], atol=1e-9)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_absorbing_chain(self, method):
        c = new_ctmc(2, [(0, 1, 1.0)], 0)
        pi = steady_state(c, SolverConfig(method=method))
        np.testing.assert_allclose(pi.probs, [0.0, 1.0])

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_unreachable_repair_state(self, slow_unit_idle, method):
        pi = steady_state(slow_unit_idle, SolverConfig(method=method))
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

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_residual_bound(self, method):
        c = new_ctmc(
            4,
            [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 1200.0), (2, 0, 0.25), (2, 3, 60.0), (3, 2, 2.0)],
            0,
        )
        cfg = SolverConfig(method=method)
        pi = steady_state(c, cfg)
        from oracles import dense_generator

        residual = np.abs(pi.probs @ dense_generator(c)).max()
        assert residual < cfg.tolerance

    def test_nonconvergence_raised(self, cycle):
        with pytest.raises(NonConvergence):
            steady_state(cycle, SolverConfig(max_iterations=2, tolerance=1e-14))


class TestTransient:
    def test_analytic_one_jump(self):
        c = new_ctmc(2, [(0, 1, 1.0)], 0)
        pi = transient(c, 1.0)
        assert pi[1] == pytest.approx(0.632121, abs=1e-6)

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

    @pytest.mark.parametrize("eps", [0.0, -1e-6, 1e-2])
    def test_epsilon_domain(self, cycle, eps):
        with pytest.raises(ValueError):
            transient(cycle, 1.0, epsilon=eps)

    def test_all_absorbing_chain(self):
        c = new_ctmc(2, {}, 1)
        pi = transient(c, 5.0)
        np.testing.assert_allclose(pi.probs, [0.0, 1.0])

    def test_large_lambda_t_left_truncation(self):
        # rates around 1200/min push Lambda*t far past the cutover
        c = new_ctmc(2, [(0, 1, 1200.0), (1, 0, 1200.0)], 0)
        pi = transient(c, 60.0)
        np.testing.assert_allclose(pi.probs, [0.5, 0.5], atol=1e-9)

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
        got = solvers._uniformized_transpose(c, lam)
        assert got.shape == want.shape
        assert np.array_equal(got.toarray(), want.toarray())


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


# -- randomized structural properties --------------------------------


@st.composite
def irreducible_chains(draw):
    """Random chain over a guaranteed Hamiltonian cycle, so one BSCC."""
    n = draw(st.integers(min_value=2, max_value=6))
    rate = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
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


@settings(max_examples=25, deadline=None)
@given(irreducible_chains())
def test_methods_agree_pairwise(chain):
    sols = [
        steady_state(chain, SolverConfig(method=m)).probs for m in ALL_METHODS
    ]
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            assert np.abs(sols[i] - sols[j]).max() < 1e-8


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


@settings(max_examples=40, deadline=None)
@given(irreducible_chains(), st.floats(min_value=0.0, max_value=20.0))
def test_transient_matches_expm_oracle(chain, t):
    got = transient(chain, t).probs
    assert np.abs(got - transient_oracle(chain, t)).max() < 1e-7


@settings(max_examples=20, deadline=None)
@given(irreducible_chains())
def test_transient_converges_to_steady_state(chain):
    horizon = 50.0 / chain.exit_rates.min()
    late = transient(chain, horizon).probs
    assert np.abs(late - steady_state(chain).probs).max() < 1e-4
