import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlock import (
    Ctmc,
    DuplicateTransition,
    IndexOutOfRange,
    NonPositiveRate,
    SelfLoop,
    UnknownLabel,
    new_ctmc,
)
from gridlock.ctmc import Distribution


@pytest.fixture
def two_state():
    return new_ctmc(2, [(0, 1, 2.0), (1, 0, 1.0)], 0, {})


@pytest.fixture
def slow_unit():
    # available -> serving -> available, with repair from a down state
    return new_ctmc(
        3,
        [(0, 1, 0.50), (1, 0, 0.50), (2, 0, 0.25)],
        0,
        {"up": [0, 1], "down": [2]},
    )


@pytest.fixture
def slow_unit_attacked(slow_unit):
    # same unit once a disconnect path from serving is switched on
    trans = [(s, t, r) for (s, t), r in slow_unit.transitions.items()]
    trans.append((1, 2, 1200.0))
    return new_ctmc(3, trans, 0, slow_unit.labels)


class TestConstruction:
    def test_accepts_valid_chain(self, two_state):
        assert two_state.n_states == 2
        assert two_state.initial == 0

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoop):
            new_ctmc(2, [(0, 0, 1.0)], 0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(NonPositiveRate):
            new_ctmc(2, [(0, 1, rate)], 0)

    def test_rejects_exit_rate_overflow(self, recwarn):
        # each rate is finite, their sum is not
        with pytest.raises(NonPositiveRate, match="state 1 has exit rate inf"):
            new_ctmc(3, [(0, 1, 1.0), (1, 0, 1e308), (1, 2, 1e308)], 0)
        assert not recwarn.list

    @pytest.mark.parametrize("src,dst", [(2, 0), (0, 2), (-1, 0)])
    def test_rejects_out_of_range_transition(self, src, dst):
        with pytest.raises(IndexOutOfRange):
            new_ctmc(2, [(src, dst, 1.0)], 0)

    @pytest.mark.parametrize("src,dst", [(0, 1.7), (0.5, 1), (0, math.nan), (math.inf, 1)])
    def test_rejects_non_integer_transition_index(self, src, dst, recwarn):
        # a truncating cast would build (0, 1.7) as a 0 -> 1 transition
        with pytest.raises(IndexOutOfRange, match=rf"\({float(src)}, {float(dst)}, rate 1.0\)"):
            new_ctmc(3, [(src, dst, 1.0)], 0)
        assert not recwarn.list

    def test_rejects_out_of_range_initial(self):
        with pytest.raises(IndexOutOfRange):
            new_ctmc(2, [(0, 1, 1.0)], 5)

    @pytest.mark.parametrize("initial", [1.5, 0.25, math.nan, math.inf])
    def test_rejects_non_integer_initial(self, initial):
        # a fractional initial state would build and then fail inside the
        # solvers as a numpy IndexError
        with pytest.raises(IndexOutOfRange, match="initial state"):
            new_ctmc(3, [(0, 1, 1.0), (1, 2, 1.0)], initial)

    @pytest.mark.parametrize("initial", [2.0, np.int64(2), np.int32(2)])
    def test_initial_is_stored_as_int(self, initial):
        c = new_ctmc(3, [(0, 1, 1.0), (1, 2, 1.0)], initial)
        assert c.initial == 2 and type(c.initial) is int

    def test_rejects_duplicate_transition(self):
        with pytest.raises(DuplicateTransition):
            new_ctmc(2, [(0, 1, 1.0), (0, 1, 2.0)], 0)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            new_ctmc(2, [(0, 1, 1.0)], 0, {"bad": [7]})

    def test_classification_labels_must_partition(self):
        with pytest.raises(IndexOutOfRange):
            new_ctmc(
                2,
                [(0, 1, 1.0)],
                0,
                {"overSupply": [0], "equilibrium": [0], "overDemand": [1]},
            )

    def test_classification_partition_accepted(self):
        c = new_ctmc(
            3,
            [(0, 1, 1.0)],
            0,
            {"overSupply": [0], "equilibrium": [1], "overDemand": [2]},
        )
        assert c.label_states("equilibrium") == frozenset([1])

    def test_unknown_label(self, two_state):
        with pytest.raises(UnknownLabel):
            two_state.label_states("nosuch")


class TestExitRates:
    def test_exit_rate_sums_outgoing(self, slow_unit_attacked):
        assert slow_unit_attacked.exit_rates[1] == 1200.5

    def test_exit_rate_of_absorbing_is_zero(self):
        c = new_ctmc(2, [(0, 1, 3.0)], 0)
        assert c.exit_rates[1] == 0.0

    def test_exit_rate_range_check(self, two_state):
        # one exit rate per state, absorbing ones included
        assert two_state.exit_rates.shape == (two_state.n_states,)
        assert new_ctmc(3, [(0, 1, 3.0)], 0).exit_rates.tolist() == [3.0, 0.0, 0.0]

    def test_exit_rate_matches_generator_diagonal(self, slow_unit_attacked):
        q = slow_unit_attacked.generator_matrix()
        for s in range(slow_unit_attacked.n_states):
            # bitwise, not approximate: both read the same cached sums
            assert slow_unit_attacked.exit_rates[s] == -q[s, s]


class TestGeneratorMatrix:
    def test_rows_sum_to_zero(self, slow_unit):
        q = slow_unit.generator_matrix()
        assert np.allclose(np.asarray(q.sum(axis=1)).ravel(), 0.0, atol=1e-12)

    def test_off_diagonal_entries(self, two_state):
        q = two_state.generator_matrix().toarray()
        assert q[0, 1] == 2.0 and q[1, 0] == 1.0


def _row(c, s):
    """Outgoing (target, rate) pairs of state s, read off the CSR arrays."""
    lo, hi = c.indptr[s], c.indptr[s + 1]
    return list(zip(c.indices[lo:hi].tolist(), c.data[lo:hi].tolist()))


class TestSuccessors:
    def test_lists_targets_and_rates(self, slow_unit_attacked):
        assert _row(slow_unit_attacked, 1) == [(0, 0.50), (2, 1200.0)]

    def test_absorbing_has_none(self):
        c = new_ctmc(2, [(0, 1, 3.0)], 0)
        assert _row(c, 1) == []


# random small chains for the structural properties below
@st.composite
def small_chains(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    rates = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    init = draw(st.integers(min_value=0, max_value=n - 1))
    return new_ctmc(n, [(s, t, r) for (s, t), r in zip(chosen, rates)], init)


@settings(max_examples=60)
@given(small_chains())
def test_generator_rows_sum_zero(chain):
    rows = np.asarray(chain.generator_matrix().sum(axis=1)).ravel()
    scale = np.maximum(chain.exit_rates, 1.0)
    assert np.all(np.abs(rows) <= 1e-12 * scale)


class TestDistribution:
    def test_valid(self):
        d = Distribution(np.array([0.25, 0.75]))
        assert d[1] == 0.75 and len(d) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(np.array([1.25, -0.25]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.3, 0.3]))

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]])
    def test_rejects_non_finite(self, probs):
        with pytest.raises(ValueError, match="finite"):
            Distribution(np.array(probs))


@st.composite
def transition_lists(draw, min_size=0):
    """(n, triples): distinct off-diagonal pairs with positive finite rates
    whose exit-rate sums stay finite (at most 6 rates leave a state)."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_size))
    rates = draw(
        st.lists(
            st.floats(min_value=0.0, exclude_min=True, max_value=1e307),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return n, [(s, d, r) for (s, d), r in zip(chosen, rates)]


def _csr_bytes(c):
    m = c.rate_matrix
    return [(a.dtype, a.tobytes()) for a in (m.indptr, m.indices, m.data)]


@settings(max_examples=80)
@given(transition_lists())
def test_transitions_round_trip(n_triples):
    n, triples = n_triples
    c = new_ctmc(n, triples, 0)
    assert c.transitions == {(s, d): r for s, d, r in triples}
    with pytest.raises(TypeError):
        c.transitions[(0, 1)] = 1.0
    again = new_ctmc(n, [(s, d, r) for (s, d), r in c.transitions.items()], 0)
    assert _csr_bytes(again) == _csr_bytes(c)
    # the same arrays as scipy's own COO -> CSR conversion
    src, dst, rates = (list(col) for col in zip(*triples)) if triples else ([], [], [])
    scipy_csr = sp.csr_matrix((rates, (src, dst)), shape=(n, n))
    assert [(a.dtype, a.tobytes()) for a in (scipy_csr.indptr, scipy_csr.indices, scipy_csr.data)] \
        == _csr_bytes(c)


@settings(max_examples=80)
@given(transition_lists(min_size=1), st.data())
def test_injected_defect_raises(n_triples, data):
    n, triples = n_triples
    kind = data.draw(st.sampled_from(["duplicate", "self-loop", "rate"]))
    pos = data.draw(st.integers(min_value=0, max_value=len(triples) - 1))
    s, d, r = triples[pos]
    bad = list(triples)
    if kind == "duplicate":
        bad.insert(data.draw(st.integers(0, len(bad))), (s, d, r))
        expected = DuplicateTransition
    elif kind == "self-loop":
        bad.insert(data.draw(st.integers(0, len(bad))), (s, s, 1.0))
        expected = SelfLoop
    else:
        bad[pos] = (s, d, data.draw(st.sampled_from([0.0, -1.0, -math.inf, math.inf, math.nan])))
        expected = NonPositiveRate
    with pytest.raises(expected):
        new_ctmc(n, bad, 0)
