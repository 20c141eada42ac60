import dataclasses
import math
import operator
import pickle

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
from gridlock.experiments import _chain_key, desk_demand_profile, desk_scenario, make_attack_variants
from gridlock.grid import build_grid_ctmc


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


def _assert_label_array(states, expected):
    """A label is a read-only int64 array holding exactly `expected`, in order."""
    assert isinstance(states, np.ndarray) and states.dtype == np.int64 and states.ndim == 1
    assert not states.flags.writeable
    assert states.tolist() == expected


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

    @pytest.mark.parametrize("states", [
        [0.5], [1.5], [math.nan], ["a"], [None], [10**30], [True],
        np.array([False, True]), [[0, 1]], np.array([[0, 1]]),
    ], ids=["0.5", "1.5", "nan", "text", "None", "10**30", "True", "mask", "nested", "2-d"])
    def test_rejects_non_integer_label_state(self, states, recwarn):
        # a label on state 0.5 would build and then sum state 0, and a
        # boolean mask would build the states its True/False values cast
        # to; text, None, ints past int64 and nested lists fail numpy's
        # cast or shape, and must fail the same way
        with pytest.raises(IndexOutOfRange, match="label 'x' holds a state that is not an integer"):
            new_ctmc(2, [(0, 1, 1.0), (1, 0, 2.0)], 0, labels={"x": states})
        assert not recwarn.list

    @pytest.mark.parametrize("state", [1.0, np.int64(1), np.int32(1)], ids=["float", "int64", "int32"])
    def test_label_states_are_stored_as_int(self, state):
        c = new_ctmc(2, [(0, 1, 1.0), (1, 0, 2.0)], 0, labels={"x": [state]})
        _assert_label_array(c.label_states("x"), [1])

    @pytest.mark.parametrize("states", [
        [3, 0, 2], {0, 2, 3}, (s for s in (2, 3, 0)), np.array([3, 2, 0], dtype=np.int32),
        [0.0, 2.0, 3.0], np.array([3, 0, 2, 3, 0, 0]), [0, 2, 3],
    ], ids=["list", "set", "generator", "int32", "float", "unsorted-duplicates", "sorted"])
    def test_label_states_are_one_sorted_int64_array(self, states):
        trans = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
        c = new_ctmc(4, trans, 0, labels={"x": states, "empty": []})
        _assert_label_array(c.label_states("x"), [0, 2, 3])
        _assert_label_array(c.label_states("empty"), [])
        assert c.labels == {"x": frozenset({0, 2, 3}), "empty": frozenset()}

    def test_label_array_is_a_copy(self):
        # the build hands its own arrays over; the chain must not share them
        given = np.array([0, 1])
        c = new_ctmc(2, [(0, 1, 1.0), (1, 0, 2.0)], 0, labels={"x": given})
        given[0] = 1
        _assert_label_array(c.label_states("x"), [0, 1])

    def test_pickle_round_trip(self):
        c = Ctmc(2, [0, 1], [1, 0], [1.0, 2.0], 1, {"x": [0]})
        back = pickle.loads(pickle.dumps(c))
        assert _chain_key(back) == _chain_key(c)

    @pytest.mark.parametrize("args,error", [
        ((2, [0, 1], [1, 0], [1.0, -2.0], 0), NonPositiveRate),
        ((2, [0, 1], [1, 0], [1.0, 2.0], 0.5), IndexOutOfRange),
        ((2, [0, 1], [1, 0], [1.0, 2.0], 5), IndexOutOfRange),
        ((2, [0, 1], [0, 0], [1.0, 2.0], 0), SelfLoop),
    ], ids=["negative-rate", "fractional-initial", "initial-out-of-range", "self-loop"])
    def test_the_constructor_validates(self, args, error):
        with pytest.raises(error):
            Ctmc(*args)

    @pytest.mark.parametrize("change,error", [
        (lambda c: setattr(c, "initial", 1), AttributeError),
        (lambda c: setattr(c, "indptr", c.indptr.astype(np.int64)), AttributeError),
        (lambda c: delattr(c, "initial"), AttributeError),
        (lambda c: operator.setitem(c.label_arrays, "x", np.array([1])), TypeError),
        (lambda c: dataclasses.replace(c, initial=5), TypeError),
    ], ids=["setattr", "setattr-array", "delattr", "label-map", "replace"])
    def test_a_chain_cannot_be_changed(self, change, error):
        # Ctmc(...) is the one way to make a chain, and it validates
        c = Ctmc(2, [0, 1], [1, 0], [1.0, 2.0], 0, {"x": [0]})
        key = _chain_key(c)
        with pytest.raises(error):
            change(c)
        assert _chain_key(c) == key and c.initial == 0

    def test_init_cannot_run_again(self):
        c = new_ctmc(2, [(0, 1, 1.0), (1, 0, 2.0)], 0, {"x": [0]})
        views = c.exit_rates, c.rate_matrix, c.transitions
        fields = dict(vars(c))
        with pytest.raises(AttributeError, match="immutable"):
            c.__init__(2, [0], [1], [5.0], 1)
        assert vars(c) == fields
        assert (c.exit_rates, c.rate_matrix, c.transitions) == views
        assert c.data.tolist() == [1.0, 2.0] and c.initial == 0
        assert c.exit_rates.tolist() == [1.0, 2.0] and c.rate_matrix.toarray().tolist() == [[0, 1], [2, 0]]

    @pytest.mark.parametrize("name", ["indptr", "indices", "data"])
    def test_csr_arrays_are_read_only(self, two_state, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(two_state, name)[0] = 0
        assert two_state.exit_rates.tolist() == [2.0, 1.0]

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
        _assert_label_array(c.label_states("equilibrium"), [1])

    def test_unknown_label(self, two_state):
        with pytest.raises(UnknownLabel):
            two_state.label_states("nosuch")


def _desk_attack_chain():
    scen = dict(make_attack_variants(desk_scenario()))["ATTACK-H"]
    return build_grid_ctmc(scen, desk_demand_profile().mw_by_hour[12])


@pytest.mark.parametrize("make", [
    lambda: new_ctmc(3, [(0, 1, 1.0), (1, 2, 0.5), (2, 0, 2.0)], 1, {"x": [2, 0], "y": []}),
    _desk_attack_chain,
], ids=["new_ctmc", "built"])
def test_pickle_after_reading_the_cached_views(make):
    # the cached views sit in the instance dict; a pickle holds only the
    # defining fields and loads through the validating constructor
    c = make()
    views = c.transitions, c.rate_matrix
    back = pickle.loads(pickle.dumps(c))
    assert _chain_key(back) == _chain_key(c)
    assert back.transitions == views[0]
    for a in (back.indptr, back.indices, back.data, *back.label_arrays.values()):
        assert not a.flags.writeable


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
        assert d.probs[1] == 0.75 and len(d) == 2

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


# the same index values as each array type `Ctmc` accepts, and as lists
_INDEX_FORMS = {
    "int32": lambda v: np.array(v, dtype=np.int32),
    "int64": lambda v: np.array(v, dtype=np.int64),
    "uint64": lambda v: np.array(v, dtype=np.uint64),
    "float64": lambda v: np.array(v, dtype=np.float64),
    "list": list,
}


@st.composite
def constructor_inputs(draw):
    """(n, src, dst, rates, label, defect): transition triples as Python
    lists, with one defect of the drawn kind or none, and one label.  A
    fractional index carries a float in both columns, so that its list
    reads as float64 too."""
    n, triples = draw(transition_lists(min_size=1))
    defect = draw(st.sampled_from([None, "out of range", "self-loop", "duplicate", "non-positive",
                                   "fractional"]))
    pos = draw(st.integers(0, len(triples) - 1))
    s, d, r = triples[pos]
    if defect == "out of range":
        bad = n + draw(st.integers(0, 3))
        triples[pos] = draw(st.sampled_from([(bad, d, r), (s, bad, r)]))
    elif defect == "self-loop":
        triples.insert(draw(st.integers(0, len(triples))), (s, s, 1.0))
    elif defect == "duplicate":
        triples.insert(draw(st.integers(0, len(triples))), (s, d, 2.0))
    elif defect == "non-positive":
        triples[pos] = (s, d, draw(st.sampled_from([0.0, -1.0, -math.inf, math.inf, math.nan])))
    elif defect == "fractional":
        triples[pos] = (s + 0.5, float(d), r)
    src, dst, rates = (list(col) for col in zip(*triples))
    return n, src, dst, rates, draw(st.lists(st.integers(0, n - 1))), defect


@settings(max_examples=100)
@given(constructor_inputs())
def test_every_index_dtype_builds_the_same_chain(inputs):
    # integer indices are read in place, others cast: either way the chain
    # and every error are the same, and the chain owns its arrays
    n, src, dst, rates, label, defect = inputs
    outcomes = {}
    for form, make in _INDEX_FORMS.items():
        if defect == "fractional" and form in ("int32", "int64", "uint64"):
            continue  # an integer dtype cannot hold the defect
        args = [make(src), make(dst), list(rates) if form == "list" else np.array(rates), make(label)]
        try:
            c = Ctmc(n, args[0], args[1], args[2], 0, {"x": args[3]})
        except Exception as e:
            outcomes[form] = (type(e), str(e))
            continue
        key = _chain_key(c)
        for a in args:  # every element changes
            a[:] = [-1.0 if a is args[2] else n] * len(a)
        assert _chain_key(c) == key, form
        outcomes[form] = None, _csr_bytes(c), c.label_states("x").tobytes()
    reference = outcomes.pop("list")
    for form, outcome in outcomes.items():
        assert outcome == reference, form
    expected = {None: None, "out of range": IndexOutOfRange, "self-loop": SelfLoop,
                "duplicate": DuplicateTransition, "non-positive": NonPositiveRate,
                "fractional": IndexOutOfRange}[defect]
    assert reference[0] is expected, reference
