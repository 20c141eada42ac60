import math
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridlock import (
    BadHeader,
    DuplicateClass,
    DuplicateHour,
    HourOutOfRange,
    InputFileError,
    MalformedDuration,
    MissingHour,
    MissingSection,
    NonFiniteValue,
    NonPositiveDemand,
    PriorityMismatch,
    ScenarioSyntaxError,
    UnknownKey,
)
from gridlock.experiments import ResultRow, desk_demand_profile
from gridlock.grid import (
    Botnet,
    Controller,
    DemandProcess,
    DemandProfile,
    GeneratorClass,
    Scenario,
)
from gridlock.scenario_io import (
    default_demand_profile,
    default_demand_text,
    default_scenario,
    default_scenario_text,
    format_demand_csv,
    format_scenario,
    load_demand_csv,
    parse_duration,
    parse_scenario,
    write_results_csv,
)


# durations of 1e-321 and 1e-308 minutes
TINY_1E_321 = "0." + "0" * 320 + "1m"
TINY_1E_308 = "0." + "0" * 307 + "1m"


class TestParseDuration:
    @pytest.mark.parametrize(
        "token,minutes",
        [
            ("30s", 0.5),
            ("40m", 40.0),
            ("1s", 1.0 / 60.0),
            ("2h", 120.0),
            ("1.5m", 1.5),
            (".5h", 30.0),
        ],
    )
    def test_units(self, token, minutes):
        assert parse_duration(token) == minutes

    def test_inf_is_absent(self):
        assert parse_duration("inf") is None

    @pytest.mark.parametrize(
        "token", ["-5m", "5", "m", "5 m", "5mm", "five-m", "0s", "1d", "",
                  pytest.param("9" * 400 + "m", id="overflow")]
    )
    def test_rejects(self, token):
        with pytest.raises(MalformedDuration):
            parse_duration(token)


class TestParseScenario:
    def test_reference_file(self):
        s = default_scenario()
        assert len(s.classes) == 3
        assert s.controller.tolerance == 0.01
        assert s.botnet.spike_fraction == 0.30
        assert s.controller.priority == ("nuclear", "hydro", "gas")
        assert [g.count for g in s.classes] == [4, 5, 6]
        assert [g.capacity_mw for g in s.classes] == [40.0, 20.0, 10.0]
        assert s.classes[0].t_recover is None
        assert s.classes[1].t_recover == 20.0
        assert s.total_capacity_mw == 320.0

    def test_missing_controller(self):
        text = "\n".join(
            line
            for line in default_scenario_text().splitlines()
            if line not in ("[controller]", "tolerance = 0.01", "priority = nuclear,hydro,gas")
        )
        with pytest.raises(MissingSection, match="controller"):
            parse_scenario(text)

    def test_priority_mismatch(self):
        text = default_scenario_text().replace(
            "priority = nuclear,hydro,gas", "priority = nuclear,hydro,coal"
        )
        with pytest.raises(PriorityMismatch) as e:
            parse_scenario(text)
        assert e.value.line == 3

    def test_unknown_key_with_line(self):
        text = default_scenario_text().replace(
            "tolerance = 0.01", "tolerance = 0.01\nvoltage = 9"
        )
        with pytest.raises(UnknownKey) as e:
            parse_scenario(text)
        assert e.value.line == 3

    def test_unknown_section(self):
        with pytest.raises(UnknownKey):
            parse_scenario(default_scenario_text() + "\n[weather]\nwind = 3\n")

    def test_duplicate_class(self):
        extra = "\n[generator gas]\ncapacity_mw = 1\ncount = 1\nt_start = 1s\nt_stop = 1s\nt_trip = 1s\nt_recover = inf\n"
        with pytest.raises(DuplicateClass):
            parse_scenario(default_scenario_text() + extra)

    def test_duplicate_key(self):
        text = default_scenario_text().replace(
            "tolerance = 0.01", "tolerance = 0.01\ntolerance = 0.02"
        )
        with pytest.raises(ScenarioSyntaxError, match="duplicate key"):
            parse_scenario(text)

    def test_missing_key_reports_section(self):
        text = default_scenario_text().replace("count = 4\n", "")
        with pytest.raises(ScenarioSyntaxError, match="missing key 'count'"):
            parse_scenario(text)

    def test_bad_duration_line_number(self):
        text = default_scenario_text().replace("t_start = 30s", "t_start = 30x")
        with pytest.raises(MalformedDuration) as e:
            parse_scenario(text)
        assert e.value.line == 21

    def test_inf_rejected_outside_recover(self):
        text = default_scenario_text().replace("t_stop = 40m", "t_stop = inf")
        with pytest.raises(ScenarioSyntaxError, match="cannot be 'inf'"):
            parse_scenario(text)

    def test_key_outside_section(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("tolerance = 0.01\n")

    def test_garbage_line(self):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario("[controller]\nwhat even is this\n")
        assert e.value.line == 2

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\n" + default_scenario_text().replace(
            "tolerance = 0.01", "tolerance = 0.01  # one percent"
        )
        assert parse_scenario(text) == default_scenario()

    @pytest.mark.parametrize(
        "old,new,error,line",
        [
            ("t_start = 30s", "t_start = " + "9" * 400 + "m", MalformedDuration, 21),
            ("capacity_mw = 40", "capacity_mw = inf", NonFiniteValue, 19),
            ("capacity_mw = 40", "capacity_mw = nan", NonFiniteValue, 19),
            ("count = 4", "count = " + "9" * 400, NonFiniteValue, 20),
            # 1e-321 min: 1/t overflows
            ("t_normal_to_low = 5m", "t_normal_to_low = " + TINY_1E_321, NonFiniteValue, 7),
            # 1e-308 min: 1/t is finite, the nuclear class's 4/t is not
            ("t_trip = 1s", "t_trip = " + TINY_1E_308, NonFiniteValue, 23),
        ],
        ids=["t_start-overflow", "capacity-inf", "capacity-nan", "count-overflow",
             "rate-overflow", "count-rate-overflow"],
    )
    def test_non_finite_value_names_its_line(self, old, new, error, line):
        with pytest.raises(error) as e:
            parse_scenario(default_scenario_text().replace(old, new))
        assert e.value.line == line

    def test_rate_check_scales_with_count(self):
        # the duration that overflows 4/t above keeps 1/t finite
        text = default_scenario_text().replace("t_normal_to_low = 5m",
                                               "t_normal_to_low = " + TINY_1E_308)
        assert parse_scenario(text).demand.t_normal_to_low == 1e-308

    @pytest.mark.parametrize(
        "old,new,line",
        [
            ("count = 4", "count = 0", 20),
            ("capacity_mw = 40", "capacity_mw = -40", 19),
            ("tolerance = 0.01", "tolerance = 1", 2),
            ("delta = 0.05", "delta = 1", 6),
            ("spike_fraction = 0.30", "spike_fraction = 1.5", 14),
        ],
        ids=["count-zero", "capacity-negative", "tolerance-one", "delta-one", "spike-above-one"],
    )
    def test_out_of_range_value_names_its_line(self, old, new, line):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario(default_scenario_text().replace(old, new))
        assert e.value.line == line

    @pytest.mark.parametrize(
        "old,new",
        [
            ("tolerance = 0.01", "tolerance = 1e-10"),
            ("delta = 0.05", "delta = 0.9999995"),
            ("spike_fraction = 0.30", "spike_fraction = 1.0"),
            ("t_trip = 1s", "t_trip = 0.00001m"),
        ],
        ids=["tolerance-1e-10", "delta-near-one", "spike-one", "duration-1e-5"],
    )
    def test_model_domain_edges_parse_and_round_trip(self, old, new):
        s = parse_scenario(default_scenario_text().replace(old, new, 1))
        text = format_scenario(s)
        assert new in text
        assert parse_scenario(text) == s

    def test_botnet_enabled_strict(self):
        text = default_scenario_text().replace("enabled = true", "enabled = yes")
        with pytest.raises(ScenarioSyntaxError, match="enabled"):
            parse_scenario(text)


# names a scenario file can carry, and ones it cannot: ',' (the priority
# separator), '#' (a comment), line breaks (str.splitlines also breaks at
# \x85 and \u2028) and leading or trailing whitespace
BAD_CLASS_NAMES = ["", "gas#2", "a,b", " gas", "gas\t", "a\nb", "a\rb", "gas\r\n", "a\x85b",
                   "a\u2028b"]
class_names = st.one_of(
    st.text(st.sampled_from("gas2 -[]=\t,#\r\n\x85\u2028"), max_size=5),
    st.text(max_size=5),
    st.sampled_from(BAD_CLASS_NAMES),
)


def _generator(name):
    return GeneratorClass(name, 10.0, 1, t_start=1.0, t_stop=1.0, t_trip=1.0)


def _carried_or(name, fallback):
    """name if GeneratorClass accepts it, else fallback."""
    try:
        return _generator(name).name
    except ValueError:
        return fallback


@st.composite
def scenarios(draw):
    dur = st.floats(min_value=1e-9, max_value=1e9)
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    n = draw(st.integers(min_value=1, max_value=3))
    names = [_carried_or(name, f"class{i}") for i, name in enumerate(draw(st.lists(
        class_names, min_size=n, max_size=n, unique=True)))]
    assume(len(set(names)) == n)
    classes = tuple(
        GeneratorClass(
            name=name,
            capacity_mw=draw(st.floats(min_value=0.5, max_value=100.0)),
            count=draw(st.integers(min_value=1, max_value=9)),
            t_start=draw(dur),
            t_stop=draw(dur),
            t_trip=draw(dur),
            t_recover=draw(st.one_of(st.none(), dur)),
        )
        for name in names
    )
    return Scenario(
        classes=classes,
        demand=DemandProcess(
            draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
            draw(dur),
            draw(dur),
            draw(dur),
            draw(dur),
        ),
        botnet=Botnet(
            draw(st.floats(min_value=0.0, max_value=1.0)),
            draw(dur),
            draw(dur),
            draw(st.booleans()),
        ),
        controller=Controller(
            tuple(draw(st.permutations([c.name for c in classes]))),
            draw(unit),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_scenario_round_trip(s):
    text = format_scenario(s)
    assert parse_scenario(text) == s
    durations = [line.split(" = ")[1] for line in text.splitlines() if line.startswith("t_")]
    assert not any("e" in token for token in durations), text


@pytest.mark.parametrize("name", BAD_CLASS_NAMES)
def test_class_name_the_format_cannot_carry_is_rejected(name):
    with pytest.raises(ValueError, match="class name"):
        _generator(name)


@settings(max_examples=200, deadline=None)
@given(class_names)
def test_class_name_is_rejected_or_round_trips(name):
    try:
        g = _generator(name)
    except ValueError:
        return
    s = replace(default_scenario(), classes=(g,), controller=Controller((name,), 0.01))
    assert parse_scenario(format_scenario(s)) == s


def test_generator_header_with_comma_names_its_line():
    text = default_scenario_text().replace("[generator gas]", "[generator gas,x]")
    with pytest.raises(ScenarioSyntaxError, match="class name 'gas,x'") as e:
        parse_scenario(text)
    assert e.value.line == 34


def test_reference_round_trip_is_stable():
    s = parse_scenario(default_scenario_text())
    assert parse_scenario(format_scenario(s)) == s


class TestDemandCsv:
    def test_default_profile(self):
        p = default_demand_profile()
        assert len(p.mw_by_hour) == 24
        assert min(p.mw_by_hour) == 200.0
        assert p.mw_by_hour.index(max(p.mw_by_hour)) == 18

    def test_bad_header(self):
        with pytest.raises(BadHeader):
            load_demand_csv("h,megawatts\n0,100\n")

    def test_hour_out_of_range(self):
        text = default_demand_text().replace("23,254", "25,300")
        with pytest.raises(HourOutOfRange) as e:
            load_demand_csv(text)
        assert e.value.line == 25

    def test_missing_hour(self):
        text = "\n".join(default_demand_text().splitlines()[:-1]) + "\n"
        with pytest.raises(MissingHour, match="23"):
            load_demand_csv(text)

    def test_duplicate_hour(self):
        text = default_demand_text().replace("23,254", "22,254")
        with pytest.raises(DuplicateHour):
            load_demand_csv(text)

    def test_non_positive_demand(self):
        text = default_demand_text().replace("18,317", "18,-1")
        with pytest.raises(NonPositiveDemand) as e:
            load_demand_csv(text)
        assert e.value.line == 20

    @pytest.mark.parametrize("value", ["inf", "nan", "9" * 400], ids=["inf", "nan", "overflow"])
    def test_non_finite_demand(self, value):
        with pytest.raises(NonFiniteValue) as e:
            load_demand_csv(default_demand_text().replace("18,317", f"18,{value}"))
        assert e.value.line == 20

    def test_malformed_row(self):
        text = default_demand_text().replace("18,317", "18,317,9")
        with pytest.raises(InputFileError):
            load_demand_csv(text)

    @settings(max_examples=100, deadline=None)
    @example(mw=default_demand_profile().mw_by_hour)
    @example(mw=desk_demand_profile().mw_by_hour)
    @given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                    min_size=24, max_size=24))
    def test_round_trip(self, mw):
        profile = DemandProfile(tuple(mw))
        assert load_demand_csv(format_demand_csv(profile)) == profile


class TestResultsCsv:
    def rows(self):
        return [
            ResultRow(18, "ATTACK-N", "transient", 0.1, 0.2, 0.7, 0.65, 10),
            ResultRow(4, "ATTACK-N", "transient", 0.5, 0.4, 0.1, 0.05, 10),
            ResultRow(4, "ATTACK-G", "transient", 0.25, 0.5, 0.25, 0.2, 10),
        ]

    def test_empty(self):
        text = write_results_csv([])
        assert text.splitlines() == [
            "hour,scenario,mode,p_over_supply,p_equilibrium,p_over_demand,p_blackout"
        ]

    def test_single_row(self):
        text = write_results_csv(self.rows()[:1])
        assert len(text.splitlines()) == 2
        assert text.splitlines()[1] == (
            "18,ATTACK-N,transient,0.100000000,0.200000000,0.700000000,0.650000000"
        )

    def test_sorted_by_scenario_then_hour(self):
        lines = write_results_csv(self.rows()).splitlines()[1:]
        keys = [(line.split(",")[1], int(line.split(",")[0])) for line in lines]
        assert keys == sorted(keys)


# -- fuzzing: formatted inputs with mutated values, dropped and repeated lines

_BAD_VALUES = ["", "garbage", "inf", "-inf", "nan", "9" * 400, "9" * 400 + "m", "0.5", "-1"]


@st.composite
def mutated_lines(draw, text, is_value_line):
    """text with some value tokens replaced and some lines dropped or repeated."""
    lines = text.splitlines()
    for i in draw(st.sets(st.sampled_from(range(len(lines))), max_size=3)):
        if is_value_line(lines[i]):
            sep = "=" if "=" in lines[i] else ","
            lines[i] = lines[i].split(sep)[0] + sep + draw(st.sampled_from(_BAD_VALUES))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


def _finite(x):
    if x is None or isinstance(x, (bool, str)):
        return True
    if isinstance(x, int):
        return x <= sys.float_info.max
    if isinstance(x, float):
        return math.isfinite(x)
    if isinstance(x, tuple):
        return all(map(_finite, x))
    return all(_finite(v) for v in vars(x).values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_scenario_parses_finite_or_raises_input_error(data):
    text = format_scenario(data.draw(scenarios()))
    text = data.draw(mutated_lines(text, lambda line: "=" in line))
    try:
        s = parse_scenario(text)
    except InputFileError:
        return
    assert _finite(s), text


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_demand_csv_parses_finite_or_raises_input_error(data):
    mw = st.floats(min_value=0.001, max_value=1e6)
    text = format_demand_csv(DemandProfile(data.draw(st.lists(mw, min_size=24, max_size=24))))
    text = data.draw(mutated_lines(text, lambda line: line != "hour,mw"))
    try:
        p = load_demand_csv(text)
    except InputFileError:
        return
    assert _finite(p), text
