"""Scenario files, demand-profile CSVs and result tables.

The scenario format is sectioned key=value text ('#' comments, blank
lines ignored).  It is deliberately not a general config language: every
value has one spelling, every error points at a 1-based line number.
"""

from __future__ import annotations

import math
import re
import sys
from importlib import resources
from typing import Iterable

from .errors import (
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
from .grid import Botnet, Controller, DemandProcess, DemandProfile, GeneratorClass, Scenario

_DURATION_RE = re.compile(r"^(\d+\.?\d*|\.\d+)(s|m|h)$")
_UNIT_MINUTES = {"s": 1.0 / 60.0, "m": 1.0, "h": 60.0}

_CONTROLLER_KEYS = {"tolerance", "priority"}
_DEMAND_KEYS = {
    "delta",
    "t_normal_to_low",
    "t_low_to_normal",
    "t_normal_to_high",
    "t_high_to_normal",
}
_BOTNET_KEYS = {"enabled", "spike_fraction", "t_off_to_on", "t_on_to_off"}
_GENERATOR_KEYS = {"capacity_mw", "count", "t_start", "t_stop", "t_trip", "t_recover"}

RESULTS_HEADER = "hour,scenario,mode,p_over_supply,p_equilibrium,p_over_demand,p_blackout"


def parse_duration(token: str) -> float | None:
    """'30s'/'40m'/'2h' to minutes; 'inf' means never (returns None).

    A number too large for a float is malformed, not 'inf'."""
    if token == "inf":
        return None
    m = _DURATION_RE.match(token)
    if m is None:
        raise MalformedDuration(
            f"bad duration {token!r} (expected NUMBER followed by s, m or h, or 'inf')"
        )
    value = float(m.group(1)) * _UNIT_MINUTES[m.group(2)]
    if not 0 < value < math.inf:
        raise MalformedDuration(f"duration must be positive and finite, got {token!r}")
    return value


class _Section:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.keys: dict[str, tuple[str, int]] = {}

    def take(self, key: str) -> tuple[str, int]:
        try:
            return self.keys.pop(key)
        except KeyError:
            raise ScenarioSyntaxError(
                f"[{self.name}] is missing key {key!r}", line=self.line
            ) from None


def _scan_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioSyntaxError("unterminated section header", line=lineno)
            sections.append(_Section(line[1:-1].strip(), lineno))
            continue
        if "=" not in line:
            raise ScenarioSyntaxError(f"expected key = value, got {line!r}", line=lineno)
        if not sections:
            raise ScenarioSyntaxError("key outside any section", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[-1].keys:
            raise ScenarioSyntaxError(f"duplicate key {key!r}", line=lineno)
        sections[-1].keys[key] = (value, lineno)
    return sections


def _check_keys(section: _Section, allowed: set[str]) -> None:
    for key, (_, lineno) in section.keys.items():
        if key not in allowed:
            raise UnknownKey(f"unknown key {key!r} in [{section.name}]", line=lineno)


def _float_in(section: _Section, key: str, lo: float, hi: float) -> float:
    token, lineno = section.take(key)
    try:
        value = float(token)
    except ValueError:
        raise ScenarioSyntaxError(f"{key} must be a number, got {token!r}", line=lineno)
    if not lo <= value <= hi:
        raise ScenarioSyntaxError(
            f"{key} must be in [{lo}, {hi}], got {token}", line=lineno
        )
    return value


def _duration_in(
    section: _Section, key: str, allow_inf: bool = False, units: int = 1
) -> float | None:
    """A duration t whose rate units/t is finite: the chain's rates are
    1/t, and up to count/t for a generator class's timings."""
    token, lineno = section.take(key)
    try:
        value = parse_duration(token)
    except MalformedDuration as e:
        raise MalformedDuration(str(e), line=lineno) from None
    if value is None and not allow_inf:
        raise ScenarioSyntaxError(f"{key} cannot be 'inf'", line=lineno)
    if value is not None and not math.isfinite(units / value):
        raise NonFiniteValue(f"{key} makes the rate {units}/t overflow, got {token!r}", line=lineno)
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario file."""
    sections = _scan_sections(text)

    controller_sec = demand_sec = botnet_sec = None
    generators: dict[str, _Section] = {}
    for sec in sections:
        if sec.name == "controller":
            if controller_sec is not None:
                raise ScenarioSyntaxError("duplicate [controller] section", line=sec.line)
            controller_sec = sec
        elif sec.name == "demand":
            if demand_sec is not None:
                raise ScenarioSyntaxError("duplicate [demand] section", line=sec.line)
            demand_sec = sec
        elif sec.name == "botnet":
            if botnet_sec is not None:
                raise ScenarioSyntaxError("duplicate [botnet] section", line=sec.line)
            botnet_sec = sec
        elif sec.name.startswith("generator "):
            name = sec.name[len("generator ") :].strip()
            if not name:
                raise ScenarioSyntaxError("generator section without a name", line=sec.line)
            if name in generators:
                raise DuplicateClass(f"duplicate class {name!r}", line=sec.line)
            generators[name] = sec
        else:
            raise UnknownKey(f"unknown section [{sec.name}]", line=sec.line)

    if controller_sec is None:
        raise MissingSection("controller")
    if demand_sec is None:
        raise MissingSection("demand")
    if botnet_sec is None:
        raise MissingSection("botnet")
    if not generators:
        raise MissingSection("generator")

    _check_keys(controller_sec, _CONTROLLER_KEYS)
    _check_keys(demand_sec, _DEMAND_KEYS)
    _check_keys(botnet_sec, _BOTNET_KEYS)
    for sec in generators.values():
        _check_keys(sec, _GENERATOR_KEYS)

    classes = []
    for name, sec in generators.items():
        cap_token, cap_line = sec.take("capacity_mw")
        count_token, count_line = sec.take("count")
        try:
            capacity = float(cap_token)
        except ValueError:
            raise ScenarioSyntaxError(
                f"capacity_mw must be a number, got {cap_token!r}", line=cap_line
            )
        if not math.isfinite(capacity):
            raise NonFiniteValue(f"capacity_mw must be finite, got {cap_token!r}", line=cap_line)
        try:
            count = int(count_token)
        except ValueError:
            raise ScenarioSyntaxError(
                f"count must be an integer, got {count_token!r}", line=count_line
            )
        if count > sys.float_info.max:
            raise NonFiniteValue(f"count overflows a float, got {count_token!r}", line=count_line)
        units = max(count, 1)  # GeneratorClass rejects a count below 1
        try:
            classes.append(
                GeneratorClass(
                    name=name,
                    capacity_mw=capacity,
                    count=count,
                    t_start=_duration_in(sec, "t_start", units=units),
                    t_stop=_duration_in(sec, "t_stop", units=units),
                    t_trip=_duration_in(sec, "t_trip", units=units),
                    t_recover=_duration_in(sec, "t_recover", allow_inf=True, units=units),
                )
            )
        except ValueError as e:
            raise ScenarioSyntaxError(str(e), line=sec.line) from None

    priority_token, priority_line = controller_sec.take("priority")
    priority = tuple(p.strip() for p in priority_token.split(","))
    if sorted(priority) != sorted(generators):
        raise PriorityMismatch(
            f"priority {','.join(priority)} does not match generator classes "
            f"{','.join(generators)}",
            line=priority_line,
        )

    enabled_token, enabled_line = botnet_sec.take("enabled")
    if enabled_token not in ("true", "false"):
        raise ScenarioSyntaxError(
            f"enabled must be 'true' or 'false', got {enabled_token!r}", line=enabled_line
        )

    try:
        return Scenario(
            classes=tuple(classes),
            demand=DemandProcess(
                delta_fraction=_float_in(demand_sec, "delta", 0.0, 0.999999),
                t_normal_to_low=_duration_in(demand_sec, "t_normal_to_low"),
                t_low_to_normal=_duration_in(demand_sec, "t_low_to_normal"),
                t_normal_to_high=_duration_in(demand_sec, "t_normal_to_high"),
                t_high_to_normal=_duration_in(demand_sec, "t_high_to_normal"),
            ),
            botnet=Botnet(
                spike_fraction=_float_in(botnet_sec, "spike_fraction", 0.0, 1.0),
                t_off_to_on=_duration_in(botnet_sec, "t_off_to_on"),
                t_on_to_off=_duration_in(botnet_sec, "t_on_to_off"),
                enabled=enabled_token == "true",
            ),
            controller=Controller(
                priority=priority,
                tolerance=_float_in(controller_sec, "tolerance", 1e-9, 0.999999),
            ),
        )
    except ValueError as e:
        raise ScenarioSyntaxError(str(e)) from None


def _format_duration(minutes: float | None) -> str:
    if minutes is None:
        return "inf"
    if minutes == int(minutes):
        return f"{int(minutes)}m"
    seconds = minutes * 60.0
    if seconds == int(seconds) and seconds / 60.0 == minutes:
        return f"{int(seconds)}s"
    return f"{minutes!r}m"


def format_scenario(s: Scenario) -> str:
    """Serialize a Scenario so that parse(format(s)) == s."""
    lines = [
        "[controller]",
        f"tolerance = {s.controller.tolerance!r}",
        f"priority = {','.join(s.controller.priority)}",
        "",
        "[demand]",
        f"delta = {s.demand.delta_fraction!r}",
        f"t_normal_to_low = {_format_duration(s.demand.t_normal_to_low)}",
        f"t_low_to_normal = {_format_duration(s.demand.t_low_to_normal)}",
        f"t_normal_to_high = {_format_duration(s.demand.t_normal_to_high)}",
        f"t_high_to_normal = {_format_duration(s.demand.t_high_to_normal)}",
        "",
        "[botnet]",
        f"enabled = {'true' if s.botnet.enabled else 'false'}",
        f"spike_fraction = {s.botnet.spike_fraction!r}",
        f"t_off_to_on = {_format_duration(s.botnet.t_off_to_on)}",
        f"t_on_to_off = {_format_duration(s.botnet.t_on_to_off)}",
    ]
    for g in s.classes:
        lines += [
            "",
            f"[generator {g.name}]",
            f"capacity_mw = {g.capacity_mw!r}",
            f"count = {g.count}",
            f"t_start = {_format_duration(g.t_start)}",
            f"t_stop = {_format_duration(g.t_stop)}",
            f"t_trip = {_format_duration(g.t_trip)}",
            f"t_recover = {_format_duration(g.t_recover)}",
        ]
    return "\n".join(lines) + "\n"


def load_demand_csv(text: str) -> DemandProfile:
    """Read an `hour,mw` CSV covering each hour 0-23 exactly once."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "hour,mw":
        raise BadHeader("expected header 'hour,mw'")
    seen: dict[int, float] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InputFileError(f"expected 'hour,mw', got {line!r}", line=lineno)
        try:
            hour = int(parts[0])
        except ValueError:
            raise InputFileError(f"hour must be an integer, got {parts[0]!r}", line=lineno)
        if not 0 <= hour <= 23:
            raise HourOutOfRange(f"hour must be 0-23, got {hour}", line=lineno)
        if hour in seen:
            raise DuplicateHour(f"hour {hour} appears twice", line=lineno)
        try:
            mw = float(parts[1])
        except ValueError:
            raise InputFileError(f"mw must be a number, got {parts[1]!r}", line=lineno)
        if not math.isfinite(mw):
            raise NonFiniteValue(f"mw must be finite, got {parts[1]!r}", line=lineno)
        if not mw > 0:
            raise NonPositiveDemand(f"demand must be > 0, got {parts[1]}", line=lineno)
        seen[hour] = mw
    for hour in range(24):
        if hour not in seen:
            raise MissingHour(f"hour {hour} missing from profile")
    return DemandProfile(tuple(seen[h] for h in range(24)))


def format_demand_csv(profile: DemandProfile) -> str:
    rows = [f"{h},{mw:g}" for h, mw in enumerate(profile.mw_by_hour)]
    return "hour,mw\n" + "\n".join(rows) + "\n"


def write_results_csv(rows: Iterable) -> str:
    """Render result records sorted by (scenario, hour), 9-decimal probabilities."""
    ordered = sorted(rows, key=lambda r: (r.scenario, r.hour))
    lines = [RESULTS_HEADER]
    for r in ordered:
        lines.append(
            f"{r.hour},{r.scenario},{r.mode},"
            f"{r.p_over_supply:.9f},{r.p_equilibrium:.9f},"
            f"{r.p_over_demand:.9f},{r.p_blackout:.9f}"
        )
    return "\n".join(lines) + "\n"


def default_scenario_text() -> str:
    """The packaged reference scenario (three-class 320 MW fleet)."""
    return resources.files("gridlock").joinpath("data/scenario_reference.txt").read_text()


def default_demand_text() -> str:
    """The packaged 24-hour demand profile CSV."""
    return resources.files("gridlock").joinpath("data/demand_default.csv").read_text()


def default_scenario() -> Scenario:
    return parse_scenario(default_scenario_text())


def default_demand_profile() -> DemandProfile:
    return load_demand_csv(default_demand_text())
