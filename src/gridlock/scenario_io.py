"""Scenario files, demand-profile CSVs and result tables.

The scenario format is sectioned key=value text ('#' comments, blank
lines ignored).  It is deliberately not a general config language: every
value has one spelling, every error points at a 1-based line number.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from functools import partial
from importlib import resources
from typing import Any, Callable, Iterable, NamedTuple

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


class _Codec(NamedTuple):
    """How one value is read from its token and written back (see _SECTIONS)."""

    read: Callable[[str, str, dict], Any]
    write: Callable[[Any], str]


def _real(interval: str) -> _Codec:
    """A finite float in an interval written like '[0, 1)'."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))

    def read(token, key, fields):
        try:
            value = float(token)
        except ValueError:
            raise ScenarioSyntaxError(f"{key} must be a number, got {token!r}") from None
        if not math.isfinite(value):
            raise NonFiniteValue(f"{key} must be finite, got {token!r}")
        if not ((lo <= value if interval[0] == "[" else lo < value)
                and (value <= hi if interval[-1] == "]" else value < hi)):
            raise ScenarioSyntaxError(f"{key} must be in {interval}, got {token}")
        return value

    return _Codec(read, repr)


def _read_count(token, key, fields):
    try:
        count = int(token)
    except ValueError:
        raise ScenarioSyntaxError(f"{key} must be an integer, got {token!r}") from None
    if count > sys.float_info.max:
        raise NonFiniteValue(f"{key} overflows a float, got {token!r}")
    if count < 1:
        raise ScenarioSyntaxError(f"{key} must be >= 1, got {token}")
    return count


def _read_bool(token, key, fields):
    if token not in ("true", "false"):
        raise ScenarioSyntaxError(f"{key} must be 'true' or 'false', got {token!r}")
    return token == "true"


def _format_duration(minutes: float | None) -> str:
    """Whole minutes or seconds where exact, else minutes without an exponent."""
    if minutes is None:
        return "inf"
    if minutes == int(minutes):
        return f"{int(minutes)}m"
    seconds = minutes * 60.0
    if seconds == int(seconds) and parse_duration(f"{int(seconds)}s") == minutes:
        return f"{int(seconds)}s"
    return f"{Decimal(repr(minutes)):f}m"


def _read_duration(token, key, fields, allow_inf=False):
    """A duration t whose rates, 1/t and up to count/t for a class, are finite."""
    value = parse_duration(token)
    if value is None and not allow_inf:
        raise ScenarioSyntaxError(f"{key} cannot be 'inf'")
    units = fields.get("count", 1)
    if value is not None and not math.isfinite(units / value):
        raise NonFiniteValue(f"{key} makes the rate {units}/t overflow, got {token!r}")
    return value


_DURATION = _Codec(_read_duration, _format_duration)
_NAMES = _Codec(lambda token, key, fields: tuple(p.strip() for p in token.split(",")), ",".join)
_BOOL = _Codec(_read_bool, lambda value: "true" if value else "false")

# The scenario file format: per section, file key -> (dataclass field, codec),
# in file order; the singleton sections are named after Scenario's fields.
# codec.read(token, key, fields) gets the section's values read so far and
# raises an InputFileError that the caller gives the key's line; codec.write
# gives a token that reads back to exactly the value.
_SECTIONS = {
    "controller": (Controller, {
        "tolerance": ("tolerance", _real("(0, 1)")),
        "priority": ("priority", _NAMES),
    }),
    "demand": (DemandProcess, {
        "delta": ("delta_fraction", _real("[0, 1)")),
        "t_normal_to_low": ("t_normal_to_low", _DURATION),
        "t_low_to_normal": ("t_low_to_normal", _DURATION),
        "t_normal_to_high": ("t_normal_to_high", _DURATION),
        "t_high_to_normal": ("t_high_to_normal", _DURATION),
    }),
    "botnet": (Botnet, {
        "enabled": ("enabled", _BOOL),
        "spike_fraction": ("spike_fraction", _real("[0, 1]")),
        "t_off_to_on": ("t_off_to_on", _DURATION),
        "t_on_to_off": ("t_on_to_off", _DURATION),
    }),
}
_GENERATOR = {
    "capacity_mw": ("capacity_mw", _real("(0, inf)")),
    "count": ("count", _Codec(_read_count, str)),
    "t_start": ("t_start", _DURATION),
    "t_stop": ("t_stop", _DURATION),
    "t_trip": ("t_trip", _DURATION),
    "t_recover": ("t_recover", _Codec(partial(_read_duration, allow_inf=True), _format_duration)),
}


class _Section(NamedTuple):
    name: str
    line: int
    keys: dict[str, tuple[str, int]]  # key -> (token, line)


def _scan_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioSyntaxError("unterminated section header", line=lineno)
            sections.append(_Section(line[1:-1].strip(), lineno, {}))
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


def _read_section(sec: _Section, rows: dict) -> dict:
    """The section's values by dataclass field, each checked at its key's line."""
    for key, (_, lineno) in sec.keys.items():
        if key not in rows:
            raise UnknownKey(f"unknown key {key!r} in [{sec.name}]", line=lineno)
    fields: dict[str, Any] = {}
    for key, (field, codec) in rows.items():
        if key not in sec.keys:
            raise ScenarioSyntaxError(f"[{sec.name}] is missing key {key!r}", line=sec.line)
        token, lineno = sec.keys[key]
        try:
            fields[field] = codec.read(token, key, fields)
        except InputFileError as e:
            raise type(e)(str(e), line=lineno) from None
    return fields


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario file."""
    singles: dict[str, _Section] = {}
    generators: dict[str, _Section] = {}
    for sec in _scan_sections(text):
        if sec.name in _SECTIONS:
            if sec.name in singles:
                raise ScenarioSyntaxError(f"duplicate [{sec.name}] section", line=sec.line)
            singles[sec.name] = sec
        elif sec.name.startswith("generator "):
            name = sec.name[len("generator ") :].strip()
            if not name:
                raise ScenarioSyntaxError("generator section without a name", line=sec.line)
            if "," in name:
                raise ScenarioSyntaxError(f"class name {name!r} holds a ','", line=sec.line)
            if name in generators:
                raise DuplicateClass(f"duplicate class {name!r}", line=sec.line)
            generators[name] = sec
        else:
            raise UnknownKey(f"unknown section [{sec.name}]", line=sec.line)
    for name in _SECTIONS:
        if name not in singles:
            raise MissingSection(name)
    if not generators:
        raise MissingSection("generator")

    classes = tuple(GeneratorClass(name=name, **_read_section(sec, _GENERATOR))
                    for name, sec in generators.items())
    parts = {name: cls(**_read_section(singles[name], rows))
             for name, (cls, rows) in _SECTIONS.items()}
    priority = parts["controller"].priority
    if sorted(priority) != sorted(generators):
        raise PriorityMismatch(
            f"priority {','.join(priority)} does not match generator classes "
            f"{','.join(generators)}",
            line=singles["controller"].keys["priority"][1],
        )
    return Scenario(classes=classes, **parts)


def _format_section(header: str, value, rows: dict) -> str:
    return "\n".join([f"[{header}]"] + [
        f"{key} = {codec.write(getattr(value, field))}" for key, (field, codec) in rows.items()
    ])


def format_scenario(s: Scenario) -> str:
    """Serialize a Scenario so that parse(format(s)) == s."""
    blocks = [_format_section(name, getattr(s, name), rows)
              for name, (_, rows) in _SECTIONS.items()]
    blocks += [_format_section(f"generator {g.name}", g, _GENERATOR) for g in s.classes]
    return "\n\n".join(blocks) + "\n"


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
    rows = [f"{h},{mw!r}" for h, mw in enumerate(profile.mw_by_hour)]
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
