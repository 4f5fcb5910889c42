"""Scenario configuration files.

Plain-text ``key = value`` format, one setting per line; ``#`` starts a comment
and blank lines are ignored.  Node keys are exactly the
:class:`compactmdp.node.NodeConfig` fields, each read like the field's default:
a tuple of tuples is a matrix with rows separated by ``;``
(``app_transition = 0.99 0.01 ; 0.05 0.95``), a tuple a whitespace-separated
vector (``app_packet_prob = 0.05 1.0``), anything else a scalar of the
default's type (``frame_period = 0.1``).  Scenario keys are ``duration``
(seconds) and ``seed``.  Timed environment changes read ``at <seconds> set
<parameter> = <value>``; :class:`compactmdp.sim.ScheduleChange` decides which
parameters and times are allowed.

Unknown keys are an error so typos fail loudly.  Every fault found on a line is
a :class:`ConfigError` naming that line.  The packaged ``default_scenario.cfg``
documents every key and is what ``load_scenario("default")`` returns.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

from .node import NodeConfig, floor_frames
from .sim import Scenario, ScheduleChange, apply_change

DEFAULT_NAME = "default"

#: Every key a scenario file may set, mapped to a value of the kind it takes.
_SAMPLES = {f.name: f.default for f in fields(NodeConfig)} | {"duration": 0.0, "seed": 0}


class ConfigError(ValueError):
    """A scenario file could not be parsed or failed validation."""


@contextmanager
def _on_line(lineno):
    """Re-raise a ``ValueError`` from the block as a :class:`ConfigError` naming the line."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from exc


def _parse_value(key, text, sample=None):
    """``text`` read as a value of ``key``, shaped like ``sample`` (its default)."""
    if sample is None:
        if key not in _SAMPLES:
            raise ValueError(f"unknown key {key!r}")
        sample = _SAMPLES[key]
    if not isinstance(sample, tuple):
        try:
            return type(sample)(text)
        except ValueError:
            raise ValueError(
                f"{key} expects {type(sample).__name__}, got {text!r}"
            ) from None
    if isinstance(sample[0], tuple):
        rows = tuple(
            _parse_value(key, row, sample[0]) for row in text.split(";") if row.strip()
        )
        if len({len(row) for row in rows}) > 1:
            raise ValueError(
                f"{key} rows have unequal lengths {[len(row) for row in rows]}"
            )
        return rows
    return tuple(_parse_value(key, token, sample[0]) for token in text.split())


def _parse_change(line):
    """One ``at <seconds> set <parameter> = <value>`` line as a ScheduleChange."""
    head, _, value_text = line.partition("=")
    parts = head.split()
    if len(parts) != 4 or parts[2] != "set" or not value_text.strip():
        raise ValueError("schedule lines read 'at <seconds> set <parameter> = <value>'")
    try:
        time = float(parts[1])
    except ValueError:
        raise ValueError(f"bad time {parts[1]!r}") from None
    return ScheduleChange(time, parts[3], _parse_value(parts[3], value_text.strip()))


def parse_scenario(text):
    """Parse scenario file contents into a :class:`~compactmdp.sim.Scenario`."""
    scenario = Scenario()
    node_fields = {}
    duration = None
    changes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        with _on_line(lineno):
            if line.startswith("at "):
                changes.append((lineno, _parse_change(line)))
                continue
            key, sep, value_text = line.partition("=")
            if not sep:
                raise ValueError(f"expected 'key = value', got {raw!r}")
            key = key.strip()
            value = _parse_value(key, value_text.strip())
            if key == "seed":
                scenario = replace(scenario, seed=value)
            elif key == "duration":
                duration = (lineno, value)
            else:
                node_fields[key] = value

    node = replace(NodeConfig(), **node_fields)
    try:
        node.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Each change, applied in time order on top of the ones before it, must
    # leave a valid node, as it will when the simulator applies it.
    in_force = node
    for lineno, change in sorted(changes, key=lambda item: item[1].time):
        with _on_line(lineno):
            in_force = apply_change(in_force, change)
    scenario = replace(
        scenario, node=node, schedule=tuple(change for _, change in changes)
    )
    if duration is not None:
        lineno, seconds = duration
        with _on_line(lineno):
            if not math.isfinite(seconds):
                raise ValueError(f"duration {seconds} is not finite")
            frames = floor_frames(seconds, node.frame_period)
            if frames < 1:
                raise ValueError(f"duration {seconds} is shorter than one frame")
        scenario = replace(scenario, duration_frames=frames)
    return scenario


def default_scenario_text():
    """Contents of the packaged default scenario file."""
    return (
        resources.files("compactmdp").joinpath("data/default_scenario.cfg").read_text()
    )


def load_scenario(source=DEFAULT_NAME):
    """Load a scenario from a file path, or the packaged default.

    ``source`` may be the literal ``"default"`` or a filesystem path.
    """
    if source == DEFAULT_NAME:
        return parse_scenario(default_scenario_text())
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {source!r}: {exc}") from exc
    return parse_scenario(text)
