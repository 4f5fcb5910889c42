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

Unknown keys are an error so typos fail loudly.  Values are checked where they
are built, by ``NodeConfig`` and ``Scenario``; every fault is a :class:`ConfigError`
naming the line that set what it concerns.  The packaged ``default_scenario.cfg``
documents every key and is what ``load_scenario("default")`` returns.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

from .node import NodeConfig, NodeConfigError, floor_frames
from .sim import Scenario, ScheduleChange, ScheduleError

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


def duration_frames(seconds, frame_period):
    """The whole frames of a run ``seconds`` long, refusing one shorter than a frame."""
    frames = floor_frames(seconds, frame_period)
    if frames < 1:
        raise ValueError(f"duration {seconds} is shorter than one frame")
    return frames


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
        return tuple(
            _parse_value(key, row, sample[0]) for row in text.split(";") if row.strip()
        )
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


def _node_error(exc, node_fields):
    """``exc``'s faults as one :class:`ConfigError`, each named by the line that set
    the first of its fields the file sets (no line if it sets none)."""
    by_line = {}
    for names, message in exc.faults:
        lineno = next((node_fields[n][0] for n in names if n in node_fields), 0)
        by_line.setdefault(lineno, []).append(message)
    return ConfigError("; ".join(
        (f"line {n}: " if n else "") + "invalid node config: " + "; ".join(messages)
        for n, messages in sorted(by_line.items())
    ))


def parse_scenario(text):
    """Parse scenario file contents into a :class:`~compactmdp.sim.Scenario`."""
    scenario = Scenario()
    node_fields = {}  # key: (line number, value)
    duration = None
    changes = []  # (line number, change)
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
                node_fields[key] = (lineno, value)

    try:
        node = NodeConfig(**{key: value for key, (_, value) in node_fields.items()})
    except NodeConfigError as exc:
        raise _node_error(exc, node_fields) from exc
    frames = scenario.duration_frames
    if duration is not None:
        lineno, seconds = duration
        with _on_line(lineno):
            frames = duration_frames(seconds, node.frame_period)
    schedule = tuple(change for _, change in changes)
    try:
        return replace(scenario, node=node, duration_frames=frames, schedule=schedule)
    except ScheduleError as exc:
        raise ConfigError(f"line {changes[exc.index][0]}: {exc}") from exc


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
