"""Scenario configuration files.

Plain-text key = value format, one setting per line:

* ``#`` starts a comment; blank lines are ignored.
* Scalars: ``frame_period = 0.1``.
* Vectors: whitespace-separated, ``app_packet_prob = 0.05 1.0``.
* Matrices: rows separated by ``;``, ``app_transition = 0.99 0.01 ; 0.05 0.95``.
* Timed environment changes: ``at <seconds> set <parameter> = <value>`` with
  the same value syntax; parameters are limited to the schedulable set
  (``connect_time``, ``app_transition``, ``app_packet_prob``).

Node keys mirror :class:`compactmdp.node.NodeConfig` fields; scenario keys are
``duration`` (seconds) and ``seed``.  Unknown keys are an error so typos fail
loudly.  The packaged ``default_scenario.cfg`` documents every key and is what
``load_scenario("default")`` returns.
"""

from __future__ import annotations

import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .node import NodeConfig, floor_frames
from .sim import SCHEDULABLE_FIELDS, Scenario, ScheduleChange, apply_change

DEFAULT_NAME = "default"

_VECTOR_KEYS = {"app_packet_prob", "currents_ma", "reward_weights"}
_MATRIX_KEYS = {"app_transition"}
_SCALAR_KEYS = {
    "queue_states": int,
    "frame_period": float,
    "connect_time": float,
    "current_scale": float,
    "tx_per_frame": int,
    "energy_c1": float,
    "energy_c2": float,
    "discount": float,
    "tolerance": float,
}
_SCENARIO_KEYS = {"duration": float, "seed": int}


class ConfigError(ValueError):
    """A scenario file could not be parsed or failed validation."""


def _parse_vector(text, where):
    try:
        return tuple(float(tok) for tok in text.split())
    except ValueError as exc:
        raise ConfigError(f"{where}: bad number in {text!r}") from exc


def _parse_matrix(text, where):
    rows = [row.strip() for row in text.split(";")]
    return tuple(_parse_vector(row, where) for row in rows if row)


def _parse_value(key, text, where):
    if key in _MATRIX_KEYS:
        return _parse_matrix(text, where)
    if key in _VECTOR_KEYS:
        return _parse_vector(text, where)
    if key in _SCALAR_KEYS:
        caster = _SCALAR_KEYS[key]
        try:
            return caster(text) if caster is not float else float(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key} expects {caster.__name__}, got {text!r}") from exc
    raise ConfigError(f"{where}: unknown key {key!r}")


def parse_scenario(text):
    """Parse scenario file contents into a :class:`~compactmdp.sim.Scenario`."""
    node_fields = {}
    duration = None
    seed = 0
    changes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("at "):
            head, _, value_text = line.partition("=")
            parts = head.split()
            if len(parts) != 4 or parts[0] != "at" or parts[2] != "set" or not value_text:
                raise ConfigError(
                    f"{where}: schedule lines read 'at <seconds> set <parameter> = <value>'"
                )
            try:
                when = float(parts[1])
            except ValueError as exc:
                raise ConfigError(f"{where}: bad time {parts[1]!r}") from exc
            if not math.isfinite(when):
                raise ConfigError(f"{where}: bad time {parts[1]!r}")
            parameter = parts[3]
            if parameter not in SCHEDULABLE_FIELDS:
                raise ConfigError(
                    f"{where}: {parameter!r} is not schedulable "
                    f"(one of {SCHEDULABLE_FIELDS})"
                )
            changes.append(
                (where, ScheduleChange(
                    when, parameter, _parse_value(parameter, value_text.strip(), where)
                ))
            )
            continue
        key, sep, value_text = line.partition("=")
        if not sep:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value_text = value_text.strip()
        if key in _SCENARIO_KEYS:
            try:
                value = _SCENARIO_KEYS[key](value_text)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad {key} {value_text!r}") from exc
            if key == "duration":
                duration = value
            else:
                seed = value
            continue
        node_fields[key] = _parse_value(key, value_text, where)

    node = replace(NodeConfig(), **node_fields) if node_fields else NodeConfig()
    try:
        node.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Each change, applied in time order on top of the ones before it, must
    # leave a valid node, as it will when the simulator applies it.
    in_force = node
    for where, change in sorted(changes, key=lambda item: item[1].time):
        try:
            in_force = apply_change(in_force, change)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    scenario = Scenario(
        node=node, seed=seed, schedule=tuple(change for _, change in changes)
    )
    if duration is not None:
        if not math.isfinite(duration):
            raise ConfigError(f"duration {duration} is not finite")
        frames = floor_frames(duration, node.frame_period)
        if frames < 1:
            raise ConfigError(f"duration {duration} is shorter than one frame")
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
