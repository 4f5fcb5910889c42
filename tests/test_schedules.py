"""Property tests over random environment schedules.

Valid schedules must parse back to the same changes and keep the simulator's
exact packet conservation and bitwise determinism.  A schedule with one bad
change must fail at parse time with the bad line named, and in ``simulate``
before frame 0.
"""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactmdp import (
    ConfigError,
    NodeConfig,
    Scenario,
    ScheduleChange,
    make_controller,
    parse_scenario,
    simulate,
)
from compactmdp.sim import SCHEDULABLE_FIELDS, SERIES_LABELS
from support import render

FRAMES = 500
#: Change times reach past the end of the run (FRAMES frames of 0.1 s).
TIMES = st.floats(0.0, 60.0)
PROBS = st.floats(0.0, 1.0)


def schedule_text(changes):
    return "".join(
        f"at {c.time!r} set {c.parameter} = {render(c.value)}\n" for c in changes
    )


def stochastic_rows(p, q):
    return ((p, 1.0 - p), (q, 1.0 - q))


#: Values each schedulable field may take on the default two-mode node.
VALID_VALUES = {
    "connect_time": st.floats(0.1, 5.0),
    "app_packet_prob": st.tuples(PROBS, PROBS),
    "app_transition": st.builds(stochastic_rows, PROBS, PROBS),
}

#: Values that leave the default two-mode node invalid.
BAD_VALUES = {
    "connect_time": st.one_of(
        st.floats(max_value=0.09, allow_infinity=False), st.sampled_from([math.inf, math.nan])
    ),
    "app_packet_prob": st.one_of(
        st.tuples(PROBS),
        st.tuples(PROBS, PROBS, PROBS),
        st.tuples(PROBS, st.sampled_from([-0.5, 1.5, math.nan])),
    ),
    "app_transition": st.one_of(
        st.just(((0.5, 0.9), (0.5, 0.5))),
        st.just(((1.1, -0.1), (0.5, 0.5))),
        st.just(((0.5, 0.5), (1.0,))),
        st.just(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
        st.just(((math.nan, math.nan), (0.5, 0.5))),
    ),
}

UNSCHEDULABLE = [f.name for f in fields(NodeConfig) if f.name not in SCHEDULABLE_FIELDS]


@st.composite
def valid_changes(draw):
    parameter = draw(st.sampled_from(SCHEDULABLE_FIELDS))
    return ScheduleChange(draw(TIMES), parameter, draw(VALID_VALUES[parameter]))


@st.composite
def bad_change_args(draw):
    """``(time, parameter, value)`` of a change that must be refused."""
    kind = draw(st.sampled_from(["time", "parameter", "value"]))
    parameter = draw(st.sampled_from(SCHEDULABLE_FIELDS))
    value = draw(VALID_VALUES[parameter])
    time = draw(TIMES)
    if kind == "time":
        time = draw(
            st.one_of(
                st.floats(max_value=-1e-9, allow_infinity=False),
                st.sampled_from([math.inf, -math.inf, math.nan]),
            )
        )
    elif kind == "parameter":
        parameter = draw(st.sampled_from(UNSCHEDULABLE))
        value = getattr(NodeConfig(), parameter)
    else:
        value = draw(BAD_VALUES[parameter])
    return time, parameter, value


class Untouched:
    def act(self, state):
        raise AssertionError("the run started")

    def hold(self, s, action, reward, k):
        return 0


@settings(max_examples=40, deadline=None)
@given(
    changes=st.lists(valid_changes(), max_size=4),
    series=st.sampled_from(SERIES_LABELS),
    seed=st.integers(0, 2**32),
)
def test_valid_schedules_conserve_packets_and_repeat_bit_for_bit(changes, series, seed):
    parsed = parse_scenario(f"seed = {seed}\n" + schedule_text(changes))
    assert parsed.schedule == tuple(changes)

    value = 3 if series == "on-off" else 5.0
    runs = []
    for scenario in (parsed, Scenario(seed=seed, schedule=tuple(changes))):
        controller = make_controller(series, scenario.node, value, seed=seed)
        runs.append(simulate(replace(scenario, duration_frames=FRAMES), controller))
    first, second = runs
    # Distinct floats have distinct reprs, and NaN fields compare equal as text.
    assert repr(first) == repr(second)
    assert first.packets_generated == (
        first.packets_transmitted + first.packets_dropped + first.packets_queued_at_end
    )


@settings(max_examples=60, deadline=None)
@given(
    before=st.lists(valid_changes(), max_size=3),
    after=st.lists(valid_changes(), max_size=3),
    bad=bad_change_args(),
)
def test_a_bad_change_fails_on_its_line_and_before_frame_zero(before, after, bad):
    time, parameter, value = bad
    bad_line = f"at {time!r} set {parameter} = {render(value)}\n"
    text = "seed = 1\n" + schedule_text(before) + bad_line + schedule_text(after)
    with pytest.raises(ConfigError, match=f"^line {len(before) + 2}: "):
        parse_scenario(text)

    # Built in code, the change is refused when constructed or when the run starts.
    with pytest.raises(ValueError):
        schedule = (*before, ScheduleChange(time, parameter, value), *after)
        simulate(Scenario(duration_frames=FRAMES, schedule=schedule), Untouched())
