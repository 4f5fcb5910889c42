"""A ``NodeConfig`` is valid by construction.

This is the contract that lets the model build, the controllers and the
simulator take a node as given: every config that constructs yields an MDP the
solvers accept, and every out-of-range field value is refused when the config
is built, directly or through ``dataclasses.replace``, with the fault naming
that field.
"""

import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactmdp import NodeConfig, build_mdp, svi_solve
from compactmdp.node import NodeConfigError

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def stochastic_rows(draw, n):
    weights = np.array(
        [draw(st.lists(floats(0.01, 1.0), min_size=n, max_size=n)) for _ in range(n)]
    )
    return tuple(map(tuple, (weights / weights.sum(axis=1, keepdims=True)).tolist()))


@st.composite
def valid_configs(draw):
    """A small valid node: 1-3 app modes and 2-8 queue levels."""
    modes = draw(st.integers(1, 3))
    frame_period = draw(floats(0.01, 1.0))
    return NodeConfig(
        queue_states=draw(st.integers(2, 8)),
        app_transition=draw(stochastic_rows(modes)),
        app_packet_prob=tuple(
            draw(st.lists(floats(0.0, 1.0), min_size=modes, max_size=modes))
        ),
        frame_period=frame_period,
        connect_time=frame_period * draw(floats(1.0, 50.0)),
        currents_ma=tuple(draw(st.lists(floats(0.0, 500.0), min_size=3, max_size=3))),
        tx_per_frame=draw(st.integers(1, 3)),
        energy_c1=draw(floats(0.0, 20.0)),
        energy_c2=draw(floats(0.0, 5.0)),
        reward_weights=tuple(draw(st.lists(floats(-1e3, 1e3), min_size=3, max_size=3))),
        discount=draw(floats(0.0, 0.95)),
        tolerance=draw(floats(1e-6, 1e-2)),
    )


def with_entry(values, bad, draw):
    """``values`` with one entry, chosen by ``draw``, replaced by ``bad``."""
    i = draw(st.integers(0, len(values) - 1))
    return values[:i] + (bad,) + values[i + 1 :]


@st.composite
def bad_values(draw, config):
    """``(field, value)``: one field of ``config`` set out of range."""
    name = draw(st.sampled_from([f.name for f in fields(NodeConfig)]))
    sigma = config.app_transition
    modes = config.n_app_modes
    if name == "queue_states":
        value = draw(st.integers(-5, 1))
    elif name == "app_transition":
        kind = draw(st.sampled_from(["sum", "negative", "non-finite", "shape", "ragged"]))
        if kind == "sum":
            value = with_entry(sigma, tuple(p * 1.5 + 0.1 for p in sigma[0]), draw)
        elif kind == "negative":
            row = (1.5, -0.5) + (0.0,) * (modes - 2) if modes > 1 else (-1.0,)
            value = with_entry(sigma, row, draw)
        elif kind == "non-finite":
            value = with_entry(sigma, (draw(NON_FINITE),) * modes, draw)
        elif kind == "shape":
            value = tuple(row + (0.0,) for row in sigma) + ((0.0,) * modes + (1.0,),)
        else:
            value = sigma + ((1.0,),)
    elif name == "app_packet_prob":
        bad = draw(st.one_of(floats(-10.0, -1e-9), floats(1.0 + 1e-9, 10.0), NON_FINITE))
        value = with_entry(config.app_packet_prob, bad, draw)
    elif name == "frame_period":
        kind = draw(st.sampled_from(["non-positive", "non-finite", "above connect_time"]))
        if kind == "non-positive":
            value = draw(floats(-1.0, 0.0))
        elif kind == "non-finite":
            value = draw(NON_FINITE)
        else:
            value = config.connect_time * draw(floats(1.01, 10.0))
    elif name == "connect_time":
        shorter_than_a_frame = floats(-1.0, 0.99).map(config.frame_period.__mul__)
        value = draw(st.one_of(shorter_than_a_frame, NON_FINITE))
    elif name == "currents_ma":
        kind = draw(st.sampled_from(["length", "value"]))
        if kind == "length":
            value = config.currents_ma[: draw(st.integers(0, 2))]
        else:
            bad = draw(st.one_of(floats(-100.0, -1e-9), NON_FINITE))
            value = with_entry(config.currents_ma, bad, draw)
    elif name == "tx_per_frame":
        value = draw(st.integers(-3, 0))
    elif name in ("energy_c1", "energy_c2"):
        value = draw(NON_FINITE)
    elif name == "reward_weights":
        kind = draw(st.sampled_from(["length", "value"]))
        if kind == "length":
            value = config.reward_weights[: draw(st.integers(0, 2))]
        else:
            value = with_entry(config.reward_weights, draw(NON_FINITE), draw)
    elif name == "discount":
        value = draw(st.one_of(floats(-1.0, -1e-9), floats(1.0, 2.0), NON_FINITE))
    else:
        assert name == "tolerance"
        value = draw(st.one_of(floats(-1.0, 0.0), NON_FINITE))
    return name, value


@settings(max_examples=80, deadline=None)
@given(valid_configs())
def test_every_valid_node_builds_an_mdp_the_solvers_accept(config):
    spec = build_mdp(config)  # MdpSpec refuses an invalid model
    result = svi_solve(spec)
    assert result.policy.shape == (config.n_states,)
    assert np.isfinite(result.values).all()


@st.composite
def faulty_nodes(draw):
    config = draw(valid_configs())
    return config, draw(bad_values(config))


@settings(max_examples=200, deadline=None)
@given(faulty_nodes())
def test_an_out_of_range_value_is_refused_when_built_and_when_replaced(case):
    config, (name, value) = case
    for build in (
        lambda: NodeConfig(**{**asdict(config), name: value}),
        lambda: replace(config, **{name: value}),
    ):
        with pytest.raises(NodeConfigError) as caught:
            build()
        assert str(caught.value).startswith("invalid node config: ")
        assert any(name in names for names, _ in caught.value.faults)


def test_each_fault_names_its_fields():
    with pytest.raises(NodeConfigError) as caught:
        NodeConfig(discount=1.5, frame_period=3.0, app_packet_prob=(0.5,))
    assert [names for names, _ in caught.value.faults] == [
        ("app_transition", "app_packet_prob"),
        ("connect_time", "frame_period"),
        ("discount",),
    ]
