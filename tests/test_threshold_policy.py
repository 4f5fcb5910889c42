"""The planner's policy is a queue threshold in every (app mode, modem) column.

In each column, the policy ``svi_solve`` returns switches from off to on at
most once as the queue grows.  No proof is known; this checks the claim on
random nodes within the scope where it was measured to hold:

* 1-4 app modes, 2-30 queue levels, random ``app_transition`` rows and
  packet probabilities in [0, 1], ``tx_per_frame`` 1-3, and an attach of
  1-50 frames of 0.01-1 s;
* currents with the off current at most the connecting and the connected
  one (each 0-1 000 mA);
* reward weights ``w_current, w_drop < 0 < w_tx``, each magnitude in
  [1e-3, 1e3], drawn log-uniformly;
* discount in [0.5, 0.99] and tolerance in [1e-9, 1e-6].

Outside that scope it fails for some valid nodes.  On the draws of
``test_node_contract.valid_configs`` (unsigned weights, a discount down to 0,
a tolerance up to 1e-2) many columns are not thresholds, and with the signs
above some nodes whose off current exceeds an on-state current fail too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from compactmdp import NodeConfig, build_mdp, svi_solve
from compactmdp.node import ACTION_ON, N_MODEM_STATES
from test_node_contract import floats, stochastic_rows


def magnitude(draw):
    return 10.0 ** draw(floats(-3.0, 3.0))


@st.composite
def planning_nodes(draw):
    modes = draw(st.integers(1, 4))
    frame_period = draw(floats(0.01, 1.0))
    off = draw(floats(0.0, 500.0))
    return NodeConfig(
        queue_states=draw(st.integers(2, 30)),
        app_transition=draw(stochastic_rows(modes)),
        app_packet_prob=tuple(
            draw(st.lists(floats(0.0, 1.0), min_size=modes, max_size=modes))
        ),
        frame_period=frame_period,
        connect_time=frame_period * draw(floats(1.0, 50.0)),
        currents_ma=(off, off + draw(floats(0.0, 500.0)), off + draw(floats(0.0, 500.0))),
        tx_per_frame=draw(st.integers(1, 3)),
        reward_weights=(-magnitude(draw), magnitude(draw), -magnitude(draw)),
        discount=draw(floats(0.5, 0.99)),
        tolerance=draw(floats(1e-9, 1e-6)),
    )


@settings(max_examples=250, deadline=None)
@given(planning_nodes())
def test_the_policy_is_a_queue_threshold_in_every_column(config):
    policy = svi_solve(build_mdp(config)).policy
    on = policy.reshape(config.n_app_modes, config.queue_states, N_MODEM_STATES) == ACTION_ON
    # Along the queue axis, an on cell is never followed by an off one.
    assert (on[:, 1:] >= on[:, :-1]).all()
