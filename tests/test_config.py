"""Scenario file parsing and the packaged default scenario."""

from dataclasses import fields

import pytest

from compactmdp import ConfigError, NodeConfig, load_scenario, parse_scenario
from compactmdp.config import _node_error, default_scenario_text
from compactmdp.node import NodeConfigError
from support import render

#: A valid node that differs from the defaults in every field.
OTHER_NODE = NodeConfig(
    queue_states=7,
    app_transition=((0.8, 0.2, 0.0), (0.1, 0.8, 0.1), (0.0, 0.5, 0.5)),
    app_packet_prob=(0.1, 0.5, 1.0),
    frame_period=0.25,
    connect_time=1.5,
    currents_ma=(1.0, 100.0, 150.0),
    tx_per_frame=3,
    energy_c1=5.0,
    energy_c2=1.25,
    reward_weights=(-1.0, 2.0, -50.0),
    discount=0.9,
    tolerance=1e-8,
)


class TestDefaultScenario:
    def test_node_matches_the_dataclass_defaults(self):
        scenario = load_scenario()
        assert scenario.node == NodeConfig()

    def test_run_length_and_seed(self):
        scenario = load_scenario()
        assert scenario.duration_frames == 270000
        assert scenario.duration_seconds == pytest.approx(27000.0)
        assert scenario.seed == 0

    def test_schedule_steps(self):
        schedule = load_scenario().schedule
        assert [c.time for c in schedule] == [3000.0, 5400.0]
        assert schedule[0].parameter == "app_transition"
        assert schedule[0].value == ((0.98, 0.02), (0.2, 0.8))
        assert schedule[1].parameter == "connect_time"
        assert schedule[1].value == 4.0

    def test_default_keyword_and_file_path_agree(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(default_scenario_text())
        assert load_scenario(str(path)) == load_scenario()


class TestParseScenario:
    def test_minimal_file_uses_defaults(self):
        scenario = parse_scenario("# nothing but comments\n\n")
        assert scenario.node == NodeConfig()
        assert scenario.seed == 0
        assert scenario.schedule == ()

    def test_scalar_vector_and_matrix_values(self):
        scenario = parse_scenario(
            """
            queue_states = 6
            connect_time = 1.5
            app_packet_prob = 0.2 1.0
            app_transition = 0.9 0.1 ; 0.3 0.7
            duration = 10
            seed = 42
            """
        )
        assert scenario.node.queue_states == 6
        assert scenario.node.connect_time == 1.5
        assert scenario.node.app_packet_prob == (0.2, 1.0)
        assert scenario.node.app_transition == ((0.9, 0.1), (0.3, 0.7))
        assert scenario.duration_frames == 100
        assert scenario.seed == 42

    def test_inline_comments_are_stripped(self):
        scenario = parse_scenario("seed = 7  # lucky\n")
        assert scenario.seed == 7

    def test_every_node_field_round_trips(self):
        assert all(getattr(OTHER_NODE, f.name) != f.default for f in fields(NodeConfig))
        text = "".join(
            f"{f.name} = {render(getattr(OTHER_NODE, f.name))}\n" for f in fields(NodeConfig)
        )
        assert parse_scenario(text).node == OTHER_NODE

    def test_schedule_line(self):
        scenario = parse_scenario("at 120 set connect_time = 3.0\n")
        (change,) = scenario.schedule
        assert change.time == 120.0
        assert change.parameter == "connect_time"
        assert change.value == 3.0

    def test_unknown_key_fails_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3.*frame_rate"):
            parse_scenario("seed = 1\n\nframe_rate = 10\n")

    def test_bad_number_fails_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_scenario("connect_time = fast\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_scenario("queue_states 6\n")

    def test_malformed_schedule_line(self):
        with pytest.raises(ConfigError, match="bad time"):
            parse_scenario("at noon set connect_time = 3.0\n")
        with pytest.raises(ConfigError, match="at <seconds> set"):
            parse_scenario("at 10 connect_time = 3.0\n")

    def test_unschedulable_parameter(self):
        with pytest.raises(ConfigError, match="not schedulable"):
            parse_scenario("at 10 set discount = 0.9\n")

    def test_invalid_node_settings_are_caught(self):
        with pytest.raises(ConfigError):
            parse_scenario("discount = 1.5\n")
        with pytest.raises(ConfigError):
            parse_scenario("app_transition = 0.9 0.2 ; 0.3 0.7\n")

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("at 10 set app_packet_prob = 0.5", "does not match 1 modes"),
            ("at 10 set app_transition = 0.5 0.9 ; 0.5 0.5", "do not sum to 1"),
            ("at 20 set connect_time = 0.01", "shorter than one frame"),
        ],
    )
    def test_invalid_schedule_value_fails_with_line_number(self, line, problem):
        with pytest.raises(ConfigError, match=f"line 2: .*{problem}"):
            parse_scenario(f"seed = 1\n{line}\n")

    @pytest.mark.parametrize(
        "line",
        [
            "tolerance = nan",
            "tolerance = inf",
            "frame_period = nan",
            "connect_time = nan",
            "connect_time = inf",
            "currents_ma = 0 nan 1",
            "energy_c1 = inf",
            "reward_weights = -10 nan -100",
            "app_packet_prob = nan 1.0",
            "app_transition = nan nan ; 0.5 0.5",
        ],
    )
    def test_non_finite_or_negative_node_value_is_rejected(self, line):
        with pytest.raises(ConfigError, match="invalid node config"):
            parse_scenario(f"seed = 1\n{line}\n")

    @pytest.mark.parametrize(
        "line",
        [
            "at 10 set tolerance = nan",
            "at 10 set frame_period = nan",
            "at 10 set connect_time = nan",
            "at 10 set connect_time = inf",
            "at 10 set currents_ma = 0 nan 1",
            "at 10 set app_packet_prob = nan 1.0",
            "at 10 set app_transition = nan nan ; 0.5 0.5",
            "at nan set connect_time = 3.0",
            "at inf set connect_time = 3.0",
        ],
    )
    def test_non_finite_schedule_line_fails_with_line_number(self, line):
        with pytest.raises(ConfigError, match="line 2: "):
            parse_scenario(f"seed = 1\n{line}\n")

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("seed = -1", "seed must be >= 0"),
            ("seed = 1.5", "seed expects int"),
            ("tx_per_frame = 2.5", "tx_per_frame expects int"),
            ("app_transition = 0.5 0.5 ; 1.0", r"unequal lengths \[2, 1\]"),
            ("at 10 set app_transition = 0.5 0.5 ; 1.0", "unequal lengths"),
            ("at -5 set connect_time = 3", "time must be finite and >= 0"),
            ("at 10 set bogus = 1", "unknown key 'bogus'"),
            ("current_scale = 1.0", "unknown key 'current_scale'"),
            ("duration = 0.01", "duration 0.01 is shorter than one frame"),
            ("duration = inf", "duration inf is not finite"),
        ],
    )
    def test_fault_on_a_line_names_the_line(self, line, problem):
        with pytest.raises(ConfigError, match=f"^line 2: .*{problem}"):
            parse_scenario(f"seed = 1\n{line}\nqueue_states = 6\n")

    @pytest.mark.parametrize(
        "line",
        [
            "queue_states = 1",
            "app_packet_prob =",
            "app_transition = 0.9 0.2 ; 0.3 0.7",
            "app_transition = 1 0 0 ; 0 1 0 ; 0 0 1",
            "app_packet_prob = 0.05 1.5",
            "app_packet_prob = 0.5",
            "frame_period = -0.1",
            "connect_time = 0.05",
            "currents_ma = 0 120",
            "currents_ma = 0 -1 1",
            "tx_per_frame = 0",
            "reward_weights = 1 2",
            "energy_c2 = nan",
            "discount = 1.5",
            "tolerance = 0",
        ],
    )
    def test_node_fault_names_the_line_that_set_the_field(self, line):
        with pytest.raises(ConfigError, match="^line 2: .*invalid node config"):
            parse_scenario(f"seed = 1\n{line}\nduration = 10\n")

    def test_node_fault_reads_as_the_line_and_the_rule(self):
        with pytest.raises(ConfigError) as caught:
            parse_scenario("seed = 1\ndiscount = 1.5\n")
        assert str(caught.value) == (
            "line 2: invalid node config: discount must be in [0, 1), got 1.5"
        )

    def test_cross_field_fault_names_the_line_that_was_set(self):
        # connect_time keeps its 2.0 s default, so frame_period's line is named.
        with pytest.raises(ConfigError, match="^line 2: .*connect_time 2.0 .*shorter"):
            parse_scenario("seed = 1\nframe_period = 3\nqueue_states = 6\n")

    def test_faults_on_several_lines_name_each_line(self):
        with pytest.raises(ConfigError) as caught:
            parse_scenario("tolerance = 0\nseed = 1\ndiscount = 1.5\n")
        assert str(caught.value) == (
            "line 1: invalid node config: tolerance must be finite and > 0, got 0.0; "
            "line 3: invalid node config: discount must be in [0, 1), got 1.5"
        )

    def test_fault_in_fields_the_file_never_set_names_no_line(self):
        fault = NodeConfigError([(("discount",), "discount must be in [0, 1), got 1.5")])
        assert str(_node_error(fault, {"tolerance": (2, 1e-8)})) == (
            "invalid node config: discount must be in [0, 1), got 1.5"
        )

    def test_bad_schedule_line_is_named_not_the_node_line_it_conflicts_with(self):
        # The change is checked against the node once the whole file is read;
        # the fault is the change's, on line 2, not frame_period's on line 3.
        with pytest.raises(ConfigError, match="^line 2: .*shorter than one frame"):
            parse_scenario("seed = 1\nat 10 set connect_time = 0.5\nframe_period = 1.0\n")

    def test_schedule_changes_are_checked_in_time_order(self):
        # Three modes arrive in two steps; each step must be valid once the
        # earlier ones (by time, not by line) are in force.
        three_modes = "at 10 set app_transition = 0.4 0.3 0.3 ; 0.3 0.4 0.3 ; 0.3 0.3 0.4"
        text = f"at 20 set app_packet_prob = 0.1 0.2 0.3\n{three_modes}\n"
        with pytest.raises(ConfigError, match="line 2: .*does not match 2 modes"):
            parse_scenario(text)

    def test_sub_frame_duration(self):
        with pytest.raises(ConfigError, match="duration"):
            parse_scenario("duration = 0.01\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_duration(self, value):
        with pytest.raises(ConfigError, match="duration .* not finite"):
            parse_scenario(f"duration = {value}\n")


class TestLoadScenario:
    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "fast.cfg"
        path.write_text("connect_time = 0.5\nduration = 3.0\nseed = 9\n")
        scenario = load_scenario(str(path))
        assert scenario.node.connect_time == 0.5
        assert scenario.duration_frames == 30
        assert scenario.seed == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(str(tmp_path / "nope.cfg"))
