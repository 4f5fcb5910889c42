"""Command-line interface: subcommands, formats, exit codes."""

import shutil
import subprocess

import pytest

import compactmdp.controllers as controllers
from compactmdp import sim
from compactmdp.cli import main
from compactmdp.core import DEFAULT_MAX_ITERATIONS, ConvergenceError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: A 3-mode, 5-level node in 0.2 s frames: 45 states, 20 s runs of 100 frames.
THREE_MODES = """\
app_transition = 0.8 0.2 0.0 ; 0.1 0.8 0.1 ; 0.0 0.5 0.5
app_packet_prob = 0.1 0.5 1.0
queue_states = 5
frame_period = 0.2
duration = 20
"""


class TestConfigOption:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("solve",), "states=45 actions=2 rows=90"),
            (("simulate", "--method", "on-off"), "method=on-off seed=0 frames=100"),
            (("sweep", "--methods", "on-off", "--nq-values", "2", "--seeds", "1"),
             "on-off,queue_threshold,2,1,"),
            (("storage",), "5,45,"),
            (("power",), "learned_parameters: ql=90 structured=10"),
        ],
    )
    def test_every_subcommand_reads_the_scenario_file(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "three.cfg"
        path.write_text(THREE_MODES)
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert (code, err) == (0, "")
        assert expected in out

    def test_power_takes_the_scenarios_frame_period(self, capsys, tmp_path):
        path = tmp_path / "three.cfg"
        path.write_text(THREE_MODES)
        _, out, _ = run_cli(capsys, "power", "--config", str(path))
        assert "update_period_s=3600.0 frame_period_s=0.2" in out
        # 7.06 uJ per 0.2 s frame plus the 8.2 uW sleep floor.
        assert "ql: average_power_uw=43.5" in out


class TestSolve:
    def test_summary_lines(self, capsys):
        code, out, err = run_cli(capsys, "solve")
        assert code == 0
        assert err == ""
        assert "states=66 actions=2 rows=132" in out
        assert "nonzeros=444 sparsity=0.9490" in out
        assert "ratio=19.6x" in out
        assert "policy: modem on in" in out
        # One policy-grid line per (app mode, modem state) pair.
        assert sum(1 for line in out.splitlines() if "queue 0..10:" in line) == 6

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "solve")
        second = run_cli(capsys, "solve")
        assert first == second

    def test_large_packet_reward_turns_everything_on(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--r2", "1000")
        assert "policy: modem on in 66/66 states" in out


class TestSimulate:
    def test_threshold_run(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--method", "on-off", "--queue-threshold", "1",
            "--duration", "50",
        )
        assert code == 0
        assert "method=on-off seed=0 frames=500" in out
        assert "avg_latency_s=" in out
        assert "energy_per_packet_j=" in out
        assert "solves=" not in out

    def test_planner_run_reports_solver_work(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--method", "mdp", "--duration", "20")
        assert code == 0
        assert "solves=1 solver_failures=0 solver_macs=" in out

    def test_planner_run_reports_failed_solves(self, capsys, monkeypatch):
        def boom(spec):
            raise ConvergenceError("no convergence today", None, DEFAULT_MAX_ITERATIONS)

        monkeypatch.setattr(controllers, "svi_solve", boom)
        code, out, _ = run_cli(capsys, "simulate", "--method", "mdp", "--duration", "20")
        assert code == 0
        assert "solves=0 solver_failures=1 solver_macs=0" in out

    def test_seed_override_changes_the_run(self, capsys):
        argv = ("simulate", "--method", "on-off", "--duration", "100")
        _, base, _ = run_cli(capsys, *argv)
        _, same, _ = run_cli(capsys, *argv)
        _, other, _ = run_cli(capsys, *argv, "--seed", "5")
        assert base == same
        assert base != other

    def test_beta_sets_the_q_learning_discount(self, capsys):
        argv = ("simulate", "--method", "ql", "--duration", "900")
        _, base, _ = run_cli(capsys, *argv)
        _, default, _ = run_cli(capsys, *argv, "--beta", "0.95")
        _, myopic, _ = run_cli(capsys, *argv, "--beta", "0.8")
        assert base == default
        assert base != myopic


class TestSweep:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--methods", "on-off", "--nq-values", "1", "2",
            "--seeds", "1", "--duration", "30",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("series,parameter,value,seeds,avg_latency_s")
        assert len(lines) == 3
        assert lines[1].startswith("on-off,queue_threshold,1,1,")

    def test_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "points.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--methods", "on-off", "ql", "--nq-values", "2",
            "--r2-values", "5", "--seeds", "2", "--duration", "30",
            "--out", str(out_path),
        )
        assert code == 0
        assert f"wrote 2 sweep points to {out_path}" in out
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("ql,tx_reward,5,2,")


class TestStorage:
    def test_default_config_row(self, capsys):
        code, out, _ = run_cli(capsys, "storage")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "queue_states,states,nonzeros,dense_bytes,sparse_bytes,"
            "qfunction_bytes,sparsity"
        )
        assert lines[1] == "11,66,444,34848,2664,528,0.9490"

    def test_queue_range_rows(self, capsys):
        code, out, _ = run_cli(capsys, "storage", "--queue-range", "2:4")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["2", "3", "4"]
        assert [r[1] for r in rows] == ["12", "18", "24"]
        # Dense cost grows with the square of the state count.
        assert [r[3] for r in rows] == ["1152", "2592", "4608"]


class TestPower:
    def test_reference_models_and_crossovers(self, capsys):
        code, out, _ = run_cli(capsys, "power")
        assert code == 0
        assert "ql: average_power_uw=78.8" in out
        assert "svi: average_power_uw=61.3144" in out
        assert "crossover svi vs ql: period_s=2693.36" in out
        assert "crossover dense-vi vs svi: period_s=none" in out
        assert "learned_parameters: ql=132 structured=5" in out

    def test_shorter_update_period_raises_solver_power(self, capsys):
        _, hourly, _ = run_cli(capsys, "power")
        _, minutely, _ = run_cli(capsys, "power", "--update-period", "60")

        def svi_uw(text):
            for line in text.splitlines():
                if line.startswith("svi:"):
                    return float(line.split("=")[1])
            raise AssertionError("no svi line")

        assert svi_uw(minutely) > svi_uw(hourly)


class TestErrorHandling:
    def test_missing_config_file_is_a_clean_failure(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "solve", "--config", str(tmp_path / "nope.cfg")
        )
        assert code == 1
        assert err.startswith("error:")

    def test_invalid_config_value_is_a_clean_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("discount = 2.0\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad))
        assert code == 1
        assert "discount" in err

    def test_node_fault_names_its_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 1\ndiscount = 1.5\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(bad))
        assert code == 1
        assert out == ""
        assert err == "error: line 2: invalid node config: discount must be in [0, 1), got 1.5\n"

    def test_threshold_above_capacity_is_a_clean_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--methods", "on-off", "--nq-values", "50",
            "--seeds", "1", "--duration", "30",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "capacity" in err

    def test_bad_grid_value_fails_before_any_run(self, capsys, tmp_path, monkeypatch):
        def unreachable(scenario, controller):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(sim, "simulate", unreachable)
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--methods", "mdp", "ql", "on-off", "--nq-values", "20",
            "--seeds", "1", "--duration", "3000", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: queue threshold 20 is above the queue capacity 10; "
            "the modem would never connect\n"
        )
        assert not out_path.exists()

    def test_zero_seeds_is_a_clean_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--methods", "on-off", "--nq-values", "2",
            "--seeds", "0", "--duration", "10",
        )
        assert code == 1
        assert out == ""
        assert err == "error: a sweep needs at least one seed\n"

    def test_invalid_schedule_value_is_a_clean_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = 1\nat 10 set app_packet_prob = 0.5\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad))
        assert code == 1
        assert err.startswith("error: line 2:")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("at -5 set connect_time = 3", "schedule time must be finite and >= 0"),
            ("app_transition = 0.5 0.5 ; 1.0", "unequal lengths"),
            ("seed = -1", "seed must be >= 0"),
        ],
    )
    def test_bad_line_is_one_error_naming_it(self, capsys, tmp_path, text, problem):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"# a scenario\n{text}\n")
        code, out, err = run_cli(
            capsys, "simulate", "--method", "on-off", "--duration", "10",
            "--config", str(bad),
        )
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: line 2: ")
        assert problem in line

    def test_negative_seed_option_names_the_seed(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--method", "on-off", "--duration", "10", "--seed", "-1"
        )
        assert code == 1
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    def test_non_finite_app_transition_is_a_clean_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("app_transition = nan nan ; 0.5 0.5\n")
        code, out, err = run_cli(
            capsys, "simulate", "--method", "mdp", "--config", str(bad)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "non-finite" in err

    def test_non_finite_duration_is_a_clean_failure(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--duration", "inf")
        assert code == 1
        assert err.startswith("error:")

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["storage", "--queue-range", "4"])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestInstalledEntryPoint:
    def test_console_script_runs(self):
        exe = shutil.which("compactmdp")
        assert exe, "console script not on PATH; install the package first"
        proc = subprocess.run(
            [exe, "storage"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "11,66,444,34848,2664,528" in proc.stdout
