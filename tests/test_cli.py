"""Command-line interface: subcommands, formats, exit codes."""

import shutil
import subprocess

import pytest

import compactmdp.controllers as controllers
from compactmdp.cli import main
from compactmdp.core import ConvergenceError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        def boom(spec, max_iterations):
            raise ConvergenceError("no convergence today", None, max_iterations)

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

    def test_threshold_above_capacity_is_a_clean_failure(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--methods", "on-off", "--nq-values", "50",
            "--seeds", "1", "--duration", "30",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "capacity" in err

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
