"""Tests of the benchmark itself, on its seconds-long ``short`` profile.

Run from the root of the checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["sweep", "replan", "solve-large"]
TIMEOUT_S = 180


def bench(workload, trace=0, refs=None, cwd=ROOT, run_py=BENCH / "run.py"):
    command = [
        sys.executable, str(run_py), "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--profile", "short",
    ]
    if refs is not None:
        command += ["--refs", str(refs)]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S, check=False
    )


@functools.cache
def result(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_mode_emits_every_metric_with_its_unit(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_account_for_the_wall_time(workload):
    metrics = {name: m["value"] for name, m in result(workload, 1)["metrics"].items()}
    assert 95.0 <= metrics["trace.accounted_pct"] <= 100.0


def corrupt(workload, refs):
    """Change one recorded value of every pool entry."""
    if workload == "solve-large":
        path = refs / "solve-large.npz"
        with np.load(path) as data:
            policy, values = data["policy"], data["values"].copy()
        values[:, 0] += 1e-6
        np.savez_compressed(path, policy=policy, values=values)
        return
    path = refs / f"{workload}.json"
    data = json.loads(path.read_text())
    for key, ref in data.items():
        if workload == "sweep":
            rows = ref.splitlines()
            rows[-1] = rows[-1].rsplit(",", 1)[0] + ",1"
            data[key] = "\n".join(rows) + "\n"
        else:
            ref["packets_generated"] += 1
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failure(workload, tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(BENCH / "refs" / "short", refs)
    corrupt(workload, refs)
    done = bench(workload, refs=refs)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["correct"] is False
    assert 1 <= out["failed"] <= out["attempted"]


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = bench("replan", cwd=tmp_path, run_py=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
