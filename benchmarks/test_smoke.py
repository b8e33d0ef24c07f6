"""Smoke tests of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
from run import tail_percentile  # noqa: E402

WORKLOADS = [w for w, _ in spec.WORKLOADS]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace),
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    want = (dict(spec.per_layer()) if trace else
            {n: u for n, u, _, _ in spec.END_TO_END})
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_known_ground_state_defect_is_counted():
    # seed 1 draws a potential on which the solver returns an excited state
    proc = bench("--workload", "torus", "--seed", "1", "--trace", "1", "--smoke")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wrong = result["metrics"]["pde.lambda_eigen.wrong"]["value"]
    # a traced run makes an untraced and a traced pass over the ops
    assert wrong >= 1 and result["failed"] == 2 * wrong
    assert result["correct"] is True


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "flow-small", "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct, count = tail_percentile(range(100))
    assert (value, count) == (89, 100) and pct == pytest.approx(90.0)
    assert tail_percentile([5.0, 1.0]) == (5.0, 100.0, 2)
