"""Smoke run of the torus PDE layer harness, tools/bench_pde_layer.py."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

HARNESS = Path(__file__).resolve().parents[1] / "tools" / "bench_pde_layer.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("bench_pde_layer", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_writes_every_row_with_exact_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # main prepends --src
    harness = load_harness()
    splu = spla.splu
    out = tmp_path / "bench.json"
    assert harness.main(["--repeats", "1", "--out", str(out)]) == 0
    assert spla.splu is splu

    layers = json.loads(out.read_text())["readings"]["change"]["layers"]
    steps = {f"{name}_N{N}" for name in ("krf", "gkrf") for N in harness.SIZES}
    runs = {f"run_{name}_{method}_N{N}" for name in ("krf", "gkrf")
            for method in ("midpoint", "etdrk4") for N in harness.SIZES}
    ground = {f"ground_{family}_N{N}" for family in harness.FAMILIES
              for N in harness.GROUND_SIZES}
    assert set(layers) == steps | runs | ground
    for key in steps:
        row = layers[key]
        assert set(row) == {"rhs_us", "step_us", "steps", "rhs_evals",
                            "rhs_evals_per_step"}
        assert row["rhs_evals"] == 2 * row["steps"] + 1
        assert row["rhs_evals_per_step"] == row["rhs_evals"] / row["steps"]
        assert row["rhs_us"] > 0 and row["step_us"] > 0
    for name in ("krf", "gkrf"):
        for N in harness.SIZES:
            mid = layers[f"run_{name}_midpoint_N{N}"]
            etd = layers[f"run_{name}_etdrk4_N{N}"]
            # one simulated time, 50 midpoint steps per ETDRK4 step
            assert etd["steps"] == harness.RUN_STEPS[N]
            assert mid["steps"] == 50 * etd["steps"]
            assert mid["rhs_evals"] == 2 * mid["steps"] + 1
            assert etd["rhs_evals"] == 4 * etd["steps"] + 1
            assert mid["sim_time"] == pytest.approx(etd["sim_time"], rel=1e-12)
            for row in (mid, etd):
                assert row["rhs_evals_per_time"] == row["rhs_evals"] / row["sim_time"]
                assert row["wall_s_per_time"] > 0
                assert ("rel_error_vs_fine_midpoint" in row) == (N == harness.ERROR_SIZE)
            assert mid["rhs_evals_per_time"] >= 10 * etd["rhs_evals_per_time"]
            if N == harness.ERROR_SIZE:
                assert etd["rel_error_vs_fine_midpoint"] <= 1e-6
    for key in ground:
        row = layers[key]
        assert set(row) == {"solve_us", "assembly_us", "eigenvalue",
                            "factorizations_per_solve", "lu_solves_per_solve"}
        assert row["solve_us"] > 0 and row["assembly_us"] > 0
        # one factorization at the first shift, then at most one per
        # Rayleigh iteration from the third LU solve on
        lu, solves = row["factorizations_per_solve"], row["lu_solves_per_solve"]
        assert isinstance(lu, int) and isinstance(solves, int)
        assert 1 <= lu and max(1, solves - 2) <= lu <= solves
