"""Smoke run of the torus PDE layer harness, tools/bench_pde_layer.py."""

import importlib.util
import json
import sys
from pathlib import Path

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
    ground = {f"ground_{family}_N{N}" for family in harness.FAMILIES
              for N in harness.GROUND_SIZES}
    assert set(layers) == steps | ground
    for key in steps:
        row = layers[key]
        assert set(row) == {"rhs_us", "step_us", "steps", "rhs_evals",
                            "rhs_evals_per_step"}
        assert row["rhs_evals"] == 2 * row["steps"] + 1
        assert row["rhs_evals_per_step"] == row["rhs_evals"] / row["steps"]
        assert row["rhs_us"] > 0 and row["step_us"] > 0
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
