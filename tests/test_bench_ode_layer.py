"""Smoke run of the ODE layer harness, tools/bench_ode_layer.py."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

HARNESS = Path(__file__).resolve().parents[1] / "tools" / "bench_ode_layer.py"


def load_harness():
    spec = importlib.util.spec_from_file_location("bench_ode_layer", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_writes_every_row_with_exact_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # main prepends --src
    harness = load_harness()
    allclose = np.allclose
    out = tmp_path / "bench.json"
    assert harness.main(["--repeats", "1", "--out", str(out)]) == 0
    assert np.allclose is allclose

    layers = json.loads(out.read_text())["readings"]["change"]["layers"]
    odes = {f"ode_{name}" for name in ("sphere", "hyperbolic", "neck", "su2_milnor",
                                        "circle_bundle", "circle_bundle_dual")}
    forms = {f"three_form_n{n}" for n in harness.THREE_FORM_SIZES}
    calls = {"lambda_homogeneous_array", "lambda_homogeneous_form"}
    report = f"courant_axiom_report_{harness.SECTIONS}"
    assert set(layers) == odes | forms | calls | {report}
    for key in odes:
        row = layers[key]
        assert set(row) == {"step_us", "steps", "rhs_calls", "rhs_calls_per_step"}
        assert row["rhs_calls"] == 4 * row["steps"]
        assert row["rhs_calls_per_step"] == 4.0
        assert row["step_us"] > 0
    for key in forms:
        assert set(layers[key]) == {"check_us"} and layers[key]["check_us"] > 0
    for key in calls:
        assert set(layers[key]) == {"call_us"} and layers[key]["call_us"] > 0
    # the report validates H once, and every antisymmetry check passes its
    # first |a - b| <= tol pass
    assert set(layers[report]) == {"report_us", "allclose_fallbacks"}
    assert layers[report]["allclose_fallbacks"] == 0
    assert layers[report]["report_us"] > 0
