"""The reading merge of tools/layer_harness.py, run on a stub measurement."""

import importlib.util
import json
import sys
from pathlib import Path

HELPER = Path(__file__).resolve().parents[1] / "tools" / "layer_harness.py"
METADATA = {"python", "numpy", "machine", "cpus", "repeats", "layers"}


def load_helper():
    spec = importlib.util.spec_from_file_location("layer_harness", HELPER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_labels_merge_and_speedups_follow_both_readings(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))   # main prepends --src
    helper = load_helper()
    out = tmp_path / "bench.json"
    rule_calls = []

    def speedups(before, after):
        rule_calls.append((before, after))
        return {"speedup": {"row": before["row"]["step_us"] / after["row"]["step_us"]}}

    def run(label, step_us):
        def measure(grflab, repeats):
            assert grflab.__name__ == "grflab" and repeats == 1
            return {"row": {"step_us": step_us}}

        assert helper.main(["--label", label, "--out", str(out), "--repeats", "1"],
                           "stub harness\n", "unused.json", measure, speedups,
                           lambda row: f"{row['step_us']} us") == 0
        return json.loads(out.read_text())

    data = run("parent", 4.0)
    assert set(data) == {"readings"} and rule_calls == []
    data = run("change", 2.0)
    assert set(data["readings"]) == {"parent", "change"}
    for reading in data["readings"].values():
        assert set(reading) == METADATA and reading["repeats"] == 1
    assert data["speedup"] == {"row": 2.0} and len(rule_calls) == 1

    # a label measured again replaces its reading, and the speed-ups follow
    data = run("change", 1.0)
    assert data["readings"]["parent"]["layers"] == {"row": {"step_us": 4.0}}
    assert data["readings"]["change"]["layers"] == {"row": {"step_us": 1.0}}
    assert data["speedup"] == {"row": 4.0}
    assert capsys.readouterr().out.splitlines()[-1] == "change row: 1.0 us"
