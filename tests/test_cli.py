import os

import pytest

from grflab.cli import ConfigError, main, run_scenario, scenario_names


def test_list_names_every_scenario(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_unknown_scenario_is_config_error(tmp_path):
    assert main(["--scenario", "warp-drive", "--out", str(tmp_path)]) == 2


def test_unknown_parameter_is_config_error(tmp_path):
    assert main(["--scenario", "sphere", "--set", "bogus=1",
                 "--out", str(tmp_path)]) == 2


def test_non_numeric_override_is_config_error(tmp_path):
    assert main(["--scenario", "sphere", "--set", "dt=fast",
                 "--out", str(tmp_path)]) == 2


def test_missing_scenario_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_inadmissible_seed_is_numerical_failure(tmp_path, capsys):
    code = main(["--scenario", "torus-krf", "--set", "amplitude=3",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_sphere_run_writes_artifacts(tmp_path):
    code = main(["--scenario", "sphere", "--set", "T=1.0",
                 "--out", str(tmp_path)])
    assert code == 0
    outdir = tmp_path / "sphere"
    assert (outdir / "trajectory.csv").exists()
    assert (outdir / "plot_sphere.gp").exists()
    report = (outdir / "report.txt").read_text()
    assert "scenario = sphere" in report
    assert "passed = true" in report
    header = (outdir / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,lambda_size"


def test_failed_check_returns_one(tmp_path):
    code = main(["--scenario", "sphere", "--set", "lam0=3", "--set", "T=1.0",
                 "--tol", "1e-20", "--out", str(tmp_path)])
    assert code == 1
    report = (tmp_path / "sphere" / "report.txt").read_text()
    assert "passed = false" in report


def test_manifest_run(tmp_path):
    manifest = tmp_path / "runs.ini"
    manifest.write_text("[run]\nscenarios = sphere, hopf-bismut-flat\n"
                        f"out = {tmp_path}\n\n[sphere]\nT = 1.0\n")
    assert main(["--manifest", str(manifest)]) == 0
    assert (tmp_path / "sphere" / "report.txt").exists()
    assert (tmp_path / "hopf-bismut-flat" / "report.txt").exists()


def test_missing_manifest_is_config_error():
    assert main(["--manifest", "/nonexistent/runs.ini"]) == 2


def test_env_var_sets_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("GRFLAB_OUT", str(tmp_path / "envruns"))
    assert main(["--scenario", "hopf-bismut-flat"]) == 0
    assert (tmp_path / "envruns" / "hopf-bismut-flat" / "report.txt").exists()


def test_run_scenario_api(tmp_path):
    rep = run_scenario("bianchi-suite", {"trials": 3}, str(tmp_path))
    assert rep.passed
    assert rep.scenario == "bianchi-suite"
    assert all(c.tol > 0 for c in rep.checks)
    assert any(str(tmp_path) in out for out in rep.outputs)
    with pytest.raises(ConfigError):
        run_scenario("bianchi-suite", {"warp": 9}, str(tmp_path))


def test_gnuplot_script_references_csv(tmp_path):
    main(["--scenario", "su2-milnor", "--set", "T=0.5", "--out", str(tmp_path)])
    script = (tmp_path / "su2-milnor" / "plot_su2_milnor.gp").read_text()
    assert "trajectory.csv" in script
    assert os.path.exists(tmp_path / "su2-milnor" / "trajectory.csv")


def test_lambda_monotone_builds_each_three_form_once(tmp_path, three_form_checks):
    rep = run_scenario("lambda-monotone", {"T": 0.2}, str(tmp_path))
    assert rep.passed
    assert three_form_checks[0] == 2   # one 3-form for the round runs, one for Milnor
