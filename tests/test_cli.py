import os
import re
import warnings

import numpy as np
import pytest

from grflab import cli, flow
from grflab.cli import ConfigError, main, run_many, run_scenario, scenario_names
from grflab.courant import ThreeForm, milnor_su2_frame


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


@pytest.mark.parametrize("scenario, setting", [
    ("sphere", "dt=0"), ("sphere", "dt=nan"), ("hyperbolic", "T=-1"),
    ("su2-milnor", "A0=inf"),
    ("sphere", "T=1e-4"), ("hyperbolic", "T=1e-4"), ("su2-milnor", "T=1e-4"),
    ("product-s3s3", "T=1e-4"), ("hopf-rym", "T=1e-4"), ("hopf-tduality", "T=1e-4"),
    ("lambda-monotone", "T=1e-4"), ("bianchi-suite", "trials=0"),
    ("courant-axioms", "sections=0"), ("lambda-monotone", "stride=0"),
    ("lambda-monotone", "stride=10000")])
def test_bad_numeric_parameter_is_config_error(tmp_path, capsys, scenario, setting):
    # dt=0 divided by zero, dt=nan exited 3 and T=-1 ran no step, then failed;
    # T=1e-4 rounds to zero steps, which failed, crashed or passed unchecked,
    # zero trials or sections passed unchecked, and a stride of 0 or of more
    # than the steps taken exited 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--scenario", scenario, "--set", setting,
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and setting.split("=")[0] in err
    assert not (tmp_path / scenario).exists()


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


def test_neck_rejects_a_stop_below_the_pinch(tmp_path, capsys):
    assert main(["--scenario", "neck", "--set", "phi_stop=-1",
                 "--out", str(tmp_path)]) == 2
    assert "phi_stop" in capsys.readouterr().err


def test_neck_fails_when_the_path_runs_through_the_pinch(tmp_path):
    # dt = 0.05 overshoots phi = 0 in the step that crosses phi_stop
    assert main(["--scenario", "neck", "--set", "dt=0.05",
                 "--out", str(tmp_path)]) == 1
    report = (tmp_path / "neck" / "report.txt").read_text()
    assert "check_sphere_factor_min_passed = false" in report


# ---------------------------------------------------------------------------
# the CLI's series against the per-row loops they replaced
# ---------------------------------------------------------------------------

# The loops the scenarios wrote their series with before the shared table
# writer, kept as the parity reference.  sphere and hyperbolic shared the
# first; neck ("t,phi,psi") and hopf-rym ("t,K,L") the second.

def frozen_scalar_loop(csvf, ts, ys):
    with open(csvf, "w") as fh:
        fh.write("t,lambda_size\n")
        for t, y in zip(ts, ys[:, 0]):
            fh.write(f"{float(t)!r},{float(y)!r}\n")


def frozen_pair_loop(csvf, header, ts, ys):
    with open(csvf, "w") as fh:
        fh.write(header)
        for t, y in zip(ts, ys):
            fh.write(f"{float(t)!r},{float(y[0])!r},{float(y[1])!r}\n")


def frozen_su2_loop(csvf, ts, ys):
    A, B, C = ys[:, 0], ys[:, 1], ys[:, 2]
    with open(csvf, "w") as fh:
        fh.write("t,A,B,C,anisotropy\n")
        for i, t in enumerate(ts):
            fh.write(f"{float(t)!r},{float(A[i])!r},{float(B[i])!r},{float(C[i])!r},{float((C[i] - A[i]) / A[i])!r}\n")


def frozen_lambda_loop(csvf, rows):
    with open(csvf, "w") as fh:
        fh.write("index," + ",".join(name for name, _ in rows) + "\n")
        depth = max(len(v) for _, v in rows)
        for i in range(depth):
            cells = [str(i)]
            for _, v in rows:
                cells.append(repr(float(v[i])) if i < len(v) else "")
            fh.write(",".join(cells) + "\n")


def _steps(p):
    return int(round(p["T"] / p["dt"]))


def _reference_series(name, p, csvf):
    """Recompute a scenario's path and write it with the frozen loop."""
    if name == "sphere":
        stop = (lambda t, y: y[0] < 0.05) if p["eta0"] == 0.0 else None
        ts, ys = flow.rk4_path(lambda t, y: (flow.sphere_ode_rhs(y[0], p["eta0"]),),
                               [p["lam0"]], p["dt"], _steps(p), stop=stop)
        frozen_scalar_loop(csvf, ts, ys)
    elif name == "hyperbolic":
        ts, ys = flow.rk4_path(lambda t, y: (flow.hyperbolic_ode_rhs(y[0]),),
                               [p["lam0"]], p["dt"], _steps(p))
        frozen_scalar_loop(csvf, ts, ys)
    elif name == "neck":
        ts, ys = flow.rk4_path(lambda t, y: flow.neck_ode_rhs(y),
                               [p["phi0"], p["psi0"]], p["dt"], int(p["max_steps"]),
                               stop=lambda t, y: y[0] < p["phi_stop"])
        assert ys[-1, 0] < p["phi_stop"]   # the stop ended the path
        frozen_pair_loop(csvf, "t,phi,psi\n", ts, ys)
    elif name == "hopf-rym":
        ts, ys = flow.rk4_path(lambda t, y: flow.circle_bundle_rhs(y[0], y[1], p["a"]),
                               [p["K0"], p["L0"]], p["dt"], _steps(p))
        frozen_pair_loop(csvf, "t,K,L\n", ts, ys)
    elif name == "su2-milnor":
        ts, ys = flow.rk4_path(lambda t, y: flow.milnor_su2_rhs(y, p["eta0"]),
                               [p["A0"], p["B0"], p["C0"]], p["dt"], _steps(p))
        frozen_su2_loop(csvf, ts, ys)
    elif name == "lambda-monotone":
        frame, rows = milnor_su2_frame(), []
        for lam0 in (0.5, 3.0):
            _, ys = flow.rk4_path(lambda t, y: (flow.sphere_ode_rhs(y[0], 2.0),),
                                  [lam0], p["dt"], _steps(p))
            h = ThreeForm.basis(3, 0, 1, 2, 2.0)
            rows.append((f"sphere_{lam0}", np.array(
                [flow.lambda_homogeneous(frame, s * np.eye(3), h)
                 for s in ys[:: int(p["stride"]), 0]])))
        _, ys = flow.rk4_path(lambda t, y: flow.milnor_su2_rhs(y, 1.0),
                              [0.3, 0.5, 0.9], p["dt"], _steps(p))
        h = ThreeForm.basis(3, 0, 1, 2, 1.0)
        rows.append(("su2_milnor", np.array(
            [flow.lambda_homogeneous(frame, np.diag(row), h)
             for row in ys[:: int(p["stride"])]])))
        frozen_lambda_loop(csvf, rows)


CLI_SERIES = [
    ("sphere", {"T": 0.5}, "trajectory.csv"),
    ("sphere", {"T": 0.5, "eta0": 0.0, "lam0": 0.3}, "trajectory.csv"),  # stopped
    ("hyperbolic", {"T": 0.5}, "trajectory.csv"),
    ("neck", {"phi_stop": 0.9}, "trajectory.csv"),                        # stopped
    ("su2-milnor", {"T": 0.5}, "trajectory.csv"),
    ("hopf-rym", {"T": 0.2}, "trajectory.csv"),
    ("lambda-monotone", {"T": 0.2}, "lambda_series.csv"),
]


@pytest.mark.parametrize("name,overrides,csvfile", CLI_SERIES)
def test_series_match_the_frozen_row_loops(name, overrides, csvfile, tmp_path):
    run_scenario(name, overrides, str(tmp_path))
    params = {**cli._REGISTRY[name][2], **overrides}
    _reference_series(name, params, tmp_path / "reference.csv")
    got = (tmp_path / name / csvfile).read_bytes()
    assert got.count(b"\n") > 2
    assert got == (tmp_path / "reference.csv").read_bytes()


# ---------------------------------------------------------------------------
# the output contract of every scenario
# ---------------------------------------------------------------------------

# the benchmark's smoke overrides: short runs whose checks still pass
SMOKE_OVERRIDES = {"product-s3s3": {"T": 0.01}, "torus-krf": {"N": 16},
                   "torus-gkrf": {"N": 16}, "lambda-monotone": {"T": 0.5}}


def test_every_scenario_keeps_the_output_contract(tmp_path):
    assert run_many(scenario_names(), SMOKE_OVERRIDES, str(tmp_path)) == 0
    for name in scenario_names():
        outdir = tmp_path / name
        for path in outdir.iterdir():
            assert b"\r" not in path.read_bytes(), path
        listed = [line.split(" = ", 1)[1] for line in
                  (outdir / "report.txt").read_text().splitlines()
                  if line.startswith("output_")]
        assert listed and all(os.path.exists(p) for p in listed), name
        for script in outdir.glob("plot_*.gp"):
            assert str(script) in listed
            uses = re.findall(r"'([^']+)' using 1:(\d+)", script.read_text())
            assert uses, script
            for csvfile, column in uses:
                header = (outdir / csvfile).read_text().split("\n", 1)[0]
                assert len(header.split(",")) >= int(column), (script, csvfile)


def test_torus_scenarios_report_what_the_integrator_did(tmp_path):
    assert run_many(["torus-krf", "torus-gkrf", "sphere"], SMOKE_OVERRIDES,
                    str(tmp_path)) == 0
    h = 2.0 * np.pi / 16
    for name, steps, stopped in (("torus-krf", None, "true"),
                                 ("torus-gkrf", 160, "false")):
        lines = (tmp_path / name / "report.txt").read_text().splitlines()
        facts = dict(line.split(" = ", 1) for line in lines[3:8])
        assert list(facts) == ["method", "dt", "steps_taken", "rhs_evals",
                               "stopped_early"]
        assert facts["method"] == "etdrk4"
        assert float(facts["dt"]) == 10.0 * h * h
        taken = int(facts["steps_taken"])
        assert steps is None or taken == steps
        assert int(facts["rhs_evals"]) == 4 * taken + 1
        assert facts["stopped_early"] == stopped
        rows = (tmp_path / name / "monitors.csv").read_text().splitlines()
        assert len(rows) == taken + 2   # header plus every state once
        assert lines[8].startswith("check_")
    # a scenario with no facts keeps its report as it was
    lines = (tmp_path / "sphere" / "report.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in lines[:3]] == ["scenario", "wall_time",
                                                           "passed"]
    assert all(line.startswith(("check_", "output_")) for line in lines[3:])
