import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_3form, rand_spd
from grflab import cli, flow, geometry, tduality
from grflab.courant import ThreeForm, direct_sum_frame, milnor_su2_frame
from grflab.flow import (FlowConfig, FlowSingularity, FlowState, grf_rhs,
                         circle_bundle_rhs, hyperbolic_ode_rhs, integrate,
                         lambda_homogeneous, milnor_su2_rhs, neck_ode_rhs,
                         rk4_path, rk4_step, soliton_residual, sphere_ode_rhs,
                         threefold_rhs)
from grflab.geometry import bi_invariant_three_form, hopf_einstein_pair, ricci


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_without_torsion_is_minus_two_ricci(rng):
    fr = milnor_su2_frame()
    g = rand_spd(rng, 3)
    dg, dH = grf_rhs(fr, FlowState(g))
    assert np.max(np.abs(dg + 2.0 * ricci(fr, g))) < 1e-12
    assert np.max(np.abs(dH)) == 0.0


def test_rhs_hand_values_on_diagonal_su2():
    # diag(A, B, C) with H = eta0 e^123 reduces to a closed-form system
    A, B, C, eta0 = 0.3, 0.5, 0.9, 1.0
    fr = milnor_su2_frame()
    st = FlowState(np.diag([A, B, C]), ThreeForm.basis(3, 0, 1, 2, eta0))
    dg, dH = grf_rhs(fr, st)
    want = np.array([(-4.0 * A * A + 4.0 * (B - C) ** 2 + eta0 ** 2) / (B * C),
                     (-4.0 * B * B + 4.0 * (C - A) ** 2 + eta0 ** 2) / (C * A),
                     (-4.0 * C * C + 4.0 * (A - B) ** 2 + eta0 ** 2) / (A * B)])
    assert np.max(np.abs(dg - np.diag(want))) < 1e-12
    assert np.max(np.abs(dg - np.diag(milnor_su2_rhs([A, B, C], eta0)))) < 1e-12
    assert np.max(np.abs(dH)) < 1e-14


def test_rhs_with_cosmological_term(rng):
    fr = milnor_su2_frame()
    g = rand_spd(rng, 3)
    H = rand_3form(rng, 3)
    dg0, dH0 = grf_rhs(fr, FlowState(g, H), lam=0)
    dg1, dH1 = grf_rhs(fr, FlowState(g, H), lam=1)
    assert np.max(np.abs(dg1 - dg0 - g)) < 1e-12
    assert np.max(np.abs(dH1 - dH0 - H)) < 1e-12


def test_fixed_point_rhs_vanishes():
    fr = milnor_su2_frame()
    st = FlowState(0.5 * np.eye(3), ThreeForm.basis(3, 0, 1, 2, 1.0))
    dg, dH = grf_rhs(fr, st)
    assert np.max(np.abs(dg)) < 1e-13
    assert np.max(np.abs(dH)) < 1e-13


# ---------------------------------------------------------------------------
# integrator driver
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dt=0.0)
    with pytest.raises(ValueError):
        FlowConfig(lam=2)


def test_fixed_point_detection_stops_early():
    fr = milnor_su2_frame()
    st = FlowState(0.5 * np.eye(3), ThreeForm.basis(3, 0, 1, 2, 1.0))
    traj = integrate(fr, st, FlowConfig(dt=1e-3, steps=100))
    assert traj.status == "fixed_point"
    assert traj.steps_taken < 5


def test_round_sphere_collapses_at_metric_floor():
    fr = milnor_su2_frame()
    traj = integrate(fr, FlowState(np.eye(3)),
                     FlowConfig(dt=1e-3, steps=400, fixed_point_tol=0.0))
    assert traj.status == "metric_floor"
    assert traj.times[-1] == pytest.approx(0.25, abs=5e-3)
    # torsion-free flow keeps the torsion identically zero
    assert max(np.max(np.abs(H)) for H in traj.torsions) == 0.0


def test_curvature_cap_stops_flow():
    fr = milnor_su2_frame()
    traj = integrate(fr, FlowState(np.eye(3)),
                     FlowConfig(dt=1e-3, steps=400, fixed_point_tol=0.0,
                                metric_floor=1e-300, curvature_cap=100.0))
    assert traj.status == "curvature_blowup"
    assert traj.times[-1] < 0.25


def test_adaptive_stepping_tracks_collapse():
    # step halving rides the collapse until the curvature detector fires
    fr = milnor_su2_frame()
    traj = integrate(fr, FlowState(np.eye(3)),
                     FlowConfig(dt=1e-3, steps=400, fixed_point_tol=0.0,
                                adaptive=True))
    assert traj.status == "curvature_blowup"
    assert traj.times[-1] > 0.249
    assert np.linalg.eigvalsh(traj.metrics[-1])[0] > 0.0


def test_adaptive_stepping_takes_one_two_norm_per_step(monkeypatch):
    norm, two_norms = np.linalg.norm, []

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2:
            two_norms.append(x)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    traj = integrate(milnor_su2_frame(), FlowState(np.eye(3)),
                     FlowConfig(dt=1e-3, steps=400, fixed_point_tol=0.0,
                                adaptive=True))
    assert traj.status == "curvature_blowup"
    assert np.min(np.diff(traj.times)) < 1e-3 / 16   # the run halves its step
    assert len(two_norms) == traj.steps_taken


def test_trajectory_recording_and_csv(tmp_path):
    fr = milnor_su2_frame()
    st = FlowState(np.eye(3), ThreeForm.basis(3, 0, 1, 2, 1.5))
    traj = integrate(fr, st, FlowConfig(dt=1e-3, steps=50, record_every=10))
    assert traj.status == "completed"
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.05, abs=1e-12)
    lam = traj.lambda_series()
    assert lam.shape == (len(traj.times),)
    assert lam[0] == pytest.approx(
        lambda_homogeneous(fr, np.eye(3), traj.torsions[0]))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    assert header[0] == "t"
    assert "g_0_0" in header and "H_0_1_2" in header
    assert "lambda" in header and "R" in header
    assert len(rows) == len(traj.times) + 1


def test_nonfinite_input_is_reported():
    fr = milnor_su2_frame()
    g = np.eye(3)
    g[0, 0] = np.nan
    traj = integrate(fr, FlowState(g), FlowConfig(dt=1e-3, steps=10))
    assert traj.status == "nonfinite"
    # a state that admits no evaluation records NaN diagnostics
    assert np.isnan(traj.rhs_norms[-1]) and np.isnan(traj.lambda_series()[-1])


def test_final_sample_carries_its_own_diagnostics(tmp_path):
    fr = milnor_su2_frame()
    st = FlowState(np.diag([0.3, 0.5, 0.9]), ThreeForm.basis(3, 0, 1, 2, 1.0))
    traj = integrate(fr, st, FlowConfig(dt=1e-2, steps=5))
    assert traj.status == "completed" and len(traj.times) == 6
    dg, dH = grf_rhs(fr, traj.final)
    assert traj.rhs_norms[-1] == pytest.approx(
        np.sqrt(np.sum(dg * dg) + np.sum(dH * dH)), rel=1e-14)
    # the previous sample's value, 3.0141, used to be copied here
    assert traj.rhs_norms[-1] == pytest.approx(2.4774, abs=1e-4)
    assert traj.lambda_series()[-1] == pytest.approx(
        lambda_homogeneous(fr, traj.final.g, traj.final.H), rel=1e-14)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header, *_, last = path.read_text().splitlines()
    row = dict(zip(header.split(","), last.split(",")))
    assert float(row["rhs_norm"]) == traj.rhs_norms[-1]


def test_levi_civita_runs_once_per_rhs_and_never_in_post_processing(
        tmp_path, monkeypatch):
    calls = {"levi_civita": 0, "riemann": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(geometry, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(geometry, name, counted)
    fr = milnor_su2_frame()
    st = FlowState(np.diag([0.3, 0.5, 0.9]), ThreeForm.basis(3, 0, 1, 2, 1.0))
    traj = integrate(fr, st, FlowConfig(dt=1e-2, steps=10))
    # four RK stages per step, plus the final state's own diagnostics; each
    # RHS evaluation forms the curvature exactly once
    assert traj.steps_taken == 10
    assert calls == {"levi_civita": 41, "riemann": 41}
    traj.lambda_series()
    traj.to_csv(tmp_path / "traj.csv")
    assert calls == {"levi_civita": 41, "riemann": 41}


def frozen_flow_to_csv(traj, path):
    """FlowTrajectory.to_csv with csv.writer, as it was before the shared
    table writer; kept as the parity reference."""
    n = traj.frame.dim
    gcols = [(i, j) for i in range(n) for j in range(i, n)]
    hcols = [(i, j, k) for i in range(n) for j in range(i + 1, n)
             for k in range(j + 1, n)]
    header = (["t"] + [f"g_{i}_{j}" for i, j in gcols]
              + [f"H_{i}_{j}_{k}" for i, j, k in hcols]
              + ["R", "H_norm2", "lambda", "rhs_norm"])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t, g, H, rn, r, hn in zip(traj.times, traj.metrics, traj.torsions,
                                      traj.rhs_norms, traj.scalar_curvatures,
                                      traj.h_norm2s):
            row = ([t] + [g[i, j] for i, j in gcols]
                   + [H[i, j, k] for i, j, k in hcols]
                   + [r, hn, r - hn / 12.0, rn])
            w.writerow([repr(float(v)) for v in row])


def _product_s3s3_state():
    g = np.zeros((6, 6))
    g[:3, :3] = 0.5 * np.eye(3)
    g[3:, 3:] = np.eye(3)
    H = np.zeros((6, 6, 6))
    H[:3, :3, :3] = ThreeForm.basis(3, 0, 1, 2, 1.0).components
    return FlowState(g, H)


def _nan_state():
    g = np.eye(3)
    g[0, 0] = np.nan
    return FlowState(g)


FLOW_TABLE_RUNS = {
    "n3_completed": (milnor_su2_frame, lambda: FlowState(
        np.diag([0.3, 0.5, 0.9]), ThreeForm.basis(3, 0, 1, 2, 1.0)),
        FlowConfig(dt=1e-2, steps=10, record_every=3)),
    "n3_nonfinite": (milnor_su2_frame, _nan_state, FlowConfig(dt=1e-3, steps=10)),
    "n3_metric_floor": (milnor_su2_frame, lambda: FlowState(np.eye(3)),
                  FlowConfig(dt=1e-2, steps=40, fixed_point_tol=0.0)),
    "n6_product": (lambda: direct_sum_frame(milnor_su2_frame(), milnor_su2_frame()),
                   _product_s3s3_state, FlowConfig(dt=1e-3, steps=7)),
}


@pytest.mark.parametrize("run", sorted(FLOW_TABLE_RUNS))
def test_to_csv_matches_the_csv_writer_form(run, tmp_path):
    make_frame, make_state, cfg = FLOW_TABLE_RUNS[run]
    traj = integrate(make_frame(), make_state(), cfg)
    if run == "n3_nonfinite":
        assert np.isnan(traj.rhs_norms[-1])
    traj.to_csv(tmp_path / "new.csv")
    frozen_flow_to_csv(traj, tmp_path / "old.csv")
    want = (tmp_path / "old.csv").read_bytes()
    assert b"\r\n" in want
    assert (tmp_path / "new.csv").read_bytes() == want.replace(b"\r\n", b"\n")


def test_to_csv_of_an_empty_trajectory_is_its_header(tmp_path):
    traj = flow.FlowTrajectory(frame=milnor_su2_frame())
    traj.to_csv(tmp_path / "new.csv")
    frozen_flow_to_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (
        tmp_path / "old.csv").read_bytes().replace(b"\r\n", b"\n")


# ---------------------------------------------------------------------------
# generic RK4 utilities
# ---------------------------------------------------------------------------

def test_rk4_is_fourth_order():
    f = lambda t, y: y
    errs = []
    for dt in (0.1, 0.05):
        y = np.array([1.0])
        t = 0.0
        while t < 1.0 - 1e-12:
            y = rk4_step(f, t, y, dt)
            t += dt
        errs.append(abs(y[0] - np.e))
    assert 14.0 < errs[0] / errs[1] < 18.0


def test_rk4_path_stop_condition():
    ts, ys = rk4_path(lambda t, y: -np.ones_like(y), [1.0], 0.1, 100,
                      stop=lambda t, y: y[0] < 0.55)
    assert ys[-1, 0] < 0.55
    assert len(ts) == len(ys)
    assert len(ts) < 101


# The ndarray RK4 and the array-returning ansatz helpers as they were before
# the ODE paths moved to tuples of floats, frozen as the parity reference.

def frozen_rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def frozen_rk4_path(f, y0, dt, steps, t0=0.0, stop=None):
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    ts = [t0]
    ys = [y.copy()]
    t = t0
    for _ in range(steps):
        if stop is not None and stop(t, y):
            break
        y = frozen_rk4_step(f, t, y, dt)
        t += dt
        ts.append(t)
        ys.append(y.copy())
    return np.array(ts), np.array(ys)


def frozen_neck_ode_rhs(state):
    phi, psi = state
    return np.array([-2.0 + 0.5 / (phi * psi), 0.5 / (phi * phi)])


def frozen_milnor_su2_rhs(state, eta0=1.0):
    A, B, C = state
    e2 = eta0 * eta0
    return np.array([
        (-4.0 * A * A + 4.0 * (B - C) ** 2 + e2) / (B * C),
        (-4.0 * B * B + 4.0 * (C - A) ** 2 + e2) / (C * A),
        (-4.0 * C * C + 4.0 * (A - B) ** 2 + e2) / (A * B),
    ])


def frozen_circle_bundle_rhs(K, L, a=1.0):
    return np.array([-a * a * K * K / (L * L), -2.0 + a * a * K / L])


def frozen_circle_bundle_dual_rhs(K_hat, L_hat, a=1.0):
    return np.array([a * a / (L_hat * L_hat),
                     -2.0 + a * a / (K_hat * L_hat)])


# name -> (dimension, new right-hand side, frozen right-hand side); the
# sphere and hyperbolic rows are the CLI lambdas before and after
ODE_PAIRS = {
    "sphere": (1, lambda eta: lambda t, y: (sphere_ode_rhs(y[0], eta),),
               lambda eta: lambda t, y: np.array([sphere_ode_rhs(y[0], eta)])),
    "hyperbolic": (1, lambda eta: lambda t, y: (hyperbolic_ode_rhs(y[0]),),
                   lambda eta: lambda t, y: np.array([hyperbolic_ode_rhs(y[0])])),
    "neck": (2, lambda eta: lambda t, y: neck_ode_rhs(y),
             lambda eta: lambda t, y: frozen_neck_ode_rhs(y)),
    "milnor": (3, lambda eta: lambda t, y: milnor_su2_rhs(y, eta),
               lambda eta: lambda t, y: frozen_milnor_su2_rhs(y, eta)),
    "circle_bundle": (2, lambda eta: lambda t, y: circle_bundle_rhs(y[0], y[1], eta),
                      lambda eta: lambda t, y: frozen_circle_bundle_rhs(y[0], y[1], eta)),
    "circle_bundle_dual": (
        2, lambda eta: lambda t, y: tduality.circle_bundle_dual_rhs(y[0], y[1], eta),
        lambda eta: lambda t, y: frozen_circle_bundle_dual_rhs(y[0], y[1], eta)),
}


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(ODE_PAIRS)),
       y0=st.lists(st.floats(0.8, 2.0), min_size=3, max_size=3),
       steps=st.integers(-2, 30), data=st.data(),
       t0=st.floats(-5.0, 5.0), eta=st.floats(0.0, 2.0),
       drop=st.one_of(st.none(), st.floats(0.0, 0.02)))
def test_tuple_path_is_bitwise_equal_to_the_array_path(name, y0, steps, data, t0,
                                                       eta, drop):
    d, new, old = ODE_PAIRS[name]
    y0 = y0[:d]
    # a horizon of at most 0.1 keeps every path inside the smooth region of
    # data >= 0.8; with a stop the path ends once the first component has
    # moved by ``drop``
    dt = data.draw(st.floats(1e-5, 0.1 / max(steps, 1)), label="dt")
    stop = None if drop is None else (lambda t, y: abs(y[0] - y0[0]) > drop)
    ts, ys = rk4_path(new(eta), y0, dt, steps, t0=t0, stop=stop)
    ts_ref, ys_ref = frozen_rk4_path(old(eta), y0, dt, steps, t0=t0, stop=stop)
    assert np.all(np.isfinite(ys_ref))
    assert_bitwise_equal(ts, ts_ref)
    assert_bitwise_equal(ys, ys_ref)


def _stiff(t, v):
    # large stage values that only + - * / produce, so every rounding of
    # the RK4 combination shows in the step
    return 1e3 * v * v - 7.0 * t / v + 3.0


@settings(max_examples=300, deadline=None)
@given(y=st.lists(st.one_of(st.floats(-10.0, -0.5), st.floats(0.5, 10.0)),
                  min_size=1, max_size=4),
       t=st.floats(-3.0, 3.0), dt=st.floats(1e-6, 1e-2))
def test_rk4_step_is_bitwise_equal_to_the_array_step(y, t, dt):
    got = rk4_step(lambda s, z: tuple([_stiff(s, v) for v in z]), t, tuple(y), dt)
    want = frozen_rk4_step(lambda s, z: np.array([_stiff(s, v) for v in z]),
                           t, np.array(y), dt)
    assert np.array(got).tobytes() == want.tobytes()


def test_ansatz_helpers_return_tuples():
    for value in (neck_ode_rhs((1.0, 1.0)), milnor_su2_rhs((0.3, 0.5, 0.9)),
                  circle_bundle_rhs(1.0, 1.0),
                  tduality.circle_bundle_dual_rhs(1.0, 1.0)):
        assert isinstance(value, tuple)
        assert all(isinstance(v, float) for v in value)


def test_rk4_step_passes_tuples_and_calls_f_four_times():
    seen = []

    def f(t, y):
        seen.append(y)
        return [-v for v in y]

    y = rk4_step(f, 0.0, (1.0, 2.0), 0.1)
    assert isinstance(y, tuple) and len(y) == 2
    assert len(seen) == 4
    assert all(isinstance(s, tuple) and len(s) == 2 for s in seen)


@pytest.mark.parametrize("rhs", [lambda t, y: 2 * y,       # doubles a tuple
                                 lambda t, y: -y,          # no tuple negation
                                 lambda t, y: y[:1],
                                 lambda t, y: (1.0,) * (3 if t > 0 else 2)])
def test_wrong_length_right_hand_side_is_a_type_error(rhs):
    with pytest.raises(TypeError):
        rk4_path(rhs, [1.0, 2.0], 0.1, 3)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
@pytest.mark.parametrize("length", [1, 3])
def test_each_stage_checks_the_length_of_its_result(stage, length):
    calls = [0]

    def rhs(t, y):
        a, b = y      # a short stage state would fail here with ValueError
        calls[0] += 1
        return (a, b, a)[:length] if calls[0] == stage else (-a, -b)

    with pytest.raises(TypeError, match=f"returned {length} values for a state of 2"):
        rk4_path(rhs, [1.0, 2.0], 0.1, 1)


def test_division_by_zero_and_overflow_are_floating_point_errors():
    with pytest.raises(FloatingPointError, match="t = 0"):
        rk4_path(lambda t, y: (1.0 / y[0],), [0.0], 0.1, 3)
    with pytest.raises(FloatingPointError):
        rk4_path(lambda t, y: (y[0] ** 3,), [1e200], 0.1, 3)


def test_rk4_path_returns_float_arrays_and_trims_a_stopped_path():
    ts, ys = rk4_path(lambda t, y: (1.0,), 2.0, 0.5, 10,
                      stop=lambda t, y: t >= 1.0)
    assert ts.dtype == ys.dtype == np.float64
    assert ts.tolist() == [0.0, 0.5, 1.0]
    assert ys.tolist() == [[2.0], [2.5], [3.0]]
    assert ts.base is None and ys.base is None
    with pytest.raises(ValueError):
        rk4_path(lambda t, y: y, np.eye(2), 0.1, 1)


# every ODE scenario at a short horizon; sphere runs torsion free (with its
# stop) and with torsion
ODE_SCENARIOS = [
    ("sphere", {"eta0": 0.0, "T": 0.3}),
    ("sphere", {"eta0": 2.0, "T": 0.3}),
    ("hyperbolic", {"T": 0.5}),
    ("neck", {"max_steps": 3000}),
    ("su2-milnor", {"T": 0.5}),
    ("hopf-rym", {"T": 0.1}),
    ("hopf-tduality", {"T": 0.1}),
    ("lambda-monotone", {"T": 0.3}),
]


def _scenario_files(name, overrides, root):
    cli.run_scenario(name, overrides, str(root))
    outdir = root / name
    return {f: (outdir / f).read_bytes() for f in sorted(os.listdir(outdir))
            if f != "report.txt"}    # report.txt holds the wall time


@pytest.mark.parametrize("name,overrides", ODE_SCENARIOS)
def test_scenario_outputs_are_byte_identical_to_the_array_path(name, overrides,
                                                               tmp_path, monkeypatch):
    files = _scenario_files(name, overrides, tmp_path / "tuple")

    def array_path(f, y0, dt, steps, t0=0.0, stop=None):
        # what the CLI lambdas returned before: arrays of their values
        return frozen_rk4_path(lambda t, y: np.asarray(f(t, y), dtype=float),
                               y0, dt, steps, t0=t0, stop=stop)

    for module, attr, value in (
            (flow, "rk4_path", array_path), (tduality, "rk4_path", array_path),
            (flow, "neck_ode_rhs", frozen_neck_ode_rhs),
            (flow, "milnor_su2_rhs", frozen_milnor_su2_rhs),
            (flow, "circle_bundle_rhs", frozen_circle_bundle_rhs),
            (tduality, "circle_bundle_rhs", frozen_circle_bundle_rhs),
            (tduality, "circle_bundle_dual_rhs", frozen_circle_bundle_dual_rhs)):
        monkeypatch.setattr(module, attr, value)
    reference = _scenario_files(name, overrides, tmp_path / "array")
    assert any(f.endswith(".csv") for f in files)
    assert files == reference


# ---------------------------------------------------------------------------
# reduced models
# ---------------------------------------------------------------------------

def test_sphere_ode_fixed_point_and_torsion_free_rate():
    assert sphere_ode_rhs(1.0, 0.0) == pytest.approx(-4.0)
    assert sphere_ode_rhs(1.0, 2.0) == pytest.approx(0.0)
    assert sphere_ode_rhs(0.5, 1.0) == pytest.approx(0.0)


def test_hyperbolic_rate_is_constant():
    assert hyperbolic_ode_rhs(1.0) == 4.0
    assert hyperbolic_ode_rhs(17.3) == 4.0


def test_neck_rhs_hand_value():
    assert np.allclose(neck_ode_rhs([1.0, 1.0]), [-1.5, 0.5])


def test_milnor_rhs_fixed_point():
    assert np.max(np.abs(milnor_su2_rhs([0.5, 0.5, 0.5], 1.0))) < 1e-15


def test_circle_bundle_rhs_hand_value():
    dKL = circle_bundle_rhs(1.0, 1.0, 1.0)
    assert np.allclose(dKL, [-1.0, -1.0])


def test_threefold_fixed_point():
    fr = milnor_su2_frame()
    dg, dphi = threefold_rhs(fr, np.eye(3), 2.0)
    assert np.max(np.abs(dg)) < 1e-13
    assert abs(dphi) < 1e-13


def test_threefold_requires_three_dimensions():
    fr = direct_sum_frame(milnor_su2_frame(), milnor_su2_frame())
    with pytest.raises(ValueError):
        threefold_rhs(fr, np.eye(6), 1.0)


# ---------------------------------------------------------------------------
# solitons and the lambda functional
# ---------------------------------------------------------------------------

def test_hopf_pair_is_a_steady_soliton():
    frame, g, H, _ = hopf_einstein_pair(1.0, 1.0)
    rep = soliton_residual(frame, g, H)
    assert rep.within(1e-12)


def test_soliton_residual_detects_perturbation():
    frame, g, H, _ = hopf_einstein_pair(1.0, 1.0)
    g = g.copy()
    g[0, 0] += 0.2
    rep = soliton_residual(frame, g, H)
    assert not rep.within(1e-3)
    assert rep.metric_residual_max > 1e-3


def test_soliton_residual_with_central_vector_field():
    # e_4 is central, so dragging along it changes nothing
    frame, g, H, _ = hopf_einstein_pair(1.0, 1.0)
    rep = soliton_residual(frame, g, H, X=np.array([0.0, 0.0, 0.0, 0.3]))
    assert rep.within(1e-12)


def test_lambda_homogeneous_hand_values():
    fr = milnor_su2_frame()
    H = ThreeForm.basis(3, 0, 1, 2, 1.0)
    assert lambda_homogeneous(fr, np.diag([0.3, 0.5, 0.9]), H) == \
        pytest.approx(136.0 / 27.0, rel=1e-13)
    assert lambda_homogeneous(fr, 0.5 * np.eye(3), H) == \
        pytest.approx(8.0, rel=1e-13)


def test_lambda_of_bi_invariant_pair():
    # R = 6 and |H|^2 = 24 on the unit round sphere with bi-invariant torsion
    fr = milnor_su2_frame()
    g = np.eye(3)
    assert lambda_homogeneous(fr, g, bi_invariant_three_form(fr, g)) == \
        pytest.approx(4.0, rel=1e-13)


def test_flow_singularity_carries_time():
    err = FlowSingularity("boom", t=0.3)
    assert err.t == 0.3
