import numpy as np
import pytest

from conftest import rand_3form, rand_spd
from grflab import geometry
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
