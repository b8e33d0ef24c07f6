import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grflab.geometry import DivergenceData, generalized_scalar_pair
from grflab.tduality import (CircleBundleData, VerticalDensity, buscher_dual,
                             circle_bundle_dual_rhs, dilaton_shift,
                             dump_circle_bundle, einstein_exchange_check,
                             flow_commutation_check, hopf_einstein_pair_dual,
                             load_circle_bundle)


def random_bundle(rng, m):
    """Valid bundle data: assembled (m+1)-metric is SPD by construction."""
    g0 = float(rng.uniform(0.2, 3.0))
    g1 = rng.standard_normal(m)
    a = rng.standard_normal((m, m))
    g2 = a @ a.T + np.outer(g1, g1) / g0 + 0.25 * np.eye(m)
    b1 = rng.standard_normal(m)
    bm = rng.standard_normal((m, m))
    return CircleBundleData(g0, g1, g2, b1, bm - bm.T)


# ---------------------------------------------------------------------------
# data container
# ---------------------------------------------------------------------------

def test_bundle_validation():
    with pytest.raises(ValueError):
        CircleBundleData(-1.0, np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        CircleBundleData(1.0, np.zeros(2), np.eye(3))
    with pytest.raises(ValueError):
        CircleBundleData(1.0, np.zeros(1), np.eye(1),
                         b2=np.array([[1.0]]))
    # assembled matrix must be positive definite
    with pytest.raises(ValueError):
        CircleBundleData(1.0, np.array([2.0]), np.eye(1))


def test_assembled_layout():
    data = CircleBundleData(2.0, np.array([0.5]), np.array([[3.0]]))
    M = data.assembled()
    assert M[0, 0] == 2.0
    assert M[0, 1] == M[1, 0] == 0.5
    assert M[1, 1] == 3.0
    assert data.base_dim == 1


# ---------------------------------------------------------------------------
# the fiberwise dual
# ---------------------------------------------------------------------------

def test_buscher_hand_example():
    data = CircleBundleData(2.0, np.array([3.0]), np.array([[10.0]]),
                            b1=np.array([4.0]))
    dual = buscher_dual(data)
    assert dual.g0 == pytest.approx(0.5)
    assert dual.g1[0] == pytest.approx(-2.0)
    assert dual.g2[0, 0] == pytest.approx(13.5)
    assert dual.b1[0] == pytest.approx(-1.5)
    assert np.max(np.abs(dual.b2)) == 0.0


def test_fiber_size_inverts():
    data = CircleBundleData(4.0, np.zeros(2), np.eye(2))
    dual = buscher_dual(data)
    assert dual.g0 == pytest.approx(0.25)
    assert np.max(np.abs(dual.g2 - np.eye(2))) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_double_dual_is_identity(seed, m):
    rng = np.random.default_rng(seed)
    data = random_bundle(rng, m)
    back = buscher_dual(buscher_dual(data))
    for field in ("g0", "g1", "g2", "b1", "b2"):
        a, b = getattr(data, field), getattr(back, field)
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-12 * max(
            1.0, float(np.max(np.abs(np.asarray(a)))))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_dual_data_stays_positive(seed, m):
    rng = np.random.default_rng(seed)
    dual = buscher_dual(random_bundle(rng, m))
    assert dual.g0 > 0
    assert np.min(np.linalg.eigvalsh(dual.assembled())) > 0


# ---------------------------------------------------------------------------
# densities and the dilaton shift
# ---------------------------------------------------------------------------

def test_density_dual_negates_log():
    rho = VerticalDensity(np.array([0.1, -0.3, 0.2, 0.0]), spacing=0.5)
    hat = rho.dual()
    assert np.array_equal(hat.log_det, -rho.log_det)
    assert np.allclose(hat.nu() * rho.nu(), 1.0)


def test_dilaton_shift_constant_density_is_identity():
    rho = VerticalDensity(np.zeros(8), spacing=0.1)
    phi = np.linspace(0.0, 1.0, 8)
    shifted = dilaton_shift(phi, rho, rho.dual())
    assert np.allclose(shifted, phi)


def test_dilaton_shift_hand_value():
    # log density sin(theta) on a 4-point circle: the dual subtracts
    # 2 sin, so the central difference adds -4/pi at theta = 0
    h = 2.0 * np.pi / 4.0
    theta = np.arange(4) * h
    rho = VerticalDensity(np.sin(theta), spacing=h)
    shifted = dilaton_shift(np.zeros(4), rho, rho.dual())
    assert shifted[0] == pytest.approx(-4.0 / np.pi, rel=1e-12)
    assert shifted[2] == pytest.approx(4.0 / np.pi, rel=1e-12)


# ---------------------------------------------------------------------------
# flow commutation
# ---------------------------------------------------------------------------

def test_dual_rhs_hand_value():
    assert np.allclose(circle_bundle_dual_rhs(1.0, 1.0), [1.0, -1.0])


def test_flow_commutes_on_short_horizon():
    rep = flow_commutation_check(1.0, 1.0, dt=0.01, T=0.2)
    assert rep.max_deviation < 1e-6
    assert rep.times[-1] == pytest.approx(0.2, abs=1e-12)
    assert rep.primal.shape == rep.dual_direct.shape == rep.dual_flowed.shape


def test_commutation_report_csv(tmp_path):
    rep = flow_commutation_check(1.0, 1.0, dt=0.05, T=0.2)
    path = tmp_path / "commutation.csv"
    rep.to_csv(path)
    rows = path.read_text().splitlines()
    assert rows[0] == ("t,K,L,K_dual_direct,L_dual_direct,"
                       "K_dual_via_buscher,L_dual_via_buscher")
    assert len(rows) == len(rep.times) + 1


def frozen_commutation_to_csv(rep, path):
    """CommutationReport.to_csv with csv.writer, as it was before the shared
    table writer; kept as the parity reference."""
    header = ["t", "K", "L", "K_dual_direct", "L_dual_direct",
              "K_dual_via_buscher", "L_dual_via_buscher"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, t in enumerate(rep.times):
            row = [t, *rep.primal[i], *rep.dual_direct[i], *rep.dual_flowed[i]]
            w.writerow([repr(float(v)) for v in row])


@pytest.mark.parametrize("nan_row", [None, 0, -1])
def test_commutation_csv_matches_the_csv_writer_form(nan_row, tmp_path):
    rep = flow_commutation_check(1.0, 1.0, dt=0.01, T=0.4)
    if nan_row is not None:
        rep.dual_flowed[nan_row] = np.nan
        rep.primal[nan_row, 0] = -0.0
    rep.to_csv(tmp_path / "new.csv")
    frozen_commutation_to_csv(rep, tmp_path / "old.csv")
    want = (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == want.replace(b"\r\n", b"\n")


# ---------------------------------------------------------------------------
# the dual Hopf pair
# ---------------------------------------------------------------------------

def test_dual_hopf_pair_solves_the_vector_system():
    for k, x in ((1.0, 1.0), (2.0, 0.7)):
        frame, g, H, e = hopf_einstein_pair_dual(k, x)
        assert g[3, 3] == pytest.approx(1.0 / (k * x * x))
        sp, sm = generalized_scalar_pair(frame, g, H,
                                         DivergenceData.from_vector(g, e))
        assert abs(sp) < 1e-12
        assert abs(sm) < 1e-12


def test_exchange_check_passes_on_the_model_pair():
    rep = einstein_exchange_check(1.0, 1.0)
    assert rep.within(1e-10)
    assert rep.fiber_rule_gap < 1e-12


def test_exchange_check_detects_wrong_dual_metric():
    frame, g, H, _ = hopf_einstein_pair_dual(1.0, 1.0)
    bad = g.copy()
    bad[3, 3] *= 1.3
    rep = einstein_exchange_check(1.0, 1.0, dual_metric=bad)
    assert not rep.within(1e-10)
    assert rep.dual_scalar_max > 1e-3 or rep.fiber_rule_gap > 1e-3


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_bundle_round_trip(rng):
    data = random_bundle(rng, 3)
    back = load_circle_bundle(dump_circle_bundle(data))
    assert back.g0 == data.g0
    assert np.array_equal(back.g1, data.g1)
    assert np.array_equal(back.g2, data.g2)
    assert np.array_equal(back.b1, data.b1)
    assert np.array_equal(back.b2, data.b2)
