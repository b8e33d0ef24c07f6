import numpy as np
import pytest

import oracles
from conftest import rand_3form, rand_spd
from grflab import geometry
from grflab.courant import (ThreeForm, aff_r2_frame, direct_sum_frame,
                            milnor_su2_frame, su2_r_frame)
from grflab.geometry import (DivergenceData, bi_invariant_three_form,
                             bianchi_suite, bismut_connection, bismut_ricci,
                             bismut_scalar, codifferential,
                             covariant_derivative, curvature, generalized_ricci,
                             generalized_scalar, generalized_scalar_pair,
                             h_norm2, h_squared, hopf_einstein_pair,
                             levi_civita, ricci, riemann, scalar_curvature,
                             volume_three_form)


def random_cases(rng):
    cases = []
    for fr in (milnor_su2_frame(), su2_r_frame(), aff_r2_frame(),
               direct_sum_frame(su2_r_frame(), milnor_su2_frame())):
        n = fr.dim
        cases.append((fr, rand_spd(rng, n), rand_3form(rng, n)))
    return cases


# ---------------------------------------------------------------------------
# Levi-Civita data against the reference implementation
# ---------------------------------------------------------------------------

def test_levi_civita_matches_reference(rng):
    for fr, g, _ in random_cases(rng):
        got = levi_civita(fr, g).gamma
        want = oracles.koszul_connection(fr.c, g)
        assert np.max(np.abs(got - want)) < 1e-12


def test_levi_civita_is_metric_and_torsion_free(rng):
    for fr, g, _ in random_cases(rng):
        conn = levi_civita(fr, g)
        grad_g = covariant_derivative(conn, g)
        assert np.max(np.abs(grad_g)) < 1e-12
        torsion = conn.gamma - conn.gamma.transpose(1, 0, 2) - fr.c
        assert np.max(np.abs(torsion)) < 1e-12


def test_ricci_matches_reference(rng):
    for fr, g, _ in random_cases(rng):
        assert np.max(np.abs(ricci(fr, g) - oracles.ricci(fr.c, g))) < 1e-11
        assert scalar_curvature(fr, g) == pytest.approx(
            oracles.scalar_curvature(fr.c, g), abs=1e-11)


def test_unit_round_sphere_curvature():
    fr = milnor_su2_frame()
    g = np.eye(3)
    assert np.max(np.abs(ricci(fr, g) - 2.0 * np.eye(3))) < 1e-14
    assert scalar_curvature(fr, g) == pytest.approx(6.0, abs=1e-13)


def test_berger_sphere_curvature_hand_values():
    # left-invariant metric diag(1, 2, 3) in the Milnor frame
    fr = milnor_su2_frame()
    g = np.diag([1.0, 2.0, 3.0])
    rc = ricci(fr, g)
    assert np.max(np.abs(rc - np.diag([0.0, 0.0, 8.0]))) < 1e-12
    assert scalar_curvature(fr, g) == pytest.approx(8.0 / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the one-pass curvature kernel against the loop oracles
# ---------------------------------------------------------------------------

KERNEL_FRAMES = {3: milnor_su2_frame(), 4: su2_r_frame(),
                 6: direct_sum_frame(milnor_su2_frame(), milnor_su2_frame()),
                 8: direct_sum_frame(su2_r_frame(), su2_r_frame())}


def closed_three_form(rng, fr):
    """d of a random 2-form plus the volume form of the leading su(2) block."""
    b = rng.standard_normal((fr.dim, fr.dim))
    H = oracles.ce_differential(fr.c, b - b.T)
    return H + ThreeForm.basis(fr.dim, 0, 1, 2, rng.uniform(-2.0, 2.0)).components


def loop_rm_norm(c, g):
    """|Rm|_g from the loop curvature, raising all four indices at once."""
    ginv = np.linalg.inv(g)
    low = np.einsum("ijkm,ml->ijkl",
                    oracles.curvature(c, oracles.koszul_connection(c, g)), g)
    up = np.einsum("ijkl,ia,jb,kc,ld->abcd", low, ginv, ginv, ginv, ginv,
                   optimize=True)
    return float(np.sqrt(abs(np.sum(low * up))))


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_curvature_kernel_matches_loop_oracles(rng, n):
    fr = KERNEL_FRAMES[n]
    g, H = rand_spd(rng, n), closed_three_form(rng, fr)
    cv = curvature(fr, g, H, monitor=True)
    assert np.max(np.abs(cv.ricci - oracles.ricci(fr.c, g))) < 1e-11
    assert np.max(np.abs(cv.h2 - oracles.h_squared(g, H))) < 1e-10
    assert np.max(np.abs(cv.dstar_h - oracles.codifferential_via_trace(
        fr.c, g, H))) < 1e-11
    assert cv.scalar == pytest.approx(oracles.scalar_curvature(fr.c, g), abs=1e-11)
    assert cv.h_norm2 == pytest.approx(oracles.h_norm_squared(g, H), rel=1e-12)
    assert cv.rm_norm == pytest.approx(loop_rm_norm(fr.c, g), rel=1e-12)

    # without H the torsion terms vanish; without monitor |Rm| is not formed
    bare = curvature(fr, g)
    assert np.array_equal(bare.ricci, cv.ricci) and bare.scalar == cv.scalar
    assert not bare.h2.any() and not bare.dstar_h.any() and bare.h_norm2 == 0.0
    assert np.isnan(bare.rm_norm)


# ---------------------------------------------------------------------------
# torsion contractions
# ---------------------------------------------------------------------------

def test_h_squared_matches_reference(rng):
    for fr, g, H in random_cases(rng):
        assert np.max(np.abs(h_squared(g, H) - oracles.h_squared(g, H))) < 1e-10
        assert h_norm2(g, H) == pytest.approx(
            oracles.h_norm_squared(g, H), rel=1e-12)


def test_h_contractions_hand_values():
    # diag(A, B, C) with H = e^123 on su(2)
    g = np.diag([0.3, 0.5, 0.9])
    H = ThreeForm.basis(3, 0, 1, 2, 1.0).components
    h2 = h_squared(g, H)
    want = np.diag([2.0 / (0.5 * 0.9), 2.0 / (0.3 * 0.9), 2.0 / (0.3 * 0.5)])
    assert np.max(np.abs(h2 - want)) < 1e-12
    assert h_norm2(g, H) == pytest.approx(6.0 / (0.3 * 0.5 * 0.9), rel=1e-13)


def test_codifferential_agrees_with_hodge_route(rng):
    for fr, g, H in random_cases(rng):
        got = codifferential(fr, g, H)
        assert np.max(np.abs(got - oracles.codifferential_via_trace(
            fr.c, g, H))) < 1e-11
        assert np.max(np.abs(got - oracles.codifferential_via_hodge(
            fr.c, g, H))) < 1e-10


def test_volume_torsion_is_codifferential_free(rng):
    fr = milnor_su2_frame()
    for _ in range(5):
        g = np.diag(rng.uniform(0.3, 2.0, 3))
        H = volume_three_form(g)
        assert np.max(np.abs(codifferential(fr, g, H.components))) < 1e-12


def test_volume_three_form_normalization():
    vol = volume_three_form(np.diag([1.0, 2.0, 3.0]))
    assert vol.components[0, 1, 2] == pytest.approx(np.sqrt(6.0), rel=1e-15)


# ---------------------------------------------------------------------------
# Bismut connections
# ---------------------------------------------------------------------------

def test_bismut_connection_matches_reference(rng):
    for fr, g, H in random_cases(rng):
        for sign in (+1, -1):
            got = bismut_connection(fr, g, H, sign).gamma
            want = oracles.bismut_connection(fr.c, g, H, sign)
            assert np.max(np.abs(got - want)) < 1e-11


def test_bismut_connection_is_metric_with_torsion(rng):
    fr, g, H = su2_r_frame(), rand_spd(rng, 4), rand_3form(rng, 4)
    for sign in (+1, -1):
        conn = bismut_connection(fr, g, H, sign)
        assert np.max(np.abs(covariant_derivative(conn, g))) < 1e-12
        lowered_torsion = np.einsum(
            "ijl,lk->ijk", conn.gamma - conn.gamma.transpose(1, 0, 2) - fr.c, g)
        assert np.max(np.abs(lowered_torsion - sign * H)) < 1e-12


@pytest.mark.filterwarnings("ignore:torsion form is not closed")
def test_bismut_ricci_routes_agree(rng):
    # the two routes coincide for any invariant 3-form, closed or not
    for fr, g, H in random_cases(rng):
        if not fr.is_unimodular():
            continue
        for sign in (+1, -1):
            via_formula = bismut_ricci(fr, g, H, sign, route="formula")
            via_curvature = bismut_ricci(fr, g, H, sign, route="curvature")
            scale = max(1.0, np.max(np.abs(via_formula)))
            assert np.max(np.abs(via_formula - via_curvature)) < 1e-10 * scale


def test_bismut_ricci_rejects_unknown_route():
    fr = milnor_su2_frame()
    with pytest.raises(ValueError):
        bismut_ricci(fr, np.eye(3), ThreeForm.zero(3), route="magic")


def test_bismut_scalar_hand_value():
    # unit round sphere with volume torsion: R = 6, |H|^2 = 24
    fr = milnor_su2_frame()
    g = np.eye(3)
    H = bi_invariant_three_form(fr, g)
    assert h_norm2(g, H.components) == pytest.approx(24.0, rel=1e-13)
    assert bismut_scalar(fr, g, H) == pytest.approx(0.0, abs=1e-12)


def test_bi_invariant_torsion_flattens_bismut(rng):
    fr = milnor_su2_frame()
    for s in (0.5, 1.0, 2.3):
        g = s * np.eye(3)
        H = bi_invariant_three_form(fr, g)
        for sign in (+1, -1):
            conn = bismut_connection(fr, g, H, sign)
            assert riemann(fr, g, conn).sup_norm < 1e-12


def test_nonclosed_torsion_warns():
    fr = aff_r2_frame()
    H = ThreeForm.basis(4, 1, 2, 3, 1.0)
    with pytest.warns(UserWarning):
        bismut_ricci(fr, np.eye(4), H)


# ---------------------------------------------------------------------------
# Bianchi identities
# ---------------------------------------------------------------------------

def test_bianchi_suite_residuals_small(rng):
    fr = su2_r_frame()
    for _ in range(5):
        rep = bianchi_suite(fr, rand_spd(rng, 4), rand_3form(rng, 4))
        assert rep.within(1e-10)
        assert rep.curvature_scale > 0


def test_bianchi_suite_requires_unimodular_frame():
    fr = aff_r2_frame()
    with pytest.raises(ValueError):
        bianchi_suite(fr, np.eye(4), ThreeForm.zero(4))


def test_bianchi_suite_sees_the_torsion_square_at_n6(rng):
    # cyc H(H(X,Y),Z) vanishes on every 3- and 4-dim test case; on su(2)+su(2)
    # with a generic closed H the first Bianchi identity needs it
    fr = KERNEL_FRAMES[6]
    b = rng.standard_normal((6, 6))
    H = (oracles.ce_differential(fr.c, b - b.T)
         + ThreeForm.basis(6, 0, 1, 2, 0.7).components
         + ThreeForm.basis(6, 3, 4, 5, -1.3).components)
    g = rand_spd(rng, 6)
    rep = bianchi_suite(fr, g, H)
    assert rep.within(1e-10)
    # the loop oracles: cyc R^+ - cyc (nabla^+ H)^sharp is the H(H) term, O(1)
    gamma_p = oracles.bismut_connection(fr.c, g, H, +1)
    nh = np.einsum("ijkm,lm->ijkl", oracles.covariant_derivative_form(gamma_p, H),
                   np.linalg.inv(g))

    def cyc(t):
        return t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)

    assert np.max(np.abs(cyc(oracles.curvature(fr.c, gamma_p)) - cyc(nh))) > 0.1


# ---------------------------------------------------------------------------
# twisted Ricci and scalar curvature
# ---------------------------------------------------------------------------

def test_hopf_pair_is_twisted_ricci_flat():
    for k, x in ((1.0, 1.0), (2.0, 0.7)):
        frame, g, H, phi = hopf_einstein_pair(k, x)
        div = DivergenceData.from_covector(phi)
        rp, rm = generalized_ricci(frame, g, H, div)
        assert np.max(np.abs(rp)) < 1e-12
        assert np.max(np.abs(rm)) < 1e-12
        assert abs(generalized_scalar(frame, g, H, phi)) < 1e-12


def test_hopf_pair_undilatonated_ricci_is_zero_but_scalar_is_not():
    frame, g, H, _ = hopf_einstein_pair(1.0, 1.0)
    rp, rm = generalized_ricci(frame, g, H)
    assert np.max(np.abs(rp)) < 1e-12
    assert np.max(np.abs(rm)) < 1e-12
    assert generalized_scalar(frame, g, H, np.zeros(4)) == pytest.approx(1.0)


def test_hopf_scalar_needs_the_full_dilaton_coefficient():
    frame, g, H, phi = hopf_einstein_pair(1.0, 1.0)
    assert generalized_scalar(frame, g, H, 0.5 * phi) == pytest.approx(0.75)


def test_generalized_scalar_rejects_nonclosed_dilaton():
    frame, g, H, _ = hopf_einstein_pair()
    with pytest.raises(ValueError):
        generalized_scalar(frame, g, H, np.array([1.0, 0.0, 0.0, 0.0]))


def test_scalar_pair_symmetry(rng):
    # opposite-sign pair built from a covector: S+ = S- up to sign rules
    frame, g, H, phi = hopf_einstein_pair(2.0, 0.7)
    sp, sm = generalized_scalar_pair(frame, g, H,
                                     DivergenceData.from_covector(phi))
    assert sp == pytest.approx(0.0, abs=1e-12)
    assert sm == pytest.approx(0.0, abs=1e-12)


def test_divergence_data_constructors():
    phi = np.array([0.0, 0.0, 0.0, -2.0])
    d = DivergenceData.from_covector(phi)
    assert np.array_equal(d.phi_plus, 0.5 * phi)
    assert np.array_equal(d.phi_minus, -0.5 * phi)
    g = np.diag([1.0, 1.0, 1.0, 4.0])
    X = np.array([0.0, 0.0, 0.0, 1.0])
    dv = DivergenceData.from_vector(g, X)
    assert np.array_equal(dv.phi_plus, dv.phi_minus)
    assert dv.phi_plus[3] == 2.0
    z = DivergenceData.zero(4)
    assert np.max(np.abs(z.phi_plus)) == 0.0


def test_twisted_ricci_sees_the_bismut_derivative_of_the_dilaton():
    # g03 = 0.2 keeps phi = -2 e^3 closed, but nabla^+/- phi_+/- no longer vanish
    frame, g, H, phi = hopf_einstein_pair(1.0, 1.0)
    g = g.copy()
    g[0, 3] = g[3, 0] = 0.2
    Ha = H.components
    div = DivergenceData.from_covector(phi)
    rc = oracles.ricci(frame.c, g)
    base = 0.5 * (rc + rc.T) - 0.25 * oracles.h_squared(g, Ha)
    half_dstar = 0.5 * oracles.codifferential_via_trace(frame.c, g, Ha)
    nabla_p, nabla_m = (oracles.covariant_derivative_form(
        oracles.bismut_connection(frame.c, g, Ha, sign), phi_s)
        for sign, phi_s in ((+1, div.phi_plus), (-1, div.phi_minus)))
    assert np.max(np.abs(nabla_p)) > 0.1 and np.max(np.abs(nabla_m)) > 0.1
    rp, rm = generalized_ricci(frame, g, H, div)
    assert np.max(np.abs(rp - (base - half_dstar + nabla_p))) < 1e-12
    assert np.max(np.abs(rm - (base + half_dstar - nabla_m))) < 1e-12


def test_scalar_pair_sees_the_dilaton_codifferential():
    # on the non-unimodular aff(1)+R2 with g = I, phi = e^0 is closed with
    # d*phi = 1 (both oracle routes) and R = -2
    frame, g, phi = aff_r2_frame(), np.eye(4), np.array([1.0, 0.0, 0.0, 0.0])
    H = ThreeForm.zero(4)
    div = DivergenceData.from_covector(phi)
    R = oracles.scalar_curvature(frame.c, g)
    want = []
    for sgn, phi_s in ((+1, div.phi_plus), (-1, div.phi_minus)):
        dstar = float(oracles.codifferential_via_trace(frame.c, g, phi_s))
        assert dstar == pytest.approx(float(oracles.codifferential_via_hodge(
            frame.c, g, phi_s)), abs=1e-14)
        want.append(sgn * 0.5 * (R - sgn * 2.0 * dstar - phi_s @ phi_s))
    sp, sm = generalized_scalar_pair(frame, g, H, div)
    assert (sp, sm) == pytest.approx((-1.625, 1.625), abs=1e-14)
    assert (sp, sm) == pytest.approx(tuple(want), abs=1e-14)
    assert generalized_scalar(frame, g, H, phi) == pytest.approx(-3.25, abs=1e-14)


@pytest.mark.parametrize("check", ["bianchi_suite", "generalized_ricci",
                                   "generalized_scalar_pair"])
def test_bismut_checkers_invert_g_and_run_koszul_once(monkeypatch, check):
    frame, g, H, phi = hopf_einstein_pair(2.0, 0.7)
    div = DivergenceData.from_covector(phi)
    args = (frame, g, H) if check == "bianchi_suite" else (frame, g, H, div)
    calls = {"inv": 0, "levi_civita": 0}

    def spy(name, fn):
        def counted(*a, **k):
            calls[name] += 1
            return fn(*a, **k)
        return counted

    monkeypatch.setattr(np.linalg, "inv", spy("inv", np.linalg.inv))
    monkeypatch.setattr(geometry, "levi_civita", spy("levi_civita", geometry.levi_civita))
    getattr(geometry, check)(*args)
    assert calls == {"inv": 1, "levi_civita": 1}


def test_perturbed_hopf_pair_is_detected():
    frame, g, H, phi = hopf_einstein_pair(1.0, 1.0)
    g = g.copy()
    g[0, 0] += 0.1
    div = DivergenceData.from_covector(phi)
    rp, rm = generalized_ricci(frame, g, H, div)
    assert max(np.max(np.abs(rp)), np.max(np.abs(rm))) > 1e-3
