import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import rand_3form
from grflab import courant
from grflab.courant import (GeneralizedVector, LieFrame, ThreeForm, TwoForm,
                            aff_r2_frame, abelian_frame, b_field_transform,
                            courant_axiom_report, direct_sum_frame,
                            dorfman_invariant, dump_invariant_data,
                            eigenbundle_projections, exterior_d_invariant,
                            generalized_metric, load_invariant_data,
                            milnor_su2_frame, neutral_pair, su2_frame,
                            su2_r_frame)


def frames_under_test():
    return [milnor_su2_frame(), su2_r_frame(), aff_r2_frame(),
            direct_sum_frame(milnor_su2_frame(), milnor_su2_frame())]


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def test_su2_r_frame_brackets():
    fr = su2_r_frame()
    e = np.eye(4)
    assert np.array_equal(fr.bracket(e[1], e[2]), -e[0])
    assert np.array_equal(fr.bracket(e[2], e[0]), -e[1])
    assert np.array_equal(fr.bracket(e[0], e[1]), -e[2])
    # central direction
    for i in range(3):
        assert np.array_equal(fr.bracket(e[3], e[i]), np.zeros(4))


def test_milnor_frame_brackets():
    fr = milnor_su2_frame()
    e = np.eye(3)
    assert np.array_equal(fr.bracket(e[0], e[1]), -2.0 * e[2])
    assert np.array_equal(fr.bracket(e[1], e[2]), -2.0 * e[0])


def test_all_frames_satisfy_jacobi():
    for fr in frames_under_test() + [su2_frame(), abelian_frame(5)]:
        assert fr.jacobi_max() < 1e-14


def test_unimodularity():
    assert su2_r_frame().is_unimodular()
    assert milnor_su2_frame().is_unimodular()
    assert abelian_frame(3).is_unimodular()
    assert not aff_r2_frame().is_unimodular()


def test_bracket_antisymmetry(rng):
    fr = su2_r_frame()
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    assert np.allclose(fr.bracket(x, y), -fr.bracket(y, x), atol=1e-14)


def test_frame_text_round_trip():
    fr = aff_r2_frame()
    back = LieFrame.from_text(fr.to_text())
    assert np.array_equal(back.c, fr.c)


def test_structure_constants_must_be_antisymmetric():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        LieFrame(c)


# ---------------------------------------------------------------------------
# sections, forms, pairing
# ---------------------------------------------------------------------------

def test_generalized_vector_arithmetic():
    a = GeneralizedVector([1.0, 0.0], [0.0, 2.0])
    b = GeneralizedVector([0.0, 1.0], [1.0, 0.0])
    s = a + 2.0 * b
    assert np.array_equal(s.x, [1.0, 2.0])
    assert np.array_equal(s.xi, [2.0, 2.0])
    assert (a - a).sup_norm() == 0.0
    assert (-a).x[0] == -1.0


def test_neutral_pair_hand_value():
    a = GeneralizedVector.from_vector([1.0, 0.0, 0.0])
    b = GeneralizedVector.from_covector([1.0, 0.0, 0.0])
    assert neutral_pair(a, b) == 0.5
    assert neutral_pair(a, a) == 0.0
    assert neutral_pair(b, b) == 0.0


def test_two_form_validation():
    with pytest.raises(ValueError):
        TwoForm(np.eye(2))
    B = TwoForm.basis(3, 0, 1, 2.0)
    assert B.matrix[0, 1] == 2.0 and B.matrix[1, 0] == -2.0


def test_two_form_from_wedge():
    alpha = np.array([1.0, 0.0, 0.0])
    beta = np.array([0.0, 3.0, 0.0])
    B = TwoForm.from_wedge(alpha, beta)
    assert B.matrix[0, 1] == 3.0
    assert B.matrix[1, 0] == -3.0


def test_three_form_validation():
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0
    with pytest.raises(ValueError):
        ThreeForm(bad)
    with pytest.raises(ValueError):
        ThreeForm.basis(4, 0, 1, 1)
    H = ThreeForm.basis(3, 0, 1, 2, 2.0)
    assert H.components[0, 1, 2] == 2.0
    assert H.components[1, 0, 2] == -2.0
    assert H.components[2, 0, 1] == 2.0


# near-equal pairs: a base array plus tiny offsets, with inf, nan, empty
# shapes and broadcasting among the draws
_cells = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-12, -1e-12, 1e308, -1e308]))
_offsets = st.one_of(st.just(0.0), st.floats(-3e-12, 3e-12),
                     st.sampled_from([np.inf, np.nan, 1.0, 5e-324]))


@settings(max_examples=400, deadline=None)
@given(data=st.data(),
       shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
       tol=st.sampled_from([0.0, 1e-12, 2.5e-12, 1e-6, 1e300]))
def test_close_gives_the_verdict_of_allclose(data, shape, tol):
    a = data.draw(hnp.arrays(np.float64, shape, elements=_cells))
    offset = data.draw(hnp.arrays(np.float64, shape, elements=_offsets))
    with np.errstate(all="ignore"):
        b = a + offset
    if data.draw(st.booleans()) and a.ndim:
        b = b[..., :1]     # a last side of at most 1 broadcasts against a
    with np.errstate(all="ignore"):
        want = bool(np.allclose(a, b, atol=tol, rtol=0.0))
        assert courant._close(a, b, tol) is want


def test_close_edge_cases():
    empty = np.zeros((0, 3))
    assert courant._close(empty, empty) is True
    inf = np.array([np.inf, -np.inf])
    assert courant._close(inf, inf) is True                    # equal infinities
    assert courant._close(inf, -inf) is False
    nan = np.array([np.nan])
    assert courant._close(nan, nan) is False
    assert courant._close(np.zeros(2), np.full(2, 1e-12)) is True
    assert courant._close(np.zeros(2), np.full(2, 2e-12)) is False


def test_axiom_report_validates_the_three_form_once(rng, three_form_checks):
    fr = su2_r_frame()
    sections = [GeneralizedVector(rng.standard_normal(4), rng.standard_normal(4))
                for _ in range(3)]
    H = ThreeForm.basis(4, 0, 1, 2, -2.0)
    three_form_checks[0] = 0
    from_form = courant_axiom_report(fr, H, sections)
    assert three_form_checks[0] == 0
    from_array = courant_axiom_report(fr, H.components, sections)
    assert three_form_checks[0] == 1
    assert from_form == from_array
    with pytest.raises(ValueError):
        courant_axiom_report(fr, np.ones((4, 4, 4)), sections)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_b_transform_preserves_pairing(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = rng.standard_normal((n, n))
    B = TwoForm(m - m.T)
    a = GeneralizedVector(rng.standard_normal(n), rng.standard_normal(n))
    b = GeneralizedVector(rng.standard_normal(n), rng.standard_normal(n))
    before = neutral_pair(a, b)
    after = neutral_pair(b_field_transform(a, B), b_field_transform(b, B))
    assert abs(before - after) < 1e-12 * max(1.0, abs(before))


# ---------------------------------------------------------------------------
# generalized metric
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_generalized_metric_squares_to_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    a = rng.standard_normal((n, n))
    g = a @ a.T + n * np.eye(n)
    m = rng.standard_normal((n, n))
    G = generalized_metric(g, TwoForm(m - m.T))
    E = G.endomorphism()
    assert np.max(np.abs(E @ E - np.eye(2 * n))) < 1e-10


def test_eigenbundle_projections_split_section(rng):
    g = np.diag([1.0, 2.0, 3.0])
    G = generalized_metric(g)
    a = GeneralizedVector(rng.standard_normal(3), rng.standard_normal(3))
    p, m = eigenbundle_projections(G, a)
    assert (p + m - a).sup_norm() < 1e-14
    # projections live in the +/- eigenbundles of the endomorphism
    assert (G.apply(p) - p).sup_norm() < 1e-12
    assert (G.apply(m) - (-1.0 * m)).sup_norm() < 1e-12
    # graph description without b-field: xi = +/- g x
    assert np.max(np.abs(p.xi - g @ p.x)) < 1e-12
    assert np.max(np.abs(m.xi + g @ m.x)) < 1e-12


# ---------------------------------------------------------------------------
# Dorfman bracket and exterior differential
# ---------------------------------------------------------------------------

def test_dorfman_bracket_hand_value():
    # on su(2) x R with H = -e^123: [e_2, e_3] = -e_1 - e^1
    fr = su2_r_frame()
    e = np.eye(4)
    a = GeneralizedVector.from_vector(e[1])
    b = GeneralizedVector.from_vector(e[2])
    out = dorfman_invariant(fr, a, b, ThreeForm.basis(4, 0, 1, 2, -1.0))
    assert np.allclose(out.x, -e[0], atol=1e-15)
    assert np.allclose(out.xi, -e[0], atol=1e-15)
    # without torsion the covector leg vanishes
    out0 = dorfman_invariant(fr, a, b)
    assert np.allclose(out0.x, -e[0], atol=1e-15)
    assert np.max(np.abs(out0.xi)) == 0.0


def test_dorfman_reduces_to_lie_bracket_on_vectors(rng):
    fr = milnor_su2_frame()
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    out = dorfman_invariant(fr, GeneralizedVector.from_vector(x),
                            GeneralizedVector.from_vector(y))
    assert np.allclose(out.x, fr.bracket(x, y), atol=1e-14)


def test_exterior_d_matches_reference(rng):
    for fr in frames_under_test():
        n = fr.dim
        for k in (1, 2, 3):
            if k == 1:
                form = rng.standard_normal(n)
            elif k == 2:
                m = rng.standard_normal((n, n))
                form = m - m.T
            else:
                form = rand_3form(rng, n)
            got = exterior_d_invariant(fr, form)
            want = oracles.ce_differential(fr.c, form)
            assert np.max(np.abs(got - want)) < 1e-13


def test_exterior_d_squares_to_zero(rng):
    for fr in frames_under_test():
        n = fr.dim
        alpha = rng.standard_normal(n)
        m = rng.standard_normal((n, n))
        beta = m - m.T
        assert np.max(np.abs(exterior_d_invariant(
            fr, exterior_d_invariant(fr, alpha)))) < 1e-13
        assert np.max(np.abs(exterior_d_invariant(
            fr, exterior_d_invariant(fr, beta)))) < 1e-13


def test_exterior_d_sign_convention():
    # d e^1 = e^2 ^ e^3 on the unit-bracket su(2) frame
    fr = su2_r_frame()
    d = exterior_d_invariant(fr, np.array([1.0, 0.0, 0.0, 0.0]))
    assert d[1, 2] == 1.0
    assert d[2, 1] == -1.0


def test_every_invariant_three_form_on_su2_r_is_closed(rng):
    fr = su2_r_frame()
    for _ in range(10):
        H = rand_3form(rng, 4)
        assert np.max(np.abs(exterior_d_invariant(fr, H))) < 1e-13


# ---------------------------------------------------------------------------
# axiom report
# ---------------------------------------------------------------------------

def test_axiom_report_closed_torsion(rng):
    fr = su2_r_frame()
    sections = [GeneralizedVector(rng.standard_normal(4), rng.standard_normal(4))
                for _ in range(6)]
    rep = courant_axiom_report(fr, ThreeForm.basis(4, 0, 1, 2, -2.0), sections)
    assert rep.h_closed
    assert not rep.jacobi_failure_expected
    assert rep.within(1e-12)
    assert rep.n_sections == 6
    assert rep.n_triples > 0
    assert "jacobi" in rep.checked
    assert "anchor_leibniz" in rep.skipped


def test_axiom_report_flags_nonclosed_torsion(rng):
    fr = aff_r2_frame()
    sections = [GeneralizedVector(rng.standard_normal(4), rng.standard_normal(4))
                for _ in range(6)]
    rep = courant_axiom_report(fr, ThreeForm.basis(4, 1, 2, 3, 1.0), sections)
    assert not rep.h_closed
    assert rep.jacobi_failure_expected
    assert rep.dh_max == pytest.approx(1.0)
    assert rep.jacobi_max > 1e-6
    # the non-Jacobi residuals are insensitive to dH
    assert rep.pairing_derivation_max < 1e-12
    assert rep.symmetrization_max < 1e-12


def frozen_axiom_loop(frame, H, sections):
    """The report's triple loop as it was before each pair bracket was
    evaluated once, kept as the parity reference: six brackets per triple
    and two per pair."""
    dh_max = float(np.max(np.abs(exterior_d_invariant(frame, H))))

    def br(u, v):
        return dorfman_invariant(frame, u, v, H)

    jac = pair = symm = 0.0
    n_triples = 0
    for a in sections:
        for b in sections:
            ab = br(a, b)
            symm = max(symm, (ab + br(b, a)).sup_norm())
            for c_sec in sections:
                n_triples += 1
                residual = br(a, br(b, c_sec)) - br(ab, c_sec) - br(b, br(a, c_sec))
                jac = max(jac, residual.sup_norm())
                pair = max(pair, abs(neutral_pair(ab, c_sec)
                                     + neutral_pair(b, br(a, c_sec))))
    return courant.CourantAxiomReport(
        n_sections=len(sections), n_triples=n_triples, jacobi_max=jac,
        pairing_derivation_max=pair, symmetrization_max=symm, dh_max=dh_max,
        h_closed=dh_max <= 1e-12, jacobi_failure_expected=not dh_max <= 1e-12)


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("frame, H", [
    (su2_r_frame(), ThreeForm.basis(4, 0, 1, 2, -1.0)),
    (aff_r2_frame(), ThreeForm.basis(4, 1, 2, 3, 1.0))], ids=["closed", "dH=-e1234"])
def test_axiom_report_equals_the_frozen_loop_with_each_pair_bracket_once(
        rng, monkeypatch, frame, H, m):
    sections = [GeneralizedVector(rng.standard_normal(4), rng.standard_normal(4))
                for _ in range(m)]
    want = frozen_axiom_loop(frame, H, sections)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return dorfman_invariant(*args)

    monkeypatch.setattr(courant, "dorfman_invariant", counted)
    got = courant_axiom_report(frame, H, sections)
    assert calls[0] == m ** 2 + 3 * m ** 3
    # every field bit for bit: the floats are maxima of absolute values
    assert [repr(v) for v in vars(got).values()] == [repr(v) for v in vars(want).values()]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_invariant_data_round_trip(rng):
    fr = su2_r_frame()
    g = np.diag([1.0, 2.0, 3.0, 0.7])
    m = rng.standard_normal((4, 4))
    b = TwoForm(m - m.T)
    H = ThreeForm.basis(4, 0, 1, 2, -1.5)
    text = dump_invariant_data(fr, g, b, H)
    out = load_invariant_data(text)
    assert np.array_equal(out["frame"].c, fr.c)
    assert np.array_equal(out["g"], g)
    assert np.array_equal(out["b"].matrix, b.matrix)
    assert np.array_equal(out["H"].components, H.components)
