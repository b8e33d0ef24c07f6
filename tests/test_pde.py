import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from grflab.pde import (ADMISSIBILITY_FLOOR, DEFAULT_PERIOD, PeriodicGrid,
                        PositivityError, _operator_matrix, gkrf_rhs,
                        grid_to_csv, krf_rhs, lambda_eigen, laplacian,
                        pde_integrate, second_difference)


def sine_grid(amplitude, N=16, M=None):
    return PeriodicGrid.from_function(
        lambda X, Y: amplitude * np.sin(X) * np.sin(Y), N, M)


# ---------------------------------------------------------------------------
# reference: the np.roll formulas and the RK2 loop as first written, kept
# here so that the buffered kernel can be held to them bit for bit
# ---------------------------------------------------------------------------

def roll_second_difference(u, axis, period):
    if u.shape[axis] == 1:
        return np.zeros_like(u)
    h = period / u.shape[axis]
    return (np.roll(u, 1, axis=axis) + np.roll(u, -1, axis=axis) - 2.0 * u) / (h * h)


def roll_check_positive(factor, floor, what):
    if np.min(factor) <= floor:
        node = tuple(int(k) for k in
                     np.unravel_index(int(np.argmin(factor)), factor.shape))
        raise PositivityError(
            f"{what} = {float(factor[node]):.3e} <= {floor:.1e} at node {node}",
            node=node, value=float(factor[node]))


def roll_krf(u, period, floor=ADMISSIBILITY_FLOOR):
    half_lap = 0.5 * (roll_second_difference(u, 0, period)
                      + roll_second_difference(u, 1, period))
    roll_check_positive(1.0 + half_lap, floor, "1 + lap(u)/2")
    return np.log1p(half_lap)


def roll_gkrf(u, period, floor=ADMISSIBILITY_FLOOR):
    uxx = 0.5 * roll_second_difference(u, 0, period)
    uyy = 0.5 * roll_second_difference(u, 1, period)
    roll_check_positive(1.0 + uxx, floor, "1 + u_xx/2")
    roll_check_positive(1.0 - uyy, floor, "1 - u_yy/2")
    return np.log1p(uxx) - np.log1p(-uyy)


def roll_integrate(u, period, dt, steps, rhs, stop_sup_rate=None):
    """The list-based loop; it records the state it stops on twice."""
    u = u.copy()
    times, sups, infs, oscs = [], [], [], []
    t = 0.0
    for _ in range(steps):
        rate = rhs(u, period)
        times.append(t)
        sups.append(float(np.max(rate)))
        infs.append(float(np.min(rate)))
        oscs.append(float(np.max(u) - np.min(u)))
        if stop_sup_rate is not None and max(abs(sups[-1]), abs(infs[-1])) < stop_sup_rate:
            break
        mid = u + 0.5 * dt * rate
        u = u + dt * rhs(mid, period)
        t += dt
    rate = rhs(u, period)
    times.append(t)
    sups.append(float(np.max(rate)))
    infs.append(float(np.min(rate)))
    oscs.append(float(np.max(u) - np.min(u)))
    return [np.array(a) for a in (times, sups, infs, oscs)], u


def outcome(fn, *args):
    """An array, or (message, node, value) of the PositivityError raised."""
    try:
        return fn(*args)
    except PositivityError as err:
        return (str(err), err.node, err.value)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# grids and difference operators
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        PeriodicGrid(np.zeros((1, 1)))
    g = PeriodicGrid(np.zeros((8, 1)))
    assert g.shape == (8, 1)
    assert g.h == pytest.approx(DEFAULT_PERIOD / 8)


def test_from_function_samples_nodes():
    g = PeriodicGrid.from_function(lambda X, Y: X + 10.0 * Y, 8, 16)
    assert g.shape == (8, 16)
    assert g.values[1, 0] == pytest.approx(DEFAULT_PERIOD / 8)
    assert g.values[0, 1] == pytest.approx(10.0 * DEFAULT_PERIOD / 16)
    assert g.spacing(0) == pytest.approx(DEFAULT_PERIOD / 8)
    assert g.spacing(1) == pytest.approx(DEFAULT_PERIOD / 16)


def test_second_difference_eigenfunction():
    # sin(x) is an exact eigenfunction of the discrete operator with
    # eigenvalue 2 (cos h - 1) / h^2
    g = PeriodicGrid.from_function(lambda X, Y: np.sin(X), 32)
    mu = 2.0 * (np.cos(g.h) - 1.0) / g.h ** 2
    assert np.max(np.abs(second_difference(g, 0) - mu * g.values)) < 1e-13
    assert np.max(np.abs(second_difference(g, 1))) < 1e-13


def test_laplacian_sums_axes():
    g = sine_grid(0.1, 16)
    got = laplacian(g)
    want = second_difference(g, 0) + second_difference(g, 1)
    assert np.array_equal(got, want)


def test_degenerate_axis_contributes_nothing():
    g = PeriodicGrid.from_function(lambda X, Y: np.sin(X), 16, 1)
    assert np.max(np.abs(second_difference(g, 1))) == 0.0


SIZES = st.sampled_from([1] + list(range(8, 41)))


@settings(max_examples=150, deadline=None)
@given(N=SIZES, M=SIZES, period=st.floats(0.5, 20.0),
       amplitude=st.floats(0.0, 4.0), smooth=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stencil_and_rhs_bitwise_equal_to_roll_form(N, M, period, amplitude,
                                                    smooth, seed):
    if max(N, M) < 8:
        return
    rng = np.random.default_rng(seed)
    if smooth:
        g = PeriodicGrid.from_function(
            lambda X, Y: amplitude * np.sin(X + rng.uniform(0, 7))
            * np.cos(2 * Y + rng.uniform(0, 7)), N, M, period)
    else:
        g = PeriodicGrid(amplitude * rng.standard_normal((N, M)), period)
    u = g.values
    for axis in (0, 1):
        assert np.array_equal(second_difference(g, axis),
                              roll_second_difference(u, axis, period))
    assert np.array_equal(laplacian(g), roll_second_difference(u, 0, period)
                          + roll_second_difference(u, 1, period))
    assert_same_outcome(outcome(krf_rhs, g), outcome(roll_krf, u, period))
    assert_same_outcome(outcome(gkrf_rhs, g), outcome(roll_gkrf, u, period))


def test_public_results_are_fresh_arrays():
    g = sine_grid(0.1, 16)
    before = g.values.copy()
    results = [second_difference(g, 0), second_difference(g, 1), laplacian(g),
               krf_rhs(g), gkrf_rhs(g)]
    assert np.array_equal(g.values, before)
    for i, a in enumerate(results):
        assert not np.shares_memory(a, g.values)
        for b in results[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("layout", ["transposed", "fortran", "strided", "int"])
def test_values_normalized_to_c_contiguous_float(layout):
    base = sine_grid(0.2, 24, 16).values
    if layout == "transposed":
        values = np.ascontiguousarray(base.T).T
    elif layout == "fortran":
        values = np.asfortranarray(base)
    elif layout == "strided":
        values = np.repeat(base, 2, axis=1)[:, ::2]
    else:
        values = np.rint(5.0 * base).astype(np.int64)
        base = values.astype(float)
    assert np.array_equal(values, base)
    # a long period keeps the integer data admissible
    g, ref = (PeriodicGrid(v, 200.0) for v in (values, np.array(base, order="C")))
    assert g.values.flags.c_contiguous and g.values.dtype == np.float64
    for axis in (0, 1):
        assert np.array_equal(second_difference(g, axis),
                              second_difference(ref, axis))
    assert np.array_equal(krf_rhs(g), krf_rhs(ref))
    assert np.array_equal(gkrf_rhs(g), gkrf_rhs(ref))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_small_amplitude_is_admissible():
    rate = krf_rhs(sine_grid(0.1))
    assert np.all(np.isfinite(rate))


def test_large_amplitude_violates_positivity():
    with pytest.raises(PositivityError) as info:
        krf_rhs(sine_grid(3.0))
    assert info.value.value <= ADMISSIBILITY_FLOOR
    assert len(info.value.node) == 2


def test_mixed_rhs_checks_both_factors():
    with pytest.raises(PositivityError):
        gkrf_rhs(sine_grid(3.0))
    rate = gkrf_rhs(sine_grid(0.1))
    assert np.all(np.isfinite(rate))


def checkerboard(amplitude, N=16, M=16):
    i, j = np.indices((N, M))
    return PeriodicGrid(amplitude * (-1.0) ** (i + j))


@pytest.mark.parametrize("grid, rhs, ref, what, node", [
    # the minimum is tied on every even node; the first one is named
    (checkerboard(1.0), krf_rhs, roll_krf, "1 + lap(u)/2", (0, 0)),
    (checkerboard(1.0), gkrf_rhs, roll_gkrf, "1 + u_xx/2", (0, 0)),
    # both factors fail on sine data; the x-factor is reported
    (sine_grid(3.0), gkrf_rhs, roll_gkrf, "1 + u_xx/2", None),
    # only the y-factor fails, tied on every odd column
    (PeriodicGrid(np.tile((-1.0) ** np.arange(16), (16, 1))), gkrf_rhs,
     roll_gkrf, "1 - u_yy/2", (0, 1)),
    (sine_grid(3.0), krf_rhs, roll_krf, "1 + lap(u)/2", None),
])
def test_positivity_error_matches_roll_form(grid, rhs, ref, what, node):
    with pytest.raises(PositivityError) as got:
        rhs(grid)
    with pytest.raises(PositivityError) as want:
        ref(grid.values, grid.period)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(what)
    assert (got.value.node, got.value.value) == (want.value.node, want.value.value)
    if node is not None:
        assert got.value.node == node


@pytest.mark.parametrize("values, rhs, factor", [
    (sine_grid(0.5).values, krf_rhs,
     lambda u: 1.0 + 0.5 * (roll_second_difference(u, 0, DEFAULT_PERIOD)
                            + roll_second_difference(u, 1, DEFAULT_PERIOD))),
    (sine_grid(0.5).values, gkrf_rhs,
     lambda u: 1.0 + 0.5 * roll_second_difference(u, 0, DEFAULT_PERIOD)),
    (PeriodicGrid.from_function(lambda X, Y: 0.5 * np.sin(Y), 16).values, gkrf_rhs,
     lambda u: 1.0 - 0.5 * roll_second_difference(u, 1, DEFAULT_PERIOD)),
])
def test_factor_exactly_at_floor_raises(values, rhs, factor):
    lowest = float(np.min(factor(values)))
    assert lowest < 1.0
    with pytest.raises(PositivityError) as info:
        rhs(PeriodicGrid(values), floor=lowest)
    assert info.value.value == lowest
    rhs(PeriodicGrid(values), floor=np.nextafter(lowest, -np.inf))


@pytest.mark.parametrize("rhs, ref", [(krf_rhs, roll_krf), (gkrf_rhs, roll_gkrf)])
def test_nan_input_behaves_as_roll_form(rhs, ref):
    # a NaN hides the floor test, as np.min(factor) <= floor is then false
    for amplitude in (0.1, 3.0):
        values = sine_grid(amplitude).values
        values[3, 5] = np.nan
        with np.errstate(invalid="ignore"):
            got = outcome(rhs, PeriodicGrid(values))
            want = outcome(ref, values, DEFAULT_PERIOD)
        assert_same_outcome(got, want)
        assert np.isnan(got).sum() == np.isnan(want).sum() > 0


def test_mixed_rhs_spectral_hand_value():
    # additively separable data keeps the two factors independent, and
    # each discrete second difference acts by its spectral multiplier
    N, M = 16, 32
    g = PeriodicGrid.from_function(
        lambda X, Y: 0.05 * np.sin(X) + 0.03 * np.cos(Y), N, M)
    hx, hy = g.spacing(0), g.spacing(1)
    x = np.arange(N) * hx
    y = np.arange(M) * hy
    X, Y = np.meshgrid(x, y, indexing="ij")
    mux = 2.0 * (np.cos(hx) - 1.0) / hx ** 2
    muy = 2.0 * (np.cos(hy) - 1.0) / hy ** 2
    want = (np.log1p(0.5 * mux * 0.05 * np.sin(X))
            - np.log1p(-0.5 * muy * 0.03 * np.cos(Y)))
    assert np.max(np.abs(gkrf_rhs(g) - want)) < 1e-13


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def test_default_step_size():
    g = sine_grid(0.1, 16)
    traj = pde_integrate(g, steps=5)
    assert traj.dt == pytest.approx(0.2 * g.h ** 2)
    assert traj.steps_taken == 5
    assert len(traj.times) == 6


def both_rhs(grid):
    # two kernels on one grid: inside pde_integrate they share its buffers
    return 0.5 * (krf_rhs(grid) + gkrf_rhs(grid))


def roll_both(u, period):
    return 0.5 * (roll_krf(u, period) + roll_gkrf(u, period))


@pytest.mark.parametrize("N, steps", [(16, 400), (64, 150)])
@pytest.mark.parametrize("rhs, ref", [(krf_rhs, roll_krf), (gkrf_rhs, roll_gkrf),
                                      (both_rhs, roll_both)])
def test_integrate_bitwise_equal_to_roll_loop(N, steps, rhs, ref):
    g = PeriodicGrid.from_function(
        lambda X, Y: 0.1 * np.sin(X) * np.sin(Y) + 0.05 * np.cos(2 * Y), N)
    traj = pde_integrate(g, steps=steps, rhs=rhs)
    (times, sups, infs, oscs), final = roll_integrate(
        g.values, g.period, traj.dt, steps, ref)
    for got, want in ((traj.times, times), (traj.sup_rate, sups),
                      (traj.inf_rate, infs), (traj.osc, oscs),
                      (traj.final.values, final)):
        assert np.array_equal(got, want)
    assert traj.steps_taken == steps and not traj.stopped_early


def test_stop_records_the_final_state_once():
    # the list-based loop recorded the state it stopped on twice and paid
    # one more right-hand side for it
    g = sine_grid(0.1, 16)
    calls = []

    def counted(grid):
        calls.append(1)
        return krf_rhs(grid)

    traj = pde_integrate(g, steps=4000, rhs=counted, stop_sup_rate=1e-8)
    assert traj.stopped_early and traj.steps_taken == 530
    assert len(traj.times) == len(traj.sup_rate) == len(traj.osc) == 531
    assert traj.times[-1] > traj.times[-2]
    assert traj.rhs_evals == len(calls) == 2 * traj.steps_taken + 1
    (times, sups, infs, oscs), final = roll_integrate(
        g.values, g.period, traj.dt, 4000, roll_krf, stop_sup_rate=1e-8)
    assert times[-1] == times[-2] and len(times) == 532
    for got, want in ((traj.times, times), (traj.sup_rate, sups),
                      (traj.inf_rate, infs), (traj.osc, oscs)):
        assert np.array_equal(got, want[:-1])
    assert np.array_equal(traj.final.values, final)


@pytest.mark.parametrize("steps", [0, 1, 7])
def test_rhs_evals_count(steps):
    traj = pde_integrate(sine_grid(0.1, 16), steps=steps, rhs=gkrf_rhs)
    assert traj.steps_taken == steps and len(traj.times) == steps + 1
    assert traj.rhs_evals == 2 * steps + 1


def test_integrate_leaves_input_untouched():
    g = sine_grid(0.1, 16)
    before = g.values.copy()
    traj = pde_integrate(g, steps=10)
    assert np.array_equal(g.values, before)
    assert not np.shares_memory(traj.final.values, g.values)


def test_large_step_warns():
    g = sine_grid(0.1, 16)
    with pytest.warns(UserWarning):
        pde_integrate(g, dt=g.h ** 2, steps=2)


def test_monitors_shrink_and_flow_converges():
    traj = pde_integrate(sine_grid(0.1, 16), steps=4000, stop_sup_rate=1e-8)
    assert traj.stopped_early
    assert np.max(np.diff(traj.sup_rate)) <= 1e-12
    assert np.min(np.diff(traj.inf_rate)) >= -1e-12
    assert traj.osc[-1] < traj.osc[0]
    assert np.max(np.abs(krf_rhs(traj.final))) < 1e-8


def test_mixed_flow_oscillation_decays():
    traj = pde_integrate(sine_grid(0.1, 16), steps=2000, rhs=gkrf_rhs)
    assert traj.osc[-1] < 1e-6
    assert traj.osc[-1] < traj.osc[0]


def test_trajectory_csv(tmp_path):
    traj = pde_integrate(sine_grid(0.1, 16), steps=3)
    path = tmp_path / "monitors.csv"
    traj.to_csv(path)
    rows = path.read_text().splitlines()
    assert rows[0] == "t,sup_rate,inf_rate,sup_abs_rate,osc"
    assert len(rows) == len(traj.times) + 1


def test_grid_csv(tmp_path):
    g = sine_grid(0.1, 8)
    path = tmp_path / "grid.csv"
    grid_to_csv(g, path)
    rows = path.read_text().splitlines()
    assert rows[0] == "i,j,x,y,value"
    assert len(rows) == 65


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------

def test_constant_potential_ground_state_is_exact():
    V = PeriodicGrid(np.full((16, 1), 2.5))
    lam, vec = lambda_eigen(V)
    assert lam == pytest.approx(2.5, abs=1e-12)
    assert np.max(vec.values) - np.min(vec.values) < 1e-10


def test_cosine_potential_frozen_value():
    # agrees with a dense reference and an independently assembled
    # matrix to 3e-14; the continuum value is near -1/8
    V = PeriodicGrid.from_function(lambda X, Y: np.cos(X), 16, 1)
    lam, vec = lambda_eigen(V)
    assert lam == pytest.approx(-0.123279942328658, abs=1e-10)
    assert np.all(vec.values > 0)


def test_ground_state_matches_dense_reference(rng):
    for shape in ((12, 1), (8, 8)):
        V = PeriodicGrid(rng.uniform(-1.0, 1.0, shape))
        lam, vec = lambda_eigen(V)
        lam_ref, vec_ref = oracles.dense_ground_state(
            V.values, (V.spacing(0), V.spacing(1)))
        assert lam == pytest.approx(lam_ref, abs=1e-9)
        got = vec.values.ravel() / np.linalg.norm(vec.values)
        ref = vec_ref.ravel() / np.linalg.norm(vec_ref)
        assert np.max(np.abs(got - ref)) < 1e-7


@settings(max_examples=20, deadline=None)
@given(st.floats(-5.0, 5.0))
def test_ground_state_shift_rule(c):
    V = PeriodicGrid.from_function(lambda X, Y: np.cos(X), 16, 1)
    lam0, _ = lambda_eigen(V)
    lam1, _ = lambda_eigen(V.with_values(V.values + c))
    assert lam1 - lam0 == pytest.approx(c, abs=1e-8)


# ---------------------------------------------------------------------------
# reference: the Kronecker-sum assembly and the solver as first written,
# kept here so that the CSC assembly and the in-place diagonal shift can be
# held to them bit for bit
# ---------------------------------------------------------------------------

def kron_second_difference_matrix(n, h):
    if n == 1:
        return sp.csr_matrix((1, 1))
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    m = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    m[0, n - 1] += 1.0
    m[n - 1, 0] += 1.0
    return (m / (h * h)).tocsr()


def kron_operator_matrix(V):
    N, M = V.shape
    d2x = kron_second_difference_matrix(N, V.spacing(0))
    d2y = kron_second_difference_matrix(M, V.spacing(1))
    lap = sp.kron(d2x, sp.identity(M)) + sp.kron(sp.identity(N), d2y)
    return (-4.0 * lap + sp.diags(V.values.ravel())).tocsr()


def kron_lambda_eigen(V, tol=1e-10, max_iterations=100):
    A = kron_operator_matrix(V).tocsc()
    n = A.shape[0]
    ident = sp.identity(n, format="csc")
    sigma = float(np.min(V.values)) - 1.0
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = float(v @ (A @ v))
    solver = spla.splu(A - sigma * ident)
    for iteration in range(max_iterations):
        v = solver.solve(v)
        v /= np.linalg.norm(v)
        lam = float(v @ (A @ v))
        residual = float(np.linalg.norm(A @ v - lam * v))
        if residual <= tol * max(1.0, abs(lam)):
            break
        if iteration >= 2:
            try:
                solver = spla.splu(A - lam * ident)
            except RuntimeError:
                solver = spla.splu(A - (lam + 1e-10) * ident)
    if v.sum() < 0:
        v = -v
    return lam, v.reshape(V.shape)


def potential(rng, family, shape, period):
    """Random, cos-well and near-degenerate double-well potentials, as the
    torus benchmark draws them, and ``huge`` random ones whose diagonal
    shifts cancel to exactly 0.0."""
    N, M = shape
    X, Y = np.meshgrid(np.arange(N) * (period / N), np.arange(M) * (period / M),
                       indexing="ij")
    if family == "random":
        return 10.0 ** rng.uniform(0.0, 3.0) * rng.uniform(-1.0, 1.0, shape)
    if family == "huge":
        return 10.0 ** rng.uniform(17.0, 19.0) * rng.uniform(-1.0, 1.0, shape)
    if family == "cos_wells":
        k, l = rng.integers(1, 4, 2)
        p, q = rng.uniform(0.0, 2.0 * np.pi, 2)
        return 10.0 ** rng.uniform(0.0, 2.0) * (np.cos(k * X + p) + np.cos(l * Y + q))
    depth, width = 10.0 ** rng.uniform(1.0, 3.0), rng.uniform(0.4, 0.9)
    eps = 10.0 ** rng.uniform(-6.0, -2.0)
    c1 = rng.uniform(0.0, period, 2)

    def well(c):
        dx = np.angle(np.exp(1j * (X - c[0]) * 2.0 * np.pi / period))
        dy = np.angle(np.exp(1j * (Y - c[1]) * 2.0 * np.pi / period))
        return np.exp(-(dx * dx + dy * dy) / (width * width))

    return -depth * (well(c1) + (1.0 + eps) * well(c1 + 0.5 * period))


def cancel_diagonal(V, nodes):
    """V with V_i = -(-4 lap)_ii at ``nodes``, so those diagonal entries of
    -4 lap + V are exactly 0.0."""
    lap4 = kron_operator_matrix(V.with_values(np.zeros(V.shape))).diagonal()
    values = V.values.copy().ravel()
    values[nodes] = -lap4[nodes]
    return V.with_values(values.reshape(V.shape))


GROUND_SHAPES = st.sampled_from([(8, 1), (1, 12), (16, 10), (8, 8), (12, 12),
                                 (16, 16), (10, 24), (32, 32), (64, 64)])
PERIODS = st.sampled_from([DEFAULT_PERIOD, 1.0, 9.5])


def ground_grid(shape, period, family, seed, cancel):
    rng = np.random.default_rng(seed)
    V = PeriodicGrid(potential(rng, family, shape, period), period)
    if cancel:
        V = cancel_diagonal(V, rng.choice(V.values.size, 1 + V.values.size // 8,
                                          replace=False))
    return V


def assert_same_csc(got, want):
    assert got.format == want.format == "csc" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=80, deadline=None)
@given(shape=GROUND_SHAPES, period=PERIODS,
       family=st.sampled_from(["random", "cos_wells", "double_wells", "huge"]),
       seed=st.integers(0, 2 ** 32 - 1), cancel=st.booleans())
def test_csc_assembly_equals_kron_form(shape, period, family, seed, cancel):
    V = ground_grid(shape, period, family, seed, cancel)
    A = _operator_matrix(V)
    n = V.values.size
    assert A.has_canonical_format
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    assert np.count_nonzero(A.indices == rows) == n
    pruned = A.copy()
    pruned.eliminate_zeros()
    assert_same_csc(pruned, kron_operator_matrix(V).tocsc())


@settings(max_examples=60, deadline=None)
@given(shape=GROUND_SHAPES, period=PERIODS,
       family=st.sampled_from(["random", "cos_wells", "double_wells", "huge"]),
       seed=st.integers(0, 2 ** 32 - 1), cancel=st.booleans())
def test_ground_state_bitwise_equal_to_kron_solver(shape, period, family, seed,
                                                   cancel):
    V = ground_grid(shape, period, family, seed, cancel)
    with np.errstate(all="ignore"):
        lam, vec = lambda_eigen(V)
        lam_ref, vec_ref = kron_lambda_eigen(V)
    assert np.float64(lam).tobytes() == np.float64(lam_ref).tobytes()
    assert vec.values.tobytes() == vec_ref.tobytes()


def test_zero_diagonal_entries_stay_stored_and_shifted():
    # the sum drops a diagonal entry that is exactly 0.0; the solver must
    # still shift it, as A - mu * I put -mu back
    rng = np.random.default_rng(7)
    V = cancel_diagonal(PeriodicGrid(rng.uniform(-1.0, 1.0, (8, 8))), [0, 9, 27, 63])
    A = _operator_matrix(V)
    kron = kron_operator_matrix(V)
    assert np.count_nonzero(A.diagonal() == 0.0) == 4
    assert A.nnz == 5 * 64 and kron.nnz == 5 * 64 - 4
    lam, vec = lambda_eigen(V)
    lam_ref, vec_ref = kron_lambda_eigen(V)
    assert np.float64(lam).tobytes() == np.float64(lam_ref).tobytes()
    assert vec.values.tobytes() == vec_ref.tobytes()


def test_shift_that_cancels_a_diagonal_entry_is_factorized_without_it(monkeypatch):
    # with |V| near 1e18 a diagonal entry minus the first shift min(V) - 1
    # is exactly 0.0; A - shift * I does not store it, and neither may the
    # matrix handed to splu, whose result depends on the stored entries
    stored = []
    splu = spla.splu

    def spy(A, *args, **kwargs):
        stored.append(A.nnz)
        return splu(A, *args, **kwargs)

    V = PeriodicGrid(1e18 * np.random.default_rng(3).uniform(-1.0, 1.0, (8, 8)))
    monkeypatch.setattr(spla, "splu", spy)
    with np.errstate(all="ignore"):
        lam, vec = lambda_eigen(V)
        n_new = len(stored)
        lam_ref, vec_ref = kron_lambda_eigen(V)
    assert stored[0] == 5 * 64 - 1
    assert stored[:n_new] == stored[n_new:]
    assert np.float64(lam).tobytes() == np.float64(lam_ref).tobytes()
    assert vec.values.tobytes() == vec_ref.tobytes()


# ---------------------------------------------------------------------------
# the integrator's reused rate array
# ---------------------------------------------------------------------------

def test_integrator_lends_one_rate_array_to_the_first_kernel():
    first, second = [], []

    def rhs(grid):
        a = krf_rhs(grid)
        b = gkrf_rhs(grid)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, grid.values)
        first.append(a.__array_interface__["data"][0])
        second.append(b)
        return a

    g = sine_grid(0.1, 16)
    traj = pde_integrate(g, steps=5, rhs=rhs)
    ref = pde_integrate(g, steps=5)
    assert len(first) == 11 and len(set(first)) == 1
    assert all(b.__array_interface__["data"][0] != first[0] for b in second)
    assert not any(np.shares_memory(traj.final.values, b) for b in second)
    for name in ("times", "sup_rate", "inf_rate", "osc"):
        assert np.array_equal(getattr(traj, name), getattr(ref, name))
    assert np.array_equal(traj.final.values, ref.final.values)
