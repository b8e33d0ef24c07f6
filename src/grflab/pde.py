"""Periodic torus reductions: scalar parabolic flows and the ground state
of the associated Schroedinger operator.

Two pointwise flows on a doubly periodic grid:

* ``krf_rhs``:  du/dt = log(1 + lap(u) / 2), the potential form of the
  Kaehler reduction; admissible while 1 + lap(u)/2 > 0.
* ``gkrf_rhs``: du/dt = log(1 + u_xx / 2) - log(1 - u_yy / 2), the
  generalized variant with opposite concavity in the two axes.

Both satisfy a maximum principle: sup du/dt is nonincreasing and
inf du/dt is nondecreasing along the flow, which the integrator records
at every step.  Time stepping is explicit midpoint RK2 with the usual
parabolic step restriction dt ~ h^2.

The stencil is bit-identical to the five-point ``np.roll`` form
``(roll(u, 1) + roll(u, -1) - 2u) / h^2`` but uses slice adds into
buffers.  Buffer ownership: ``pde_integrate`` copies the input grid once
and owns the state ``u``, the midpoint ``mid``, the monitor arrays, one
stencil buffer pair (u_xx, u_yy) and one rate array.  It wraps ``u`` and
``mid`` in two ``PeriodicGrid`` views whose private ``_stencil`` lends
them to ``krf_rhs`` / ``gkrf_rhs``; the rate array receives 2u, then the
result, so a step allocates no array.  A grid built by the caller has no
``_stencil``, so the public functions return fresh arrays.

``lambda_eigen`` seeks the lowest eigenpair of -4 lap + V by shifted
inverse iteration from the shift min(V) - 1, below the spectrum, with a
Rayleigh-quotient refinement that can lock onto an excited state.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "PeriodicGrid",
    "PositivityError",
    "PdeTrajectory",
    "laplacian",
    "second_difference",
    "krf_rhs",
    "gkrf_rhs",
    "pde_integrate",
    "lambda_eigen",
    "grid_to_csv",
]

DEFAULT_PERIOD = 2.0 * np.pi
ADMISSIBILITY_FLOOR = 1e-8


class PositivityError(ValueError):
    """An admissibility factor dropped to or below the floor."""

    def __init__(self, message: str, node=None, value=None):
        super().__init__(message)
        self.node = node
        self.value = value


@dataclass
class PeriodicGrid:
    """Scalar samples on a flat periodic rectangle.

    ``values[i, j]`` sits at (i * period / N, j * period / M).  An axis of
    size 1 is degenerate (no variation, zero second difference), which is
    how 1-d problems are represented; active axes need at least 8 points.
    """

    values: np.ndarray
    period: float = DEFAULT_PERIOD
    # reused stencil buffers, set only on pde_integrate's own state views
    _stencil: "_Stencil | None" = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.ndim != 2:
            raise ValueError("grid values must be 2-d")
        # C order: the axis-1 stencil works on the flattened array
        self.values = np.ascontiguousarray(values)
        for size in self.values.shape:
            if size != 1 and size < 8:
                raise ValueError("active axes need at least 8 points")
        if max(self.values.shape) < 8:
            raise ValueError("grid needs at least one active axis")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def shape(self):
        return self.values.shape

    @property
    def h(self) -> float:
        """Axis-0 spacing, period / N."""
        return self.period / self.values.shape[0]

    def spacing(self, axis: int) -> float:
        return self.period / self.values.shape[axis]

    def min_active_spacing(self) -> float:
        return min(self.spacing(ax) for ax in (0, 1) if self.values.shape[ax] > 1)

    def with_values(self, values) -> "PeriodicGrid":
        return PeriodicGrid(values, self.period)

    @classmethod
    def from_function(cls, f, N: int, M: int | None = None,
                      period: float = DEFAULT_PERIOD) -> "PeriodicGrid":
        """Sample f(x, y) at the grid nodes; M defaults to N."""
        M = N if M is None else M
        x = np.arange(N) * (period / N)
        y = np.arange(M) * (period / M)
        X, Y = np.meshgrid(x, y, indexing="ij")
        return cls(f(X, Y), period)


class _Stencil:
    """Second differences of one state array, into reused buffers.

    Holds the buffers u_xx and u_yy and, per active axis, the slice views
    its adds read and write, so that an evaluation only calls ufuncs.
    ``pde_integrate`` builds one per state array, lets them share the
    buffers and lends its rate array through ``lent`` before each
    right-hand side; a public call builds a throwaway one.

    The periodic sum u[i-1] + u[i+1] is one add over the interior plus one
    add for the two wrap-around lines: lines (0, n-1) take lines (n-1, n-2)
    plus lines (1, 0).  Axis 1 adds over the flattened C-order array, which
    pairs the wrong neighbours only in the first and last column, and the
    wrap-around add then overwrites those two columns; strided column
    slices would be slower than ``np.roll``.
    """

    def __init__(self, grid: PeriodicGrid, buffers=None):
        # a no-op for values that __post_init__ normalized
        u = np.ascontiguousarray(grid.values, dtype=float)
        self.u = u
        self.dxx, self.dyy = buffers or (np.empty_like(u), np.empty_like(u))
        self.lent = None
        flat_u = u.reshape(-1)
        self.axes = []
        for axis, out in ((0, self.dxx), (1, self.dyy)):
            n = u.shape[axis]
            if n == 1:
                self.axes.append((out, None, 0.0))
                continue
            if axis == 0:
                adds = ((u[:-2], u[2:], out[1:-1]),
                        (u[:-3:-1], u[1::-1], out[::n - 1]))
            else:
                adds = ((flat_u[:-2], flat_u[2:], out.reshape(-1)[1:-1]),
                        (u[:, :-3:-1], u[:, 1::-1], out[:, ::n - 1]))
            h = grid.spacing(axis)
            self.axes.append((out, adds, h * h))

    def second_differences(self, two_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u_xx, u_yy) with (u[i-1] + u[i+1] - 2u) / h^2 along each axis,
        zero along a degenerate axis; ``two_u`` receives 2u."""
        np.multiply(self.u, 2.0, two_u)
        for out, adds, hh in self.axes:
            if adds is None:
                out.fill(0.0)
                continue
            for x, y, dest in adds:
                np.add(x, y, dest)
            np.subtract(out, two_u, out)
            np.divide(out, hh, out)
        return self.dxx, self.dyy


def _second_differences(grid: PeriodicGrid):
    """(out, u_xx, u_yy) in the arrays pde_integrate lent the grid, or in
    fresh ones; ``out`` holds 2u.  A lent ``out`` is taken, not shared."""
    stencil = grid._stencil or _Stencil(grid)
    out, stencil.lent = stencil.lent, None
    out = np.empty_like(grid.values) if out is None else out
    return (out, *stencil.second_differences(out))


def second_difference(grid: PeriodicGrid, axis: int) -> np.ndarray:
    """Periodic central second difference along one axis (zero when the
    axis is degenerate)."""
    return _second_differences(grid)[1 + axis]


def laplacian(grid: PeriodicGrid) -> np.ndarray:
    """Five-point periodic Laplacian (degenerate axes contribute zero)."""
    lap, dxx, dyy = _second_differences(grid)
    return np.add(dxx, dyy, lap)


def _check_one_plus(x: np.ndarray, floor: float, what: str) -> None:
    """Raise PositivityError if the factor 1 + x reaches the floor.

    fl(1 + x) is monotone in x, so 1 + min(x) is exactly min(1 + x); the
    factor array is built only on the error path, to name the node.
    """
    if 1.0 + x.min() <= floor:
        factor = 1.0 + x
        node = np.unravel_index(int(np.argmin(factor)), factor.shape)
        node, value = tuple(int(k) for k in node), float(factor[node])
        raise PositivityError(f"{what} = {value:.3e} <= {floor:.1e} at node {node}",
                              node=node, value=value)


def krf_rhs(grid: PeriodicGrid, floor: float = ADMISSIBILITY_FLOOR) -> np.ndarray:
    """du/dt = log(1 + lap(u) / 2); raises PositivityError off the
    admissible cone."""
    rate, dxx, dyy = _second_differences(grid)
    half_lap = np.multiply(np.add(dxx, dyy, dxx), 0.5, dxx)
    _check_one_plus(half_lap, floor, "1 + lap(u)/2")
    return np.log1p(half_lap, rate)


def gkrf_rhs(grid: PeriodicGrid, floor: float = ADMISSIBILITY_FLOOR) -> np.ndarray:
    """du/dt = log((1 + u_xx / 2) / (1 - u_yy / 2)) with both factors
    required positive."""
    rate, dxx, dyy = _second_differences(grid)
    uxx = np.multiply(dxx, 0.5, dxx)
    neg_uyy = np.multiply(dyy, -0.5, dyy)   # 1 - y == 1 + (-y) exactly
    _check_one_plus(uxx, floor, "1 + u_xx/2")
    _check_one_plus(neg_uyy, floor, "1 - u_yy/2")
    np.log1p(uxx, rate)
    return np.subtract(rate, np.log1p(neg_uyy, neg_uyy), rate)


@dataclass
class PdeTrajectory:
    times: np.ndarray
    sup_rate: np.ndarray
    inf_rate: np.ndarray
    osc: np.ndarray
    final: PeriodicGrid
    dt: float
    steps_taken: int
    stopped_early: bool
    rhs_evals: int = 0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "sup_rate", "inf_rate", "sup_abs_rate", "osc"])
            for i, t in enumerate(self.times):
                row = [t, self.sup_rate[i], self.inf_rate[i],
                       max(abs(self.sup_rate[i]), abs(self.inf_rate[i])),
                       self.osc[i]]
                w.writerow([repr(float(v)) for v in row])


def pde_integrate(grid: PeriodicGrid, dt: float | None = None,
                  steps: int = 1000, rhs=krf_rhs,
                  stop_sup_rate: float | None = None) -> PdeTrajectory:
    """Explicit midpoint RK2 on du/dt = rhs(u).

    dt defaults to 0.2 h^2 with h the smallest active spacing; a warning
    is issued above the h^2/4 comfort zone.  Each state, the initial and
    the final one included, is recorded once: sup and inf of the rate and
    the oscillation of u.  When ``stop_sup_rate`` is given the run ends
    as soon as sup |du/dt| falls below it.

    The first kernel result in each call of ``rhs`` lands in an array the
    integrator reuses, so it is valid only until the next call.
    """
    h = grid.min_active_spacing()
    if dt is None:
        dt = 0.2 * h * h
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > 0.25 * h * h:
        warnings.warn(f"dt = {dt:.3e} above the parabolic step bound "
                      f"h^2/4 = {0.25 * h * h:.3e}", stacklevel=2)

    mid, dxx, dyy, rate_buffer = (np.empty(grid.shape) for _ in range(4))
    # u outlives the call as the final grid.  Allocating it after the work
    # buffers keeps the heap less fragmented: allocated first, it raised
    # the peak RSS of a long mixed torus run by up to 5 %.
    u = grid.values.copy()
    here, there = PeriodicGrid(u, grid.period), PeriodicGrid(mid, grid.period)
    here._stencil = _Stencil(here, (dxx, dyy))
    there._stencil = _Stencil(there, (dxx, dyy))
    times, sups, infs, oscs = (np.empty(max(steps, 0) + 1) for _ in range(4))
    half_dt = 0.5 * dt
    t = 0.0
    k = 0
    while True:
        here._stencil.lent = rate_buffer   # the last rate is dead
        rate = rhs(here)
        sup, inf = float(rate.max()), float(rate.min())
        times[k], sups[k], infs[k] = t, sup, inf
        oscs[k] = float(u.max() - u.min())
        if k >= steps or (stop_sup_rate is not None
                          and max(abs(sup), abs(inf)) < stop_sup_rate):
            break
        np.add(u, np.multiply(rate, half_dt, mid), mid)
        there._stencil.lent = rate_buffer
        np.add(u, np.multiply(rhs(there), dt, mid), u)
        t += dt
        k += 1

    n = k + 1
    return PdeTrajectory(
        times=times[:n], sup_rate=sups[:n], inf_rate=infs[:n], osc=oscs[:n],
        final=grid.with_values(u), dt=dt, steps_taken=k, stopped_early=k < steps,
        rhs_evals=2 * k + 1)


# ---------------------------------------------------------------------------
# ground state of -4 lap + V
# ---------------------------------------------------------------------------

def _operator_matrix(V: PeriodicGrid) -> sp.csc_matrix:
    """-4 lap + diag(V) as canonical CSC that stores every diagonal entry,
    0.0 included, with the values of the Kronecker-sum form bit for bit:
    per active axis 1/h^2 per neighbour and -2/h^2 on the diagonal."""
    node = np.arange(V.values.size).reshape(V.shape)
    rows, off, lap_diag = [node], [], 0.0
    for axis in (0, 1):
        if V.shape[axis] > 1:
            hh = V.spacing(axis) * V.spacing(axis)
            lap_diag = lap_diag + -2.0 / hh
            rows += [np.roll(node, 1, axis), np.roll(node, -1, axis)]
            off += 2 * [-4.0 * (1.0 / hh)]
    # symmetric: column c holds row c and the rows of its neighbours
    rows = np.stack([r.ravel() for r in rows], axis=1)
    data = np.empty(rows.shape)
    data[:, 0] = (-4.0 * lap_diag + V.values).ravel()
    data[:, 1:] = off
    order = np.argsort(rows, axis=1)
    n, k = rows.shape
    return sp.csc_matrix((np.take_along_axis(data, order, 1).ravel(),
                          np.take_along_axis(rows, order, 1).ravel(),
                          np.arange(0, n * k + 1, k)), shape=(n, n))


def lambda_eigen(V: PeriodicGrid, tol: float = 1e-10,
                 max_iterations: int = 100):
    """Eigenpair of -4 lap + V on the periodic grid, meant to be the lowest.

    Shifted inverse iteration from the constant vector with initial shift
    min(V) - 1 (below the whole spectrum since -4 lap >= 0), switching to
    Rayleigh-quotient shifts once the iterate settles.  That switch can
    return an excited state, which the benchmark counts as
    ``pde.lambda_eigen.wrong``.  Returns (eigenvalue, eigenvector_grid),
    the vector of unit l2 norm and nonnegative mean.
    """
    A = _operator_matrix(V)
    n = A.shape[0]
    slots = np.flatnonzero(A.indices == np.repeat(np.arange(n), np.diff(A.indptr)))
    shifted = A.copy()

    def factor(shift):
        # A - shift * I, stored as sparse subtraction stores it: splu
        # depends on the stored entries, and a 0.0 result is dropped
        shifted.data[slots] = diag = A.data[slots] - shift
        if diag.all():
            return spla.splu(shifted)
        pruned = shifted.copy()
        pruned.eliminate_zeros()
        return spla.splu(pruned)

    sigma = float(np.min(V.values)) - 1.0
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = float(v @ (A @ v))
    solver = factor(sigma)
    for iteration in range(max_iterations):
        v = solver.solve(v)
        v /= np.linalg.norm(v)
        lam = float(v @ (A @ v))
        residual = float(np.linalg.norm(A @ v - lam * v))
        if residual <= tol * max(1.0, abs(lam)):
            break
        if iteration >= 2:
            # Rayleigh-quotient acceleration; jitter past exact shifts
            try:
                solver = factor(lam)
            except RuntimeError:
                solver = factor(lam + 1e-10)
    if v.sum() < 0:
        v = -v
    return lam, V.with_values(v.reshape(V.shape))


def grid_to_csv(grid: PeriodicGrid, path) -> None:
    """Node table i, j, x, y, value."""
    N, M = grid.shape
    hx, hy = grid.spacing(0), grid.spacing(1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "x", "y", "value"])
        for i in range(N):
            for j in range(M):
                w.writerow([i, j, repr(i * hx), repr(j * hy),
                            repr(float(grid.values[i, j]))])
