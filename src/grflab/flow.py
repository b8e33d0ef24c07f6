"""Generalized Ricci flow on invariant data, plus the ansatz reductions
that collapse it to small ODE systems.

The evolving pair is (g, H) with

    dg/dt = -2 Ricci(g) + H2 / 2 + lam * g
    dH/dt = -d(d* H) + lam * H

where lam in {-1, 0, +1} is a volume-type normalization term.  On an
invariant frame d(d*H) is again invariant, H stays closed, and H = 0 is
preserved exactly.

Time stepping is classical fixed-step RK4 with optional step halving when
the update would be large relative to the smallest eigenvalue of g.
Integration stops early at numerical fixed points (relative update below
tolerance) and at singularities (metric eigenvalue floor or curvature cap).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .courant import LieFrame, as_three_form_array, exterior_d_invariant

__all__ = [
    "FlowState",
    "FlowConfig",
    "FlowTrajectory",
    "FlowSingularity",
    "SolitonReport",
    "grf_rhs",
    "integrate",
    "rk4_step",
    "rk4_path",
    "sphere_ode_rhs",
    "hyperbolic_ode_rhs",
    "neck_ode_rhs",
    "milnor_su2_rhs",
    "threefold_rhs",
    "circle_bundle_rhs",
    "soliton_residual",
    "lambda_homogeneous",
]


class FlowSingularity(RuntimeError):
    """Raised when the metric stops being usable (loses positivity)."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


@dataclass
class FlowState:
    """One point on a flow line: metric matrix, 3-form components, time."""

    g: np.ndarray
    H: np.ndarray | None = None
    t: float = 0.0

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.H = as_three_form_array(self.H) if self.H is not None \
            else np.zeros((self.g.shape[0],) * 3)


@dataclass
class FlowConfig:
    dt: float = 1e-3
    steps: int = 1000
    lam: int = 0                    # normalization term coefficient
    fixed_point_tol: float = 1e-9   # relative; 0 disables the check
    metric_floor: float = 1e-8
    curvature_cap: float = 1e6
    adaptive: bool = False
    adaptive_fraction: float = 0.1
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.steps < 0:
            raise ValueError("dt must be positive and steps nonnegative")
        if self.lam not in (-1, 0, 1):
            raise ValueError("normalization coefficient must be -1, 0 or 1")


def _rhs_with_diagnostics(frame: LieFrame, g: np.ndarray, H: np.ndarray, lam: int,
                          monitor: bool = False):
    """(dg, dH, curvature) in one kernel pass; raises FlowSingularity off
    the cone.  ``monitor`` adds the blowup monitor |Rm|_g."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise FlowSingularity("metric lost positive definiteness") from exc
    cv = geometry.curvature(frame, g, H, monitor)
    dg = -2.0 * cv.ricci + 0.5 * cv.h2 + lam * g
    dH = -exterior_d_invariant(frame, cv.dstar_h) + lam * H
    return dg, dH, cv


def grf_rhs(frame: LieFrame, state: FlowState, lam: int = 0):
    """Right-hand side (dg/dt, dH/dt) of the flow at a state.

    Returns a pair of arrays.  The H equation is computed as
    -d(d*H) + lam*H, so an identically zero H has identically zero
    velocity and the H = 0 locus is preserved exactly.
    """
    return _rhs_with_diagnostics(frame, state.g, state.H, lam)[:2]


@dataclass
class FlowTrajectory:
    """Recorded samples of one integrate() run plus the stop status.

    A sample is t, g, H and that state's own rhs norm, R and |H|^2.
    status is one of "completed", "fixed_point", "metric_floor",
    "curvature_blowup", "nonfinite".
    """

    frame: LieFrame
    times: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    torsions: list = field(default_factory=list)
    rhs_norms: list = field(default_factory=list)
    scalar_curvatures: list = field(default_factory=list)
    h_norm2s: list = field(default_factory=list)
    status: str = "completed"
    detail: str = ""
    steps_taken: int = 0

    @property
    def final(self) -> FlowState:
        return FlowState(self.metrics[-1], self.torsions[-1], self.times[-1])

    def lambda_series(self) -> np.ndarray:
        """R - |H|^2 / 12 per sample, as :func:`lambda_homogeneous`."""
        return np.array(self.scalar_curvatures) - np.array(self.h_norm2s) / 12.0

    def to_csv(self, path) -> None:
        """Write t, metric entries (i <= j), 3-form entries (i < j < k),
        scalar curvature, |H|^2, the homogeneous lambda and the rhs norm."""
        n = self.frame.dim
        gcols = [(i, j) for i in range(n) for j in range(i, n)]
        hcols = [(i, j, k) for i in range(n) for j in range(i + 1, n)
                 for k in range(j + 1, n)]
        header = (["t"] + [f"g_{i}_{j}" for i, j in gcols]
                  + [f"H_{i}_{j}_{k}" for i, j, k in hcols]
                  + ["R", "H_norm2", "lambda", "rhs_norm"])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for t, g, H, rn, r, hn in zip(self.times, self.metrics, self.torsions,
                                          self.rhs_norms, self.scalar_curvatures,
                                          self.h_norm2s):
                row = ([t] + [g[i, j] for i, j in gcols]
                       + [H[i, j, k] for i, j, k in hcols]
                       + [r, hn, r - hn / 12.0, rn])
                w.writerow([repr(float(v)) for v in row])


def integrate(frame: LieFrame, state: FlowState, config: FlowConfig) -> FlowTrajectory:
    """Run the flow from a state with fixed-step RK4.

    Stops early and flags the reason when the relative update falls below
    ``fixed_point_tol``, when min eig(g) drops below ``metric_floor``,
    when |Rm|_g exceeds ``curvature_cap`` or when values stop being
    finite.  The last state reached is always the final recorded sample,
    with its own diagnostics (NaN when it admits none).
    """
    g = state.g.copy()
    H = state.H.copy()
    t = state.t
    traj = FlowTrajectory(frame=frame)

    def record(rhs_norm, scalar, h_norm2):
        traj.times.append(t)
        traj.metrics.append(g.copy())
        traj.torsions.append(H.copy())
        traj.rhs_norms.append(rhs_norm)
        traj.scalar_curvatures.append(scalar)
        traj.h_norm2s.append(h_norm2)

    for step in range(config.steps):
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            traj.status, traj.detail = "nonfinite", f"at t = {t:.6g}"
            break
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] < config.metric_floor:
            traj.status = "metric_floor"
            traj.detail = f"min eig {eigs[0]:.3e} at t = {t:.6g}"
            break
        try:
            dg, dH, cv = _rhs_with_diagnostics(frame, g, H, config.lam, monitor=True)
        except FlowSingularity as exc:
            traj.status, traj.detail = "metric_floor", str(exc)
            break
        if cv.rm_norm > config.curvature_cap:
            traj.status = "curvature_blowup"
            traj.detail = f"|Rm| = {cv.rm_norm:.3e} at t = {t:.6g}"
            break
        rhs_norm = float(np.sqrt(np.sum(dg * dg) + np.sum(dH * dH)))
        if step % config.record_every == 0:
            record(rhs_norm, cv.scalar, cv.h_norm2)
        state_scale = float(np.sqrt(np.sum(g * g) + np.sum(H * H)))
        if config.fixed_point_tol > 0 and rhs_norm <= config.fixed_point_tol * state_scale:
            traj.status = "fixed_point"
            traj.detail = f"relative rhs {rhs_norm / state_scale:.3e} at t = {t:.6g}"
            break

        dt = config.dt
        if config.adaptive:
            halvings = 0
            while (np.linalg.norm(dg, 2) * dt
                   > config.adaptive_fraction * eigs[0]) and halvings < 24:
                dt *= 0.5
                halvings += 1
        try:
            # classical RK4 on the stacked pair; the monitor is read at k1 only
            k1g, k1h = dg, dH
            k2g, k2h, _ = _rhs_with_diagnostics(frame, g + 0.5 * dt * k1g,
                                                H + 0.5 * dt * k1h, config.lam)
            k3g, k3h, _ = _rhs_with_diagnostics(frame, g + 0.5 * dt * k2g,
                                                H + 0.5 * dt * k2h, config.lam)
            k4g, k4h, _ = _rhs_with_diagnostics(frame, g + dt * k3g,
                                                H + dt * k3h, config.lam)
        except FlowSingularity as exc:
            traj.status = "metric_floor"
            traj.detail = f"stage failure: {exc}"
            break
        g = g + (dt / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
        H = H + (dt / 6.0) * (k1h + 2 * k2h + 2 * k3h + k4h)
        t += dt
        traj.steps_taken += 1

    if not traj.times or traj.times[-1] != t:
        sample = (float("nan"),) * 3
        if np.all(np.isfinite(g)) and np.all(np.isfinite(H)):
            try:
                dg, dH, cv = _rhs_with_diagnostics(frame, g, H, config.lam)
                sample = (float(np.sqrt(np.sum(dg * dg) + np.sum(dH * dH))),
                          cv.scalar, cv.h_norm2)
            except FlowSingularity:
                pass
        record(*sample)
    return traj


# ---------------------------------------------------------------------------
# generic RK4 helpers for the ansatz ODE systems
# ---------------------------------------------------------------------------

def rk4_step(f, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step for y' = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_path(f, y0, dt: float, steps: int, t0: float = 0.0, stop=None):
    """Integrate y' = f(t, y) and return (times, values) arrays.

    ``stop(t, y)`` is evaluated before every step; a truthy value ends
    the path early.  values[m] is the state at times[m].
    """
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    ts = [t0]
    ys = [y.copy()]
    t = t0
    for _ in range(steps):
        if stop is not None and stop(t, y):
            break
        y = rk4_step(f, t, y, dt)
        t += dt
        ts.append(t)
        ys.append(y.copy())
    return np.array(ts), np.array(ys)


# ---------------------------------------------------------------------------
# ansatz right-hand sides
# ---------------------------------------------------------------------------

def sphere_ode_rhs(lam: float, eta0: float = 0.0) -> float:
    """Round 3-sphere ansatz g = lam * g_round, H = eta0 * dV_round.

    dlam/dt = -4 + eta0^2 / lam^2; the torsion term stalls the shrinking
    at lam = eta0 / 2.
    """
    return -4.0 + eta0 * eta0 / (lam * lam)


def hyperbolic_ode_rhs(lam: float) -> float:
    """Compact hyperbolic 3-manifold ansatz g = lam * g_hyp: dlam/dt = 4."""
    return 4.0


def neck_ode_rhs(state) -> np.ndarray:
    """Shrinking S^2 x S^1 neck, state = (phi, psi) = (sphere, circle) sizes.

    dphi/dt = -2 + 1 / (2 phi psi),  dpsi/dt = 1 / (2 phi^2).
    The sphere factor pinches in finite time while the circle grows.
    """
    phi, psi = state
    return np.array([-2.0 + 0.5 / (phi * psi), 0.5 / (phi * phi)])


def milnor_su2_rhs(state, eta0: float = 1.0) -> np.ndarray:
    """Diagonal left-invariant flow on SU(2) in the Milnor frame.

    g = diag(A, B, C) on the frame with [X_1, X_2] = -2 X_3 cyclic and
    H = eta0 * mu^123.  Then

        dA/dt = (-4 A^2 + 4 (B - C)^2 + eta0^2) / (B C)   and cyclic.

    This is exactly -2 Ricci + H2/2 of the tensor engine restricted to
    diagonal data.
    """
    A, B, C = state
    e2 = eta0 * eta0
    return np.array([
        (-4.0 * A * A + 4.0 * (B - C) ** 2 + e2) / (B * C),
        (-4.0 * B * B + 4.0 * (C - A) ** 2 + e2) / (C * A),
        (-4.0 * C * C + 4.0 * (A - B) ** 2 + e2) / (A * B),
    ])


def threefold_rhs(frame: LieFrame, g, phi: float):
    """Volume-proportional torsion ansatz H = phi * dV_g in dimension 3.

    Keeping the closed 3-form H fixed while g flows forces

        dg/dt = -2 Ricci + phi^2 g,   dphi/dt = R phi - (3/2) phi^3,

    because H2 = 2 phi^2 g, |H|^2 = 6 phi^2 and
    dphi/dt = -phi d(log sqrt(det g))/dt.  Returns (dg, dphi).
    """
    gm = np.asarray(g, dtype=float)
    if gm.shape != (3, 3):
        raise ValueError("the volume ansatz lives on a 3-dim frame")
    cv = geometry.curvature(frame, gm)
    return -2.0 * cv.ricci + phi * phi * gm, cv.scalar * phi - 1.5 * phi ** 3


def circle_bundle_rhs(K: float, L: float, a: float = 1.0) -> np.ndarray:
    """Invariant circle bundle over the round 2-sphere, H = 0.

    g = K theta x theta + L g_{S^2} with connection form theta whose
    curvature is a times the unit-sphere area form:

        dK/dt = -a^2 K^2 / L^2,   dL/dt = -2 + a^2 K / L.

    a = 0 decouples the fiber (flat product); a = 1 is the Hopf bundle.
    """
    return np.array([-a * a * K * K / (L * L), -2.0 + a * a * K / L])


# ---------------------------------------------------------------------------
# solitons and the homogeneous lambda functional
# ---------------------------------------------------------------------------

@dataclass
class SolitonReport:
    metric_residual_max: float
    torsion_residual_max: float
    gauge_closure_max: float

    def within(self, tol: float) -> bool:
        return max(self.metric_residual_max, self.torsion_residual_max,
                   self.gauge_closure_max) <= tol


def soliton_residual(frame: LieFrame, g, H, X=None, B: np.ndarray | None = None) -> SolitonReport:
    """Residuals of the steady soliton system in the gauge (X, B):

        Ricci - H2/4 + L_X g / 2 = 0
        (d*H - B) / 2 = 0            with d(B + i_X H) = 0.

    X is an invariant vector field, B an invariant 2-form (components);
    omitted gauge data defaults to zero.  On an invariant frame
    (L_X g)(Y, Z) = -g([X, Y], Z) - g(Y, [X, Z]).
    """
    gm = np.asarray(g, dtype=float)
    Ha = as_three_form_array(H)
    n = frame.dim
    Xv = np.zeros(n) if X is None else np.asarray(X, dtype=float)
    Bm = np.zeros((n, n)) if B is None else np.asarray(B, dtype=float)

    lie = -(np.einsum("i,ijm,mk->jk", Xv, frame.c, gm)
            + np.einsum("i,ikm,jm->jk", Xv, frame.c, gm))
    cv = geometry.curvature(frame, gm, Ha)
    res1 = cv.ricci - 0.25 * cv.h2 + 0.5 * lie
    res2 = 0.5 * (cv.dstar_h - Bm)
    closure = exterior_d_invariant(frame, Bm + np.einsum("i,ijk->jk", Xv, Ha))
    return SolitonReport(
        metric_residual_max=float(np.max(np.abs(res1))),
        torsion_residual_max=float(np.max(np.abs(res2))),
        gauge_closure_max=float(np.max(np.abs(closure))),
    )


def lambda_homogeneous(frame: LieFrame, g, H) -> float:
    """Lowest eigenvalue of the twisted Schroedinger operator on invariant
    data: constants are the ground state, so it is just R - |H|^2 / 12."""
    cv = geometry.curvature(frame, g, as_three_form_array(H))
    return cv.scalar - cv.h_norm2 / 12.0
