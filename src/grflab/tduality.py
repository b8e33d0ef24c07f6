"""Abelian T-duality on invariant circle-bundle data.

The Buscher rules act on a metric-plus-b-field block decomposition along
one circle direction.  With g0 = g(fiber, fiber), g1 the fiber-base row
of g, b1 the fiber-base row of b, and (g2, b2) the base blocks,

    g0 -> 1/g0
    g1 -> -b1 / g0
    b1 -> -g1 / g0
    g2 -> g2 + (b1 b1^T - g1 g1^T) / g0
    b2 -> b2 + (g1 b1^T - b1 g1^T) / g0

This is an exact involution and preserves positive definiteness of the
assembled metric (the dual base block equals the primal Schur complement
plus a positive correction).  The dilaton moves by 2 d log(nu_hat / nu)
where nu is the fiber volume density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, textio
from .courant import ThreeForm, _close, su2_r_frame
from .flow import circle_bundle_rhs, rk4_path

__all__ = [
    "CircleBundleData",
    "VerticalDensity",
    "CommutationReport",
    "ExchangeReport",
    "buscher_dual",
    "dilaton_shift",
    "circle_bundle_dual_rhs",
    "flow_commutation_check",
    "hopf_einstein_pair_dual",
    "einstein_exchange_check",
    "dump_circle_bundle",
    "load_circle_bundle",
]


@dataclass
class CircleBundleData:
    """Invariant metric and b-field split along one circle fiber.

    Fields: fiber entry ``g0 > 0``, mixed rows ``g1`` and ``b1`` of length
    m, and base blocks ``g2`` (symmetric) and ``b2`` (antisymmetric).
    The assembled (m+1) x (m+1) metric must be positive definite.
    """

    g0: float
    g1: np.ndarray
    g2: np.ndarray
    b1: np.ndarray | None = None
    b2: np.ndarray | None = None

    def __post_init__(self):
        self.g0 = float(self.g0)
        self.g1 = np.asarray(self.g1, dtype=float)
        self.g2 = np.asarray(self.g2, dtype=float)
        m = self.g1.shape[0]
        self.b1 = np.zeros(m) if self.b1 is None else np.asarray(self.b1, dtype=float)
        self.b2 = np.zeros((m, m)) if self.b2 is None else np.asarray(self.b2, dtype=float)
        if self.g0 <= 0:
            raise ValueError("fiber metric entry must be positive")
        if self.g2.shape != (m, m) or self.b1.shape != (m,) or self.b2.shape != (m, m):
            raise ValueError("block shapes are inconsistent")
        if not _close(self.g2, self.g2.T):
            raise ValueError("base metric block must be symmetric")
        if not _close(self.b2, -self.b2.T):
            raise ValueError("base b-field block must be antisymmetric")
        try:
            np.linalg.cholesky(self.assembled())
        except np.linalg.LinAlgError as exc:
            raise ValueError("assembled metric must be positive definite") from exc

    @property
    def base_dim(self) -> int:
        return self.g1.shape[0]

    def assembled(self) -> np.ndarray:
        m = self.base_dim
        out = np.empty((m + 1, m + 1))
        out[0, 0] = self.g0
        out[0, 1:] = self.g1
        out[1:, 0] = self.g1
        out[1:, 1:] = self.g2
        return out


def buscher_dual(data: CircleBundleData) -> CircleBundleData:
    """Apply the Buscher rules along the fiber direction."""
    g0, g1, g2 = data.g0, data.g1, data.g2
    b1, b2 = data.b1, data.b2
    return CircleBundleData(
        g0=1.0 / g0,
        g1=-b1 / g0,
        g2=g2 + (np.outer(b1, b1) - np.outer(g1, g1)) / g0,
        b1=-g1 / g0,
        b2=b2 + (np.outer(g1, b1) - np.outer(b1, g1)) / g0,
    )


@dataclass
class VerticalDensity:
    """Fiber volume density nu = exp(log_det / 2) sampled on a periodic
    1-d base coordinate (or constant when log_det is a scalar)."""

    log_det: np.ndarray | float
    spacing: float = 1.0

    def nu(self):
        return np.exp(np.asarray(self.log_det, dtype=float) / 2.0)

    def dual(self) -> "VerticalDensity":
        """Density of the dual fiber for a 1-dim fiber: nu -> 1/nu."""
        return VerticalDensity(-np.asarray(self.log_det, dtype=float)
                               if not np.isscalar(self.log_det) else -self.log_det,
                               self.spacing)


def _periodic_derivative(values: np.ndarray, h: float) -> np.ndarray:
    return (np.roll(values, -1) - np.roll(values, 1)) / (2.0 * h)


def dilaton_shift(phi, density: VerticalDensity, density_hat: VerticalDensity):
    """Shift the dilaton 1-form component by 2 d log(nu_hat / nu).

    phi is the sampled component along the base coordinate (scalar for a
    constant dilaton).  Constant densities shift by zero; sampled ones use
    periodic central differences, second order in the spacing.
    """
    a = density.log_det
    b = density_hat.log_det
    if np.isscalar(a) and np.isscalar(b):
        return phi
    diff = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    return phi + _periodic_derivative(diff, density.spacing)


# ---------------------------------------------------------------------------
# flow commutation on the Hopf circle bundle
# ---------------------------------------------------------------------------

def circle_bundle_dual_rhs(K_hat: float, L_hat: float, a: float = 1.0) -> tuple:
    """Flow of the dualized circle bundle (fiber entry inverted):

    dK_hat/dt = a^2 / L_hat^2,   dL_hat/dt = -2 + a^2 / (K_hat L_hat).

    This is the exact pushforward of the primal system through K -> 1/K.
    """
    return (a * a / (L_hat * L_hat), -2.0 + a * a / (K_hat * L_hat))


@dataclass
class CommutationReport:
    """Samples of flow-then-dualize against dualize-then-flow."""

    times: np.ndarray
    primal: np.ndarray        # (m, 2) columns K, L
    dual_direct: np.ndarray   # dualized flowed data
    dual_flowed: np.ndarray   # flowed dual data
    max_deviation: float

    def to_csv(self, path) -> None:
        textio.write_table(
            path, ["t", "K", "L", "K_dual_direct", "L_dual_direct",
                   "K_dual_via_buscher", "L_dual_via_buscher"],
            [self.times, *self.primal.T, *self.dual_direct.T, *self.dual_flowed.T])


def _fiber_data(K: float, L: float) -> CircleBundleData:
    return CircleBundleData(g0=K, g1=np.zeros(2), g2=L * np.eye(2))


def flow_commutation_check(K0: float, L0: float, dt: float, T: float,
                           a: float = 1.0) -> CommutationReport:
    """Compare dualizing the flowed bundle with flowing the dualized one.

    The primal (K, L) system runs with :func:`~grflab.flow.circle_bundle_rhs`;
    the dual starts from the Buscher transform of the initial data and
    runs with :func:`circle_bundle_dual_rhs`.  The deviation measured is
    the sup over samples and both components.
    """
    steps = int(round(T / dt))
    ts, primal = rk4_path(lambda t, y: circle_bundle_rhs(y[0], y[1], a),
                          (K0, L0), dt, steps)
    dual0 = buscher_dual(_fiber_data(K0, L0))
    ts2, dual = rk4_path(lambda t, y: circle_bundle_dual_rhs(y[0], y[1], a),
                         (dual0.g0, dual0.g2[0, 0]), dt, steps)
    direct = np.empty_like(primal)
    for i in range(primal.shape[0]):
        d = buscher_dual(_fiber_data(primal[i, 0], primal[i, 1]))
        direct[i] = (d.g0, d.g2[0, 0])
    dev = float(np.max(np.abs(direct - dual)))
    return CommutationReport(times=ts, primal=primal, dual_direct=direct,
                             dual_flowed=dual, max_deviation=dev)


# ---------------------------------------------------------------------------
# the flat Hopf pair and its dual
# ---------------------------------------------------------------------------

def hopf_einstein_pair_dual(k: float = 1.0, x: float = 1.0):
    """T-dual of :func:`~grflab.geometry.hopf_einstein_pair` along the circle.

    Returns (frame, g, H, e) with the fiber entry inverted,
    g = diag(k, k, k, 1/(k x^2)), the same torsion H = -k e^123, and the
    divergence now carried by the vector field e = -2x e_4.  Both twisted
    Ricci tensors vanish and the scalar pair (S^+, S^-) is zero.
    """
    if k <= 0 or x <= 0:
        raise ValueError("k and x must be positive")
    frame = su2_r_frame()
    g = np.diag([k, k, k, 1.0 / (k * x * x)])
    H = ThreeForm.basis(4, 0, 1, 2, -k)
    e = np.array([0.0, 0.0, 0.0, -2.0 * x])
    return frame, g, H, e


@dataclass
class ExchangeReport:
    """Residuals of the Einstein systems on the two sides of the duality."""

    primal_ricci_max: float
    primal_scalar: float
    dual_ricci_max: float
    dual_scalar_max: float
    fiber_rule_gap: float

    def within(self, tol: float) -> bool:
        return max(self.primal_ricci_max, abs(self.primal_scalar),
                   self.dual_ricci_max, self.dual_scalar_max,
                   self.fiber_rule_gap) <= tol


def einstein_exchange_check(k: float = 1.0, x: float = 1.0,
                            primal_metric=None, dual_metric=None) -> ExchangeReport:
    """Evaluate both Einstein systems across the duality.

    The primal side is a closed pair (covector dilaton), the dual side a
    compatible pair (vector divergence); the fiber rule gap compares the
    Buscher transform of the primal fiber entry with the dual metric.
    Metric overrides allow probing how a perturbation shows up in the
    residuals.
    """
    frame, g, H, phi = geometry.hopf_einstein_pair(k, x)
    if primal_metric is not None:
        g = np.asarray(primal_metric, dtype=float)
    frame_d, g_hat, H_hat, e_vec = hopf_einstein_pair_dual(k, x)
    if dual_metric is not None:
        g_hat = np.asarray(dual_metric, dtype=float)

    div_p = geometry.DivergenceData.from_covector(phi)
    rp, rm = geometry.generalized_ricci(frame, g, H, div_p)
    primal_ricci = max(float(np.max(np.abs(rp))), float(np.max(np.abs(rm))))
    primal_scalar = geometry.generalized_scalar(frame, g, H, phi)

    div_d = geometry.DivergenceData.from_vector(g_hat, e_vec)
    rp_d, rm_d = geometry.generalized_ricci(frame_d, g_hat, H_hat, div_d)
    dual_ricci = max(float(np.max(np.abs(rp_d))), float(np.max(np.abs(rm_d))))
    sp, sm = geometry.generalized_scalar_pair(frame_d, g_hat, H_hat, div_d)
    dual_scalar = max(abs(sp), abs(sm))

    fiber = CircleBundleData(g0=g[3, 3], g1=np.zeros(3), g2=g[:3, :3])
    gap = abs(buscher_dual(fiber).g0 - g_hat[3, 3])

    return ExchangeReport(
        primal_ricci_max=primal_ricci,
        primal_scalar=primal_scalar,
        dual_ricci_max=dual_ricci,
        dual_scalar_max=dual_scalar,
        fiber_rule_gap=gap,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dump_circle_bundle(data: CircleBundleData) -> str:
    return textio.dump_fields(
        {"base_dim": data.base_dim, "g0": data.g0},
        {"g1": data.g1, "g2": data.g2, "b1": data.b1, "b2": data.b2})


def load_circle_bundle(text: str) -> CircleBundleData:
    scalars, entries = textio.parse_fields(text)
    m = int(scalars["base_dim"])
    return CircleBundleData(
        g0=scalars["g0"],
        g1=textio.build_array(entries, "g1", (m,)),
        g2=textio.build_array(entries, "g2", (m, m)),
        b1=textio.build_array(entries, "b1", (m,)),
        b2=textio.build_array(entries, "b2", (m, m)),
    )
