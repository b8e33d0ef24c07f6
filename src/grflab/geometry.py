"""Curvature of invariant metrics: Levi-Civita, Bismut, and the twisted
Ricci and scalar curvatures built from a metric, a closed 3-form and
divergence data.

All tensors are constant coefficient arrays over a :class:`~grflab.courant.LieFrame`;
the Koszul formula loses its derivative terms and everything becomes
algebra in the structure constants.

Index conventions
-----------------
* ``nabla_{e_i} e_j = Gamma[i, j, k] e_k``.
* ``R(e_i, e_j) e_k = Rm[i, j, k, l] e_l``; the lowered tensor is
  ``Rm[i, j, k, l] g[l, .]`` in the last slot.
* ``Ricci[j, k] = g^{il} R_{ijkl}`` (unit round 3-sphere: Ricci = 2 g).
* ``|H|^2`` is the full contraction with no 1/3! factor, and ``H2`` is the
  symmetric matrix ``H2[x, y] = H[x,i,j] H[y,k,l] g^{ik} g^{jl}``.
* ``d*`` is minus the metric trace of the covariant derivative,
  ``(d*T)_{...} = -g^{il} (nabla_i T)_{l ...}``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .courant import (LieFrame, ThreeForm, as_three_form_array,
                      exterior_d_invariant, su2_r_frame)

__all__ = [
    "ConnectionCoefficients",
    "CurvatureTensor",
    "Curvature",
    "DivergenceData",
    "BianchiReport",
    "curvature",
    "levi_civita",
    "riemann",
    "ricci",
    "connection_ricci",
    "scalar_curvature",
    "h_squared",
    "h_norm2",
    "covariant_derivative",
    "codifferential",
    "divergence",
    "bismut_connection",
    "bismut_ricci",
    "bismut_scalar",
    "bianchi_suite",
    "generalized_ricci",
    "generalized_scalar",
    "generalized_scalar_pair",
    "volume_three_form",
    "bi_invariant_three_form",
    "hopf_einstein_pair",
]


@dataclass
class ConnectionCoefficients:
    """Connection on an invariant frame: nabla_{e_i} e_j = gamma[i, j, k] e_k."""

    gamma: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.gamma.ndim != 3 or len(set(self.gamma.shape)) != 1:
            raise ValueError("connection coefficients need shape (n, n, n)")


@dataclass
class CurvatureTensor:
    """Curvature of a connection; ``mixed[i,j,k,l]`` is the e_l coefficient
    of R(e_i, e_j) e_k and ``lowered`` has the last index pulled down."""

    mixed: np.ndarray
    lowered: np.ndarray

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.lowered)))


@dataclass
class Curvature:
    """Levi-Civita data of one state (frame, g, H), built by :func:`curvature`:
    symmetrized Ricci, H2, d*H, R, |H|^2 (the H terms vanish without H), g^{-1}
    and the blowup monitor |Rm|_g = (R_{ijkl} R^{ijkl})^{1/2}, NaN unless asked."""

    connection: ConnectionCoefficients
    rm: CurvatureTensor
    ricci: np.ndarray
    h2: np.ndarray
    dstar_h: np.ndarray
    scalar: float
    h_norm2: float
    rm_norm: float
    ginv: np.ndarray


def levi_civita(frame: LieFrame, g, ginv: np.ndarray | None = None) -> ConnectionCoefficients:
    """Koszul formula on an invariant frame.

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j],e_k) - g([e_j,e_k],e_i)
    + g([e_k,e_i],e_j); all inner products of frame fields are constant so
    no derivative terms survive.  Pass ``ginv`` when g^{-1} is at hand.
    """
    gm = np.asarray(g, dtype=float)
    cg = np.einsum("ijm,mk->ijk", frame.c, gm)
    lower = 0.5 * (cg - cg.transpose(2, 0, 1) + cg.transpose(1, 2, 0))
    ginv = np.linalg.inv(gm) if ginv is None else ginv
    return ConnectionCoefficients(np.einsum("ijl,lk->ijk", lower, ginv))


def riemann(frame: LieFrame, g, connection: ConnectionCoefficients | None = None) -> CurvatureTensor:
    """Curvature tensor of a connection (Levi-Civita when omitted).

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z,
    which on an invariant frame is quadratic in the coefficients plus one
    structure-constant term.
    """
    gm = np.asarray(g, dtype=float)
    if connection is None:
        connection = levi_civita(frame, gm)
    ga = connection.gamma
    # the two quadratic terms are one contraction and its (i, j) swap
    quad = np.einsum("iml,jkm->ijkl", ga, ga)
    mixed = (quad - quad.transpose(1, 0, 2, 3)
             - np.einsum("ijm,mkl->ijkl", frame.c, ga))
    lowered = np.einsum("ijkm,ml->ijkl", mixed, gm)
    return CurvatureTensor(mixed, lowered)


def connection_ricci(frame: LieFrame, g, connection: ConnectionCoefficients) -> np.ndarray:
    """Ricci-type trace g^{il} R_{ijkl} = R[i, j, k, i] of an arbitrary
    connection.  Not symmetrized: for a metric connection with torsion the
    trace picks up a genuine antisymmetric part.
    """
    return np.einsum("ijki->jk", riemann(frame, g, connection).mixed)


def _h_squared(ginv: np.ndarray, Ha: np.ndarray) -> np.ndarray:
    """Symmetrized H2 from g^{-1}, raising one index per contraction."""
    up = np.einsum("xij,ik->xkj", Ha, ginv)
    up = np.einsum("xkj,jl->xkl", up, ginv)
    out = np.einsum("xkl,ykl->xy", up, Ha)
    return 0.5 * (out + out.T)


def _codifferential(ginv: np.ndarray, gamma: np.ndarray, T: np.ndarray) -> np.ndarray:
    """d*T = -g^{il} (nabla_i T)_{l ...} expanded slot by slot, which costs
    O(n^{k+1}) for a k-tensor where forming nabla T costs O(n^{k+2}): the
    traced slot gives g^{il} Gamma[i, l, m] T[m, ...], slot s gives
    Gamma[i, a_s, m] against T with its first index raised to i."""
    rest = "abcdefgh"[:T.ndim - 1]  # the free slots a_2 .. a_k
    out = np.einsum(f"m,m{rest}->{rest}", np.einsum("il,ilm->m", ginv, gamma), T)
    raised = np.einsum(f"il,l{rest}->i{rest}", ginv, T)
    for s, a in enumerate(rest):
        out = out + np.einsum(f"i{a}m,i{rest[:s]}m{rest[s + 1:]}->{rest}", gamma, raised)
    return out


def curvature(frame: LieFrame, g, H: np.ndarray | None = None,
              monitor: bool = False) -> Curvature:
    """Every Levi-Civita quantity of the state (frame, g, H) from one g^{-1};
    ``monitor`` adds |Rm|_g.  ``H`` is a totally antisymmetric array already
    validated, e.g. by :func:`~grflab.courant.as_three_form_array`; omitted
    means H = 0.  Contractions pair two operands and raise one index each.
    """
    gm = np.asarray(g, dtype=float)
    ginv = np.linalg.inv(gm)
    conn = levi_civita(frame, gm, ginv)
    rm = riemann(frame, gm, conn)
    rc = np.einsum("ijki->jk", rm.mixed)       # as in connection_ricci
    rc = 0.5 * (rc + rc.T)
    h2 = np.zeros_like(gm) if H is None else _h_squared(ginv, H)
    dstar = np.zeros_like(gm) if H is None else _codifferential(ginv, conn.gamma, H)
    rm_norm = float("nan")
    if monitor:
        up = rm.mixed  # raise i, j, k in turn; the axes rotate to (l, i, j, k)
        for _ in range(3):
            up = np.einsum("ijkl,ia->jkla", up, ginv)
        rm_norm = float(np.sqrt(abs(np.vdot(rm.lowered, up.transpose(1, 2, 3, 0)))))
    return Curvature(conn, rm, rc, h2, dstar, float(np.vdot(ginv, rc)),
                     float(np.vdot(ginv, h2)), rm_norm, ginv)


def ricci(frame: LieFrame, g) -> np.ndarray:
    """Ricci curvature of the Levi-Civita connection (symmetric matrix)."""
    return curvature(frame, g).ricci


def scalar_curvature(frame: LieFrame, g) -> float:
    return curvature(frame, g).scalar


def h_squared(g, H) -> np.ndarray:
    """H2[x, y] = H[x,i,j] H[y,k,l] g^{ik} g^{jl} (full double contraction)."""
    return _h_squared(np.linalg.inv(np.asarray(g, dtype=float)), as_three_form_array(H))


def h_norm2(g, H) -> float:
    """|H|^2 = g^{xy} H2[x, y]: all index pairs contracted, no 1/3! factor."""
    ginv = np.linalg.inv(np.asarray(g, dtype=float))
    return float(np.vdot(ginv, _h_squared(ginv, as_three_form_array(H))))


def covariant_derivative(connection: ConnectionCoefficients, T) -> np.ndarray:
    """nabla T of a constant covariant tensor.

    (nabla_{e_i} T)(e_{a_1}, ..) = -sum_s Gamma[i, a_s, m] T(.., e_m, ..);
    the output has the derivative index first.
    """
    Ta = np.asarray(T, dtype=float)
    ga = connection.gamma
    out = np.zeros(ga.shape[:1] + Ta.shape)
    for slot in range(Ta.ndim):
        moved = np.moveaxis(Ta, slot, 0)
        term = np.tensordot(ga, moved, axes=([2], [0]))  # (i, a_s, rest)
        out -= np.moveaxis(term, 1, slot + 1)
    return out


def codifferential(frame: LieFrame, g, T) -> np.ndarray:
    """Codifferential as minus the metric trace of the covariant derivative.

    (d* T)_{a_2..a_k} = -g^{il} (nabla_i T)_{l a_2..a_k}.  Works for any
    covariant tensor; for forms it agrees with the Hodge-star definition
    (-1)^{n(k+1)+1} * d * on an oriented frame.
    """
    gm = np.asarray(g, dtype=float)
    Ta = as_three_form_array(T) if isinstance(T, ThreeForm) else np.asarray(T, dtype=float)
    ginv = np.linalg.inv(gm)
    return _codifferential(ginv, levi_civita(frame, gm, ginv).gamma, Ta)


def divergence(frame: LieFrame, g, S) -> np.ndarray:
    """(div S)_i = g^{jk} (nabla_j S)_{k i} = -(d* S)_i for a 2-tensor S."""
    return -codifferential(frame, g, S)


# ---------------------------------------------------------------------------
# Bismut connections
# ---------------------------------------------------------------------------

def _bismut(gamma: np.ndarray, ginv: np.ndarray, Ha: np.ndarray, sign: int):
    """nabla^{+/-} = Gamma +/- H^sharp / 2 from the Levi-Civita Gamma and g^{-1}."""
    return ConnectionCoefficients(gamma + sign * 0.5 * np.einsum("kl,ijl->ijk", ginv, Ha))


def bismut_connection(frame: LieFrame, g, H, sign: int = +1) -> ConnectionCoefficients:
    """Metric connection with torsion +/-H:
    g(nabla^{+/-}_X Y, Z) = g(nabla_X Y, Z) +/- H(X, Y, Z) / 2."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    gm = np.asarray(g, dtype=float)
    ginv = np.linalg.inv(gm)
    return _bismut(levi_civita(frame, gm, ginv).gamma, ginv, as_three_form_array(H), sign)


def _warn_if_not_closed(frame: LieFrame, Ha: np.ndarray, tol: float = 1e-10) -> None:
    dh = exterior_d_invariant(frame, Ha)
    if np.max(np.abs(dh)) > tol:
        warnings.warn("torsion form is not closed; Bismut identities "
                      "will not hold", stacklevel=3)


def bismut_ricci(frame: LieFrame, g, H, sign: int = +1, route: str = "formula") -> np.ndarray:
    """Ricci tensor of the Bismut connection, by either of two routes.

    route="formula" evaluates Ricci(g) - H2/4 -/+ (d*H)/2, whose symmetric
    and antisymmetric parts are the familiar expressions; route="curvature"
    traces the curvature of nabla^{+/-} directly.  The two must agree for
    closed H, which is what the tests pin down.
    """
    gm = np.asarray(g, dtype=float)
    Ha = as_three_form_array(H)
    _warn_if_not_closed(frame, Ha)
    if route == "formula":
        return generalized_ricci(frame, gm, Ha)[0 if sign > 0 else 1]
    if route == "curvature":
        return connection_ricci(frame, gm, bismut_connection(frame, gm, Ha, sign))
    raise ValueError(f"unknown route {route!r}")


def bismut_scalar(frame: LieFrame, g, H) -> float:
    """Scalar trace of the Bismut Ricci: R - |H|^2 / 4."""
    cv = curvature(frame, g, as_three_form_array(H))
    return cv.scalar - 0.25 * cv.h_norm2


# ---------------------------------------------------------------------------
# Bianchi-type identities
# ---------------------------------------------------------------------------

@dataclass
class BianchiReport:
    """Residuals of the torsion Bianchi identities.

    ``first_bianchi_max``: cyclic sum of R^+(X,Y)Z against the cyclic sum
    of H(H(X,Y),Z) + (nabla^+_X H)(Y,Z) with H(X,Y) the raised 2-slot
    contraction.  ``pair_symmetry_max``: R^+(X,Y,Z,W) - R^-(Z,W,X,Y).
    ``divergence_lemma_max``: div(H2) + (d*H) contracted into H (the
    gradient term drops because |H|^2 is constant on an invariant frame).
    """

    first_bianchi_max: float
    pair_symmetry_max: float
    divergence_lemma_max: float
    curvature_scale: float

    def within(self, tol: float) -> bool:
        return max(self.first_bianchi_max, self.pair_symmetry_max,
                   self.divergence_lemma_max) <= tol


def bianchi_suite(frame: LieFrame, g, H) -> BianchiReport:
    """Evaluate the curvature identities of the pair of Bismut connections.

    Requires a unimodular frame: integration by parts against the
    bi-invariant volume underlies these identities, and on non-unimodular
    frames the invariant volume is not bi-invariant.
    """
    if not frame.is_unimodular():
        raise ValueError("Bianchi suite needs a unimodular frame")
    gm = np.asarray(g, dtype=float)
    Ha = as_three_form_array(H)
    _warn_if_not_closed(frame, Ha)
    cv = curvature(frame, gm, Ha)
    gamma, ginv = cv.connection.gamma, cv.ginv

    conn_p = _bismut(gamma, ginv, Ha, +1)
    conn_m = _bismut(gamma, ginv, Ha, -1)
    rp = riemann(frame, gm, conn_p)
    rm = riemann(frame, gm, conn_m)
    pair = float(np.max(np.abs(rp.lowered - rm.lowered.transpose(2, 3, 0, 1))))

    # first Bianchi with torsion, vector valued:
    #   cyc R^+(X,Y)Z = cyc { H(H(X,Y), Z) + (nabla^+_X H)(Y, Z) }
    hxy = np.einsum("ijm,pm->ijp", Ha, ginv)
    hh = np.einsum("ijp,pkm,lm->ijkl", hxy, Ha, ginv)
    nh = np.einsum("ijkm,lm->ijkl", covariant_derivative(conn_p, Ha), ginv)

    def cyc(t):
        return t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)

    first = float(np.max(np.abs(cyc(rp.mixed) - cyc(hh) - cyc(nh))))

    dstar_up = np.einsum("mn,am,bn->ab", cv.dstar_h, ginv, ginv)
    lemma = float(np.max(np.abs(-_codifferential(ginv, gamma, cv.h2)
                                + np.einsum("ab,iab->i", dstar_up, Ha))))

    return BianchiReport(
        first_bianchi_max=first,
        pair_symmetry_max=pair,
        divergence_lemma_max=lemma,
        curvature_scale=max(rp.sup_norm, 1.0),
    )


# ---------------------------------------------------------------------------
# twisted Ricci and scalar curvature
# ---------------------------------------------------------------------------

@dataclass
class DivergenceData:
    """Covectors phi_+ and phi_- describing a divergence operator on the
    two eigenbundles of a generalized metric.

    A closed 1-form phi yields (phi/2, -phi/2); a vector field e yields
    (g(e,.)/2, g(e,.)/2).
    """

    phi_plus: np.ndarray
    phi_minus: np.ndarray

    def __post_init__(self):
        self.phi_plus = np.asarray(self.phi_plus, dtype=float)
        self.phi_minus = np.asarray(self.phi_minus, dtype=float)
        if self.phi_plus.shape != self.phi_minus.shape or self.phi_plus.ndim != 1:
            raise ValueError("divergence data needs two covectors of equal length")

    @classmethod
    def zero(cls, n: int) -> "DivergenceData":
        return cls(np.zeros(n), np.zeros(n))

    @classmethod
    def from_covector(cls, phi) -> "DivergenceData":
        phi = np.asarray(phi, dtype=float)
        return cls(0.5 * phi, -0.5 * phi)

    @classmethod
    def from_vector(cls, g, X) -> "DivergenceData":
        flat = np.asarray(g, dtype=float) @ np.asarray(X, dtype=float)
        return cls(0.5 * flat, 0.5 * flat)


def generalized_ricci(frame: LieFrame, g, H,
                      div: DivergenceData | None = None):
    """The pair of twisted Ricci tensors.

    Rc^+ = Rc - H2/4 - (d*H)/2 + nabla^+ phi_+
    Rc^- = Rc - H2/4 + (d*H)/2 - nabla^- phi_-

    Returns (Rc^+, Rc^-).  Without divergence data both reduce to the
    Bismut Ricci traces.
    """
    Ha = as_three_form_array(H)
    cv = curvature(frame, g, Ha)
    plus = cv.ricci - 0.25 * cv.h2 - 0.5 * cv.dstar_h
    minus = cv.ricci - 0.25 * cv.h2 + 0.5 * cv.dstar_h
    if div is not None:
        gamma = cv.connection.gamma
        plus = plus + covariant_derivative(_bismut(gamma, cv.ginv, Ha, +1), div.phi_plus)
        minus = minus - covariant_derivative(_bismut(gamma, cv.ginv, Ha, -1), div.phi_minus)
    return plus, minus


def generalized_scalar(frame: LieFrame, g, H, phi) -> float:
    """Scalar curvature of a closed pair (H closed, phi a closed 1-form):

    S = R - |H|^2 / 12 - d* phi - |phi|^2 / 4,

    which is S^+ - S^- of the divergence data (phi/2, -phi/2).  Raises when
    phi fails to be closed; for non-closed divergence data use
    :func:`generalized_scalar_pair`.
    """
    phi = np.asarray(phi, dtype=float)
    if np.max(np.abs(exterior_d_invariant(frame, phi))) > 1e-10:
        raise ValueError("phi is not closed; the scalar curvature of a "
                         "closed pair is not defined for it")
    sp, sm = generalized_scalar_pair(frame, g, H, DivergenceData.from_covector(phi))
    return sp - sm


def generalized_scalar_pair(frame: LieFrame, g, H, div: DivergenceData):
    """Scalar curvatures (S^+, S^-) of a compatible pair.

    S^{+/-} = +/- (R - |H|^2/12 -/+ 2 d* phi_{+/-} - |phi_{+/-}|^2) / 2.
    For divergence data coming from a closed 1-form, S^+ - S^- recovers
    the closed-pair scalar curvature.
    """
    cv = curvature(frame, g, as_three_form_array(H))
    base = cv.scalar - cv.h_norm2 / 12.0

    def side(phi, sgn):
        dstar = float(_codifferential(cv.ginv, cv.connection.gamma, phi))
        norm2 = float(phi @ cv.ginv @ phi)
        return sgn * 0.5 * (base - sgn * 2.0 * dstar - norm2)

    return side(div.phi_plus, +1), side(div.phi_minus, -1)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def volume_three_form(g) -> ThreeForm:
    """Volume form sqrt(det g) e^123 of an oriented 3-dim invariant metric."""
    gm = np.asarray(g, dtype=float)
    if gm.shape != (3, 3):
        raise ValueError("volume 3-form needs a 3-dim metric")
    return ThreeForm.basis(3, 0, 1, 2, float(np.sqrt(np.linalg.det(gm))))


def bi_invariant_three_form(frame: LieFrame, g) -> ThreeForm:
    """Cartan 3-form H(X, Y, Z) = g([X, Y], Z).

    Total antisymmetry requires g to be bi-invariant; the constructor
    raises otherwise.
    """
    comp = np.einsum("ijm,mk->ijk", frame.c, np.asarray(g, dtype=float))
    return ThreeForm(comp)


def hopf_einstein_pair(k: float = 1.0, x: float = 1.0):
    """Flat-Bismut pair on SU(2) x S^1 solving the twisted Einstein system.

    Returns (frame, g, H, phi) with g = k (e^1^2 + e^2^2 + e^3^2) + k x^2 e^4^2,
    H = -k e^123 and dilaton 1-form phi = -2x e^4.  Both Bismut connections
    are flat, the twisted Ricci tensors vanish for any multiple of x e^4,
    and the coefficient -2 is the unique one killing the generalized
    scalar curvature as well.
    """
    if k <= 0 or x <= 0:
        raise ValueError("k and x must be positive")
    frame = su2_r_frame()
    g = np.diag([k, k, k, k * x * x])
    H = ThreeForm.basis(4, 0, 1, 2, -k)
    phi = np.array([0.0, 0.0, 0.0, -2.0 * x])
    return frame, g, H, phi
