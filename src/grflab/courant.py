"""Exact Courant algebroids over invariant frames.

Everything here is finite dimensional linear algebra: sections of
TM + T*M with constant coefficients over a frame of left-invariant vector
fields on a Lie group.  The twisted Dorfman bracket, the neutral pairing,
B-field transforms and generalized metrics are all evaluated on constant
coefficient data, so derivatives of coefficient functions never appear
and brackets reduce to contractions with the structure constants.

Conventions
-----------
* Structure constants are stored as ``c[i, j, k]`` with
  ``[e_i, e_j] = sum_k c[i, j, k] e_k``.
* ``i_X`` contracts the first slot of a form.
* For an invariant k-form the Chevalley-Eilenberg differential is
  ``(d a)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i, X_j], ..hat i..hat j..)``;
  in particular ``(d a)(X, Y) = -a([X, Y])`` for 1-forms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import textio

__all__ = [
    "GeneralizedVector",
    "TwoForm",
    "ThreeForm",
    "LieFrame",
    "GeneralizedMetric",
    "CourantAxiomReport",
    "neutral_pair",
    "b_field_transform",
    "generalized_metric",
    "eigenbundle_projections",
    "dorfman_invariant",
    "exterior_d_invariant",
    "courant_axiom_report",
    "abelian_frame",
    "su2_frame",
    "milnor_su2_frame",
    "su2_r_frame",
    "aff_r2_frame",
    "direct_sum_frame",
]

_ANTISYM_TOL = 1e-12


def _check_antisymmetric_pair(arr: np.ndarray, what: str) -> None:
    if not np.allclose(arr, -np.swapaxes(arr, 0, 1), atol=_ANTISYM_TOL, rtol=0.0):
        raise ValueError(f"{what} must be antisymmetric in its first two indices")


@dataclass
class GeneralizedVector:
    """Section X + xi of TM + T*M with constant coefficients.

    Parameters
    ----------
    x : array_like, shape (n,)
        Vector part, coefficients in the invariant frame.
    xi : array_like, shape (n,)
        Covector part, coefficients in the dual coframe.
    """

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if self.x.shape != self.xi.shape or self.x.ndim != 1:
            raise ValueError("vector and covector parts need matching 1-d shapes")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def __add__(self, other: "GeneralizedVector") -> "GeneralizedVector":
        return GeneralizedVector(self.x + other.x, self.xi + other.xi)

    def __sub__(self, other: "GeneralizedVector") -> "GeneralizedVector":
        return GeneralizedVector(self.x - other.x, self.xi - other.xi)

    def __neg__(self) -> "GeneralizedVector":
        return GeneralizedVector(-self.x, -self.xi)

    def __rmul__(self, s: float) -> "GeneralizedVector":
        return GeneralizedVector(s * self.x, s * self.xi)

    def sup_norm(self) -> float:
        return float(max(np.max(np.abs(self.x)), np.max(np.abs(self.xi))))

    @classmethod
    def from_vector(cls, x) -> "GeneralizedVector":
        x = np.asarray(x, dtype=float)
        return cls(x, np.zeros_like(x))

    @classmethod
    def from_covector(cls, xi) -> "GeneralizedVector":
        xi = np.asarray(xi, dtype=float)
        return cls(np.zeros_like(xi), xi)


@dataclass
class TwoForm:
    """Invariant 2-form stored as an antisymmetric matrix B[i, j] = B(e_i, e_j)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("a 2-form needs a square matrix")
        _check_antisymmetric_pair(self.matrix, "2-form")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def basis(cls, n: int, i: int, j: int, coeff: float = 1.0) -> "TwoForm":
        """The 2-form coeff * e^i ^ e^j (value coeff on (e_i, e_j))."""
        m = np.zeros((n, n))
        m[i, j] = coeff
        m[j, i] = -coeff
        return cls(m)

    @classmethod
    def from_wedge(cls, alpha, beta) -> "TwoForm":
        """Wedge of two covectors, (alpha ^ beta)(X, Y) = alpha(X)beta(Y) - alpha(Y)beta(X)."""
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        return cls(np.outer(alpha, beta) - np.outer(beta, alpha))


@dataclass
class ThreeForm:
    """Invariant 3-form stored as a totally antisymmetric (n, n, n) array."""

    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        a = self.components
        if a.ndim != 3 or len(set(a.shape)) != 1:
            raise ValueError("a 3-form needs a cubic (n, n, n) array")
        for axes in ((1, 0, 2), (0, 2, 1)):
            if not np.allclose(a, -a.transpose(axes), atol=_ANTISYM_TOL, rtol=0.0):
                raise ValueError("3-form components must be totally antisymmetric")

    @property
    def n(self) -> int:
        return self.components.shape[0]

    @classmethod
    def basis(cls, n: int, i: int, j: int, k: int, coeff: float = 1.0) -> "ThreeForm":
        """The 3-form coeff * e^i ^ e^j ^ e^k (value coeff on (e_i, e_j, e_k))."""
        if len({i, j, k}) != 3:
            raise ValueError("basis indices must be distinct")
        a = np.zeros((n, n, n))
        for perm in itertools.permutations((i, j, k)):
            a[perm] = coeff * _perm_sign((i, j, k), perm)
        return cls(a)

    @classmethod
    def zero(cls, n: int) -> "ThreeForm":
        return cls(np.zeros((n, n, n)))


def _perm_sign(base, perm) -> int:
    order = [base.index(p) for p in perm]
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sign


def as_three_form_array(H) -> np.ndarray:
    """Accept a ThreeForm or raw (n, n, n) array and return the array."""
    if H is None:
        raise ValueError("expected a 3-form, got None")
    if isinstance(H, ThreeForm):
        return H.components
    return ThreeForm(np.asarray(H, dtype=float)).components


@dataclass
class LieFrame:
    """Invariant frame of a Lie group, encoded by its structure constants.

    ``c[i, j, k]`` is the coefficient of ``e_k`` in ``[e_i, e_j]``.
    Antisymmetry in (i, j) is enforced; the Jacobi identity is the
    caller's business and can be inspected with :meth:`jacobi_max`.
    """

    c: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.ndim != 3 or len(set(self.c.shape)) != 1:
            raise ValueError("structure constants need shape (n, n, n)")
        _check_antisymmetric_pair(self.c, "structure constants")

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def bracket(self, x, y) -> np.ndarray:
        """[X, Y] for constant coefficient vectors."""
        return np.einsum("i,j,ijk->k", np.asarray(x, float), np.asarray(y, float), self.c)

    def jacobi_max(self) -> float:
        """sup norm of [e_i,[e_j,e_k]] + cyclic over all triples."""
        t = np.einsum("jkm,iml->ijkl", self.c, self.c)
        total = t + np.einsum("ijkl->jkil", t) + np.einsum("ijkl->kijl", t)
        return float(np.max(np.abs(total)))

    def is_unimodular(self, tol: float = 1e-12) -> bool:
        """True when every adjoint operator is trace free (sum_k c[k, j, k] = 0)."""
        return bool(np.max(np.abs(np.einsum("kjk->j", self.c))) <= tol)

    def to_text(self) -> str:
        return textio.dump_fields({"dim": self.dim}, {"c": self.c})

    @classmethod
    def from_text(cls, text: str) -> "LieFrame":
        scalars, entries = textio.parse_fields(text)
        n = int(scalars["dim"])
        return cls(textio.build_array(entries, "c", (n, n, n)))


def abelian_frame(n: int) -> LieFrame:
    """Frame of a torus: all brackets vanish."""
    return LieFrame(np.zeros((n, n, n)), name=f"abelian{n}")


def su2_frame() -> LieFrame:
    """su(2) frame normalized so the coframe obeys de^1 = e^23 cyclically.

    Equivalently [e_2, e_3] = -e_1 and cyclic.
    """
    c = np.zeros((3, 3, 3))
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        c[i, j, k] = -1.0
        c[j, i, k] = 1.0
    return LieFrame(c, name="su2")


def milnor_su2_frame() -> LieFrame:
    """su(2) frame with [X_1, X_2] = -2 X_3 cyclically.

    With this normalization the identity matrix is the metric of the unit
    round 3-sphere (Ricci = 2 g).
    """
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = -2.0
        c[j, i, k] = 2.0
    return LieFrame(c, name="su2-milnor")


def su2_r_frame() -> LieFrame:
    """su(2) + R frame: de^1 = e^23 cyclic on the first three, e_4 central.

    This is the invariant frame underlying the Hopf fibration examples on
    SU(2) x S^1.
    """
    c = np.zeros((4, 4, 4))
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        c[i, j, k] = -1.0
        c[j, i, k] = 1.0
    return LieFrame(c, name="su2+R")


def aff_r2_frame() -> LieFrame:
    """aff(1) + R^2 frame: [e_1, e_2] = e_2, with e_3 and e_4 central.

    Non-unimodular (ad_{e_1} has trace 1).  Useful because it carries
    invariant 3-forms that are not closed, e.g. d(e^234) = -e^1234.
    """
    c = np.zeros((4, 4, 4))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    return LieFrame(c, name="aff(1)+R2")


def direct_sum_frame(a: LieFrame, b: LieFrame) -> LieFrame:
    """Block direct sum of two frames (product group)."""
    n, m = a.dim, b.dim
    c = np.zeros((n + m, n + m, n + m))
    c[:n, :n, :n] = a.c
    c[n:, n:, n:] = b.c
    name = "+".join(s for s in (a.name, b.name) if s)
    return LieFrame(c, name=name)


# ---------------------------------------------------------------------------
# pairing, B-fields, generalized metrics
# ---------------------------------------------------------------------------

def neutral_pair(a: GeneralizedVector, b: GeneralizedVector) -> float:
    """Split-signature pairing <a, b> = (xi_b(X_a) + xi_a(X_b)) / 2."""
    return 0.5 * float(a.x @ b.xi + b.x @ a.xi)


def b_field_transform(a: GeneralizedVector, B: TwoForm) -> GeneralizedVector:
    """e^B acting as X + xi -> X + xi + i_X B.

    (i_X B)_j = X^i B[i, j]; this preserves the neutral pairing for any
    2-form B.
    """
    return GeneralizedVector(a.x, a.xi + a.x @ B.matrix)


@dataclass
class GeneralizedMetric:
    """Generalized metric determined by a Riemannian g and a 2-form b.

    Acts on sections as the endomorphism sending X + xi to
    ``(-g^{-1} b X + g^{-1} xi) + ((g - b g^{-1} b) X + b g^{-1} xi)``,
    which squares to the identity and is symmetric for the neutral pairing.
    """

    g: np.ndarray
    b: TwoForm

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if not np.allclose(self.g, self.g.T, atol=_ANTISYM_TOL, rtol=0.0):
            raise ValueError("metric must be symmetric")
        try:
            np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric must be positive definite") from exc
        if self.b.n != self.g.shape[0]:
            raise ValueError("b-field dimension does not match the metric")

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def apply(self, a: GeneralizedVector) -> GeneralizedVector:
        ginv = np.linalg.inv(self.g)
        bm = self.b.matrix
        x = -ginv @ bm @ a.x + ginv @ a.xi
        xi = (self.g - bm @ ginv @ bm) @ a.x + bm @ ginv @ a.xi
        return GeneralizedVector(x, xi)

    def endomorphism(self) -> np.ndarray:
        """The 2n x 2n matrix in the (vector, covector) block ordering."""
        ginv = np.linalg.inv(self.g)
        bm = self.b.matrix
        top = np.hstack([-ginv @ bm, ginv])
        bottom = np.hstack([self.g - bm @ ginv @ bm, bm @ ginv])
        return np.vstack([top, bottom])


def generalized_metric(g, b: TwoForm | None = None) -> GeneralizedMetric:
    """Build the generalized metric of the pair (g, b); b defaults to zero."""
    g = np.asarray(g, dtype=float)
    if b is None:
        b = TwoForm(np.zeros_like(g))
    return GeneralizedMetric(g, b)


def eigenbundle_projections(G: GeneralizedMetric, a: GeneralizedVector):
    """Projections of a onto the +1 / -1 eigenbundles of G.

    Returns (a_plus, a_minus) with a = a_plus + a_minus.  The +1 bundle is
    the graph of b + g, the -1 bundle the graph of b - g.
    """
    Ga = G.apply(a)
    plus = 0.5 * (a + Ga)
    minus = 0.5 * (a - Ga)
    return plus, minus


# ---------------------------------------------------------------------------
# Dorfman bracket and Chevalley-Eilenberg differential
# ---------------------------------------------------------------------------

def dorfman_invariant(frame: LieFrame, a: GeneralizedVector, b: GeneralizedVector,
                      H: ThreeForm | np.ndarray | None = None) -> GeneralizedVector:
    """H-twisted Dorfman bracket of constant coefficient sections.

    For a = X + xi, b = Y + eta over an invariant frame the bracket is
    [a, b] = [X, Y] + (Z -> -eta([X, Z]) + xi([Y, Z]) + H(X, Y, Z)).
    All Lie-derivative terms on coefficient functions vanish because the
    coefficients are constant.
    """
    if a.n != frame.dim or b.n != frame.dim:
        raise ValueError("section dimension does not match the frame")
    c = frame.c
    vec = np.einsum("i,j,ijk->k", a.x, b.x, c)
    cov = (-np.einsum("m,i,ikm->k", b.xi, a.x, c)
           + np.einsum("m,j,jkm->k", a.xi, b.x, c))
    if H is not None:
        Ha = as_three_form_array(H)
        cov = cov + np.einsum("i,j,ijk->k", a.x, b.x, Ha)
    return GeneralizedVector(vec, cov)


@functools.cache
def _signed_permutations(k: int) -> tuple:
    """(sign, permutation) of every permutation of range(k)."""
    base = tuple(range(k))
    return tuple((_perm_sign(base, perm), perm)
                 for perm in itertools.permutations(base))


def _alternate(T: np.ndarray) -> np.ndarray:
    """Full antisymmetrization (1/k!) sum_sigma sgn(sigma) T_sigma."""
    out = np.zeros_like(T)
    for sign, perm in _signed_permutations(T.ndim):
        if sign > 0:
            out += T.transpose(perm)
        else:
            out -= T.transpose(perm)
    return out / math.factorial(T.ndim)


def exterior_d_invariant(frame: LieFrame, form) -> np.ndarray:
    """Chevalley-Eilenberg differential of an invariant form.

    Implemented as d(form) = -binom(k+1, 2) Alt(T) where
    T[i0, i1, a2..ak] = c[i0, i1, b] form[b, a2..ak]; this is the alternating
    sum over index pairs written as one contraction plus an
    antisymmetrization.  A 0-form (invariant constant) has d = 0.
    """
    if isinstance(form, TwoForm):
        arr = form.matrix
    elif isinstance(form, ThreeForm):
        arr = form.components
    else:
        arr = np.asarray(form, dtype=float)
    n = frame.dim
    if arr.ndim == 0:
        return np.zeros(n)
    k = arr.ndim
    T = np.tensordot(frame.c, arr, axes=([2], [0]))  # -> (i0, i1, a2..ak)
    coeff = math.comb(k + 1, 2)
    return -coeff * _alternate(T)


# ---------------------------------------------------------------------------
# axiom report
# ---------------------------------------------------------------------------

@dataclass
class CourantAxiomReport:
    """Numerical residuals of the Courant algebroid axioms on given sections.

    The Leibniz-type axioms involve derivatives of coefficient functions
    and are vacuous on constant sections, so they are recorded as skipped
    rather than silently passed.
    """

    n_sections: int
    n_triples: int
    jacobi_max: float
    pairing_derivation_max: float
    symmetrization_max: float
    dh_max: float
    h_closed: bool
    jacobi_failure_expected: bool
    checked: tuple = ("jacobi", "pairing_derivation", "symmetrized_bracket")
    skipped: tuple = ("anchor_leibniz", "scalar_function_leibniz")

    def within(self, tol: float) -> bool:
        """True when every checked residual that ought to vanish does."""
        ok = (self.pairing_derivation_max <= tol
              and self.symmetrization_max <= tol)
        if self.h_closed:
            ok = ok and self.jacobi_max <= tol
        return ok


def courant_axiom_report(frame: LieFrame, H, sections,
                         closed_tol: float = 1e-12) -> CourantAxiomReport:
    """Evaluate the Courant axioms on a list of constant sections.

    Jacobi is checked in Leibniz form [a,[b,c]] = [[a,b],c] + [b,[a,c]]
    over all ordered triples; the pairing axiom residual is
    <[a,b],c> + <b,[a,c]> (the anchor term vanishes on constants); the
    symmetrized bracket [a,b] + [b,a] must vanish because d of the pairing
    of constants is zero.  When dH != 0 the Jacobi residual is expected to
    be nonzero and the report flags that instead of failing.
    """
    Ha = as_three_form_array(H) if H is not None else None
    dh = exterior_d_invariant(frame, Ha if Ha is not None else np.zeros((frame.dim,) * 3))
    dh_max = float(np.max(np.abs(dh)))
    h_closed = dh_max <= closed_tol

    def br(u, v):
        return dorfman_invariant(frame, u, v, Ha)

    jac = 0.0
    pair = 0.0
    symm = 0.0
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
    return CourantAxiomReport(
        n_sections=len(sections),
        n_triples=n_triples,
        jacobi_max=jac,
        pairing_derivation_max=pair,
        symmetrization_max=symm,
        dh_max=dh_max,
        h_closed=h_closed,
        jacobi_failure_expected=not h_closed,
    )


# ---------------------------------------------------------------------------
# serialization of invariant data bundles
# ---------------------------------------------------------------------------

def dump_invariant_data(frame: LieFrame, g=None, b: TwoForm | None = None,
                        H=None) -> str:
    """Serialize a frame together with optional metric / 2-form / 3-form."""
    arrays = {"c": frame.c}
    if g is not None:
        arrays["g"] = np.asarray(g, dtype=float)
    if b is not None:
        arrays["b"] = b.matrix
    if H is not None:
        arrays["H"] = as_three_form_array(H)
    return textio.dump_fields({"dim": frame.dim}, arrays)


def load_invariant_data(text: str) -> dict:
    """Inverse of :func:`dump_invariant_data`.

    Returns a dict with keys ``frame`` and, when present in the text,
    ``g``, ``b``, ``H``.
    """
    scalars, entries = textio.parse_fields(text)
    n = int(scalars["dim"])
    out = {"frame": LieFrame(textio.build_array(entries, "c", (n, n, n)))}
    if "g" in entries:
        out["g"] = textio.build_array(entries, "g", (n, n))
    if "b" in entries:
        out["b"] = TwoForm(textio.build_array(entries, "b", (n, n)))
    if "H" in entries:
        out["H"] = ThreeForm(textio.build_array(entries, "H", (n, n, n)))
    return out
