"""Independent checks of op outputs, run outside the timed region.

Flow ops are compared with the loop-based oracles of ``tests/oracles.py``
(Ricci, H2, the codifferential and the Chevalley-Eilenberg differential),
which never call the package.  Diagonal Milnor trajectories are compared
with ``flow.milnor_su2_rhs`` through ``flow.rk4_path``, block-diagonal
n = 6 trajectories with the two n = 3 runs of their blocks, ground states
with a dense (or, past 256 unknowns, an independently assembled sparse)
eigensolve, PDE runs with the maximum principle, and scenarios with their
own report.
"""

from __future__ import annotations

import collections
import csv

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import spec

# Relative tolerance against the oracles: well above rounding, far below
# any real error (which is O(1) relative, or O(dt) after one step).
RTOL = 1e-9
# Largest grid solved densely by the oracle; larger ones use eigsh.
DENSE_MAX_UNKNOWNS = 256


class Checks:
    """One counter of checked and failed cases per named check."""

    def __init__(self):
        self.checked = collections.Counter()
        self.failed = collections.Counter()
        self.counters = collections.Counter()

    def __call__(self, name: str, ok) -> bool:
        ok = bool(ok)
        self.checked[name] += 1
        if not ok:
            self.failed[name] += 1
        return ok


def _close(a, b, scale) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.isfinite(a)) and a.shape == b.shape
                and np.max(np.abs(a - b), initial=0.0) <= RTOL * max(1.0, scale))


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def oracle_rhs(oracles, c, g, H):
    """(dg, dH, scale) of the flow with lam = 0 from the loop oracles.

    ``scale`` is the size of the largest term, for relative comparisons.
    """
    rc = oracles.ricci(c, g)
    rc = 0.5 * (rc + rc.T)
    h2 = oracles.h_squared(g, H)
    dstar = oracles.codifferential_via_trace(c, g, H)
    ddstar = oracles.ce_differential(c, dstar)
    dg = -2.0 * rc + 0.5 * h2
    dH = -ddstar
    scale = max(np.max(np.abs(2.0 * rc)), np.max(np.abs(0.5 * h2)),
                np.max(np.abs(ddstar)), np.max(np.abs(g)), np.max(np.abs(H)))
    return dg, dH, float(scale)


def _norm(dg, dH) -> float:
    return float(np.sqrt(np.sum(dg * dg) + np.sum(dH * dH)))


def verify_flow(op, res, gl, oracles, checks: Checks) -> bool:
    a, t = op.args, res.traj
    c, g0, H0 = a["c"], a["g"], a["H"]
    ok = True
    dg, dH, scale = oracle_rhs(oracles, c, g0, H0)
    ok &= checks("flow.initial_oracle",
                 len(t.times) >= 1 and _close(t.rhs_norms[0], _norm(dg, dH), scale)
                 and _close(t.metrics[0], g0, scale))

    if len(t.times) >= 2:
        dt = float(t.times[1] - t.times[0])
        k1 = (dg, dH)
        k2 = oracle_rhs(oracles, c, g0 + 0.5 * dt * k1[0], H0 + 0.5 * dt * k1[1])
        k3 = oracle_rhs(oracles, c, g0 + 0.5 * dt * k2[0], H0 + 0.5 * dt * k2[1])
        k4 = oracle_rhs(oracles, c, g0 + dt * k3[0], H0 + dt * k3[1])
        g1 = g0 + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        H1 = H0 + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        ok &= checks("flow.first_step_oracle",
                     _close(t.metrics[1], g1, scale) and _close(t.torsions[1], H1, scale))

    # the diagnostic recorded with the final state should be that state's
    gf, Hf = np.asarray(t.metrics[-1]), np.asarray(t.torsions[-1])
    dgf, dHf, scale_f = oracle_rhs(oracles, c, gf, Hf)
    true_final = _norm(dgf, dHf)
    if np.isfinite(true_final) and abs(t.rhs_norms[-1] - true_final) > 1e-6 * max(
            true_final, RTOL * scale_f):
        checks.counters["flow.final_rhs_norm_stale"] += 1

    if a["post"]:
        ok &= checks("flow.postprocess", _postprocess_ok(res, oracles, c, g0, H0))
    if a.get("reference") == "milnor":
        ok &= checks("flow.milnor", _milnor_ok(t, gl, a))
    if a.get("reference") == "blocks":
        ok &= checks("flow.block", _block_ok(t, gl, a))
    return ok


def _postprocess_ok(res, oracles, c, g0, H0) -> bool:
    t = res.traj
    R = oracles.scalar_curvature(c, g0)
    h = oracles.h_norm_squared(g0, H0)
    scale = abs(R) + abs(h)
    if len(res.lambdas) != len(t.times) or not _close(res.lambdas[0], R - h / 12.0, scale):
        return False
    with open(res.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(t.times):
        return False
    first, last = rows[0], rows[-1]
    return (float(first["t"]) == t.times[0]
            and float(first["rhs_norm"]) == t.rhs_norms[0]
            and _close(float(first["R"]), R, scale)
            and _close(float(first["H_norm2"]), h, scale)
            and _close(float(first["lambda"]), R - h / 12.0, scale)
            and _close(float(last["lambda"]), res.lambdas[-1], scale))


def _milnor_ok(t, gl, a) -> bool:
    cfg, eta = a["config"], a["eta"]
    _, ys = gl.flow.rk4_path(lambda _t, y: gl.flow.milnor_su2_rhs(y, eta),
                             np.diag(a["g"]), cfg["dt"], cfg["steps"])
    metrics = np.asarray(t.metrics)
    m = len(metrics)
    scale = float(np.max(np.abs(ys)))
    off = metrics - np.einsum("kii->ki", metrics)[:, :, None] * np.eye(3)
    return (m == cfg["steps"] + 1
            and _close(np.einsum("kii->ki", metrics), ys[:m], scale)
            and _close(off, np.zeros_like(off), scale))


def _block_ok(t, gl, a) -> bool:
    frame3 = gl.courant.LieFrame(a["c"][:3, :3, :3])
    cfg = gl.flow.FlowConfig(**a["config"])
    metrics = np.asarray(t.metrics)
    torsions = np.asarray(t.torsions)
    scale = float(np.max(np.abs(metrics)))
    ok = _close(metrics[:, :3, 3:], np.zeros_like(metrics[:, :3, 3:]), scale)
    for sl in (slice(0, 3), slice(3, 6)):
        part = gl.flow.integrate(frame3, gl.flow.FlowState(
            a["g"][sl, sl], a["H"][sl, sl, sl]), cfg)
        ok = (ok and len(part.times) == len(t.times)
              and _close(metrics[:, sl, sl], np.asarray(part.metrics), scale)
              and _close(torsions[:, sl, sl, sl], np.asarray(part.torsions), scale))
    return ok


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

def verify_pde(op, traj, checks: Checks) -> bool:
    """Maximum principle: sup of the rate never rises, inf never falls."""
    sup, inf = np.asarray(traj.sup_rate), np.asarray(traj.inf_rate)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(sup))), float(np.max(np.abs(inf))))
    ok = (traj.steps_taken == op.args["steps"]
          and np.all(np.isfinite(traj.final.values))
          and np.max(np.diff(sup)) <= tol and np.min(np.diff(inf)) >= -tol)
    return checks("pde.max_principle", ok)


def _periodic_operator(V: np.ndarray, h: float) -> sp.csr_matrix:
    """-4 lap + V with the five-point periodic Laplacian, entry by entry."""
    N, M = V.shape
    idx = np.arange(N * M).reshape(N, M)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [V.ravel() + 16.0 / (h * h)]
    for axis in (0, 1):
        for shift in (1, -1):
            rows.append(idx.ravel())
            cols.append(np.roll(idx, shift, axis=axis).ravel())
            vals.append(np.full(N * M, -4.0 / (h * h)))
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                          np.concatenate(cols))), shape=(N * M, N * M)).tocsr()


def reference_ground_value(oracles, V: np.ndarray) -> float:
    N = V.shape[0]
    h = 2.0 * np.pi / N
    if V.size <= DENSE_MAX_UNKNOWNS:
        return oracles.dense_ground_state(V, (h, h))[0]
    A = _periodic_operator(V, h)
    # shift-invert below the spectrum (-4 lap >= 0); three values so that a
    # near-degenerate pair cannot hide the lowest one
    vals = spla.eigsh(A, k=3, sigma=float(V.min()) - 1.0, which="LM",
                      v0=np.ones(V.size), tol=0.0, return_eigenvectors=False)
    return float(np.min(vals))


def verify_ground_state(op, result, oracles, checks: Checks) -> bool:
    lam, vec = result
    ref = reference_ground_value(oracles, op.args["V"])
    value_ok = checks("pde.ground_state_value",
                      abs(lam - ref) <= 1e-8 * max(1.0, abs(ref)))
    # Perron-Frobenius: the ground state of -4 lap + V is strictly positive
    positive = checks("pde.ground_state_positive", np.all(vec.values > 0.0))
    if not (value_ok and positive):
        checks.counters["pde.lambda_eigen.wrong"] += 1
    return value_ok and positive


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def verify_op(op, result, gl, oracles, checks: Checks) -> bool:
    """True when the op's output passes every check that applies to it."""
    if isinstance(result, BaseException):
        return checks("raised", False)
    checks("raised", True)
    if op.kind == "flow":
        return verify_flow(op, result, gl, oracles, checks)
    if op.kind == "pde":
        return verify_pde(op, result, checks)
    if op.kind == "ground_state":
        return verify_ground_state(op, result, oracles, checks)
    return checks("scenario.passed", result.passed)


def unexpected_failures(checks: Checks) -> int:
    """Failed checks that are not catalogued defects of the program."""
    return sum(n for name, n in checks.failed.items()
               if name not in spec.KNOWN_DEFECT_CHECKS)
