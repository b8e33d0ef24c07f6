"""Command line runner for the bundled scenarios.

Each scenario runs a slice of the package end to end, writes CSV series,
a flat key/value report and a gnuplot script into the output directory,
and checks its residuals against scenario tolerances.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error,
3 numerical failure (positivity loss, singular flow, non-finite values).

Environment: GRFLAB_OUT sets the default output root (default ./runs).
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import flow, geometry, pde, tduality, textio
from .courant import (GeneralizedVector, ThreeForm, aff_r2_frame,
                      courant_axiom_report, direct_sum_frame,
                      milnor_su2_frame, su2_r_frame)

__all__ = ["main", "run_scenario", "run_many", "scenario_names", "ConfigError"]


class ConfigError(Exception):
    """Bad scenario name, parameter, or manifest."""


# what a run reports as a numerical failure, exit code 3
_NUMERICAL_FAILURES = (pde.PositivityError, flow.FlowSingularity, FloatingPointError,
                       np.linalg.LinAlgError, ValueError)


@dataclass
class CheckResult:
    name: str
    value: float
    tol: float
    passed: bool


@dataclass
class RunReport:
    scenario: str
    outdir: str = ""
    checks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    wall_time: float = 0.0
    # what the run did, as written to report.txt after the pass/fail line
    facts: dict = field(default_factory=dict)

    def check(self, name: str, value: float, tol: float, larger: bool = False):
        """Record value <= tol (or value >= tol when larger is set)."""
        ok = bool(value >= tol) if larger else bool(value <= tol)
        self.checks.append(CheckResult(name, float(value), float(tol), ok))

    def output(self, filename: str) -> str:
        """Path of filename in the output directory, recorded as an output."""
        path = os.path.join(self.outdir, filename)
        self.outputs.append(path)
        return path

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"scenario = {self.scenario}",
                 f"wall_time = {self.wall_time:.3f}",
                 f"passed = {str(self.passed).lower()}"]
        for key, value in self.facts.items():
            lines.append(f"{key} = {str(value).lower() if isinstance(value, bool) else value}")
        for c in self.checks:
            lines.append(f"check_{c.name} = {c.value!r}")
            lines.append(f"check_{c.name}_tol = {c.tol!r}")
            lines.append(f"check_{c.name}_passed = {str(c.passed).lower()}")
        for i, out in enumerate(self.outputs):
            lines.append(f"output_{i} = {out}")
        return "\n".join(lines) + "\n"


def _write_plot(rep: RunReport, name: str, csvfile: str, columns, title: str) -> None:
    using = ", ".join(f"'{csvfile}' using 1:{c} with lines" for c in columns)
    with open(rep.output(f"plot_{name}.gp"), "w") as fh:
        fh.write("set datafile separator ','\n"
                 "set key autotitle columnhead\n"
                 f"set title '{title}'\n"
                 "set terminal pngcairo size 900,600\n"
                 f"set output '{name}.png'\n"
                 f"plot {using}\n")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_sphere(p, rep):
    lam0, eta0, dt, T = p["lam0"], p["eta0"], p["dt"], p["T"]
    steps = int(round(T / dt))
    stop = (lambda t, y: y[0] < 0.05) if eta0 == 0.0 else None
    ts, ys = flow.rk4_path(lambda t, y: (flow.sphere_ode_rhs(y[0], eta0),),
                           [lam0], dt, steps, stop=stop)
    textio.write_table(rep.output("trajectory.csv"), ["t", "lambda_size"], [ts, ys[:, 0]])
    if eta0 == 0.0:
        rep.check("linear_shrink_sup_err",
                  float(np.max(np.abs(ys[:, 0] - (lam0 - 4.0 * ts)))), p["tol"])
    else:
        rep.check("fixed_point_err", abs(ys[-1, 0] - eta0 / 2.0), p["tol"])
    # tensor engine agreement at the initial state
    st = flow.FlowState(lam0 * np.eye(3),
                        ThreeForm.basis(3, 0, 1, 2, eta0) if eta0 else None)
    dg, _ = flow.grf_rhs(milnor_su2_frame(), st)
    rep.check("tensor_engine_gap",
              float(np.max(np.abs(dg - flow.sphere_ode_rhs(lam0, eta0) * np.eye(3)))),
              1e-10)


def _scenario_hyperbolic(p, rep):
    lam0, dt, T = p["lam0"], p["dt"], p["T"]
    ts, ys = flow.rk4_path(lambda t, y: (flow.hyperbolic_ode_rhs(y[0]),),
                           [lam0], dt, int(round(T / dt)))
    textio.write_table(rep.output("trajectory.csv"), ["t", "lambda_size"], [ts, ys[:, 0]])
    rep.check("linear_growth_rate_err", abs(ys[-1, 0] / (4.0 * ts[-1]) - 1.0), p["tol"])


def _scenario_neck(p, rep):
    dt = p["dt"]
    if p["phi_stop"] <= 0.0:
        raise ConfigError("neck needs phi_stop > 0: the sphere factor pinches at 0")
    ts, ys = flow.rk4_path(lambda t, y: flow.neck_ode_rhs(y),
                           [p["phi0"], p["psi0"]], dt, int(p["max_steps"]),
                           stop=lambda t, y: y[0] < p["phi_stop"])
    textio.write_table(rep.output("trajectory.csv"), ["t", "phi", "psi"], [ts, *ys.T])
    rep.check("sphere_factor_min", float(np.min(ys[:, 0])), 0.0, larger=True)
    rep.check("sphere_factor_final", float(ys[-1, 0]), p["phi_stop"] + 2 * dt * 2.0)
    rep.check("circle_factor_growth", float(ys[-1, 1] - ys[0, 1]), p["tol"], larger=True)


def _scenario_su2_milnor(p, rep):
    dt, T, eta0 = p["dt"], p["T"], p["eta0"]
    y0 = [p["A0"], p["B0"], p["C0"]]
    ts, ys = flow.rk4_path(lambda t, y: flow.milnor_su2_rhs(y, eta0), y0, dt,
                           int(round(T / dt)))
    A, B, C = ys.T
    ratio = (C - A) / A
    textio.write_table(rep.output("trajectory.csv"), ["t", "A", "B", "C", "anisotropy"],
                       [ts, A, B, C, ratio])
    order_viol = float(max(np.max(A - B), np.max(B - C)))
    rep.check("ordering_preserved_violation", order_viol, 1e-12)
    rep.check("anisotropy_monotone_violation", float(np.max(np.diff(ratio))), 1e-12)
    rep.check("final_anisotropy", float(C[-1] - A[-1]), p["tol"])
    mask = (C - A) > 1e-10
    slope, icpt = np.polyfit(ts[mask], np.log(C[mask] - A[mask]), 1)
    resid = np.log(C[mask] - A[mask]) - (slope * ts[mask] + icpt)
    r2 = 1.0 - np.sum(resid ** 2) / np.sum(
        (np.log(C[mask] - A[mask]) - np.mean(np.log(C[mask] - A[mask]))) ** 2)
    rep.check("exponential_decay_r2", float(r2), 0.99, larger=True)


def _scenario_product_s3s3(p, rep):
    frame = direct_sum_frame(milnor_su2_frame(), milnor_su2_frame())
    g = np.zeros((6, 6))
    g[:3, :3] = 0.5 * np.eye(3)
    g[3:, 3:] = p["lam0"] * np.eye(3)
    H = np.zeros((6, 6, 6))
    H[:3, :3, :3] = ThreeForm.basis(3, 0, 1, 2, 1.0).components
    cfg = flow.FlowConfig(dt=p["dt"], steps=int(round(p["T"] / p["dt"])),
                          fixed_point_tol=0.0)
    traj = flow.integrate(frame, flow.FlowState(g, H), cfg)
    traj.to_csv(rep.output("trajectory.csv"))
    gf, tf = traj.metrics[-1], traj.times[-1]
    rep.check("einstein_block_drift",
              float(np.max(np.abs(gf[:3, :3] - 0.5 * np.eye(3)))), p["tol"])
    rep.check("shrinking_block_err",
              float(np.max(np.abs(gf[3:, 3:] - (p["lam0"] - 4.0 * tf) * np.eye(3)))),
              p["tol"])
    rep.check("block_mixing", float(np.max(np.abs(gf[:3, 3:]))), 1e-12)


def _scenario_hopf_rym(p, rep):
    K0, L0, a, dt, T = p["K0"], p["L0"], p["a"], p["dt"], p["T"]
    ts, ys = flow.rk4_path(lambda t, y: flow.circle_bundle_rhs(y[0], y[1], a),
                           [K0, L0], dt, int(round(T / dt)))
    textio.write_table(rep.output("trajectory.csv"), ["t", "K", "L"], [ts, *ys.T])
    frame = milnor_su2_frame()
    gap = 0.0
    for K, L in ys[:: max(1, len(ys) // 40)]:
        st = flow.FlowState(np.diag([4 * a * a * K, 4 * L, 4 * L]), None)
        dg, _ = flow.grf_rhs(frame, st)
        dKL = flow.circle_bundle_rhs(K, L, a)
        pred = np.diag([4 * a * a * dKL[0], 4 * dKL[1], 4 * dKL[1]])
        gap = max(gap, float(np.max(np.abs(dg - pred))))
    rep.check("tensor_engine_gap", gap, p["tol"])


def _scenario_hopf_tduality(p, rep):
    dt, T = p["dt"], p["T"]
    com = tduality.flow_commutation_check(p["K0"], p["L0"], dt, T, p["a"])
    half = tduality.flow_commutation_check(p["K0"], p["L0"], dt / 2.0, T, p["a"])
    com.to_csv(rep.output("commutation.csv"))
    rep.check("commutation_deviation", com.max_deviation, p["tol"])
    rep.check("halving_gain", com.max_deviation / half.max_deviation, 12.0,
              larger=True)


def _scenario_hopf_bismut_flat(p, rep):
    k, x = p["k"], p["x"]
    frame, g, H, phi = geometry.hopf_einstein_pair(k, x)
    for sign, tag in ((+1, "plus"), (-1, "minus")):
        conn = geometry.bismut_connection(frame, g, H, sign)
        rep.check(f"bismut_{tag}_curvature",
                  geometry.riemann(frame, g, conn).sup_norm, p["tol"])
    div = geometry.DivergenceData.from_covector(phi)
    rp, rm = geometry.generalized_ricci(frame, g, H, div)
    rep.check("twisted_ricci", max(float(np.max(np.abs(rp))),
                                   float(np.max(np.abs(rm)))), p["tol"])
    rep.check("twisted_scalar", abs(geometry.generalized_scalar(frame, g, H, phi)),
              p["tol"])
    rep.check("dilaton_needed",
              abs(geometry.generalized_scalar(frame, g, H, np.zeros(4))),
              1e-3, larger=True)
    g_pert = g.copy()
    g_pert[0, 0] += 0.1
    rp2, rm2 = geometry.generalized_ricci(frame, g_pert, H, div)
    rep.check("perturbation_detected",
              max(float(np.max(np.abs(rp2))), float(np.max(np.abs(rm2)))),
              1e-3, larger=True)
    exch = tduality.einstein_exchange_check(k, x)
    rep.check("exchange_residual",
              max(exch.primal_ricci_max, abs(exch.primal_scalar),
                  exch.dual_ricci_max, exch.dual_scalar_max,
                  exch.fiber_rule_gap), p["tol"])
    data = tduality.dump_circle_bundle(
        tduality.CircleBundleData(g0=g[3, 3], g1=np.zeros(3), g2=g[:3, :3]))
    with open(rep.output("fiber_data.txt"), "w") as fh:
        fh.write(data)


def _torus_run(p, rep, rhs):
    """Flow amplitude sin X sin Y at ETDRK4's step 10 h^2 and record the run."""
    N, amp = int(p["N"]), p["amplitude"]
    grid = pde.PeriodicGrid.from_function(
        lambda X, Y: amp * np.sin(X) * np.sin(Y), N)
    h = grid.min_active_spacing()
    traj = pde.pde_integrate(grid, dt=10.0 * h * h, steps=int(p["max_steps"]), rhs=rhs,
                             stop_sup_rate=p.get("rate_target"))
    rep.facts.update(method=traj.method, dt=traj.dt, steps_taken=traj.steps_taken,
                     rhs_evals=traj.rhs_evals, stopped_early=traj.stopped_early)
    traj.to_csv(rep.output("monitors.csv"))
    return traj


def _scenario_torus_krf(p, rep):
    t0 = time.time()
    traj = _torus_run(p, rep, pde.krf_rhs)
    wall = time.time() - t0
    rep.check("sup_rate_monotone_violation",
              float(np.max(np.diff(traj.sup_rate))), 1e-10)
    rep.check("inf_rate_monotone_violation",
              float(-np.min(np.diff(traj.inf_rate))), 1e-10)
    rep.check("converged_within_budget", 1.0 if traj.stopped_early else 0.0,
              1.0, larger=True)
    rep.check("wall_time_budget", wall, p["wall_budget"])


def _scenario_torus_gkrf(p, rep):
    traj = _torus_run(p, rep, pde.gkrf_rhs)
    rep.check("final_oscillation", float(traj.osc[-1]), p["tol"])
    rep.check("sup_rate_monotone_violation",
              float(np.max(np.diff(traj.sup_rate))), 1e-10)


def _scenario_courant_axioms(p, rep):
    rng = np.random.default_rng(int(p["seed"]))
    frame = su2_r_frame()
    sections = [GeneralizedVector(rng.standard_normal(4), rng.standard_normal(4))
                for _ in range(int(p["sections"]))]
    closed = courant_axiom_report(frame, ThreeForm.basis(4, 0, 1, 2, -1.0),
                                  sections)
    rep.check("jacobi_closed", closed.jacobi_max, p["tol"])
    rep.check("pairing_derivation", closed.pairing_derivation_max, p["tol"])
    rep.check("symmetrized_bracket", closed.symmetrization_max, p["tol"])
    frame_na = aff_r2_frame()
    sections_na = [GeneralizedVector(rng.standard_normal(4), rng.standard_normal(4))
                   for _ in range(int(p["sections"]))]
    open_rep = courant_axiom_report(frame_na, ThreeForm.basis(4, 1, 2, 3, 1.0),
                                    sections_na)
    rep.check("jacobi_detects_nonclosed", open_rep.jacobi_max, 1e-6, larger=True)
    rep.check("nonclosed_flagged", 1.0 if open_rep.jacobi_failure_expected else 0.0,
              1.0, larger=True)
    with open(rep.output("report_closed.txt"), "w") as fh:
        for name in ("jacobi_max", "pairing_derivation_max", "symmetrization_max",
                     "dh_max"):
            fh.write(f"{name} = {getattr(closed, name)!r}\n")
        fh.write(f"skipped = {','.join(closed.skipped)}\n")


def _scenario_bianchi_suite(p, rep):
    rng = np.random.default_rng(int(p["seed"]))
    worst = {"first_bianchi": 0.0, "pair_symmetry": 0.0, "divergence_lemma": 0.0}
    frame4 = su2_r_frame()
    frame3 = milnor_su2_frame()
    for _ in range(int(p["trials"])):
        a = rng.standard_normal((4, 4))
        g4 = a @ a.T + 4.0 * np.eye(4)
        h = rng.standard_normal((4, 4, 4))
        h4 = (h - h.transpose(1, 0, 2) + h.transpose(1, 2, 0)
              - h.transpose(2, 1, 0) + h.transpose(2, 0, 1)
              - h.transpose(0, 2, 1)) / 6.0
        r4 = geometry.bianchi_suite(frame4, g4, h4)
        g3 = np.diag(rng.uniform(0.3, 2.0, 3))
        h3 = ThreeForm.basis(3, 0, 1, 2, float(rng.uniform(-2.0, 2.0)))
        r3 = geometry.bianchi_suite(frame3, g3, h3)
        for r in (r4, r3):
            worst["first_bianchi"] = max(worst["first_bianchi"], r.first_bianchi_max)
            worst["pair_symmetry"] = max(worst["pair_symmetry"], r.pair_symmetry_max)
            worst["divergence_lemma"] = max(worst["divergence_lemma"],
                                            r.divergence_lemma_max)
    for name, v in worst.items():
        rep.check(name, v, p["tol"])
    with open(rep.output("residuals.txt"), "w") as fh:
        fh.write(textio.dump_fields({f"{name}_max": v for name, v in worst.items()}, {}))


def _scenario_lambda_monotone(p, rep):
    dt = p["dt"]
    frame = milnor_su2_frame()
    series = {}
    worst = -np.inf
    h_two = ThreeForm.basis(3, 0, 1, 2, 2.0)
    for lam0 in (0.5, 3.0):
        ts, ys = flow.rk4_path(
            lambda t, y: (flow.sphere_ode_rhs(y[0], 2.0),),
            [lam0], dt, int(round(p["T"] / dt)))
        lam_fun = [flow.lambda_homogeneous(frame, s * np.eye(3), h_two)
                   for s in ys[:: int(p["stride"]), 0]]
        worst = max(worst, float(np.max(-np.diff(lam_fun))))
        series[f"sphere_{lam0}"] = lam_fun
    ts, ys = flow.rk4_path(lambda t, y: flow.milnor_su2_rhs(y, 1.0),
                           [0.3, 0.5, 0.9], dt, int(round(p["T"] / dt)))
    h3 = ThreeForm.basis(3, 0, 1, 2, 1.0)
    lam_fun = [flow.lambda_homogeneous(frame, np.diag(row), h3)
               for row in ys[:: int(p["stride"])]]
    worst = max(worst, float(np.max(-np.diff(lam_fun))))
    series["su2_milnor"] = lam_fun
    textio.write_table(rep.output("lambda_series.csv"), ["index", *series],
                       [np.arange(len(lam_fun)), *series.values()])
    slack = 1e-8 * dt * p["stride"]
    rep.check("lambda_decrease_violation", worst, slack)


# name: (function, description, defaults, plot), where plot is
# (csv file, plotted columns, title) for plot_<name>.gp, or None
_REGISTRY = {
    "sphere": (_scenario_sphere, "round S^3 with volume torsion",
               {"lam0": 1.0, "eta0": 2.0, "dt": 1e-3, "T": 5.0, "tol": 1e-6},
               ("trajectory.csv", [2], "round sphere scale")),
    "hyperbolic": (_scenario_hyperbolic, "compact hyperbolic expansion",
                   {"lam0": 1.0, "dt": 1e-3, "T": 50.0, "tol": 0.01},
                   ("trajectory.csv", [2], "hyperbolic expansion")),
    "neck": (_scenario_neck, "S^2 x S^1 neck pinch",
             {"phi0": 1.0, "psi0": 1.0, "dt": 1e-4, "max_steps": 200000,
              "phi_stop": 0.05, "tol": 1e-3},
             ("trajectory.csv", [2, 3], "neck pinch: sphere and circle factors")),
    "su2-milnor": (_scenario_su2_milnor, "diagonal SU(2) flow, Milnor frame",
                   {"A0": 0.3, "B0": 0.5, "C0": 0.9, "eta0": 1.0, "dt": 1e-3,
                    "T": 10.0, "tol": 1e-6},
                   ("trajectory.csv", [2, 3, 4], "Milnor frame coefficients")),
    "product-s3s3": (_scenario_product_s3s3, "Einstein + shrinking product",
                     {"lam0": 1.0, "dt": 1e-3, "T": 0.15, "tol": 1e-8}, None),
    "hopf-rym": (_scenario_hopf_rym, "circle bundle over round S^2",
                 {"K0": 1.0, "L0": 1.0, "a": 1.0, "dt": 1e-3, "T": 0.3,
                  "tol": 1e-10},
                 ("trajectory.csv", [2, 3], "circle bundle fiber and base sizes")),
    "hopf-tduality": (_scenario_hopf_tduality, "flow/duality commutation",
                      {"K0": 1.0, "L0": 1.0, "a": 1.0, "dt": 0.01, "T": 0.4,
                       "tol": 1e-6},
                      ("commutation.csv", [4, 6], "dual fiber: direct vs flowed")),
    "hopf-bismut-flat": (_scenario_hopf_bismut_flat, "flat Bismut pair checks",
                         {"k": 1.0, "x": 1.0, "tol": 1e-10}, None),
    "torus-krf": (_scenario_torus_krf, "periodic potential flow",
                  {"N": 64, "amplitude": 0.1, "max_steps": 20000,
                   "rate_target": 1e-6, "wall_budget": 60.0},
                  ("monitors.csv", [2, 3], "potential flow rate bounds")),
    "torus-gkrf": (_scenario_torus_gkrf, "generalized potential flow",
                   {"N": 64, "amplitude": 0.1, "max_steps": 160, "tol": 1e-5},
                   ("monitors.csv", [5], "oscillation decay")),
    "courant-axioms": (_scenario_courant_axioms, "bracket axiom residuals",
                       {"seed": 0, "sections": 6, "tol": 1e-12}, None),
    "bianchi-suite": (_scenario_bianchi_suite, "curvature identity residuals",
                      {"seed": 0, "trials": 20, "tol": 1e-10}, None),
    "lambda-monotone": (_scenario_lambda_monotone, "lambda along flows",
                        {"dt": 1e-3, "T": 5.0, "stride": 10}, None),
}


def scenario_names():
    return list(_REGISTRY)


def run_scenario(name: str, overrides: dict | None = None,
                 out_root: str | None = None, tol: float | None = None) -> RunReport:
    """Run one scenario and write its artifacts under out_root/name."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown scenario {name!r}; try --list")
    func, _, defaults, plot = _REGISTRY[name]
    params = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ConfigError(f"scenario {name!r} has no parameter {key!r}")
        params[key] = value
    if tol is not None:
        if "tol" not in params:
            raise ConfigError(f"scenario {name!r} has no primary tolerance")
        params["tol"] = tol
    for key, value in params.items():
        if not np.isfinite(value):
            raise ConfigError(f"scenario {name!r} needs a finite {key}, got {value!r}")
    for key in ("dt", "T"):
        if key in params and not params[key] > 0:
            raise ConfigError(f"scenario {name!r} needs {key} > 0, got {params[key]!r}")
    for key in ("trials", "sections", "stride"):
        if key in params and not params[key] >= 1:
            raise ConfigError(f"scenario {name!r} needs {key} >= 1, got {params[key]!r}")
    if "T" in params:   # a run takes round(T / dt) steps, sampled every stride-th
        steps, least = round(params["T"] / params["dt"]), params.get("stride", 1)
        if steps < least:
            raise ConfigError(f"scenario {name!r} takes round(T / dt) = {steps} steps, needs "
                              f"at least {'stride = ' if 'stride' in params else ''}{least!r}")
    out_root = out_root or os.environ.get("GRFLAB_OUT", "runs")
    outdir = os.path.join(out_root, name)
    os.makedirs(outdir, exist_ok=True)
    rep = RunReport(scenario=name, outdir=outdir)
    t0 = time.time()
    func(params, rep)
    if plot is not None:
        _write_plot(rep, name.replace("-", "_"), *plot)
    rep.wall_time = time.time() - t0
    text = rep.to_text()   # report.txt lists the outputs before it, not itself
    with open(rep.output("report.txt"), "w") as fh:
        fh.write(text)
    return rep


def run_many(names, per_scenario_overrides=None, out_root=None) -> int:
    """Run several scenarios; returns the aggregate exit code."""
    worst = 0
    for name in names:
        overrides = (per_scenario_overrides or {}).get(name, {})
        try:
            rep = run_scenario(name, overrides, out_root)
        except ConfigError:
            raise
        except _NUMERICAL_FAILURES as exc:
            print(f"[{name}] numerical failure: {exc}", file=sys.stderr)
            worst = max(worst, 3)
            continue
        status = "ok" if rep.passed else "FAIL"
        print(f"[{name}] {status} ({rep.wall_time:.2f}s, "
              f"{sum(c.passed for c in rep.checks)}/{len(rep.checks)} checks)")
        for c in rep.checks:
            if not c.passed:
                print(f"    {c.name}: {c.value:.6e} vs {c.tol:.6e}")
        if not rep.passed:
            worst = max(worst, 1)
    return worst


def _parse_set(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            out[key.strip()] = float(raw)
        except ValueError:
            raise ConfigError(f"--set value for {key!r} must be numeric") from None
    return out


def _load_manifest(path: str):
    if not os.path.exists(path):
        raise ConfigError(f"manifest {path!r} does not exist")
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(path)
    if "run" not in cp or "scenarios" not in cp["run"]:
        raise ConfigError("manifest needs a [run] section with a scenarios key")
    names = [s.strip() for s in cp["run"]["scenarios"].split(",") if s.strip()]
    out_root = cp["run"].get("out", None)
    overrides = {}
    for name in names:
        if name in cp:
            overrides[name] = {k: float(v) for k, v in cp[name].items()}
    return names, overrides, out_root


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grflab", description="invariant generalized Ricci flow scenarios")
    parser.add_argument("--scenario", help="scenario name (see --list)")
    parser.add_argument("--all", action="store_true", help="run every scenario")
    parser.add_argument("--list", action="store_true", help="list scenarios")
    parser.add_argument("--manifest", help="INI manifest with [run] scenarios = ...")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a scenario parameter")
    parser.add_argument("--out", help="output root (default $GRFLAB_OUT or ./runs)")
    parser.add_argument("--tol", type=float,
                        help="override the scenario's primary tolerance")
    args = parser.parse_args(argv)

    try:
        if args.list:
            for name, (_, desc, defaults, _) in _REGISTRY.items():
                keys = ", ".join(f"{k}={v}" for k, v in defaults.items())
                print(f"{name:18s} {desc} [{keys}]")
            return 0
        if args.manifest:
            names, overrides, out_root = _load_manifest(args.manifest)
            return run_many(names, overrides, args.out or out_root)
        if args.all:
            return run_many(scenario_names(), None, args.out)
        if not args.scenario:
            parser.print_usage(sys.stderr)
            return 2
        overrides = _parse_set(args.set)
        rep = run_scenario(args.scenario, overrides, args.out, args.tol)
        status = "ok" if rep.passed else "FAIL"
        print(f"[{args.scenario}] {status} ({rep.wall_time:.2f}s)")
        for c in rep.checks:
            marker = "ok " if c.passed else "FAIL"
            print(f"  {marker} {c.name} = {c.value:.6e} (tol {c.tol:.6e})")
        return 0 if rep.passed else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
