"""Layer timing for the ansatz ODE paths and the invariant-data checks.

Times one ``rk4_path`` step of every scenario ODE (the round sphere with
torsion, the hyperbolic expansion, the neck, the diagonal SU(2) Milnor
flow, the circle bundle and its Buscher dual), one ``ThreeForm`` check at
n = 3, 4 and 6, one ``lambda_homogeneous`` call given a raw array and
given a ``ThreeForm``, and one ``courant_axiom_report`` over six sections
as the ``courant-axioms`` scenario builds them.  Counts the right-hand-side
calls per RK4 step and the ``np.allclose`` calls of one report; where the
checks have a cheaper first pass, those calls are its fallbacks.  Wall
times are medians of repeats and are not gates; the counts are
deterministic.

    python3 tools/bench_ode_layer.py --label change
    python3 tools/bench_ode_layer.py --src ../parent/src --label parent

Each run merges its reading into ``--out`` (default ``BENCH_ode.json``)
under its label, through ``layer_harness.py``; when both ``parent`` and
``change`` are present the file also gets the speed-ups parent / change
of every timed row.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layer_harness  # noqa: E402
from layer_harness import counting, median_s  # noqa: E402

# steps per timed rk4_path call (about 10-40 ms each)
STEPS = 2000
THREE_FORM_SIZES = (3, 4, 6)
SECTIONS = 6
TIMED = ("step_us", "check_us", "call_us", "report_us")


def scenario_odes(flow, tduality) -> dict:
    """name -> (f, y0, dt) at the CLI defaults, with the right-hand sides
    written as the CLI writes them."""
    return {
        "sphere": (lambda t, y: (flow.sphere_ode_rhs(y[0], 2.0),), [1.0], 1e-3),
        "hyperbolic": (lambda t, y: (flow.hyperbolic_ode_rhs(y[0]),), [1.0], 1e-3),
        "neck": (lambda t, y: flow.neck_ode_rhs(y), [1.0, 1.0], 1e-4),
        "su2_milnor": (lambda t, y: flow.milnor_su2_rhs(y, 1.0), [0.3, 0.5, 0.9], 1e-3),
        "circle_bundle": (lambda t, y: flow.circle_bundle_rhs(y[0], y[1], 1.0),
                          [1.0, 1.0], 1e-3),
        "circle_bundle_dual": (
            lambda t, y: tduality.circle_bundle_dual_rhs(y[0], y[1], 1.0),
            [1.0, 1.0], 1e-3),
    }


def measure_odes(flow, tduality, repeats: int) -> dict:
    out = {}
    for name, (f, y0, dt) in scenario_odes(flow, tduality).items():
        calls = [0]

        def counted(t, y, f=f):
            calls[0] += 1
            return f(t, y)

        flow.rk4_path(counted, y0, dt, STEPS)
        step_s = median_s(lambda: flow.rk4_path(f, y0, dt, STEPS), repeats) / STEPS
        out[f"ode_{name}"] = {
            "step_us": step_s * 1e6,
            "steps": STEPS,
            "rhs_calls": calls[0],
            "rhs_calls_per_step": calls[0] / STEPS,
        }
    return out


def measure_checks(courant, flow, repeats: int) -> dict:
    out = {}
    for n in THREE_FORM_SIZES:
        a = courant.ThreeForm.basis(n, 0, 1, 2, 1.0).components
        out[f"three_form_n{n}"] = {
            "check_us": median_s(lambda: courant.ThreeForm(a), repeats, 500) * 1e6}
    frame = courant.milnor_su2_frame()
    g = np.diag([0.3, 0.5, 0.9])
    form = courant.ThreeForm.basis(3, 0, 1, 2, 1.0)
    for kind, H in (("array", form.components), ("form", form)):
        out[f"lambda_homogeneous_{kind}"] = {"call_us": median_s(
            lambda: flow.lambda_homogeneous(frame, g, H), repeats, 200) * 1e6}

    rng = np.random.default_rng(0)
    sections = [courant.GeneralizedVector(rng.standard_normal(4), rng.standard_normal(4))
                for _ in range(SECTIONS)]
    frame4, H4 = courant.su2_r_frame(), courant.ThreeForm.basis(4, 0, 1, 2, -1.0)
    with counting(np, "allclose") as counts:
        courant.courant_axiom_report(frame4, H4, sections)
    out[f"courant_axiom_report_{SECTIONS}"] = {
        "report_us": median_s(lambda: courant.courant_axiom_report(frame4, H4, sections),
                              repeats) * 1e6,
        "allclose_fallbacks": counts["allclose"],
    }
    return out


def measure(grflab, repeats: int) -> dict:
    return {**measure_odes(grflab.flow, grflab.tduality, repeats),
            **measure_checks(grflab.courant, grflab.flow, repeats)}


def speedups(before: dict, after: dict) -> dict:
    return {"speedup": {k: before[k][field] / after[k][field]
                        for k in after if k in before
                        for field in TIMED if field in after[k]}}


def summary(row: dict) -> str:
    cells = [f"{field[:-3]} {row[field]:.2f} us" for field in TIMED if field in row]
    if "rhs_calls_per_step" in row:
        cells.append(f"{row['rhs_calls_per_step']:.4f} rhs/step")
    if "allclose_fallbacks" in row:
        cells.append(f"{row['allclose_fallbacks']} allclose fallbacks")
    return ", ".join(cells)


def main(argv=None) -> int:
    return layer_harness.main(argv, __doc__, "BENCH_ode.json", measure, speedups, summary)


if __name__ == "__main__":
    sys.exit(main())
