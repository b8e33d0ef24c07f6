"""Layer timing for the torus PDE: one right-hand side, one RK2 step, a
run of each time stepper and one ground-state solve.

Times ``krf_rhs`` / ``gkrf_rhs`` called on a public grid, and one step of
``pde_integrate`` with each, at N = 32, 64, 128 and 256, and counts the
right-hand-side evaluations per step.  Runs each time stepper of
``pde_integrate`` (midpoint at its default 0.2 h^2, ETDRK4 at 10 h^2) over
one simulated time per N and reports right-hand-side evaluations and wall
time per unit of simulated time; at N = 64 it also reports each run's
relative error against midpoint at 0.05 h^2.  Times one ``lambda_eigen``
solve and the assembly of its sparse operator for fixed random, cos-well
and double-well potentials at N = 8, 12, 16, 32 and 64, and counts the LU
factorizations and LU solves of one untimed ground-state solve by
wrapping ``scipy.sparse.linalg.splu``.  Wall times are medians of repeats
and are not gates; the counts are deterministic.

    python3 tools/bench_pde_layer.py --label change
    python3 tools/bench_pde_layer.py --src ../parent/src --label parent

Each run merges its reading into ``--out`` (default ``BENCH_pde.json``)
under its label, through ``layer_harness.py``; when both ``parent`` and
``change`` are present the file also gets the speed-ups parent / change
per step and per ground-state solve, and the wall time per unit of
simulated time of the parent's midpoint over the change's fastest method.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layer_harness  # noqa: E402
from layer_harness import counting, median_s  # noqa: E402

SIZES = (32, 64, 128, 256)
# steps per timed integrate call (about 20-60 ms each); a right-hand-side
# sample times half as many calls
STEPS = {32: 400, 64: 200, 128: 60, 256: 20}
# ETDRK4 steps of 10 h^2 per run, so each run covers 10 h^2 times this
# (midpoint takes 50 steps of 0.2 h^2 for each)
RUN_STEPS = {32: 10, 64: 10, 128: 5, 256: 2}
DEFAULT_DT = {"midpoint": 0.2, "etdrk4": 10.0}   # each stepper's rows, in h^2
ERROR_SIZE = 64
GROUND_SIZES = (8, 12, 16, 32, 64)
FAMILIES = ("random", "cos_wells", "double_wells")
# ground-state solves per timed sample (about 10-60 ms each)
SOLVES = {8: 16, 12: 8, 16: 4, 32: 1, 64: 1}


def potential(family: str, N: int) -> np.ndarray:
    """A fixed potential of one of the three families on the N x N grid."""
    x = np.arange(N) * (2.0 * np.pi / N)
    X, Y = np.meshgrid(x, x, indexing="ij")
    if family == "random":
        return 100.0 * np.random.default_rng(N).uniform(-1.0, 1.0, (N, N))
    if family == "cos_wells":
        return 30.0 * (np.cos(2 * X + 0.4) + np.cos(3 * Y + 1.1))

    def well(cx, cy):
        dx, dy = np.angle(np.exp(1j * (X - cx))), np.angle(np.exp(1j * (Y - cy)))
        return np.exp(-(dx * dx + dy * dy) / 0.36)

    # two Gaussian wells half a period apart, depths 1e-4 apart
    return -300.0 * (well(1.0, 2.0) + (1.0 + 1e-4) * well(1.0 + np.pi, 2.0 + np.pi))


def measure_ground_states(pde, repeats: int) -> dict:
    out = {}
    for family in FAMILIES:
        for N in GROUND_SIZES:
            grid = pde.PeriodicGrid(potential(family, N))
            with counting(spla, "splu", "solve") as counts:
                lam, _ = pde.lambda_eigen(grid)
            solve_s = median_s(lambda: pde.lambda_eigen(grid), repeats,
                               number=SOLVES[N])
            assembly_s = median_s(lambda: pde._operator_matrix(grid),
                                  repeats, number=SOLVES[N])
            out[f"ground_{family}_N{N}"] = {
                "solve_us": solve_s * 1e6,
                "assembly_us": assembly_s * 1e6,
                "eigenvalue": lam,
                "factorizations_per_solve": counts["splu"],
                "lu_solves_per_solve": counts["solve"],
            }
    return out


def flow_grid(pde, N: int):
    """The N x N initial grid of every step and run row."""
    return pde.PeriodicGrid.from_function(
        lambda X, Y: 0.1 * np.sin(X) * np.sin(Y) + 0.05 * np.cos(2 * Y), N)


def measure_steps(pde, repeats: int) -> dict:
    out = {}
    for name in ("krf", "gkrf"):
        rhs = getattr(pde, f"{name}_rhs")
        for N in SIZES:
            grid = flow_grid(pde, N)
            steps = STEPS[N]
            calls = [0]

            def counted(g, rhs=rhs):
                calls[0] += 1
                return rhs(g)

            pde.pde_integrate(grid, steps=steps, rhs=counted)
            rhs_s = median_s(lambda: rhs(grid), repeats, number=steps // 2)
            run_s = median_s(lambda: pde.pde_integrate(grid, steps=steps, rhs=rhs),
                             repeats)
            out[f"{name}_N{N}"] = {
                "rhs_us": rhs_s * 1e6,
                "step_us": run_s / steps * 1e6,
                "steps": steps,
                "rhs_evals": calls[0],
                "rhs_evals_per_step": calls[0] / steps,
            }
    return out


def measure_runs(pde, repeats: int) -> dict:
    """One row per rhs, method and N: a run over T = 10 h^2 RUN_STEPS[N]."""
    out = {}
    for name in ("krf", "gkrf"):
        rhs = getattr(pde, f"{name}_rhs")
        for N in SIZES:
            grid = flow_grid(pde, N)
            h2 = grid.h * grid.h
            reference = None
            if N == ERROR_SIZE:
                fine = pde.pde_integrate(grid, dt=0.05 * h2, steps=200 * RUN_STEPS[N],
                                         rhs=rhs).final.values
                reference = (fine, float(np.max(np.abs(fine))))
            h = grid.min_active_spacing()
            for method, dt_h2 in DEFAULT_DT.items():
                steps = RUN_STEPS[N] * round(10.0 / dt_h2)
                dt = dt_h2 * h * h   # for midpoint, the default dt to the bit
                calls = [0]

                def counted(g, rhs=rhs):
                    calls[0] += 1
                    return rhs(g)

                traj = pde.pde_integrate(grid, dt=dt, steps=steps, rhs=counted)
                sim_time = float(traj.times[-1])
                run_s = median_s(lambda: pde.pde_integrate(
                    grid, dt=dt, steps=steps, rhs=rhs), repeats)
                row = {
                    "dt": traj.dt,
                    "steps": steps,
                    "sim_time": sim_time,
                    "rhs_evals": calls[0],
                    "rhs_evals_per_time": calls[0] / sim_time,
                    "wall_s_per_time": run_s / sim_time,
                }
                if reference is not None:
                    fine, scale = reference
                    row["rel_error_vs_fine_midpoint"] = float(
                        np.max(np.abs(traj.final.values - fine)) / scale)
                out[f"run_{name}_{method}_N{N}"] = row
    return out


def measure(grflab, repeats: int) -> dict:
    return {**measure_steps(grflab.pde, repeats),
            **measure_runs(grflab.pde, repeats),
            **measure_ground_states(grflab.pde, repeats)}


def speedups(before: dict, after: dict) -> dict:
    """Per step and per solve parent / change, and per run the parent's
    midpoint over the change's fastest method."""
    out = {f"{field}_speedup": {k: before[k][f"{field}_us"] / after[k][f"{field}_us"]
                                for k in after if k in before and f"{field}_us" in after[k]}
           for field in ("step", "solve")}
    out["run_speedup"] = {}
    for name in ("krf", "gkrf"):
        for N in SIZES:
            base = before.get(f"run_{name}_midpoint_N{N}")
            runs = [after[key]["wall_s_per_time"] for key in
                    (f"run_{name}_{method}_N{N}" for method in DEFAULT_DT)
                    if key in after]
            if base and runs:
                out["run_speedup"][f"{name}_N{N}"] = base["wall_s_per_time"] / min(runs)
    return out


def summary(row: dict) -> str:
    if "sim_time" in row:
        error = row.get("rel_error_vs_fine_midpoint")
        return (f"{row['rhs_evals_per_time']:.1f} rhs per unit time, "
                f"{row['wall_s_per_time']:.3f} s per unit time"
                + ("" if error is None else f", error {error:.2e}"))
    if "step_us" in row:
        return (f"rhs {row['rhs_us']:.1f} us, step {row['step_us']:.1f} us, "
                f"{row['rhs_evals_per_step']:.4f} rhs/step")
    return (f"solve {row['solve_us']:.1f} us, assembly {row['assembly_us']:.1f} us, "
            f"{row['factorizations_per_solve']} LU, {row['lu_solves_per_solve']} LU solves")


def main(argv=None) -> int:
    return layer_harness.main(argv, __doc__, "BENCH_pde.json", measure, speedups, summary)


if __name__ == "__main__":
    sys.exit(main())
