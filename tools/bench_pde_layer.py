"""Layer timing for the torus PDE: one right-hand side, one RK2 step, a
run of each time stepper and one ground-state solve.

Times ``krf_rhs`` / ``gkrf_rhs`` called on a public grid, and one step of
``pde_integrate`` with each, at N = 32, 64, 128 and 256, and counts the
right-hand-side evaluations per step.  Runs each time stepper of
``pde_integrate`` (midpoint at its default 0.2 h^2, ETDRK4 at 10 h^2) over
one simulated time per N and reports right-hand-side evaluations and wall
time per unit of simulated time; at N = 64 it also reports each run's
relative error against midpoint at 0.05 h^2.  A package whose
``pde_integrate`` still takes ``method`` is also passed
``method="etdrk4"``; one with neither that parameter nor a trajectory
``method`` predates ETDRK4 and gets midpoint rows only.  Times one
``lambda_eigen`` solve and the assembly of its sparse operator for fixed
random, cos-well and double-well potentials at N = 8, 12, 16, 32 and 64,
and counts the LU factorizations and LU solves of one untimed
ground-state solve by wrapping ``scipy.sparse.linalg.splu``.  Wall times are medians of repeats
and are not gates; the counts are deterministic.

    python3 tools/bench_pde_layer.py --label change
    python3 tools/bench_pde_layer.py --src ../parent/src --label parent

Each run merges its reading into ``--out`` (default ``BENCH_pde.json``)
under its label, so two checkouts measured by the same script land in one
file; when both ``parent`` and ``change`` are present the file also gets
the speed-ups parent / change per step and per ground-state solve, and
the wall time per unit of simulated time of the parent's midpoint over
the change's fastest method.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

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


def _median_s(fn, repeats: int, number: int = 1) -> float:
    """Median over ``repeats`` samples of the time per call of ``fn``,
    each sample timing ``number`` calls in a row."""
    fn()  # warm caches and the allocator
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


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


@contextlib.contextmanager
def counting_splu():
    """Count the calls of ``scipy.sparse.linalg.splu`` and of ``solve`` on
    the factors it returns, for code that calls it through the module."""
    counts = {"factorizations": 0, "lu_solves": 0}
    splu = spla.splu

    class CountedLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, *args, **kwargs):
            counts["lu_solves"] += 1
            return self.lu.solve(*args, **kwargs)

    def counted(*args, **kwargs):
        counts["factorizations"] += 1
        return CountedLU(splu(*args, **kwargs))

    spla.splu = counted
    try:
        yield counts
    finally:
        spla.splu = splu


def measure_ground_states(pde, repeats: int) -> dict:
    out = {}
    for family in FAMILIES:
        for N in GROUND_SIZES:
            grid = pde.PeriodicGrid(potential(family, N))
            with counting_splu() as counts:
                lam, _ = pde.lambda_eigen(grid)
            solve_s = _median_s(lambda: pde.lambda_eigen(grid), repeats,
                                number=SOLVES[N])
            # the CSC matrix the solver factorizes, from either assembly
            assembly_s = _median_s(lambda: pde._operator_matrix(grid).tocsc(),
                                   repeats, number=SOLVES[N])
            out[f"ground_{family}_N{N}"] = {
                "solve_us": solve_s * 1e6,
                "assembly_us": assembly_s * 1e6,
                "eigenvalue": lam,
                "factorizations_per_solve": counts["factorizations"],
                "lu_solves_per_solve": counts["lu_solves"],
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
            rhs_s = _median_s(lambda: rhs(grid), repeats, number=steps // 2)
            run_s = _median_s(lambda: pde.pde_integrate(grid, steps=steps, rhs=rhs),
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
    # dt picks ETDRK4; earlier packages also need ``method``, and those
    # older than ETDRK4 have neither it nor a trajectory ``method``
    has_method = "method" in inspect.signature(pde.pde_integrate).parameters
    methods = (("midpoint", "etdrk4")
               if has_method or hasattr(pde.PdeTrajectory, "method")
               else ("midpoint",))
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
            for method in methods:
                steps = RUN_STEPS[N] * round(10.0 / DEFAULT_DT[method])
                kwargs = {}
                if method == "etdrk4":
                    h = grid.min_active_spacing()
                    kwargs["dt"] = DEFAULT_DT[method] * h * h
                    if has_method:
                        kwargs["method"] = method
                calls = [0]

                def counted(g, rhs=rhs):
                    calls[0] += 1
                    return rhs(g)

                traj = pde.pde_integrate(grid, steps=steps, rhs=counted, **kwargs)
                sim_time = float(traj.times[-1])
                run_s = _median_s(lambda: pde.pde_integrate(
                    grid, steps=steps, rhs=rhs, **kwargs), repeats)
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


def main(argv=None) -> int:
    root = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(root / "src"),
                    help="directory that holds the grflab package to measure")
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=str(root / "BENCH_pde.json"))
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from grflab import pde

    reading = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "layers": {**measure_steps(pde, args.repeats),
                   **measure_runs(pde, args.repeats),
                   **measure_ground_states(pde, args.repeats)},
    }
    path = Path(args.out)
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("readings", {})[args.label] = reading
    readings = data["readings"]
    if "parent" in readings and "change" in readings:
        before, after = readings["parent"]["layers"], readings["change"]["layers"]
        for field in ("step", "solve"):
            data[f"{field}_speedup"] = {
                k: before[k][f"{field}_us"] / after[k][f"{field}_us"]
                for k in after if k in before and f"{field}_us" in after[k]}
        data["run_speedup"] = {}
        for name in ("krf", "gkrf"):
            for N in SIZES:
                base = before.get(f"run_{name}_midpoint_N{N}")
                runs = [after[key]["wall_s_per_time"] for key in
                        (f"run_{name}_{method}_N{N}" for method in DEFAULT_DT)
                        if key in after]
                if base and runs:
                    data["run_speedup"][f"{name}_N{N}"] = base["wall_s_per_time"] / min(runs)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for key, row in reading["layers"].items():
        if "sim_time" in row:
            error = row.get("rel_error_vs_fine_midpoint")
            print(f"{args.label} {key}: {row['rhs_evals_per_time']:.1f} rhs per unit time, "
                  f"{row['wall_s_per_time']:.3f} s per unit time"
                  + ("" if error is None else f", error {error:.2e}"))
        elif "step_us" in row:
            print(f"{args.label} {key}: rhs {row['rhs_us']:.1f} us, "
                  f"step {row['step_us']:.1f} us, "
                  f"{row['rhs_evals_per_step']:.4f} rhs/step")
        else:
            print(f"{args.label} {key}: solve {row['solve_us']:.1f} us, "
                  f"assembly {row['assembly_us']:.1f} us, "
                  f"{row['factorizations_per_solve']} LU, "
                  f"{row['lu_solves_per_solve']} LU solves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
