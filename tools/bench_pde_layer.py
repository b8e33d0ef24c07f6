"""Layer timing for the torus PDE: one right-hand side, one RK2 step and
one ground-state solve.

Times ``krf_rhs`` / ``gkrf_rhs`` called on a public grid, and one step of
``pde_integrate`` with each, at N = 32, 64, 128 and 256, and counts the
right-hand-side evaluations per step.  Times one ``lambda_eigen`` solve and
the assembly of its sparse operator for fixed random, cos-well and
double-well potentials at N = 8, 12, 16, 32 and 64, and counts the LU
factorizations and LU solves of one untimed ground-state solve by
wrapping ``scipy.sparse.linalg.splu``.  Wall times are medians of repeats
and are not gates; the counts are deterministic.

    python3 tools/bench_pde_layer.py --label change
    python3 tools/bench_pde_layer.py --src ../parent/src --label parent

Each run merges its reading into ``--out`` (default ``BENCH_pde.json``)
under its label, so two checkouts measured by the same script land in one
file; when both ``parent`` and ``change`` are present the file also gets
the speed-ups parent / change per step and per ground-state solve.
"""

from __future__ import annotations

import argparse
import contextlib
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


def measure_steps(pde, repeats: int) -> dict:
    out = {}
    for name in ("krf", "gkrf"):
        rhs = getattr(pde, f"{name}_rhs")
        for N in SIZES:
            grid = pde.PeriodicGrid.from_function(
                lambda X, Y: 0.1 * np.sin(X) * np.sin(Y) + 0.05 * np.cos(2 * Y), N)
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
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for key, row in reading["layers"].items():
        if "step_us" in row:
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
