"""Layer timing for the torus PDE: one right-hand side and one RK2 step.

Times ``krf_rhs`` / ``gkrf_rhs`` called on a public grid, and one step of
``pde_integrate`` with each, at N = 32, 64, 128 and 256, and counts the
right-hand-side evaluations per step.  Wall times are medians of repeats
and are not gates; the evaluation count is deterministic.

    python3 tools/bench_pde_layer.py --label change
    python3 tools/bench_pde_layer.py --src ../parent/src --label parent

Each run merges its reading into ``--out`` (default ``BENCH_pde.json``)
under its label, so two checkouts measured by the same script land in one
file; when both ``parent`` and ``change`` are present the file also gets
the per-step speed-up parent / change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (32, 64, 128, 256)
# steps per timed integrate call (about 20-60 ms each); a right-hand-side
# sample times half as many calls
STEPS = {32: 400, 64: 200, 128: 60, 256: 20}


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


def measure(pde, repeats: int) -> dict:
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
        "layers": measure(pde, args.repeats),
    }
    path = Path(args.out)
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("readings", {})[args.label] = reading
    readings = data["readings"]
    if "parent" in readings and "change" in readings:
        before, after = readings["parent"]["layers"], readings["change"]["layers"]
        data["step_speedup"] = {k: before[k]["step_us"] / after[k]["step_us"]
                                for k in after if k in before}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for key, row in reading["layers"].items():
        print(f"{args.label} {key}: rhs {row['rhs_us']:.1f} us, "
              f"step {row['step_us']:.1f} us, "
              f"{row['rhs_evals_per_step']:.4f} rhs/step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
