"""Run the benchmark on several seeds and report the spread of each metric.

    python3 benchmarks/spread.py --workloads flow-small torus --seeds 1-10

For every workload and end-to-end metric it prints the median and the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median, next to the metric's bound.  Runs are
sequential, one process at a time.  ``--out FILE`` also records every
result line and the summaries in FILE as JSON, merged with what FILE
already holds under ``<workload>/trace<t>``; ``baseline.json`` is one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values),
            "iqr_frac": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write all values to this JSON file")
    args = parser.parse_args(argv)

    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    out = Path(args.out) if args.out else None
    record = json.loads(out.read_text()) if out and out.exists() else {}
    worst = 0.0
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        entry = {"seeds": args.seeds, "seconds": args.seconds, "results": runs}
        record.setdefault(workload, {})[f"trace{args.trace}"] = entry
        fails = ", ".join(f"{r['failed']}/{r['attempted']}" for r in runs)
        print(f"{workload}: correct={all(r['correct'] for r in runs)} "
              f"failed/attempted: {fails}")
        if args.trace:
            continue
        entry["summary"] = {}
        for name, bound in bounds.items():
            s = entry["summary"][name] = summarize(
                [r["metrics"][name]["value"] for r in runs])
            flag = "" if name == "setup_s" or s["iqr_frac"] < bound / 3 else "  <-- spread"
            if name != "setup_s":
                worst = max(worst, s["iqr_frac"] / bound)
            print(f"  {name:12s} median {s['median']:12.5g}  iqr/median "
                  f"{s['iqr_frac']:.4f}  bound {bound}{flag}")
    if out:
        out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
