"""grflab benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload flow-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src`` and
the oracles from ``tests/oracles.py``.  With ``--trace 0`` the run times
the workload with tracing off and prints the end-to-end metrics; with
``--trace 1`` it runs an untraced and a traced pass and prints the
per-layer metrics.  Every output is checked outside the timed region.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give every metric as ``name = value unit`` and say what ran, on what and
with which inputs.  Details (inputs, environment, every counter, the
spans of traced runs) go to ``.bench_out/``.

``--write-spec`` writes ``BENCHMARK.json`` from ``spec.py`` and exits.
"""

from __future__ import annotations

import os

# One thread for every BLAS / OpenMP pool, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spec  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
PACKAGE_MODULES = ("courant", "geometry", "flow", "pde", "tduality",
                   "textio", "cli")


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def import_package():
    """Import grflab afresh from ``src`` (import time is part of set-up)."""
    for name in [m for m in sys.modules if m == "grflab" or m.startswith("grflab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("grflab")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "grflab":
        raise SetupError(f"grflab was imported from {pkg.__file__}, not src/")
    return types.SimpleNamespace(**{m: importlib.import_module(f"grflab.{m}")
                                    for m in PACKAGE_MODULES})


def import_oracles():
    """tests/oracles.py, loaded read-only under a name of its own."""
    loader_spec = importlib.util.spec_from_file_location(
        "bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(module)
    return module


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "cpu": cpu,
            "caches_per_core": workloads.cache_sizes()}


def tail_percentile(samples):
    """(value, percentile, count): the highest percentile with at least ten
    samples beyond it, over ``count`` samples; the maximum when count < 11."""
    xs = sorted(samples)
    i = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


class Run:
    """One benchmark run: set-up, passes over the op list, verification."""

    def __init__(self, workload, seed, seconds, smoke, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.scale, self.passes = workload.plan(seconds, smoke)
        self.op_times = []          # per untraced pass, per op, in seconds
        self.pass_times = {False: [], True: []}   # by traced
        self.fingerprints = None
        self.results = None         # outputs of the first pass
        self.attempted = 0
        self.mismatched = 0         # op runs whose output differed from pass 1

    def setup(self, oracles) -> float:
        """Median time of several set-ups; keeps the last one's package and ops."""
        times = []
        for k in range(1 if self.smoke else SETUP_REPEATS):
            warm_dir = self.tmp / f"setup{k}"
            warm_dir.mkdir()
            start = time.perf_counter()
            gl = import_package()
            rng = np.random.default_rng(
                [self.seed, list(workloads.WORKLOADS).index(self.workload.name)])
            ops = self.workload.build(rng, self.scale, self.smoke, oracles)
            workloads.run_op(self.workload.warmup(ops), gl, str(warm_dir), -1)
            times.append(time.perf_counter() - start)
        self.gl, self.ops = gl, ops
        return statistics.median(times)

    def one_pass(self, traced: bool = False):
        # Every pass writes into a fresh directory: on ext4, overwriting a
        # file forces a synchronous flush that would dominate small ops.
        pass_dir = self.tmp / f"pass{self.attempted // len(self.ops)}"
        pass_dir.mkdir()
        results, times = [], []
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            try:
                res = workloads.run_op(op, self.gl, str(pass_dir), i)
            except Exception as exc:  # an op failure is a result to count
                exc.trace = traceback.format_exc()
                res = exc
            times.append(time.perf_counter() - t0)
            results.append(res)
        self.pass_times[traced].append(time.perf_counter() - start)
        if not traced:
            self.op_times.append(times)
        prints = [workloads.fingerprint(op, r) for op, r in zip(self.ops, results)]
        if self.fingerprints is None:
            self.fingerprints, self.results = prints, results
        else:
            self.mismatched += sum(a != b for a, b in zip(prints, self.fingerprints))
            shutil.rmtree(pass_dir)
        self.attempted += len(self.ops)

    def verify(self, oracles):
        """(checks, failed op runs, correct, tracebacks) of the first pass's
        outputs; a failure counts once for every pass that repeated it."""
        checks = verify.Checks()
        failed_ops = 0
        errors = []
        for op, res in zip(self.ops, self.results):
            if isinstance(res, BaseException):
                errors.append(res.trace)
            failed_ops += not verify.verify_op(op, res, self.gl, oracles, checks)
        checks.checked["repeat"] += self.attempted - len(self.ops)
        checks.failed["repeat"] += self.mismatched
        failed = failed_ops * (self.attempted // len(self.ops)) + self.mismatched
        return checks, failed, verify.unexpected_failures(checks) == 0, errors

    def ms_by_class(self) -> dict:
        """Median untraced time of the ops of each class, in ms."""
        by_class = {}
        for times in self.op_times:
            for op, t in zip(self.ops, times):
                by_class.setdefault(op.label, []).append(t * 1e3)
        return {k: statistics.median(v) for k, v in sorted(by_class.items())}

    def measured_inputs(self) -> dict:
        """Input properties that show only in the program's answers."""
        flows = [(op, r) for op, r in zip(self.ops, self.results)
                 if op.kind == "flow" and not isinstance(r, BaseException)]
        if not flows:
            return {}
        statuses = {}
        halving = 0
        for op, r in flows:
            statuses[r.traj.status] = statuses.get(r.traj.status, 0) + 1
            steps = np.diff(np.asarray(r.traj.times, dtype=float))
            halving += bool(np.any(steps < 0.75 * op.args["config"]["dt"]))
        return {"status_share": {k: v / len(flows) for k, v in statuses.items()},
                "early_stop_share": 1.0 - statuses.get("completed", 0) / len(flows),
                "halving_share": halving / len(flows)}


def timed_run(run: Run, setup_s: float):
    """End-to-end metrics over ``run.passes`` untraced passes."""
    for _ in range(run.passes):
        run.one_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times_ms = [t * 1e3 for times in run.op_times for t in times]
    tail, pct, count = tail_percentile(times_ms)
    metrics = {"setup_s": setup_s,
               "wall_s": statistics.median(run.pass_times[False]),
               "op_p50_ms": statistics.median(times_ms),
               "op_tail_ms": tail,
               "peak_rss_mb": peak_rss_mb}
    notes = [f"op_tail_ms is p{pct:.1f} of {count} op runs"]
    return metrics, {"op_tail": {"percentile": pct, "op_runs": count},
                     "op_ms_by_class": run.ms_by_class()}, notes


def traced_run(run: Run):
    """Per-layer metrics from alternating untraced and traced passes."""
    stages = tracer.self_check(lambda stage: _self_check_run(run.gl, run.tmp, stage))
    tr = tracer.Tracer()
    per_pass = []
    for _ in range(max(1, run.passes // 2)):
        run.one_pass()
        tr.reset()
        with tr:
            run.one_pass(traced=True)
        per_pass.append(tr.layer_metrics())
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    names = [op.args.get("name") for op in run.ops]
    for scenario in spec.SCENARIO_NAMES:
        ms = ([times[names.index(scenario)] * 1e3 for times in run.op_times]
              if scenario in names else [0.0])
        metrics[f"cli.run_scenario.{scenario}.ms"] = statistics.median(ms)
    root = run.tmp / "pass0" / "scenarios"
    metrics["cli.bytes_written"] = sum(
        p.stat().st_size for p in root.rglob("*") if p.is_file()) if root.exists() else 0
    metrics["trace.overhead_frac"] = (statistics.median(run.pass_times[True])
                                      / statistics.median(run.pass_times[False]) - 1.0)
    lc = "/".join(str(calls.get("geometry.levi_civita", 0)) for calls in stages.values())
    notes = [f"tracer self-check matches sys.setprofile; levi_civita calls after "
             f"{'/'.join(stages)}: {lc}"]
    return metrics, {"self_check": stages, "spans": tr.spans()}, notes


def _self_check_run(gl, tmp: Path, stage):
    """A fixed 10-step n = 3 run, then its lambda series and CSV."""
    frame = gl.courant.LieFrame(workloads.milnor_constants())
    state = gl.flow.FlowState(np.diag([0.3, 0.5, 0.9]),
                              workloads.basis_three_form(3, 0, 1, 2))
    traj = gl.flow.integrate(frame, state, gl.flow.FlowConfig(dt=1e-2, steps=10))
    stage("integrate")
    traj.lambda_series()
    stage("lambda_series")
    traj.to_csv(str(tmp / "self-check.csv"))
    stage("to_csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the tests")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.render())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "grflab" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"benchmark: {ROOT} holds no src/grflab package or "
              "tests/oracles.py; run it from a grflab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = ROOT / ".bench_out"
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
              args.smoke, out_dir / f"tmp-{os.getpid()}")
    try:
        run.tmp.mkdir(parents=True)
        oracles = import_oracles()
        setup_s = run.setup(oracles)
        if args.trace:
            metrics, details, notes = traced_run(run)
        else:
            metrics, details, notes = timed_run(run, setup_s)
        checks, failed, correct, errors = run.verify(oracles)
    except (SetupError, tracer.TracerError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    if args.trace:
        metrics.update({f"verify.{c}.failed": checks.failed[c] for c in spec.CHECKS})
        for name in ("flow.final_rhs_norm_stale", "pde.lambda_eigen.wrong"):
            metrics[name] = checks.counters[name]

    units = (dict(spec.per_layer()) if args.trace
             else {n: u for n, u, _, _ in spec.END_TO_END})
    inputs = dict(run.workload.describe(run.ops), **run.measured_inputs())
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, smoke=args.smoke, passes=run.passes,
        environment=environment(), inputs=inputs, metrics=metrics,
        attempted=run.attempted, failed=failed, correct=correct,
        checks={c: {"checked": checks.checked[c], "failed": checks.failed[c]}
                for c in spec.CHECKS},
        counters=dict(checks.counters), errors=errors[:5])
    report = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(details, default=str))

    print(f"# grflab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={run.passes}")
    print("# environment: " + json.dumps(details["environment"]))
    print("# inputs: " + json.dumps(inputs, default=str))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"fail_frac = {failed / run.attempted!r} "
          f"({failed} of {run.attempted} op runs)")
    for note in notes:
        print(f"# {note}")
    for c in spec.CHECKS:
        if checks.checked[c]:
            print(f"# check {c}: {checks.checked[c]} checked, "
                  f"{checks.failed[c]} failed")
    for name, value in sorted(checks.counters.items()):
        print(f"# known defect {name} = {value}")
    for err in errors[:3]:
        print("# op raised: " + err.strip().splitlines()[-1])
    print(f"# details: {report.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed,
                      "metrics": {n: {"value": metrics[n], "unit": u}
                                  for n, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
