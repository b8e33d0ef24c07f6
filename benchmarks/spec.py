"""Names, units and bounds of every metric the benchmark reports.

This module is the single source of ``BENCHMARK.json``: ``run.py
--write-spec`` renders it, and the smoke tests check that the checked-in
file still matches.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "benchmarks/run.py"]
PATHS = ["benchmarks"]
RUN_SECONDS = 20

# Why each workload exists; the layer each one stresses is listed in README.md.
WORKLOADS = [
    ("scenarios", "the 13 packaged CLI scenarios at default parameters, as "
                  "grflab --all users run them; the only path through cli, "
                  "tduality, textio and the writers"),
    ("flow-small", "many short n=3/n=4 integrate runs with lambda_series and "
                   "to_csv; per-call dispatch and per-state recomputation dominate"),
    ("flow-wide", "fewer n=6/n=8 integrate runs without post-processing; the "
                  "unoptimized curvature contractions dominate"),
    ("torus", "torus PDE runs at N=64..256 plus ground-state solves at "
              "N=8..64 over three potential families; flow and geometry idle"),
]

# (name, unit, better, bound).  On a shared 2-core virtual machine the
# interquartile spread over ten seeds stays under 5 % in quiet periods but
# reached 13 %, and whole sets of runs drifted by 11 %, while neighbours
# were busy; the timing bounds leave room for that.  setup_s carries the
# largest bound, as only its drift is gated, not its spread.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_tail_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

TRACED_FUNCTIONS = {
    "courant": ("exterior_d_invariant", "courant_axiom_report",
                "dorfman_invariant"),
    "geometry": ("levi_civita", "riemann", "connection_ricci", "ricci",
                 "scalar_curvature", "h_squared", "h_norm2",
                 "covariant_derivative", "codifferential",
                 "bismut_connection", "bianchi_suite", "generalized_ricci"),
    "flow": ("integrate", "FlowTrajectory.lambda_series",
             "FlowTrajectory.to_csv", "lambda_homogeneous", "grf_rhs",
             "rk4_path"),
    "pde": ("krf_rhs", "gkrf_rhs", "pde_integrate", "lambda_eigen",
            "PdeTrajectory.to_csv"),
    "tduality": ("flow_commutation_check", "einstein_exchange_check",
                 "buscher_dual"),
    "textio": ("dump_fields", "parse_fields"),
}

SCENARIO_NAMES = ("sphere", "hyperbolic", "neck", "su2-milnor",
                  "product-s3s3", "hopf-rym", "hopf-tduality",
                  "hopf-bismut-flat", "torus-krf", "torus-gkrf",
                  "courant-axioms", "bianchi-suite", "lambda-monotone")

FLOW_STATUSES = ("completed", "fixed_point", "metric_floor",
                 "curvature_blowup", "nonfinite")

# One counter per verification check; see verify.py for what each compares.
CHECKS = ("raised", "repeat", "flow.initial_oracle", "flow.first_step_oracle",
          "flow.postprocess", "flow.milnor", "flow.block",
          "pde.max_principle", "pde.ground_state_value",
          "pde.ground_state_positive", "scenario.passed")

# Failures of these checks are known wrong answers of the program (the
# ground-state solver can return an excited state).  They count in
# ``failed`` but do not make a run incorrect.
KNOWN_DEFECT_CHECKS = ("pde.ground_state_value", "pde.ground_state_positive")


def traced_names() -> list[str]:
    return [f"{mod}.{qual}" for mod, quals in TRACED_FUNCTIONS.items()
            for qual in quals]


def per_layer() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order."""
    out = []
    for name in traced_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    out += [("flow.rk4_steps", "count"), ("flow.rhs_evals", "count"),
            ("flow.levi_civita_per_state", "count/state"),
            ("flow.halvings", "count")]
    out += [(f"flow.status.{s}", "count") for s in FLOW_STATUSES]
    out += [("flow.final_rhs_norm_stale", "count"),
            ("kernel.einsum.calls", "count"), ("kernel.einsum.flops", "flop"),
            ("kernel.tensordot.calls", "count"),
            ("kernel.tensordot.flops", "flop"),
            ("kernel.flops_per_rhs", "flop/rhs"),
            ("pde.steps", "count"), ("pde.rhs_evals", "count"),
            ("pde.bytes_per_step", "B/step"),
            ("pde.lambda_eigen.factorizations", "count"),
            ("pde.lambda_eigen.iterations", "count"),
            ("pde.lambda_eigen.wrong", "count")]
    out += [(f"cli.run_scenario.{s}.ms", "ms") for s in SCENARIO_NAMES]
    out += [("cli.bytes_written", "B"), ("trace.overhead_frac", "fraction")]
    out += [(f"verify.{c}.failed", "count") for c in CHECKS]
    return out


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        # Fewer calls, less time, fewer flops and fewer failures are better.
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in per_layer()],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
