"""The benchmark's workloads: seeded inputs and the ops that run them.

An op is one scenario, one flow trajectory, one torus PDE run or one
ground-state solve.  Inputs are generated here from the workload seed
with numpy and the loop-based oracles; the package receives only the
generated arrays.  Each workload has a fixed list of ops; a run repeats
the list ``passes`` times, interleaving the repeats of every op.

Sizes are set from ``--seconds`` so that the passes of one run take about
that long on a 2-core AMD EPYC virtual machine at the commit that defined the
benchmark.  The amount of work depends only on the seed and ``--seconds``,
never on how fast the program is, so two commits do identical work.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spec


@dataclass
class Op:
    kind: str          # "flow", "pde", "ground_state" or "scenario"
    label: str         # class of the op inside its workload
    args: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# frames and random geometric data
# ---------------------------------------------------------------------------

def milnor_constants() -> np.ndarray:
    """su(2) with [X_1, X_2] = -2 X_3 cyclically."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = -2.0
        c[j, i, k] = 2.0
    return c


def direct_sum(*blocks: np.ndarray) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    c = np.zeros((n, n, n))
    at = 0
    for b in blocks:
        m = b.shape[0]
        c[at:at + m, at:at + m, at:at + m] = b
        at += m
    return c


def frame_constants(n: int) -> np.ndarray:
    """S^3 (n=3), S^3 x R (4), S^3 x S^3 (6), S^3 x S^3 x R^2 (8)."""
    su2 = milnor_constants()
    flat = {1: np.zeros((1, 1, 1)), 2: np.zeros((2, 2, 2))}
    return {3: su2, 4: direct_sum(su2, flat[1]), 6: direct_sum(su2, su2),
            8: direct_sum(su2, su2, flat[2])}[n]


def su2_blocks(n: int) -> list[int]:
    """First indices of the su(2) blocks of frame_constants(n)."""
    return [0] if n in (3, 4) else [0, 3]


def basis_three_form(n: int, i: int, j: int, k: int) -> np.ndarray:
    """e^i ^ e^j ^ e^k as a totally antisymmetric (n, n, n) array."""
    h = np.zeros((n, n, n))
    for (a, b, c), sign in (((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                            ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)):
        h[a, b, c] = sign
    return h


def random_spd(rng, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T / n + 0.5 * np.eye(n))


def closed_three_form(rng, oracles, n: int) -> np.ndarray:
    """d of a random 2-form plus volume forms of the su(2) blocks.

    Both parts are closed: the first is exact, and a volume form of a
    3-dimensional block is closed by degree.
    """
    b = rng.standard_normal((n, n))
    H = 0.3 * oracles.ce_differential(frame_constants(n), 0.5 * (b - b.T))
    for at in su2_blocks(n):
        H += rng.uniform(-2.0, 2.0) * basis_three_form(n, at, at + 1, at + 2)
    return H


def _shares(total: int, weights: dict) -> dict:
    """Split ``total`` ops over classes in proportion, at least one each."""
    norm = sum(weights.values())
    return {k: max(1, round(total * w / norm)) for k, w in weights.items()}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    passes = 3

    def plan(self, seconds: float, smoke: bool) -> tuple[float, int]:
        """(size relative to a 15 s run, passes) for a run of ``seconds``."""
        return (0.0, 1) if smoke else (seconds / 15.0, self.passes)

    def build(self, rng, scale: float, smoke: bool, oracles) -> list[Op]:
        raise NotImplementedError

    def warmup(self, ops: list[Op]) -> Op:
        """A cheap op of the kind the workload runs, for set-up."""
        raise NotImplementedError

    def describe(self, ops: list[Op]) -> dict:
        counts = {}
        for op in ops:
            counts[op.label] = counts.get(op.label, 0) + 1
        return {"ops": len(ops), "classes": counts}


class Scenarios(Workload):
    name = "scenarios"
    # A pass of all 13 scenarios takes about 7 s.
    pass_seconds = 7.0
    # Smoke mode shrinks the expensive scenarios; their checks still pass.
    smoke_overrides = {"product-s3s3": {"T": 0.01},
                       "torus-krf": {"N": 16}, "torus-gkrf": {"N": 16},
                       "lambda-monotone": {"T": 0.5}}

    def plan(self, seconds, smoke):
        return 1.0, 1 if smoke else max(1, round(seconds / self.pass_seconds))

    def build(self, rng, scale, smoke, oracles):
        names = list(spec.SCENARIO_NAMES)
        rng.shuffle(names)
        return [Op("scenario", name, {"name": name, "overrides": dict(
            self.smoke_overrides.get(name, {}) if smoke else {})})
            for name in names]

    def warmup(self, ops):
        return next(op for op in ops if op.label == "sphere")

    def describe(self, ops):
        return {"ops": len(ops), "order": [op.label for op in ops],
                "parameters": "defaults" if not any(
                    op.args["overrides"] for op in ops) else "smoke overrides"}


class _FlowWorkload(Workload):
    """Seeded ``integrate`` runs, ``weights`` giving the share of each class."""

    ops_at_15s = 0
    weights: dict = {}

    def build(self, rng, scale, smoke, oracles):
        counts = ({k: 1 for k in self.weights} if smoke
                  else _shares(round(self.ops_at_15s * scale), self.weights))
        ops = [self._op(rng, label, i, smoke, oracles)
               for label, count in counts.items() for i in range(count)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def describe(self, ops):
        out = super().describe(ops)
        ns = [op.args["n"] for op in ops]
        out["n_mix"] = {f"n={n}": ns.count(n) / len(ns) for n in sorted(set(ns))}
        out["steps_by_class"] = {op.label: op.args["config"]["steps"] for op in ops}
        out["adaptive_share"] = sum(op.args["config"].get("adaptive", False)
                                    for op in ops) / len(ops)
        return out


class FlowSmall(_FlowWorkload):
    name = "flow-small"
    ops_at_15s = 110
    # Sorted by cost the classes stack so that the median op run falls in
    # the middle of near_fixed_point at n = 3 and the tail among
    # near_fixed_point at n = 4, both of nearly constant cost.
    weights = {"generic": 0.5, "milnor": 0.1, "near_fixed_point": 0.2,
               "collapse": 0.2}

    @staticmethod
    def _op(rng, label, index, smoke, oracles):
        # n = 3 and n = 4 alternate, so every seed has the same mix
        n = 3 if label == "milnor" else 3 + index % 2
        steps = 4 if smoke else 20
        config = {"dt": 1e-3, "steps": steps}
        args = {"n": n, "post": True}
        if label == "generic":
            g, H = random_spd(rng, n), closed_three_form(rng, oracles, n)
        elif label == "milnor":
            eta = rng.uniform(0.5, 2.0)
            g = np.diag(rng.uniform(0.4, 1.6, 3))
            H = eta * basis_three_form(3, 0, 1, 2)
            args.update(eta=eta, reference="milnor")
        elif label == "near_fixed_point":
            # g = (eta/2) I on su(2) with H = eta e^123 is a fixed point
            eta = 1.5
            g = np.eye(n)
            g[:3, :3] *= 0.5 * eta
            p = rng.standard_normal((3, 3))
            g[:3, :3] += 1e-6 * eta * (p + p.T)
            if n == 4:
                g[3, 3] = rng.uniform(0.5, 2.0)
            H = eta * basis_three_form(n, 0, 1, 2)
            config.update(dt=2e-2, steps=10 * steps)
        else:  # collapse: H = 0 shrinks su(2) to a point in finite time
            g, H = random_spd(rng, n, 0.3), np.zeros((n, n, n))
            config.update(dt=1e-2, steps=20 * steps, adaptive=True,
                          adaptive_fraction=0.5, curvature_cap=1e3)
        args.update(c=frame_constants(n), g=g, H=H, config=config)
        return Op("flow", f"{label}_n{n}", args)

    def warmup(self, ops):
        return next(op for op in ops if op.label == "generic_n3")


class FlowWide(_FlowWorkload):
    name = "flow-wide"
    ops_at_15s = 12
    # n = 6 ops are three quarters, so the median op run sits inside them
    # and the tail among the n = 8 ones
    weights = {"n6": 0.5, "n6_block": 0.25, "n8": 0.25}

    @staticmethod
    def _op(rng, label, index, smoke, oracles):
        n = 8 if label == "n8" else 6
        steps = 1 if smoke else (2 if n == 8 else 8)
        config = {"dt": 1e-3, "steps": steps}
        args = {"n": n, "post": False}
        if label == "n6_block":
            # two independent S^3 factors: checked against two n=3 runs
            g = np.zeros((6, 6))
            g[:3, :3], g[3:, 3:] = random_spd(rng, 3), random_spd(rng, 3)
            H = (rng.uniform(-2.0, 2.0) * basis_three_form(6, 0, 1, 2)
                 + rng.uniform(-2.0, 2.0) * basis_three_form(6, 3, 4, 5))
            config["fixed_point_tol"] = 0.0
            args["reference"] = "blocks"
        else:
            g, H = random_spd(rng, n), closed_three_form(rng, oracles, n)
        args.update(c=frame_constants(n), g=g, H=H, config=config)
        return Op("flow", label, args)

    def warmup(self, ops):
        op = next(op for op in ops if op.args["n"] == 6)
        return Op(op.kind, op.label,
                  dict(op.args, config=dict(op.args["config"], steps=1)))


def smooth_periodic(rng, N: int) -> np.ndarray:
    """Random low-frequency field scaled so 1 +/- u_xx/2, u_yy/2 stay >= 0.75."""
    x = np.arange(N) * (2.0 * np.pi / N)
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.zeros((N, N))
    for k in range(0, 4):
        for l in range(-3, 4):
            if (k, l) <= (0, 0) or k * k + l * l > 10:
                continue
            u += (rng.standard_normal() / (k * k + l * l)
                  * np.cos(k * X + l * Y + rng.uniform(0.0, 2.0 * np.pi)))
    h2 = (2.0 * np.pi / N) ** 2
    uxx = (np.roll(u, 1, 0) + np.roll(u, -1, 0) - 2.0 * u) / h2
    uyy = (np.roll(u, 1, 1) + np.roll(u, -1, 1) - 2.0 * u) / h2
    return u * (0.5 / np.max(np.abs(uxx) + np.abs(uyy)))


def potential(rng, family: str, N: int) -> np.ndarray:
    """Ground-state test potentials: random, cos-wells or double wells."""
    x = np.arange(N) * (2.0 * np.pi / N)
    X, Y = np.meshgrid(x, x, indexing="ij")
    if family == "random":
        return 10.0 ** rng.uniform(0.0, 3.0) * rng.uniform(-1.0, 1.0, (N, N))
    if family == "cos_wells":
        a = 10.0 ** rng.uniform(0.0, 2.0)
        k, l = rng.integers(1, 4, 2)
        p, q = rng.uniform(0.0, 2.0 * np.pi, 2)
        return a * (np.cos(k * X + p) + np.cos(l * Y + q))
    # two Gaussian wells half a period apart whose depths differ by eps
    depth, width = 10.0 ** rng.uniform(1.0, 3.0), rng.uniform(0.4, 0.9)
    eps = 10.0 ** rng.uniform(-6.0, -2.0)
    c1 = rng.uniform(0.0, 2.0 * np.pi, 2)
    c2 = (c1 + np.pi) % (2.0 * np.pi)

    def well(c):
        dx = np.angle(np.exp(1j * (X - c[0])))
        dy = np.angle(np.exp(1j * (Y - c[1])))
        return np.exp(-(dx * dx + dy * dy) / (width * width))

    return -depth * (well(c1) + (1.0 + eps) * well(c2))


class Torus(Workload):
    name = "torus"
    families = ("random", "cos_wells", "double_wells")
    # (N, steps, runs per rhs) of the PDE ops and (N, solves per family)
    # of the ground-state ops, at 15 s
    pde_plan = ((64, 2500, 2), (128, 1500, 2), (256, 800, 2))
    ground_plan = ((8, 40), (12, 40), (16, 30), (32, 4), (64, 2))

    def build(self, rng, scale, smoke, oracles):
        if smoke:
            pde_plan, ground_plan = ((16, 20, 1),), ((8, 1),)
        else:
            pde_plan = tuple((N, steps, max(1, round(runs * scale)))
                             for N, steps, runs in self.pde_plan)
            ground_plan = tuple((N, max(1, round(k * scale)))
                                for N, k in self.ground_plan)
        ops = []
        for N, steps, runs in pde_plan:
            for rhs in ("krf", "gkrf"):
                for _ in range(runs):
                    ops.append(Op("pde", f"{rhs}_N{N}", {
                        "N": N, "rhs": rhs, "steps": steps,
                        "u0": smooth_periodic(rng, N)}))
        for N, k in ground_plan:
            for family in self.families:
                for _ in range(k):
                    ops.append(Op("ground_state", f"{family}_N{N}", {
                        "N": N, "family": family,
                        "V": potential(rng, family, N)}))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def warmup(self, ops):
        pde = min((op for op in ops if op.kind == "pde"),
                  key=lambda op: op.args["N"])
        return Op("pde", pde.label, dict(pde.args, steps=2))

    def describe(self, ops):
        out = super().describe(ops)
        caches = cache_sizes()
        grid = {}
        for op in ops:
            if op.kind == "pde":
                nbytes = op.args["u0"].nbytes
                grid[op.args["N"]] = {
                    "array_bytes": nbytes,
                    "vs_L2": nbytes / caches["L2"] if caches.get("L2") else None,
                    "vs_L3": nbytes / caches["L3"] if caches.get("L3") else None}
        out["pde_grids"] = grid
        gs = [op for op in ops if op.kind == "ground_state"]
        out["potential_family_mix"] = {
            f: sum(op.args["family"] == f for op in gs) / max(1, len(gs))
            for f in self.families}
        out["ground_state_N_mix"] = {
            f"N={N}": sum(op.args["N"] == N for op in gs) / max(1, len(gs))
            for N in sorted({op.args["N"] for op in gs})}
        return out


WORKLOADS = {w.name: w for w in (Scenarios(), FlowSmall(), FlowWide(), Torus())}


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

@dataclass
class FlowResult:
    traj: object
    lambdas: object = None
    csv_path: str | None = None


def run_op(op: Op, gl, tmpdir: str, index: int):
    """Run one op against the package namespace ``gl``; return its output."""
    a = op.args
    if op.kind == "flow":
        frame = gl.courant.LieFrame(a["c"])
        state = gl.flow.FlowState(a["g"], a["H"])
        traj = gl.flow.integrate(frame, state, gl.flow.FlowConfig(**a["config"]))
        if not a["post"]:
            return FlowResult(traj)
        lambdas = traj.lambda_series()
        path = os.path.join(tmpdir, f"flow-{index}.csv")
        traj.to_csv(path)
        return FlowResult(traj, lambdas, path)
    if op.kind == "pde":
        grid = gl.pde.PeriodicGrid(a["u0"])
        if a["rhs"] == "krf":   # the default right-hand side
            return gl.pde.pde_integrate(grid, steps=a["steps"])
        return gl.pde.pde_integrate(grid, steps=a["steps"], rhs=gl.pde.gkrf_rhs)
    if op.kind == "ground_state":
        return gl.pde.lambda_eigen(gl.pde.PeriodicGrid(a["V"]))
    if op.kind == "scenario":
        return gl.cli.run_scenario(a["name"], a["overrides"],
                                   out_root=os.path.join(tmpdir, "scenarios"))
    raise ValueError(f"unknown op kind {op.kind!r}")


def fingerprint(op: Op, result) -> str:
    """Digest of an op's output, to check that repeats agree exactly."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(result, BaseException):
        h.update(repr(result).encode())
    elif op.kind == "flow":
        t = result.traj
        h.update(f"{t.status}|{t.steps_taken}".encode())
        for arr in (t.times, t.rhs_norms, t.metrics[-1], t.torsions[-1],
                    result.lambdas if result.lambdas is not None else ()):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    elif op.kind == "pde":
        for arr in (result.final.values, result.sup_rate, result.inf_rate):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    elif op.kind == "ground_state":
        lam, vec = result
        h.update(np.float64(lam).tobytes() + vec.values.tobytes())
    else:
        # scenario check values include wall times, so only verdicts count
        h.update(repr([(c.name, c.passed) for c in result.checks]).encode())
    return h.hexdigest()


def cache_sizes() -> dict:
    """Per-core cache sizes in bytes from sysfs: 'L1d', 'L2', 'L3'."""
    out = {}
    for entry in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((entry / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            mult = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            out[f"L{level}" + ("d" if kind == "Data" else "")] = int(
                size.rstrip("KM")) * mult
    return out
