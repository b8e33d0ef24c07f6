"""Outside-in tracer for the grflab package.

The tracer never edits the package.  While installed it replaces, in every
loaded ``grflab`` module, each binding of a traced public function by a
wrapper that records a span (function, parent span, start, end).  That
covers names imported into other modules (``flow`` binds
``exterior_d_invariant`` itself), methods on their classes and default
arguments (``pde_integrate(rhs=krf_rhs)``).  Each module's ``numpy`` is
swapped for a copy whose ``einsum`` and ``tensordot`` count calls and
floating-point operations, and ``scipy.sparse.linalg`` for a copy whose
``splu`` counts factorizations and solves.  Self time of a span is its
duration minus the time covered by its child spans.

``self_check`` compares the tracer's call counts with ``sys.setprofile``,
which sees every call of a function's code object however it was bound.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import time
import types

import numpy as np
import scipy.sparse.linalg as spla

import spec

_NP_EINSUM = np.einsum
_NP_TENSORDOT = np.tensordot
_SPLU = spla.splu


class TracerError(RuntimeError):
    """The tracer missed calls or counted calls that did not happen."""


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "grflab" or name.startswith("grflab."))]


def _resolve(qualified: str):
    """(owner, attribute, function) for 'module.func' or 'module.Class.meth'."""
    mod_name, _, rest = qualified.partition(".")
    owner = sys.modules.get(f"grflab.{mod_name}")
    parts = rest.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        fn = owner.__dict__.get(parts[-1])
    else:
        fn = getattr(owner, parts[-1], None)
    if not isinstance(fn, types.FunctionType):
        return None
    return owner, parts[-1], fn


class _CountingLU:
    """SuperLU factor that counts its solves."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts["pde.lambda_eigen.iterations"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self):
        self.names = spec.traced_names()
        self._fid_of = {n: i for i, n in enumerate(self.names)}
        self._undo = []
        self._flops_cache = {}
        self.fid, self.parent, self.t0, self.t1 = [], [], [], []
        self._stack = []
        self._active = collections.Counter()
        self.counts = collections.Counter()

    def reset(self):
        """Drop spans and counters; installed wrappers keep recording."""
        for container in (self.fid, self.parent, self.t0, self.t1,
                          self._stack, self._active, self.counts):
            container.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        fid = self._fid_of[name]
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        fids, parents, t0s, t1s = self.fid, self.parent, self.t0, self.t1
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(idx)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = time.perf_counter()
                t0s[idx] = start
                stack.pop()
                active[name] -= 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _einsum(self, *operands, **kwargs):
        optimize = kwargs.get("optimize", False)
        key = (tuple(o if isinstance(o, str) else
                     tuple(o) if isinstance(o, list) else np.shape(o)
                     for o in operands), repr(optimize))
        flops = self._flops_cache.get(key)
        if flops is None:
            _, text = np.einsum_path(*operands, optimize=optimize or False)
            label = "Optimized FLOP count:" if optimize else "Naive FLOP count:"
            line = next(ln for ln in text.splitlines() if label in ln)
            flops = self._flops_cache[key] = float(line.split(":")[1])
        self.counts["kernel.einsum.calls"] += 1
        self.counts["kernel.einsum.flops"] += flops
        if self._active["flow.integrate"]:
            self.counts["kernel.flops_in_integrate"] += flops
        return _NP_EINSUM(*operands, **kwargs)

    def _tensordot(self, a, b, axes=2):
        sa, sb = np.shape(a), np.shape(b)
        if isinstance(axes, int):
            ax_a = list(range(len(sa) - axes, len(sa)))
            ax_b = list(range(axes))
        else:
            ax_a, ax_b = ([x] if isinstance(x, int) else list(x) for x in axes)
        inner = math.prod(sa[i] for i in ax_a)
        free_a = math.prod(sa) // max(inner, 1)
        free_b = math.prod(sb) // max(inner, 1)
        flops = 2.0 * free_a * free_b * inner
        self.counts["kernel.tensordot.calls"] += 1
        self.counts["kernel.tensordot.flops"] += flops
        if self._active["flow.integrate"]:
            self.counts["kernel.flops_in_integrate"] += flops
        return _NP_TENSORDOT(a, b, axes)

    def _splu(self, *args, **kwargs):
        self.counts["pde.lambda_eigen.factorizations"] += 1
        return _CountingLU(_SPLU(*args, **kwargs), self.counts)

    # -- result hooks: counters read where the work happens ------------------

    def _after_flow_integrate(self, args, kwargs, traj):
        config = kwargs.get("config", args[2] if len(args) > 2 else None)
        self.counts["flow.rk4_steps"] += traj.steps_taken
        self.counts["flow.states"] += len(traj.times)
        self.counts[f"flow.status.{traj.status}"] += 1
        if config is not None and len(traj.times) > 1:
            steps = np.diff(np.asarray(traj.times, dtype=float))
            steps = steps[steps > 0]
            halvings = np.rint(np.log2(config.dt / steps)).clip(min=0)
            self.counts["flow.halvings"] += int(halvings.sum())

    def _after_pde_pde_integrate(self, args, kwargs, traj):
        self.counts["pde.steps"] += traj.steps_taken

    def _rhs_bytes(self, args, kwargs, rate):
        if self._active["pde.pde_integrate"]:
            grid = args[0] if args else kwargs["grid"]
            self.counts["pde.rhs_bytes"] += grid.values.nbytes + np.asarray(rate).nbytes

    _after_pde_krf_rhs = _rhs_bytes
    _after_pde_gkrf_rhs = _rhs_bytes

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise TracerError("tracer is already installed")
        wrappers = {}
        for name in self.names:
            found = _resolve(name)
            if found is None:
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn)
            wrappers[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
        np_proxy = types.ModuleType("numpy")
        np_proxy.__dict__.update(np.__dict__)
        np_proxy.einsum = self._einsum
        np_proxy.tensordot = self._tensordot
        spla_proxy = types.ModuleType(spla.__name__)
        spla_proxy.__dict__.update(spla.__dict__)
        spla_proxy.splu = self._splu
        # id -> (bound object, replacement); the identity test below guards
        # against a recycled id
        swaps = {id(np): (np, np_proxy), id(spla): (spla, spla_proxy),
                 id(_NP_EINSUM): (_NP_EINSUM, self._einsum),
                 id(_NP_TENSORDOT): (_NP_TENSORDOT, self._tensordot),
                 id(_SPLU): (_SPLU, self._splu)}
        swaps.update(wrappers)
        functions = []
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps and swaps[id(value)][0] is value:
                    self._set(mod, attr, swaps[id(value)][1])
                if isinstance(value, types.FunctionType):
                    functions.append(value)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    functions += [v for v in vars(value).values()
                                  if isinstance(v, types.FunctionType)]
        # default arguments bound at definition time, e.g. rhs=krf_rhs
        for fn in functions:
            if fn.__defaults__ and any(id(d) in wrappers for d in fn.__defaults__):
                self._undo.append((fn, "__defaults__", fn.__defaults__))
                fn.__defaults__ = tuple(wrappers[id(d)][1] if id(d) in wrappers
                                        else d for d in fn.__defaults__)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def call_counts(self) -> dict:
        counts = np.bincount(np.asarray(self.fid, dtype=np.int64),
                             minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def layer_metrics(self) -> dict:
        """Per-function calls and self time plus the derived counters."""
        fid = np.asarray(self.fid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.t1) - np.asarray(self.t0)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = np.bincount(fid, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(fid, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_s[i] * 1e3)

        # spans under integrate / the trajectory post-processing / pde_integrate
        f = self._fid_of
        in_integrate = np.zeros(len(fid), dtype=bool)
        in_flow = np.zeros(len(fid), dtype=bool)
        in_pde = np.zeros(len(fid), dtype=bool)
        flow_roots = {f["flow.integrate"], f["flow.FlowTrajectory.lambda_series"],
                      f["flow.FlowTrajectory.to_csv"]}
        for i in range(len(fid)):
            p = parent[i]
            in_integrate[i] = fid[i] == f["flow.integrate"] or (p >= 0 and in_integrate[p])
            in_flow[i] = fid[i] in flow_roots or (p >= 0 and in_flow[p])
            in_pde[i] = fid[i] == f["pde.pde_integrate"] or (p >= 0 and in_pde[p])
        c = self.counts
        rhs_evals = int(np.sum(in_integrate & (fid == f["geometry.riemann"])))
        lc_flow = int(np.sum(in_flow & (fid == f["geometry.levi_civita"])))
        pde_rhs = int(np.sum(in_pde & ((fid == f["pde.krf_rhs"])
                                       | (fid == f["pde.gkrf_rhs"]))))
        out.update({
            "flow.rk4_steps": c["flow.rk4_steps"],
            "flow.rhs_evals": rhs_evals,
            "flow.levi_civita_per_state": lc_flow / c["flow.states"]
            if c["flow.states"] else 0.0,
            "flow.halvings": c["flow.halvings"],
        })
        for status in spec.FLOW_STATUSES:
            out[f"flow.status.{status}"] = c[f"flow.status.{status}"]
        out.update({
            "kernel.einsum.calls": c["kernel.einsum.calls"],
            "kernel.einsum.flops": c["kernel.einsum.flops"],
            "kernel.tensordot.calls": c["kernel.tensordot.calls"],
            "kernel.tensordot.flops": c["kernel.tensordot.flops"],
            "kernel.flops_per_rhs": c["kernel.flops_in_integrate"] / rhs_evals
            if rhs_evals else 0.0,
            "pde.steps": c["pde.steps"],
            "pde.rhs_evals": pde_rhs,
            "pde.bytes_per_step": c["pde.rhs_bytes"] / c["pde.steps"]
            if c["pde.steps"] else 0.0,
            "pde.lambda_eigen.factorizations": c["pde.lambda_eigen.factorizations"],
            "pde.lambda_eigen.iterations": c["pde.lambda_eigen.iterations"],
        })
        return out

    def spans(self) -> dict:
        """The recorded spans in a compact form for writing out."""
        return {"names": self.names, "fid": list(self.fid),
                "parent": list(self.parent),
                "t0": [round(t, 9) for t in self.t0],
                "t1": [round(t, 9) for t in self.t1]}


def self_check(run) -> dict:
    """Run ``run(stage)`` under the tracer and under ``sys.setprofile``.

    ``run`` is called once and must call ``stage(label)`` after each part
    of its work.  Raises TracerError when, at any stage, a traced function
    was called a different number of times than the profiler saw.  Returns
    {label: {function: calls}} for the functions that were called.
    """
    codes = {}
    for name in spec.traced_names():
        found = _resolve(name)
        if found is not None:
            codes[found[2].__code__] = name
    seen = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                seen[name] += 1

    tracer = Tracer()
    stages = {}

    def stage(label):
        traced = {k: v for k, v in tracer.call_counts().items() if v}
        if traced != dict(seen):
            missing = {k: (traced.get(k, 0), seen.get(k, 0))
                       for k in set(traced) | set(seen)
                       if traced.get(k, 0) != seen.get(k, 0)}
            raise TracerError(f"traced != profiled calls after {label}: {missing}")
        stages[label] = traced

    with tracer:
        sys.setprofile(profile)
        try:
            run(stage)
        finally:
            sys.setprofile(None)
    return stages
