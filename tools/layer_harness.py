"""What the layer harnesses in this directory share: the median timer, a
call counter, the command line and the reading merged into ``BENCH_*.json``.

A harness script passes :func:`main` its measurements, its speed-up rule
and its one-line row summary.  Each run stores its reading under its
``--label``, so two checkouts measured by the same script land in one
file; once both ``parent`` and ``change`` are present the file also gets
the harness's speed-ups.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def median_s(fn, repeats: int, number: int = 1) -> float:
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


@contextlib.contextmanager
def counting(owner, name: str, *result_methods: str):
    """Count the calls of ``owner.<name>`` by code that reaches it through
    ``owner``, and the calls of each of ``result_methods`` on its results.
    Yields the counts, keyed by ``name`` and by each of those methods."""
    counts = dict.fromkeys((name, *result_methods), 0)
    original = getattr(owner, name)

    def counted(fn, key):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    def replacement(*args, **kwargs):
        counts[name] += 1
        result = original(*args, **kwargs)
        if not result_methods:
            return result
        return SimpleNamespace(**{m: counted(getattr(result, m), m)
                                  for m in result_methods})

    setattr(owner, name, replacement)
    try:
        yield counts
    finally:
        setattr(owner, name, original)


def merge(path: Path, label: str, reading: dict, speedups) -> None:
    """Store ``reading`` under ``label`` in the JSON file at ``path``; once
    both ``parent`` and ``change`` are there, add ``speedups(parent layers,
    change layers)``, a dict of top-level entries."""
    data = json.loads(path.read_text()) if path.exists() else {}
    readings = data.setdefault("readings", {})
    readings[label] = reading
    if "parent" in readings and "change" in readings:
        data.update(speedups(readings["parent"]["layers"], readings["change"]["layers"]))
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv, doc: str, out_name: str, measure, speedups, summary) -> int:
    """Parse the command line, import grflab from ``--src``, take the rows
    ``measure(grflab, repeats)``, merge the reading into ``--out`` and print
    ``summary(row)`` for every row."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory that holds the grflab package to measure")
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=str(ROOT / out_name))
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    grflab = importlib.import_module("grflab")
    reading = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "layers": measure(grflab, args.repeats),
    }
    merge(Path(args.out), args.label, reading, speedups)
    for key, row in reading["layers"].items():
        print(f"{args.label} {key}: {summary(row)}")
    return 0
