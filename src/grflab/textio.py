"""Text serialization: flat key/value fields and comma-separated tables.

The field format is line based: ``name = value`` for scalars and
``name[i][j]... = value`` for array entries.  Only nonzero entries are
written; shapes are reconstructed from a ``dim`` key plus the known rank
of each field.  :func:`write_table` writes every CSV series of the
package.  Floats are written with ``repr`` so round-trips are exact.
"""

from __future__ import annotations

import re

import numpy as np

_TABLE_BLOCK = 1024   # rows converted to text per write
_ENTRY = re.compile(r"^(?P<name>[A-Za-z_][A-Za-z_0-9]*)(?P<idx>(\[\d+\])*)\s*=\s*(?P<val>\S+)\s*$")


def format_scalar(name: str, value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return f"{name} = {int(value)}"
    return f"{name} = {float(value)!r}"


def format_array(name: str, array: np.ndarray) -> list[str]:
    """Lines for the nonzero entries of ``array``, in index order."""
    array = np.asarray(array, dtype=float)
    lines = []
    for idx in np.ndindex(array.shape):
        v = array[idx]
        if v != 0.0:
            suffix = "".join(f"[{i}]" for i in idx)
            lines.append(f"{name}{suffix} = {float(v)!r}")
    return lines


def dump_fields(scalars: dict, arrays: dict) -> str:
    lines = [format_scalar(k, v) for k, v in scalars.items()]
    for name, arr in arrays.items():
        lines.extend(format_array(name, arr))
    return "\n".join(lines) + "\n"


def write_table(path, header, columns) -> None:
    """Write equal-length 1-d columns under a header as comma-separated
    lines, each ending in a bare newline.  A cell is ``repr`` of the
    column's ``tolist()`` value, so floats round-trip exactly and integers
    stay integers.  Rows are converted a block at a time, so the cells of
    a long table are never all held at once."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    if any(c.ndim != 1 for c in columns) or len({len(c) for c in columns}) > 1:
        raise ValueError("columns must be 1-d and of equal length")
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _TABLE_BLOCK):
            cells = [map(repr, c[start:start + _TABLE_BLOCK].tolist()) for c in columns]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def parse_fields(text: str):
    """Split serialized text into scalar values and sparse array entries.

    Returns ``(scalars, entries)`` where ``entries`` maps an array name to
    a dict of index-tuple -> float.  Blank lines and ``#`` comments are
    ignored.
    """
    scalars: dict = {}
    entries: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _ENTRY.match(line)
        if m is None:
            raise ValueError(f"unparseable line: {raw!r}")
        name, idx, val = m.group("name"), m.group("idx"), m.group("val")
        if idx:
            index = tuple(int(s) for s in re.findall(r"\d+", idx))
            entries.setdefault(name, {})[index] = float(val)
        else:
            scalars[name] = float(val)
    return scalars, entries


def build_array(entries: dict, name: str, shape: tuple) -> np.ndarray:
    """Assemble a dense array from sparse entries (missing name -> zeros)."""
    out = np.zeros(shape)
    for idx, v in entries.get(name, {}).items():
        if len(idx) != len(shape):
            raise ValueError(f"{name}: index {idx} has wrong rank for shape {shape}")
        out[idx] = v
    return out
