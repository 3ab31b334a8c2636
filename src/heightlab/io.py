"""Flat-file serialization: CSV with '# key=value' metadata headers.

Floats are written with repr so round-trips through text are bit-exact.
Every artifact carries the config hash and master seed that produced it,
never a timestamp, so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


def write_csv(path, columns: dict, meta: dict | None = None) -> Path:
    """Write named columns plus sorted metadata headers."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    n_rows = len(arrays[0]) if arrays else 0
    if any(len(a) != n_rows for a in arrays):
        raise ValueError("column length mismatch")
    with open(path, "w", newline="") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}={meta[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n_rows):
            writer.writerow([_cell(a[i]) for a in arrays])
    return path


def read_csv(path):
    """Inverse of write_csv: (columns dict of float arrays, meta dict).

    Blank lines are skipped.  A file with no header row, or a row whose
    cell count differs from the header's, raises ``ValueError``.
    """
    meta: dict = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key.strip()] = val
                continue
            rows.append(line)
    parsed = [row for row in csv.reader(rows) if row]
    if not parsed:
        raise ValueError(f"no header row in {path}")
    names, body = parsed[0], parsed[1:]
    for k, row in enumerate(body, start=1):
        if len(row) != len(names):
            raise ValueError(
                f"{path}: data row {k} has {len(row)} cells, the header {len(names)}"
            )
    out = {}
    for n, cells in zip(names, zip(*body) if body else [()] * len(names)):
        try:
            out[n] = np.array([float(c) for c in cells])
        except ValueError:
            out[n] = np.array(cells)
    return out, meta


def _cell(value):
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value

