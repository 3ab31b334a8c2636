"""Multilinear interpolation on a rectilinear grid.

One numpy kernel serves the surface-tension table lookups inside the PDE
loop and the grid-to-grid L2 sampler.  The arithmetic follows the linear
path of ``RegularGridInterpolator`` so that results are bit-identical to
it in one and two dimensions: the cell is the one with
``a[i] <= x < a[i+1]`` (the last cell for a point on the upper wall), the
normalized distance is ``(x - a[i]) / (a[i+1] - a[i])``, each corner term
is ``((v * w0) * w1) * ...``, and the terms are summed onto zero in
corner order (0, 0), (0, 1), (1, 0), (1, 1), ...
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _locate(a: np.ndarray, x: np.ndarray):
    """Cell index i in [0, n-2] with a[i] <= x < a[i+1] (the last cell at
    a[-1]) and the normalized distance (x - a[i]) / (a[i+1] - a[i]).

    NaN lands in the last cell and yields a NaN distance.  A single-node
    axis has one cell of zero width: index 0, distance 0.
    """
    n = len(a)
    if n == 1:
        return np.zeros(len(x), dtype=np.intp), np.zeros(len(x))
    i = np.clip(np.searchsorted(a, x, side="right") - 1, 0, n - 2)
    return i, (x - a[i]) / (a[i + 1] - a[i])


def multilinear(axes, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Interpolate ``values`` (shape grid + trailing) at ``pts`` (m, d).

    ``pts`` must already lie in the grid box; the nodes of every axis
    strictly increase.  Returns shape (m,) + trailing.
    """
    d = len(axes)
    m = len(pts)
    grid_shape = values.shape[:d]
    # components first, so every product below runs along contiguous points
    rows = np.ascontiguousarray(values.reshape(math.prod(grid_shape), -1).T)
    strides = [math.prod(grid_shape[k + 1:]) for k in range(d)]
    # the upper corner of a single-node axis is that node again
    corner_strides = [s if n > 1 else 0 for s, n in zip(strides, grid_shape)]
    base = 0
    dists = []
    for k, a in enumerate(axes):
        i, y = _locate(a, pts[:, k])
        base = base + i * strides[k]
        dists.append(y)
    out = np.zeros((len(rows), m))
    for corner in itertools.product((0, 1), repeat=d):
        offset = sum(c * s for c, s in zip(corner, corner_strides))
        term = rows.take(base + offset, axis=1)
        for y, c in zip(dists, corner):
            term *= y if c else 1.0 - y
        out += term
    return out.T.reshape((m,) + values.shape[d:])
