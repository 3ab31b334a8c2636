"""Multilinear interpolation on a rectilinear grid.

One numpy kernel serves the surface-tension table lookups inside the PDE
loop and the grid-to-grid L2 sampler.  The arithmetic follows the linear
path of ``RegularGridInterpolator`` so that results are bit-identical to
it in one and two dimensions: the cell is the one with
``a[i] <= x < a[i+1]`` (the last cell for a point on the upper wall), the
normalized distance is ``(x - a[i]) / (a[i+1] - a[i])``, each corner term
is ``((v * w0) * w1) * ...``, and the terms are summed onto zero in
corner order (0, 0), (0, 1), (1, 0), (1, 1), ...

``Multilinear`` evaluates only the value components it is asked for, so
the PDE loop interpolates one flux column per face direction.  Points
come component-major, one contiguous row per axis, and every
intermediate (cell index, weights ``y`` and ``1 - y``, corner term) lives
in a ``Workspace`` that is reused from call to call.  A lookup of the
same size as the one before allocates only, per axis, the cell indices
(``searchsorted`` takes no ``out=``) and the node widths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class Workspace:
    """Named flat buffers, each grown to the largest size asked for and reused."""

    def __init__(self):
        self._bufs = {}

    def get(self, name, shape, dtype=float) -> np.ndarray:
        n = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = self._bufs[name] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


def _locate(a: np.ndarray, x: np.ndarray, y=None, tmp=None):
    """Cell index i in [0, n-2] with a[i] <= x < a[i+1] (the last cell at
    a[-1]) and the normalized distance y = (x - a[i]) / (a[i+1] - a[i]).

    NaN lands in the last cell and yields a NaN distance.  A single-node
    axis has one cell of zero width: index 0, distance 0.  ``y`` and
    ``tmp``, when given, are float buffers of len(x): ``y`` receives the
    distance and ``tmp`` is overwritten.
    """
    m = len(x)
    y = np.empty(m) if y is None else y
    if len(a) == 1:
        y.fill(0.0)
        return np.zeros(m, dtype=np.intp), y
    tmp = np.empty(m) if tmp is None else tmp
    i = np.searchsorted(a, x, side="right")
    np.subtract(i, 1, out=i)
    np.clip(i, 0, len(a) - 2, out=i)
    a.take(i, out=y, mode="clip")
    np.subtract(x, y, out=y)
    np.diff(a).take(i, out=tmp, mode="clip")
    np.divide(y, tmp, out=y)
    return i, y


class Multilinear:
    """Multilinear interpolation on the tensor grid spanned by ``axes``.

    The nodes of every axis strictly increase.  A single-node axis has
    one cell of zero width: its corners coincide and its weight is 0.
    """

    def __init__(self, axes):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.shape = tuple(len(a) for a in self.axes)
        self.work = Workspace()

    def __call__(self, values, cols, comps, out) -> np.ndarray:
        """Write into ``out[r]`` the interpolant of ``values[..., comps[r]]``.

        ``values`` has shape grid + (C,), ``cols`` (d, m) holds the points
        one axis per row, already inside the grid box, and ``out`` is
        (len(comps), m).  Returns ``out``.
        """
        d, m = cols.shape
        ncomp = values.size // math.prod(self.shape)
        flat = values.reshape(-1)
        base = self.work.get("base", (m,), np.intp)
        idx = self.work.get("idx", (m,), np.intp)
        term = self.work.get("term", (m,))
        base.fill(0)
        weights, corner_strides = [], []
        for k, a in enumerate(self.axes):
            stride = ncomp * math.prod(self.shape[k + 1:])
            y = self.work.get(f"y{k}", (m,))
            y1 = self.work.get(f"y1_{k}", (m,))
            i, _ = _locate(a, cols[k], y, y1)
            np.subtract(1.0, y, out=y1)
            np.add(base, np.multiply(i, stride, out=i), out=base)
            weights.append((y1, y))
            # the upper corner of a single-node axis is that node again
            corner_strides.append(stride if len(a) > 1 else 0)
        out.fill(0.0)
        for corner in itertools.product((0, 1), repeat=d):
            offset = sum(c * s for c, s in zip(corner, corner_strides))
            for r, comp in enumerate(comps):
                np.add(base, offset + comp, out=idx)
                flat.take(idx, out=term, mode="clip")
                for w, c in zip(weights, corner):
                    np.multiply(term, w[c], out=term)
                np.add(out[r], term, out=out[r])
        return out


def multilinear(axes, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Interpolate ``values`` (shape grid + trailing) at ``pts`` (m, d).

    ``pts`` must already lie in the grid box; the nodes of every axis
    strictly increase.  Returns shape (m,) + trailing.
    """
    kernel = Multilinear(axes)
    trailing = values.shape[len(kernel.shape):]
    ncomp = math.prod(trailing)
    out = np.empty((ncomp, len(pts)))
    kernel(values, np.asarray(pts, dtype=float).T, range(ncomp), out)
    return out.T.reshape((len(pts),) + trailing)
