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
come component-major, one contiguous row per axis.  The cell search runs
over each axis's interior nodes, which yields the cell directly; those
nodes and the cell widths are cached when the kernel is built.  Each
component takes one gather: one ``add`` fills a (2^d, m) index block
from the cell's base index and the cached corner offsets, one ``take``
reads all corners, d in-place multiplies apply the weights axis by axis,
and one ``add.reduce`` sums the corners in order.  Every intermediate
(base index, weights ``1 - y`` and ``y``, index block, corner terms)
lives in a ``Workspace`` reused from call to call, so a lookup of the
same size as the one before allocates only the cell indices of each
axis (``searchsorted`` takes no ``out=``).
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


class Multilinear:
    """Multilinear interpolation on the tensor grid spanned by ``axes`` of
    values with ``ncomp`` components per node.

    The nodes of every axis strictly increase.  A single-node axis has
    one cell of zero width: its corners coincide and its weight is 0.
    """

    def __init__(self, axes, ncomp: int = 1):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.shape = tuple(len(a) for a in self.axes)
        self._inner = [a[1:-1] for a in self.axes]
        self._width = [np.diff(a) for a in self.axes]
        d = len(self.shape)
        self._strides = [ncomp * math.prod(self.shape[k + 1:]) for k in range(d)]
        # the upper corner of a single-node axis is that node again
        steps = [s if n > 1 else 0 for s, n in zip(self._strides, self.shape)]
        corners = np.array(list(itertools.product((0, 1), repeat=d)), np.intp)
        offsets = corners @ np.array(steps, np.intp)
        # [comp] -> (2^d, 1): flat offsets of the corners from a cell's base index
        self._offsets = offsets[None, :, None] + np.arange(ncomp)[:, None, None]
        self.work = Workspace()

    def _locate(self, k: int, x, y, tmp) -> np.ndarray:
        """Cell index i in [0, n-2] along axis k with a[i] <= x < a[i+1] (the
        last cell at a[-1]); writes y = (x - a[i]) / (a[i+1] - a[i]).

        NaN lands in the last cell and yields a NaN distance.  A single-node
        axis has one cell of zero width: index 0, distance 0.  ``y`` and
        ``tmp`` are float buffers of len(x); ``tmp`` is overwritten.
        """
        a = self.axes[k]
        i = np.searchsorted(self._inner[k], x, side="right")
        if len(a) == 1:
            y.fill(0.0)
            return i
        a.take(i, out=y, mode="clip")
        np.subtract(x, y, out=y)
        self._width[k].take(i, out=tmp, mode="clip")
        np.divide(y, tmp, out=y)
        return i

    def __call__(self, values, cols, comps, out) -> np.ndarray:
        """Write into ``out[r]`` the interpolant of ``values[..., comps[r]]``.

        ``values`` has shape grid + (ncomp,), ``cols`` (d, m) holds the
        points one axis per row, already inside the grid box, and ``out``
        is (len(comps), m).  Returns ``out``.
        """
        d, m = cols.shape
        flat = values.reshape(-1)
        base = self.work.get("base", (m,), np.intp)
        weights = self.work.get("weights", (d, 2, m))
        idx = self.work.get("idx", (2**d, m), np.intp)
        term = self.work.get("term", (2**d, m))
        base.fill(0)
        for k in range(d):
            y1, y = weights[k]
            i = self._locate(k, cols[k], y, y1)
            np.subtract(1.0, y, out=y1)
            np.add(base, np.multiply(i, self._strides[k], out=i), out=base)
        # corner terms with one axis per dimension, and each axis's weights
        # (1 - y, y) shaped to broadcast along that axis
        corners = term.reshape((2,) * d + (m,))
        ws = [
            weights[k].reshape((1,) * k + (2,) + (1,) * (d - 1 - k) + (m,))
            for k in range(d)
        ]
        for r, comp in enumerate(comps):
            np.add(base, self._offsets[comp], out=idx)
            flat.take(idx, out=term, mode="clip")
            for w in ws:
                np.multiply(corners, w, out=corners)
            if m != 1:
                np.add.reduce(term, axis=0, initial=0.0, out=out[r])
            else:  # numpy sums a lone column pairwise from 8 terms on
                out[r] = 0.0
                for row in term:
                    np.add(out[r], row, out=out[r])
        return out


def multilinear(axes, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Interpolate ``values`` (shape grid + trailing) at ``pts`` (m, d).

    ``pts`` must already lie in the grid box; the nodes of every axis
    strictly increase.  Returns shape (m,) + trailing.
    """
    trailing = values.shape[len(axes):]
    ncomp = math.prod(trailing)
    kernel = Multilinear(axes, ncomp)
    out = np.empty((ncomp, len(pts)))
    kernel(values, np.asarray(pts, dtype=float).T, range(ncomp), out)
    return out.T.reshape((len(pts),) + trailing)
