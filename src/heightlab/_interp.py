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
come component-major, one contiguous row per axis.  The cell search
guesses each point's cell by arithmetic, ``(x - a[0]) * (n-1) / (a[-1] -
a[0])`` capped at the last cell, and checks the guess exactly: the
distance ``y`` of the guessed cell is in [0, 1) only if the point lies in
that cell, because rounding is monotone.  The points that fail the check
(off the uniform spacing, ulps below a node, on the upper wall, NaN) are
searched for over the axis's interior nodes, which yields the cell
directly, and get their distance from the same arithmetic.  Each
component takes one gather: one ``add`` fills a (2^d, m) index block
from the cell's base index and the cached corner offsets, one ``take``
reads all corners, d in-place multiplies apply the weights axis by axis,
and one ``add.reduce`` sums the corners in order.  Every intermediate
(cells, check flags, base index, weights ``1 - y`` and ``y``, index
block, corner terms) lives in a ``Workspace`` reused from call to call,
and the views of it for each point count are built once, so a lookup of
a size seen before allocates nothing of size m unless some points fail
the check.
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
        # cells per unit of x on a uniform axis: the guess of _locate
        self._scale = [(len(a) - 1) / (a[-1] - a[0]) if len(a) > 1 else 0.0
                       for a in self.axes]
        d = len(self.shape)
        self._strides = [ncomp * math.prod(self.shape[k + 1:]) for k in range(d)]
        # the upper corner of a single-node axis is that node again
        steps = [s if n > 1 else 0 for s, n in zip(self._strides, self.shape)]
        corners = np.array(list(itertools.product((0, 1), repeat=d)), np.intp)
        offsets = corners @ np.array(steps, np.intp)
        # [comp] -> (2^d, 1): flat offsets of the corners from a cell's base index
        self._offsets = offsets[None, :, None] + np.arange(ncomp)[:, None, None]
        self.work = Workspace()
        self._views = {}
        self._capacity = 0

    def _views_for(self, m: int) -> tuple:
        """The workspace views a lookup of m points works in, built once per
        m.  Two sizes are kept, the face counts of a non-square grid; a size
        that grows the workspace drops the views of the old buffers."""
        views = self._views.get(m)
        if views is not None:
            return views
        if m > self._capacity or len(self._views) == 2:
            self._views.clear()
            self._capacity = max(self._capacity, m)
        d = len(self.shape)
        get = self.work.get
        weights = get("weights", (d, 2, m))
        term = get("term", (2**d, m))
        views = self._views[m] = (
            get("cell", (m,), np.intp),
            get("flag", (m,), bool),
            get("base", (m,), np.intp),
            weights,
            get("idx", (2**d, m), np.intp),
            term,
            # corner terms with one axis per dimension, and each axis's
            # weights (1 - y, y) shaped to broadcast along that axis
            term.reshape((2,) * d + (m,)),
            [weights[k].reshape((1,) * k + (2,) + (1,) * (d - 1 - k) + (m,))
             for k in range(d)],
        )
        return views

    def _locate(self, k: int, x, i, y, tmp, flag) -> None:
        """Write the cell index i in [0, n-2] along axis k with a[i] <= x <
        a[i+1] (the last cell at a[-1]) and y = (x - a[i]) / (a[i+1] - a[i]).

        NaN lands in the last cell and yields a NaN distance.  A single-node
        axis has one cell of zero width: index 0, distance 0.  ``i``, ``y``,
        ``tmp`` and ``flag`` are intp, float, float and bool buffers of
        len(x); ``tmp`` and ``flag`` are overwritten.
        """
        a = self.axes[k]
        n = len(a)
        if n == 1:
            i.fill(0)
            y.fill(0.0)
            return
        # guess: the cell of x if the nodes were uniform, NaN to the last
        np.subtract(x, a[0], out=y)
        np.multiply(y, self._scale[k], out=y)
        np.fmin(y, n - 2, out=y)
        np.copyto(i, y, casting="unsafe")
        width = self._width[k]
        a.take(i, out=y, mode="clip")
        np.subtract(x, y, out=y)
        width.take(i, out=tmp, mode="clip")
        np.divide(y, tmp, out=y)
        # check: 0 <= y < 1 holds only if a[i] <= x < a[i+1]
        np.floor(y, out=tmp)
        np.not_equal(tmp, 0.0, out=flag)
        if flag.any():
            bad = np.flatnonzero(flag)
            xb = x[bad]
            ib = np.searchsorted(self._inner[k], xb, side="right")
            i[bad] = ib
            y[bad] = (xb - a[ib]) / width[ib]

    def __call__(self, values, cols, comps, out) -> np.ndarray:
        """Write into ``out[r]`` the interpolant of ``values[..., comps[r]]``.

        ``values`` has shape grid + (ncomp,), ``cols`` (d, m) holds the
        points one axis per row, already inside the grid box, and ``out``
        is (len(comps), m).  Returns ``out``.
        """
        d, m = cols.shape
        flat = values.reshape(-1)
        i, flag, base, weights, idx, term, corners, ws = self._views_for(m)
        base.fill(0)
        for k in range(d):
            y1, y = weights[k]
            self._locate(k, cols[k], i, y, y1, flag)
            np.subtract(1.0, y, out=y1)
            np.add(base, np.multiply(i, self._strides[k], out=i), out=base)
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
