"""Explicit solver for the limiting nonlinear diffusion.

The macroscopic height profile follows

    dh/dt = div( grad sigma( grad h ) )    in D,
    h = f                                   on the boundary,

solved here with a flux-form forward Euler scheme on a node grid aligned
with the domain walls: face gradients are central differences, the flux
is evaluated on faces, and interior nodes gain the divergence of the
face fluxes.  The time step obeys dt <= spacing^2 / (2 d C2) where C2
bounds the flux Lipschitz constant, which keeps the update a convex
combination and the solution inside its initial bounds.

A flux exposes ``lipschitz_upper`` and one per-direction query,
``grad_component(cols, i, out)``: component i of grad sigma at the tilts
``cols`` (shape (d, m), one axis per row), written into ``out`` (m,).
Face direction i asks for component i only.  ``grad_many`` (m, d) is the
full-vector lookup for callers outside the loop.  ``solve`` builds one
``_Stencil`` per call, holding the slices and the buffers for face
tilts, node gradients, flux columns, divergence and increment, and every
step fills it with ``out=`` ufuncs.  A table flux keeps its clamped tilts,
cells, weights, corner indices and corner terms in buffers of its own, so
a step allocates only for the few tilts whose arithmetic cell guess fails
its check and is searched for instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._interp import multilinear
from .errors import CflViolation, FluxRangeExceeded, NonFinite
from .lattice import DomainSpec


class GaussianFlux:
    """Closed-form flux for the quadratic potential: grad sigma(u) = u."""

    label = "gaussian-exact"
    monotone_lower = 1.0
    lipschitz_upper = 1.0

    def grad_many(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts, dtype=float)

    def grad_component(self, cols: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
        np.copyto(out, cols[i])
        return out


class TableFlux:
    """Flux interpolated from a surface-tension table.

    Refuses tables whose monotonicity probe is not strictly positive;
    a degenerate flux would make the limiting equation ill-posed.  Clamp
    events beyond ``clamp_tol`` of all queries raise
    ``FluxRangeExceeded`` at the end of a solve.
    """

    def __init__(self, table):
        lo, hi = table.monotonicity_bounds()
        self.monotone_lower = float(lo)
        self.lipschitz_upper = float(max(hi, table.lipschitz_upper()))
        if self.monotone_lower <= 0:
            raise ValueError(
                f"flux table is not monotone (C1 = {self.monotone_lower:g})"
            )
        self.table = table
        self.label = f"table({table.meta.get('potential', '?')})"

    @property
    def clamp_events(self) -> int:
        return self.table.clamp_events

    def grad_many(self, pts: np.ndarray) -> np.ndarray:
        return self.table.grad_many(pts)

    def grad_component(self, cols: np.ndarray, i: int, out: np.ndarray) -> np.ndarray:
        return self.table.grad_component(cols, i, out)


class PdeGrid:
    """Uniform node grid over the domain's bounding box.

    Nodes sit at lo + k * spacing per axis, including both walls, so box
    boundaries carry nodes exactly.  A node is interior when it lies
    strictly inside the domain; every other node is clamped to boundary
    data.
    """

    def __init__(self, spec: DomainSpec, spacing: float):
        lo, hi = spec.bounding_box()
        counts = []
        for a, b in zip(lo, hi):
            n = (b - a) / spacing
            n_round = round(n)
            if abs(n - n_round) > 1e-9 or n_round < 2:
                raise ValueError(
                    f"spacing {spacing:g} does not tile the bounding box span {b - a:g}"
                )
            counts.append(int(n_round) + 1)
        self.spec = spec
        self.spacing = float(spacing)
        self.d = spec.d
        self.axes = [lo[i] + spacing * np.arange(counts[i]) for i in range(self.d)]
        self.shape = tuple(counts)
        pts = self.points()
        self.interior = self._strictly_inside(pts).reshape(self.shape)

    def _strictly_inside(self, pts: np.ndarray) -> np.ndarray:
        spec = self.spec
        if spec.shape == "box":
            lo, hi = spec.bounding_box()
            return np.all((pts > lo + 1e-12) & (pts < hi - 1e-12), axis=1)
        if spec.shape == "ball":
            c = np.asarray(spec.center, dtype=float)
            r2 = np.einsum("ij,ij->i", pts - c, pts - c)
            return r2 < spec.radius**2 - 1e-12
        a = np.asarray(spec.normals, dtype=float)
        b = np.asarray(spec.offsets, dtype=float)
        return np.all(pts @ a.T < b - 1e-12, axis=1)

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def evaluate(self, fn) -> np.ndarray:
        return np.asarray(fn(self.points()), dtype=float).reshape(self.shape)


class GridField:
    """Nodal values with multilinear sampling, for L2 comparisons."""

    def __init__(self, grid: PdeGrid, values: np.ndarray):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)

    @property
    def spacing(self) -> float:
        return self.grid.spacing

    @property
    def cell_volume(self) -> float:
        return self.grid.spacing**self.grid.d

    def cell_centers(self) -> np.ndarray:
        return self.grid.points()

    def sample(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.array([a[0] for a in self.grid.axes])
        hi = np.array([a[-1] for a in self.grid.axes])
        return multilinear(self.grid.axes, self.values, np.clip(pts, lo, hi))


@dataclass
class PdeSolution:
    grid: PdeGrid
    final: np.ndarray
    snapshots: dict = field(default_factory=dict)
    dt: float = 0.0
    steps: int = 0
    linf_ok: bool = True
    flux_label: str = ""

    def field_at(self, t: float) -> GridField:
        for key, vals in self.snapshots.items():
            if abs(key - t) <= 1e-12 * max(1.0, abs(t)):
                return GridField(self.grid, vals)
        raise KeyError(f"no snapshot recorded at t={t:g}")


def _along(axis: int, d: int, sl) -> tuple:
    """Index that applies ``sl`` on ``axis`` and keeps every other axis whole."""
    return tuple(sl if k == axis else slice(None) for k in range(d))


class _Stencil:
    """Slices and buffers of one solve, made once and reused every step.

    Per face direction i: the slices of the lower and upper node of each
    face (which are also the lower and upper face of each inner node), the
    inner nodes, the face tilts (d,) + face shape, the flux column i there,
    and the flux difference across each inner node.  Node-wide: the
    central-difference gradients (d > 1 only), the divergence and the
    increment.
    """

    def __init__(self, shape, spacing: float):
        d = len(shape)
        self.d = d
        self.spacing = spacing
        self.faces = []
        for i in range(d):
            face_shape = tuple(n - 1 if k == i else n for k, n in enumerate(shape))
            inner_shape = tuple(n - 2 if k == i else n for k, n in enumerate(shape))
            self.faces.append(
                (
                    _along(i, d, slice(None, -1)),
                    _along(i, d, slice(1, None)),
                    _along(i, d, slice(1, -1)),
                    np.empty((d,) + face_shape),
                    np.empty(face_shape),
                    np.empty(inner_shape),
                )
            )
        # np.gradient's pieces: interior, the two walls, and their sources
        self.grad_slices = [
            [
                _along(j, d, sl)
                for sl in (slice(1, -1), slice(2, None), slice(None, -2), 0, 1, -1, -2)
            ]
            for j in range(d)
        ]
        self.node_grads = np.empty((d,) + tuple(shape)) if d > 1 else None
        self.div = np.empty(shape)
        self.inc = np.empty(shape)


def _node_gradients(h: np.ndarray, st: _Stencil) -> np.ndarray:
    """``np.gradient(h, spacing)`` into the stencil's buffer, same arithmetic:
    central differences inside, one-sided differences on the walls."""
    s = st.spacing
    for g, (mid, hi, lo, first, second, last, before_last) in zip(
        st.node_grads, st.grad_slices
    ):
        np.subtract(h[hi], h[lo], out=g[mid])
        np.divide(g[mid], 2.0 * s, out=g[mid])
        np.subtract(h[second], h[first], out=g[first])
        np.divide(g[first], s, out=g[first])
        np.subtract(h[last], h[before_last], out=g[last])
        np.divide(g[last], s, out=g[last])
    return st.node_grads


def _divergence(h: np.ndarray, flux, st: _Stencil) -> np.ndarray:
    """Flux-form divergence of grad sigma(grad h) at all inner nodes.

    Face direction i asks the flux for component i only, at the face
    tilts: the axis-i difference across the face and, for every other
    axis j, the average of the two nodes' central differences.
    """
    s = st.spacing
    div = st.div
    div.fill(0.0)
    node_grads = _node_gradients(h, st) if st.d > 1 else None
    for i, (lower, upper, inner, u, flux_i, diff) in enumerate(st.faces):
        np.subtract(h[upper], h[lower], out=u[i])
        np.divide(u[i], s, out=u[i])
        for j in range(st.d):
            if j != i:
                np.add(node_grads[j][lower], node_grads[j][upper], out=u[j])
                np.multiply(u[j], 0.5, out=u[j])
        flux.grad_component(u.reshape(st.d, -1), i, flux_i.reshape(-1))
        np.subtract(flux_i[upper], flux_i[lower], out=diff)
        np.divide(diff, s, out=diff)
        np.add(div[inner], diff, out=div[inner])
    return div


def solve(
    grid: PdeGrid,
    h0,
    flux,
    t_end: float,
    boundary=None,
    dt: float | None = None,
    record=(),
    clamp_tol: float = 1e-3,
) -> PdeSolution:
    """Integrate to ``t_end``, recording snapshots at the given times.

    ``h0`` is a callable on points or a nodal array; ``boundary`` is the
    callable supplying values at non-interior nodes (defaults to freezing
    the initial values there).  A user ``dt`` above the CFL cap raises
    ``CflViolation``; the automatic step is 0.9 times the cap and
    each recording segment lands exactly.
    """
    h = grid.evaluate(h0) if callable(h0) else np.array(h0, dtype=float)
    if h.shape != grid.shape:
        raise ValueError("initial data does not match the grid")
    interior = grid.interior
    if boundary is not None:
        # steps only add at interior nodes, so the boundary is set once
        np.copyto(h, grid.evaluate(boundary), where=~interior)

    cap = grid.spacing**2 / (2.0 * grid.d * flux.lipschitz_upper)
    if dt is not None and dt > cap * (1 + 1e-12):
        raise CflViolation(f"dt={dt:g} exceeds CFL cap {cap:g}")
    dt_base = dt if dt is not None else 0.9 * cap

    record = sorted(set(float(t) for t in record) | {float(t_end)})
    if record[0] < 0 or record[-1] > t_end + 1e-12:
        raise ValueError("recording times must lie in [0, t_end]")
    clamp_before = getattr(flux, "clamp_events", 0)
    queries = 0

    bound0 = float(np.abs(h).max())
    sol = PdeSolution(
        grid=grid, final=h, dt=dt_base, flux_label=getattr(flux, "label", "?")
    )
    st = _Stencil(grid.shape, grid.spacing)
    inc = st.inc
    t = 0.0
    steps = 0
    for t_next in record:
        span = t_next - t
        if span > 1e-15:
            n = max(1, int(np.ceil(span / dt_base - 1e-12)))
            dt_eff = span / n
            for _ in range(n):
                np.multiply(_divergence(h, flux, st), dt_eff, out=inc)
                np.add(h, inc, out=h, where=interior)
                steps += 1
                queries += grid.d * h.size  # upper bound on flux queries
                # one pass for both checks: the max is NaN or inf if any is
                peak = np.abs(h, out=inc).max()
                if not np.isfinite(peak):
                    raise NonFinite(f"PDE state left float range at step {steps}")
                if peak > bound0 + 1e-9:
                    sol.linf_ok = False
        t = t_next
        sol.snapshots[t_next] = h.copy()
    sol.final = h
    sol.steps = steps
    clamped = getattr(flux, "clamp_events", 0) - clamp_before
    if queries and clamped / queries > clamp_tol:
        raise FluxRangeExceeded(
            f"{clamped} of ~{queries} flux queries left the tabulated range"
        )
    return sol


def quadrature(a, b, spec: DomainSpec) -> tuple[np.ndarray, float]:
    """Midpoint-rule points and weight for the L2(D) distance of a and b.

    The points are the finer field's cell centres inside D, and the
    weight is its cell volume.
    """
    finer = a if a.spacing <= b.spacing else b
    pts = finer.cell_centers()
    return pts[spec.contains(pts)], finer.cell_volume


def squared_l2(diff: np.ndarray, weight: float) -> float:
    """Midpoint-rule integral of diff^2 over the quadrature points."""
    return float(np.sum(diff**2) * weight)


def l2_compare(a, b, spec: DomainSpec) -> float:
    """Squared L2(D) distance by midpoint rule on the finer field's cells.

    Both arguments expose ``spacing``, ``cell_volume``, ``cell_centers``
    and ``sample``; the finer field supplies the quadrature points, so
    comparisons across coarse fields against one fine reference share
    identical quadrature geometry.
    """
    pts, weight = quadrature(a, b, spec)
    if not len(pts):
        return 0.0
    return squared_l2(np.asarray(a.sample(pts)) - np.asarray(b.sample(pts)), weight)
