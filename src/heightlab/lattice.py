"""Lattice geometry: tori, discretized domains and their boundary data.

Conventions
-----------
A directed bond b = (x, y) joins nearest neighbours; its head is x, its
tail is y, and the gradient of a height field along b is phi(x) - phi(y).
Bond lists keep one orientation per undirected bond, the canonical
positive-axis one (x + e_i, x); the reversed value follows by
antisymmetry.  Sites and bonds are enumerated lexicographically so every
run is reproducible bit for bit.

Microscopic cells: B(a, l) denotes the half-open cube of side l centred
at a, the product of the intervals [a_i - l/2, a_i + l/2).  A site x of
the scaled lattice (1/N) Z^d represents the cell B(x/N, 1/N); it belongs
to the interior discretization of a continuum domain D when the fattened
cube B(x/N, 5/N) fits inside D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInterior

_GL_NODES = {}  # cache of Gauss-Legendre rules keyed by order


def _gauss_legendre(order: int):
    if order not in _GL_NODES:
        _GL_NODES[order] = np.polynomial.legendre.leggauss(order)
    return _GL_NODES[order]


# ---------------------------------------------------------------------------
# continuum domains


@dataclass(frozen=True)
class DomainSpec:
    """Bounded continuum domain containing the origin.

    Supported shapes: ``box`` (half-open axis-aligned cube product, one
    positive side per axis) and ``ball`` (closed Euclidean ball of
    positive radius).  Membership tests are exact for both.
    """

    shape: str
    center: tuple[float, ...] = (0.0,)
    sides: tuple[float, ...] | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.shape == "box":
            if self.sides is None or len(self.sides) != self.d:
                raise ValueError(f"box domain needs {self.d} sides, one per axis, "
                                 f"got sides {self.sides}")
            if not all(0 < s < np.inf for s in self.sides):
                raise ValueError(f"box sides must be positive and finite, got {self.sides}")
        elif self.shape == "ball":
            if self.radius is None or not 0 < self.radius < np.inf:
                raise ValueError(f"ball radius must be positive and finite, got {self.radius}")
        else:
            raise ValueError(f"unknown domain shape {self.shape!r}")
        origin = np.zeros((1, self.d))
        if not bool(self.contains(origin)[0]):
            raise ValueError("domain must contain the origin")

    @staticmethod
    def box(sides, center=None) -> "DomainSpec":
        sides = tuple(float(s) for s in np.atleast_1d(sides))
        if center is None:
            center = (0.0,) * len(sides)
        return DomainSpec(shape="box", center=tuple(center), sides=sides)

    @staticmethod
    def ball(radius: float, center) -> "DomainSpec":
        return DomainSpec(shape="ball", center=tuple(center), radius=float(radius))

    @property
    def d(self) -> int:
        return len(self.center)

    def bounding_box(self):
        """(lo, hi) arrays of an axis-aligned box containing the domain."""
        c = np.asarray(self.center, dtype=float)
        if self.shape == "box":
            s = np.asarray(self.sides, dtype=float)
            return c - s / 2.0, c + s / 2.0
        return c - self.radius, c + self.radius

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Membership of an (M, d) array of points, exact per shape."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.shape == "box":
            lo, hi = self.bounding_box()
            return np.all((pts >= lo) & (pts < hi), axis=1)
        c = np.asarray(self.center, dtype=float)
        return np.einsum("ij,ij->i", pts - c, pts - c) <= self.radius**2

    def strictly_contains(self, pts: np.ndarray) -> np.ndarray:
        """Whether each of the (M, d) points lies inside the domain and
        more than 1e-12 off its boundary."""
        if self.shape == "box":
            lo, hi = self.bounding_box()
            return np.all((pts > lo + 1e-12) & (pts < hi - 1e-12), axis=1)
        c = np.asarray(self.center, dtype=float)
        r2 = np.einsum("ij,ij->i", pts - c, pts - c)
        return r2 < self.radius**2 - 1e-12

    def cube_inside(self, centers: np.ndarray, side: float) -> np.ndarray:
        """Whether B(center, side) lies inside the domain, per center."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if self.shape == "box":
            lo, hi = self.bounding_box()
            return np.all(
                (centers - side / 2.0 >= lo) & (centers + side / 2.0 <= hi), axis=1
            )
        # the ball is convex: the cube is inside when its 2^d corners are
        d = self.d
        signs = np.array(
            np.meshgrid(*([[-0.5, 0.5]] * d), indexing="ij")
        ).reshape(d, -1).T
        corners = centers[:, None, :] + side * signs[None, :, :]
        c = np.asarray(self.center, dtype=float)
        r2 = np.einsum("mkd,mkd->mk", corners - c, corners - c)
        return np.all(r2 <= self.radius**2, axis=1)

    def cube_intersects(self, centers: np.ndarray, side: float) -> np.ndarray:
        """Whether B(center, side) meets the domain in positive measure."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if self.shape == "box":
            lo, hi = self.bounding_box()
            return np.all(
                (centers + side / 2.0 > lo) & (centers - side / 2.0 < hi), axis=1
            )
        c = np.asarray(self.center, dtype=float)
        clamped = np.clip(c, centers - side / 2.0, centers + side / 2.0)
        r2 = np.einsum("md,md->m", clamped - c, clamped - c)
        return r2 < self.radius**2

    def cell_weights(self, N: int, sites: np.ndarray) -> np.ndarray:
        """Volume of the cell B(x/N, 1/N) intersected with the domain, per site.

        Exact for boxes; balls use a midpoint subgrid of the cell (error
        O(cell side / 12)).
        """
        sites = np.asarray(sites)
        m, d = sites.shape
        if self.shape == "box":
            lo, hi = self.bounding_box()
            left = np.maximum(sites / N - 0.5 / N, lo)
            right = np.minimum(sites / N + 0.5 / N, hi)
            return np.prod(np.clip(right - left, 0.0, None), axis=1)
        k = 12 if d == 1 else (8 if d == 2 else 4)
        offs = (np.arange(k) + 0.5) / k - 0.5
        grids = np.meshgrid(*([offs] * d), indexing="ij")
        sub = np.stack([g.ravel() for g in grids], axis=-1)  # (k^d, d)
        pts = sites[:, None, :] / N + sub[None, :, :] / N
        frac = self.contains(pts.reshape(-1, d)).reshape(m, -1).mean(axis=1)
        return frac * N ** (-d)


# ---------------------------------------------------------------------------
# lattices


class TorusLattice:
    """Periodic lattice (Z/NZ)^d with lexicographic site order."""

    def __init__(self, N: int, d: int):
        if N < 2:
            raise ValueError("torus needs N >= 2")
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.N = int(N)
        self.d = int(d)
        self.shape = (self.N,) * self.d
        self.n_sites = self.N**self.d

    def bond_heads(self) -> np.ndarray:
        """Flat site ids of the canonical bond heads, shape (d, n_sites):
        row i, column x is the head x + e_i of the bond (x + e_i, x).
        """
        idx = np.arange(self.n_sites).reshape(self.shape)
        return np.stack([np.roll(idx, -1, axis=i).ravel() for i in range(self.d)])

    def __repr__(self):
        return f"TorusLattice(N={self.N}, d={self.d})"


class DiscretizedDomain:
    """Interior sites of a domain at scale N plus their boundary layer.

    Site order: interior sites (lexicographic), then the boundary layer
    (exterior sites adjacent to the interior, lexicographic), then any
    remaining sites whose cells B(x/N, 1/N) meet the domain (these carry
    boundary data for macroscopic profiles but no bonds).
    """

    def __init__(self, spec, N, sites, n_interior, n_layer, neighbors, bonds_closure):
        self.spec = spec
        self.N = int(N)
        self.d = spec.d
        self.sites = sites                    # (M, d) int coordinates
        self.n_interior = int(n_interior)
        self.n_layer = int(n_layer)
        self.neighbors = neighbors            # (n_interior, 2d) ids
        # (K, 2) [head, tail] ids of the bonds with an interior endpoint:
        # interior-interior bonds first, then crossing ones
        self.bonds_closure = bonds_closure

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def __repr__(self):
        return (
            f"DiscretizedDomain(N={self.N}, d={self.d}, "
            f"interior={self.n_interior}, layer={self.n_layer})"
        )


def discretize_domain(spec: DomainSpec, N: int) -> DiscretizedDomain:
    """Interior sites {x : B(x/N, 5/N) inside D} with boundary layer and cover.

    Raises ``EmptyInterior`` when no cell qualifies (N too small for D).
    """
    if N < 1:
        raise ValueError("scale N must be >= 1")
    d = spec.d
    lo, hi = spec.bounding_box()
    axes = [
        np.arange(int(np.floor(N * lo[i])) - 2, int(np.ceil(N * hi[i])) + 3)
        for i in range(d)
    ]
    scan_shape = tuple(len(a) for a in axes)
    origin = np.array([a[0] for a in axes])
    coords = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(d, -1).T

    interior = spec.cube_inside(coords / N, 5.0 / N).reshape(scan_shape)
    if not interior.any():
        raise EmptyInterior(f"no interior sites for {spec.shape} at N={N}")

    # exterior sites touching the interior through a bond
    layer = np.zeros(scan_shape, dtype=bool)
    for i in range(d):
        for s in (1, -1):
            shifted = np.roll(interior, s, axis=i)
            # roll wraps around; the scan box has a 2-site margin of
            # non-interior sites so wrapped-in values are False
            layer |= shifted
    layer &= ~interior

    cover = spec.cube_intersects(coords / N, 1.0 / N).reshape(scan_shape)
    extra = cover & ~interior & ~layer

    flat_interior = interior.ravel()
    flat_layer = layer.ravel()
    flat_extra = extra.ravel()
    sites = np.vstack(
        [coords[flat_interior], coords[flat_layer], coords[flat_extra]]
    )
    n_int = int(flat_interior.sum())
    n_lay = int(flat_layer.sum())

    # dense id lookup over the scan box
    ids = np.full(scan_shape, -1, dtype=np.int64)
    sel = sites - origin
    ids[tuple(sel.T)] = np.arange(len(sites))

    # neighbor table for interior sites
    int_rel = sites[:n_int] - origin
    nbr = np.empty((n_int, 2 * d), dtype=np.int64)
    col = 0
    for i in range(d):
        for s in (1, -1):
            shifted = int_rel.copy()
            shifted[:, i] += s
            nbr[:, col] = ids[tuple(shifted.T)]
            col += 1
    if (nbr < 0).any():
        raise AssertionError("interior neighbor missing from site list")

    # canonical bonds (x + e_i, x), at least one endpoint interior
    b_int, b_cross = [], []
    tails_rel = sites[: n_int + n_lay] - origin
    for i in range(d):
        heads_rel = tails_rel.copy()
        heads_rel[:, i] += 1
        inside_scan = heads_rel[:, i] < scan_shape[i]
        t_ids = ids[tuple(tails_rel[inside_scan].T)]
        h_ids = ids[tuple(heads_rel[inside_scan].T)]
        ok = (t_ids >= 0) & (h_ids >= 0)
        t_ids, h_ids = t_ids[ok], h_ids[ok]
        t_in = t_ids < n_int
        h_in = h_ids < n_int
        both = t_in & h_in
        one = t_in ^ h_in
        pairs = np.column_stack([h_ids, t_ids])
        for mask, dest in ((both, b_int), (one, b_cross)):
            chosen = pairs[mask]
            order = np.lexsort(sites[chosen[:, 1]].T[::-1])  # tail coords, lex
            dest.append(chosen[order])
    return DiscretizedDomain(spec, N, sites, n_int, n_lay, nbr, np.vstack(b_int + b_cross))


# ---------------------------------------------------------------------------
# boundary data


def cell_average(f, N: int, sites: np.ndarray) -> np.ndarray:
    """Average of f over the cells B(x/N, 1/N), Gauss-Legendre per axis.

    ``f`` maps an (M, d) array of points to (M,) values.  The 5-point
    tensor rule is exact for polynomials up to degree 9 per axis.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    m, d = sites.shape
    nodes, weights = _gauss_legendre(5)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=-1)  # (5^d, d)
    wgrids = np.meshgrid(*([weights] * d), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1) / 2.0**d
    pts = sites[:, None, :] / N + offs[None, :, :] / (2.0 * N)
    vals = np.asarray(f(pts.reshape(-1, d)), dtype=float).reshape(m, -1)
    return vals @ w


def boundary_height(f, N: int, sites: np.ndarray) -> np.ndarray:
    """Microscopic boundary heights N * (cell average of f) at given sites."""
    return N * cell_average(f, N, sites)
